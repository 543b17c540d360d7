// The benchmark's open-loop HTTP client: one thread, a few keep-alive
// connections, requests sent on a fixed schedule.
//
// Each request is timed from when it was due. Two waits are told apart:
//   connection wait  due -> the moment a connection was free for it (the
//                    server is still busy with earlier requests), and
//   generator lateness  that moment -> the send (the client itself ran
//                    late: descheduled, or busy reading other responses).
// A busy host shows up as generator lateness, which the benchmark checks
// against a limit before trusting a run's timings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct ClientRequest {
  double due_s = 0.0;  // offset from the run start
  std::string wire;    // complete HTTP/1.1 request bytes
};

struct ClientResult {
  // Offsets from the run start in seconds; negative when never reached.
  double due = 0.0;
  double ready = -1.0;        // due and a connection free
  double sent = -1.0;         // last request byte written
  double first_byte = -1.0;   // first response byte read
  double first_event = -1.0;  // first SSE data event (streams)
  double last_byte = -1.0;    // response complete
  int status = 0;
  bool protocol_error = false;
  std::string error;  // what went wrong, for the log
  // Single-shot: the JSON body. Stream: the `done` event's JSON.
  std::string body;
  // Stream: the snippet rebuilt from the data events' append/reset deltas.
  std::string streamed;
  bool streaming = false;
  std::vector<double> event_times;  // SSE data events
  std::size_t response_bytes = 0;
  bool unsent = false;  // not sent because the run stopped first
  bool complete() const { return last_byte >= 0.0 && !protocol_error; }
};

// POST request bytes for `path` with a JSON body.
std::string http_post(std::string_view path, std::string_view body);

// Applies one SSE data event payload ({"text": ..., "reset": ...}) to the
// snippet being rebuilt. False when the payload is malformed.
bool apply_stream_delta(std::string_view json, std::string* snippet);

class OpenLoopClient {
 public:
  OpenLoopClient(std::uint16_t port, int connections);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  bool connected() const { return !fds_.empty(); }

  // Sends `requests` (sorted by due time) on schedule and waits for every
  // response, up to `drain_s` past the last due time; responses still
  // missing then are failures. With `stop_s` >= 0 nothing is sent from
  // `stop_s` on: the requests left are marked unsent (a suffix, since
  // requests go out in order) and the wait is up to `drain_s` past
  // `stop_s`. Results align with requests by index.
  std::vector<ClientResult> run(const std::vector<ClientRequest>& requests,
                                double drain_s, double stop_s = -1.0);

 private:
  int connect_one();

  std::uint16_t port_;
  std::vector<int> fds_;
};

}  // namespace perfbench
