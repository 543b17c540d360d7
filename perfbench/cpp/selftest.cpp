// Self-tests of the benchmark's own machinery:
//   * the percentile rank rule, including the ten-samples-beyond margin;
//   * request streams: the same seed gives an identical stream, another
//     seed a different one;
//   * SSE reconstruction: a stream rebuilt from its data events equals the
//     single-shot response for the same request, byte for byte;
//   * the oracle flags a deliberately corrupted response.
//
// Usage: perfbench_selftest [--checkpoint FILE]   (exit 0 when all pass)
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "client.hpp"
#include "common.hpp"
#include "model/checkpoint.hpp"
#include "net/server.hpp"
#include "oracle.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "util/log.hpp"
#include "workload.hpp"

using namespace perfbench;
namespace serve = wisdom::serve;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  expect(nearest_rank(50, 1000) == 500, "nearest rank of p50 over 1000");
  expect(nearest_rank(99, 1000) == 990, "nearest rank of p99 over 1000");
  Percentile p99 = percentile(values, 99);
  expect(near(p99.value, 990) && near(p99.p, 99) && p99.n == 1000,
         "p99 over 1000 samples has 10 beyond it and is reported as p99");
  expect(percentile_supported(99, 1000) && !percentile_supported(99, 999),
         "p99 needs at least 10 samples beyond it");
  std::vector<double> hundred(values.begin(), values.begin() + 100);
  Percentile tail = percentile(hundred, 99);
  expect(near(tail.p, 90) && near(tail.value, 90),
         "p99 over 100 samples falls back to p90, the deepest supported");
  std::vector<double> few = {5, 1, 3};
  Percentile small = percentile(few, 99);
  expect(near(small.p, 50) && near(small.value, 3),
         "too few samples for any tail report the median");
  expect(percentile({}, 50).n == 0, "an empty sample reports nothing");
}

bool same_stream(const std::vector<BenchRequest>& a,
                 const std::vector<BenchRequest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (request_key(a[i].request) != request_key(b[i].request) ||
        a[i].due_s != b[i].due_s)
      return false;
  return true;
}

void test_streams() {
  auto e1 = editor_stream(7, 0, 300, 2.0, 0.05);
  auto e2 = editor_stream(7, 0, 300, 2.0, 0.05);
  auto e3 = editor_stream(8, 0, 300, 2.0, 0.05);
  expect(!e1.empty() && same_stream(e1, e2),
         "editor stream: same seed, same stream");
  expect(!same_stream(e1, e3), "editor stream: other seed, other stream");
  auto o1 = oneoff_stream(7, 0, 500, 1.0);
  auto o2 = oneoff_stream(7, 0, 500, 1.0);
  auto o3 = oneoff_stream(8, 0, 500, 1.0);
  expect(!o1.empty() && same_stream(o1, o2),
         "one-off stream: same seed, same stream");
  expect(!same_stream(o1, o3), "one-off stream: other seed, other stream");
  auto f1 = offline_samples(7);
  auto f2 = offline_samples(7);
  auto f3 = offline_samples(8);
  expect(!f1.empty() && same_stream(f1, f2),
         "offline samples: same seed, same set");
  expect(!same_stream(f1, f3), "offline samples: other seed, other set");
}

void test_stream_deltas() {
  std::string snippet;
  bool ok =
      apply_stream_delta(R"({"text": "- name: a\n", "reset": false})",
                         &snippet) &&
      apply_stream_delta(R"({"text": "  x: \"q\"\\", "reset": false})",
                         &snippet);
  expect(ok && snippet == "- name: a\n  x: \"q\"\\",
         "SSE append deltas concatenate");
  ok = apply_stream_delta(R"({"text": "fresh", "reset": true})", &snippet);
  expect(ok && snippet == "fresh", "SSE reset delta replaces the text");
  expect(!apply_stream_delta(R"({"text": "open)", &snippet),
         "an unterminated SSE payload is rejected");
}

void test_sse_and_oracle(const std::string& checkpoint) {
  wisdom::model::LoadResult loaded =
      wisdom::model::load_checkpoint_file_ex(checkpoint);
  auto tokenizer = wisdom::text::BpeTokenizer::deserialize(loaded.tokenizer);
  expect(loaded.status == wisdom::model::LoadStatus::Ok &&
             tokenizer.has_value(),
         "frozen checkpoint loads with status Ok");
  if (!loaded.model || !tokenizer) return;

  serve::ServiceOptions options;
  options.lint_policy = serve::LintPolicy::Repair;
  options.prefix_cache_enabled = true;
  options.response_cache_enabled = true;
  serve::InferenceService service(*loaded.model, *tokenizer, options);
  wisdom::net::ServerOptions server_options;
  server_options.worker_threads = 4;
  wisdom::net::HttpServer server(service, server_options);
  expect(server.start(), "HTTP server binds");

  auto requests = editor_stream(3, 0, 200, 1.0, 0.05);
  if (requests.size() > 24) requests.resize(24);
  std::vector<ClientRequest> single, stream;
  for (const BenchRequest& r : requests) {
    std::string body = serve::to_json(r.request);
    single.push_back({0.0, http_post("/v1/suggest", body)});
    stream.push_back({0.0, http_post("/v1/suggest/stream", body)});
  }
  OpenLoopClient client(server.port(), 1);
  auto one = client.run(single, 30.0);
  auto many = client.run(stream, 30.0);
  std::size_t equal = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto shot = serve::response_from_json(one[i].body);
    auto done = serve::response_from_json(many[i].body);
    if (shot && done && many[i].streaming && !many[i].event_times.empty() &&
        many[i].streamed == shot->snippet && done->snippet == shot->snippet)
      ++equal;
  }
  expect(!requests.empty() && equal == requests.size(),
         "SSE reconstruction equals the single-shot bytes (" +
             std::to_string(equal) + "/" +
             std::to_string(requests.size()) + ")");
  server.stop();

  Oracle oracle(*loaded.model, *tokenizer, serve::LintPolicy::Repair);
  std::vector<const serve::SuggestionRequest*> pointers;
  for (const BenchRequest& r : requests) pointers.push_back(&r.request);
  oracle.prepare(pointers, 2);
  const BenchRequest& probe = requests.front();
  std::optional<serve::SuggestionResponse> parsed =
      serve::response_from_json(one.front().body);
  expect(parsed.has_value(), "the single-shot response parses");
  if (!parsed) return;
  serve::SuggestionResponse served = *parsed;
  const Expected* want = oracle.expected(probe.request);
  expect(want && Oracle::compare(*want, served).empty(),
         "the oracle accepts a served response");
  serve::SuggestionResponse corrupt = served;
  if (corrupt.snippet.empty())
    corrupt.snippet.push_back('x');
  else
    corrupt.snippet[corrupt.snippet.size() / 2] ^= 0x20;
  expect(want && !Oracle::compare(*want, corrupt).empty(),
         "the oracle flags a response with one corrupted byte");
  serve::SuggestionResponse flipped = served;
  flipped.ok = !flipped.ok;
  expect(want && !Oracle::compare(*want, flipped).empty(),
         "the oracle flags a flipped ok bit");
}

}  // namespace

int main(int argc, char** argv) {
  wisdom::util::set_log_level(wisdom::util::LogLevel::Warn);
  std::string checkpoint = "perfbench/model/wisdom-ansible-multi-350m.ckpt";
  for (int i = 1; i + 1 < argc; i += 2)
    if (std::string(argv[i]) == "--checkpoint") checkpoint = argv[i + 1];
  test_percentiles();
  test_streams();
  test_stream_deltas();
  test_sse_and_oracle(checkpoint);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
