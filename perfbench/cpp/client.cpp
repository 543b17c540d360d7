#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <limits>

namespace perfbench {

namespace {

double monotonic_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

timespec to_timespec(double seconds) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec =
      static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  if (ts.tv_sec == 0 && ts.tv_nsec == 0) ts.tv_nsec = 1;  // 0 would disarm
  return ts;
}

bool iequals_prefix(std::string_view line, std::string_view prefix) {
  if (line.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    char a = line[i];
    if (a >= 'A' && a <= 'Z') a = static_cast<char>(a - 'A' + 'a');
    if (a != prefix[i]) return false;
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

}  // namespace

std::string http_post(std::string_view path, std::string_view body) {
  std::string out = "POST ";
  out += path;
  out += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: keep-alive\r\n\r\n";
  out += body;
  return out;
}

bool apply_stream_delta(std::string_view json, std::string* snippet) {
  constexpr std::string_view kText = "\"text\": \"";
  std::size_t pos = json.find(kText);
  if (pos == std::string_view::npos) return false;
  pos += kText.size();
  std::string text;
  bool closed = false;
  while (pos < json.size()) {
    char c = json[pos++];
    if (c == '"') {
      closed = true;
      break;
    }
    if (c != '\\') {
      text += c;
      continue;
    }
    if (pos >= json.size()) return false;
    char e = json[pos++];
    switch (e) {
      case '"': text += '"'; break;
      case '\\': text += '\\'; break;
      case '/': text += '/'; break;
      case 'n': text += '\n'; break;
      case 'r': text += '\r'; break;
      case 't': text += '\t'; break;
      case 'b': text += '\b'; break;
      case 'f': text += '\f'; break;
      case 'u': {
        if (pos + 4 > json.size()) return false;
        const std::string hex(json.substr(pos, 4));
        unsigned code =
            static_cast<unsigned>(std::strtoul(hex.c_str(), nullptr, 16));
        if (code > 0xFF) return false;
        text += static_cast<char>(code);
        pos += 4;
        break;
      }
      default: return false;
    }
  }
  if (!closed) return false;
  std::string_view tail = json.substr(pos);
  std::size_t r = tail.find("\"reset\": ");
  if (r == std::string_view::npos) return false;
  tail = tail.substr(r + 9);
  if (tail.substr(0, 4) == "true") {
    *snippet = std::move(text);
  } else if (tail.substr(0, 5) == "false") {
    *snippet += text;
  } else {
    return false;
  }
  return true;
}

namespace {

// Incremental HTTP/1.1 response reader for one connection: status line,
// headers, then a Content-Length body or a chunked SSE stream.
class ResponseReader {
 public:
  // Feeds bytes read at time `now`; fills `out` as parts arrive. Returns
  // true once the response is complete (or failed: out->protocol_error).
  // Bytes past the end of the response are left in `rest`.
  bool feed(std::string_view bytes, double now, ClientResult* out,
            std::string* rest);
  void reset();

 private:
  bool parse_head(ClientResult* out);
  bool take_chunks(double now, ClientResult* out);
  void on_event(std::string_view event, double now, ClientResult* out);

  enum class State { Head, Body, Chunks, Done } state_ = State::Head;
  std::string buf_;
  std::size_t content_length_ = 0;
  std::string events_;  // SSE text not yet split into events
};

void ResponseReader::reset() {
  state_ = State::Head;
  buf_.clear();
  content_length_ = 0;
  events_.clear();
}

bool ResponseReader::parse_head(ClientResult* out) {
  std::size_t end = buf_.find("\r\n\r\n");
  std::string_view head(buf_.data(), end);
  std::size_t line_end = head.find("\r\n");
  std::string_view status_line = head.substr(0, line_end);
  if (status_line.substr(0, 7) != "HTTP/1." || status_line.size() < 12) {
    out->protocol_error = true;
    out->error = "bad status line";
    return false;
  }
  out->status = std::atoi(std::string(status_line.substr(9, 3)).c_str());
  bool chunked = false;
  bool have_length = false;
  while (line_end != std::string_view::npos && line_end < head.size()) {
    std::size_t next = head.find("\r\n", line_end + 2);
    std::string_view line =
        head.substr(line_end + 2, next == std::string_view::npos
                                      ? std::string_view::npos
                                      : next - line_end - 2);
    if (iequals_prefix(line, "content-length:")) {
      const std::string value(trim(line.substr(15)));
      content_length_ =
          static_cast<std::size_t>(std::strtoull(value.c_str(), nullptr, 10));
      have_length = true;
    } else if (iequals_prefix(line, "transfer-encoding:")) {
      chunked = trim(line.substr(18)) == "chunked";
    }
    line_end = next;
  }
  buf_.erase(0, end + 4);
  if (chunked) {
    state_ = State::Chunks;
    out->streaming = true;
  } else if (have_length) {
    state_ = State::Body;
  } else {
    out->protocol_error = true;
    out->error = "response without length or chunking";
    return false;
  }
  return true;
}

void ResponseReader::on_event(std::string_view event, double now,
                              ClientResult* out) {
  bool done = false;
  std::string_view data;
  while (!event.empty()) {
    std::size_t nl = event.find('\n');
    std::string_view line = event.substr(0, nl);
    if (line == "event: done") done = true;
    else if (line.substr(0, 6) == "data: ") data = line.substr(6);
    if (nl == std::string_view::npos) break;
    event.remove_prefix(nl + 1);
  }
  if (done) {
    out->body = std::string(data);
    return;
  }
  out->event_times.push_back(now);
  if (out->first_event < 0.0) out->first_event = now;
  if (!apply_stream_delta(data, &out->streamed)) {
    out->protocol_error = true;
    out->error = "malformed SSE data event";
  }
}

bool ResponseReader::take_chunks(double now, ClientResult* out) {
  while (true) {
    std::size_t line_end = buf_.find("\r\n");
    if (line_end == std::string::npos) return false;
    std::size_t size = static_cast<std::size_t>(
        std::strtoull(buf_.substr(0, line_end).c_str(), nullptr, 16));
    if (size == 0) {
      // Terminal chunk "0\r\n" followed by the final "\r\n".
      if (buf_.size() < line_end + 4) return false;
      buf_.erase(0, line_end + 4);
      if (!events_.empty()) {
        out->protocol_error = true;
        out->error = "stream ended inside an SSE event";
      }
      return true;
    }
    if (buf_.size() < line_end + 2 + size + 2) return false;
    events_.append(buf_, line_end + 2, size);
    buf_.erase(0, line_end + 2 + size + 2);
    std::size_t sep;
    while ((sep = events_.find("\n\n")) != std::string::npos) {
      on_event(std::string_view(events_).substr(0, sep), now, out);
      events_.erase(0, sep + 2);
    }
  }
}

bool ResponseReader::feed(std::string_view bytes, double now, ClientResult* out,
                          std::string* rest) {
  buf_.append(bytes);
  out->response_bytes += bytes.size();
  if (state_ == State::Head) {
    if (buf_.find("\r\n\r\n") == std::string::npos) {
      if (buf_.size() > (64u << 10)) {
        out->protocol_error = true;
        out->error = "oversized response head";
        return true;
      }
      return false;
    }
    if (!parse_head(out)) return true;
  }
  bool done = false;
  if (state_ == State::Body) {
    if (buf_.size() < content_length_) return false;
    out->body = buf_.substr(0, content_length_);
    buf_.erase(0, content_length_);
    done = true;
  } else if (state_ == State::Chunks) {
    done = take_chunks(now, out);
  }
  if (done) {
    state_ = State::Done;
    out->response_bytes -= buf_.size();
    *rest = std::move(buf_);
    buf_.clear();
  }
  return done || out->protocol_error;
}

}  // namespace

OpenLoopClient::OpenLoopClient(std::uint16_t port, int connections)
    : port_(port) {
  for (int i = 0; i < connections; ++i) {
    int fd = connect_one();
    if (fd < 0) {
      for (int open : fds_) ::close(open);
      fds_.clear();
      return;
    }
    fds_.push_back(fd);
  }
}

OpenLoopClient::~OpenLoopClient() {
  for (int fd : fds_)
    if (fd >= 0) ::close(fd);
}

int OpenLoopClient::connect_one() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  // Blocking connect, then non-blocking I/O inside the run loop.
  int flags = 1;
  ::ioctl(fd, FIONBIO, &flags);
  return fd;
}

std::vector<ClientResult> OpenLoopClient::run(
    const std::vector<ClientRequest>& requests, double drain_s, double stop_s) {
  const std::size_t n = requests.size();
  std::vector<ClientResult> results(n);
  for (std::size_t i = 0; i < n; ++i) results[i].due = requests[i].due_s;
  if (n == 0 || fds_.empty()) return results;

  struct Conn {
    int fd = -1;
    long req = -1;  // request in flight, -1 when free
    double free_since = 0.0;
    std::string out;
    std::size_t off = 0;
    bool want_out = false;
    ResponseReader reader;
  };
  std::vector<Conn> conns(fds_.size());
  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  const int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  const std::uint32_t kTimer = std::numeric_limits<std::uint32_t>::max();
  auto watch = [&](std::size_t c, bool out, int op) {
    epoll_event ev{};
    ev.events = EPOLLIN | (out ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<std::uint32_t>(c);
    ::epoll_ctl(epfd, op, conns[c].fd, &ev);
    conns[c].want_out = out;
  };
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = fds_[c];
    watch(c, false, EPOLL_CTL_ADD);
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = kTimer;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, tfd, &ev);
  }

  const double base = monotonic_s();
  auto now = [&] { return monotonic_s() - base; };
  const bool stops = stop_s >= 0.0;
  const double give_up =
      (stops ? stop_s : requests.back().due_s) + drain_s;
  std::size_t next = 0;
  std::size_t finished = 0;

  auto finish = [&](Conn& conn, double t) {
    results[static_cast<std::size_t>(conn.req)].last_byte = t;
    conn.req = -1;
    conn.free_since = t;
    conn.out.clear();
    conn.off = 0;
    conn.reader.reset();
    ++finished;
  };
  auto fail = [&](std::size_t c, const char* why) {
    Conn& conn = conns[c];
    if (conn.req >= 0) {
      ClientResult& r = results[static_cast<std::size_t>(conn.req)];
      r.protocol_error = true;
      if (r.error.empty()) r.error = why;
      conn.req = -1;
      ++finished;
    }
    // Replace the broken connection so the schedule can go on.
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = connect_one();
    conn.out.clear();
    conn.off = 0;
    conn.reader.reset();
    conn.free_since = now();
    if (conn.fd >= 0) watch(c, false, EPOLL_CTL_ADD);
  };
  auto flush = [&](std::size_t c) {
    Conn& conn = conns[c];
    while (conn.off < conn.out.size()) {
      ssize_t w = ::send(conn.fd, conn.out.data() + conn.off,
                         conn.out.size() - conn.off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        fail(c, "send failed");
        return;
      }
      conn.off += static_cast<std::size_t>(w);
    }
    bool pending = conn.off < conn.out.size();
    if (!pending && conn.req >= 0) {
      ClientResult& r = results[static_cast<std::size_t>(conn.req)];
      if (r.sent < 0.0) r.sent = now();
    }
    if (pending != conn.want_out) watch(c, pending, EPOLL_CTL_MOD);
  };

  std::vector<epoll_event> events(conns.size() + 1);
  std::string buf(64u << 10, '\0');
  while (finished < n) {
    double t = now();
    const bool sending = !stops || t < stop_s;
    // Dispatch every due request a free connection can take, longest-idle
    // connection first.
    while (sending && next < n && requests[next].due_s <= t) {
      std::size_t pick = conns.size();
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if (conns[c].req >= 0 || conns[c].fd < 0) continue;
        if (pick == conns.size() ||
            conns[c].free_since < conns[pick].free_since)
          pick = c;
      }
      if (pick == conns.size()) break;
      Conn& conn = conns[pick];
      ClientResult& r = results[next];
      r.ready = std::max(r.due, conn.free_since);
      conn.req = static_cast<long>(next);
      conn.out = requests[next].wire;
      conn.off = 0;
      ++next;
      flush(pick);
      t = now();
    }
    if (finished >= n || (!sending && finished == next)) break;
    if (t > give_up) break;

    bool free_conn = false;
    for (const Conn& conn : conns) free_conn |= conn.req < 0 && conn.fd >= 0;
    double wake = give_up;
    if (sending && next < n && free_conn) {
      wake = std::min(wake, requests[next].due_s);
      if (stops) wake = std::min(wake, stop_s);
    }
    itimerspec spec{};
    spec.it_value = to_timespec(base + std::max(wake, 0.0));
    ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &spec, nullptr);

    int ready = ::epoll_wait(epfd, events.data(),
                             static_cast<int>(events.size()), -1);
    if (ready < 0 && errno != EINTR) break;
    for (int e = 0; e < ready; ++e) {
      if (events[e].data.u32 == kTimer) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] ssize_t r =
            ::read(tfd, &expirations, sizeof(expirations));
        continue;
      }
      const std::size_t c = events[e].data.u32;
      Conn& conn = conns[c];
      if (conn.fd < 0) continue;
      if (events[e].events & EPOLLOUT) flush(c);
      if (!(events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP))) continue;
      while (true) {
        ssize_t got = ::recv(conn.fd, buf.data(), buf.size(), 0);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got <= 0) {
          fail(c, "connection closed by server");
          break;
        }
        const double at = now();
        if (conn.req < 0) {
          fail(c, "unsolicited response bytes");
          break;
        }
        ClientResult& r = results[static_cast<std::size_t>(conn.req)];
        if (r.first_byte < 0.0) r.first_byte = at;
        std::string rest;
        if (conn.reader.feed(std::string_view(buf.data(),
                                              static_cast<std::size_t>(got)),
                             at, &r, &rest)) {
          if (r.protocol_error) {
            fail(c, "protocol error");
            break;
          }
          finish(conn, at);
          if (!rest.empty()) {
            fail(c, "unsolicited response bytes");
            break;
          }
        }
      }
    }
  }
  // Anything still unanswered has timed out.
  for (std::size_t i = 0; i < n; ++i) {
    if (stops && i >= next) {
      results[i].unsent = true;
      continue;
    }
    if (results[i].last_byte < 0.0 && !results[i].protocol_error) {
      results[i].protocol_error = true;
      results[i].error = i < next ? "timed out" : "never sent";
    }
  }
  for (std::size_t c = 0; c < conns.size(); ++c) fds_[c] = conns[c].fd;
  // Connections that still carry a request are unusable for a later run.
  for (std::size_t c = 0; c < conns.size(); ++c) {
    if (conns[c].req >= 0 && fds_[c] >= 0) {
      ::close(fds_[c]);
      fds_[c] = connect_one();
    }
  }
  ::close(tfd);
  ::close(epfd);
  return results;
}

}  // namespace perfbench
