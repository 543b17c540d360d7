// The serving benchmark. Runs one named workload against the model
// wisdom_serve serves, loaded from the frozen checkpoint, through
// serve::InferenceService (and net::HttpServer for the HTTP workloads),
// checks every output against the sequential greedy oracle, and prints the
// result as one JSON line on stdout.
//
// Usage (normally through perfbench/run.py, which builds this first):
//   perfbench --workload editor_sessions --seed 1 --seconds 20 --trace 0
//       [--checkpoint perfbench/model/wisdom-ansible-multi-350m.ckpt]
//       [--out-dir .bench_build/perfbench/results]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same latency
// phase untraced and traced, replays requests through the layers' public
// functions, and prints the per-layer metrics. Either way the full result,
// with the run stamp, goes to <out-dir>/<workload>-seed<N>-trace<T>.json
// (spans to a .spans.jsonl beside it in the traced run).
//
// Exit codes: 0 ran (the JSON says whether outputs were correct); 2 bad
// arguments or an unusable checkpoint; 3 the run is invalid because the
// load generator itself ran late (a busy host, not a slow program).
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "metrics/ansible_aware.hpp"
#include "metrics/schema_correct.hpp"
#include "model/checkpoint.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "spans.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

using namespace perfbench;
namespace model = wisdom::model;
namespace net = wisdom::net;
namespace obs = wisdom::obs;
namespace serve = wisdom::serve;
namespace text = wisdom::text;
namespace util = wisdom::util;

namespace {

// ---------------------------------------------------------------------------
// Frozen configuration. Rates and limits were measured once on the
// reference host (4 vCPU) and are fixed here in absolute units, so a
// faster or slower program shows up as a change in the metrics rather than
// a change in the load.

struct HttpPlan {
  const char* path;
  bool streaming;
  double latency_rps;      // latency phase offered rate
  double saturation_cap;   // upper bound on closed-loop req/s (stream size)
  double ttft_limit_ms;    // goodput limits, per request
  double latency_limit_ms;
};

// Latency phases run at about a fifth of the closed-loop throughput
// measured when the plan was frozen (editor 1.6k, one-off 3.6k req/s), so
// that a host giving the program half its usual CPU still leaves the
// server far from saturation and queueing does not multiply the slowdown.
// The goodput limits are 50x the unloaded p50 then (one-off latency
// 1.3 ms; editor TTFT 1.0 ms and latency 2.0 ms).
const HttpPlan kEditorPlan{"/v1/suggest/stream", true, 320.0, 4000.0, 50.0,
                           100.0};
const HttpPlan kOneoffPlan{"/v1/suggest", false, 640.0, 8000.0, 65.0, 65.0};

// Editor think time between a session's requests.
constexpr double kThinkS = 0.05;
// offline_eval batch size: larger than the scheduler's in-flight cap (8).
constexpr std::size_t kBatch = 32;
// Client connections (one client thread).
constexpr int kConnections = 4;
// HTTP worker threads, as wisdom_serve defaults.
constexpr int kHttpWorkers = 4;
// Percentiles are taken per window of this many consecutive samples and
// aggregated over the windows (see windowed()); the p90-p99 ladder in the
// result file uses windows of 1000, so a p99 has 10 samples beyond it.
constexpr std::size_t kWindowSamples = 100;
constexpr std::size_t kLadderWindowSamples = 1000;
// offline_eval batches per window.
constexpr std::size_t kBatchWindow = 50;
// Samples due in the first second of a timed phase are served and checked
// but left out of the metrics: the fresh service is still warming up.
constexpr double kWarmupS = 1.0;
// Throughput windows of the saturation phase.
constexpr double kRateWindowS = 0.5;
// On a shared host, stalls from other tenants only ever add time. Figures
// taken per window are therefore reported at the quiet end of the windows:
// times at their lower quartile, rates at their upper quartile.
constexpr double kQuietQuartile = 0.25;
// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 41;
// A run is invalid when the generator's own lateness p99 exceeds this.
constexpr double kLatenessLimitMs = 10.0;
// Requests replayed layer by layer in the traced run.
constexpr std::size_t kReplayRequests = 300;
constexpr std::size_t kKvBlockSize = 16;

serve::ServiceOptions bench_service_options() {
  serve::ServiceOptions options;
  options.lint_policy = serve::LintPolicy::Repair;
  options.prefix_cache_enabled = true;
  options.response_cache_enabled = true;
  return options;
}

net::ServerOptions bench_server_options() {
  net::ServerOptions options;
  options.port = 0;
  options.worker_threads = kHttpWorkers;
  return options;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  std::string checkpoint = "perfbench/model/wisdom-ansible-multi-350m.ckpt";
  std::string out_dir = ".bench_build/perfbench/results";
};

struct Frozen {
  model::Transformer model;
  text::BpeTokenizer tokenizer;
};

// Loads the frozen checkpoint; nullopt (with the typed status printed)
// unless the load status is Ok and the tokenizer blob is usable.
std::optional<Frozen> load_frozen(const std::string& path) {
  model::LoadResult result = model::load_checkpoint_file_ex(path);
  if (result.status != model::LoadStatus::Ok || !result.model) {
    std::fprintf(stderr, "checkpoint %s: load status %s (%s)\n", path.c_str(),
                 model::load_status_name(result.status),
                 result.message.c_str());
    return std::nullopt;
  }
  auto tokenizer = text::BpeTokenizer::deserialize(result.tokenizer);
  if (!tokenizer) {
    std::fprintf(stderr, "checkpoint %s: no usable tokenizer blob\n",
                 path.c_str());
    return std::nullopt;
  }
  return Frozen{std::move(*result.model), std::move(*tokenizer)};
}

std::string read_first_line(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.erase(0, 1);
        return value;
      }
    }
  }
  return "unknown";
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE 0
#endif

// The run stamp: what must match before two results may be compared.
std::string run_stamp(const Args& args, const std::string& ckpt_hash) {
  utsname uts{};
  uname(&uts);
  JsonObject host;
  host.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("cpu_model", read_first_line("/proc/cpuinfo", "model name"))
      .str("kernel", uts.release);
  JsonObject build;
  build.str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("wisdom_native", PERFBENCH_NATIVE != 0)
#ifdef WISDOM_OBS_DISABLED
      .boolean("wisdom_obs", false);
#else
      .boolean("wisdom_obs", true);
#endif
  JsonObject stamp;
  stamp.raw("host", host.dump())
      .raw("build", build.dump())
      .num("pool_threads", util::ThreadPool::global().size())
      .num("http_workers", kHttpWorkers)
      .str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .str("checkpoint_hash", ckpt_hash);
  return stamp.dump();
}

// ---------------------------------------------------------------------------
// One served request, as the benchmark saw it.

// A sample tagged with the phase time it belongs to.
struct Timed {
  double t = 0.0;
  double v = 0.0;
};

struct Served {
  const BenchRequest* request = nullptr;
  ClientResult client;  // HTTP only
  std::optional<serve::SuggestionResponse> response;
  double latency_ms = 0.0;  // due -> last byte (offline: batch call -> return)
  double ttft_ms = 0.0;
  bool failed = false;
  std::string why;  // failure reason
};

// Parses the HTTP body into a response and applies the protocol checks.
void settle_http(Served& s) {
  const ClientResult& c = s.client;
  if (c.protocol_error) {
    s.failed = true;
    s.why = c.error;
    return;
  }
  s.latency_ms = (c.last_byte - c.due) * 1e3;
  const double first_event = c.first_event >= 0 ? c.first_event : c.last_byte;
  const double first = c.streaming ? first_event : c.first_byte;
  s.ttft_ms = (first - c.due) * 1e3;
  if (c.status != 200) {
    s.failed = true;
    s.why = "HTTP " + std::to_string(c.status);
    return;
  }
  s.response = serve::response_from_json(c.body);
  if (!s.response) {
    s.failed = true;
    s.why = "unparseable response body";
    return;
  }
  if (c.streaming && c.streamed != s.response->snippet) {
    s.failed = true;
    s.why = "SSE reconstruction differs from the done event";
  }
}

// Oracle check of one settled response.
void check(Served& s, const Oracle& oracle, std::vector<std::string>* log) {
  if (s.failed || !s.response) return;
  const Expected* want = oracle.expected(s.request->request);
  std::string diff = want ? Oracle::compare(*want, *s.response)
                          : std::string("no oracle entry");
  if (!diff.empty()) {
    s.failed = true;
    s.why = "oracle mismatch: " + diff;
    if (log)
      log->push_back("request " + std::to_string(s.request->id) + ": " + diff);
  }
}

// Service-side counters captured at the end of a phase.
struct ServiceCapture {
  serve::ServiceStats stats;
  serve::PrefixCacheStats prefix;
  serve::ResponseCacheStats responses;
  double sched_steps = 0, sched_batch_sum = 0, sched_batch_count = 0;
  double sched_peak_width = 0, sched_preempted = 0;
  double pool_tasks = 0;  // global counter delta over the phase
  double kv_peak_blocks = 0;
};

double counter_value(const obs::MetricsRegistry& r, const char* name) {
  const obs::Counter* c = r.find_counter(name);
  return c ? static_cast<double>(c->value()) : 0.0;
}

void capture_service(const serve::InferenceService& service, double pool_before,
                     ServiceCapture* out) {
  out->stats = service.stats_snapshot();
  out->prefix = service.prefix_cache_stats();
  out->responses = service.response_cache_stats();
  const obs::MetricsRegistry& r = service.metrics();
  out->sched_steps = counter_value(r, "wisdom_sched_steps_total");
  out->sched_preempted = counter_value(r, "wisdom_sched_preempt_total");
  if (const obs::Histogram* h = r.find_histogram("wisdom_sched_batch_width")) {
    out->sched_batch_sum = h->sum();
    out->sched_batch_count = static_cast<double>(h->count());
    for (std::size_t i = 0; i < h->bounds().size(); ++i)
      if (h->bucket_value(i) > 0) out->sched_peak_width = h->bounds()[i];
  }
  out->pool_tasks =
      counter_value(obs::MetricsRegistry::global(), "wisdom_pool_tasks_total") -
      pool_before;
}

// Polls the KV occupancy gauge while a traced phase runs.
class KvSampler {
 public:
  explicit KvSampler(const serve::InferenceService& service) {
    const obs::Gauge* gauge =
        service.metrics().find_gauge("wisdom_kv_blocks_in_use");
    thread_ = std::thread([this, gauge] {
      while (!stop_.load()) {
        if (gauge) peak_ = std::max(peak_, gauge->value());
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  ~KvSampler() { stop(); }
  KvSampler(const KvSampler&) = delete;
  KvSampler& operator=(const KvSampler&) = delete;
  double stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return peak_;
  }

 private:
  std::atomic<bool> stop_{false};
  double peak_ = 0.0;
  std::thread thread_;
};

// A phase's requests, what came back, and the service counters.
struct Phase {
  std::vector<BenchRequest> requests;
  std::vector<Served> served;
  ServiceCapture service;
  double wall_s = 0.0;
  // offline_eval: per-batch timings.
  std::vector<double> batch_ms, batch_gap_ms, batch_start_s, batch_tokens;
  double generated_tokens = 0;
};

// ---------------------------------------------------------------------------
// HTTP phases.

struct HttpStack {
  std::unique_ptr<serve::InferenceService> service;
  std::unique_ptr<net::HttpServer> server;
};

HttpStack start_stack(const Frozen& frozen) {
  HttpStack stack;
  stack.service = std::make_unique<serve::InferenceService>(
      frozen.model, frozen.tokenizer, bench_service_options());
  stack.server =
      std::make_unique<net::HttpServer>(*stack.service, bench_server_options());
  if (!stack.server->start()) {
    std::fprintf(stderr, "failed to bind the HTTP server\n");
    std::exit(1);
  }
  return stack;
}

std::vector<ClientRequest> wires_for(const std::vector<BenchRequest>& requests,
                                     const HttpPlan& plan) {
  std::vector<ClientRequest> wires;
  wires.reserve(requests.size());
  for (const BenchRequest& r : requests)
    wires.push_back({r.due_s, http_post(plan.path, serve::to_json(r.request))});
  return wires;
}

// Open loop on the requests' schedule; or, with `closed_s` > 0, a closed
// loop for `closed_s` seconds: every connection takes the next request as
// soon as it is free, and a request counts as due from that moment.
Phase run_http_phase(const Frozen& frozen, const HttpPlan& plan,
                     std::vector<BenchRequest> requests, double closed_s = 0) {
  Phase phase;
  phase.requests = std::move(requests);
  if (closed_s > 0)
    for (BenchRequest& r : phase.requests) r.due_s = 0.0;
  HttpStack stack = start_stack(frozen);
  std::vector<ClientRequest> wires = wires_for(phase.requests, plan);
  const double pool_before = counter_value(obs::MetricsRegistry::global(),
                                           "wisdom_pool_tasks_total");
  std::vector<ClientResult> results;
  {
    OpenLoopClient client(stack.server->port(), kConnections);
    if (!client.connected()) {
      std::fprintf(stderr, "client could not connect\n");
      std::exit(1);
    }
    const auto start = Clock::now();
    results = client.run(wires, 10.0, closed_s > 0 ? closed_s : -1.0);
    phase.wall_s = seconds_between(start, Clock::now());
  }
  capture_service(*stack.service, pool_before, &phase.service);
  stack.server->stop();
  std::size_t sent = 0;
  while (sent < results.size() && !results[sent].unsent) ++sent;
  if (sent == results.size() && closed_s > 0)
    std::fprintf(stderr, "closed loop ran out of requests before %.1f s\n",
                 closed_s);
  results.resize(sent);
  phase.requests.resize(sent);
  if (closed_s > 0)
    for (std::size_t i = 0; i < sent; ++i) {
      results[i].due = results[i].ready;
      phase.requests[i].due_s = results[i].ready;
    }
  phase.served.resize(phase.requests.size());
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    Served& s = phase.served[i];
    s.request = &phase.requests[i];
    s.client = std::move(results[i]);
    settle_http(s);
    if (s.response) phase.generated_tokens += s.response->generated_tokens;
  }
  return phase;
}

std::vector<BenchRequest> http_stream(WorkloadKind kind, std::uint64_t seed,
                                      int phase, double rate, double seconds) {
  return kind == WorkloadKind::EditorSessions
             ? editor_stream(seed, phase, rate, seconds, kThinkS)
             : oneoff_stream(seed, phase, rate, seconds);
}

// One HTTP request on a fresh connection; the time until its response is
// complete. Used for set-up and the unloaded probe.
ClientResult one_request(std::uint16_t port, const HttpPlan& plan,
                         const serve::SuggestionRequest& request) {
  OpenLoopClient client(port, 1);
  std::vector<ClientResult> results = client.run(
      {{0.0, http_post(plan.path, serve::to_json(request))}}, 30.0);
  return results.front();
}

// ---------------------------------------------------------------------------
// offline_eval phase: closed-loop suggest_batch.

Phase run_offline_phase(const Frozen& frozen,
                        const std::vector<BenchRequest>& samples,
                        double seconds, bool sample_kv) {
  Phase phase;
  serve::InferenceService service(frozen.model, frozen.tokenizer,
                                  bench_service_options());
  const double pool_before = counter_value(obs::MetricsRegistry::global(),
                                           "wisdom_pool_tasks_total");
  std::optional<KvSampler> sampler;
  if (sample_kv) sampler.emplace(service);
  const obs::Counter* steps =
      service.metrics().find_counter("wisdom_sched_steps_total");
  std::vector<std::pair<std::size_t, serve::SuggestionResponse>> got;
  const auto start = Clock::now();
  std::size_t next = 0;
  while (seconds_between(start, Clock::now()) < seconds) {
    std::vector<serve::SuggestionRequest> batch;
    std::vector<std::size_t> index;
    for (std::size_t k = 0; k < kBatch; ++k) {
      index.push_back(next);
      const serve::SuggestionRequest& r = samples[next].request;
      serve::SuggestionRequest copy;
      copy.context = r.context;
      copy.prompt = r.prompt;
      copy.indent = r.indent;
      batch.push_back(std::move(copy));
      next = (next + 1) % samples.size();
    }
    const double steps_before = steps ? static_cast<double>(steps->value()) : 0;
    const auto t0 = Clock::now();
    std::vector<serve::SuggestionResponse> responses =
        service.suggest_batch(batch);
    const auto t1 = Clock::now();
    const double ms = seconds_between(t0, t1) * 1e3;
    const double step_count =
        (steps ? static_cast<double>(steps->value()) : 0) - steps_before;
    phase.batch_ms.push_back(ms);
    phase.batch_gap_ms.push_back(step_count > 0 ? ms / step_count : 0.0);
    phase.batch_start_s.push_back(seconds_between(start, t0));
    double tokens = 0;
    for (std::size_t k = 0; k < responses.size(); ++k) {
      tokens += responses[k].generated_tokens;
      got.emplace_back(index[k], std::move(responses[k]));
    }
    phase.batch_tokens.push_back(tokens);
    phase.generated_tokens += tokens;
  }
  phase.wall_s = seconds_between(start, Clock::now());
  if (sampler) phase.service.kv_peak_blocks = sampler->stop();
  capture_service(service, pool_before, &phase.service);
  phase.requests.reserve(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    BenchRequest r = samples[got[i].first];
    r.due_s = phase.batch_start_s[i / kBatch];
    phase.requests.push_back(std::move(r));
  }
  phase.served.resize(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    Served& s = phase.served[i];
    s.request = &phase.requests[i];
    s.latency_ms = phase.batch_ms[i / kBatch];
    s.ttft_ms = s.latency_ms;
    s.response = std::move(got[i].second);
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values;
  void put(const std::string& name, double value, const std::string& unit) {
    values.push_back({name, {value, unit}});
  }
  std::string dump() const {
    JsonObject out;
    for (const auto& [name, vu] : values) {
      JsonObject m;
      m.num("value", vu.first).str("unit", vu.second);
      out.raw(name, m.dump());
    }
    return out.dump();
  }
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
};

void count(const Phase& phase, Tally* tally) {
  for (const Served& s : phase.served) {
    ++tally->attempted;
    if (s.failed) ++tally->failed;
    if (s.why.rfind("oracle mismatch", 0) == 0) ++tally->mismatches;
  }
}

// Quality against gold over the phase's distinct requests, and how many of
// them each generation type has.
void quality(const Phase& phase, double* schema, double* aware,
             JsonObject* types) {
  std::map<std::string, const Served*> first;
  for (const Served& s : phase.served)
    first.emplace(request_key(s.request->request), &s);
  std::map<std::string, double> per_type;
  double ok = 0, score = 0;
  for (const auto& [key, s] : first) {
    per_type[wisdom::data::generation_type_label(s->request->type)] += 1;
    std::string snippet = s->failed || !s->response ? "" : s->response->snippet;
    ok += wisdom::metrics::schema_correct(snippet) ? 1 : 0;
    score += wisdom::metrics::ansible_aware_text(snippet, s->request->gold);
  }
  double n = static_cast<double>(std::max<std::size_t>(first.size(), 1));
  *schema = ok / n;
  *aware = score / n;
  for (const auto& [label, count] : per_type) types->num(label, count);
}

// Nearest-rank quantile q (0..1) of `values`; 0 when empty.
double quartile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(q * 100.0, values.size()) - 1];
}

// Per stream, the mean gap between its successive SSE data events as the
// client read them. Result file only: at ~0.2 ms the gaps are below the
// client's scheduling resolution on a shared host, where a client that
// reads late takes several events in one read and turns their gaps into
// zeros.
std::vector<Timed> client_gaps_ms(const Phase& phase) {
  std::vector<Timed> gaps;
  for (const Served& s : phase.served) {
    if (s.failed) continue;
    const auto& t = s.client.event_times;
    if (t.size() < 2) continue;
    gaps.push_back({s.request->due_s, (t.back() - t.front()) * 1e3 /
                                          static_cast<double>(t.size() - 1)});
  }
  return gaps;
}

// The chunk gap as the server produces it: a stream's server-reported
// decode time over the gaps between its SSE data events (the emitter sends
// a data event per stable-prefix delta, not per token). For single-shot
// responses, whose tokens the client never sees, the decode time per
// generated token.
std::vector<Timed> server_gaps_ms(const Phase& phase) {
  std::vector<Timed> gaps;
  for (const Served& s : phase.served) {
    if (s.failed || !s.response) continue;
    auto it = s.response->server_timing_ms.find("decode");
    if (it == s.response->server_timing_ms.end()) continue;
    const double parts =
        s.client.streaming
            ? static_cast<double>(s.client.event_times.size()) - 1
            : static_cast<double>(s.response->generated_tokens);
    if (parts >= 1) gaps.push_back({s.request->due_s, it->second / parts});
  }
  return gaps;
}

// Percentile of a phase: the samples, in time order, are cut into windows
// of `window` (the last window takes the remainder), each window's
// percentile p is taken, and the lower quartile of those is reported
// (kQuietQuartile), so host stalls move the windows they hit rather than
// the run's figure. Reports the lowest percentile any window could support.
Percentile windowed(std::vector<Timed> samples, double p,
                    std::size_t window = kWindowSamples) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Timed& a, const Timed& b) { return a.t < b.t; });
  const std::size_t windows = std::max<std::size_t>(1, samples.size() / window);
  std::vector<double> values;
  Percentile out;
  out.p = p;
  out.n = samples.size();
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t begin = w * window;
    const std::size_t end = w + 1 == windows ? samples.size() : begin + window;
    std::vector<double> slice;
    for (std::size_t i = begin; i < end; ++i) slice.push_back(samples[i].v);
    if (slice.empty()) continue;
    Percentile q = percentile(std::move(slice), p);
    values.push_back(q.value);
    out.p = std::min(out.p, q.p);
  }
  out.value = quartile(values, kQuietQuartile);
  return out;
}

// Rates of a closed-loop phase, counted per kRateWindowS window of
// completion time after the warm-up (the last, partial window is dropped)
// and reported at the windows' upper quartile: goodput counts requests that
// succeeded within both limits, tokens_per_s their generated tokens.
void saturation_rates(const Phase& phase, const HttpPlan& plan,
                      double* goodput, double* tokens_per_s) {
  std::vector<double> requests, tokens;
  for (const Served& s : phase.served) {
    if (s.failed || s.ttft_ms > plan.ttft_limit_ms ||
        s.latency_ms > plan.latency_limit_ms || s.client.last_byte < kWarmupS)
      continue;
    const auto w =
        static_cast<std::size_t>((s.client.last_byte - kWarmupS) / kRateWindowS);
    if (w >= requests.size()) {
      requests.resize(w + 1, 0.0);
      tokens.resize(w + 1, 0.0);
    }
    requests[w] += 1;
    tokens[w] += s.response->generated_tokens;
  }
  if (requests.size() > 1) {
    requests.pop_back();
    tokens.pop_back();
  }
  *goodput = quartile(requests, 1.0 - kQuietQuartile) / kRateWindowS;
  *tokens_per_s = quartile(tokens, 1.0 - kQuietQuartile) / kRateWindowS;
}

std::vector<const serve::SuggestionRequest*> requests_of(
    const std::vector<const Phase*>& phases) {
  std::vector<const serve::SuggestionRequest*> out;
  for (const Phase* p : phases)
    for (const Served& s : p->served)
      if (s.response) out.push_back(&s.request->request);
  return out;
}

int worker_count() {
  return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

// Lateness and connection wait over HTTP phases (ms).
void generator_health(const std::vector<const Phase*>& phases,
                      std::vector<double>* lateness,
                      std::vector<double>* conn_wait) {
  for (const Phase* p : phases) {
    for (const Served& s : p->served) {
      const ClientResult& c = s.client;
      if (c.ready < 0 || c.sent < 0) continue;
      conn_wait->push_back((c.ready - c.due) * 1e3);
      lateness->push_back((c.sent - c.ready) * 1e3);
    }
  }
}

// ---------------------------------------------------------------------------
// Set-up: checkpoint load, service and server construction, bind, and the
// first response served. Repeated; setup_s is the median.

double measure_setup(const Args& args, WorkloadKind kind, const HttpPlan* plan,
                     const BenchRequest& first) {
  std::vector<double> reps;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    std::optional<Frozen> frozen = load_frozen(args.checkpoint);
    if (!frozen) std::exit(2);
    bool ok = false;
    if (kind == WorkloadKind::OfflineEval) {
      serve::InferenceService service(frozen->model, frozen->tokenizer,
                                      bench_service_options());
      ok = !service.suggest_batch({first.request}).empty();
    } else {
      HttpStack stack = start_stack(*frozen);
      ClientResult r = one_request(stack.server->port(), *plan, first.request);
      ok = r.complete() && r.status == 200;
      stack.server->stop();
    }
    reps.push_back(seconds_between(t0, Clock::now()));
    if (!ok) {
      std::fprintf(stderr, "set-up: the first request failed\n");
      std::exit(1);
    }
  }
  return percentile(reps, 50).value;
}

// ---------------------------------------------------------------------------
// Traced run: unloaded probe + layer replay.

struct Attribution {
  double layer_sum_share = 0;
  // Replayed requests whose snippet differs from the one served for them:
  // a replay that does not reproduce the served bytes is not attributing
  // the served work.
  std::size_t replay_mismatches = 0;
  std::map<std::string, double> self_ms_per_request;  // by module
  LayerSamples samples;
};

std::string module_of(const std::string& span) {
  if (span == "net") return "net";
  if (span == "encode" || span == "decode") return "text";
  if (span == "kept_prompt" || span == "generate") return "model";
  if (span == "postprocess" || span == "stream_emit") return "core";
  if (span == "lint_gate") return "analysis";
  return "serve";  // caches, wire, and the replay's own glue
}

Attribution attribute(const Frozen& frozen, WorkloadKind kind,
                      const HttpPlan* plan,
                      const std::vector<BenchRequest>& requests, SpanLog& log,
                      Clock::time_point t0) {
  Attribution out;
  const std::size_t k = std::min(kReplayRequests, requests.size());
  // Each request is served unloaded (alone, on a fresh stack) and then
  // replayed layer by layer right away, so both see the same host state.
  // Stack and replay keep separate caches that evolve identically.
  std::unique_ptr<serve::InferenceService> service;
  std::optional<HttpStack> stack;
  std::optional<OpenLoopClient> client;
  if (kind == WorkloadKind::OfflineEval) {
    service = std::make_unique<serve::InferenceService>(
        frozen.model, frozen.tokenizer, bench_service_options());
  } else {
    stack.emplace(start_stack(frozen));
    client.emplace(stack->server->port(), 1);
  }
  LayerReplay replay(frozen.model, frozen.tokenizer, bench_service_options(),
                     plan && plan->streaming);
  const std::uint64_t base_id = 1u << 30;
  std::vector<double> unloaded_ms(k), shares;
  for (std::size_t i = 0; i < k; ++i) {
    double net_ms = 0;
    std::string served;
    if (service) {
      const auto a = Clock::now();
      auto responses = service->suggest_batch({requests[i].request});
      unloaded_ms[i] = seconds_between(a, Clock::now()) * 1e3;
      served = responses.front().snippet;
    } else {
      auto results = client->run(
          {{0.0, http_post(plan->path, serve::to_json(requests[i].request))}},
          30.0);
      const ClientResult& c = results.front();
      auto parsed = serve::response_from_json(c.body);
      unloaded_ms[i] = (c.last_byte - c.due) * 1e3;
      double server_ms = 0;
      if (parsed) {
        auto it = parsed->server_timing_ms.find("request");
        if (it != parsed->server_timing_ms.end()) server_ms = it->second;
        served = parsed->snippet;
      }
      net_ms = unloaded_ms[i] - server_ms;
    }
    const std::uint64_t id = base_id + i;
    const double start =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (client) log.add(id, -1, "net", start, start + net_ms * 1e3);
    if (replay.replay(requests[i].request, id, log, t0) != served)
      ++out.replay_mismatches;
  }
  if (stack) stack->server->stop();

  // Per request: the sum of its layer spans' self times over its unloaded
  // end-to-end time; the share reported is the median over requests.
  std::vector<double> self = log.self_times_us();
  std::vector<double> layer_ms(k, 0.0);
  for (std::size_t s = 0; s < log.spans().size(); ++s) {
    const Span& span = log.spans()[s];
    if (span.request < base_id || span.request >= base_id + k) continue;
    layer_ms[span.request - base_id] += self[s] / 1e3;
    out.self_ms_per_request[module_of(span.name)] +=
        self[s] / 1e3 / static_cast<double>(k);
  }
  for (std::size_t i = 0; i < k; ++i)
    if (unloaded_ms[i] > 0) shares.push_back(layer_ms[i] / unloaded_ms[i]);
  out.layer_sum_share = percentile(shares, 50).value;
  out.samples = replay.samples();
  return out;
}

// Client-side spans of a traced HTTP phase.
void record_client_spans(const Phase& phase, SpanLog& log) {
  for (const Served& s : phase.served) {
    const ClientResult& c = s.client;
    if (c.last_byte < 0) continue;
    JsonObject attrs;
    if (s.response) {
      JsonObject timing;
      for (const auto& [stage, ms] : s.response->server_timing_ms)
        timing.num(stage, ms);
      attrs.raw("server_timing_ms", timing.dump());
    }
    const std::uint64_t id = s.request->id;
    int root = log.add(id, -1, "request", c.due * 1e6, c.last_byte * 1e6,
                       attrs.dump());
    log.add(id, root, "connection_wait", c.due * 1e6, c.ready * 1e6);
    log.add(id, root, "send", c.ready * 1e6, c.sent * 1e6);
    double prev = c.sent;
    for (double t : c.event_times) {
      log.add(id, root, "event", prev * 1e6, t * 1e6);
      prev = t;
    }
    log.add(id, root, "last_byte", prev * 1e6, c.last_byte * 1e6);
  }
}

std::string result_path(const Args& args, const char* suffix) {
  return args.out_dir + "/" + args.workload + "-seed" +
         std::to_string(args.seed) + "-trace" + std::to_string(args.trace) +
         suffix;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload editor_sessions|oneoff_http|"
               "offline_eval --seed N --seconds S --trace 0|1\n"
               "                 [--checkpoint FILE] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::Warn);
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed")
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = std::atoi(value.c_str());
    else if (key == "--checkpoint") args.checkpoint = value;
    else if (key == "--out-dir") args.out_dir = value;
    else return usage();
  }
  std::optional<WorkloadKind> kind = workload_from_name(args.workload);
  if (!kind || args.seconds <= 0 || (args.trace != 0 && args.trace != 1))
    return usage();

  const std::string ckpt_hash = file_hash_hex(args.checkpoint);
  std::fprintf(stderr, "checkpoint %s fnv1a64 %s\n", args.checkpoint.c_str(),
               ckpt_hash.empty() ? "(unreadable)" : ckpt_hash.c_str());
  std::optional<Frozen> frozen = load_frozen(args.checkpoint);
  if (!frozen) return 2;
  std::filesystem::create_directories(args.out_dir);

  const bool http = *kind != WorkloadKind::OfflineEval;
  const HttpPlan* plan = *kind == WorkloadKind::EditorSessions ? &kEditorPlan
                         : *kind == WorkloadKind::OneoffHttp   ? &kOneoffPlan
                                                               : nullptr;
  const double half = args.seconds / 2;
  std::vector<BenchRequest> offline;
  if (!http) offline = offline_samples(args.seed);

  // --- set-up ---------------------------------------------------------------
  std::vector<BenchRequest> latency_requests =
      http ? http_stream(*kind, args.seed, 0, plan->latency_rps, half)
           : std::vector<BenchRequest>{};
  const double setup_s = measure_setup(
      args, *kind, plan, http ? latency_requests.front() : offline.front());

  // --- measured phases ------------------------------------------------------
  // [0] latency phase or closed loop; then the saturation phase or the
  // traced phase. Served entries point into their phase's requests, so
  // phases must not be copied: reserve up front.
  std::vector<Phase> phases;
  phases.reserve(2);
  SpanLog spans;
  const auto t0 = Clock::now();
  if (http) {
    phases.push_back(run_http_phase(*frozen, *plan, latency_requests));
    if (args.trace == 0) {
      phases.push_back(run_http_phase(
          *frozen, *plan,
          http_stream(*kind, args.seed, 1, plan->saturation_cap, half), half));
    } else {
      // HTTP requests bypass the scheduler and its KV arena: no sampler.
      phases.push_back(run_http_phase(*frozen, *plan, latency_requests));
    }
  } else {
    phases.push_back(run_offline_phase(
        *frozen, offline, args.trace ? half : args.seconds, false));
    if (args.trace)
      phases.push_back(run_offline_phase(*frozen, offline, half, true));
  }

  // --- oracle (outside every timed window) ---------------------------------
  std::vector<const Phase*> all;
  for (const Phase& p : phases) all.push_back(&p);
  Oracle oracle(frozen->model, frozen->tokenizer,
                bench_service_options().lint_policy);
  oracle.prepare(requests_of(all), worker_count());
  std::vector<std::string> mismatch_log;
  for (Phase& p : phases)
    for (Served& s : p.served) check(s, oracle, &mismatch_log);
  Tally tally;
  for (const Phase& p : phases) count(p, &tally);
  for (const std::string& line : mismatch_log)
    std::fprintf(stderr, "oracle mismatch, %s\n", line.c_str());

  // --- generator health ----------------------------------------------------
  std::vector<double> lateness, conn_wait;
  if (http) generator_health(all, &lateness, &conn_wait);
  const Percentile late99 = percentile(lateness, 99);
  if (http && late99.value > kLatenessLimitMs) {
    std::fprintf(stderr,
                 "run invalid: the load generator ran %.2f ms late at p%.4g "
                 "(limit %.1f ms); the host is too busy to measure\n",
                 late99.value, late99.p, kLatenessLimitMs);
    return 3;
  }

  const Phase& main_phase = phases.front();
  Metrics metrics;
  JsonObject detail;
  if (http) {
    const Percentile wait99 = percentile(conn_wait, 99);
    JsonObject health;
    health.num("lateness_p50_ms", percentile(lateness, 50).value)
        .num("lateness_p99_ms", late99.value)
        .num("lateness_p", late99.p)
        .num("connection_wait_p99_ms", wait99.value)
        .num("lateness_limit_ms", kLatenessLimitMs);
    detail.raw("generator", health.dump());
  }
  if (args.trace == 0) {
    // Samples of the warm-up second are left out (kWarmupS).
    std::vector<Timed> lat, ttft, gaps, client_gaps;
    double goodput = 0, tokens_per_s = 0;
    std::size_t window = kWindowSamples;
    if (http) {
      for (const Served& s : main_phase.served) {
        if (s.failed) continue;
        lat.push_back({s.request->due_s, s.latency_ms});
        ttft.push_back({s.request->due_s, s.ttft_ms});
      }
      gaps = server_gaps_ms(main_phase);
      client_gaps = client_gaps_ms(main_phase);
      saturation_rates(phases[1], *plan, &goodput, &tokens_per_s);
    } else {
      // Per batch; throughput is the upper quartile over batches, so host
      // stalls move a few batches rather than the run.
      std::vector<double> batch_rps, batch_tps;
      for (std::size_t b = 0; b < main_phase.batch_ms.size(); ++b) {
        const double t = main_phase.batch_start_s[b];
        const double ms = main_phase.batch_ms[b];
        lat.push_back({t, ms});
        if (main_phase.batch_gap_ms[b] > 0)
          gaps.push_back({t, main_phase.batch_gap_ms[b]});
        if (t < kWarmupS) continue;
        std::size_t ok = 0;
        for (std::size_t k = b * kBatch;
             k < std::min(main_phase.served.size(), (b + 1) * kBatch); ++k)
          ok += main_phase.served[k].failed ? 0 : 1;
        batch_rps.push_back(static_cast<double>(ok) / (ms / 1e3));
        batch_tps.push_back(main_phase.batch_tokens[b] / (ms / 1e3));
      }
      ttft = lat;
      goodput = quartile(batch_rps, 1.0 - kQuietQuartile);
      tokens_per_s = quartile(batch_tps, 1.0 - kQuietQuartile);
      window = kBatchWindow;
    }
    for (std::vector<Timed>* v : {&lat, &ttft, &gaps, &client_gaps})
      std::erase_if(*v, [](const Timed& x) { return x.t < kWarmupS; });
    Tally main_tally;
    count(main_phase, &main_tally);
    double schema = 0, aware = 0;
    JsonObject types;
    quality(main_phase, &schema, &aware, &types);
    detail.raw("distinct_requests_by_type", types.dump());
    // Only medians are gated: on the reference host a busy period moved
    // p90 by up to 65 % and p50 by about 15 %. The windowed p90-p99 ladder
    // of each figure goes to the result file.
    metrics.put("setup_s", setup_s, "s");
    metrics.put("latency_p50_ms", windowed(lat, 50, window).value, "ms");
    metrics.put("ttft_p50_ms", windowed(ttft, 50, window).value, "ms");
    metrics.put("chunk_gap_p50_ms", windowed(gaps, 50, window).value, "ms");
    metrics.put("goodput_rps", goodput, "req/s");
    metrics.put("tokens_per_s", tokens_per_s, "tok/s");
    metrics.put("success_share",
                1.0 - static_cast<double>(main_tally.failed) /
                          static_cast<double>(
                              std::max<std::size_t>(main_tally.attempted, 1)),
                "ratio");
    metrics.put("schema_correct_share", schema, "ratio");
    metrics.put("ansible_aware", aware, "score");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    // Each tail's percentile ladder, and the sample counts behind it.
    JsonObject tails;
    for (const auto& [name, samples] :
         {std::pair{"latency", &lat}, {"ttft", &ttft}, {"chunk_gap", &gaps},
          {"client_chunk_gap", &client_gaps}}) {
      JsonObject ladder;
      for (double p : {50.0, 90.0, 95.0, 98.0, 99.0}) {
        const Percentile q = windowed(*samples, p, kLadderWindowSamples);
        ladder.num("p" + std::to_string(static_cast<int>(p)), q.value);
      }
      ladder.num("samples", static_cast<double>(samples->size()));
      tails.raw(name, ladder.dump());
    }
    detail.raw("windowed_tails_ms", tails.dump());
    if (plan) {
      JsonObject limits;
      limits.num("latency_rps", plan->latency_rps)
          .num("saturation_served", static_cast<double>(phases[1].served.size()))
          .num("saturation_wall_s", phases[1].wall_s)
          .num("ttft_limit_ms", plan->ttft_limit_ms)
          .num("latency_limit_ms", plan->latency_limit_ms);
      detail.raw("plan", limits.dump());
    }
  } else {
    // --- per-layer metrics (traced run) ------------------------------------
    const Phase& traced = phases.back();
    if (http) record_client_spans(traced, spans);
    Attribution attr =
        attribute(*frozen, *kind, plan,
                  http ? latency_requests : offline, spans, t0);
    const LayerSamples& ls = attr.samples;

    auto latency_p50 = [&](const Phase& p) {
      if (!http) return percentile(p.batch_ms, 50).value;
      std::vector<double> lat;
      for (const Served& s : p.served)
        if (!s.failed) lat.push_back(s.latency_ms);
      return percentile(lat, 50).value;
    };
    const double untraced = latency_p50(phases.front());
    const double traced_p50 = latency_p50(traced);

    std::vector<double> overhead, sse_events, response_bytes, requests_ms;
    for (const Served& s : traced.served) {
      if (!s.response) continue;
      auto it = s.response->server_timing_ms.find("request");
      if (it == s.response->server_timing_ms.end()) continue;
      requests_ms.push_back(it->second);
      if (http && !s.failed) {
        overhead.push_back(s.latency_ms - it->second);
        sse_events.push_back(static_cast<double>(s.client.event_times.size()));
        response_bytes.push_back(static_cast<double>(s.client.response_bytes));
      }
    }
    std::vector<std::string> wires, bodies;
    for (const BenchRequest& r : traced.requests) {
      bodies.push_back(serve::to_json(r.request));
      wires.push_back(
          http_post(plan ? plan->path : "/v1/suggest", bodies.back()));
      if (wires.size() >= 2000) break;
    }
    const ServiceCapture& sc = traced.service;
    const double mean_kept = mean(ls.kept_tokens);
    const double gen_tokens = traced.generated_tokens;
    const model::ModelConfig& cfg = frozen->model.config();
    const double d = cfg.d_model, ff = cfg.d_ff, layers = cfg.n_layer;
    const double ctx_len = mean_kept + mean(ls.generated_tokens) / 2;
    // Per token, per layer: QKV, output projection, MLP up and down (2 flops
    // per multiply-add), and attention scores plus mixing over ctx_len rows;
    // then the LM head. Weight bytes: every f32 parameter a decode step
    // reads, with one embedding row.
    const double flops_per_token =
        layers * (2 * d * 3 * d + 2 * d * d + 2 * 2 * d * ff +
                  2 * 2 * ctx_len * d) +
        2 * d * cfg.vocab;
    const double weight_bytes =
        4 * (layers * (d * 3 * d + 3 * d + d * d + d + 4 * d + 2 * d * ff +
                       ff + d) +
             2 * d + d * cfg.vocab + d);
    const double decode_s = ls.decode_ms_total / 1e3;
    // Block-granularity waste of the paged KV: each offline sequence holds
    // ceil(len / block) blocks for its kept prompt plus generated tokens.
    std::size_t kv_unused = 0, kv_reserved = 0;
    if (!http) {
      for (const Served& s : traced.served) {
        if (!s.response) continue;
        const serve::SuggestionRequest& r = s.request->request;
        const std::vector<std::int32_t> ids = frozen->tokenizer.encode(
            r.context + std::string(static_cast<std::size_t>(r.indent), ' ') +
            "- name: " + r.prompt + "\n");
        const std::size_t kept =
            frozen->model
                .kept_prompt(ids, bench_service_options().max_new_tokens)
                .size();
        const std::size_t len =
            kept + static_cast<std::size_t>(s.response->generated_tokens);
        const std::size_t blocks = (len + kKvBlockSize - 1) / kKvBlockSize;
        kv_reserved += blocks * kKvBlockSize;
        kv_unused += blocks * kKvBlockSize - len;
      }
    }
    const obs::Histogram* pool_ms =
        obs::MetricsRegistry::global().find_histogram("wisdom_pool_task_ms");
    auto share = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto p50 = [](const std::vector<double>& v) {
      return percentile(v, 50).value;
    };
    auto p99 = [](const std::vector<double>& v) {
      return percentile(v, 99).value;
    };
    auto count_of = [](auto n) { return static_cast<double>(n); };
    auto put = [&](const std::string& name, double value, const char* unit) {
      metrics.put(name, value, unit);
    };

    put("net.overhead_ms.p50", p50(overhead), "ms");
    put("net.overhead_ms.p99", p99(overhead), "ms");
    put("net.http_parse_us", http ? http_parse_us(wires) : 0.0, "us");
    put("net.connection_wait_ms.p99", p99(conn_wait), "ms");
    put("net.generator_lateness_ms.p99", p99(lateness), "ms");
    put("net.sse_events.mean", mean(sse_events), "count");
    put("net.response_bytes.mean", mean(response_bytes), "bytes");
    put("serve.request_ms.p50", p50(requests_ms), "ms");
    put("serve.request_ms.p99", p99(requests_ms), "ms");
    put("serve.scheduler.batch_width.mean",
        share(sc.sched_batch_sum, sc.sched_batch_count), "seqs");
    put("serve.scheduler.steps_per_token", share(sc.sched_steps, gen_tokens),
        "ratio");
    put("serve.scheduler.peak_in_flight", sc.sched_peak_width, "seqs");
    put("serve.scheduler.preemptions", sc.sched_preempted, "count");
    put("serve.kv.blocks_in_use.peak", sc.kv_peak_blocks, "blocks");
    put("serve.kv.reserved_unused_share",
        share(count_of(kv_unused), count_of(kv_reserved)), "ratio");
    put("serve.prefix_cache.hit_share", sc.prefix.hit_rate(), "ratio");
    put("serve.prefix_cache.reused_token_share",
        share(count_of(sc.prefix.tokens_reused),
              count_of(sc.prefix.lookups) * mean_kept),
        "ratio");
    put("serve.prefix_cache.insert_us", mean(ls.prefix_insert_us), "us");
    put("serve.response_cache.hit_share",
        share(count_of(sc.responses.hits), count_of(sc.responses.lookups)),
        "ratio");
    put("serve.wire.response_encode_us", mean(ls.to_json_us), "us");
    put("serve.wire.request_decode_us", request_decode_us(bodies), "us");
    put("serve.shed", count_of(sc.stats.shed), "count");
    put("serve.degraded", count_of(sc.stats.degraded), "count");
    put("serve.oracle_mismatches", count_of(tally.mismatches), "count");
    put("text.encode_us", mean(ls.encode_us), "us");
    put("text.decode_us", mean(ls.decode_us), "us");
    put("text.prompt_tokens.mean", mean(ls.prompt_tokens), "tokens");
    put("text.kept_tokens.mean", mean_kept, "tokens");
    put("model.prefill_ms.p50", p50(ls.prefill_ms), "ms");
    put("model.decode_ms_per_token.p50", p50(ls.decode_ms_per_token), "ms");
    put("model.generated_tokens.mean", mean(ls.generated_tokens), "tokens");
    const int kv_len = std::max(1, static_cast<int>(std::lround(mean_kept)));
    for (int width : {1, 4, 8})
      put("model.decode_step_batch_us.w" + std::to_string(width),
          decode_step_batch_us(frozen->model, width, kv_len), "us");
    put("nn.flops_per_token", flops_per_token, "flop");
    put("nn.weight_bytes_per_step", weight_bytes, "bytes");
    put("nn.gflops_achieved",
        share(flops_per_token * count_of(ls.decode_tokens), decode_s) / 1e9,
        "GFLOP/s");
    put("util.pool_tasks_per_token", share(sc.pool_tasks, gen_tokens), "ratio");
    put("util.pool_task_ms.p50", pool_ms ? pool_ms->percentile(50) : 0.0, "ms");
    put("util.threads", util::ThreadPool::global().size(), "threads");
    put("core.postprocess_us", mean(ls.postprocess_us), "us");
    put("core.stream_recompute_us_per_token",
        ls.streamed_tokens > 0
            ? ls.stream_emit_us / count_of(ls.streamed_tokens)
            : stream_recompute_us_per_token(frozen->tokenizer, ls.outputs,
                                            ls.indents),
        "us");
    put("analysis.lint_gate_us", mean(ls.lint_us), "us");
    put("analysis.repaired_share",
        share(count_of(ls.repaired), count_of(ls.linted)), "ratio");
    for (const char* module :
         {"net", "serve", "text", "model", "core", "analysis"}) {
      auto it = attr.self_ms_per_request.find(module);
      put(std::string("layer.self_ms.") + module,
          it == attr.self_ms_per_request.end() ? 0.0 : it->second, "ms");
    }
    put("obs.tracing_overhead_share", share(traced_p50 - untraced, untraced),
        "ratio");
    put("reconcile.layer_sum_share", attr.layer_sum_share, "ratio");
    put("failed_share",
        share(count_of(tally.failed), count_of(tally.attempted)), "ratio");
    detail.str("nn_counts",
               "flops and weight bytes computed from tensor shapes");
    detail.num("replay_mismatches", count_of(attr.replay_mismatches));
    spans.write_jsonl(result_path(args, ".spans.jsonl"));
  }

  const bool correct = tally.failed == 0;
  JsonObject result;
  result.boolean("correct", correct)
      .num("attempted", static_cast<double>(tally.attempted))
      .num("failed", static_cast<double>(tally.failed))
      .raw("metrics", metrics.dump());
  JsonObject file;
  file.raw("stamp", run_stamp(args, ckpt_hash))
      .raw("result", result.dump())
      .raw("detail", detail.dump());
  {
    std::ofstream out(result_path(args, ".json"));
    out << file.dump() << '\n';
  }
  if (!correct) {
    std::size_t shown = 0;
    for (const Phase& p : phases)
      for (const Served& s : p.served)
        if (s.failed && shown++ < 10)
          std::fprintf(stderr, "failed request %llu: %s\n",
                       static_cast<unsigned long long>(s.request->id),
                       s.why.c_str());
  }
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
