#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "data/ansible_gen.hpp"
#include "data/dedup.hpp"
#include "data/sources.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace data = wisdom::data;
namespace util = wisdom::util;

namespace {

// Turns a sample into a service request; false when its name line is not
// the plain "<pad>- name: <prompt>\n" the service rebuilds from the
// request (then the service could not reproduce the gold's first line).
bool to_request(const data::FtSample& sample, BenchRequest* out) {
  const std::size_t indent = util::indent_width(sample.input_line);
  if (std::string(indent, ' ') + "- name: " + sample.prompt + "\n" !=
      sample.input_line)
    return false;
  out->request.context = sample.context;
  out->request.prompt = sample.prompt;
  out->request.indent = static_cast<int>(indent);
  out->gold = sample.full_target();
  out->type = sample.type;
  return true;
}

// Exponential inter-arrival gap for a Poisson process of rate `rate`.
double exp_gap(util::Rng& rng, double rate) {
  return -std::log(1.0 - rng.uniform_real()) / rate;
}

template <typename T>
void shuffle(std::vector<T>& items, util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[static_cast<std::size_t>(rng.uniform(i))]);
}

std::uint64_t phase_seed(std::uint64_t seed, int phase, const char* tag) {
  return util::hash_combine(util::hash_combine(util::fnv1a64(tag), seed),
                            static_cast<std::uint64_t>(phase));
}

// One editor session per held-out file: its task samples in file order.
std::vector<std::vector<BenchRequest>> session_pool(std::uint64_t seed) {
  std::vector<std::vector<BenchRequest>> pool;
  data::CorpusBundle corpus =
      data::galaxy_corpus(corpus_seed(WorkloadKind::EditorSessions, seed));
  for (const data::CorpusFile& file : corpus.files) {
    std::vector<BenchRequest> session;
    for (const data::FtSample& sample : data::extract_samples(file.text)) {
      if (sample.type == data::GenerationType::NlToPlaybook) continue;
      BenchRequest request;
      if (to_request(sample, &request)) session.push_back(std::move(request));
    }
    if (!session.empty()) pool.push_back(std::move(session));
  }
  util::Rng rng(phase_seed(seed, 0, "perfbench-sessions"));
  shuffle(pool, rng);
  return pool;
}

// The distinct context-free NL->T prompts of the generator, in the order
// the seeded generator first produces them.
std::vector<BenchRequest> oneoff_pool(std::uint64_t seed) {
  data::AnsibleGenerator generator(
      util::Rng(corpus_seed(WorkloadKind::OneoffHttp, seed)));
  std::vector<BenchRequest> pool;
  std::unordered_set<std::string> seen;
  for (int draw = 0; draw < 20000; ++draw) {
    for (const data::FtSample& sample :
         data::extract_samples(generator.role_tasks_text(1))) {
      if (sample.type != data::GenerationType::NlToTask) continue;
      BenchRequest request;
      if (!seen.insert(sample.prompt).second) continue;
      if (to_request(sample, &request)) pool.push_back(std::move(request));
    }
  }
  return pool;
}

}  // namespace

std::optional<WorkloadKind> workload_from_name(std::string_view name) {
  if (name == "editor_sessions") return WorkloadKind::EditorSessions;
  if (name == "oneoff_http") return WorkloadKind::OneoffHttp;
  if (name == "offline_eval") return WorkloadKind::OfflineEval;
  return std::nullopt;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::EditorSessions: return "editor_sessions";
    case WorkloadKind::OneoffHttp: return "oneoff_http";
    case WorkloadKind::OfflineEval: return "offline_eval";
  }
  return "?";
}

std::uint64_t corpus_seed(WorkloadKind kind, std::uint64_t seed) {
  return phase_seed(seed, 0, workload_name(kind));
}

std::vector<BenchRequest> editor_stream(std::uint64_t seed, int phase,
                                        double rate_rps, double duration_s,
                                        double think_s) {
  std::vector<std::vector<BenchRequest>> pool = session_pool(seed);
  std::size_t total = 0;
  for (const auto& session : pool) total += session.size();
  const double per_session =
      static_cast<double>(total) / static_cast<double>(pool.size());
  const double session_rate = rate_rps / per_session;

  util::Rng rng(phase_seed(seed, phase, "perfbench-editor-arrivals"));
  std::vector<BenchRequest> stream;
  std::size_t next = (static_cast<std::size_t>(phase) * 997) % pool.size();
  for (double start = exp_gap(rng, session_rate); start < duration_s;
       start += exp_gap(rng, session_rate)) {
    const std::vector<BenchRequest>& session = pool[next];
    next = (next + 1) % pool.size();
    for (std::size_t k = 0; k < session.size(); ++k) {
      double due = start + static_cast<double>(k) * think_s;
      if (due >= duration_s) break;
      BenchRequest request = session[k];
      request.due_s = due;
      stream.push_back(std::move(request));
    }
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const BenchRequest& a, const BenchRequest& b) {
                     return a.due_s < b.due_s;
                   });
  for (std::size_t i = 0; i < stream.size(); ++i) stream[i].id = i;
  return stream;
}

std::vector<BenchRequest> oneoff_stream(std::uint64_t seed, int phase,
                                        double rate_rps, double duration_s) {
  std::vector<BenchRequest> pool = oneoff_pool(seed);
  util::Rng rng(phase_seed(seed, phase, "perfbench-oneoff-arrivals"));
  const std::size_t offset = (static_cast<std::size_t>(phase) * 211) %
                             pool.size();
  std::vector<BenchRequest> stream;
  for (double due = exp_gap(rng, rate_rps); due < duration_s;
       due += exp_gap(rng, rate_rps)) {
    const std::size_t i = stream.size();
    BenchRequest request = pool[(offset + i) % pool.size()];
    request.id = i;
    request.due_s = due;
    stream.push_back(std::move(request));
  }
  return stream;
}

std::vector<BenchRequest> offline_samples(std::uint64_t seed) {
  data::CorpusBundle corpus =
      data::galaxy_corpus(corpus_seed(WorkloadKind::OfflineEval, seed));
  std::vector<data::CorpusFile> files =
      data::dedup_files(std::move(corpus.files));
  std::vector<BenchRequest> samples;
  for (const data::FtSample& sample : data::extract_corpus_samples(files)) {
    BenchRequest request;
    if (to_request(sample, &request)) samples.push_back(std::move(request));
  }
  util::Rng rng(phase_seed(seed, 0, "perfbench-offline-order"));
  shuffle(samples, rng);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i].id = i;
  return samples;
}

std::string request_key(const wisdom::serve::SuggestionRequest& request) {
  std::string key = request.context;
  key += '\x1f';
  key += request.prompt;
  key += '\x1f';
  key += std::to_string(request.indent);
  return key;
}

}  // namespace perfbench
