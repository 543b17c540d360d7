// Request streams for the three workloads, made from the workload seed.
// The program under test only ever sees the generated requests.
//
//   editor_sessions  held-out Galaxy-style files; each file is one editor
//                    session whose task requests go in file order (the file
//                    so far is the context). Session starts are Poisson, a
//                    session's requests follow at a fixed think time, and
//                    repeats the data contains are kept.
//   oneoff_http      context-free NL->T prompts from the Ansible generator,
//                    Poisson arrivals. The generator yields about 700
//                    distinct prompts; the stream cycles through them in a
//                    fixed order, so a prompt recurs only after ~700 others
//                    and the 256-entry response cache never holds it then.
//   offline_eval     every fine-tuning sample (all four generation types)
//                    of a held-out Galaxy-style corpus, for batch serving.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "serve/types.hpp"

namespace perfbench {

enum class WorkloadKind { EditorSessions, OneoffHttp, OfflineEval };

std::optional<WorkloadKind> workload_from_name(std::string_view name);
const char* workload_name(WorkloadKind kind);

struct BenchRequest {
  std::uint64_t id = 0;  // position in its stream
  wisdom::serve::SuggestionRequest request;  // context, prompt, indent
  std::string gold;  // reference snippet: name line + gold body
  wisdom::data::GenerationType type = wisdom::data::GenerationType::NlToTask;
  double due_s = 0.0;  // offset from the phase start (HTTP workloads)
};

// Seed of the corpus a workload draws from; distinct per workload and
// unrelated to the training seed.
std::uint64_t corpus_seed(WorkloadKind kind, std::uint64_t seed);

// Open-loop editor sessions offered at about `rate_rps` requests per second
// for `duration_s`. `phase` selects a different slice of the session pool.
std::vector<BenchRequest> editor_stream(std::uint64_t seed, int phase,
                                        double rate_rps, double duration_s,
                                        double think_s);

// Open-loop one-off prompts at `rate_rps` Poisson for `duration_s`.
std::vector<BenchRequest> oneoff_stream(std::uint64_t seed, int phase,
                                        double rate_rps, double duration_s);

// Every FT sample of the held-out corpus, in a seeded order.
std::vector<BenchRequest> offline_samples(std::uint64_t seed);

// Exact request identity (context, prompt, indent) used by the oracle.
std::string request_key(const wisdom::serve::SuggestionRequest& request);

}  // namespace perfbench
