// The output oracle: what a sequential InferenceService::suggest returns for
// the same request on a service with both caches off and the same lint
// policy. Every successful response the benchmark receives must match it
// in `ok`, `error` and `snippet`, byte for byte. The oracle runs outside
// every timed window.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "model/transformer.hpp"
#include "serve/service.hpp"
#include "text/bpe.hpp"

namespace perfbench {

struct Expected {
  bool ok = false;
  wisdom::serve::ServiceError error = wisdom::serve::ServiceError::None;
  std::string snippet;
};

class Oracle {
 public:
  Oracle(const wisdom::model::Transformer& model,
         const wisdom::text::BpeTokenizer& tokenizer,
         wisdom::serve::LintPolicy lint_policy);

  // Computes the expected response of every request not already known,
  // spreading the sequential suggest() calls over `threads` threads.
  void prepare(const std::vector<const wisdom::serve::SuggestionRequest*>&
                   requests,
               int threads);

  // Null when the request was never prepared.
  const Expected* expected(
      const wisdom::serve::SuggestionRequest& request) const;

  // Empty when `got` matches; otherwise which field differs.
  static std::string compare(const Expected& want,
                             const wisdom::serve::SuggestionResponse& got);

 private:
  wisdom::serve::InferenceService service_;
  std::unordered_map<std::string, Expected> table_;
};

}  // namespace perfbench
