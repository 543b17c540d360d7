// Per-layer measurement from outside the program: a replay of requests
// through each layer's public functions, with a span around every call,
// plus small timing loops over single public entry points.
//
// The replay mirrors the service's serving path for one request:
//   response lookup -> encode -> kept_prompt -> prefix lookup -> generate
//   (-> stream emit per token, for streaming workloads) -> prefix insert
//   -> decode -> trim_generation + truncate_to_first_task -> lint_gate
//   -> response insert -> to_json
// against its own caches, configured like the service's.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/transformer.hpp"
#include "serve/prefix_cache.hpp"
#include "serve/response_cache.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "text/bpe.hpp"

namespace perfbench {

// Per-call samples the replay collects, by layer.
struct LayerSamples {
  std::vector<double> encode_us, decode_us, postprocess_us, lint_us;
  std::vector<double> to_json_us, prefix_insert_us;
  std::vector<double> prompt_tokens, kept_tokens, generated_tokens;
  std::vector<double> prefill_ms, decode_ms_per_token;
  double stream_emit_us = 0.0;  // total across streamed tokens
  std::uint64_t streamed_tokens = 0;
  std::uint64_t linted = 0, repaired = 0;
  double decode_ms_total = 0.0;  // generate time after the first token
  std::uint64_t decode_tokens = 0;
  // Generated token ids and item indents, for the stream recompute loop.
  std::vector<std::vector<std::int32_t>> outputs;
  std::vector<int> indents;
};

class LayerReplay {
 public:
  LayerReplay(const wisdom::model::Transformer& model,
              const wisdom::text::BpeTokenizer& tokenizer,
              const wisdom::serve::ServiceOptions& options, bool streaming);

  // Replays one request under root span "replay" (request id `request_id`)
  // and returns the snippet it produced. `t0` anchors span times.
  std::string replay(const wisdom::serve::SuggestionRequest& request,
                     std::uint64_t request_id, SpanLog& log,
                     std::chrono::steady_clock::time_point t0);

  const LayerSamples& samples() const { return samples_; }

 private:
  const wisdom::model::Transformer& model_;
  const wisdom::text::BpeTokenizer& tokenizer_;
  wisdom::serve::ServiceOptions options_;
  bool streaming_;
  std::unique_ptr<wisdom::serve::PrefixKvCache> prefix_;
  std::unique_ptr<wisdom::serve::ResponseCache> responses_;
  LayerSamples samples_;
};

// Mean microseconds per request for HttpParser::feed over whole requests.
double http_parse_us(const std::vector<std::string>& wires);
// Mean microseconds per request_from_json over request bodies.
double request_decode_us(const std::vector<std::string>& bodies);
// Mean microseconds per decode_step_batch call of `width` sequences whose
// caches hold `length` tokens.
double decode_step_batch_us(const wisdom::model::Transformer& model,
                            int width, int length);
// Mean microseconds per token of the stream emitter's recompute
// (decode + trim_generation + truncate_to_first_task over each prefix).
double stream_recompute_us_per_token(
    const wisdom::text::BpeTokenizer& tokenizer,
    const std::vector<std::vector<std::int32_t>>& outputs,
    const std::vector<int>& indents);

}  // namespace perfbench
