#include "layers.hpp"

#include <algorithm>

#include "common.hpp"
#include "core/postprocess.hpp"
#include "net/http.hpp"
#include "serve/lint_gate.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace model = wisdom::model;
namespace serve = wisdom::serve;
namespace core = wisdom::core;

namespace {

double us_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - t0).count();
}

// Runs `body` over the items until at least `min_s` seconds have passed
// and returns mean microseconds per item.
template <typename Items, typename Body>
double time_per_item(const Items& items, double min_s, Body body) {
  if (items.empty()) return 0.0;
  std::size_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    for (const auto& item : items) body(item);
    calls += items.size();
    elapsed = seconds_between(start, Clock::now());
  } while (elapsed < min_s);
  return elapsed * 1e6 / static_cast<double>(calls);
}

}  // namespace

LayerReplay::LayerReplay(const model::Transformer& model,
                         const wisdom::text::BpeTokenizer& tokenizer,
                         const serve::ServiceOptions& options, bool streaming)
    : model_(model),
      tokenizer_(tokenizer),
      options_(options),
      streaming_(streaming) {
  if (options_.prefix_cache_enabled) {
    serve::PrefixCacheOptions cache;
    cache.byte_budget = options_.prefix_cache_bytes;
    cache.ttl_lookups = options_.cache_ttl_requests;
    prefix_ = std::make_unique<serve::PrefixKvCache>(cache);
  }
  if (options_.response_cache_enabled) {
    serve::ResponseCacheOptions cache;
    cache.max_entries = options_.response_cache_entries;
    cache.ttl_lookups = options_.cache_ttl_requests;
    responses_ = std::make_unique<serve::ResponseCache>(cache);
  }
}

std::string LayerReplay::replay(const serve::SuggestionRequest& request,
                                std::uint64_t request_id, SpanLog& log,
                                Clock::time_point t0) {
  auto now_us = [&] { return us_since(t0, Clock::now()); };
  const int root = log.add(request_id, -1, "replay", now_us(), 0.0);
  // Times `fn` as a child span of `parent` and returns its duration in us.
  auto timed = [&](const char* name, int parent, auto&& fn) {
    double a = now_us();
    fn();
    double b = now_us();
    log.add(request_id, parent, name, a, b);
    return b - a;
  };

  const std::string name_line = std::string(
      static_cast<std::size_t>(request.indent), ' ') + "- name: " +
      request.prompt + "\n";
  serve::ResponseCache::Key key{request.context, request.prompt,
                                request.indent, options_.max_new_tokens,
                                static_cast<int>(options_.lint_policy)};
  serve::SuggestionResponse response;
  bool memo_hit = false;
  if (responses_) {
    timed("response_lookup", root, [&] {
      if (auto memo = responses_->lookup(key)) {
        response = std::move(*memo);
        memo_hit = true;
      }
    });
  }

  if (!memo_hit) {
    std::vector<std::int32_t> ids;
    samples_.encode_us.push_back(timed("encode", root, [&] {
      ids = tokenizer_.encode(request.context + name_line);
    }));
    std::span<const std::int32_t> kept;
    timed("kept_prompt", root,
          [&] { kept = model_.kept_prompt(ids, options_.max_new_tokens); });
    samples_.prompt_tokens.push_back(static_cast<double>(ids.size()));
    samples_.kept_tokens.push_back(static_cast<double>(kept.size()));

    model::Transformer::KvCache warm, snapshot;
    model::Transformer::GenerateOptions gen;
    gen.max_new_tokens = options_.max_new_tokens;
    gen.stop_token = wisdom::text::BpeTokenizer::kEndOfText;
    if (prefix_) {
      timed("prefix_lookup", root, [&] {
        if (auto hit = prefix_->lookup(kept)) {
          warm = std::move(hit->cache);
          gen.warm_cache = &warm;
        }
      });
      gen.prompt_snapshot = &snapshot;
    }

    // The first on_token call marks the end of prefill (plus one argmax);
    // streaming workloads also redo the stream emitter's per-token work.
    const int generate_span =
        log.add(request_id, root, "generate", now_us(), 0.0);
    const auto generate_start = Clock::now();
    Clock::time_point first_token{};
    std::vector<std::int32_t> streamed_ids;
    std::string emitted;
    const std::size_t indent = static_cast<std::size_t>(request.indent);
    gen.on_token = [&](std::int32_t token) {
      if (first_token == Clock::time_point{}) first_token = Clock::now();
      if (!streaming_) return;
      double a = now_us();
      streamed_ids.push_back(token);
      std::string body =
          core::trim_generation(tokenizer_.decode(streamed_ids));
      body = core::truncate_to_first_task(body, indent);
      std::string stable = name_line + body;
      if (stable.size() > emitted.size() &&
          stable.compare(0, emitted.size(), emitted) == 0)
        emitted = std::move(stable);
      double b = now_us();
      log.add(request_id, generate_span, "stream_emit", a, b);
      samples_.stream_emit_us += b - a;
      ++samples_.streamed_tokens;
    };
    std::vector<std::int32_t> out = model_.generate(ids, gen);
    const auto generate_end = Clock::now();
    log.close(generate_span, us_since(t0, generate_end));
    const bool any = first_token != Clock::time_point{};
    const auto prefill_end = any ? first_token : generate_end;
    samples_.prefill_ms.push_back(
        seconds_between(generate_start, prefill_end) * 1e3);
    if (out.size() > 1) {
      double decode_ms = seconds_between(first_token, generate_end) * 1e3;
      samples_.decode_ms_per_token.push_back(
          decode_ms / static_cast<double>(out.size() - 1));
      samples_.decode_ms_total += decode_ms;
      samples_.decode_tokens += out.size() - 1;
    }
    samples_.generated_tokens.push_back(static_cast<double>(out.size()));

    if (prefix_ && snapshot.length == static_cast<int>(kept.size()) &&
        snapshot.length > 0) {
      samples_.prefix_insert_us.push_back(timed("prefix_insert", root, [&] {
        prefix_->insert(kept, std::move(snapshot));
      }));
    }

    std::string text;
    samples_.decode_us.push_back(
        timed("decode", root, [&] { text = tokenizer_.decode(out); }));
    std::string body;
    samples_.postprocess_us.push_back(timed("postprocess", root, [&] {
      body = core::trim_generation(text);
      body = core::truncate_to_first_task(body, indent);
    }));
    response.generated_tokens = static_cast<int>(out.size());
    response.ok = !body.empty();
    response.snippet = name_line + body;
    if (response.ok) {
      serve::LintOutcome gate;
      samples_.lint_us.push_back(timed("lint_gate", root, [&] {
        gate = serve::lint_gate(response.snippet, options_.lint_policy);
      }));
      ++samples_.linted;
      samples_.repaired += gate.repaired ? 1 : 0;
      response.schema_correct = gate.schema_correct;
      response.snippet = std::move(gate.snippet);
      response.repaired = gate.repaired;
      response.diagnostics = std::move(gate.diagnostics);
      if (responses_)
        timed("response_insert", root,
              [&] { responses_->insert(key, response); });
    }
    samples_.outputs.push_back(std::move(out));
    samples_.indents.push_back(request.indent);
  }

  std::string wire;
  samples_.to_json_us.push_back(
      timed("to_json", root, [&] { wire = serve::to_json(response); }));
  log.close(root, now_us());
  return response.snippet;
}

double http_parse_us(const std::vector<std::string>& wires) {
  wisdom::net::HttpParser parser;
  return time_per_item(wires, 0.05, [&](const std::string& wire) {
    parser.reset();
    std::size_t consumed = 0;
    parser.feed(wire, &consumed);
  });
}

double request_decode_us(const std::vector<std::string>& bodies) {
  return time_per_item(bodies, 0.05, [](const std::string& body) {
    auto parsed = serve::request_from_json(body);
    if (!parsed) std::abort();
  });
}

double decode_step_batch_us(const model::Transformer& model, int width,
                            int length) {
  std::vector<model::Transformer::KvCache> caches;
  for (int s = 0; s < width; ++s) {
    caches.push_back(model.make_cache());
    for (int t = 0; t < length; ++t)
      model.decode_step(caches.back(),
                        static_cast<std::int32_t>(2 + (s + t) % 200));
  }
  std::vector<model::Transformer::KvCache*> ptrs;
  for (auto& cache : caches) ptrs.push_back(&cache);
  std::vector<std::int32_t> tokens(static_cast<std::size_t>(width), 7);
  std::vector<int> reps(32);
  return time_per_item(reps, 0.05, [&](int) {
    model.decode_step_batch(ptrs, tokens);
    for (auto& cache : caches) cache.truncate(length);
  });
}

double stream_recompute_us_per_token(
    const wisdom::text::BpeTokenizer& tokenizer,
    const std::vector<std::vector<std::int32_t>>& outputs,
    const std::vector<int>& indents) {
  std::uint64_t tokens = 0;
  for (const auto& out : outputs) tokens += out.size();
  if (tokens == 0) return 0.0;
  std::vector<std::size_t> order(outputs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // time_per_item counts sequences; rescale to tokens afterwards.
  double per_sequence = time_per_item(order, 0.05, [&](std::size_t i) {
    std::vector<std::int32_t> prefix;
    for (std::int32_t token : outputs[i]) {
      prefix.push_back(token);
      std::string body = core::trim_generation(tokenizer.decode(prefix));
      body = core::truncate_to_first_task(
          body, static_cast<std::size_t>(indents[i]));
      if (body.size() > (1u << 30)) std::abort();
    }
  });
  return per_sequence * static_cast<double>(outputs.size()) /
         static_cast<double>(tokens);
}

}  // namespace perfbench
