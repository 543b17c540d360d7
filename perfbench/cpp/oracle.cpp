#include "oracle.hpp"

#include <atomic>
#include <thread>
#include <unordered_set>

#include "workload.hpp"

namespace perfbench {

namespace serve = wisdom::serve;

namespace {

serve::ServiceOptions oracle_options(serve::LintPolicy lint_policy) {
  serve::ServiceOptions options;
  options.lint_policy = lint_policy;
  options.prefix_cache_enabled = false;
  options.response_cache_enabled = false;
  return options;
}

}  // namespace

Oracle::Oracle(const wisdom::model::Transformer& model,
               const wisdom::text::BpeTokenizer& tokenizer,
               serve::LintPolicy lint_policy)
    : service_(model, tokenizer, oracle_options(lint_policy)) {}

void Oracle::prepare(
    const std::vector<const serve::SuggestionRequest*>& requests,
    int threads) {
  std::vector<const serve::SuggestionRequest*> todo;
  std::unordered_set<std::string> queued;
  for (const serve::SuggestionRequest* request : requests) {
    std::string key = request_key(*request);
    if (table_.count(key) || !queued.insert(std::move(key)).second) continue;
    todo.push_back(request);
  }
  std::vector<Expected> out(todo.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < todo.size(); i = next++) {
      serve::SuggestionRequest request;
      request.context = todo[i]->context;
      request.prompt = todo[i]->prompt;
      request.indent = todo[i]->indent;
      serve::SuggestionResponse response = service_.suggest(request);
      out[i].ok = response.ok;
      out[i].error = response.error;
      out[i].snippet = std::move(response.snippet);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();
  for (std::size_t i = 0; i < todo.size(); ++i)
    table_.emplace(request_key(*todo[i]), std::move(out[i]));
}

const Expected* Oracle::expected(
    const serve::SuggestionRequest& request) const {
  auto it = table_.find(request_key(request));
  return it == table_.end() ? nullptr : &it->second;
}

std::string Oracle::compare(const Expected& want,
                            const serve::SuggestionResponse& got) {
  if (want.ok != got.ok) return "ok differs";
  if (want.error != got.error)
    return "error differs (" +
           std::string(serve::service_error_name(got.error)) + " vs " +
           std::string(serve::service_error_name(want.error)) + ")";
  if (want.snippet != got.snippet) return "snippet differs";
  return {};
}

}  // namespace perfbench
