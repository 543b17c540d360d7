#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common.hpp"

namespace perfbench {

int SpanLog::add(std::uint64_t request, int parent, std::string name,
                 double start_us, double end_us, std::string attrs) {
  Span span;
  span.request = request;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.name = std::move(name);
  span.start_us = start_us;
  span.end_us = end_us;
  span.attrs = std::move(attrs);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<double> SpanLog::self_times_us() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    double a = std::max(span.start_us, parent.start_us);
    double b = std::min(span.end_us, parent.end_us);
    if (b > a)
      children[static_cast<std::size_t>(span.parent)].emplace_back(a, b);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& cover = children[i];
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_a = 0.0, run_b = -1.0;
    for (const auto& [a, b] : cover) {
      if (a > run_b) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;
    self[i] = std::max(0.0, spans_[i].end_us - spans_[i].start_us - covered);
  }
  return self;
}

std::map<std::string, double> SpanLog::self_by_name_us() const {
  std::map<std::string, double> out;
  std::vector<double> self = self_times_us();
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans_) {
    JsonObject line;
    line.num("request", static_cast<double>(span.request))
        .num("id", span.id)
        .num("parent", span.parent)
        .str("name", span.name)
        .num("start_us", span.start_us)
        .num("end_us", span.end_us);
    if (!span.attrs.empty()) line.raw("attrs", span.attrs);
    out << line.dump() << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
