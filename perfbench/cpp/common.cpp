#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "serve/wire.hpp"
#include "util/hashing.hpp"

namespace perfbench {

std::size_t nearest_rank(double p, std::size_t n) {
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

bool percentile_supported(double p, std::size_t n) {
  return n > 0 && n - nearest_rank(p, n) >= kTailMargin;
}

double supported_percentile(double p, std::size_t n) {
  if (percentile_supported(p, n)) return p;
  if (n <= kTailMargin) return 50.0;
  // Rank n - kTailMargin is the deepest rank with the margin behind it.
  double best = 100.0 * static_cast<double>(n - kTailMargin) /
                static_cast<double>(n);
  return std::max(50.0, std::min(p, best));
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p = supported_percentile(p, out.n);
  out.value = samples[nearest_rank(out.p, out.n) - 1];
  return out;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::string json_string(std::string_view text) {
  std::string out(1, '"');
  out += wisdom::serve::json_escape(text);
  out += '"';
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

JsonObject& JsonObject::num(std::string_view key, double value) {
  return raw(key, json_number(value));
}

JsonObject& JsonObject::str(std::string_view key, std::string_view value) {
  return raw(key, json_string(value));
}

JsonObject& JsonObject::boolean(std::string_view key, bool value) {
  return raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::raw(std::string_view key, std::string_view json) {
  fields_.emplace_back(std::string(key), std::string(json));
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

std::string file_hash_hex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    wisdom::util::fnv1a64(bytes)));
  return hex;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
