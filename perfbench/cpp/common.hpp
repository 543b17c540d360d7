// Shared helpers for the serving benchmark: the clock, the percentile rank
// rule, a minimal JSON writer, and file hashing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- percentiles -------------------------------------------------------------
//
// Nearest-rank rule: the p-th percentile of n sorted samples is the sample at
// rank ceil(p/100 * n) (1-based). A percentile is reported only when at least
// kTailMargin samples lie beyond its rank; otherwise the highest percentile
// that has that margin is reported instead, and Percentile::p says which.
inline constexpr std::size_t kTailMargin = 10;

struct Percentile {
  double value = 0.0;
  double p = 0.0;      // the percentile actually reported
  std::size_t n = 0;   // sample count
};

// 1-based nearest rank of percentile p over n samples (n >= 1).
std::size_t nearest_rank(double p, std::size_t n);
// Whether percentile p over n samples leaves kTailMargin samples beyond it.
bool percentile_supported(double p, std::size_t n);
// The highest percentile <= p that is supported over n samples; 50 when
// even the median is not (fewer than 2 * kTailMargin samples).
double supported_percentile(double p, std::size_t n);
// Percentile p of `samples` (unsorted; copied) under the rules above. An
// empty sample set reports 0 with n = 0.
Percentile percentile(std::vector<double> samples, double p);
double mean(const std::vector<double>& samples);

// --- JSON output -------------------------------------------------------------

std::string json_string(std::string_view text);
// Shortest round-trip text for a double ("%.17g"), with non-finite values
// written as null.
std::string json_number(double value);

// An ordered JSON object under construction.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& boolean(std::string_view key, bool value);
  // `json` must already be valid JSON text.
  JsonObject& raw(std::string_view key, std::string_view json);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- files -------------------------------------------------------------------

// FNV-1a 64 of a file's bytes as 16 hex digits; empty when unreadable.
std::string file_hash_hex(const std::string& path);

// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
