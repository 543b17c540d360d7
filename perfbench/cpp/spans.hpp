// In-memory span log for the traced run. The benchmark records spans only
// around its own calls: its client calls, and a replay of requests through
// the layers' public functions. Spans are written out when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t request = 0;  // shared by every span of one request
  int id = 0;
  int parent = -1;            // -1 for a root
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::string attrs;          // JSON object text, or empty
};

class SpanLog {
 public:
  // Appends a finished span and returns its id.
  int add(std::uint64_t request, int parent, std::string name,
          double start_us, double end_us, std::string attrs = {});
  // Moves a span's end (for spans opened before their end is known).
  void close(int id, double end_us) { spans_[id].end_us = end_us; }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus the part of it that its
  // children's intervals cover.
  std::vector<double> self_times_us() const;
  // Total self time per span name.
  std::map<std::string, double> self_by_name_us() const;

  // One JSON object per line; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
