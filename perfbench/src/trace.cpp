#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

void write_spans_csv(const std::string& path,
                     std::span<const SpanLog* const> logs,
                     std::int64_t origin_ns) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "name,id,start_ns,end_ns,n\n";
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << s.name << ',' << s.id << ',' << (s.start_ns - origin_ns) << ','
          << (s.end_ns - origin_ns) << ',' << s.n << '\n';
    }
  }
  if (!out.flush()) throw std::runtime_error("failed writing span file " + path);
}

std::optional<std::vector<std::uint32_t>> map_requests_to_batches(
    std::span<const std::uint32_t> batch_sizes, std::size_t n_requests) {
  std::vector<std::uint32_t> batch_of;
  batch_of.reserve(n_requests);
  for (std::size_t b = 0; b < batch_sizes.size(); ++b) {
    if (batch_sizes[b] == 0 || batch_of.size() + batch_sizes[b] > n_requests) {
      return std::nullopt;
    }
    batch_of.insert(batch_of.end(), batch_sizes[b],
                    static_cast<std::uint32_t>(b));
  }
  if (batch_of.size() != n_requests) return std::nullopt;
  return batch_of;
}

bool causally_consistent(const RequestTimes& t) noexcept {
  return t.batch_start >= t.submit_start && t.batch_end >= t.batch_start &&
         t.ready >= t.batch_end && t.ready >= t.submit_end;
}

StageSplit split_stages(const RequestTimes& t) noexcept {
  // Running maximum over the stage boundaries: a boundary that is reached
  // while an earlier stage is still open collapses onto that stage's end.
  const std::int64_t b0 = t.due;
  const std::int64_t b1 = std::max(b0, t.submit_start);
  const std::int64_t b2 = std::max(b1, t.submit_end);
  const std::int64_t b3 = std::max(b2, t.batch_start);
  const std::int64_t b4 = std::max(b3, t.batch_end);
  const std::int64_t b5 = std::max(b4, t.ready);
  StageSplit s;
  s.late = static_cast<double>(b1 - b0);
  s.submit = static_cast<double>(b2 - b1);
  s.wait = static_cast<double>(b3 - b2);
  s.exec = static_cast<double>(b4 - b3);
  s.settle = static_cast<double>(b5 - b4);
  return s;
}

}  // namespace perfbench
