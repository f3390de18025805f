// perfbench/trace — in-memory spans and the serve stage split.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library (submit(), the predictor the serve worker runs, future
// readiness); nothing inside the program is instrumented.  Each recording
// thread owns one SpanLog, so recording takes no lock; the logs are read
// after the threads are joined and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval.  `id` is the request (or call) id; for a batch span
/// it is the id of the first request in the batch and `n` its size.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t n = 1;
};

/// Append-only span buffer owned by one recording thread.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 0) { spans_.reserve(capacity); }
  void add(const char* name, std::uint64_t id, std::int64_t start_ns,
           std::int64_t end_ns, std::uint32_t n = 1) {
    spans_.push_back({name, id, start_ns, end_ns, n});
  }
  [[nodiscard]] std::span<const Span> spans() const noexcept { return spans_; }
  [[nodiscard]] std::vector<Span>& mutable_spans() noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Writes every span of every log as CSV (name,id,start_ns,end_ns,n), start
/// times relative to `origin_ns`.  Throws std::runtime_error on I/O failure.
void write_spans_csv(const std::string& path,
                     std::span<const SpanLog* const> logs,
                     std::int64_t origin_ns);

/// Maps each request, in submission order, to the index of the batch that
/// executed it, given the executed batch sizes in execution order.  This is
/// exact only when batches run in FIFO order: one worker, single-sample
/// requests, nothing shed or failed.  Returns nullopt when the sizes do not
/// sum to `n_requests` — the trace is then invalid, not guessed at.
[[nodiscard]] std::optional<std::vector<std::uint32_t>> map_requests_to_batches(
    std::span<const std::uint32_t> batch_sizes, std::size_t n_requests);

/// Timestamps (ns) of one served request.
struct RequestTimes {
  std::int64_t due = 0;           ///< when the open loop scheduled it
  std::int64_t submit_start = 0;  ///< submit() entered
  std::int64_t submit_end = 0;    ///< submit() returned
  std::int64_t batch_start = 0;   ///< its batch's predictor call began
  std::int64_t batch_end = 0;     ///< ... and returned
  std::int64_t ready = 0;         ///< the collector saw the future ready
};

/// True when the timestamps are causally possible: the batch cannot start
/// before submit() was entered nor end after the future was seen ready.
/// An inconsistent request means the request→batch mapping is wrong.
[[nodiscard]] bool causally_consistent(const RequestTimes& t) noexcept;

/// Self time (ns) of each stage of one request.  The stages tile
/// [due, ready] exactly: each instant is charged to the earliest stage still
/// in progress, so when a batch starts before submit() has returned to the
/// caller, the overlap counts as submit and exec keeps only the remainder.
struct StageSplit {
  double late = 0.0;    ///< due → submit() entered (generator lateness)
  double submit = 0.0;  ///< inside submit()
  double wait = 0.0;    ///< submit() returned → batch started
  double exec = 0.0;    ///< the batch's predict_batch_prevalidated call
  double settle = 0.0;  ///< batch ended → future observed ready
  [[nodiscard]] double total() const noexcept {
    return late + submit + wait + exec + settle;
  }
};

[[nodiscard]] StageSplit split_stages(const RequestTimes& t) noexcept;

}  // namespace perfbench
