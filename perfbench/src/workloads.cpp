#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/hash.hpp"
#include "host.hpp"
#include "inputs.hpp"
#include "model/model_io.hpp"
#include "predict/predictor.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "verify/verify.hpp"

namespace perfbench {
namespace {

using flint::predict::Predictor;
using PredictorPtr = std::shared_ptr<const Predictor<float>>;
namespace serve = flint::serve;

/// Set-up is repeated and its median reported, so one slow page-in does not
/// decide setup_s.
constexpr int kSetupRepeats = 5;
constexpr std::size_t kBlockRows = 4096;
/// Request/call order cycle length; long enough that the pool is sampled
/// without visible repetition.
constexpr std::size_t kOrderLength = std::size_t{1} << 16;
/// Share of a traced run spent untraced (the overhead reference), traced,
/// and in the layer probe.  The first two are equal: their windows pair up.
constexpr double kTraceUntracedShare = 0.4;
constexpr double kTraceProbeShare = 0.2;

/// Which model each workload runs is chosen by perfbench/run.py.
struct WorkloadSpec {
  const char* name;
  double rate;  ///< offered requests per second; 0 = closed loop
};

constexpr std::array<WorkloadSpec, 4> kWorkloads = {{
    {"serve-open.low", 2000.0},
    {"serve-open.high", 20000.0},
    {"batch-deep", 0.0},
    {"onesample-deep", 0.0},
}};

const WorkloadSpec& spec_of(const std::string& workload) {
  for (const auto& w : kWorkloads) {
    if (workload == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

/// Every end-to-end and per-layer figure, in BENCHMARK.json order.  A run
/// reports all of one list; figures a workload does not exercise (serve
/// stages on the deep workloads, generator lateness in a closed loop)
/// read 0.
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr std::array<MetricDef, 5> kEndToEnd = {{
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"throughput_sps", "samples/s"},
    {"latency_p50_us", "us"},
    {"latency_p75_us", "us"},
}};

constexpr std::array<MetricDef, 31> kPerLayer = {{
    {"model.load_ms", "ms"},
    {"verify.verify_ms", "ms"},
    {"predict.make_ms", "ms"},
    {"exec.plan", "hash"},
    {"exec.traverse_ns_per_sample", "ns"},
    {"predict.boundary_ns_per_sample", "ns"},
    {"exec.one_us.p50", "us"},
    {"serve.submit_us", "us"},
    {"serve.wait_us", "us"},
    {"serve.exec_us", "us"},
    {"serve.settle_us", "us"},
    {"serve.mean_batch", "samples"},
    {"serve.zero_copy_share", "share"},
    {"serve.server_p50_us", "us"},
    {"serve.cpu_us_per_req", "us"},
    {"latency_p90_us", "us"},
    {"latency_p99_us", "us"},
    {"latency_samples", "count"},
    {"gen.late_us.p50", "us"},
    {"gen.late_us.p99", "us"},
    {"gen.late_us.max", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.valid", "flag"},
    {"failed_share", "share"},
    {"host.pacer_late_us.p99.low", "us"},
    {"host.pacer_late_us.p99.high", "us"},
    {"host.steal_pct", "%"},
    {"host.thread_scaling", "x"},
    {"host.mem_latency_ns", "ns"},
    {"host.l2_kib", "KiB"},
    {"host.llc_kib", "KiB"},
}};

struct Figure {
  double value = 0.0;
  std::size_t samples = 0;
};
using Figures = std::map<std::string, Figure>;

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Restarts the kernel's peak-RSS counter (VmHWM), so the host calibration
/// before it does not count.  Where /proc/self/clear_refs is unavailable the
/// figure falls back to the whole process's peak.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      if (in >> kib) return kib / 1024.0;
      break;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The pool followed by its first `span` rows again, so that `span`
/// consecutive rows starting at any pool index are contiguous.
struct ExtendedPool {
  const RowPool* pool = nullptr;
  std::vector<float> rows;

  ExtendedPool(const RowPool& p, std::size_t span) : pool(&p) {
    const std::size_t total = p.size() + span;
    rows.reserve(total * p.cols);
    for (std::size_t r = 0; r < total; ++r) {
      const float* src = p.row(r % p.size());
      rows.insert(rows.end(), src, src + p.cols);
    }
  }
  [[nodiscard]] const float* at(std::size_t r) const {
    return rows.data() + r * pool->cols;
  }
  [[nodiscard]] std::int32_t label(std::size_t r) const {
    return pool->labels[r % pool->size()];
  }
};

// ---------------------------------------------------------------------------
// Set-up: the path a served or batch-scoring process takes before its first
// prediction.
// ---------------------------------------------------------------------------

struct Setup {
  PredictorPtr predictor;
  std::unique_ptr<serve::InferenceServer> server;
  std::string plan;
};

struct SetupTimes {
  std::vector<double> load_ms;
  std::vector<double> verify_ms;
  std::vector<double> make_ms;
  std::vector<double> total_s;
};

/// serve_path: load_any_model → verify_model → make_predictor → install
/// into a default-options InferenceServer (the serve CLI path).  Otherwise
/// load_any_model → make_predictor.
Setup set_up_once(const std::string& model_path, bool serve_path,
                  SetupTimes& times) {
  Setup s;
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = 0;
  std::int64_t t2 = 0;
  std::int64_t t3 = 0;
  {
    const auto model = flint::model::load_any_model<float>(model_path);
    t1 = now_ns();
    if (serve_path) {
      const auto report = flint::verify::verify_model(model);
      if (!report.ok()) {
        throw std::runtime_error("model failed verification: " +
                                 report.diagnostics.front().check);
      }
    }
    t2 = now_ns();
    s.predictor =
        PredictorPtr(flint::predict::make_predictor(model, "layout:auto"));
    t3 = now_ns();
  }
  if (serve_path) {
    s.server = std::make_unique<serve::InferenceServer>(serve::ServeOptions{});
    s.server->registry().install("default", s.predictor);
  }
  const std::int64_t t4 = now_ns();
  times.load_ms.push_back(ms_between(t0, t1));
  times.verify_ms.push_back(ms_between(t1, t2));
  times.make_ms.push_back(ms_between(t2, t3));
  times.total_s.push_back(ms_between(t0, t4) / 1e3);
  s.plan = s.predictor->name();
  return s;
}

Setup set_up(const std::string& model_path, bool serve_path, Figures& e2e,
             Figures& layer, std::vector<std::string>& notes) {
  SetupTimes times;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = Setup{};  // release the previous copy first, as a restart would
    s = set_up_once(model_path, serve_path, times);
  }
  e2e["setup_s"] = {median(times.total_s), times.total_s.size()};
  std::ostringstream line;
  line << "setup repeats (s):";
  for (const double t : times.total_s) line << ' ' << t;
  notes.push_back(line.str());
  layer["model.load_ms"] = {median(times.load_ms), times.load_ms.size()};
  if (serve_path) {
    layer["verify.verify_ms"] = {median(times.verify_ms), times.verify_ms.size()};
  }
  layer["predict.make_ms"] = {median(times.make_ms), times.make_ms.size()};
  // The plan label as a number, so a change of plan shows in the figures.
  flint::core::Fnv1a64 plan_hash;
  plan_hash.add_string(s.plan);
  layer["exec.plan"] = {
      static_cast<double>(static_cast<std::uint32_t>(plan_hash.digest())), 1};
  return s;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  void add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
  }
};

// ---------------------------------------------------------------------------
// Open loop: one pacer thread submits single-sample requests on a fixed
// schedule, one collector thread waits for each future in order.  Latency
// runs from the due time, so a stalled pacer charges its stall to every
// request it delays.
// ---------------------------------------------------------------------------

/// Decorator installed in the registry for traced runs: times the batch
/// call the serve worker makes.  Only the single worker thread appends to
/// the log, each span before it fulfils that batch's futures; the log is
/// read only while the server is idle, after the collector has seen every
/// future of the window ready.
class TimedPredictor final : public Predictor<float> {
 public:
  TimedPredictor(PredictorPtr inner, SpanLog* batches)
      : inner_(std::move(inner)), batches_(batches) {
    set_missing_policy(inner_->missing_policy());
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int num_classes() const noexcept override {
    return inner_->num_classes();
  }
  [[nodiscard]] std::size_t feature_count() const noexcept override {
    return inner_->feature_count();
  }
  [[nodiscard]] int num_outputs() const noexcept override {
    return inner_->num_outputs();
  }

 protected:
  void do_predict_batch(const float* features, std::size_t n_samples,
                        std::int32_t* out) const override {
    const std::int64_t start = now_ns();
    inner_->predict_batch_prevalidated(features, n_samples, out);
    batches_->add("exec", 0, start, now_ns(),
                  static_cast<std::uint32_t>(n_samples));
  }

 private:
  PredictorPtr inner_;
  SpanLog* batches_;
};

struct OpenLoopResult {
  Tally tally;
  std::vector<double> latency_us;  ///< due → observed ready, completed only
  std::vector<double> late_us;     ///< due → submit() entered
  std::vector<RequestTimes> times;  ///< per request, when kept
  double elapsed_s = 0.0;           ///< first due → last ready
  double generator_cpu_s = 0.0;     ///< pacer + collector thread CPU
};

OpenLoopResult open_loop(serve::InferenceServer& server, const RowPool& pool,
                         const std::vector<std::uint32_t>& order,
                         std::size_t first, std::size_t n, double rate,
                         bool keep_times) {
  struct Slot {
    std::future<std::vector<std::int32_t>> future;
    RequestTimes t;
    std::uint32_t row = 0;
    bool ok = false;
  };
  std::vector<Slot> slots(n);
  std::atomic<std::size_t> published{0};
  double pacer_cpu = 0.0;
  double collector_cpu = 0.0;
  Tally tally;
  tally.attempted = n;
  const double interval_ns = 1e9 / rate;
  // A 1 ms head start so both threads are running before the first due.
  const std::int64_t start = now_ns() + 1'000'000;

  std::thread pacer([&] {
    tighten_timer_slack();
    const double cpu0 = cpu_seconds(RUSAGE_THREAD);
    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = slots[i];
      s.row = order[(first + i) % order.size()];
      s.t.due = start + std::llround(static_cast<double>(i) * interval_ns);
      wait_until_ns(s.t.due);
      s.t.submit_start = now_ns();
      try {
        s.future = server.submit({pool.row(s.row), pool.cols}, 1);
      } catch (...) {
        std::promise<std::vector<std::int32_t>> refused;
        refused.set_exception(std::current_exception());
        s.future = refused.get_future();
      }
      s.t.submit_end = now_ns();
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
    pacer_cpu = cpu_seconds(RUSAGE_THREAD) - cpu0;
  });
  std::thread collector([&] {
    const double cpu0 = cpu_seconds(RUSAGE_THREAD);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t p = 0;
      while ((p = published.load(std::memory_order_acquire)) <= i) {
        published.wait(p, std::memory_order_acquire);
      }
      Slot& s = slots[i];
      s.future.wait();
      s.t.ready = now_ns();
      try {
        const auto got = s.future.get();
        s.ok = true;
        if (got.size() != 1 || got[0] != pool.labels[s.row]) ++tally.mismatched;
      } catch (const std::exception&) {
        ++tally.failed;  // a typed ServeError or a refusal at submit
      }
    }
    collector_cpu = cpu_seconds(RUSAGE_THREAD) - cpu0;
  });
  pacer.join();
  collector.join();

  OpenLoopResult r;
  r.tally = tally;
  r.generator_cpu_s = pacer_cpu + collector_cpu;
  r.latency_us.reserve(n);
  r.late_us.reserve(n);
  std::int64_t last_ready = start;
  for (const Slot& s : slots) {
    r.late_us.push_back(static_cast<double>(s.t.submit_start - s.t.due) / 1e3);
    if (s.ok) r.latency_us.push_back(static_cast<double>(s.t.ready - s.t.due) / 1e3);
    last_ready = std::max(last_ready, s.t.ready);
  }
  r.elapsed_s = static_cast<double>(last_ready - start) / 1e9;
  if (keep_times) {
    r.times.reserve(n);
    for (const Slot& s : slots) r.times.push_back(s.t);
  }
  return r;
}

std::size_t requests_for(double rate, double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
}

// ---------------------------------------------------------------------------
// Closed loops: one caller, back-to-back calls, each timed.
// ---------------------------------------------------------------------------

struct CallLoopResult {
  Tally tally;
  std::vector<double> latency_us;
  std::uint64_t samples = 0;
  double elapsed_s = 0.0;
};

/// predict_batch on kBlockRows-row blocks cycling the pool from `cursor`.
CallLoopResult block_loop(const Predictor<float>& p, const ExtendedPool& ext,
                          std::size_t& cursor, double seconds, SpanLog* spans) {
  CallLoopResult r;
  const std::size_t cols = ext.pool->cols;
  std::vector<std::int32_t> out(kBlockRows);
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t now = start;
  while (now < deadline) {
    const float* block = ext.at(cursor);
    const std::int64_t t0 = now_ns();
    bool ok = true;
    try {
      p.predict_batch({block, kBlockRows * cols}, kBlockRows, out);
    } catch (const std::exception&) {
      ok = false;
      ++r.tally.failed;
    }
    now = now_ns();
    if (spans) spans->add("predict_batch", r.tally.attempted, t0, now, kBlockRows);
    ++r.tally.attempted;
    r.latency_us.push_back(static_cast<double>(now - t0) / 1e3);
    for (std::size_t s = 0; ok && s < kBlockRows; ++s) {
      if (out[s] != ext.label(cursor + s)) ++r.tally.mismatched;
    }
    r.samples += kBlockRows;
    cursor = (cursor + kBlockRows) % ext.pool->size();
  }
  r.elapsed_s = static_cast<double>(now - start) / 1e9;
  return r;
}

/// predict_one on pool rows in request order from `cursor`.
CallLoopResult one_loop(const Predictor<float>& p, const RowPool& pool,
                        const std::vector<std::uint32_t>& order,
                        std::size_t& cursor, double seconds, SpanLog* spans) {
  CallLoopResult r;
  r.latency_us.reserve(static_cast<std::size_t>(seconds * 100'000) + 1);
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t now = start;
  while (now < deadline) {
    const std::uint32_t row = order[cursor++ % order.size()];
    const std::int64_t t0 = now_ns();
    bool ok = true;
    std::int32_t got = -1;
    try {
      got = p.predict_one({pool.row(row), pool.cols});
    } catch (const std::exception&) {
      ok = false;
      ++r.tally.failed;
    }
    now = now_ns();
    if (spans) spans->add("predict_one", r.tally.attempted, t0, now);
    ++r.tally.attempted;
    r.latency_us.push_back(static_cast<double>(now - t0) / 1e3);
    if (ok && got != pool.labels[row]) ++r.tally.mismatched;
    ++r.samples;
  }
  r.elapsed_s = static_cast<double>(now - start) / 1e9;
  return r;
}

// ---------------------------------------------------------------------------
// Layer probe: the public entry points of `predict` and `exec` over the
// same rows.  Calls alternate between the two sides and never repeat the
// previous call's rows, so neither side runs on caches the other warmed and
// drift hits both alike.
// ---------------------------------------------------------------------------

struct ProbeResult {
  Tally tally;
  double traverse_ns_per_sample = 0.0;  ///< prevalidated, kBlockRows rows
  double boundary_block_ns = 0.0;       ///< predict_batch − that, per sample
  double one_us_p50 = 0.0;              ///< prevalidated, n = 1
  double boundary_one_ns = 0.0;         ///< predict_one − that
  std::size_t block_pairs = 0;
  std::size_t one_pairs = 0;
};

ProbeResult layer_probe(const Predictor<float>& p, const ExtendedPool& ext,
                        const std::vector<std::uint32_t>& order, double seconds) {
  ProbeResult r;
  const std::size_t cols = ext.pool->cols;
  std::vector<std::int32_t> out(kBlockRows);
  std::vector<double> full_ns;
  std::vector<double> pre_ns;
  // Call i runs the full entry point when (i + i / 2) is even: the side
  // that goes first flips every pair.
  const auto full_side = [](std::size_t i) { return (i + i / 2) % 2 == 0; };

  std::size_t cursor = 0;
  std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 0.5e9);
  for (std::size_t i = 0; i < 2 || now_ns() < deadline; ++i) {
    const float* block = ext.at(cursor);
    const bool full = full_side(i);
    const std::int64_t t0 = now_ns();
    if (full) {
      p.predict_batch({block, kBlockRows * cols}, kBlockRows, out);
    } else {
      p.predict_batch_prevalidated(block, kBlockRows, out.data());
    }
    (full ? full_ns : pre_ns).push_back(static_cast<double>(now_ns() - t0));
    for (std::size_t s = 0; s < kBlockRows; ++s) {
      if (out[s] != ext.label(cursor + s)) ++r.tally.mismatched;
    }
    ++r.tally.attempted;
    cursor = (cursor + kBlockRows) % ext.pool->size();
  }
  r.block_pairs = std::min(full_ns.size(), pre_ns.size());
  r.traverse_ns_per_sample = median(pre_ns) / static_cast<double>(kBlockRows);
  r.boundary_block_ns =
      (median(full_ns) - median(pre_ns)) / static_cast<double>(kBlockRows);

  full_ns.clear();
  pre_ns.clear();
  deadline = now_ns() + static_cast<std::int64_t>(seconds * 0.5e9);
  for (std::size_t i = 0; i < 2 || now_ns() < deadline; ++i) {
    const std::uint32_t row = order[i % order.size()];
    const float* x = ext.pool->row(row);
    const bool full = full_side(i);
    const std::int64_t t0 = now_ns();
    if (full) {
      out[0] = p.predict_one({x, cols});
    } else {
      p.predict_batch_prevalidated(x, 1, out.data());
    }
    (full ? full_ns : pre_ns).push_back(static_cast<double>(now_ns() - t0));
    if (out[0] != ext.pool->labels[row]) ++r.tally.mismatched;
    ++r.tally.attempted;
  }
  r.one_pairs = std::min(full_ns.size(), pre_ns.size());
  r.one_us_p50 = median(pre_ns) / 1e3;
  r.boundary_one_ns = median(full_ns) - median(pre_ns);
  return r;
}

/// The untraced measurement is split into windows and every latency or
/// throughput figure is the median over windows, so a few seconds of host
/// contention move one window rather than the figure.  Only per-window
/// summaries are kept: the benchmark's own memory stays small and does not
/// grow with the call rate, so peak_rss_mib is the program's.
constexpr int kWindows = 10;

struct Windows {
  std::vector<double> p50, p75, p90, p99, throughput;
  std::size_t samples = 0;

  void add(std::vector<double>& latency_us, double throughput_sps) {
    const Summary s = summarize(latency_us);
    samples += s.count;
    p50.push_back(s.p50);
    p75.push_back(s.p75);
    p90.push_back(s.p90);
    p99.push_back(s.p99);
    throughput.push_back(throughput_sps);
  }
};

void put_latency(Figures& e2e, Figures& layer, const Windows& w,
                 std::vector<std::string>& notes) {
  e2e["throughput_sps"] = {median(w.throughput), w.samples};
  e2e["latency_p50_us"] = {median(w.p50), w.samples};
  e2e["latency_p75_us"] = {median(w.p75), w.samples};
  layer["latency_p90_us"] = {median(w.p90), w.samples};
  layer["latency_p99_us"] = {median(w.p99), w.samples};
  layer["latency_samples"] = {static_cast<double>(w.samples), w.samples};
  const auto series = [&notes](const char* label, const std::vector<double>& v) {
    std::ostringstream line;
    line << "windows " << label << ':';
    for (const double x : v) line << ' ' << x;
    notes.push_back(line.str());
  };
  series("latency_p50_us", w.p50);
  series("latency_p75_us", w.p75);
  series("latency_p99_us", w.p99);
  series("throughput_sps", w.throughput);
}

double overhead_pct(double untraced, double traced) {
  return untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0;
}

// ---------------------------------------------------------------------------
// serve-open.*
// ---------------------------------------------------------------------------

/// Stage samples of the traced serve windows.
struct StageTrace {
  bool valid = true;
  std::uint64_t requests = 0;  ///< traced requests so far; the next id
  std::array<std::vector<double>, 5> stage_us;  ///< late..settle, see StageSplit
  std::vector<double> latency_us;               ///< due → ready, same requests
};

/// Maps one traced window's requests onto the batches the decorator logged
/// from `first_batch` on (FIFO order), splits each request into stages and
/// records its spans.  Any failed request or impossible timestamp marks the
/// whole trace invalid.
void attribute_window(const OpenLoopResult& b, SpanLog& batches,
                      std::size_t first_batch, StageTrace& trace,
                      SpanLog& requests) {
  const std::uint64_t base = trace.requests;
  trace.requests += b.times.size();
  if (!trace.valid) return;
  auto& exec = batches.mutable_spans();
  std::vector<std::uint32_t> sizes;
  for (std::size_t i = first_batch; i < exec.size(); ++i) sizes.push_back(exec[i].n);
  const auto batch_of = b.tally.failed == 0
                            ? map_requests_to_batches(sizes, b.times.size())
                            : std::nullopt;
  if (!batch_of) {
    trace.valid = false;
    return;
  }
  for (std::size_t i = 0; i < b.times.size(); ++i) {
    Span& batch = exec[first_batch + (*batch_of)[i]];
    if (i == 0 || (*batch_of)[i] != (*batch_of)[i - 1]) batch.id = base + i;
    RequestTimes t = b.times[i];
    t.batch_start = batch.start_ns;
    t.batch_end = batch.end_ns;
    if (!causally_consistent(t)) {
      trace.valid = false;
      return;
    }
    const StageSplit st = split_stages(t);
    const std::array<double, 5> parts = {st.late, st.submit, st.wait, st.exec, st.settle};
    for (std::size_t k = 0; k < parts.size(); ++k) {
      trace.stage_us[k].push_back(parts[k] / 1e3);
    }
    requests.add("request", base + i, t.due, t.ready);
    requests.add("submit", base + i, t.submit_start, t.submit_end);
  }
  trace.latency_us.insert(trace.latency_us.end(), b.latency_us.begin(),
                          b.latency_us.end());
}

void put_stages(StageTrace& trace, Figures& layer, std::vector<std::string>& notes) {
  layer["trace.valid"] = {trace.valid ? 1.0 : 0.0, trace.requests};
  if (!trace.valid) {
    notes.push_back("trace INVALID: batch sizes do not map onto requests in "
                    "FIFO order; stage split not reported");
    return;
  }
  const std::array<const char*, 5> names = {"late", "submit", "wait", "exec", "settle"};
  std::ostringstream line;
  line << "stage self times, mean us:";
  double sum = 0.0;
  for (std::size_t k = 0; k < names.size(); ++k) {
    const Summary st = summarize(trace.stage_us[k]);
    if (k > 0) layer[std::string("serve.") + names[k] + "_us"] = {st.p50, st.count};
    line << ' ' << names[k] << '=' << st.mean;
    sum += st.mean;
  }
  line << "; sum " << sum << " vs mean due->ready " << summarize(trace.latency_us).mean;
  notes.push_back(line.str());
}

Tally run_serve(const RunConfig& cfg, const WorkloadSpec& w, const RowPool& pool,
                Figures& e2e, Figures& layer, std::vector<std::string>& notes) {
  Setup setup = set_up(model_file(cfg.inputs_dir), true, e2e, layer, notes);
  notes.push_back("plan: " + setup.plan);
  notes.push_back("peak RSS after set-up: " + std::to_string(peak_rss_mib()) + " MiB");
  const auto order = request_order(cfg.seed, pool.size(), kOrderLength);
  Tally tally;
  std::size_t cursor = 0;
  const auto run_loop = [&](serve::InferenceServer& server, double seconds,
                            bool keep_times) {
    const std::size_t n = requests_for(w.rate, seconds);
    auto r = open_loop(server, pool, order, cursor, n, w.rate, keep_times);
    cursor += n;
    tally.add(r.tally);
    return r;
  };

  // A traced run alternates windows between the set-up server and a second
  // one whose registry holds the timing decorator, so the tracing overhead
  // is a paired comparison.  Untraced figures come from the plain windows.
  const double warm_s = std::min(0.5, 0.1 * cfg.seconds);
  const double window_s =
      (cfg.trace ? kTraceUntracedShare : 1.0) * cfg.seconds / kWindows;
  const std::size_t traced_capacity =
      cfg.trace ? requests_for(w.rate, kWindows * window_s + warm_s) + 16 : 0;
  SpanLog batches(traced_capacity);  // at most one batch per request
  SpanLog requests(2 * traced_capacity);
  std::unique_ptr<serve::InferenceServer> traced;
  if (cfg.trace) {
    traced = std::make_unique<serve::InferenceServer>(serve::ServeOptions{});
    traced->registry().install(
        "default", std::make_shared<TimedPredictor>(setup.predictor, &batches));
  }
  // Warm-up: fills caches and the servers' lazy state; checked, not timed.
  run_loop(*setup.server, warm_s, false);
  if (traced) run_loop(*traced, warm_s, false);
  const serve::ServeMetrics m0 = traced ? traced->metrics() : serve::ServeMetrics{};

  Windows windows;
  std::vector<double> late_us;
  std::vector<double> overhead;
  StageTrace trace;
  double server_cpu_s = 0.0;
  std::uint64_t untraced_requests = 0;
  for (int k = 0; k < kWindows; ++k) {
    const double cpu0 = cpu_seconds(RUSAGE_SELF);
    auto a = run_loop(*setup.server, window_s, false);
    server_cpu_s += cpu_seconds(RUSAGE_SELF) - cpu0 - a.generator_cpu_s;
    untraced_requests += a.tally.attempted;
    late_us.insert(late_us.end(), a.late_us.begin(), a.late_us.end());
    windows.add(a.latency_us, static_cast<double>(a.latency_us.size()) / a.elapsed_s);
    if (traced) {
      const std::size_t first_batch = batches.spans().size();
      auto b = run_loop(*traced, window_s, true);
      attribute_window(b, batches, first_batch, trace, requests);
      overhead.push_back(overhead_pct(windows.p50.back(), summarize(b.latency_us).p50));
    }
  }
  put_latency(e2e, layer, windows, notes);
  const Summary late = summarize(late_us);
  layer["gen.late_us.p50"] = {late.p50, late.count};
  layer["gen.late_us.p99"] = {late.p99, late.count};
  layer["gen.late_us.max"] = {late.max, late.count};
  layer["serve.cpu_us_per_req"] = {
      1e6 * server_cpu_s / static_cast<double>(untraced_requests), untraced_requests};
  notes.push_back("generator lateness (due -> submit): p50 " +
                  std::to_string(late.p50) + " us, p99 " +
                  std::to_string(late.p99) + " us, max " +
                  std::to_string(late.max) + " us over " +
                  std::to_string(late.count) + " requests");
  if (!traced) return tally;

  traced->stop();
  const serve::ServeMetrics m1 = traced->metrics();
  const std::uint64_t d_batches = m1.batches - m0.batches;
  if (d_batches > 0) {
    layer["serve.mean_batch"] = {
        static_cast<double>(m1.samples - m0.samples) / static_cast<double>(d_batches),
        d_batches};
    layer["serve.zero_copy_share"] = {
        static_cast<double>(m1.zero_copy_batches - m0.zero_copy_batches) /
            static_cast<double>(d_batches),
        d_batches};
  }
  layer["serve.server_p50_us"] = {m1.p50_latency_us, m1.requests};
  layer["trace.overhead_pct"] = {median(overhead), overhead.size()};
  put_stages(trace, layer, notes);
  if (!cfg.spans_out.empty()) {
    const std::array<const SpanLog*, 2> logs = {&requests, &batches};
    write_spans_csv(cfg.spans_out, logs,
                    requests.spans().empty() ? 0 : requests.spans().front().start_ns);
  }

  const ExtendedPool ext(pool, kBlockRows);
  const auto probe = layer_probe(*setup.predictor, ext, order,
                                 kTraceProbeShare * cfg.seconds);
  tally.add(probe.tally);
  layer["exec.traverse_ns_per_sample"] = {probe.traverse_ns_per_sample, probe.block_pairs};
  layer["predict.boundary_ns_per_sample"] = {probe.boundary_block_ns, probe.block_pairs};
  layer["exec.one_us.p50"] = {probe.one_us_p50, probe.one_pairs};
  return tally;
}

// ---------------------------------------------------------------------------
// batch-deep and onesample-deep
// ---------------------------------------------------------------------------

Tally run_deep(const RunConfig& cfg, const RowPool& pool, Figures& e2e,
               Figures& layer, std::vector<std::string>& notes) {
  const bool batch = cfg.workload == "batch-deep";
  Setup setup = set_up(model_file(cfg.inputs_dir), false, e2e, layer, notes);
  notes.push_back("plan: " + setup.plan);
  notes.push_back("peak RSS after set-up: " + std::to_string(peak_rss_mib()) + " MiB");
  const Predictor<float>& p = *setup.predictor;
  const auto order = request_order(cfg.seed, pool.size(), kOrderLength);
  const ExtendedPool ext(pool, kBlockRows);
  std::size_t cursor = order.front();  // the seed picks where blocks start
  Tally tally;
  const auto run_loop = [&](double seconds, SpanLog* spans) {
    auto r = batch ? block_loop(p, ext, cursor, seconds, spans)
                   : one_loop(p, pool, order, cursor, seconds, spans);
    tally.add(r.tally);
    return r;
  };
  run_loop(0.3, nullptr);  // warm-up, checked, not timed

  // A traced run alternates untraced and traced windows (paired overhead).
  const double window_s =
      (cfg.trace ? kTraceUntracedShare : 1.0) * cfg.seconds / kWindows;
  SpanLog spans(cfg.trace && !batch ? static_cast<std::size_t>(kWindows * window_s * 60'000)
                                    : 1024);
  const std::int64_t origin = now_ns();
  Windows windows;
  std::vector<double> overhead;
  for (int k = 0; k < kWindows; ++k) {
    auto a = run_loop(window_s, nullptr);
    windows.add(a.latency_us, static_cast<double>(a.samples) / a.elapsed_s);
    if (cfg.trace) {
      auto b = run_loop(window_s, &spans);
      overhead.push_back(overhead_pct(windows.p50.back(), summarize(b.latency_us).p50));
    }
  }
  put_latency(e2e, layer, windows, notes);
  if (!cfg.trace) return tally;

  layer["trace.overhead_pct"] = {median(overhead), overhead.size()};
  layer["trace.valid"] = {1.0, spans.spans().size()};
  if (!cfg.spans_out.empty()) {
    const std::array<const SpanLog*, 1> logs = {&spans};
    write_spans_csv(cfg.spans_out, logs, origin);
  }

  // verify is not on this set-up path; timed once, off the path, so the
  // figure exists for every workload.
  {
    const auto model = flint::model::load_any_model<float>(model_file(cfg.inputs_dir));
    const std::int64_t t0 = now_ns();
    const auto report = flint::verify::verify_model(model);
    layer["verify.verify_ms"] = {ms_between(t0, now_ns()), 1};
    if (!report.ok()) notes.push_back("verify: model FAILED verification");
  }

  const auto probe = layer_probe(p, ext, order, kTraceProbeShare * cfg.seconds);
  tally.add(probe.tally);
  layer["exec.traverse_ns_per_sample"] = {probe.traverse_ns_per_sample, probe.block_pairs};
  layer["predict.boundary_ns_per_sample"] =
      batch ? Figure{probe.boundary_block_ns, probe.block_pairs}
            : Figure{probe.boundary_one_ns, probe.one_pairs};
  layer["exec.one_us.p50"] = {probe.one_us_p50, probe.one_pairs};
  return tally;
}

template <std::size_t N>
std::vector<Metric> emit(const std::array<MetricDef, N>& defs,
                         const Figures& figures, bool require_all) {
  std::vector<Metric> out;
  out.reserve(N);
  for (const auto& d : defs) {
    const auto it = figures.find(d.name);
    if (it == figures.end() && require_all) {
      throw std::logic_error(std::string("end-to-end figure not measured: ") + d.name);
    }
    const Figure f = it == figures.end() ? Figure{} : it->second;
    out.push_back({d.name, f.value, d.unit, f.samples});
  }
  return out;
}

}  // namespace

RunResult run_workload(const RunConfig& cfg) {
  const WorkloadSpec& w = spec_of(cfg.workload);
  if (!(cfg.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  const CpuJiffies jiffies0 = read_cpu_jiffies();
  HostBlock host = calibrate_host();
  reset_peak_rss();
  const RowPool pool = read_pool(cfg.inputs_dir);

  RunResult result;
  Figures e2e;
  Figures layer;
  const Tally tally = w.rate > 0.0
                          ? run_serve(cfg, w, pool, e2e, layer, result.notes)
                          : run_deep(cfg, pool, e2e, layer, result.notes);
  e2e["peak_rss_mib"] = {peak_rss_mib(), 1};
  host.steal_pct = steal_pct(jiffies0, read_cpu_jiffies());
  result.notes.insert(result.notes.begin(), "host: " + to_json(host));

  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.mismatched = tally.mismatched;
  result.correct = tally.mismatched == 0;
  layer["failed_share"] = {static_cast<double>(tally.failed) /
                               static_cast<double>(std::max<std::uint64_t>(1, tally.attempted)),
                           tally.attempted};
  layer["host.pacer_late_us.p99.low"] = {host.pacer_late_low_us.p99, host.pacer_late_low_us.count};
  layer["host.pacer_late_us.p99.high"] = {host.pacer_late_high_us.p99,
                                          host.pacer_late_high_us.count};
  layer["host.steal_pct"] = {host.steal_pct, 1};
  layer["host.thread_scaling"] = {host.thread_scaling, host.nproc};
  layer["host.mem_latency_ns"] = {host.mem_latency_ns, 1};
  layer["host.l2_kib"] = {static_cast<double>(host.l2_bytes) / 1024.0, 1};
  layer["host.llc_kib"] = {static_cast<double>(host.llc_bytes) / 1024.0, 1};

  // Both lists go to the human-readable part; the final line carries one.
  const auto end_to_end = emit(kEndToEnd, e2e, true);
  const auto per_layer = emit(kPerLayer, layer, false);
  for (const auto& list : {end_to_end, per_layer}) {
    for (const Metric& m : list) {
      char line[160];
      std::snprintf(line, sizeof(line), "%-32s %14.6g %-10s (%zu samples)",
                    m.name.c_str(), m.value, m.unit.c_str(), m.samples);
      result.notes.emplace_back(line);
    }
  }
  result.metrics = cfg.trace ? per_layer : end_to_end;
  return result;
}

std::string result_json(const RunResult& r) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    o << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
      << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit
      << "\"}";
  }
  o << "}}";
  return o.str();
}

}  // namespace perfbench
