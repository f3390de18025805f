#include "host.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "exec/layout/plan.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

Summary pacer_alone(double rate, double seconds) {
  const auto n = static_cast<std::size_t>(rate * seconds);
  const double interval_ns = 1e9 / rate;
  tighten_timer_slack();
  std::vector<double> late_us;
  late_us.reserve(n);
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = start + static_cast<std::int64_t>(i * interval_ns);
    wait_until_ns(due);
    late_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
  }
  return summarize(late_us);
}

/// Spin iterations `threads` threads complete together in `seconds`.
double spin_work(unsigned threads, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sink{0};  // keeps the spin arithmetic live
  std::vector<std::uint64_t> counts(threads, 0);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&stop, &sink, &counts, t] {
      std::uint64_t local = 0;
      std::uint64_t rounds = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 1024; ++k) {
          local += static_cast<std::uint64_t>(k) ^ (local >> 3);
        }
        ++rounds;
      }
      sink.fetch_add(local, std::memory_order_relaxed);
      counts[t] = rounds;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& th : pool) th.join();
  double total = 0.0;
  for (const auto c : counts) total += static_cast<double>(c);
  return total;
}

/// Mean time per step of a dependent random walk through `bytes` of memory,
/// one cache line per step.
double memory_latency_ns(std::size_t bytes, std::size_t steps) {
  struct alignas(64) Line {
    std::uint32_t next = 0;
  };
  const std::size_t lines = bytes / sizeof(Line);
  std::vector<Line> buf(lines);
  // Link the lines in a shuffled order into one cycle, so every step is a
  // dependent load the prefetchers cannot predict.
  std::vector<std::uint32_t> order(lines);
  for (std::size_t i = 0; i < lines; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::mt19937_64 rng(42);
  for (std::size_t i = lines - 1; i > 0; --i) std::swap(order[i], order[rng() % (i + 1)]);
  for (std::size_t i = 0; i < lines; ++i) buf[order[i]].next = order[(i + 1) % lines];
  std::uint32_t at = 0;
  const std::int64_t start = now_ns();
  for (std::size_t s = 0; s < steps; ++s) at = buf[at].next;
  const std::int64_t elapsed = now_ns() - start;
  volatile std::uint32_t sink = at;  // keeps the walk
  (void)sink;
  return static_cast<double>(elapsed) / static_cast<double>(steps);
}

}  // namespace

void wait_until_ns(std::int64_t due_ns) noexcept {
  const std::int64_t ahead = due_ns - now_ns();
  if (ahead > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ahead));
}

void tighten_timer_slack() noexcept { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

CpuJiffies read_cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuJiffies j;
  if (!(in >> label) || label != "cpu") return j;
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already counted in user/nice, so the sum stops at steal.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuJiffies{};
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

double steal_pct(const CpuJiffies& before, const CpuJiffies& after) noexcept {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

HostBlock calibrate_host() {
  HostBlock h;
  h.pacer_late_low_us = pacer_alone(2000.0, 0.25);
  h.pacer_late_high_us = pacer_alone(20000.0, 0.25);
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  const double one = spin_work(1, 0.1);
  const double all = spin_work(h.nproc, 0.1);
  h.thread_scaling = one > 0.0 ? all / one : 0.0;
  h.mem_latency_ns = memory_latency_ns(std::size_t{32} << 20, 1'000'000);
  const auto cache = flint::exec::layout::detect_cache_info();
  h.l2_bytes = cache.l2_bytes;
  h.llc_bytes = cache.llc_bytes;
  return h;
}

std::string to_json(const HostBlock& h) {
  std::ostringstream o;
  o.precision(6);
  const auto late = [&o](const char* key, const Summary& s) {
    o << '"' << key << "\": {\"p50_us\": " << s.p50 << ", \"p99_us\": " << s.p99
      << ", \"max_us\": " << s.max << ", \"samples\": " << s.count << "}, ";
  };
  o << '{';
  late("pacer_alone_2000_per_s", h.pacer_late_low_us);
  late("pacer_alone_20000_per_s", h.pacer_late_high_us);
  o << "\"nproc\": " << h.nproc << ", \"thread_scaling_1_to_nproc\": "
    << h.thread_scaling << ", \"mem_latency_ns\": " << h.mem_latency_ns
    << ", \"l2_bytes\": " << h.l2_bytes
    << ", \"llc_bytes\": " << h.llc_bytes << ", \"steal_pct\": " << h.steal_pct
    << '}';
  return o.str();
}

}  // namespace perfbench
