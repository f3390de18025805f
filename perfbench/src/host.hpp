// perfbench/host — the open-loop pacer and the host calibration block.
//
// Every run writes a host block so that a noisy or flat figure reads as
// host-limited rather than as a defect: how late a pacer that does nothing
// else runs at both serve rates, the steal time the hypervisor took during
// the run, how raw spinning threads scale from 1 to nproc, the latency of a
// random walk through memory (neighbours' cache pressure moves it), and the
// cache sizes the layout tuner sees.
#pragma once

#include <cstdint>
#include <string>

#include "stats.hpp"

namespace perfbench {

/// Sleeps until `due_ns` (steady clock).  The pacer sleeps rather than
/// spins: on a host whose vCPUs do not scale, a spinning pacer takes the CPU
/// the server needs.  How late it wakes is measured, not assumed.
void wait_until_ns(std::int64_t due_ns) noexcept;

/// Drops the calling thread's timer slack to 1 ns (default 50 us), so its
/// sleeps end as close to their deadline as the host allows.
void tighten_timer_slack() noexcept;

/// Aggregate CPU time counters from /proc/stat (jiffies).
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

/// Reads the "cpu" line of /proc/stat; zeros when unavailable.
[[nodiscard]] CpuJiffies read_cpu_jiffies();

/// Steal time between two readings, in percent of all CPU time.
[[nodiscard]] double steal_pct(const CpuJiffies& before,
                               const CpuJiffies& after) noexcept;

struct HostBlock {
  Summary pacer_late_low_us;   ///< pacer alone at 2,000 req/s
  Summary pacer_late_high_us;  ///< pacer alone at 20,000 req/s
  unsigned nproc = 0;
  double thread_scaling = 0.0;  ///< spin work of nproc threads / 1 thread
  double mem_latency_ns = 0.0;  ///< per step of a random walk over 32 MiB
  std::uint64_t l2_bytes = 0;
  std::uint64_t llc_bytes = 0;
  double steal_pct = 0.0;  ///< over the whole run, filled in at its end
};

/// Measures everything but steal_pct (about one second).
[[nodiscard]] HostBlock calibrate_host();

/// One JSON object.
[[nodiscard]] std::string to_json(const HostBlock& host);

}  // namespace perfbench
