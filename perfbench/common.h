// Shared pieces of the benchmark's three workloads: the stack every
// workload builds, the guest-access step, exact latency quantiles, the
// equal-work fingerprint, and the per-layer report of a traced trial.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fluidmem/fault_engine.h"
#include "fluidmem/monitor.h"
#include "kvstore/kvstore.h"
#include "mem/frame_pool.h"
#include "mem/uffd.h"
#include "obs/span.h"
#include "trace.h"

namespace perfbench {

using fluid::SimDuration;
using fluid::SimTime;
using fluid::VirtAddr;

// Prefetch policy shared by every workload: the Leap majority vote with
// the same depth and accuracy gate everywhere, so each workload consults
// the prefetcher and any difference comes from its access pattern.
inline void UseSharedPrefetch(fluid::fm::MonitorConfig& mc) {
  mc.prefetch_depth = 4;
  mc.prefetch.mode = fluid::fm::PrefetchMode::kMajority;
  mc.prefetch.accuracy_floor_pct = 40;
}

// What one run of a workload is asked to do.
struct RunSpec {
  std::uint64_t seed = 1;
  // A max-rate ladder rung: open loop at `rate_factor` x the workload's
  // nominal arrival rate (pmbench replays its closed-loop stream with
  // Poisson arrivals), a shorter measured phase for pmbench and tenants,
  // and no oracle sweep beyond the per-access checks.
  bool ladder = false;
  double rate_factor = 1.0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using LayerMetrics = std::vector<Metric>;

// Everything one trial measured. Virtual-time fields are a pure function
// of (workload, spec); wall-clock fields vary run to run.
struct Trial {
  // --- work identity (asserted equal across trials of one seed) ---------
  std::uint64_t attempted = 0;    // guest accesses issued
  std::uint64_t blocked = 0;      // stayed inaccessible after retries
  std::uint64_t wrong_bytes = 0;  // reads that returned the wrong stamp
  std::uint64_t fingerprint = 0;  // fault set + every latency sample

  // --- virtual clock ------------------------------------------------------
  std::vector<SimDuration> access_ns;  // latency of the protected stream
  std::vector<SimDuration> fault_ns;   // faulting accesses: raise -> wake
  SimDuration span_ns = 0;  // first arrival (or issue) to last completion
  // Open loop: mean completion lag behind arrival, first/second half.
  double lag_first_ns = 0;
  double lag_second_ns = 0;
  double remote_bytes_per_page = 0;

  // --- wall clock ---------------------------------------------------------
  double generate_s = 0;  // trace generation
  double setup_s = 0;     // generation + stack construction + populate
  double measure_s = 0;   // measured phase (includes the final drain)
  double verify_s = 0;    // oracle sweep, excluded from every e2e metric
  std::uint64_t pages_verified = 0;

  LayerMetrics layers;  // traced trials only
};

// The stack a workload drives. Member order is destruction order in
// reverse: the monitor goes first, then the regions return their frames
// to the pool, then observability, the store and the pool.
struct Stack {
  std::unique_ptr<fluid::mem::FramePool> pool;
  std::unique_ptr<fluid::kv::KvStore> store;     // top of the store stack
  std::vector<const fluid::kv::KvStore*> base;   // innermost stores
  TimedStore* top_timed = nullptr;               // traced run only
  std::unique_ptr<fluid::obs::Observability> obs;  // traced run only
  std::vector<std::unique_ptr<fluid::mem::UffdRegion>> regions;
  std::unique_ptr<fluid::fm::Monitor> monitor;
  std::vector<fluid::fm::RegionId> rids;
  fluid::fm::MonitorCostModel costs;  // vCPU-side touch costs

  // Builds the monitor over `store`, attaching observability when traced.
  void BuildMonitor(const fluid::fm::MonitorConfig& mc, Tracer* tracer);
  // Registers one region of `pages` pages at `base` (partition = index+1).
  void AddRegion(VirtAddr base, std::size_t pages, std::size_t quota_pages);
};

// Result of driving one guest access until its page is resident.
struct AccessStep {
  SimTime t = 0;          // when the vCPU may touch the page
  SimTime raised = 0;     // first fault raise (valid if faulted)
  SimTime wake = 0;       // page resident (last fault's wake, if any)
  bool faulted = false;
  bool hit = false;       // resident on the first touch
  bool resident = false;  // false = blocked after bounded retries
};

// Touches `addr` in region `r` at `t` the way a vCPU does: a uffd fault is
// handed to Monitor::HandleFault and the access re-issued after wake, with
// a bounded retry on failure. Adds the CPU cost of the completed touch
// (hit or in-kernel zero-page upgrade) from the monitor's cost model.
AccessStep TouchPage(Stack& s, std::size_t r, VirtAddr addr, bool is_write,
                     SimTime t, fluid::Rng& cpu_rng, Tracer* tracer);

// Stamp written by the benchmark for (page, generation); 0 = never written.
std::uint64_t Stamp(std::uint64_t page, std::uint64_t generation) noexcept;

// Writes/reads the 8-byte stamp at the start of the page.
bool WriteStamp(Stack& s, std::size_t r, VirtAddr addr, std::uint64_t stamp,
                Tracer* tracer);
bool ReadStamp(Stack& s, std::size_t r, VirtAddr addr, std::uint64_t* out,
               Tracer* tracer);

inline void Mix(std::uint64_t& h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

// Exact nearest-rank quantile of `sorted` (ascending, non-empty).
SimDuration QuantileOf(const std::vector<SimDuration>& sorted, double q);

// Sets the trial's mean completion lag of the first and second half of
// `lag` (per access, arrival order): the open-loop backlog test.
void SplitLag(const std::vector<SimDuration>& lag, Trial* t);

// Cumulative monitor counters, snapshotted at the start of the measured
// phase so the per-layer report covers that phase only.
struct Counters {
  fluid::fm::MonitorStats monitor;
  fluid::fm::EngineShardStats engine;
  fluid::fm::PrefetcherStats prefetch;
  std::uint64_t base_writes = 0;  // objects written to the innermost stores
  fluid::kv::StoreStats store;    // top of the stack (resilience counters)
};
Counters Snapshot(const Stack& s);

// Bytes held by the innermost stores per guest page tracked remote.
double RemoteBytesPerPage(const Stack& s);

// Starts the measured phase: arms the tracer and the obs stage totals
// (traced trials) and snapshots the counters the report diffs against.
Counters BeginMeasure(Stack& s, Tracer* tracer);
// Ends it. A traced trial disarms and gets its per-layer metrics, with
// wall self times normalised per attempted access; `hits` counts accesses
// whose page was resident on the first touch.
void EndMeasure(Stack& s, Tracer* tracer, const Counters& before,
                std::uint64_t hits, Trial* tr);

// chaos::CheckInvariants over every region of the stack.
std::optional<std::string> CheckStackInvariants(const Stack& s);

double WallSeconds();

// Workload entry points. Each builds a fresh stack, runs its measured
// phase (traced when `tracer` is non-null), verifies every byte it can,
// and returns the trial. A non-empty `*error` means a data check failed.
Trial RunPmbench(const RunSpec& spec, Tracer* tracer, std::string* error);
Trial RunTenants(const RunSpec& spec, Tracer* tracer, std::string* error);
Trial RunStorm(const RunSpec& spec, Tracer* tracer, std::string* error);

// Each workload's open-loop arrival rate at rate_factor 1, in k arrivals
// per virtual second (the max-rate ladder scales it).
double PmbenchNominalKops();
double TenantsNominalKops();
double StormNominalKops();

}  // namespace perfbench
