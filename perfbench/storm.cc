// Workload `storm`: several VM regions over RAMCloud served by K=8 handler
// shards with batched uffd dequeue and RAMCloud service lanes (the
// scale_monitor stack). Populate dirties every page, round-robin across
// regions, which sends half of them remote. Then every remote page
// refaults once, in seeded random order at seeded Poisson times: each
// fault is queued with UffdRegion::QueueEvent at its due time and drained
// with FaultEngine::PumpQueuedFaults in short virtual-time windows,
// interleaved across regions.
//
// Parallel handlers, group MultiGets, the io window, work stealing and the
// background evictors carry this load; pmbench (K=1) and tenants (one
// serialized composer) barely touch them. Refaults are reads, but every
// one evicts a dirty victim. The fault set is fixed by the seed and the
// benchmark asserts it is identical on every trial. Each installed page is
// byte-checked against its populate stamp.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common.h"
#include "kvstore/ramcloud.h"

namespace perfbench {

using namespace fluid;

namespace {

constexpr std::size_t kRegions = 4;
constexpr std::size_t kPagesPerRegion = 8192;
constexpr std::size_t kShards = 8;
constexpr VirtAddr kBase = 0x7f00'0000'0000ULL;
constexpr VirtAddr kRegionStride = 1ULL << 32;
// Drain window: events due within one window are queued, then pumped.
constexpr SimDuration kWindow = 10 * kMicrosecond;
// Nominal refault arrival rate; the ladder scales it.
constexpr double kNominalKops = 100.0;

struct Refault {
  SimTime due = 0;
  std::uint32_t region = 0;
  std::uint32_t page = 0;
};

VirtAddr AddrOf(std::size_t region, std::size_t page) {
  return kBase + region * kRegionStride + page * kPageSize;
}

}  // namespace

double StormNominalKops() { return kNominalKops; }

Trial RunStorm(const RunSpec& spec, Tracer* tracer, std::string* error) {
  Trial tr;
  const double t_start = WallSeconds();
  constexpr std::size_t kPages = kRegions * kPagesPerRegion;

  Stack s;
  s.pool = std::make_unique<mem::FramePool>(kPages / 2 + 4096);
  kv::RamcloudConfig rc{.memory_cap_bytes = 4 * kPages * kPageSize,
                        .service_lanes = 8,
                        .seed = spec.seed ^ 0x2c10dULL};
  auto ramcloud = std::make_unique<kv::RamcloudStore>(rc);
  s.base.push_back(ramcloud.get());
  s.store = Timed(std::move(ramcloud), tracer, Layer::kRamcloud);
  if (tracer != nullptr) s.top_timed = static_cast<TimedStore*>(s.store.get());
  fm::MonitorConfig mc;
  mc.lru_capacity_pages = kPages / 2;
  mc.write_batch_pages = 32;
  mc.fault_shards = kShards;
  mc.uffd_read_batch = 2 * kShards;
  mc.io_window = kShards;
  mc.pipelined_writeback = true;
  UseSharedPrefetch(mc);
  mc.seed = spec.seed ^ 0xc0ffeeULL;
  s.BuildMonitor(mc, tracer);
  for (std::size_t r = 0; r < kRegions; ++r)
    s.AddRegion(kBase + r * kRegionStride, kPagesPerRegion, 0);

  // Populate: dirty every page, round-robin across regions.
  Rng cpu(spec.seed ^ 0xc9aULL);
  SimTime now = kMillisecond;
  for (std::size_t p = 0; p < kPagesPerRegion; ++p) {
    for (std::size_t r = 0; r < kRegions; ++r) {
      const VirtAddr addr = AddrOf(r, p);
      const AccessStep st = TouchPage(s, r, addr, true, now, cpu, nullptr);
      if (!st.resident || !WriteStamp(s, r, addr, Stamp(p, 1 + r), nullptr)) {
        *error = "storm populate failed";
        return tr;
      }
      now = st.t;
    }
  }
  now = s.monitor->DrainWrites(now);

  // The refault set: every page populate sent remote, in seeded random
  // order, at seeded Poisson arrival times.
  const double t_generate = WallSeconds();
  std::vector<Refault> refaults;
  for (std::size_t r = 0; r < kRegions; ++r)
    for (std::size_t p = 0; p < kPagesPerRegion; ++p)
      if (!s.regions[r]->IsPresent(AddrOf(r, p)))
        refaults.push_back(Refault{0, static_cast<std::uint32_t>(r),
                                   static_cast<std::uint32_t>(p)});
  Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 0x5707ULL);
  for (std::size_t i = refaults.size(); i > 1; --i)
    std::swap(refaults[i - 1], refaults[rng.NextBounded(i)]);
  const double mean_gap_ns = 1e6 / (kNominalKops * spec.rate_factor);
  const SimTime start = now;
  double at = static_cast<double>(start);
  for (Refault& f : refaults) {
    at += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
    f.due = static_cast<SimTime>(at);
  }
  tr.generate_s = WallSeconds() - t_generate;
  tr.setup_s = WallSeconds() - t_start;

  // --- measured phase ----------------------------------------------------------
  const double t_measure = WallSeconds();
  const Counters before = BeginMeasure(s, tracer);
  std::uint64_t hits = 0;
  std::uint64_t fp = 0x243f6a8885a308d3ULL;
  std::vector<SimDuration> lag(refaults.size());
  std::vector<std::vector<std::size_t>> queued(kRegions);
  SimTime last_done = start;
  std::size_t next = 0;
  while (next < refaults.size()) {
    const SimTime window_start = refaults[next].due;
    const SimTime window_end = window_start + kWindow;
    for (auto& q : queued) q.clear();
    // Queue every refault due in this window on its region's uffd.
    for (; next < refaults.size() && refaults[next].due < window_end; ++next) {
      const Refault& f = refaults[next];
      if (tracer != nullptr) tracer->SetAccess(next);
      const VirtAddr addr = AddrOf(f.region, f.page);
      mem::AccessResult a;
      {
        Scope sc(tracer, Layer::kMem);
        a = s.regions[f.region]->Access(addr, false);
      }
      ++tr.attempted;
      if (a.kind == mem::AccessKind::kUffdFault) {
        s.regions[f.region]->QueueEvent(a.event, f.due);
        queued[f.region].push_back(next);
        continue;
      }
      // Already resident (prefetched): a plain hit.
      ++hits;
      lag[next] = s.costs.hit.Sample(cpu);
      std::uint64_t got = 0;
      if (!ReadStamp(s, f.region, addr, &got, tracer) ||
          got != Stamp(f.page, 1 + f.region))
        ++tr.wrong_bytes;
      last_done = std::max(last_done, f.due + lag[next]);
      Mix(fp, (std::uint64_t{f.region} << 32) | f.page);
    }
    // Drain each region's queue, interleaving regions within the window.
    for (std::size_t r = 0; r < kRegions; ++r) {
      if (queued[r].empty()) continue;
      std::vector<fm::FaultOutcome> outs;
      {
        Scope sc(tracer, Layer::kFault);
        outs = s.monitor->fault_engine().PumpQueuedFaults(s.rids[r],
                                                          window_start);
      }
      for (std::size_t k = 0; k < outs.size(); ++k) {
        const std::size_t i = queued[r][k];
        const Refault& f = refaults[i];
        const VirtAddr addr = AddrOf(f.region, f.page);
        if (!outs[k].status.ok()) {
          ++tr.blocked;
          lag[i] = outs[k].wake_at - f.due;
          continue;
        }
        mem::AccessResult again;
        {
          Scope sc(tracer, Layer::kMem);
          again = s.regions[r]->Access(addr, false);
        }
        std::uint64_t got = 0;
        if (again.kind == mem::AccessKind::kUffdFault ||
            !ReadStamp(s, r, addr, &got, tracer) ||
            got != Stamp(f.page, 1 + r))
          ++tr.wrong_bytes;
        tr.fault_ns.push_back(outs[k].wake_at - f.due);
        lag[i] = outs[k].wake_at + s.costs.hit.Sample(cpu) - f.due;
        last_done = std::max(last_done, f.due + lag[i]);
        Mix(fp, (std::uint64_t{1} << 63) | (std::uint64_t{f.region} << 32) |
                    f.page);
        Mix(fp, tr.fault_ns.back());
      }
    }
  }
  tr.access_ns = lag;
  tr.span_ns = last_done - start;
  {
    Scope sc(tracer, Layer::kDrain);
    now = s.monitor->DrainWrites(last_done);
  }
  EndMeasure(s, tracer, before, hits, &tr);
  tr.measure_s = WallSeconds() - t_measure;
  tr.remote_bytes_per_page = RemoteBytesPerPage(s);
  for (const SimDuration l : lag) Mix(fp, l);
  tr.fingerprint = fp;
  SplitLag(lag, &tr);
  tr.pages_verified = tr.fault_ns.size();
  if (spec.ladder) return tr;

  // --- final check: the stack's invariants after the drain -------------------
  const double t_verify = WallSeconds();
  if (auto violation = CheckStackInvariants(s)) {
    *error = "storm invariant violation: " + *violation;
    return tr;
  }
  tr.verify_s = WallSeconds() - t_verify;
  return tr;
}

}  // namespace perfbench
