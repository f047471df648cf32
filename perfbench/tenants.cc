// Workload `tenants`: the wl::StandardTenants family, run open loop on one
// monitor. The steady tenant runs YCSB-B (zipfian) under a quota that fits
// its hot set; the antagonist runs bursty YCSB-A with 50% updates; the
// batch tenant runs YCSB-E scans. K=4 with pipelined writeback, over the
// production store stack ResilientStore -> ReplicatedStore (3 replicas,
// write quorum 2) -> IntegrityStore -> LocalDramStore, nothing injected.
//
// It is the only workload with replication, CRC-32C envelopes, scans that
// feed the prefetcher, quota-driven eviction, and one tenant's writes
// beside another tenant's reads — and kvstore.integrity dominates its wall
// time. Access latency is the steady tenant's (the one whose latency the
// SLO protects), timed from each arrival's due time; fault latency covers
// every tenant's faulting accesses. Reads check their stamp, and the run
// ends with the chaos oracle sweep and invariant check.
#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/harness.h"
#include "chaos/oracle.h"
#include "common.h"
#include "kvstore/decorators.h"
#include "kvstore/integrity.h"
#include "kvstore/local_store.h"
#include "kvstore/resilient.h"
#include "workloads/tenants.h"
#include "workloads/trace.h"
#include "workloads/ycsb.h"

namespace perfbench {

using namespace fluid;

namespace {

// Op-count multiplier of the standard family for the measured trial and
// for a max-rate ladder rung.
constexpr double kScale = 16.0;
constexpr double kLadderScale = 3.0;
constexpr std::size_t kReplicas = 3;
constexpr SimDuration kPumpEvery = 200 * kMicrosecond;
constexpr VirtAddr kTenantBase = 0x6000'0000ULL;
constexpr VirtAddr kTenantStride = 1ULL << 32;

// Open-loop arrivals for one tenant (constant rate or bursts), with every
// gap divided by `rate_factor`.
std::vector<wl::TimedAccess> StampArrivals(
    const std::vector<wl::TraceAccess>& accs, std::uint32_t stream,
    const wl::ArrivalModel& m, double rate_factor) {
  const auto scaled = [&](SimDuration d) {
    return static_cast<SimDuration>(static_cast<double>(d) / rate_factor);
  };
  std::vector<wl::TimedAccess> out;
  out.reserve(accs.size());
  SimTime at = m.start;
  std::size_t in_burst = 0;
  for (const wl::TraceAccess& a : accs) {
    out.push_back(wl::TimedAccess{at, stream, a});
    if (m.burst_len == 0) {
      at += scaled(m.gap);
    } else if (++in_burst >= m.burst_len) {
      in_burst = 0;
      at += scaled(m.idle_between_bursts);
    } else {
      at += scaled(m.burst_gap);
    }
  }
  return out;
}

std::vector<wl::TenantSpec> Specs(const RunSpec& spec) {
  return wl::StandardTenants(3, wl::YcsbMix::kB,
                             spec.ladder ? kLadderScale : kScale);
}

std::vector<wl::TimedAccess> Generate(const std::vector<wl::TenantSpec>& ts,
                                      const RunSpec& spec) {
  std::vector<std::vector<wl::TimedAccess>> streams;
  for (std::size_t t = 0; t < ts.size(); ++t) {
    const std::uint64_t seed =
        spec.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1));
    streams.push_back(StampArrivals(wl::GenerateYcsb(ts[t].workload, seed),
                            static_cast<std::uint32_t>(t), ts[t].arrival,
                            spec.rate_factor));
  }
  return wl::MergeByTimestamp(streams);
}

}  // namespace

// The ladder scales every tenant's rate by the same factor.
double TenantsNominalKops() {
  RunSpec spec;
  spec.ladder = true;
  const std::vector<wl::TimedAccess> merged = Generate(Specs(spec), spec);
  SimTime last = 0;
  for (const wl::TimedAccess& a : merged) last = std::max(last, a.at);
  return static_cast<double>(merged.size()) * 1e6 /
         static_cast<double>(last);
}

Trial RunTenants(const RunSpec& spec, Tracer* tracer, std::string* error) {
  Trial tr;
  const double t_start = WallSeconds();
  const std::vector<wl::TenantSpec> specs = Specs(spec);
  const std::vector<wl::TimedAccess> merged = Generate(specs, spec);
  tr.generate_s = WallSeconds() - t_start;

  std::size_t total_fp = 0, quota_sum = 0;
  for (const wl::TenantSpec& t : specs) {
    total_fp += wl::YcsbFootprintPages(t.workload);
    quota_sum += t.quota_pages;
  }
  const std::size_t lru_capacity = quota_sum + 32;

  Stack s;
  s.pool = std::make_unique<mem::FramePool>(total_fp + lru_capacity + 256);
  std::vector<std::unique_ptr<kv::KvStore>> replicas;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    kv::LocalStoreConfig lc;
    lc.seed = spec.seed * 5 + i;
    auto local = std::make_unique<kv::LocalDramStore>(lc);
    s.base.push_back(local.get());
    replicas.push_back(Timed(
        std::make_unique<kv::IntegrityStore>(
            Timed(std::move(local), tracer, Layer::kLocal)),
        tracer, Layer::kIntegrity));
  }
  kv::ResilientStoreConfig rsc;
  rsc.seed = spec.seed ^ 0x4e511eULL;
  s.store = Timed(
      std::make_unique<kv::ResilientStore>(
          Timed(std::make_unique<kv::ReplicatedStore>(std::move(replicas),
                                                      /*write_quorum=*/2),
                tracer, Layer::kReplicated),
          rsc),
      tracer, Layer::kResilient);
  if (tracer != nullptr) s.top_timed = static_cast<TimedStore*>(s.store.get());

  fm::MonitorConfig mc;
  mc.lru_capacity_pages = lru_capacity;
  mc.write_batch_pages = 16;
  mc.fault_shards = 4;
  mc.uffd_read_batch = 8;
  mc.pipelined_writeback = true;
  UseSharedPrefetch(mc);
  mc.seed = spec.seed ^ 0xc0ffeeULL;
  s.BuildMonitor(mc, tracer);

  struct TenantState {
    VirtAddr base = 0;
    chaos::ShadowMemory shadow;
    std::vector<std::uint64_t> generation;
  };
  std::vector<TenantState> ts(specs.size());
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const std::size_t fp = wl::YcsbFootprintPages(specs[t].workload);
    ts[t].base = kTenantBase + t * kTenantStride;
    ts[t].generation.assign(fp, 0);
    s.AddRegion(ts[t].base, fp, specs[t].quota_pages);
  }
  // Warm-up: each tenant reads its initial records once, coldest first,
  // so the pages its quota keeps are its zipfian-hottest and the measured
  // phase starts from warm caches instead of a cold-start transient.
  Rng cpu(spec.seed ^ 0xc9aULL);
  SimTime now = 0;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    for (std::size_t p = specs[t].workload.records; p-- > 0;) {
      const AccessStep st =
          TouchPage(s, t, ts[t].base + p * kPageSize, false, now, cpu, nullptr);
      if (!st.resident) {
        *error = "tenants warm-up failed";
        return tr;
      }
      now = st.t;
    }
  }
  now = s.monitor->DrainWrites(now);
  const SimTime start = now;
  tr.setup_s = WallSeconds() - t_start;

  // --- measured phase: the merged open-loop replay ---------------------------
  const double t_measure = WallSeconds();
  const Counters before = BeginMeasure(s, tracer);
  SimTime next_pump = start + kPumpEvery;
  std::uint64_t hits = 0;
  std::uint64_t fp = 0x243f6a8885a308d3ULL;
  std::vector<SimDuration> lag;
  lag.reserve(merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const wl::TimedAccess& a = merged[i];
    const SimTime due = start + a.at;
    while (next_pump <= due) {
      Scope sc(tracer, Layer::kPump);
      s.monitor->PumpBackground(std::max(now, next_pump));
      next_pump += kPumpEvery;
    }
    if (tracer != nullptr) tracer->SetAccess(i);
    TenantState& t = ts[a.stream];
    const std::size_t page = a.access.page;
    const VirtAddr addr = t.base + page * kPageSize;
    const AccessStep st = TouchPage(s, a.stream, addr, a.access.is_write,
                                    std::max(now, due), cpu, tracer);
    ++tr.attempted;
    hits += st.hit;
    now = st.t;
    if (!st.resident) {
      ++tr.blocked;
    } else if (a.access.is_write) {
      const std::uint64_t stamp = Stamp(page, ++t.generation[page]);
      if (!WriteStamp(s, a.stream, addr, stamp, tracer)) {
        ++tr.blocked;
      } else {
        std::array<std::byte, 8> buf;
        std::memcpy(buf.data(), &stamp, 8);
        t.shadow.Write(addr, buf);
      }
    } else {
      std::uint64_t got = 0;
      if (!ReadStamp(s, a.stream, addr, &got, tracer) ||
          got != Stamp(page, t.generation[page]))
        ++tr.wrong_bytes;
    }
    const SimDuration latency = now - due;
    lag.push_back(latency);
    if (specs[a.stream].role == wl::TenantRole::kSteady)
      tr.access_ns.push_back(latency);
    if (st.faulted) tr.fault_ns.push_back(st.wake - st.raised);
    Mix(fp, (std::uint64_t{a.stream} << 40) | (page << 2) |
                (a.access.is_write << 1) | st.faulted);
    Mix(fp, latency);
  }
  tr.span_ns = now - (start + merged.front().at);
  // Quiesce: drain, let the background settle, drain again.
  {
    Scope sc(tracer, Layer::kDrain);
    now = s.monitor->DrainWrites(now);
  }
  for (int round = 0; round < 8; ++round) {
    Scope sc(tracer, Layer::kPump);
    s.monitor->PumpBackground(now);
    now += 50 * kMicrosecond;
  }
  {
    Scope sc(tracer, Layer::kDrain);
    now = s.monitor->DrainWrites(now);
  }
  EndMeasure(s, tracer, before, hits, &tr);
  tr.measure_s = WallSeconds() - t_measure;
  tr.remote_bytes_per_page = RemoteBytesPerPage(s);
  Mix(fp, tr.fault_ns.size());
  tr.fingerprint = fp;
  SplitLag(lag, &tr);
  if (spec.ladder) return tr;

  // --- oracle sweep ------------------------------------------------------------
  const double t_verify = WallSeconds();
  if (auto violation = CheckStackInvariants(s)) {
    *error = "tenants invariant violation: " + *violation;
    return tr;
  }
  for (std::size_t t = 0; t < ts.size(); ++t) {
    if (auto bad = chaos::VerifyRegionAgainstShadow(
            *s.monitor, *s.regions[t], s.rids[t], *s.store, *s.pool,
            ts[t].shadow, now)) {
      *error = "tenant " + specs[t].name + ": " + *bad;
      return tr;
    }
    tr.pages_verified += ts[t].shadow.TouchedPages();
  }
  tr.verify_s = WallSeconds() - t_verify;
  return tr;
}

}  // namespace perfbench
