#include "common.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>

#include "chaos/invariants.h"
#include "fluidmem/page_state.h"

namespace perfbench {

using namespace fluid;

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Stack::BuildMonitor(const fm::MonitorConfig& mc, Tracer* tracer) {
  costs = mc.costs;
  // Only the aggregate stage totals are read, so the retained span ring
  // and flight recorder are kept minimal.
  if (tracer != nullptr)
    obs = std::make_unique<obs::Observability>(/*span_capacity=*/1,
                                               /*recorder_capacity=*/16);
  monitor = std::make_unique<fm::Monitor>(mc, *store, *pool);
  if (obs != nullptr) monitor->AttachObservability(*obs);
}

void Stack::AddRegion(VirtAddr base, std::size_t pages,
                      std::size_t quota_pages) {
  const std::size_t i = regions.size();
  regions.push_back(std::make_unique<mem::UffdRegion>(
      static_cast<ProcessId>(100 + i), base, pages, *pool));
  rids.push_back(monitor->RegisterRegion(
      *regions.back(), static_cast<PartitionId>(i + 1), quota_pages));
}

AccessStep TouchPage(Stack& s, std::size_t r, VirtAddr addr, bool is_write,
                     SimTime t, Rng& cpu_rng, Tracer* tracer) {
  AccessStep st;
  st.t = t;
  mem::UffdRegion& region = *s.regions[r];
  const fm::RegionId rid = s.rids[r];
  // Bounded retry, as a guest would: back off after a failed fault and
  // re-issue (the tenant composer's policy).
  for (int attempt = 0; attempt <= 4; ++attempt) {
    mem::AccessResult a;
    {
      Scope sc(tracer, Layer::kMem);
      a = region.Access(addr, is_write);
    }
    if (a.kind == mem::AccessKind::kHit) {
      {
        Scope sc(tracer, Layer::kFault);
        s.monitor->NotePageTouch(rid, addr);
      }
      st.hit = attempt == 0;
      st.wake = st.t;
      st.t += s.costs.hit.Sample(cpu_rng);
      st.resident = true;
      return st;
    }
    if (a.kind == mem::AccessKind::kMinorZero) {
      st.wake = st.t;
      st.t += s.costs.minor_zero_fault.Sample(cpu_rng);
      st.resident = true;
      return st;
    }
    if (attempt == 4) break;
    if (!st.faulted) {
      st.faulted = true;
      st.raised = st.t;
    }
    fm::FaultOutcome o;
    {
      Scope sc(tracer, Layer::kFault);
      o = s.monitor->HandleFault(rid, addr, st.t);
    }
    st.t = std::max(st.t, o.wake_at);
    if (o.deadlocked) break;
    if (!o.status.ok()) st.t += 100 * kMicrosecond;
  }
  return st;
}

std::uint64_t Stamp(std::uint64_t page, std::uint64_t generation) noexcept {
  if (generation == 0) return 0;
  std::uint64_t x = page * 0x9e3779b97f4a7c15ULL +
                    generation * 0x165667b19e3779f9ULL;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  return x | 1;  // never 0, the never-written value
}

bool WriteStamp(Stack& s, std::size_t r, VirtAddr addr, std::uint64_t stamp,
                Tracer* tracer) {
  std::array<std::byte, 8> buf;
  std::memcpy(buf.data(), &stamp, 8);
  Scope sc(tracer, Layer::kMem);
  return s.regions[r]->WriteBytes(addr, buf).ok();
}

bool ReadStamp(Stack& s, std::size_t r, VirtAddr addr, std::uint64_t* out,
               Tracer* tracer) {
  std::array<std::byte, 8> buf;
  Scope sc(tracer, Layer::kMem);
  if (!s.regions[r]->ReadBytes(addr, buf).ok()) return false;
  std::memcpy(out, buf.data(), 8);
  return true;
}

SimDuration QuantileOf(const std::vector<SimDuration>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

void SplitLag(const std::vector<SimDuration>& lag, Trial* t) {
  const std::size_t half = lag.size() / 2;
  double first = 0, second = 0;
  for (std::size_t i = 0; i < lag.size(); ++i)
    (i < half ? first : second) += static_cast<double>(lag[i]);
  t->lag_first_ns = half ? first / static_cast<double>(half) : 0.0;
  t->lag_second_ns = lag.size() > half
                         ? second / static_cast<double>(lag.size() - half)
                         : 0.0;
}

Counters Snapshot(const Stack& s) {
  Counters c;
  c.monitor = s.monitor->stats();
  c.engine = s.monitor->fault_engine().TotalStats();
  c.prefetch = s.monitor->prefetcher().stats();
  for (const kv::KvStore* b : s.base)
    c.base_writes += b->stats().puts + b->stats().multi_write_objects;
  c.store = s.store->stats();
  return c;
}

double RemoteBytesPerPage(const Stack& s) {
  std::size_t bytes = 0;
  for (const kv::KvStore* b : s.base) bytes += b->BytesStored();
  const std::size_t remote =
      s.monitor->tracker().CountIn(fm::PageLocation::kRemote);
  return remote == 0 ? 0.0
                     : static_cast<double>(bytes) / static_cast<double>(remote);
}

Counters BeginMeasure(Stack& s, Tracer* tracer) {
  if (tracer != nullptr) {
    tracer->Arm(true);
    s.obs->Enable();
  }
  return Snapshot(s);
}

std::optional<std::string> CheckStackInvariants(const Stack& s) {
  chaos::StackView view;
  view.monitor = s.monitor.get();
  view.pool = s.pool.get();
  view.store = s.store.get();
  for (std::size_t r = 0; r < s.regions.size(); ++r)
    view.regions.push_back({s.rids[r], s.regions[r].get()});
  return chaos::CheckInvariants(view);
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Per-layer metrics of a traced trial's measured phase; wall self times are
// normalised per `accesses`.
LayerMetrics LayerReport(const Stack& s, const Tracer& tracer,
                         const Counters& before, std::uint64_t accesses,
                         std::uint64_t hits) {
  const Counters now = Snapshot(s);
  const fm::MonitorStats& m = now.monitor;
  const fm::MonitorStats& m0 = before.monitor;
  const fm::EngineShardStats& e = now.engine;
  const fm::EngineShardStats& e0 = before.engine;
  const fm::PrefetcherStats& p = now.prefetch;
  const fm::PrefetcherStats& p0 = before.prefetch;
  const obs::Observability& o = *s.obs;
  const double n = static_cast<double>(accesses);

  LayerMetrics out;
  const auto add = [&](std::string name, double value, const char* unit) {
    out.push_back(Metric{std::move(name), value, unit});
  };
  const auto count = [&](std::string name, std::uint64_t now_v,
                         std::uint64_t before_v) {
    add(std::move(name), static_cast<double>(now_v - before_v), "count");
  };
  // Wall-clock self time per measured access.
  const auto self_ns = [&](std::string name, Layer l) {
    add(std::move(name),
        Ratio(static_cast<double>(tracer.totals(l).self_ns), n), "ns");
  };
  // Virtual time per item of a pipeline stage, in us.
  const auto pipe_us = [&](std::string name, obs::PipeStage st) {
    add(std::move(name),
        Ratio(static_cast<double>(o.PipelineTotalNs(st)),
              static_cast<double>(o.PipelineCount(st))) /
            1000.0,
        "us");
  };

  add("mem.hit_ratio", Ratio(static_cast<double>(hits), n), "fraction");
  self_ns("mem.access_wall_ns", Layer::kMem);

  count("fluidmem.faults", m.faults, m0.faults);
  count("fluidmem.refaults", m.refaults, m0.refaults);
  count("fluidmem.steals", m.steals, m0.steals);
  count("fluidmem.first_access", m.first_access_faults,
        m0.first_access_faults);
  const double ok_spans =
      static_cast<double>(o.spans_finished() - o.spans_failed());
  for (const obs::Stage st :
       {obs::Stage::kDispatch, obs::Stage::kClassify, obs::Stage::kRemoteRead,
        obs::Stage::kEviction, obs::Stage::kWriteback, obs::Stage::kInstall,
        obs::Stage::kWake, obs::Stage::kQueueWait, obs::Stage::kLockWait}) {
    add("fluidmem.stage." + std::string(obs::StageName(st)) + "_us",
        Ratio(static_cast<double>(o.StageTotalNs(st)), ok_spans) / 1000.0,
        "us");
  }
  self_ns("fluidmem.self_wall_ns", Layer::kFault);
  count("fluidmem.pump_calls", tracer.totals(Layer::kPump).calls, 0);
  self_ns("fluidmem.pump_wall_ns", Layer::kPump);
  add("fluidmem.drain_wall_ms",
      static_cast<double>(tracer.totals(Layer::kDrain).self_ns) / 1e6, "ms");

  count("fluidmem.evictions", m.evictions, m0.evictions);
  count("fluidmem.flush_batches", m.flush_batches, m0.flush_batches);
  add("fluidmem.pages_per_flush",
      Ratio(static_cast<double>(m.flushed_pages - m0.flushed_pages),
            static_cast<double>(m.flush_batches - m0.flush_batches)),
      "pages");
  count("fluidmem.writeback_errors", m.writeback_errors, m0.writeback_errors);
  pipe_us("fluidmem.pipe.victim_queue_us", obs::PipeStage::kVictimQueue);
  pipe_us("fluidmem.pipe.evict_us", obs::PipeStage::kEvict);
  pipe_us("fluidmem.pipe.coalesce_wait_us", obs::PipeStage::kCoalesceWait);
  pipe_us("fluidmem.pipe.store_write_us", obs::PipeStage::kStoreWrite);

  count("fluidmem.engine.batched_reads", e.batched_reads, e0.batched_reads);
  count("fluidmem.engine.coalesced_reads", e.coalesced_reads,
        e0.coalesced_reads);
  count("fluidmem.engine.work_steals", e.work_steals, e0.work_steals);
  count("fluidmem.engine.io_window_waits", e.io_window_waits,
        e0.io_window_waits);
  count("fluidmem.engine.deferred_evictions", e.deferred_evictions,
        e0.deferred_evictions);
  add("fluidmem.engine.lock_wait_ms",
      static_cast<double>(e.lock_wait_total - e0.lock_wait_total) / 1e6, "ms");

  const auto pf_pages =
      static_cast<double>(m.prefetched_pages - m0.prefetched_pages);
  const auto pf_hits = static_cast<double>(p.hits - p0.hits);
  count("fluidmem.prefetch.pages", m.prefetched_pages, m0.prefetched_pages);
  count("fluidmem.prefetch.hits", p.hits, p0.hits);
  count("fluidmem.prefetch.wasted", p.wasted, p0.wasted);
  count("fluidmem.prefetch.gated_skips", p.gated_skips, p0.gated_skips);
  add("fluidmem.prefetch.accuracy", Ratio(pf_hits, pf_pages), "fraction");
  add("fluidmem.prefetch.coverage",
      Ratio(pf_hits,
            pf_hits + static_cast<double>(m.refaults - m0.refaults)),
      "fraction");
  pipe_us("fluidmem.pipe.prefetch_read_us", obs::PipeStage::kPrefetchRead);
  pipe_us("fluidmem.pipe.prefetch_install_us",
          obs::PipeStage::kPrefetchInstall);

  std::size_t tracked = 0;
  for (std::size_t l = 0; l < fm::kPageLocationCount; ++l)
    tracked += s.monitor->tracker().CountIn(static_cast<fm::PageLocation>(l));
  add("fluidmem.tracker.bytes_per_page",
      Ratio(static_cast<double>(s.monitor->tracker().ApproxBytes()),
            static_cast<double>(tracked)),
      "B");

  for (const Layer l : {Layer::kResilient, Layer::kReplicated,
                        Layer::kIntegrity, Layer::kLocal, Layer::kRamcloud}) {
    const std::string name(LayerName(l));
    count(name + ".calls", tracer.totals(l).calls, 0);
    self_ns(name + ".self_wall_ns", l);
  }
  add("kvstore.read_us", s.top_timed->MeanReadNs() / 1000.0, "us");
  add("kvstore.write_us", s.top_timed->MeanWriteNs() / 1000.0, "us");
  add("kvstore.write_amp",
      Ratio(static_cast<double>(now.base_writes - before.base_writes),
            static_cast<double>(m.flushed_pages - m0.flushed_pages)),
      "ratio");
  count("kvstore.retries", now.store.retries, before.store.retries);
  count("kvstore.hedged_reads", now.store.hedged_reads,
        before.store.hedged_reads);
  count("kvstore.deadline_exceeded", now.store.deadline_exceeded,
        before.store.deadline_exceeded);
  return out;
}

}  // namespace

void EndMeasure(Stack& s, Tracer* tracer, const Counters& before,
                std::uint64_t hits, Trial* tr) {
  if (tracer == nullptr) return;
  tracer->Arm(false);
  s.obs->Enable(false);
  tr->layers = LayerReport(s, *tracer, before, tr->attempted, hits);
}

}  // namespace perfbench
