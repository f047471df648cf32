// Workload `pmbench`: the Fig. 3 set-up (one VM region over RAMCloud,
// working set 4x local DRAM, warm-up touches every page, then uniform
// random 4 KiB accesses at 50% writes on one vCPU, K=1).
//
// About three quarters of the measured accesses are remote refaults whose
// victims are dirty, so the serial fault path, the write list, coalesced
// writeback and the RAMCloud log carry the load. The sharded engine,
// replication and integrity never run, and a uniform stream gives the
// majority-vote prefetcher no trend: this is the "no change" side for
// those layers.
//
// The measured phase is closed loop (latency from issue to completion).
// For the max-rate ladder the same stream is replayed open loop with
// Poisson arrivals, latency timed from each arrival's due time.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common.h"
#include "kvstore/ramcloud.h"

namespace perfbench {

using namespace fluid;

namespace {

constexpr std::size_t kDramPages = 4096;
constexpr std::size_t kWssPages = 4 * kDramPages;
constexpr std::size_t kAccesses = 240'000;
constexpr std::size_t kLadderAccesses = kAccesses / 4;
constexpr VirtAddr kBase = 0x7f00'0000'0000ULL;
// Nominal open-loop arrival rate; the ladder scales it.
constexpr double kNominalKops = 30.0;

struct Access {
  SimTime due = 0;  // open loop only
  std::uint32_t page = 0;
  bool is_write = false;
};

std::vector<Access> Generate(const RunSpec& spec) {
  Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 0x706d62ULL);
  std::vector<Access> out(spec.ladder ? kLadderAccesses : kAccesses);
  const double mean_gap_ns = 1e6 / (kNominalKops * spec.rate_factor);
  double at = 0;
  for (Access& a : out) {
    a.page = static_cast<std::uint32_t>(rng.NextBounded(kWssPages));
    a.is_write = rng.NextDouble() < 0.5;
    if (spec.ladder) {
      at += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
      a.due = static_cast<SimTime>(at);
    }
  }
  return out;
}

}  // namespace

double PmbenchNominalKops() { return kNominalKops; }

Trial RunPmbench(const RunSpec& spec, Tracer* tracer, std::string* error) {
  Trial tr;
  const double t_start = WallSeconds();
  const std::vector<Access> accesses = Generate(spec);
  tr.generate_s = WallSeconds() - t_start;

  Stack s;
  s.pool = std::make_unique<mem::FramePool>(kDramPages + 4096);
  kv::RamcloudConfig rc{.memory_cap_bytes = 2 * kWssPages * kPageSize,
                        .seed = spec.seed ^ 0x2c10dULL};
  auto ramcloud = std::make_unique<kv::RamcloudStore>(rc);
  s.base.push_back(ramcloud.get());
  s.store = Timed(std::move(ramcloud), tracer, Layer::kRamcloud);
  if (tracer != nullptr) s.top_timed = static_cast<TimedStore*>(s.store.get());
  fm::MonitorConfig mc;
  mc.lru_capacity_pages = kDramPages;
  UseSharedPrefetch(mc);
  mc.seed = spec.seed ^ 0xc0ffeeULL;
  s.BuildMonitor(mc, tracer);
  s.AddRegion(kBase, kWssPages, 0);

  // Warm-up: write every page once, so each holds a stamp.
  Rng cpu(spec.seed ^ 0xc9aULL);
  std::vector<std::uint64_t> gen(kWssPages, 1);
  SimTime now = kMillisecond;
  for (std::size_t p = 0; p < kWssPages; ++p) {
    const VirtAddr addr = kBase + p * kPageSize;
    const AccessStep st = TouchPage(s, 0, addr, true, now, cpu, nullptr);
    if (!st.resident || !WriteStamp(s, 0, addr, Stamp(p, 1), nullptr)) {
      *error = "pmbench warm-up failed at page " + std::to_string(p);
      return tr;
    }
    now = st.t;
  }
  tr.setup_s = WallSeconds() - t_start;

  // --- measured phase --------------------------------------------------------
  const double t_measure = WallSeconds();
  const Counters before = BeginMeasure(s, tracer);
  const SimTime start = now;
  std::uint64_t hits = 0;
  std::uint64_t fp = 0x243f6a8885a308d3ULL;
  tr.access_ns.reserve(accesses.size());
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const Access& a = accesses[i];
    const SimTime due = spec.ladder ? start + a.due : now;
    if (tracer != nullptr) tracer->SetAccess(i);
    const VirtAddr addr = kBase + std::size_t{a.page} * kPageSize;
    const AccessStep st =
        TouchPage(s, 0, addr, a.is_write, std::max(now, due), cpu, tracer);
    ++tr.attempted;
    hits += st.hit;
    now = st.t;
    if (!st.resident) {
      ++tr.blocked;
    } else if (a.is_write) {
      if (!WriteStamp(s, 0, addr, Stamp(a.page, ++gen[a.page]), tracer))
        ++tr.blocked;
    } else {
      std::uint64_t got = 0;
      if (!ReadStamp(s, 0, addr, &got, tracer) ||
          got != Stamp(a.page, gen[a.page]))
        ++tr.wrong_bytes;
    }
    tr.access_ns.push_back(now - due);
    if (st.faulted) tr.fault_ns.push_back(st.wake - st.raised);
    Mix(fp, (std::uint64_t{a.page} << 2) | (a.is_write << 1) | st.faulted);
    Mix(fp, now - due);
  }
  tr.span_ns = now - start;
  {
    Scope sc(tracer, Layer::kDrain);
    now = s.monitor->DrainWrites(now);
  }
  EndMeasure(s, tracer, before, hits, &tr);
  tr.measure_s = WallSeconds() - t_measure;
  tr.remote_bytes_per_page = RemoteBytesPerPage(s);
  Mix(fp, tr.fault_ns.size());
  tr.fingerprint = fp;
  SplitLag(tr.access_ns, &tr);

  // --- oracle sweep: every page reads back its last stamp --------------------
  if (spec.ladder) return tr;
  const double t_verify = WallSeconds();
  for (std::size_t p = 0; p < kWssPages; ++p) {
    const VirtAddr addr = kBase + p * kPageSize;
    const AccessStep st = TouchPage(s, 0, addr, false, now, cpu, nullptr);
    std::uint64_t got = 0;
    if (!st.resident || !ReadStamp(s, 0, addr, &got, nullptr) ||
        got != Stamp(p, gen[p])) {
      *error = "pmbench page " + std::to_string(p) + " lost its last write";
      return tr;
    }
    now = st.t;
    ++tr.pages_verified;
  }
  tr.verify_s = WallSeconds() - t_verify;
  return tr;
}

}  // namespace perfbench
