// Bench-local wall-clock tracing for the traced run.
//
// The simulator has no wall-clock instrumentation of its own, so the
// benchmark times each layer from OUTSIDE: a Scope around every call the
// benchmark makes into `mem` and `fluidmem`, and a TimedStore decorator at
// every level of the `kvstore` stack. Scopes nest (a HandleFault span
// contains the store spans the monitor issues), so a layer's self time is
// its span's duration minus the time its child spans cover — computed
// online from the open-span stack, so totals cover every span even when
// the retained span list is capped.
//
// Nothing here touches virtual time or draws randomness: the traced run
// must replay the untraced run's virtual-time results exactly, and the
// benchmark asserts that it does. The untraced run passes a null Tracer and
// builds its store stack without any TimedStore.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kvstore/kvstore.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kMem,         // UffdRegion::Access / ReadBytes / WriteBytes
  kFault,       // Monitor::HandleFault, FaultEngine::PumpQueuedFaults
  kPump,        // Monitor::PumpBackground
  kDrain,       // Monitor::DrainWrites
  kResilient,   // kv::ResilientStore
  kReplicated,  // kv::ReplicatedStore
  kIntegrity,   // kv::IntegrityStore
  kLocal,       // kv::LocalDramStore
  kRamcloud,    // kv::RamcloudStore
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

constexpr std::string_view LayerName(Layer l) noexcept {
  switch (l) {
    case Layer::kMem: return "mem";
    case Layer::kFault: return "fluidmem.fault";
    case Layer::kPump: return "fluidmem.pump";
    case Layer::kDrain: return "fluidmem.drain";
    case Layer::kResilient: return "kvstore.resilient";
    case Layer::kReplicated: return "kvstore.replicated";
    case Layer::kIntegrity: return "kvstore.integrity";
    case Layer::kLocal: return "kvstore.local";
    case Layer::kRamcloud: return "kvstore.ramcloud";
    case Layer::kCount: break;
  }
  return "?";
}

inline std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t access = 0;
    std::uint32_t parent = kNoParent;
    Layer layer = Layer::kMem;
  };

  explicit Tracer(std::size_t keep_spans) : keep_(keep_spans) {
    spans_.reserve(keep_spans);
  }

  // Spans are recorded only while armed (the measured phase); set-up and
  // the final oracle sweep stay out of the layer totals.
  void Arm(bool on) noexcept { armed_ = on; }
  bool armed() const noexcept { return armed_; }
  // Guest access the following spans belong to.
  void SetAccess(std::uint64_t id) noexcept { access_ = id; }

  // Returns false when nothing was opened (disarmed); the caller must then
  // not Close.
  bool Open(Layer l) {
    if (!armed_) return false;
    Frame f;
    f.layer = l;
    f.start = WallNs();
    if (spans_.size() < keep_) {
      f.span = static_cast<std::uint32_t>(spans_.size());
      spans_.push_back(Span{f.start, 0, access_,
                            stack_.empty() ? kNoParent : stack_.back().span,
                            l});
    }
    stack_.push_back(f);
    return true;
  }

  void Close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t end = WallNs();
    const std::int64_t dur = end - f.start;
    LayerTotals& t = totals_[static_cast<std::size_t>(f.layer)];
    ++t.calls;
    t.self_ns += dur - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.span != kNoParent) spans_[f.span].end_ns = end;
  }

  const LayerTotals& totals(Layer l) const noexcept {
    return totals_[static_cast<std::size_t>(l)];
  }

  // Writes the retained spans as TSV (name, start, end, parent, access).
  bool WriteSpans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name\tstart_ns\tend_ns\tparent\taccess\n");
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      std::fprintf(f, "%.*s\t%lld\t%lld\t%lld\t%llu\n",
                   static_cast<int>(LayerName(s.layer).size()),
                   LayerName(s.layer).data(),
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.access));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Frame {
    Layer layer = Layer::kMem;
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
    std::uint32_t span = kNoParent;
  };

  std::size_t keep_;
  bool armed_ = false;
  std::uint64_t access_ = 0;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::array<LayerTotals, kLayerCount> totals_{};
};

// RAII span around one call into a layer; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, Layer l) : t_(t != nullptr && t->Open(l) ? t : nullptr) {}
  ~Scope() {
    if (t_ != nullptr) t_->Close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

// Pass-through store decorator that opens a span around every data and
// maintenance call it forwards. Inserted at every level of the traced
// run's store stack; the top-level instance also accumulates the virtual
// OpResult latency of reads and writes the monitor issued.
class TimedStore final : public fluid::kv::KvStore {
 public:
  TimedStore(std::unique_ptr<fluid::kv::KvStore> inner, Tracer& tracer,
             Layer layer)
      : inner_(std::move(inner)), tracer_(&tracer), layer_(layer) {}

  std::string_view name() const override { return inner_->name(); }
  bool has_native_partitions() const override {
    return inner_->has_native_partitions();
  }

  fluid::kv::OpResult Put(fluid::PartitionId partition, fluid::kv::Key key,
                          std::span<const std::byte, fluid::kPageSize> value,
                          fluid::SimTime now) override {
    Scope s(tracer_, layer_);
    return NoteWrite(inner_->Put(partition, key, value, now), now);
  }
  fluid::kv::OpResult Get(fluid::PartitionId partition, fluid::kv::Key key,
                          std::span<std::byte, fluid::kPageSize> out,
                          fluid::SimTime now) override {
    Scope s(tracer_, layer_);
    return NoteRead(inner_->Get(partition, key, out, now), now);
  }
  fluid::kv::OpResult Remove(fluid::PartitionId partition, fluid::kv::Key key,
                             fluid::SimTime now) override {
    Scope s(tracer_, layer_);
    return inner_->Remove(partition, key, now);
  }
  fluid::kv::OpResult MultiPut(fluid::PartitionId partition,
                               std::span<fluid::kv::KvWrite> writes,
                               fluid::SimTime now) override {
    Scope s(tracer_, layer_);
    return NoteWrite(inner_->MultiPut(partition, writes, now), now);
  }
  fluid::kv::OpResult MultiGet(fluid::PartitionId partition,
                               std::span<fluid::kv::KvRead> reads,
                               fluid::SimTime now) override {
    Scope s(tracer_, layer_);
    return NoteRead(inner_->MultiGet(partition, reads, now), now);
  }
  fluid::kv::OpResult DropPartition(fluid::PartitionId partition,
                                    fluid::SimTime now) override {
    Scope s(tracer_, layer_);
    return inner_->DropPartition(partition, now);
  }
  fluid::SimTime PumpMaintenance(fluid::SimTime now) override {
    Scope s(tracer_, layer_);
    return inner_->PumpMaintenance(now);
  }
  void ForEachKey(const std::function<void(fluid::PartitionId,
                                           fluid::kv::Key)>& fn)
      const override {
    inner_->ForEachKey(fn);
  }
  bool Contains(fluid::PartitionId partition,
                fluid::kv::Key key) const override {
    return inner_->Contains(partition, key);
  }
  std::size_t ObjectCount() const override { return inner_->ObjectCount(); }
  std::size_t BytesStored() const override { return inner_->BytesStored(); }
  const fluid::kv::StoreStats& stats() const override {
    return inner_->stats();
  }

  // Mean virtual latency (complete_at - now) of reads/writes, in ns, over
  // the calls made while the tracer was armed.
  std::uint64_t reads() const noexcept { return reads_; }
  std::uint64_t writes() const noexcept { return writes_; }
  double MeanReadNs() const noexcept {
    return reads_ ? static_cast<double>(read_ns_) / reads_ : 0.0;
  }
  double MeanWriteNs() const noexcept {
    return writes_ ? static_cast<double>(write_ns_) / writes_ : 0.0;
  }
 private:
  fluid::kv::OpResult NoteRead(const fluid::kv::OpResult& r,
                               fluid::SimTime now) {
    if (tracer_->armed()) {
      ++reads_;
      read_ns_ += r.complete_at > now ? r.complete_at - now : 0;
    }
    return r;
  }
  fluid::kv::OpResult NoteWrite(const fluid::kv::OpResult& r,
                                fluid::SimTime now) {
    if (tracer_->armed()) {
      ++writes_;
      write_ns_ += r.complete_at > now ? r.complete_at - now : 0;
    }
    return r;
  }

  std::unique_ptr<fluid::kv::KvStore> inner_;
  Tracer* tracer_;
  Layer layer_;
  std::uint64_t reads_ = 0, writes_ = 0;
  std::uint64_t read_ns_ = 0, write_ns_ = 0;
};

// Wraps `store` in a TimedStore when tracing (the untraced run gets the
// bare store back).
inline std::unique_ptr<fluid::kv::KvStore> Timed(
    std::unique_ptr<fluid::kv::KvStore> store, Tracer* tracer, Layer layer) {
  if (tracer == nullptr) return store;
  return std::make_unique<TimedStore>(std::move(store), *tracer, layer);
}

}  // namespace perfbench
