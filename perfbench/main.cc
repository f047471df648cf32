// fmbench: the repository benchmark's runner.
//
//   fmbench --workload pmbench|tenants|storm --seed N --seconds S --trace 0|1
//           [--spans PATH]
//
// A run repeats identical TRIALS of one workload (fresh stack, generated
// trace, populate, measured phase, oracle sweep) until `--seconds` of wall
// time have passed, at least kMinTrials times. Every trial of one seed does
// the same work, and the run asserts it: equal operation counts, equal
// fault-set fingerprints and bit-identical virtual-time samples, or the
// run exits nonzero. Wall-clock metrics are medians over the trials.
//
// --trace 0 prints the end-to-end metrics: virtual-time latency and
// throughput (what the VM tenant feels), the open-loop max-rate ladder,
// and wall-clock cost and set-up time (what whoever runs the simulator
// pays). --trace 1 alternates untraced and traced trials and prints the
// per-layer metrics of the traced ones; it also asserts that tracing left
// every virtual-time result unchanged, and reports its wall overhead.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Human-readable detail (sample counts, ladder rungs) goes before it.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common.h"

using namespace perfbench;

namespace {

constexpr std::size_t kMinTrials = 3;
constexpr std::size_t kMaxTrials = 64;
// Spans kept in memory for the span file (totals cover every span).
constexpr std::size_t kKeepSpans = 1 << 18;

struct Workload {
  const char* name;
  Trial (*run)(const RunSpec&, Tracer*, std::string*);
  double nominal_kops;  // open-loop arrival rate at rate_factor 1
  double p99_limit_us;  // max-rate limit on the ladder's protected p99
  bool ladder_on_faults;  // the limit bounds fault p99 (else access p99)
};

// Offered-load ladder, as multiples of each workload's nominal rate.
constexpr double kLadder[] = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0};
// Bisection steps between the last passing and first failing rung.
constexpr int kRefineSteps = 5;
// A rung's backlog "grows" when the second half's mean completion lag
// exceeds the first half's by this factor plus an absolute slack.
constexpr double kBacklogGrowth = 1.5;
constexpr double kBacklogSlackNs = 10'000;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "fmbench: %s\n", msg.c_str());
  std::exit(1);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Quantiles of exact samples, printed with their counts. p99 is reported
// only when at least ten samples lie beyond it.
struct Tail {
  double p50_us = 0;
  double p99_us = 0;
};
Tail Quantiles(const char* what, std::vector<SimDuration> v) {
  if (v.empty()) Die(std::string("no ") + what + " samples");
  std::sort(v.begin(), v.end());
  Tail t;
  t.p50_us = static_cast<double>(QuantileOf(v, 0.50)) / 1000.0;
  const SimDuration p99 = QuantileOf(v, 0.99);
  t.p99_us = static_cast<double>(p99) / 1000.0;
  const auto beyond = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), p99));
  std::printf("  %-8s n=%zu p50=%.3fus p99=%.3fus (%zu samples beyond p99)\n",
              what, v.size(), t.p50_us, t.p99_us, beyond);
  if (beyond < 10)
    Die(std::string(what) + " p99 has fewer than 10 samples beyond it");
  return t;
}

// Asserts `b` did the same work as `a`, then frees `b`'s samples: only the
// first trial's are kept, so memory does not grow with the trial count.
void CheckSameWork(const Trial& a, Trial& b) {
  if (a.attempted != b.attempted)
    Die("equal-work violation: operation count " +
        std::to_string(b.attempted) + " != " + std::to_string(a.attempted));
  if (a.fingerprint != b.fingerprint)
    Die("equal-work violation: fault-set fingerprint differs");
  if (a.access_ns != b.access_ns || a.fault_ns != b.fault_ns ||
      a.span_ns != b.span_ns ||
      a.remote_bytes_per_page != b.remote_bytes_per_page)
    Die("replay violation: virtual-time results differ between trials");
  if (&a != &b) {
    std::vector<SimDuration>().swap(b.access_ns);
    std::vector<SimDuration>().swap(b.fault_ns);
  }
}

Trial RunChecked(const Workload& w, const RunSpec& spec, Tracer* tracer) {
  std::string error;
  Trial t = w.run(spec, tracer, &error);
  if (!error.empty()) Die("data check failed: " + error);
  return t;
}

// One ladder rung: does the workload meet its limit at this offered load?
bool RungPasses(const Workload& w, std::uint64_t seed, double factor) {
  RunSpec spec;
  spec.seed = seed;
  spec.rate_factor = factor;
  spec.ladder = true;
  Trial t = RunChecked(w, spec, nullptr);
  std::vector<SimDuration>& v = w.ladder_on_faults ? t.fault_ns : t.access_ns;
  if (v.empty()) Die("ladder rung produced no samples");
  std::sort(v.begin(), v.end());
  const double p99_us = static_cast<double>(QuantileOf(v, 0.99)) / 1000.0;
  const bool grows =
      t.lag_second_ns > kBacklogGrowth * t.lag_first_ns + kBacklogSlackNs;
  const bool pass = p99_us <= w.p99_limit_us && !grows &&
                    t.blocked == 0 && t.wrong_bytes == 0;
  std::printf("  rung %.3fx (%.2f kop/s): p99=%.2fus lag %.1f->%.1fus %s\n",
              factor, factor * w.nominal_kops, p99_us, t.lag_first_ns / 1e3,
              t.lag_second_ns / 1e3, pass ? "pass" : "FAIL");
  return pass;
}

double MaxRateKops(const Workload& w, std::uint64_t seed) {
  double lo = 0, hi = 0;
  for (const double f : kLadder) {
    if (!RungPasses(w, seed, f)) {
      hi = f;
      break;
    }
    lo = f;
  }
  if (lo == 0) Die("max-rate ladder: the lowest rung misses the limit");
  if (hi == 0) return lo * w.nominal_kops;  // every rung passed
  for (int i = 0; i < kRefineSteps; ++i) {
    const double mid = 0.5 * (lo + hi);
    (RungPasses(w, seed, mid) ? lo : hi) = mid;
  }
  return lo * w.nominal_kops;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--spans") spans_path = v;
    else Die("unknown argument " + k);
  }
  if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1))
    Die("usage: fmbench --workload W --seed N --seconds S --trace 0|1 "
        "[--spans PATH]");

  const Workload workloads[] = {
      {"pmbench", RunPmbench, PmbenchNominalKops(), 250.0, false},
      {"tenants", RunTenants, TenantsNominalKops(), 2000.0, false},
      {"storm", RunStorm, StormNominalKops(), 300.0, true},
  };
  const Workload* w = nullptr;
  for (const Workload& c : workloads)
    if (workload == c.name) w = &c;
  if (w == nullptr) Die("unknown workload '" + workload + "'");

  // Fixed allocator thresholds, so every trial after the first sees the
  // same memory: large blocks (frame pools) are always fresh mappings,
  // faulted in during set-up, while the heap is never trimmed, so the
  // measured phase reuses warm pages instead of faulting new ones. Left
  // dynamic, glibc raises the mmap threshold after the first large free
  // and later trials' pools land on the heap, making peak RSS and wall
  // time depend on how many trials ran before.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  RunSpec spec;
  spec.seed = seed;
  const double t0 = WallSeconds();
  std::vector<Trial> plain, traced;
  std::optional<Tracer> tracer;  // the latest traced trial's
  while (plain.size() + traced.size() < kMaxTrials) {
    const std::size_t n = std::min(plain.size(), traced.size());
    if (WallSeconds() - t0 >= seconds &&
        (trace ? n >= kMinTrials - 1 : plain.size() >= kMinTrials))
      break;
    if (trace && traced.size() < plain.size()) {
      tracer.emplace(kKeepSpans);
      traced.push_back(RunChecked(*w, spec, &*tracer));
      CheckSameWork(plain.front(), traced.back());
    } else {
      plain.push_back(RunChecked(*w, spec, nullptr));
      CheckSameWork(plain.front(), plain.back());
    }
  }
  const Trial& first = plain.front();
  std::printf("workload %s seed %llu: %zu untraced + %zu traced trials, "
              "%llu accesses each\n",
              w->name, static_cast<unsigned long long>(seed), plain.size(),
              traced.size(), static_cast<unsigned long long>(first.attempted));

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&plain, &traced})
    for (const Trial& t : *set) {
      attempted += t.attempted;
      failed += t.blocked + t.wrong_bytes;
    }
  const bool correct = failed == 0;

  // Wall-clock medians skip a set's first trial: it runs on a cold
  // allocator and page cache, which every later trial finds warm.
  const auto median_of = [](const std::vector<Trial>& ts,
                            double (*f)(const Trial&)) {
    std::vector<double> v;
    for (std::size_t i = ts.size() > 1 ? 1 : 0; i < ts.size(); ++i)
      v.push_back(f(ts[i]));
    return Median(v);
  };
  std::vector<Metric> metrics;
  if (trace == 0) {
    const Tail access = Quantiles("access", first.access_ns);
    const Tail fault = Quantiles("fault", first.fault_ns);
    const double max_rate = MaxRateKops(*w, seed);
    const auto frac = [&](std::uint64_t bad) {
      return 1.0 - static_cast<double>(bad) /
                       static_cast<double>(first.attempted);
    };
    metrics = {
        {"access_p50_us", access.p50_us, "us"},
        {"access_p99_us", access.p99_us, "us"},
        {"fault_p50_us", fault.p50_us, "us"},
        {"fault_p99_us", fault.p99_us, "us"},
        {"throughput_kops",
         static_cast<double>(first.attempted) * 1e6 /
             static_cast<double>(first.span_ns),
         "kop/s"},
        {"max_rate_kops", max_rate, "kop/s"},
        {"success_rate", frac(first.blocked + first.wrong_bytes), "fraction"},
        {"remote_bytes_per_page", first.remote_bytes_per_page, "B"},
        {"wall_ns_per_access", median_of(plain,
                                         [](const Trial& t) {
                                           return t.measure_s * 1e9 /
                                                  static_cast<double>(
                                                      t.attempted);
                                         }),
         "ns"},
        {"setup_s", median_of(plain, [](const Trial& t) { return t.setup_s; }),
         "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // Per-layer metrics: the median of each over the traced trials.
    for (std::size_t i = 0; i < traced.front().layers.size(); ++i) {
      std::vector<double> v;
      for (const Trial& t : traced) v.push_back(t.layers[i].value);
      metrics.push_back(traced.front().layers[i]);
      metrics.back().value = Median(v);
    }
    const auto ms = [](double s) { return s * 1e3; };
    metrics.push_back({"check.verify_wall_ms",
                       ms(median_of(traced, [](const Trial& t) {
                         return t.verify_s;
                       })),
                       "ms"});
    metrics.push_back({"check.pages_verified",
                       static_cast<double>(first.pages_verified), "count"});
    metrics.push_back({"setup.generate_wall_ms",
                       ms(median_of(traced, [](const Trial& t) {
                         return t.generate_s;
                       })),
                       "ms"});
    metrics.push_back({"setup.populate_wall_ms",
                       ms(median_of(traced, [](const Trial& t) {
                         return t.setup_s - t.generate_s;
                       })),
                       "ms"});
    const auto measure = [](const Trial& t) { return t.measure_s; };
    metrics.push_back({"trace.overhead_frac",
                       median_of(traced, measure) / median_of(plain, measure) -
                           1.0,
                       "fraction"});
    if (!spans_path.empty() && !tracer->WriteSpans(spans_path))
      Die("could not write spans to " + spans_path);
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
