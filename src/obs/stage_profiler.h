// Hierarchical stage profiler for hot paths (codec stages, transport
// frame handling, server step phases).
//
// Design rules, mirroring MetricsRegistry:
//  - Stages are recorded through obs::Phase / obs::ScopedStage
//    (obs/phase.h). Compiled in everywhere, disabled by default: a stage
//    against a disabled profiler costs one relaxed atomic load and a few
//    predictable branches (bench_kernels: BM_StageScopeDisabled).
//  - An enabled stage accumulates into thread-local, single-writer
//    slots: two steady_clock reads plus a handful of relaxed stores, no
//    locks and no allocation on the steady-state path. The only locking
//    happens the first time a thread sees a new (parent, name) pair.
//  - Stages are hierarchical: a stage opened while another is live
//    on the same thread becomes its child, and the stage's identity is the
//    full path ("server_step/decode_aggregate/3lc_decode/zre"). The same
//    leaf name under different parents is a different stage, which is how
//    one codec instrumentation serves both the push and pull directions.
//  - Snapshot() merges every thread's accumulators outside the hot path
//    (the scraping thread pays the cost, not the step loop). Counts and
//    totals may be torn by in-flight recordings — profiling tolerance, not
//    ledger accuracy.
//  - Each stage keeps exact count/total/min/max plus a log2(ns) histogram
//    for quantiles: 64 buckets cover 1 ns to ~18 s with <=50% relative
//    error, enough to tell a 2 us quartic pack from a 2 ms fan-out stall.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace threelc::obs {

class MetricsRegistry;

// Shared log2(ns) bucket math. StageProfiler records into these buckets
// and ClusterView merges worker-shipped durations into the same layout,
// so cluster-level quantiles are computed with bit-identical math.
//
// Bucket b covers [2^b, 2^(b+1)) ns; 0 and 1 ns both land in bucket 0.
inline int StageLog2Bucket(std::uint64_t ns) {
  if (ns <= 1) return 0;
  return 63 - __builtin_clzll(ns);
}

// Geometric midpoint of bucket b — the representative duration reported
// for quantiles (exact to within the bucket's +-50% width).
inline double StageBucketMidNs(int b) {
  return static_cast<double>(std::uint64_t{1} << b) * 1.4142135623730951;
}

// Quantile over a 64-bucket log2 histogram via cumulative walk. `hist`
// must have at least `buckets` entries; returns the midpoint of the
// bucket where the cumulative count first reaches q * total.
inline double StageQuantileNs(const std::uint64_t* hist, int buckets,
                              std::uint64_t total, double q) {
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (int b = 0; b < buckets; ++b) {
    cum += hist[b];
    if (static_cast<double>(cum) >= target && cum > 0) {
      return StageBucketMidNs(b);
    }
  }
  return StageBucketMidNs(buckets - 1);
}

// One stage, merged across threads, as of a Snapshot() call.
struct StageSample {
  std::string path;  // "parent/child/leaf"
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double p50_ns = 0.0;  // from the log2 histogram (geometric bucket mid)
  double p90_ns = 0.0;
  double p99_ns = 0.0;
};

class StageProfiler {
 public:
  // Log2 duration buckets: bucket b holds durations in [2^b, 2^(b+1)) ns.
  static constexpr int kHistogramBuckets = 64;
  // Distinct hierarchical stage paths per profiler. Fixed so per-thread
  // accumulator arrays never reallocate under a concurrent Snapshot().
  static constexpr int kMaxStages = 256;

  StageProfiler();
  ~StageProfiler();
  StageProfiler(const StageProfiler&) = delete;
  StageProfiler& operator=(const StageProfiler&) = delete;

  // Process-wide profiler; what Telemetry enables and /metricsz serves.
  static StageProfiler& Global();

  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Merge every thread's accumulators into per-path samples, sorted by
  // path. Stages with zero recordings are omitted.
  std::vector<StageSample> Snapshot() const;

  // Record the current totals into `registry` as one counter per stage:
  //   profile/<path>  (value = total seconds, events = count)
  // Totals are cumulative, so call this once per registry (e.g. at
  // Telemetry::Flush) — repeated exports double-count.
  void ExportTo(MetricsRegistry& registry) const;

  // Prometheus text exposition of the current snapshot:
  //   <prefix>stage_<path>_seconds_total / _count_total  (counters)
  //   <prefix>stage_<path>_ns{quantile=...} + _sum/_count (summary)
  void WritePrometheus(std::ostream& out,
                       const std::string& prefix = "threelc_") const;

  // Zero every accumulator, keeping registered stages and thread slots.
  // Test/bench helper; not safe against concurrent recording threads.
  void Reset();

  std::size_t stage_count() const;

 private:
  friend class Phase;

  // Single-writer accumulator: only the owning thread stores, any thread
  // may load (Snapshot). Everything relaxed — the values are statistics.
  struct StageAccum {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> min_ns{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max_ns{0};
    std::atomic<std::uint32_t> hist[kHistogramBuckets] = {};
  };

  struct ThreadState {
    ThreadState() : accums(new StageAccum[kMaxStages]) {}
    std::unique_ptr<StageAccum[]> accums;
    // Owner-thread-only state below.
    int current = -1;  // innermost live stage id (-1 = top level)
    struct ChildEdge {
      int parent;
      const char* name;  // pointer identity: stage names are literals
      int id;
    };
    std::vector<ChildEdge> children;  // tiny; linear scan beats hashing
    void Record(int id, std::uint64_t ns);
  };

  ThreadState* GetThreadState();
  int ResolveChild(ThreadState& ts, int parent, const char* name);

  std::atomic<bool> enabled_{false};
  const std::uint64_t instance_id_;  // unique forever; keys the TLS cache
  mutable std::mutex mu_;  // guards paths_/ids_/threads_ structure
  std::vector<std::string> paths_;  // index = stage id
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

}  // namespace threelc::obs
