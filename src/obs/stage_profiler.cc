#include "obs/stage_profiler.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "util/logging.h"

namespace threelc::obs {

namespace {

std::atomic<std::uint64_t> g_next_instance_id{1};

}  // namespace

void StageProfiler::ThreadState::Record(int id, std::uint64_t ns) {
  StageAccum& a = accums[id];
  // Single writer: plain load+store (relaxed) is race-free against the
  // concurrent relaxed loads Snapshot performs.
  a.count.store(a.count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  a.total_ns.store(a.total_ns.load(std::memory_order_relaxed) + ns,
                   std::memory_order_relaxed);
  if (ns < a.min_ns.load(std::memory_order_relaxed)) {
    a.min_ns.store(ns, std::memory_order_relaxed);
  }
  if (ns > a.max_ns.load(std::memory_order_relaxed)) {
    a.max_ns.store(ns, std::memory_order_relaxed);
  }
  std::atomic<std::uint32_t>& bucket = a.hist[StageLog2Bucket(ns)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
}

StageProfiler::StageProfiler()
    : instance_id_(g_next_instance_id.fetch_add(1)) {}

StageProfiler::~StageProfiler() = default;

StageProfiler& StageProfiler::Global() {
  static StageProfiler* profiler = new StageProfiler();
  return *profiler;
}

StageProfiler::ThreadState* StageProfiler::GetThreadState() {
  // Cache keyed by instance id, not pointer: ids are never reused, so a
  // stale entry for a destroyed profiler can never match a new one.
  struct CacheEntry {
    std::uint64_t instance;
    ThreadState* state;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache) {
    if (e.instance == instance_id_) return e.state;
  }
  auto owned = std::make_unique<ThreadState>();
  ThreadState* state = owned.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::move(owned));
  }
  cache.push_back({instance_id_, state});
  return state;
}

int StageProfiler::ResolveChild(ThreadState& ts, int parent,
                                const char* name) {
  for (const ThreadState::ChildEdge& e : ts.children) {
    if (e.parent == parent && e.name == name) return e.id;
  }
  std::string path;
  int id = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = parent < 0 ? std::string(name)
                      : paths_[static_cast<std::size_t>(parent)] + "/" + name;
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      if (paths_[i] == path) {
        id = static_cast<int>(i);
        break;
      }
    }
    if (id < 0) {
      THREELC_CHECK_MSG(paths_.size() < kMaxStages,
                        "StageProfiler: too many distinct stage paths");
      id = static_cast<int>(paths_.size());
      paths_.push_back(std::move(path));
    }
  }
  ts.children.push_back({parent, name, id});
  return id;
}

std::vector<StageSample> StageProfiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StageSample> samples;
  samples.reserve(paths_.size());
  std::uint64_t hist[kHistogramBuckets];
  for (std::size_t id = 0; id < paths_.size(); ++id) {
    StageSample s;
    s.path = paths_[id];
    s.min_ns = ~std::uint64_t{0};
    std::fill(hist, hist + kHistogramBuckets, 0);
    for (const auto& thread : threads_) {
      const StageAccum& a = thread->accums[id];
      const std::uint64_t count = a.count.load(std::memory_order_relaxed);
      if (count == 0) continue;
      s.count += count;
      s.total_ns += a.total_ns.load(std::memory_order_relaxed);
      s.min_ns = std::min(s.min_ns, a.min_ns.load(std::memory_order_relaxed));
      s.max_ns = std::max(s.max_ns, a.max_ns.load(std::memory_order_relaxed));
      for (int b = 0; b < kHistogramBuckets; ++b) {
        hist[b] += a.hist[b].load(std::memory_order_relaxed);
      }
    }
    if (s.count == 0) continue;
    s.p50_ns = StageQuantileNs(hist, kHistogramBuckets, s.count, 0.50);
    s.p90_ns = StageQuantileNs(hist, kHistogramBuckets, s.count, 0.90);
    s.p99_ns = StageQuantileNs(hist, kHistogramBuckets, s.count, 0.99);
    samples.push_back(std::move(s));
  }
  std::sort(samples.begin(), samples.end(),
            [](const StageSample& a, const StageSample& b) {
              return a.path < b.path;
            });
  return samples;
}

void StageProfiler::ExportTo(MetricsRegistry& registry) const {
  for (const StageSample& s : Snapshot()) {
    registry.AddCounterBatch("profile/" + s.path,
                             static_cast<double>(s.total_ns) * 1e-9, s.count);
  }
}

void StageProfiler::WritePrometheus(std::ostream& out,
                                    const std::string& prefix) const {
  std::string text;
  for (const StageSample& s : Snapshot()) {
    const std::string base = prefix + "stage_" + SanitizeMetricName(s.path);
    text += "# HELP " + base + "_seconds_total Total time in stage " +
            s.path + "\n";
    text += "# TYPE " + base + "_seconds_total counter\n";
    text += base + "_seconds_total " +
            FormatSampleValue(static_cast<double>(s.total_ns) * 1e-9) + "\n";
    text += "# HELP " + base + "_count_total Entries into stage " + s.path +
            "\n";
    text += "# TYPE " + base + "_count_total counter\n";
    text += base + "_count_total " + std::to_string(s.count) + "\n";
    text += "# HELP " + base + "_ns Stage duration distribution (ns)\n";
    text += "# TYPE " + base + "_ns summary\n";
    const struct {
      const char* q;
      double v;
    } quantiles[] = {{"0.5", s.p50_ns}, {"0.9", s.p90_ns}, {"0.99", s.p99_ns}};
    for (const auto& q : quantiles) {
      text += base + "_ns{quantile=\"" + q.q + "\"} " +
              FormatSampleValue(q.v) + "\n";
    }
    text += base + "_ns_sum " + std::to_string(s.total_ns) + "\n";
    text += base + "_ns_count " + std::to_string(s.count) + "\n";
  }
  out << text;
}

void StageProfiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& thread : threads_) {
    for (int id = 0; id < kMaxStages; ++id) {
      StageAccum& a = thread->accums[id];
      a.count.store(0, std::memory_order_relaxed);
      a.total_ns.store(0, std::memory_order_relaxed);
      a.min_ns.store(~std::uint64_t{0}, std::memory_order_relaxed);
      a.max_ns.store(0, std::memory_order_relaxed);
      for (int b = 0; b < kHistogramBuckets; ++b) {
        a.hist[b].store(0, std::memory_order_relaxed);
      }
    }
  }
}

std::size_t StageProfiler::stage_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return paths_.size();
}

}  // namespace threelc::obs
