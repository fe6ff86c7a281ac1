#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/json.h"

namespace threelc::obs {

int HistogramStat::Bucket(double v) {
  // Never convert a negative, NaN or out-of-range double to an integer:
  // that is undefined behaviour.
  const double ns = v * 1e6;
  if (!std::isfinite(ns) || ns < 1.0) return 0;
  if (ns >= 0x1p64) return kBuckets - 1;
  return StageLog2Bucket(static_cast<std::uint64_t>(ns));
}

double HistogramStat::Quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double mid_ms =
      StageQuantileNs(buckets_, kBuckets, stat_.count(), q) * 1e-6;
  return std::min(std::max(mid_ms, stat_.min()), stat_.max());
}

void HistogramStat::MergeFrom(const HistogramStat& other) {
  // Copy the other side out under its lock, then fold in under ours — never
  // hold both locks at once (two threads cross-merging must not deadlock).
  util::RunningStat other_stat;
  std::uint64_t other_buckets[kBuckets];
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    other_stat = other.stat_;
    std::copy(other.buckets_, other.buckets_ + kBuckets, other_buckets);
  }
  std::lock_guard<std::mutex> lock(mu_);
  stat_.Merge(other_stat);
  for (int b = 0; b < kBuckets; ++b) buckets_[b] += other_buckets[b];
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(
                                     &enabled_))).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(&enabled_)))
             .first;
  }
  return it->second.get();
}

HistogramStat* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<HistogramStat>(
                                new HistogramStat(&enabled_)))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::AddCounterBatch(const std::string& name, double v,
                                      std::uint64_t n) {
  if (!enabled()) return;
  counter(name)->AddSample(v, n);
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  // Snapshot other's metric pointers, then fold them in. Values read through
  // the handles are atomics (or internally locked), so concurrent writers on
  // `other` stay safe; counts may lag in-flight updates, which is fine for
  // an export-time merge.
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const HistogramStat*>> hists;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    for (const auto& [name, c] : other.counters_) {
      counters.emplace_back(name, c.get());
    }
    for (const auto& [name, g] : other.gauges_) {
      gauges.emplace_back(name, g.get());
    }
    for (const auto& [name, h] : other.histograms_) {
      hists.emplace_back(name, h.get());
    }
  }
  // Write through the private fields so a Merge lands even when this
  // registry is disabled (export-time merges must not drop data).
  for (const auto& [name, c] : counters) {
    // Read() gives a consistent (value, events) pair even while workers
    // keep adding on the other side; AddSample folds it in atomically with
    // respect to concurrent exporters of this registry.
    const Counter::Snapshot snap = c->Read();
    counter(name)->AddSample(snap.value, snap.events);
  }
  for (const auto& [name, g] : gauges) {
    if (g->set()) {
      Gauge* mine = gauge(name);
      mine->value_.store(g->value(), std::memory_order_relaxed);
      mine->set_.store(true, std::memory_order_relaxed);
    }
  }
  for (const auto& [name, h] : hists) {
    histogram(name)->MergeFrom(*h);
  }
}

namespace {

void AppendHistogramFields(std::string& line, const HistogramStat& h) {
  const util::RunningStat s = h.stat();
  line += ",\"count\":";
  AppendJsonNumber(line, static_cast<std::uint64_t>(s.count()));
  line += ",\"mean\":";
  AppendJsonNumber(line, s.mean());
  line += ",\"stddev\":";
  AppendJsonNumber(line, s.stddev());
  line += ",\"min\":";
  AppendJsonNumber(line, s.min());
  line += ",\"max\":";
  AppendJsonNumber(line, s.max());
  line += ",\"p50\":";
  AppendJsonNumber(line, h.Quantile(0.5));
  line += ",\"p99\":";
  AppendJsonNumber(line, h.Quantile(0.99));
}

}  // namespace

MetricSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    const Counter::Snapshot s = c->Read();
    snap.counters.push_back({name, s.value, s.events});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value(), g->set()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    const util::RunningStat s = h->stat();
    snap.histograms.push_back({name, s.count(), s.sum(), s.mean(), s.stddev(),
                               s.min(), s.max(), h->Quantile(0.5),
                               h->Quantile(0.9), h->Quantile(0.99)});
  }
  return snap;
}

void MetricsRegistry::WriteJsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  for (const auto& [name, c] : counters_) {
    const Counter::Snapshot snap = c->Read();
    line.clear();
    line += "{\"metric\":";
    AppendJsonEscaped(line, name);
    line += ",\"type\":\"counter\",\"value\":";
    AppendJsonNumber(line, snap.value);
    line += ",\"events\":";
    AppendJsonNumber(line, snap.events);
    line += "}\n";
    out << line;
  }
  for (const auto& [name, g] : gauges_) {
    line.clear();
    line += "{\"metric\":";
    AppendJsonEscaped(line, name);
    line += ",\"type\":\"gauge\",\"value\":";
    AppendJsonNumber(line, g->value());
    line += "}\n";
    out << line;
  }
  for (const auto& [name, h] : histograms_) {
    line.clear();
    line += "{\"metric\":";
    AppendJsonEscaped(line, name);
    line += ",\"type\":\"histogram\"";
    AppendHistogramFields(line, *h);
    line += "}\n";
    out << line;
  }
}

void MetricsRegistry::WriteCsv(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "metric,type,value,events,mean,stddev,min,max,p50,p99\n";
  for (const auto& [name, c] : counters_) {
    const Counter::Snapshot snap = c->Read();
    out << name << ",counter," << snap.value << "," << snap.events
        << ",,,,,,\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << name << ",gauge," << g->value() << ",,,,,,,\n";
  }
  for (const auto& [name, h] : histograms_) {
    const util::RunningStat s = h->stat();
    out << name << ",histogram," << s.sum() << "," << s.count() << ","
        << s.mean() << "," << s.stddev() << "," << s.min() << "," << s.max()
        << "," << h->Quantile(0.5) << "," << h->Quantile(0.99) << "\n";
  }
}

std::string MetricsRegistry::ToJsonObject() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",";
    first = false;
  };
  for (const auto& [name, c] : counters_) {
    const Counter::Snapshot snap = c->Read();
    sep();
    AppendJsonEscaped(out, name);
    out += ":{\"type\":\"counter\",\"value\":";
    AppendJsonNumber(out, snap.value);
    out += ",\"events\":";
    AppendJsonNumber(out, snap.events);
    out += "}";
  }
  for (const auto& [name, g] : gauges_) {
    sep();
    AppendJsonEscaped(out, name);
    out += ":{\"type\":\"gauge\",\"value\":";
    AppendJsonNumber(out, g->value());
    out += "}";
  }
  for (const auto& [name, h] : histograms_) {
    sep();
    AppendJsonEscaped(out, name);
    out += ":{\"type\":\"histogram\"";
    AppendHistogramFields(out, *h);
    out += "}";
  }
  out += "}";
  return out;
}

std::size_t MetricsRegistry::metric_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace threelc::obs
