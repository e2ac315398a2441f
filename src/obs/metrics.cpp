#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/strings.hpp"

namespace clara::obs {

namespace {

std::size_t bucket_index(double x) {
  if (!(x >= 1.0)) return 0;  // x < 1 and NaN both land in bucket 0
  const auto idx = static_cast<std::size_t>(std::floor(std::log2(x))) + 1;
  return std::min(idx, LatencyHistogram::kBuckets - 1);
}

/// Geometric midpoint of bucket i's range (representative value used by
/// the quantile estimate).
double bucket_mid(std::size_t i) {
  if (i == 0) return 0.5;
  const double lo = std::exp2(static_cast<double>(i - 1));
  return lo * std::sqrt(2.0);
}

std::string instrument_label(const std::pair<std::string, std::string>& key) {
  return key.second.empty() ? key.first : key.first + "{" + key.second + "}";
}

/// "ilp/solves" -> "clara_ilp_solves": Prometheus metric names admit
/// only [a-zA-Z0-9_:].
std::string prom_name(const std::string& name, const char* suffix = "") {
  std::string out = "clara_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out + suffix;
}

/// Our "k=v,k2=v2" label string -> Prometheus {k="v",k2="v2"}. An extra
/// label ("le" for histogram buckets) is appended when provided.
std::string prom_labels(const std::string& labels, const std::string& extra = {}) {
  std::string body;
  for (const auto& item : split(labels, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    if (!body.empty()) body += ",";
    body += item.substr(0, eq) + "=\"" + item.substr(eq + 1) + "\"";
  }
  if (!extra.empty()) {
    if (!body.empty()) body += ",";
    body += extra;
  }
  return body.empty() ? std::string{} : "{" + body + "}";
}

}  // namespace

void LatencyHistogram::observe(double x) {
  std::lock_guard<std::mutex> lock(mu_);
  acc_.add(x);
  ++buckets_[bucket_index(x)];
}

void LatencyHistogram::observe_all(std::span<const double> xs) {
  std::lock_guard<std::mutex> lock(mu_);
  // A run of equal samples (a fixed-cost NF's latencies) looks up its
  // bucket once; NaN equals nothing, so it is looked up every time.
  double last = std::numeric_limits<double>::quiet_NaN();
  std::size_t bucket = 0;
  for (const double x : xs) {
    acc_.add(x);
    if (x != last) {
      last = x;
      bucket = bucket_index(x);
    }
    ++buckets_[bucket];
  }
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  // Lock ordering by address avoids deadlock when two threads merge the
  // same pair in opposite directions.
  if (this == &other) return;
  std::lock(mu_, other.mu_);
  std::lock_guard<std::mutex> a(mu_, std::adopt_lock);
  std::lock_guard<std::mutex> b(other.mu_, std::adopt_lock);
  acc_.merge(other.acc_);
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

std::uint64_t LatencyHistogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acc_.count();
}

Accumulator LatencyHistogram::moments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acc_;
}

double LatencyHistogram::percentile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t n = acc_.count();
  if (n == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) return std::clamp(bucket_mid(i), acc_.min(), acc_.max());
  }
  return acc_.max();
}

std::array<std::uint64_t, LatencyHistogram::kBuckets> LatencyHistogram::buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

void LatencyHistogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  acc_ = Accumulator{};
  buckets_.fill(0);
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[{name, labels}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[{name, labels}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name, const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[{name, labels}];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

std::string MetricsRegistry::render_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [key, c] : counters_) {
    os << instrument_label(key) << " " << c->value() << "\n";
  }
  for (const auto& [key, g] : gauges_) {
    os << instrument_label(key) << " " << strf("%g", g->value()) << "\n";
  }
  for (const auto& [key, h] : histograms_) {
    const Accumulator m = h->moments();
    os << instrument_label(key) << " count=" << m.count() << strf(" mean=%g", m.mean())
       << strf(" p50=%g", h->percentile(0.5)) << strf(" p99=%g", h->percentile(0.99))
       << strf(" max=%g", m.max()) << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [key, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << instrument_label(key) << "\":" << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [key, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << instrument_label(key) << "\":" << strf("%.17g", g->value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [key, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    const Accumulator m = h->moments();
    os << "\"" << instrument_label(key) << "\":{\"count\":" << m.count()
       << strf(",\"mean\":%.17g", m.mean()) << strf(",\"p50\":%.17g", h->percentile(0.5))
       << strf(",\"p99\":%.17g", h->percentile(0.99)) << strf(",\"max\":%.17g", m.max()) << "}";
  }
  os << "}}";
  return os.str();
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  // Instruments sharing a name differ only in labels; emit HELP/TYPE
  // once per name (the maps are key-sorted, so same-name runs are
  // contiguous).
  std::string last_name;
  for (const auto& [key, c] : counters_) {
    const std::string name = prom_name(key.first, "_total");
    if (name != last_name) {
      os << "# TYPE " << name << " counter\n";
      last_name = name;
    }
    os << name << prom_labels(key.second) << " " << c->value() << "\n";
  }
  last_name.clear();
  for (const auto& [key, g] : gauges_) {
    const std::string name = prom_name(key.first);
    if (name != last_name) {
      os << "# TYPE " << name << " gauge\n";
      last_name = name;
    }
    os << name << prom_labels(key.second) << " " << strf("%.17g", g->value()) << "\n";
  }
  last_name.clear();
  for (const auto& [key, h] : histograms_) {
    const std::string name = prom_name(key.first);
    if (name != last_name) {
      os << "# TYPE " << name << " histogram\n";
      last_name = name;
    }
    const auto buckets = h->buckets();
    const Accumulator m = h->moments();
    // Cumulative le-buckets at the log2 upper bounds, up to the last
    // populated bucket (the +Inf bucket always closes the series).
    std::size_t top = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] > 0) top = i;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= top; ++i) {
      cumulative += buckets[i];
      os << name << "_bucket"
         << prom_labels(key.second, strf("le=\"%.17g\"", std::exp2(static_cast<double>(i))))
         << " " << cumulative << "\n";
    }
    os << name << "_bucket" << prom_labels(key.second, "le=\"+Inf\"") << " " << m.count() << "\n";
    os << name << "_sum" << prom_labels(key.second) << " "
       << strf("%.17g", m.mean() * static_cast<double>(m.count())) << "\n";
    os << name << "_count" << prom_labels(key.second) << " " << m.count() << "\n";
  }
  return os.str();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, c] : counters_) c->reset();
  for (auto& [key, g] : gauges_) g->reset();
  for (auto& [key, h] : histograms_) h->reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace clara::obs
