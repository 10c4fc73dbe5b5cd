#include "aiwc/obs/metrics.hh"

#include <bit>
#include <ostream>

#include "aiwc/base/check.hh"

namespace aiwc::obs
{

void
Histogram::observe(std::uint64_t v)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    // bit_width(0) == 0, bit_width(1) == 1, ... — bucket b holds the
    // values of bit width b, so the bucket index never exceeds 64.
    const auto b = static_cast<std::size_t>(std::bit_width(v));
    buckets_[b].fetch_add(1, std::memory_order_relaxed);

    // Lock-free extrema: retry only while another thread holds a more
    // extreme value, which converges immediately in practice.
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (v < seen &&
           !min_.compare_exchange_weak(seen, v,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v,
                                       std::memory_order_relaxed)) {
    }
}

std::uint64_t
Histogram::min() const
{
    const std::uint64_t m = min_.load(std::memory_order_relaxed);
    return m == ~0ull ? 0 : m;
}

std::uint64_t
Histogram::quantile(double q) const
{
    AIWC_CHECK(q >= 0.0 && q <= 1.0, "quantile level out of range: ", q);
    const std::uint64_t n = count();
    if (n == 0)
        return 0;
    // Rank of the q-th sample (1-based), then walk the buckets.
    const auto rank = static_cast<std::uint64_t>(q * (n - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < num_buckets; ++b) {
        seen += buckets_[b].load(std::memory_order_relaxed);
        if (seen >= rank) {
            // Upper bound of bucket b: values of bit width b.
            return b == 0 ? 0
                          : (b >= 64 ? ~0ull : (1ull << b) - 1);
        }
    }
    return max();
}

void
Histogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~0ull, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

MetricsRegistry &
MetricsRegistry::global()
{
    // Never destroyed: a pool worker may still count a helper task it
    // runs while the global pool is torn down at exit, after every
    // function-local static would have been.
    static MetricsRegistry *const registry = new MetricsRegistry();
    return *registry;
}

MetricsRegistry::Entry &
MetricsRegistry::lookup(const std::string &name, Kind kind)
{
    AIWC_CHECK(!name.empty(), "metric needs a name");
    MutexLock lock(mutex_);
    auto [it, inserted] = metrics_.try_emplace(name);
    Entry &entry = it->second;
    if (inserted) {
        entry.kind = kind;
        switch (kind) {
          case Kind::Counter:
            entry.counter = std::make_unique<Counter>();
            break;
          case Kind::Gauge:
            entry.gauge = std::make_unique<Gauge>();
            break;
          case Kind::Histogram:
            entry.histogram = std::make_unique<Histogram>();
            break;
        }
    } else {
        AIWC_CHECK(entry.kind == kind,
                   "metric '", name, "' re-registered as a different kind");
    }
    return entry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return *lookup(name, Kind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return *lookup(name, Kind::Gauge).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return *lookup(name, Kind::Histogram).histogram;
}

std::vector<MetricSample>
MetricsRegistry::snapshot() const
{
    MutexLock lock(mutex_);
    std::vector<MetricSample> samples;
    samples.reserve(metrics_.size());
    for (const auto &[name, entry] : metrics_) {
        MetricSample s;
        s.name = name;
        switch (entry.kind) {
          case Kind::Counter:
            s.kind = MetricSample::Kind::Counter;
            s.value = static_cast<std::int64_t>(entry.counter->value());
            break;
          case Kind::Gauge:
            s.kind = MetricSample::Kind::Gauge;
            s.value = entry.gauge->value();
            break;
          case Kind::Histogram: {
            const Histogram &h = *entry.histogram;
            s.kind = MetricSample::Kind::Histogram;
            s.count = h.count();
            s.sum = h.sum();
            s.min = h.min();
            s.max = h.max();
            s.p50 = h.quantile(0.5);
            s.p90 = h.quantile(0.9);
            s.p99 = h.quantile(0.99);
            break;
          }
        }
        samples.push_back(std::move(s));
    }
    return samples;
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    const auto samples = snapshot();
    const auto writeSection = [&](const char *title,
                                  MetricSample::Kind kind) {
        os << '"' << title << "\":{";
        bool first = true;
        for (const MetricSample &s : samples) {
            if (s.kind != kind)
                continue;
            if (!first)
                os << ',';
            first = false;
            os << '"' << s.name << "\":";
            if (kind == MetricSample::Kind::Histogram) {
                os << "{\"count\":" << s.count << ",\"sum\":" << s.sum
                   << ",\"min\":" << s.min << ",\"max\":" << s.max
                   << ",\"p50\":" << s.p50 << ",\"p90\":" << s.p90
                   << ",\"p99\":" << s.p99 << '}';
            } else {
                os << s.value;
            }
        }
        os << '}';
    };
    os << '{';
    writeSection("counters", MetricSample::Kind::Counter);
    os << ',';
    writeSection("gauges", MetricSample::Kind::Gauge);
    os << ',';
    writeSection("histograms", MetricSample::Kind::Histogram);
    os << '}';
}

void
MetricsRegistry::resetValues()
{
    MutexLock lock(mutex_);
    for (auto &[name, entry] : metrics_) {
        switch (entry.kind) {
          case Kind::Counter: entry.counter->reset(); break;
          case Kind::Gauge: entry.gauge->reset(); break;
          case Kind::Histogram: entry.histogram->reset(); break;
        }
    }
}

} // namespace aiwc::obs
