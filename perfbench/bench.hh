/**
 * @file
 * Shared machinery of the repository benchmark: options, the in-memory
 * span recorder, registry deltas, output checks, metric output and the
 * paper-fidelity error. Every call into libaiwc goes through its public
 * headers; nothing here instruments the library itself.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aiwc/core/dataset.hh"
#include "aiwc/obs/metrics.hh"

namespace aiwc::core
{
struct LifecycleReport;
struct MultiGpuReport;
struct PowerReport;
struct ServiceTimeReport;
struct UtilizationReport;
} // namespace aiwc::core

namespace aiwc::stream
{
struct SnapshotReport;
} // namespace aiwc::stream

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny input sizes for the smoke test; numbers are not comparable. */
    bool tiny = false;
    /** Where the traced run writes its spans (Chrome trace JSON). */
    std::string spans_out;
    int pool_threads = 1;
};

/** Milliseconds on the steady clock. */
double nowMs();

/** Median of a non-empty sample (mean of the middle two when even). */
double median(std::vector<double> values);

/** Linear-interpolated quantile of a non-empty sample. */
double quantile(std::vector<double> values, double q);

/** SplitMix64: a stateless hash for seed-derived choices. */
std::uint64_t splitmix64(std::uint64_t x);

/** FNV-1a 64-bit over a byte string. */
std::uint64_t fnv1a(const std::string &bytes);

/** Peak resident set of this process (VmHWM), MiB. */
double peakRssMb();

/** Live heap bytes (in-use arena plus mmapped blocks). */
double heapBytes();

/**
 * Spans recorded by the benchmark around its calls into each layer:
 * name, start, end and the enclosing span. Kept in memory; written out
 * once at the end. Recording is off until enable(); a disabled Scope
 * costs one branch, so traced and untraced passes run the same code.
 */
class Spans
{
  public:
    class Scope
    {
      public:
        Scope(Spans &spans, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        int index_ = -1;
    };

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Starts a new pass: spans recorded after this call belong to it. */
    void beginPass();
    /** Summed duration (ms) per span name within the current pass. */
    std::map<std::string, double> passTotals() const;

    /** Chrome trace_event JSON of every recorded span. */
    void writeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        double start_ms;
        double end_ms;
        int parent;
    };

    bool enabled_ = false;
    std::size_t pass_begin_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Values of the global metrics registry, keyed by metric name. */
using RegistryValues = std::map<std::string, aiwc::obs::MetricSample>;

/** Reset the registry (before a measured window). */
void resetRegistry();
/** Snapshot the registry (after a measured window). */
RegistryValues readRegistry();
/** Counter or gauge value, 0 when the metric was never registered. */
double counterValue(const RegistryValues &values, const std::string &name);
/** Histogram sample, empty when absent. */
aiwc::obs::MetricSample histogramValue(const RegistryValues &values,
                                       const std::string &name);

/**
 * Everything a run reports: operations and output checks (the base of
 * failed_ratio) and named metrics with units.
 */
class Report
{
  public:
    /** Count one operation into the program; false marks it failed. */
    void op(bool ok);
    /** Count and print one output check with the base it covers. */
    bool check(const std::string &what, bool ok, const std::string &detail);
    void metric(const std::string &name, double value,
                const std::string &unit);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Print every metric, failed_ratio and the final JSON line. */
    void finish() const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::pair<std::string, Value>> metrics_;
};

/**
 * State handed to a workload's pass: the options, the spans (enabled
 * only in traced passes) and the report its checks write to.
 */
struct Context
{
    const Options &options;
    Spans &spans;
    Report &report;
};

/** What one pass did: units of work completed and the time they took. */
struct PassResult
{
    /** Wall time of the work a user waits for; checks are excluded. */
    double ms = 0.0;
    /** Jobs, records or cells completed. */
    double work = 0.0;
};

/** One benchmark workload over the public libaiwc API. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Builds the inputs from the seed; timed as setup_s. Idempotent. */
    virtual void setup(Context &ctx) = 0;
    /**
     * One pass. @p input numbers the pass's input for workloads whose
     * passes each take a new input (variesInput()); passes given the
     * same number must produce the same output.
     */
    virtual PassResult pass(Context &ctx, std::size_t input) = 0;
    /** True when each pass input is a fresh draw from the seed. */
    virtual bool variesInput() const { return false; }
    /** Name of the throughput for this workload, e.g. study_jobs_per_s. */
    virtual const char *throughputName() const = 0;
    /** Mean |ln(measured/paper)| over the paper targets the outputs carry. */
    virtual double paperLogErr() const = 0;
    /** Checks that need the whole run, after the timed passes. */
    virtual void finalChecks(Context &ctx) = 0;
    /**
     * Per-layer metrics of a traced run. @p untraced_ms is the median
     * untraced pass; @p spans_ms holds each span name's median total
     * over the traced passes and @p registry the registry deltas of the
     * last traced pass.
     */
    virtual void layerMetrics(Context &ctx, double untraced_ms,
                              const std::map<std::string, double> &spans_ms,
                              const RegistryValues &registry) = 0;
};

std::unique_ptr<Workload> makeStudy();
std::unique_ptr<Workload> makeAnalyze();
std::unique_ptr<Workload> makeIngest();
std::unique_ptr<Workload> makeSweep();

/** One measured-vs-paper quantity for paper_log_err. */
struct PaperTerm
{
    const char *name;
    double measured;
    double paper;
};

/**
 * The eleven analyzer calls behind ReportWriter::printFullStudy and
 * their render, each in its own span (core.<analyzer>, core.render).
 * Returns the report text; @p terms receives the paper-target terms.
 */
std::string renderFullStudy(Context &ctx, const aiwc::core::Dataset &ds,
                            std::vector<PaperTerm> &terms);

/** Terms of Figs 3a, 4a, 9, 13 and 15 from the batch analyzer reports. */
std::vector<PaperTerm> batchPaperTerms(
    const aiwc::core::ServiceTimeReport &service,
    const aiwc::core::UtilizationReport &util,
    const aiwc::core::PowerReport &power,
    const aiwc::core::MultiGpuReport &multi,
    const aiwc::core::LifecycleReport &lifecycle);

/** Terms of Figs 3a, 4a and 9 from a streaming snapshot. */
std::vector<PaperTerm> snapshotPaperTerms(
    const aiwc::stream::SnapshotReport &snap);

/**
 * Mean |ln(measured/paper)| over the terms with a positive, finite
 * measurement; prints how many terms that was.
 */
double paperLogErr(const std::vector<PaperTerm> &terms);

/**
 * A study pooled from @p draws independent syntheses at @p scale
 * (TraceSynthesizer::runReplicates, so draw 0 is the seed itself), with
 * job ids renumbered and each draw's users offset so no two draws share
 * a user. One small synthesis has only ~10 users, and which users the
 * seed draws sets most of a trace's cost; pooling draws averages that.
 */
aiwc::core::Dataset synthesizePool(std::uint64_t seed, double scale,
                                   int draws);

/** Closure line: the layer spans summed against the untraced pass. */
void reportClosure(Context &ctx, const std::string &parts, double sum_ms,
                   double untraced_ms);

} // namespace perfbench
