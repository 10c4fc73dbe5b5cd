#include "bench.hh"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "aiwc/core/paper_targets.hh"
#include "aiwc/core/report_writer.hh"
#include "aiwc/stream/snapshot.hh"
#include "aiwc/workload/trace_synthesizer.hh"

namespace perfbench
{

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
heapBytes()
{
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
}

// ---- spans ----------------------------------------------------------

Spans::Scope::Scope(Spans &spans, const char *name) : spans_(spans)
{
    if (!spans_.enabled_)
        return;
    const int parent = spans_.open_.empty() ? -1 : spans_.open_.back();
    index_ = static_cast<int>(spans_.spans_.size());
    spans_.spans_.push_back({name, nowMs(), 0.0, parent});
    spans_.open_.push_back(index_);
}

Spans::Scope::~Scope()
{
    if (index_ < 0)
        return;
    spans_.spans_[static_cast<std::size_t>(index_)].end_ms = nowMs();
    spans_.open_.pop_back();
}

void
Spans::beginPass()
{
    pass_begin_ = spans_.size();
}

std::map<std::string, double>
Spans::passTotals() const
{
    std::map<std::string, double> totals;
    for (std::size_t i = pass_begin_; i < spans_.size(); ++i)
        totals[spans_[i].name] += spans_[i].end_ms - spans_[i].start_ms;
    return totals;
}

void
Spans::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start_ms;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << (s.start_ms - origin) * 1000.0
           << ",\"dur\":" << (s.end_ms - s.start_ms) * 1000.0
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << "}}";
    }
    os << "\n]}\n";
}

// ---- registry -------------------------------------------------------

void
resetRegistry()
{
    aiwc::obs::MetricsRegistry::global().resetValues();
}

RegistryValues
readRegistry()
{
    RegistryValues values;
    for (auto &sample : aiwc::obs::MetricsRegistry::global().snapshot())
        values[sample.name] = sample;
    return values;
}

double
counterValue(const RegistryValues &values, const std::string &name)
{
    const auto it = values.find(name);
    return it == values.end() ? 0.0
                              : static_cast<double>(it->second.value);
}

aiwc::obs::MetricSample
histogramValue(const RegistryValues &values, const std::string &name)
{
    const auto it = values.find(name);
    return it == values.end() ? aiwc::obs::MetricSample{} : it->second;
}

// ---- report ---------------------------------------------------------

void
Report::op(bool ok)
{
    ++attempted_;
    failed_ += ok ? 0 : 1;
}

bool
Report::check(const std::string &what, bool ok, const std::string &detail)
{
    op(ok);
    std::cout << "check " << (ok ? "PASS" : "FAIL") << ": " << what << " ("
              << detail << ")\n";
    return ok;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

void
Report::finish() const
{
    char buf[64];
    for (const auto &[name, v] : metrics_) {
        std::snprintf(buf, sizeof buf, "%.6g", v.value);
        std::cout << "  " << name << " = " << buf << ' ' << v.unit << '\n';
    }
    std::cout << "  failed_ratio = " << failed_ << '/' << attempted_
              << " (failed operations and checks / attempted)\n";

    std::ostringstream json;
    json << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const auto &[name, v] = metrics_[i];
        const double value = std::isfinite(v.value) ? v.value : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", value);
        json << (i ? ", " : "") << '"' << name << "\": {\"value\": " << buf
             << ", \"unit\": \"" << v.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
}

// ---- full-study render ----------------------------------------------

std::string
renderFullStudy(Context &ctx, const aiwc::core::Dataset &ds,
                std::vector<PaperTerm> &terms)
{
    using namespace aiwc::core;
    std::ostringstream os;
    const ReportWriter writer(os);
    // Same calls, in the same order, as ReportWriter::printFullStudy.
    const auto analyzeAndPrint = [&](const char *span, auto &&analyze) {
        auto report = [&] {
            Spans::Scope s(ctx.spans, span);
            return analyze();
        }();
        Spans::Scope s(ctx.spans, "core.render");
        writer.print(report);
        return report;
    };
    analyzeAndPrint("core.timeline",
                    [&] { return TimelineAnalyzer().analyze(ds); });
    const auto service = analyzeAndPrint(
        "core.service_time", [&] { return ServiceTimeAnalyzer().analyze(ds); });
    const auto util = analyzeAndPrint(
        "core.utilization", [&] { return UtilizationAnalyzer().analyze(ds); });
    analyzeAndPrint("core.utilization_by_interface", [&] {
        return UtilizationAnalyzer().analyzeByInterface(ds);
    });
    analyzeAndPrint("core.phase", [&] { return PhaseAnalyzer().analyze(ds); });
    analyzeAndPrint("core.bottleneck",
                    [&] { return BottleneckAnalyzer().analyze(ds); });
    const auto power = analyzeAndPrint(
        "core.power", [&] { return PowerAnalyzer().analyze(ds); });
    analyzeAndPrint("core.user_behavior",
                    [&] { return UserBehaviorAnalyzer().analyze(ds); });
    analyzeAndPrint("core.correlation",
                    [&] { return CorrelationAnalyzer().analyze(ds); });
    const auto multi = analyzeAndPrint(
        "core.multi_gpu", [&] { return MultiGpuAnalyzer().analyze(ds); });
    const auto lifecycle = analyzeAndPrint(
        "core.lifecycle", [&] { return LifecycleAnalyzer().analyze(ds); });
    terms = batchPaperTerms(service, util, power, multi, lifecycle);
    return os.str();
}

// ---- paper fidelity -------------------------------------------------

std::vector<PaperTerm>
batchPaperTerms(const aiwc::core::ServiceTimeReport &service,
                const aiwc::core::UtilizationReport &util,
                const aiwc::core::PowerReport &power,
                const aiwc::core::MultiGpuReport &multi,
                const aiwc::core::LifecycleReport &lifecycle)
{
    namespace paper = aiwc::core::paper;
    using aiwc::Resource;
    const auto mature = static_cast<std::size_t>(aiwc::Lifecycle::Mature);
    const auto explo =
        static_cast<std::size_t>(aiwc::Lifecycle::Exploratory);
    const auto dev = static_cast<std::size_t>(aiwc::Lifecycle::Development);
    const auto ide = static_cast<std::size_t>(aiwc::Lifecycle::Ide);
    // Bounds stated as "at least"/"at most" in the paper and the queue
    // waits (which may measure 0 s) are not point targets; they stay out.
    return {
        {"fig3a.gpu_runtime_p25_min", service.gpu_runtime_min.quantile(0.25),
         paper::gpu_runtime_p25_min},
        {"fig3a.gpu_runtime_p50_min", service.gpu_runtime_min.quantile(0.50),
         paper::gpu_runtime_p50_min},
        {"fig3a.gpu_runtime_p75_min", service.gpu_runtime_min.quantile(0.75),
         paper::gpu_runtime_p75_min},
        {"fig3a.cpu_runtime_p50_min", service.cpu_runtime_min.quantile(0.50),
         paper::cpu_runtime_p50_min},
        {"fig4a.sm_median_pct", util.sm_pct.quantile(0.5),
         paper::sm_util_median_pct},
        {"fig4a.membw_median_pct", util.membw_pct.quantile(0.5),
         paper::membw_util_median_pct},
        {"fig4a.memsize_median_pct", util.memsize_pct.quantile(0.5),
         paper::memsize_util_median_pct},
        {"fig4a.sm_over_50", util.fractionAbove(Resource::Sm, 50.0),
         paper::sm_over_50_frac},
        {"fig4a.membw_over_50", util.fractionAbove(Resource::MemoryBw, 50.0),
         paper::membw_over_50_frac},
        {"fig4a.memsize_over_50",
         util.fractionAbove(Resource::MemorySize, 50.0),
         paper::memsize_over_50_frac},
        {"fig9.avg_w_median", power.avg_watts.quantile(0.5),
         paper::power_avg_median_w},
        {"fig9.max_w_median", power.max_watts.quantile(0.5),
         paper::power_max_median_w},
        {"fig13.single_gpu_jobs", multi.job_fraction[0],
         paper::single_gpu_job_frac},
        {"fig13.over2_gpu_jobs", multi.job_fraction[2] + multi.job_fraction[3],
         paper::over2_gpu_job_frac},
        {"fig13.multi_gpu_hours", 1.0 - multi.hour_fraction[0],
         paper::multi_gpu_hour_share},
        {"fig13.users_multi", multi.users_multi, paper::users_with_multi_gpu},
        {"fig13.users_3plus", multi.users_3plus, paper::users_with_3plus_gpu},
        {"fig13.users_9plus", multi.users_9plus, paper::users_with_9plus_gpu},
        {"fig13.idle_gpu_jobs", multi.idle_gpu_job_fraction,
         paper::multi_gpu_idle_frac},
        {"fig15.mature_jobs", lifecycle.job_mix[mature],
         paper::mature_job_frac},
        {"fig15.exploratory_jobs", lifecycle.job_mix[explo],
         paper::exploratory_job_frac},
        {"fig15.development_jobs", lifecycle.job_mix[dev],
         paper::development_job_frac},
        {"fig15.ide_jobs", lifecycle.job_mix[ide], paper::ide_job_frac},
        {"fig15.mature_hours", lifecycle.hour_mix[mature],
         paper::mature_hour_frac},
        {"fig15.exploratory_hours", lifecycle.hour_mix[explo],
         paper::exploratory_hour_frac},
        {"fig15.ide_hours", lifecycle.hour_mix[ide], paper::ide_hour_frac},
        {"fig15.mature_runtime_min", lifecycle.median_runtime_min[mature],
         paper::mature_runtime_median_min},
        {"fig15.exploratory_runtime_min",
         lifecycle.median_runtime_min[explo],
         paper::exploratory_runtime_median_min},
    };
}

std::vector<PaperTerm>
snapshotPaperTerms(const aiwc::stream::SnapshotReport &snap)
{
    namespace paper = aiwc::core::paper;
    return {
        {"fig3a.gpu_runtime_p25_min", snap.gpu_runtime_min.quantile(0.25),
         paper::gpu_runtime_p25_min},
        {"fig3a.gpu_runtime_p50_min", snap.gpu_runtime_min.quantile(0.50),
         paper::gpu_runtime_p50_min},
        {"fig3a.gpu_runtime_p75_min", snap.gpu_runtime_min.quantile(0.75),
         paper::gpu_runtime_p75_min},
        {"fig3a.cpu_runtime_p50_min", snap.cpu_runtime_min.quantile(0.50),
         paper::cpu_runtime_p50_min},
        {"fig4a.sm_median_pct", snap.sm_pct.quantile(0.5),
         paper::sm_util_median_pct},
        {"fig4a.membw_median_pct", snap.membw_pct.quantile(0.5),
         paper::membw_util_median_pct},
        {"fig4a.memsize_median_pct", snap.memsize_pct.quantile(0.5),
         paper::memsize_util_median_pct},
        {"fig4a.sm_over_50", snap.sm_pct.tail(50.0), paper::sm_over_50_frac},
        {"fig4a.membw_over_50", snap.membw_pct.tail(50.0),
         paper::membw_over_50_frac},
        {"fig4a.memsize_over_50", snap.memsize_pct.tail(50.0),
         paper::memsize_over_50_frac},
        {"fig9.avg_w_median", snap.avg_watts.quantile(0.5),
         paper::power_avg_median_w},
        {"fig9.max_w_median", snap.max_watts.quantile(0.5),
         paper::power_max_median_w},
    };
}

double
paperLogErr(const std::vector<PaperTerm> &terms)
{
    double sum = 0.0;
    int used = 0;
    for (const PaperTerm &t : terms) {
        if (!(t.measured > 0.0) || !std::isfinite(t.measured))
            continue;
        sum += std::fabs(std::log(t.measured / t.paper));
        ++used;
    }
    std::cout << "paper_log_err over " << used << '/' << terms.size()
              << " paper-target terms\n";
    return used == 0 ? 0.0 : sum / used;
}

aiwc::core::Dataset
synthesizePool(std::uint64_t seed, double scale, int draws)
{
    aiwc::workload::SynthesisOptions options;
    options.seed = seed;
    options.scale = scale;
    std::vector<aiwc::core::JobRecord> records;
    aiwc::UserId user_base = 0;
    for (auto &draw : aiwc::workload::TraceSynthesizer(
                          aiwc::workload::CalibrationProfile::supercloud(),
                          options)
                          .runReplicates(draws)) {
        aiwc::UserId users = 0;
        for (const aiwc::core::JobRecord &rec : draw.dataset.records()) {
            aiwc::core::JobRecord copy = rec;
            copy.id = static_cast<aiwc::JobId>(records.size());
            copy.user = rec.user + user_base;
            users = std::max(users, copy.user + 1);
            records.push_back(std::move(copy));
        }
        user_base = std::max(user_base, users);
    }
    return aiwc::core::Dataset(std::move(records));
}

void
reportClosure(Context &ctx, const std::string &parts, double sum_ms,
              double untraced_ms)
{
    const double gap_pct = (untraced_ms - sum_ms) / untraced_ms * 100.0;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "closure: %.1f ms of layer spans vs %.1f ms untraced "
                  "pass, gap %.2f%%",
                  sum_ms, untraced_ms, gap_pct);
    std::cout << buf << " [" << parts << "]\n";
    ctx.report.metric("obs.closure_gap_pct", gap_pct, "%");
}

} // namespace perfbench
