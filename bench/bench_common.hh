/**
 * @file
 * Shared harness for the figure-reproduction benches.
 *
 * Every bench binary does two things:
 *  1. prints the series its paper figure plots, with a `paper` column
 *     beside the `measured` column (shape match, not absolute match);
 *  2. registers google-benchmark timers for the analyzer kernels that
 *     produce those series.
 *
 * The synthetic study is built once per binary. Scale and seed come
 * from AIWC_BENCH_SCALE / AIWC_BENCH_SEED (defaults 0.15 / 2022 — a
 * ~19-day slice of the 125-day study, enough for stable medians).
 */

#ifndef AIWC_BENCH_BENCH_COMMON_HH
#define AIWC_BENCH_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "aiwc/common/parallel.hh"
#include "aiwc/common/table.hh"
#include "aiwc/core/paper_targets.hh"
#include "aiwc/obs/metrics.hh"
#include "aiwc/workload/trace_synthesizer.hh"

namespace aiwc::bench
{

/**
 * Consume a `--threads N` / `--threads=N` flag (if present) and size
 * the global pool accordingly before any analyzer runs. Called by
 * AIWC_BENCH_MAIN ahead of benchmark::Initialize so the flag never
 * reaches google-benchmark's own parser.
 */
inline void
applyThreadFlag(int *argc, char **argv)
{
    int threads = 0;
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < *argc) {
            threads = std::atoi(argv[++i]);
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = std::atoi(arg.c_str() + 10);
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
    if (threads > 0)
        setGlobalThreadCount(threads);
}

inline double
benchScale()
{
    if (const char *env = std::getenv("AIWC_BENCH_SCALE"))
        return std::atof(env);
    return 0.15;
}

inline std::uint64_t
benchSeed()
{
    if (const char *env = std::getenv("AIWC_BENCH_SEED"))
        return std::strtoull(env, nullptr, 10);
    return 2022;
}

/** The shared synthetic study (built on first use). */
inline const workload::SynthesisResult &
trace()
{
    static const workload::SynthesisResult result = [] {
        workload::SynthesisOptions options;
        options.scale = benchScale();
        options.seed = benchSeed();
        const auto profile = workload::CalibrationProfile::supercloud();
        return workload::TraceSynthesizer(profile, options).run();
    }();
    return result;
}

inline const core::Dataset &
dataset()
{
    return trace().dataset;
}

/** Paper-vs-measured comparison table. */
class Comparison
{
  public:
    explicit Comparison(std::string title)
        : title_(std::move(title)),
          table_({"quantity", "paper", "measured"})
    {
    }

    void
    row(const std::string &quantity, double paper_value,
        double measured, int precision = 1)
    {
        table_.addRow({quantity, formatNumber(paper_value, precision),
                       formatNumber(measured, precision)});
    }

    void
    rowText(const std::string &quantity, const std::string &paper_value,
            const std::string &measured)
    {
        table_.addRow({quantity, paper_value, measured});
    }

    void
    print(std::ostream &os) const
    {
        os << "== " << title_ << " ==\n";
        table_.print(os);
        os << '\n';
    }

  private:
    std::string title_;
    TextTable table_;
};

/** Banner with the synthesis configuration. */
inline void
printBanner(std::ostream &os, const char *figure)
{
    const auto &result = trace();
    os << "aiwc reproduction bench: " << figure << "\n"
       << "synthetic study: scale " << benchScale() << ", seed "
       << benchSeed() << ", " << result.dataset.size() << " jobs ("
       << result.dataset.gpuJobIndices().size() << " GPU jobs >= 30 s), "
       << result.num_users << " users, " << result.cluster_nodes
       << " nodes\n"
       << "analysis threads: " << globalThreadCount() << "\n\n";
}

// ---------------------------------------------------------------------
// BENCH_report.json: the machine-readable perf trajectory.
//
// Passing `--json[=path]` to any bench binary writes a report with the
// per-bench wall times, the synthesis configuration, the git SHA, the
// thread count, and a full metrics-registry snapshot. scripts/
// bench_compare.py diffs two reports and flags regressions; CI's
// perf-smoke job runs it against bench/baseline.json.
// ---------------------------------------------------------------------

/** One timed entry of the report. */
struct ReportEntry
{
    std::string name;
    double wall_ms = 0.0;
    /** Timed-kernel executions per second (1000 / wall_ms). */
    double throughput = 0.0;
};

/** Report output path; empty when --json was not given. */
inline std::string &
reportPath()
{
    static std::string path;
    return path;
}

inline std::vector<ReportEntry> &
reportEntries()
{
    static std::vector<ReportEntry> entries;
    return entries;
}

/** Extra top-level report fields (value is raw JSON). */
inline std::map<std::string, std::string> &
reportExtras()
{
    static std::map<std::string, std::string> extras;
    return extras;
}

/**
 * Consume a `--json` / `--json=path` flag. Bare `--json` writes to
 * AIWC_BENCH_REPORT (else ./BENCH_report.json). Called by
 * AIWC_BENCH_MAIN ahead of benchmark::Initialize, like --threads.
 */
inline void
applyReportFlag(int *argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            const char *env = std::getenv("AIWC_BENCH_REPORT");
            reportPath() = (env != nullptr && *env != '\0')
                               ? env
                               : "BENCH_report.json";
        } else if (arg.rfind("--json=", 0) == 0) {
            reportPath() = arg.substr(7);
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
}

inline void
addReportEntry(std::string name, double wall_ms)
{
    ReportEntry entry;
    entry.name = std::move(name);
    entry.wall_ms = wall_ms;
    entry.throughput = wall_ms > 0.0 ? 1000.0 / wall_ms : 0.0;
    reportEntries().push_back(std::move(entry));
}

/** Git SHA: AIWC_GIT_SHA env, else the configure-time compile define. */
inline std::string
gitSha()
{
    if (const char *env = std::getenv("AIWC_GIT_SHA"))
        return env;
#ifdef AIWC_GIT_SHA
    return AIWC_GIT_SHA;
#else
    return "unknown";
#endif
}

/** Shortest round-trippable formatting for report numbers. */
inline std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Trim to the shortest representation that still parses back.
    for (int precision = 1; precision < 17; ++precision) {
        char shorter[32];
        std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
        if (std::atof(shorter) == v)
            return shorter;
    }
    return buf;
}

/**
 * Write BENCH_report.json if --json was given. @return false on I/O
 * failure (also prints a diagnostic).
 */
inline bool
writeBenchReport(const char *bench_name)
{
    if (reportPath().empty())
        return true;
    std::ofstream os(reportPath());
    if (!os) {
        std::cerr << "cannot open bench report '" << reportPath()
                  << "'\n";
        return false;
    }
    os << "{\"schema\":\"aiwc-bench-report-v1\""
       << ",\"bench\":\"" << bench_name << '"'
       << ",\"git_sha\":\"" << gitSha() << '"'
       << ",\"threads\":" << globalThreadCount()
       << ",\"scale\":" << jsonNumber(benchScale())
       << ",\"seed\":" << benchSeed();
    for (const auto &[key, raw] : reportExtras())
        os << ",\"" << key << "\":" << raw;
    os << ",\"entries\":[";
    bool first = true;
    for (const ReportEntry &e : reportEntries()) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"" << e.name << "\",\"wall_ms\":"
           << jsonNumber(e.wall_ms) << ",\"throughput\":"
           << jsonNumber(e.throughput) << '}';
    }
    os << "],\"metrics\":";
    obs::MetricsRegistry::global().writeJson(os);
    os << "}\n";
    os.flush();
    if (!os) {
        std::cerr << "failed writing bench report '" << reportPath()
                  << "'\n";
        return false;
    }
    std::cout << "wrote bench report to " << reportPath() << "\n";
    return true;
}

/**
 * Console reporter that also captures every iteration run into the
 * JSON report (name, per-iteration wall ms).
 */
class CapturingReporter : public ::benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred || run.iterations <= 0) {
                continue;
            }
            // real_accumulated_time is seconds over all iterations.
            const double ms = run.real_accumulated_time /
                              static_cast<double>(run.iterations) * 1e3;
            addReportEntry(run.benchmark_name(), ms);
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

} // namespace aiwc::bench

/**
 * Bench main: print the figure comparison, then run the registered
 * google-benchmark timers (suppressible with AIWC_BENCH_SKIP_TIMING).
 * With `--json[=path]`, also write the BENCH_report.json described
 * above.
 */
#define AIWC_BENCH_MAIN(figure_name, print_fn)                            \
    int main(int argc, char **argv)                                      \
    {                                                                     \
        ::aiwc::bench::applyThreadFlag(&argc, argv);                      \
        ::aiwc::bench::applyReportFlag(&argc, argv);                      \
        ::benchmark::Initialize(&argc, argv);                             \
        ::aiwc::bench::printBanner(std::cout, figure_name);               \
        print_fn(std::cout);                                              \
        if (!std::getenv("AIWC_BENCH_SKIP_TIMING")) {                     \
            if (::aiwc::bench::reportPath().empty()) {                    \
                ::benchmark::RunSpecifiedBenchmarks();                    \
            } else {                                                      \
                ::aiwc::bench::CapturingReporter reporter;                \
                ::benchmark::RunSpecifiedBenchmarks(&reporter);           \
            }                                                             \
        }                                                                 \
        const bool report_ok =                                            \
            ::aiwc::bench::writeBenchReport(figure_name);                 \
        ::benchmark::Shutdown();                                          \
        return report_ok ? 0 : 1;                                         \
    }

#endif // AIWC_BENCH_BENCH_COMMON_HH
