/**
 * @file
 * Parallel-scaling bench for the deterministic thread-pool helpers.
 *
 * Runs the heavier analysis kernels — the Fig. 12 correlation pass,
 * utilization, lifecycle, and the dataset filter itself — at 1/2/4/8
 * threads and reports wall-clock speedup relative to the single-thread
 * run. Every run also folds its report into an FNV-1a digest; the
 * digests must be identical across thread counts (the determinism
 * contract of parallelReduce), and the bench prints PASS/FAIL for it.
 *
 * Timing uses best-of-R std::chrono wall clock rather than
 * google-benchmark so the thread count can change between runs.
 */

#include "bench_common.hh"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "aiwc/core/correlation_analyzer.hh"
#include "aiwc/core/lifecycle_analyzer.hh"
#include "aiwc/core/utilization_analyzer.hh"

namespace
{

using namespace aiwc;

constexpr std::uint64_t fnv_offset = 1469598103934665603ull;
constexpr std::uint64_t fnv_prime = 1099511628211ull;

void
fold(std::uint64_t &h, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    for (const char *p = buf; *p; ++p)
        h = (h ^ static_cast<unsigned char>(*p)) * fnv_prime;
}

std::uint64_t
digestCorrelation(const core::Dataset &data)
{
    const auto report = core::CorrelationAnalyzer().analyze(data);
    std::uint64_t h = fnv_offset;
    for (const auto &f : report.by_jobs.features)
        fold(h, f.coefficient);
    for (const auto &f : report.by_gpu_hours.features)
        fold(h, f.coefficient);
    return h;
}

std::uint64_t
digestUtilization(const core::Dataset &data)
{
    const auto report = core::UtilizationAnalyzer().analyze(data);
    std::uint64_t h = fnv_offset;
    for (double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
        fold(h, report.sm_pct.quantile(q));
        fold(h, report.membw_pct.quantile(q));
        fold(h, report.memsize_pct.quantile(q));
    }
    return h;
}

std::uint64_t
digestLifecycle(const core::Dataset &data)
{
    const auto report = core::LifecycleAnalyzer().analyze(data);
    std::uint64_t h = fnv_offset;
    for (int c = 0; c < num_lifecycles; ++c) {
        const auto i = static_cast<std::size_t>(c);
        fold(h, report.job_mix[i]);
        fold(h, report.hour_mix[i]);
        fold(h, report.median_runtime_min[i]);
    }
    return h;
}

std::uint64_t
digestFilter(const core::Dataset &data)
{
    std::uint64_t h = fnv_offset;
    fold(h, static_cast<double>(data.gpuJobIndices().size()));
    fold(h, static_cast<double>(data.uniqueUsers()));
    fold(h, data.totalGpuHours());
    return h;
}

struct Kernel
{
    const char *name;
    std::function<std::uint64_t(const core::Dataset &)> run;
};

/** Best-of-R wall-clock milliseconds; folds digests into `digest`. */
double
timeKernel(const Kernel &kernel, const core::Dataset &data, int reps,
           std::uint64_t &digest)
{
    double best_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        digest = kernel.run(data);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (r == 0 || ms < best_ms)
            best_ms = ms;
    }
    return best_ms;
}

int
benchReps()
{
    if (const char *env = std::getenv("AIWC_BENCH_REPS"))
        return std::max(1, std::atoi(env));
    return 3;
}

} // namespace

using namespace aiwc;

int
main(int argc, char **argv)
{
    aiwc::bench::applyThreadFlag(&argc, argv);
    aiwc::bench::applyReportFlag(&argc, argv);
    aiwc::bench::printBanner(std::cout, "parallel scaling");

    const core::Dataset &data = aiwc::bench::dataset();
    const std::vector<Kernel> kernels = {
        {"fig12 correlation", digestCorrelation},
        {"fig04 utilization", digestUtilization},
        {"fig15 lifecycle", digestLifecycle},
        {"dataset filter", digestFilter},
    };
    const std::vector<int> thread_counts = {1, 2, 4, 8};
    const int reps = benchReps();

    bool deterministic = true;
    TextTable table({"kernel", "1T ms", "2T ms", "4T ms", "8T ms",
                     "speedup@4T", "speedup@8T"});
    for (const Kernel &kernel : kernels) {
        std::vector<double> ms;
        std::uint64_t base_digest = 0;
        for (std::size_t t = 0; t < thread_counts.size(); ++t) {
            setGlobalThreadCount(thread_counts[t]);
            std::uint64_t digest = 0;
            ms.push_back(timeKernel(kernel, data, reps, digest));
            aiwc::bench::addReportEntry(
                std::string(kernel.name) + "/" +
                    std::to_string(thread_counts[t]) + "T",
                ms.back());
            if (t == 0)
                base_digest = digest;
            else if (digest != base_digest)
                deterministic = false;
        }
        table.addRow({kernel.name, formatNumber(ms[0], 2),
                      formatNumber(ms[1], 2), formatNumber(ms[2], 2),
                      formatNumber(ms[3], 2),
                      formatNumber(ms[0] / ms[2], 2),
                      formatNumber(ms[0] / ms[3], 2)});
    }
    setGlobalThreadCount(1);

    std::cout << "== Parallel scaling (best of " << reps << ") ==\n";
    table.print(std::cout);
    std::cout << "\nhardware threads: " << aiwc::defaultThreadCount()
              << "\nthread-count invariance: "
              << (deterministic ? "PASS" : "FAIL")
              << " (FNV-1a digests identical across 1/2/4/8 threads)\n";

    aiwc::bench::reportExtras()["thread_invariance"] =
        deterministic ? "true" : "false";
    const bool report_ok =
        aiwc::bench::writeBenchReport("bench_parallel_scaling");
    return deterministic && report_ok ? 0 : 1;
}
