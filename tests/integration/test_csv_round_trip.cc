/**
 * @file
 * Whole-trace CSV round trip: a synthesized study exported with
 * Dataset::writeCsv and re-imported with loadDatasetCsv must yield the
 * same fleet-level analysis results — the guarantee that lets a real
 * production export drive the analyzers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "aiwc/core/csv_loader.hh"
#include "aiwc/core/lifecycle_analyzer.hh"
#include "aiwc/core/multi_gpu_analyzer.hh"
#include "aiwc/core/power_analyzer.hh"
#include "aiwc/core/service_time_analyzer.hh"
#include "aiwc/core/utilization_analyzer.hh"
#include "aiwc/workload/trace_synthesizer.hh"

namespace aiwc
{
namespace
{

struct Pair
{
    core::Dataset original;
    core::Dataset loaded;
};

const Pair &
datasets()
{
    static const Pair pair = [] {
        workload::SynthesisOptions options;
        options.scale = 0.03;
        options.seed = 77;
        const auto profile = workload::CalibrationProfile::supercloud();
        auto result = workload::TraceSynthesizer(profile, options).run();
        std::stringstream csv;
        result.dataset.writeCsv(csv);
        return Pair{std::move(result.dataset),
                    core::loadDatasetCsv(csv)};
    }();
    return pair;
}

TEST(CsvRoundTrip, SizesMatch)
{
    const auto &[original, loaded] = datasets();
    EXPECT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.gpuJobIndices(), original.gpuJobIndices());
    EXPECT_EQ(loaded.cpuJobIndices(), original.cpuJobIndices());
    EXPECT_EQ(loaded.uniqueUsers(), original.uniqueUsers());
}

TEST(CsvRoundTrip, ServiceTimesIdentical)
{
    const auto &[original, loaded] = datasets();
    const auto a = core::ServiceTimeAnalyzer().analyze(original);
    const auto b = core::ServiceTimeAnalyzer().analyze(loaded);
    for (double q : {0.25, 0.5, 0.75, 0.9}) {
        EXPECT_NEAR(b.gpu_runtime_min.quantile(q),
                    a.gpu_runtime_min.quantile(q),
                    0.01 * std::max(1.0, a.gpu_runtime_min.quantile(q)));
        EXPECT_NEAR(b.gpu_wait_s.quantile(q), a.gpu_wait_s.quantile(q),
                    0.2);
    }
}

TEST(CsvRoundTrip, UtilizationMediansAgree)
{
    const auto &[original, loaded] = datasets();
    const auto a = core::UtilizationAnalyzer().analyze(original);
    const auto b = core::UtilizationAnalyzer().analyze(loaded);
    EXPECT_NEAR(b.sm_pct.quantile(0.5), a.sm_pct.quantile(0.5), 0.1);
    EXPECT_NEAR(b.membw_pct.quantile(0.5), a.membw_pct.quantile(0.5),
                0.1);
    EXPECT_NEAR(b.memsize_pct.quantile(0.5),
                a.memsize_pct.quantile(0.5), 0.1);
    EXPECT_NEAR(b.fractionAbove(Resource::Sm, 50.0),
                a.fractionAbove(Resource::Sm, 50.0), 0.005);
}

TEST(CsvRoundTrip, LifecycleMixIdentical)
{
    const auto &[original, loaded] = datasets();
    const auto a = core::LifecycleAnalyzer().analyze(original);
    const auto b = core::LifecycleAnalyzer().analyze(loaded);
    for (int c = 0; c < num_lifecycles; ++c) {
        EXPECT_NEAR(b.job_mix[static_cast<std::size_t>(c)],
                    a.job_mix[static_cast<std::size_t>(c)], 1e-9);
        EXPECT_NEAR(b.hour_mix[static_cast<std::size_t>(c)],
                    a.hour_mix[static_cast<std::size_t>(c)], 1e-4);
    }
}

TEST(CsvRoundTrip, PowerCapImpactAgrees)
{
    const auto &[original, loaded] = datasets();
    const auto a = core::PowerAnalyzer().analyze(original);
    const auto b = core::PowerAnalyzer().analyze(loaded);
    ASSERT_EQ(a.caps.size(), b.caps.size());
    for (std::size_t i = 0; i < a.caps.size(); ++i) {
        // CSV rounds power to 0.1 W; jobs sitting exactly on a cap
        // boundary may flip, so allow a sliver of reclassification.
        EXPECT_NEAR(b.caps[i].unimpacted, a.caps[i].unimpacted, 0.01);
        EXPECT_NEAR(b.caps[i].impacted_by_avg,
                    a.caps[i].impacted_by_avg, 0.01);
    }
}

TEST(CsvRoundTrip, MultiGpuSharesAgree)
{
    const auto &[original, loaded] = datasets();
    const auto a = core::MultiGpuAnalyzer().analyze(original);
    const auto b = core::MultiGpuAnalyzer().analyze(loaded);
    for (int s = 0; s < core::num_size_buckets; ++s) {
        EXPECT_NEAR(b.job_fraction[static_cast<std::size_t>(s)],
                    a.job_fraction[static_cast<std::size_t>(s)], 1e-9);
        EXPECT_NEAR(b.hour_fraction[static_cast<std::size_t>(s)],
                    a.hour_fraction[static_cast<std::size_t>(s)], 2e-3);
    }
    // Documented loss: per-GPU detail collapses to the average, so
    // only jobs whose *average* is idle (all GPUs quiet) remain
    // detectable — the half-idle pathology of Fig. 14 is invisible.
    EXPECT_LT(b.idle_gpu_job_fraction, a.idle_gpu_job_fraction);
}

} // namespace
} // namespace aiwc
