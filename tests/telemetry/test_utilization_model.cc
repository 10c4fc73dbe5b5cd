#include <gtest/gtest.h>

#include "aiwc/telemetry/utilization_model.hh"

namespace aiwc::telemetry
{
namespace
{

JobProfile
baseProfile()
{
    JobProfile p;
    p.sm_mean = 0.4;
    p.membw_mean = 0.08;
    p.memsize_mean = 0.2;
    p.pcie_tx_mean = 0.3;
    p.pcie_rx_mean = 0.25;
    p.phase_jitter_sigma = 0.15;
    return p;
}

TEST(UtilizationModel, ActiveLevelsAreBounded)
{
    const JobProfile p = baseProfile();
    const UtilizationModel model(p);
    Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        const PhaseLevels lv = model.activeLevels(1.0, rng);
        EXPECT_GE(lv.sm, 0.0);
        EXPECT_LE(lv.sm, natural_ceiling);
        EXPECT_LE(lv.membw, natural_ceiling);
        EXPECT_LE(lv.memsize, natural_ceiling);
        EXPECT_LE(lv.tx, natural_ceiling);
        EXPECT_LE(lv.rx, natural_ceiling);
    }
}

TEST(UtilizationModel, PhaseMeansAreUnbiased)
{
    const JobProfile p = baseProfile();
    const UtilizationModel model(p);
    Rng rng(2);
    double sm = 0.0, membw = 0.0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i) {
        const PhaseLevels lv = model.activeLevels(1.0, rng);
        sm += lv.sm;
        membw += lv.membw;
    }
    EXPECT_NEAR(sm / n, p.sm_mean, 0.01);
    EXPECT_NEAR(membw / n, p.membw_mean, 0.005);
}

TEST(UtilizationModel, GpuScaleShiftsLevels)
{
    const JobProfile p = baseProfile();
    const UtilizationModel model(p);
    Rng rng(3);
    double lo = 0.0, hi = 0.0;
    for (int i = 0; i < 20000; ++i) {
        lo += model.activeLevels(0.5, rng).sm;
        hi += model.activeLevels(1.5, rng).sm;
    }
    EXPECT_NEAR(hi / lo, 3.0, 0.15);
}

TEST(UtilizationModel, IdleLevelsQuiesceGpu)
{
    const JobProfile p = baseProfile();
    const UtilizationModel model(p);
    const PhaseLevels lv = model.idleLevels();
    EXPECT_DOUBLE_EQ(lv.sm, 0.0);
    EXPECT_DOUBLE_EQ(lv.membw, 0.0);
    // Allocations persist across idle phases.
    EXPECT_NEAR(lv.memsize, 0.85 * p.memsize_mean, 1e-12);
    EXPECT_LT(lv.tx, 0.01);
}

TEST(UtilizationModel, OutlivesATemporaryProfile)
{
    // The model keeps its own copy of the profile: drawing after the
    // temporary it was built from is gone must read the same levels
    // (ASan flags a use-after-scope if it held a reference).
    const UtilizationModel model(baseProfile());
    const JobProfile p = baseProfile();
    EXPECT_NEAR(model.idleLevels().memsize, 0.85 * p.memsize_mean, 1e-12);
    Rng rng(5);
    const PhaseLevels lv = model.activeLevels(1.0, rng);
    EXPECT_GT(lv.sm, 0.0);
    EXPECT_LE(lv.sm, natural_ceiling);
}

TEST(UtilizationModel, NoisySampleHandlesEdges)
{
    Rng rng(4);
    EXPECT_DOUBLE_EQ(UtilizationModel::noisySample(0.0, 0.1, rng), 0.0);
    EXPECT_DOUBLE_EQ(UtilizationModel::noisySample(-1.0, 0.1, rng), 0.0);
    for (int i = 0; i < 1000; ++i) {
        const double s = UtilizationModel::noisySample(0.95, 0.3, rng);
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, natural_ceiling);
    }
}

TEST(UtilizationModel, NaturalCeilingBelowSaturationThreshold)
{
    // The bottleneck analyzer uses 0.995: ordinary samples must stay
    // strictly below it so only injected saturation counts.
    EXPECT_LT(natural_ceiling, 0.995);
}

} // namespace
} // namespace aiwc::telemetry
