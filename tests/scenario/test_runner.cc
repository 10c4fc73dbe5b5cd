/**
 * @file
 * Sweep runner and frontier report tests: cell layout, Pareto
 * dominance, thread-count byte-identity, and a golden frontier fixture
 * that pins the aiwc-scenario-frontier-v1 bytes — any accidental
 * change to the engine, the typing draw, or the JSON writer shows up
 * as a golden diff here before it shows up as a broken CI digest.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "aiwc/common/parallel.hh"
#include "aiwc/scenario/runner.hh"

#include "../core/record_builder.hh"

namespace aiwc::scenario
{
namespace
{

using core::testing::cpuRecord;
using core::testing::gpuRecord;

CellResult
cellAt(double joules, double violation_rate)
{
    CellResult cell;
    cell.stats.joules = joules;
    cell.stats.violation_rate = violation_rate;
    return cell;
}

TEST(ParetoFrontier, KeepsOnlyUndominatedCells)
{
    // (10, 0.5) and (20, 0.1) trade off; (30, 0.6) is dominated by both.
    const std::vector<CellResult> cells = {
        cellAt(20.0, 0.1), cellAt(30.0, 0.6), cellAt(10.0, 0.5)};
    const std::vector<std::size_t> frontier = paretoFrontier(cells);
    ASSERT_EQ(frontier.size(), 2u);
    // Sorted by joules: cell 2 (10 J) before cell 0 (20 J).
    EXPECT_EQ(frontier[0], 2u);
    EXPECT_EQ(frontier[1], 0u);
}

TEST(ParetoFrontier, ExactTiesKeepTheEarliestCell)
{
    const std::vector<CellResult> cells = {
        cellAt(10.0, 0.5), cellAt(10.0, 0.5), cellAt(10.0, 0.5)};
    const std::vector<std::size_t> frontier = paretoFrontier(cells);
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(frontier[0], 0u);
}

TEST(ParetoFrontier, SingleCellIsAlwaysOnTheFrontier)
{
    EXPECT_EQ(paretoFrontier({cellAt(5.0, 1.0)}).size(), 1u);
    EXPECT_TRUE(paretoFrontier({}).empty());
}

/** A small deterministic dataset: ids fixed, shapes varied. */
core::Dataset
sweepDataset()
{
    std::vector<core::JobRecord> records;
    for (std::uint32_t i = 1; i <= 30; ++i) {
        if (i % 3 == 0)
            records.push_back(
                gpuRecord(i, 500 + i, 300.0 + 20.0 * i, 1 + i % 2));
        else
            records.push_back(cpuRecord(i, 400 + i, 60.0 + 10.0 * i));
    }
    return core::Dataset(std::move(records));
}

ScenarioSpec
sweepSpec()
{
    ScenarioSpec spec;
    spec.name = "runner-test";
    MachineClassSpec big;
    big.name = "big";
    big.count = 16;
    big.cores = 96;
    big.memory_gb = 384.0;
    big.gpus = 2;
    big.gpu_tdp_watts = 300.0;
    MachineClassSpec small;
    small.name = "small";
    small.count = 4;
    small.cores = 32;
    small.memory_gb = 128.0;
    small.cpu = CpuIsa::Arm;
    spec.machines = {big, small};
    return spec;
}

TEST(Runner, CellLayoutIsClassMajorThenMixThenPolicy)
{
    const ScenarioRunner runner(sweepSpec(), {});
    const GreedyPackPolicy greedy;
    const LoadBalancePolicy balance;
    const std::vector<const SchedulingPolicy *> policies{&greedy, &balance};
    const std::vector<TaskMix> mixes = {defaultTaskMixes()[0],
                                        defaultTaskMixes()[1]};
    const FrontierReport report =
        runner.sweep(sweepDataset(), mixes, policies);
    ASSERT_EQ(report.cells.size(), 8u);  // 2 classes x 2 mixes x 2 policies
    EXPECT_EQ(report.scenario, "runner-test");
    // i = (cls * n_mix + mix) * n_pol + pol.
    EXPECT_EQ(report.cells[0].machine_class, "big");
    EXPECT_EQ(report.cells[0].task_mix, "balanced");
    EXPECT_EQ(report.cells[0].policy, "greedy-pack");
    EXPECT_EQ(report.cells[1].policy, "load-balance");
    EXPECT_EQ(report.cells[2].task_mix, "web_heavy");
    EXPECT_EQ(report.cells[4].machine_class, "small");
    for (const CellResult &cell : report.cells)
        EXPECT_EQ(cell.stats.tasks, 30u);
    // Frontier indices are valid and sorted by joules.
    ASSERT_FALSE(report.frontier.empty());
    for (std::size_t i = 1; i < report.frontier.size(); ++i) {
        EXPECT_LT(report.frontier[i], report.cells.size());
        EXPECT_LE(report.cells[report.frontier[i - 1]].stats.joules,
                  report.cells[report.frontier[i]].stats.joules);
    }
}

TEST(Runner, OverlayIsSharedAcrossPolicySiblings)
{
    // Forty GPU jobs: the ai_heavy mix tags most of them accelerated,
    // so the slice holds the 10 GPU jobs an overlay needs.
    std::vector<core::JobRecord> records;
    for (std::uint32_t i = 1; i <= 40; ++i)
        records.push_back(
            gpuRecord(i, 500 + i, 300.0 + 20.0 * i, 1 + i % 2));
    const core::Dataset ds(std::move(records));
    const ScenarioRunner runner(sweepSpec(), {});
    const GreedyPackPolicy greedy;
    const LoadBalancePolicy balance;
    const std::vector<const SchedulingPolicy *> policies{&greedy, &balance};
    const std::vector<TaskMix> mixes = {defaultTaskMixes()[2]};  // ai_heavy
    const FrontierReport report = runner.sweep(ds, mixes, policies);
    ASSERT_EQ(report.cells.size(), 4u);
    // "big" has GPUs: its overlay computes and both policies carry it.
    EXPECT_TRUE(report.cells[0].overlay.computed);
    EXPECT_EQ(report.cells[0].overlay.computed,
              report.cells[1].overlay.computed);
    EXPECT_DOUBLE_EQ(report.cells[0].overlay.multi_tier_cost_saving,
                     report.cells[1].overlay.multi_tier_cost_saving);
    // "small" has no GPUs: overlay stays un-computed.
    EXPECT_FALSE(report.cells[2].overlay.computed);
}

TEST(Runner, ReportIsByteIdenticalAcrossThreadCounts)
{
    const ScenarioRunner runner(sweepSpec(), {});
    const GreedyPackPolicy greedy;
    const LoadBalancePolicy balance;
    const EnergyFirstPolicy energy;
    const std::vector<const SchedulingPolicy *> policies{&greedy, &balance,
                                                         &energy};
    const std::vector<TaskMix> mixes = defaultTaskMixes();

    setGlobalThreadCount(1);
    const std::string serial =
        runner.sweep(sweepDataset(), mixes, policies).toJson();
    setGlobalThreadCount(8);
    const std::string parallel =
        runner.sweep(sweepDataset(), mixes, policies).toJson();
    EXPECT_EQ(serial, parallel);
}

TEST(Runner, JsonCarriesTheSchemaAndWaitBlocks)
{
    const ScenarioRunner runner(sweepSpec(), {});
    const GreedyPackPolicy greedy;
    const std::vector<const SchedulingPolicy *> policies{&greedy};
    const std::vector<TaskMix> mixes = {defaultTaskMixes()[0]};
    const FrontierReport report =
        runner.sweep(sweepDataset(), mixes, policies);
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"schema\":\"aiwc-scenario-frontier-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"latency_sensitive\""), std::string::npos);
    EXPECT_NE(json.find("\"batch\""), std::string::npos);
    EXPECT_NE(json.find("\"scavenger\""), std::string::npos);
    EXPECT_NE(json.find("\"frontier\":["), std::string::npos);
    EXPECT_NE(json.find("\"overlay\""), std::string::npos);

    std::ostringstream table;
    report.printTable(table);
    EXPECT_NE(table.str().find("Frontier"), std::string::npos);
    EXPECT_NE(table.str().find("greedy-pack"), std::string::npos);
}

// The golden fixture: one tiny cell, bytes pinned. After an
// *intentional* model change, copy the actual JSON from the EXPECT_EQ
// failure diff into the golden string below.
TEST(Runner, GoldenFrontierBytes)
{
    ScenarioSpec spec;
    spec.name = "golden";
    MachineClassSpec cls;
    cls.name = "node";
    cls.count = 2;
    cls.cores = 8;
    cls.memory_gb = 64.0;
    spec.machines = {cls};
    SweepOptions options;
    options.seed = 7;
    options.machines_per_cell = 2;
    const ScenarioRunner runner(spec, options);

    std::vector<core::JobRecord> records;
    records.push_back(cpuRecord(1, 401, 120.0));
    records.push_back(cpuRecord(2, 402, 240.0));
    records.push_back(cpuRecord(3, 403, 360.0));
    // Shrink the shapes so they fit the 8-core golden node.
    for (core::JobRecord &r : records) {
        r.cpu_slots = 4;
        r.ram_gb = 16.0;
    }
    const core::Dataset ds(std::move(records));

    const GreedyPackPolicy greedy;
    const std::vector<const SchedulingPolicy *> policies{&greedy};
    const std::vector<TaskMix> mixes = {defaultTaskMixes()[0]};
    setGlobalThreadCount(1);
    const std::string json = runner.sweep(ds, mixes, policies).toJson();

    const std::string golden =
        R"({"schema":"aiwc-scenario-frontier-v1","scenario":"golden",)"
        R"("seed":7,"cells":[{"machine_class":"node","task_mix":"balanced",)"
        R"("policy":"greedy-pack","tasks":3,"finished":3,"dropped":0,)"
        R"("migrations":0,"wakes":2,"sla_violations":0,"violation_rate":0,)"
        R"("joules":1.356e+05,"kwh":0.03766666666666667,)"
        R"("makespan_s":4.6e+02,"mean_utilization":0.4891304347826087,)"
        R"("waits":{"latency_sensitive":{"tasks":1,"p50":1e+01,"p95":1e+01,)"
        R"("p99":1e+01},"batch":{"tasks":0,"p50":0,"p95":0,"p99":0},)"
        R"("scavenger":{"tasks":2,"p50":1e+01,"p95":1e+01,"p99":1e+01}},)"
        R"("overlay":{"computed":false,"power_cap_throughput_gain":0,)"
        R"("colocation_gpu_hours_saved":0,"multi_tier_cost_saving":0}}],)"
        R"("frontier":[0]})";
    EXPECT_EQ(json, golden);
}

} // namespace
} // namespace aiwc::scenario
