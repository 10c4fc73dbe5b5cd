/**
 * @file
 * Task-stream derivation tests: the typing draw must be a pure
 * function of (record content, mix, seed) — independent of record
 * order — and the synthetic expansion must be deterministic and
 * bounded. This is the property the CSV-vs-binary report identity
 * rests on.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "aiwc/scenario/workload.hh"

#include "../core/record_builder.hh"

namespace aiwc::scenario
{
namespace
{

using core::testing::cpuRecord;
using core::testing::gpuRecord;

core::Dataset
sampleDataset()
{
    std::vector<core::JobRecord> records;
    for (std::uint32_t i = 1; i <= 40; ++i) {
        if (i % 3 == 0)
            records.push_back(gpuRecord(i, 500 + i, 600.0 + i, 1 + i % 2));
        else
            records.push_back(cpuRecord(i, 400 + i, 120.0 + i));
    }
    return core::Dataset(std::move(records));
}

TEST(Workload, DefaultMixesAreTheFiveCanonicalOnes)
{
    const std::vector<TaskMix> mixes = defaultTaskMixes();
    ASSERT_EQ(mixes.size(), 5u);
    EXPECT_EQ(mixes[0].name, "balanced");
    EXPECT_EQ(mixes[1].name, "web_heavy");
    EXPECT_EQ(mixes[2].name, "ai_heavy");
    EXPECT_EQ(mixes[3].name, "stream_rt");
    EXPECT_EQ(mixes[4].name, "hpc_batch");
    for (const TaskMix &mix : mixes) {
        double total = 0.0;
        for (double w : mix.weights)
            total += w;
        EXPECT_NEAR(total, 1.0, 1e-9) << mix.name;
    }
}

TEST(Workload, DefaultSlaAndIsaMapping)
{
    EXPECT_EQ(defaultSlaFor(TaskType::Web), SlaClass::LatencySensitive);
    EXPECT_EQ(defaultSlaFor(TaskType::Stream), SlaClass::LatencySensitive);
    EXPECT_EQ(defaultSlaFor(TaskType::Ai), SlaClass::Batch);
    EXPECT_EQ(defaultSlaFor(TaskType::Hpc), SlaClass::Batch);
    EXPECT_EQ(defaultSlaFor(TaskType::Crypto), SlaClass::Scavenger);
    EXPECT_EQ(defaultIsaFor(TaskType::Hpc), CpuIsa::Power);
    EXPECT_EQ(defaultIsaFor(TaskType::Crypto), CpuIsa::Arm);
}

TEST(Workload, TasksFromDatasetIsDeterministic)
{
    const core::Dataset ds = sampleDataset();
    const TaskMix mix = defaultTaskMixes()[0];
    const std::vector<Task> a = tasksFromDataset(ds, mix, 2022);
    const std::vector<Task> b = tasksFromDataset(ds, mix, 2022);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].type, b[i].type);
        EXPECT_EQ(a[i].sla, b[i].sla);
        EXPECT_DOUBLE_EQ(a[i].expected_runtime, b[i].expected_runtime);
    }
}

TEST(Workload, TypingIsIndependentOfRecordOrder)
{
    const TaskMix mix = defaultTaskMixes()[0];
    const std::vector<Task> forward =
        tasksFromDataset(sampleDataset(), mix, 2022);

    core::Dataset ds = sampleDataset();
    std::vector<core::JobRecord> reversed(ds.records().begin(),
                                          ds.records().end());
    std::reverse(reversed.begin(), reversed.end());
    const std::vector<Task> backward =
        tasksFromDataset(core::Dataset(std::move(reversed)), mix, 2022);

    // Same records, any order: identical sorted task streams.
    ASSERT_EQ(forward.size(), backward.size());
    for (std::size_t i = 0; i < forward.size(); ++i) {
        EXPECT_EQ(forward[i].id, backward[i].id);
        EXPECT_EQ(forward[i].type, backward[i].type);
    }
}

TEST(Workload, SeedChangesTheDraw)
{
    const core::Dataset ds = sampleDataset();
    const TaskMix mix = defaultTaskMixes()[0];
    const std::vector<Task> a = tasksFromDataset(ds, mix, 1);
    const std::vector<Task> b = tasksFromDataset(ds, mix, 2);
    ASSERT_EQ(a.size(), b.size());
    bool any_different = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_different = any_different || a[i].type != b[i].type;
    EXPECT_TRUE(any_different);
}

TEST(Workload, DegenerateMixDrawsOnlyThatType)
{
    const core::Dataset ds = sampleDataset();
    TaskMix mix;
    mix.name = "all-crypto";
    mix.weights = {0.0, 0.0, 1.0, 0.0, 0.0};
    for (const Task &t : tasksFromDataset(ds, mix, 7)) {
        EXPECT_EQ(t.type, TaskType::Crypto);
        EXPECT_EQ(t.sla, SlaClass::Scavenger);
    }
}

TEST(Workload, NegativeWeightsAreIgnored)
{
    const core::Dataset ds = sampleDataset();
    TaskMix mix;
    mix.name = "hostile";
    mix.weights = {-5.0, 1.0, -3.0, 0.0, 0.0};
    for (const Task &t : tasksFromDataset(ds, mix, 7))
        EXPECT_EQ(t.type, TaskType::Ai);
}

TEST(Workload, TasksCarryTheRecordShape)
{
    std::vector<core::JobRecord> records;
    records.push_back(gpuRecord(9, 500, 3600.0, 2));
    const std::vector<Task> tasks = tasksFromDataset(
        core::Dataset(std::move(records)), defaultTaskMixes()[0], 2022);
    ASSERT_EQ(tasks.size(), 1u);
    EXPECT_EQ(tasks[0].id, 9u);
    EXPECT_EQ(tasks[0].gpus, 2);
    EXPECT_EQ(tasks[0].cores, 8);
    EXPECT_DOUBLE_EQ(tasks[0].memory_gb, 32.0);
    EXPECT_DOUBLE_EQ(tasks[0].expected_runtime, 3600.0);
}

} // namespace
} // namespace aiwc::scenario
