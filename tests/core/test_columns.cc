/**
 * @file
 * ColumnTable unit tests: the struct-of-arrays mirror must stay in
 * lockstep with the record vector, and every derived column must be
 * bit-identical to the JobRecord method it mirrors — the property the
 * columnar analyzer kernels rely on for byte-exact output.
 */

#include <gtest/gtest.h>

#include <set>

#include "aiwc/core/dataset.hh"

#include "record_builder.hh"

namespace aiwc::core
{
namespace
{

using testing::cpuRecord;
using testing::gpuRecord;

Dataset
smallDataset()
{
    std::vector<JobRecord> records;
    records.push_back(gpuRecord(1, 500, 3600.0, 2, 0.3, 0.8));
    records.push_back(cpuRecord(2, 400, 120.0));
    records.push_back(gpuRecord(3, 500, 7.5));  // under the 30 s filter
    records.push_back(gpuRecord(4, 400, 900.0, 1, 0.6, 0.9,
                                TerminalState::Cancelled));
    records.push_back(gpuRecord(5, 600, 60.0, 4, 0.1, 0.2,
                                TerminalState::Failed));
    return Dataset(std::move(records));
}

TEST(ColumnTable, StaysInLockstepWithRecords)
{
    Dataset ds = smallDataset();
    const ColumnTable &cols = ds.columns();
    ASSERT_EQ(cols.rows(), ds.size());

    ds.add(gpuRecord(6, 700, 42.0));
    ASSERT_EQ(ds.columns().rows(), ds.size());
    EXPECT_EQ(ds.columns().users().rawOf(ds.columns().userIndex().back()),
              700u);
}

TEST(ColumnTable, ScalarColumnsMatchRecordFields)
{
    const Dataset ds = smallDataset();
    const ColumnTable &cols = ds.columns();
    const auto &records = ds.records();
    for (std::size_t i = 0; i < records.size(); ++i) {
        const JobRecord &r = records[i];
        EXPECT_EQ(cols.interfaces()[i],
                  static_cast<std::uint8_t>(r.interface));
        EXPECT_EQ(cols.terminals()[i],
                  static_cast<std::uint8_t>(r.terminal));
        EXPECT_EQ(cols.submitTime()[i], r.submit_time);
        EXPECT_EQ(cols.startTime()[i], r.start_time);
        EXPECT_EQ(cols.endTime()[i], r.end_time);
        EXPECT_EQ(cols.gpus()[i], r.gpus);
    }
}

TEST(ColumnTable, DerivedColumnsAreBitIdenticalToRecordMethods)
{
    const Dataset ds = smallDataset();
    const ColumnTable &cols = ds.columns();
    const auto &records = ds.records();
    for (std::size_t i = 0; i < records.size(); ++i) {
        const JobRecord &r = records[i];
        // EXPECT_EQ, not NEAR: the columnar kernels promise the exact
        // double the row walk produced, down to the last ULP.
        EXPECT_EQ(cols.runtimeS()[i], r.runTime());
        EXPECT_EQ(cols.waitS()[i], r.waitTime());
        EXPECT_EQ(cols.gpuHours()[i], r.gpuHours());
        for (int res = 0; res < num_resources; ++res) {
            const auto resource = static_cast<Resource>(res);
            EXPECT_EQ(cols.meanUtil(resource)[i],
                      r.meanUtilization(resource));
            EXPECT_EQ(cols.maxUtil(resource)[i],
                      r.maxUtilization(resource));
        }
    }
}

TEST(ColumnTable, UserTableInternsInFirstAppearanceOrder)
{
    const Dataset ds = smallDataset();
    const ColumnTable &cols = ds.columns();
    ASSERT_EQ(cols.users().size(), 3u);
    EXPECT_EQ(cols.users().rawOf(0), 500u);
    EXPECT_EQ(cols.users().rawOf(1), 400u);
    EXPECT_EQ(cols.users().rawOf(2), 600u);
    for (std::size_t i = 0; i < ds.size(); ++i) {
        EXPECT_EQ(cols.users().rawOf(cols.userIndex()[i]),
                  ds.records()[i].user);
    }
    EXPECT_EQ(ds.uniqueUsers(), 3u);
}

TEST(ColumnTable, JobTypeIndexRoundTripsThroughPacking)
{
    // The job-type table interns every row's packJobType once: each
    // row's key is found, and the table holds exactly the distinct keys.
    const Dataset ds = smallDataset();
    const ColumnTable &cols = ds.columns();
    std::set<std::uint32_t> distinct;
    for (const JobRecord &r : ds.records()) {
        const std::uint32_t packed = packJobType(r.interface, r.terminal);
        EXPECT_NE(cols.jobTypes().denseOf(packed), invalid_id);
        distinct.insert(packed);
    }
    EXPECT_EQ(cols.jobTypes().size(), distinct.size());
}

TEST(Dataset, GpuJobIndicesMatchGpuJobsRowForRow)
{
    // Every GPU job that ran >= 30 s, in record order: row 2 is a GPU
    // job under the filter and row 1 is CPU-only.
    const Dataset ds = smallDataset();
    const auto idx = ds.gpuJobIndices();
    EXPECT_EQ(idx, (std::vector<std::uint32_t>{0, 3, 4}));
    for (const std::uint32_t r : idx) {
        EXPECT_TRUE(ds.records()[r].isGpuJob());
        EXPECT_GE(ds.records()[r].runTime(), min_gpu_runtime);
    }
}

TEST(Dataset, CpuJobIndicesMatchCpuJobs)
{
    const Dataset ds = smallDataset();
    const auto idx = ds.cpuJobIndices();
    ASSERT_EQ(idx, (std::vector<std::uint32_t>{1}));
    EXPECT_FALSE(ds.records()[idx[0]].isGpuJob());
}

TEST(ColumnTable, EmptyDataset)
{
    const Dataset ds;
    EXPECT_TRUE(ds.columns().empty());
    EXPECT_EQ(ds.columns().rows(), 0u);
    EXPECT_TRUE(ds.gpuJobIndices().empty());
    EXPECT_TRUE(ds.cpuJobIndices().empty());
    EXPECT_EQ(ds.uniqueUsers(), 0u);
}

} // namespace
} // namespace aiwc::core
