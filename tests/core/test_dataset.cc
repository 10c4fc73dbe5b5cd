#include <gtest/gtest.h>

#include <sstream>

#include "record_builder.hh"

namespace aiwc::core
{
namespace
{

using testing::cpuRecord;
using testing::gpuRecord;

Dataset
mixedDataset()
{
    Dataset ds;
    ds.add(gpuRecord(1, 0, 3600.0));
    ds.add(gpuRecord(2, 0, 10.0));   // below the 30 s filter
    ds.add(gpuRecord(3, 1, 600.0, 2));
    ds.add(cpuRecord(4, 1, 480.0));
    ds.add(cpuRecord(5, 2, 5.0));
    return ds;
}

TEST(Dataset, ThirtySecondFilterApplies)
{
    Dataset ds = mixedDataset();
    ds.add(gpuRecord(6, 2, 30.0));  // exactly 30 s: kept
    ds.add(gpuRecord(7, 2, 29.9));  // just under: dropped
    EXPECT_EQ(ds.size(), 7u);
    // Rows 1 (10 s) and 6 (29.9 s) are filtered out.
    EXPECT_EQ(ds.gpuJobIndices(), (std::vector<std::uint32_t>{0, 2, 5}));
    // CPU jobs are unfiltered: row 4 ran only 5 s.
    EXPECT_EQ(ds.cpuJobIndices(), (std::vector<std::uint32_t>{3, 4}));
}

TEST(Dataset, UniqueUsersCountsAllRecords)
{
    EXPECT_EQ(mixedDataset().uniqueUsers(), 3u);
}

TEST(Dataset, TotalGpuHours)
{
    const Dataset ds = mixedDataset();
    // job 1: 1 GPU x 1 h; job 3: 2 GPUs x (600/3600) h.
    EXPECT_NEAR(ds.totalGpuHours(), 1.0 + 2.0 * 600.0 / 3600.0, 1e-9);
}

TEST(Dataset, CsvExportContainsEveryRecord)
{
    const Dataset ds = mixedDataset();
    std::ostringstream os;
    ds.writeCsv(os);
    const std::string out = os.str();
    // Header + 5 rows.
    std::size_t lines = 0;
    for (char ch : out)
        if (ch == '\n')
            ++lines;
    EXPECT_EQ(lines, 6u);
    EXPECT_NE(out.find("job_id,user"), std::string::npos);
}

TEST(Dataset, ConstructFromVector)
{
    std::vector<JobRecord> records;
    records.push_back(gpuRecord(1, 0, 100.0));
    const Dataset ds(std::move(records));
    EXPECT_EQ(ds.size(), 1u);
    EXPECT_FALSE(ds.empty());
}

} // namespace
} // namespace aiwc::core
