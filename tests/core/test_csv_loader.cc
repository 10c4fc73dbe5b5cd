#include <gtest/gtest.h>

#include <sstream>

#include "record_builder.hh"

#include "aiwc/common/csv.hh"
#include "aiwc/core/csv_loader.hh"

namespace aiwc::core
{
namespace
{

using testing::cpuRecord;
using testing::gpuRecord;

Dataset
originalDataset()
{
    Dataset ds;
    JobRecord a = gpuRecord(1, 0, 3600.0, 2, 0.4, 0.8,
                            TerminalState::Cancelled);
    a.interface = Interface::Batch;
    ds.add(a);
    ds.add(gpuRecord(2, 1, 600.0, 1, 0.1, 0.2));
    ds.add(cpuRecord(3, 2, 480.0));
    return ds;
}

Dataset
roundTrip(const Dataset &ds)
{
    std::stringstream buffer;
    ds.writeCsv(buffer);
    return loadDatasetCsv(buffer);
}

TEST(CsvLoader, RoundTripPreservesSchedulerFields)
{
    const Dataset original = originalDataset();
    const Dataset loaded = roundTrip(original);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        const auto &o = original.records()[i];
        const auto &l = loaded.records()[i];
        EXPECT_EQ(l.id, o.id);
        EXPECT_EQ(l.user, o.user);
        EXPECT_EQ(l.interface, o.interface);
        EXPECT_EQ(l.terminal, o.terminal);
        EXPECT_NEAR(l.submit_time, o.submit_time, 0.1);
        EXPECT_NEAR(l.end_time, o.end_time, 0.1);
        EXPECT_EQ(l.gpus, o.gpus);
        EXPECT_EQ(l.cpu_slots, o.cpu_slots);
    }
}

TEST(CsvLoader, RoundTripPreservesUtilizationStatistics)
{
    const Dataset original = originalDataset();
    const Dataset loaded = roundTrip(original);
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        const auto &o = original.records()[i];
        const auto &l = loaded.records()[i];
        for (Resource r : {Resource::Sm, Resource::MemoryBw,
                           Resource::MemorySize}) {
            EXPECT_NEAR(l.meanUtilization(r), o.meanUtilization(r),
                        1e-3);
            EXPECT_NEAR(l.maxUtilization(r), o.maxUtilization(r), 1e-3);
        }
        EXPECT_NEAR(l.meanPowerWatts(), o.meanPowerWatts(), 0.1);
        EXPECT_NEAR(l.maxPowerWatts(), o.maxPowerWatts(), 0.1);
    }
}

TEST(CsvLoader, CpuJobsLoadWithoutGpuSummaries)
{
    const Dataset loaded = roundTrip(originalDataset());
    const auto cpu = loaded.cpuJobIndices();
    ASSERT_EQ(cpu.size(), 1u);
    EXPECT_TRUE(loaded.records()[cpu[0]].per_gpu.empty());
}

TEST(CsvLoader, SkipsMalformedRows)
{
    // Each row is appended to a valid export on its own; the loader
    // must drop it with a warning and keep every valid row.
    const Dataset ds = originalDataset();
    const char *const rows[] = {
        "not,a,valid,row",
        // nan in sm_mean
        "9,9,batch,completed,0,0,60,1,2,4,nan,0.5,0,0,0,0,0,0,0,0",
        // inf in end_s
        "9,9,batch,completed,0,0,inf,1,2,4,0.1,0.5,0,0,0,0,0,0,0,0",
        "9,9,telnet,completed,0,0,60,1,2,4,0.1,0.5,0,0,0,0,0,0,0,0",
        "9,9,batch,exploded,0,0,60,1,2,4,0.1,0.5,0,0,0,0,0,0,0,0",
        "9,9,batch,completed,0,0,60,-1,2,4,0.1,0.5,0,0,0,0,0,0,0,0",
        "9,9,batch,completed,0,0,60,1025,2,4,0.1,0.5,0,0,0,0,0,0,0,0",
        "9,9,batch,completed,0,0,60,0,-4,4,0,0,0,0,0,0,0,0,0,0",
    };
    for (const char *row : rows) {
        SCOPED_TRACE(row);
        std::stringstream buffer;
        ds.writeCsv(buffer);
        buffer << row << '\n';
        const Dataset loaded = loadDatasetCsv(buffer);
        EXPECT_EQ(loaded.size(), ds.size());  // the bad row is dropped
    }
    // The same row with valid cells loads, so each rejection above is
    // down to its one bad cell.
    std::stringstream buffer;
    ds.writeCsv(buffer);
    buffer << "9,9,batch,completed,0,0,60,1,2,4,0.1,0.5,0,0,0,0,0,0,0,0\n";
    EXPECT_EQ(loadDatasetCsv(buffer).size(), ds.size() + 1);
}

TEST(CsvLoader, SkipsRowsWithUnterminatedQuote)
{
    Dataset ds = originalDataset();
    std::stringstream buffer;
    ds.writeCsv(buffer);
    buffer.clear();
    buffer.seekp(0, std::ios::end);
    // The unterminated quote swallows every later comma, so the row
    // parses to the wrong cell count and must be dropped, not crash.
    buffer << "9,9,\"jupyter,finished,0,0,60,1,2,4,"
              "0,0,0,0,0,0,0,0,0,0\n";
    const Dataset loaded = loadDatasetCsv(buffer);
    EXPECT_EQ(loaded.size(), ds.size());
}

/** Serialize, then rewrite every line ending as CRLF. */
std::string
toCrlf(const Dataset &ds)
{
    std::stringstream buffer;
    ds.writeCsv(buffer);
    std::string crlf;
    for (char ch : buffer.str()) {
        if (ch == '\n')
            crlf += '\r';
        crlf += ch;
    }
    return crlf;
}

TEST(CsvLoader, CrlfLineEndingsRoundTrip)
{
    const Dataset original = originalDataset();
    std::istringstream is(toCrlf(original));
    const Dataset loaded = loadDatasetCsv(is);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        const auto &o = original.records()[i];
        const auto &l = loaded.records()[i];
        EXPECT_EQ(l.id, o.id);
        EXPECT_EQ(l.terminal, o.terminal);
        EXPECT_EQ(l.gpus, o.gpus);
        EXPECT_NEAR(l.meanPowerWatts(), o.meanPowerWatts(), 0.1);
    }
}

TEST(CsvLoader, BlankCrlfLinesAreSkipped)
{
    const Dataset original = originalDataset();
    std::string text = toCrlf(original);
    text += "\r\n\r\n";  // trailing blank CRLF lines
    std::istringstream is(text);
    const Dataset loaded = loadDatasetCsv(is);
    EXPECT_EQ(loaded.size(), original.size());
}

TEST(CsvLoader, Utf8BomBeforeHeaderIsTolerated)
{
    const Dataset original = originalDataset();
    std::stringstream buffer;
    original.writeCsv(buffer);
    std::istringstream is("\xef\xbb\xbf" + buffer.str());
    const Dataset loaded = loadDatasetCsv(is);
    EXPECT_EQ(loaded.size(), original.size());
}

TEST(CsvLoader, EnumParsersRoundTrip)
{
    for (int i = 0; i < num_interfaces; ++i) {
        const auto iface = static_cast<Interface>(i);
        EXPECT_EQ(interfaceFromString(toString(iface)), iface);
    }
    for (int i = 0; i <= static_cast<int>(TerminalState::NodeFailure);
         ++i) {
        const auto state = static_cast<TerminalState>(i);
        EXPECT_EQ(terminalFromString(toString(state)), state);
    }
    EXPECT_FALSE(interfaceFromString("telnet"));
    EXPECT_FALSE(terminalFromString("exploded"));
}

TEST(CsvLoader, ParseCsvLineHandlesQuoting)
{
    const auto cells = parseCsvLine("a,\"b,c\",\"say \"\"hi\"\"\",d");
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0], "a");
    EXPECT_EQ(cells[1], "b,c");
    EXPECT_EQ(cells[2], "say \"hi\"");
    EXPECT_EQ(cells[3], "d");
}

TEST(CsvLoader, ParseCsvLineEmptyCells)
{
    const auto cells = parseCsvLine(",,x,");
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0], "");
    EXPECT_EQ(cells[2], "x");
    EXPECT_EQ(cells[3], "");
}

TEST(CsvLoader, AnalyzersAgreeAfterRoundTrip)
{
    // The headline guarantee: fleet-level analyses are identical on
    // the loaded dataset.
    const Dataset original = originalDataset();
    const Dataset loaded = roundTrip(original);
    EXPECT_NEAR(loaded.totalGpuHours(), original.totalGpuHours(), 1e-3);
    EXPECT_EQ(loaded.gpuJobIndices(), original.gpuJobIndices());
    EXPECT_EQ(loaded.uniqueUsers(), original.uniqueUsers());
}

} // namespace
} // namespace aiwc::core
