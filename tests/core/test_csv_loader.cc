#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "../common/mutation_driver.hh"
#include "record_builder.hh"

#include "aiwc/base/logging.hh"
#include "aiwc/common/csv.hh"
#include "aiwc/common/parallel.hh"
#include "aiwc/core/csv_loader.hh"
#include "aiwc/fmt/trace.hh"

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

/** The header line writeCsv emits. */
std::string
csvHeader()
{
    std::stringstream buffer;
    Dataset().writeCsv(buffer);
    return buffer.str();
}

/** A valid GPU-job data row whose cell `column` (0-based) is `cell`. */
std::string
rowWith(std::size_t column, const std::string &cell)
{
    std::vector<std::string> cells = {
        "9", "9", "batch", "completed", "0", "0", "60", "1", "2", "4",
        "0.1", "0.5", "0", "0", "0", "0", "0", "0", "0", "0"};
    cells[column] = cell;
    std::string row = cells[0];
    for (std::size_t c = 1; c < cells.size(); ++c)
        row += ',' + cells[c];
    return row;
}

Dataset
loadText(const std::string &text, std::string *error = nullptr)
{
    std::istringstream is(text);
    return loadDatasetCsv(is, error);
}

TEST(CsvLoader, MissingOrForeignHeaderIsAnErrorNotAnAbort)
{
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Silent);
    std::string error;
    EXPECT_TRUE(loadText("", &error).empty());
    EXPECT_EQ(error, "empty CSV: no header");
    EXPECT_TRUE(loadText("id,user\n" + rowWith(0, "1") + '\n', &error)
                    .empty());
    EXPECT_EQ(error, "unrecognized dataset CSV header (2 columns)");
    EXPECT_TRUE(loadText("\n", &error).empty());
    EXPECT_EQ(error, "unrecognized dataset CSV header (1 columns)");
    // Every name is compared: a right-sized header with two names
    // swapped, or one renamed, would load cells into the wrong fields.
    const auto replaced = [](std::string text, const std::string &from,
                             const std::string &to) {
        return text.replace(text.find(from), from.size(), to);
    };
    const std::string row = rowWith(0, "1") + '\n';
    EXPECT_TRUE(
        loadText(replaced(csvHeader(), "sm_mean,sm_max", "sm_max,sm_mean") +
                     row,
                 &error)
            .empty());
    EXPECT_EQ(error, "unrecognized dataset CSV header (column 11 is "
                     "'sm_max', expected 'sm_mean')");
    EXPECT_TRUE(
        loadText(replaced(csvHeader(), "ram_gb", "ram_mb") + row, &error)
            .empty());
    EXPECT_EQ(error, "unrecognized dataset CSV header (column 10 is "
                     "'ram_mb', expected 'ram_gb')");
    setLogLevel(level);

    // A good header clears an earlier error, with or without a BOM.
    EXPECT_EQ(loadText(csvHeader() + rowWith(0, "1"), &error).size(), 1u);
    EXPECT_EQ(error, "");
    EXPECT_EQ(loadText("\xef\xbb\xbf" + csvHeader() + row, &error).size(),
              1u);
    EXPECT_EQ(error, "");
}

TEST(CsvLoader, LineLongerThanAReadWindowIsSkipped)
{
    // A line that fills a whole read window (and many parse pieces)
    // is read on to its end, dropped with its own number, and the rows
    // around it still load.
    const std::string huge(csv_read_window + csv_read_window / 2, 'x');
    const std::string text = csvHeader() + rowWith(0, "1") + '\n' + huge +
                             ",a,b,c\n" + rowWith(0, "2") + '\n';
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    const Dataset loaded = loadText(text);
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    setLogLevel(level);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.records()[0].id, 1u);
    EXPECT_EQ(loaded.records()[1].id, 2u);
    EXPECT_EQ(warnings, "[aiwc:warn] skipping CSV line 3: expected 20 "
                        "cells, got 4\n");
}

/**
 * The writeCsv export of `rows` jobs: a mix of CPU jobs and 1-4 GPU
 * jobs over every interface, or CPU jobs only when `cpu_only`.
 */
std::string
exportOf(JobId rows, bool cpu_only = false)
{
    Dataset ds;
    for (JobId id = 0; id < rows; ++id) {
        JobRecord r = cpu_only || id % 3 == 0
                          ? cpuRecord(id, id % 7, 60.0 * id)
                          : gpuRecord(id, id % 7, 60.0 * id,
                                      1 + static_cast<int>(id % 4), 0.3,
                                      0.9);
        r.interface = static_cast<Interface>(id % num_interfaces);
        ds.add(r);
    }
    std::stringstream buffer;
    ds.writeCsv(buffer);
    return buffer.str();
}

/**
 * What loading `text` shows: the content digest, the error and the
 * warnings, which must name their lines in increasing order.
 */
std::tuple<std::uint64_t, std::string, std::string>
loadVerdict(const std::string &text)
{
    std::string error;
    ::testing::internal::CaptureStderr();
    const Dataset loaded = loadText(text, &error);
    std::string warnings = ::testing::internal::GetCapturedStderr();
    std::size_t last = 0;
    for (std::size_t at = warnings.find("CSV line "); at != std::string::npos;
         at = warnings.find("CSV line ", at + 1)) {
        const std::size_t line = std::stoul(warnings.substr(at + 9, 20));
        EXPECT_GT(line, last) << warnings;
        last = line;
    }
    // Every empty dataset has one digest; skip encoding it.
    return {loaded.empty() ? 0 : fmt::contentDigest(loaded), error,
            warnings};
}

TEST(CsvLoader, MutatedExportsLoadAlikeAtAnyThreadCount)
{
    // The loader is total: every mutant of a valid export loads without
    // aborting, to the same records, error and warnings at 1 and 4
    // threads. The 2-row export is short enough for every prefix; the
    // CPU-only one spans more than two parse pieces and is cheap to
    // digest. The counts keep the debug-tsan run under 15 s.
    using enum fuzz::MutationKind;
    const auto loadAlike = [](const fuzz::MutationDriver &driver,
                              std::initializer_list<fuzz::Batch> batches) {
        std::vector<decltype(loadVerdict({}))> serial;
        setGlobalThreadCount(1);
        driver.run(batches, [&](const fuzz::Mutant &m) {
            serial.push_back(loadVerdict(m.bytes));
        });
        setGlobalThreadCount(4);
        auto expected = serial.begin();
        driver.run(batches, [&](const fuzz::Mutant &m) {
            EXPECT_EQ(loadVerdict(m.bytes), *expected++);
        });
    };
    const std::string large = exportOf(2000, true);
    ASSERT_GT(large.size(), std::size_t{128} << 10);

    const int before = globalThreadCount();
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Warn);
    loadAlike(fuzz::MutationDriver("csv", exportOf(8), 2022),
              {{Truncate, 667},
               {BitFlip, 667},
               {Splice, 667},
               {ByteReplace, 50},
               {Garbage, 50}});
    loadAlike(fuzz::MutationDriver("csv-2-rows", exportOf(2), 2),
              {{EveryPrefix}});
    loadAlike(fuzz::MutationDriver("csv-large", large, 2023),
              {{Truncate, 1}, {BitFlip, 2}, {ByteReplace, 2}, {Splice, 1}});
    setLogLevel(level);
    setGlobalThreadCount(before);
}

TEST(CsvLoader, NumericCellsParseExactlyAsStrtod)
{
    // Whatever fast path the loader takes, a numeric cell must decide
    // the row and land in the record exactly as std::strtod of the
    // cell does: a row is dropped iff strtod is non-finite, and a kept
    // value is bit-equal to it.
    struct Case
    {
        const char *cell;
        bool kept;
    };
    const Case cases[] = {
        {"+1", true},      {" 1", true},    {"1 ", true},
        {"1e", true},      {"0x1p3", true}, {"", true},
        {"1e400", false},  {"-0", true},    {"4.9e-324", true},
        {"1.5abc", true},  {"nan", false},  {"inf", false},
    };
    // submit_s, start_s, end_s and ram_gb land in the record verbatim.
    const std::size_t columns[] = {4, 5, 6, 9};
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Silent);
    for (const Case &c : cases) {
        for (const std::size_t column : columns) {
            SCOPED_TRACE(std::string("cell '") + c.cell + "' in column " +
                         std::to_string(column + 1));
            const Dataset loaded =
                loadText(csvHeader() + rowWith(column, c.cell) + '\n');
            ASSERT_EQ(loaded.size(), c.kept ? 1u : 0u);
            if (!c.kept)
                continue;
            const JobRecord &r = loaded.records()[0];
            const double got = column == 4   ? r.submit_time
                               : column == 5 ? r.start_time
                               : column == 6 ? r.end_time
                                             : r.ram_gb;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(
                          std::strtod(c.cell, nullptr)));
        }
    }
    setLogLevel(level);
}

TEST(CsvLoader, IdCellsParseExactlyAsStrtoul)
{
    // Id and user cells are never rejected; each is whatever
    // std::strtoul makes of the cell, narrowed to the id type.
    for (const char *cell : {"-1", "4294967296", "12x", "7"}) {
        SCOPED_TRACE(cell);
        const auto want =
            static_cast<JobId>(std::strtoul(cell, nullptr, 10));
        const Dataset by_id = loadText(csvHeader() + rowWith(0, cell));
        ASSERT_EQ(by_id.size(), 1u);
        EXPECT_EQ(by_id.records()[0].id, want);
        const Dataset by_user = loadText(csvHeader() + rowWith(1, cell));
        ASSERT_EQ(by_user.size(), 1u);
        EXPECT_EQ(by_user.records()[0].user, static_cast<UserId>(want));
    }
}

TEST(CsvLoader, WarningsKeepLineOrderAcrossReadWindows)
{
    // Bad rows sit on both sides of the first two read-window
    // boundaries, every 613th line, and on the last line (which has no
    // newline). However the input is cut, the warnings must come out
    // one per bad row, in line order, with the line's number.
    const std::string bad_rows[][2] = {
        {"not,a,valid,row", "expected 20 cells, got 4"},
        {rowWith(2, "telnet"), "unknown interface 'telnet'"},
        {rowWith(10, "nan"), "non-finite value in column 11"},
    };
    const std::string good = rowWith(0, "1");
    const std::size_t near = 4 * good.size();
    const auto nearBoundary = [&](std::size_t offset) {
        for (std::size_t w = 1; w <= 2; ++w) {
            const std::size_t boundary = w * csv_read_window;
            if (offset + near > boundary && offset < boundary + near)
                return true;
        }
        return false;
    };

    std::string text = csvHeader();
    std::string expected;
    std::size_t kept = 0;
    std::size_t line = 1;
    while (text.size() < 2 * csv_read_window + csv_read_window / 2) {
        ++line;
        if (nearBoundary(text.size()) || line % 613 == 0) {
            const auto &bad = bad_rows[line % 3];
            text += bad[0] + '\n';
            expected += "[aiwc:warn] skipping CSV line " +
                        std::to_string(line) + ": " + bad[1] + '\n';
        } else {
            text += good + '\n';
            ++kept;
        }
    }
    ++line;
    text += bad_rows[0][0];
    expected += "[aiwc:warn] skipping CSV line " + std::to_string(line) +
                ": " + bad_rows[0][1] + '\n';

    const int before = globalThreadCount();
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Warn);
    for (const int threads : {1, 8}) {
        SCOPED_TRACE(threads);
        setGlobalThreadCount(threads);
        ::testing::internal::CaptureStderr();
        const Dataset loaded = loadText(text);
        const std::string warnings =
            ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(loaded.size(), kept);
        EXPECT_EQ(warnings, expected);
    }
    setLogLevel(level);
    setGlobalThreadCount(before);
}

TEST(CsvLoader, WarningsStopAfterTheFirst256)
{
    // A hostile file cannot flood the log: the first 256 skipped lines
    // are warned about in line order, then one line counts the rest.
    std::string text = csvHeader();
    std::string expected;
    for (std::size_t bad = 0; bad < 1000; ++bad) {
        text += rowWith(2, "telnet") + '\n' + rowWith(0, "1") + '\n';
        if (bad < 256)
            expected += "[aiwc:warn] skipping CSV line " +
                        std::to_string(2 + 2 * bad) +
                        ": unknown interface 'telnet'\n";
    }
    expected += "[aiwc:warn] 744 more skipped CSV lines not shown\n";

    const int before = globalThreadCount();
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Warn);
    for (const int threads : {1, 8}) {
        SCOPED_TRACE(threads);
        setGlobalThreadCount(threads);
        ::testing::internal::CaptureStderr();
        const Dataset loaded = loadText(text);
        EXPECT_EQ(::testing::internal::GetCapturedStderr(), expected);
        EXPECT_EQ(loaded.size(), 1000u);
    }
    setLogLevel(level);
    setGlobalThreadCount(before);
}

} // namespace
} // namespace aiwc::core
