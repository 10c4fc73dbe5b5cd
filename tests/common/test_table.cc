#include <gtest/gtest.h>

#include <sstream>

#include "aiwc/base/check.hh"
#include "aiwc/common/table.hh"

namespace aiwc
{
namespace
{

TEST(TextTable, PrintsHeaderAndRows)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, ColumnsAreAligned)
{
    TextTable t({"a", "b"});
    t.addRow({"x", "yy"});
    t.addRow({"longer", "z"});
    std::ostringstream os;
    t.print(os);
    // Both data lines must place column b at the same offset.
    std::istringstream is(os.str());
    std::string header, rule, row1, row2;
    std::getline(is, header);
    std::getline(is, rule);
    std::getline(is, row1);
    std::getline(is, row2);
    EXPECT_EQ(row1.find("yy"), row2.find("z"));
}

TEST(FormatNumber, TrimsTrailingZeros)
{
    EXPECT_EQ(formatNumber(1.500, 3), "1.5");
    EXPECT_EQ(formatNumber(2.000, 3), "2");
    EXPECT_EQ(formatNumber(0.125, 3), "0.125");
}

TEST(FormatNumber, RespectsPrecision)
{
    EXPECT_EQ(formatNumber(3.14159, 2), "3.14");
    EXPECT_EQ(formatNumber(3.14159, 0), "3");
}

TEST(FormatNumber, KeepsTheSignOfNegativesAndNegativeZero)
{
    EXPECT_EQ(formatNumber(-1.500, 3), "-1.5");
    EXPECT_EQ(formatNumber(-2.000, 3), "-2");
    EXPECT_EQ(formatNumber(-10.0, 0), "-10");
    EXPECT_EQ(formatNumber(-0.0625, 4), "-0.0625");
    EXPECT_EQ(formatNumber(-0.0625, 3), "-0.062");  // ties to even
    // -0.0, and negatives that round to zero, keep their sign ("%f").
    EXPECT_EQ(formatNumber(-0.0, 3), "-0");
    EXPECT_EQ(formatNumber(-0.0001, 3), "-0");
    EXPECT_EQ(formatNumber(0.0, 3), "0");
    EXPECT_EQ(formatNumber(100.0, 3), "100");
}

TEST(FormatNumber, AppendsToABufferLikeFormatNumber)
{
    std::string line = "x=";
    appendNumber(line, -3.25, 4);
    line += ',';
    appendNumber(line, 1e20, 1);
    EXPECT_EQ(line, "x=-3.25,100000000000000000000");
    ScopedCheckFailHandler guard;
    EXPECT_THROW(appendNumber(line, 1.0, -1), ContractViolation);
}

TEST(FormatPercent, RendersFractionAsPercent)
{
    EXPECT_EQ(formatPercent(0.5), "50.0%");
    EXPECT_EQ(formatPercent(0.123, 1), "12.3%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(FormatDuration, PicksHumanUnits)
{
    EXPECT_EQ(formatDuration(30.0), "30.0s");
    EXPECT_EQ(formatDuration(120.0), "2.0min");
    EXPECT_EQ(formatDuration(7200.0), "2.0h");
    EXPECT_EQ(formatDuration(172800.0), "2.0d");
}

} // namespace
} // namespace aiwc
