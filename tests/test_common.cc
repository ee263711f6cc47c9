/**
 * @file
 * Common-utility tests: deterministic RNG, table rendering and logging
 * helpers.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"

namespace gpuperf {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInBounds)
{
    Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextRangeIsInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, FloatsAreInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 5000; ++i) {
        const float f = rng.nextFloat();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
        sum += f;
    }
    EXPECT_NEAR(sum / 5000.0, 0.5, 0.03);
}

TEST(Rng, GaussianHasUnitStddev)
{
    Rng rng(13);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.08);
}

TEST(Table, AlignsColumns)
{
    Table t({"a", "long_header"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("long_header"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_EQ(t.cell(1, 0), "333");
}

TEST(Table, CsvOutput)
{
    Table t({"x", "y"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
    EXPECT_EQ(Table::big(1234567), "1,234,567");
    EXPECT_EQ(Table::big(12), "12");
    EXPECT_EQ(Table::big(-1234), "-1,234");
}

TEST(TableDeath, WrongArityPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only one"}), "table row");
}

TEST(Logging, FormatHelper)
{
    setLogLevel(LogLevel::Warn);
    // Exercise warn/inform paths (no crash, output suppressed/enabled).
    inform("should be suppressed %d", 1);
    warn("warning %s", "visible");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 7), "panic: boom 7");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT(fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "fatal: bad config x");
}

TEST(LoggingDeath, AssertMacro)
{
    EXPECT_DEATH(GPUPERF_ASSERT(1 == 2, "math broke"), "math broke");
}

} // namespace
} // namespace gpuperf
