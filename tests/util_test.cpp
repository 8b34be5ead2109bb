/**
 * @file
 * Unit tests for the util module: RNG, statistics, kernel regression,
 * chart/table/CSV rendering, logging.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <vector>

#include "util/ascii_chart.hpp"
#include "util/compensated.hpp"
#include "util/csv.hpp"
#include "util/kernel_regression.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace pu = pentimento::util;

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    pu::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    pu::Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    pu::Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    pu::Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.5);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.5);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    pu::Rng rng(11);
    pu::RunningStats stats;
    for (int i = 0; i < 50000; ++i) {
        stats.add(rng.uniform());
    }
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    pu::Rng rng(13);
    pu::RunningStats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(rng.gaussian());
    }
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianShifted)
{
    pu::Rng rng(17);
    pu::RunningStats stats;
    for (int i = 0; i < 50000; ++i) {
        stats.add(rng.gaussian(10.0, 2.0));
    }
    EXPECT_NEAR(stats.mean(), 10.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliProbability)
{
    pu::Rng rng(19);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        hits += rng.bernoulli(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, UniformIntBounds)
{
    pu::Rng rng(23);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, UniformIntSingleton)
{
    pu::Rng rng(23);
    EXPECT_EQ(rng.uniformInt(4, 4), 4u);
}

TEST(Rng, LognormalPositive)
{
    pu::Rng rng(29);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
    }
}

TEST(Rng, SplitStreamsAreIndependent)
{
    pu::Rng parent(31);
    pu::Rng a = parent.split("a");
    pu::Rng b = parent.split("b");
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, SplitByTagIsDeterministic)
{
    pu::Rng p1(37), p2(37);
    pu::Rng a = p1.split("stream");
    pu::Rng b = p2.split("stream");
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, GaussianFastMoments)
{
    pu::Rng rng(47);
    pu::RunningStats stats;
    const int n = 1000000;
    int beyond_3sigma = 0;
    double sum_x4 = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.gaussianFast();
        stats.add(x);
        sum_x4 += x * x * x * x;
        beyond_3sigma += std::abs(x) > 3.0 ? 1 : 0;
    }
    EXPECT_NEAR(stats.mean(), 0.0, 0.005);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.005);
    // Excess-free kurtosis and the 3-sigma tail mass check the ziggurat
    // layer table and its tail sampler, not just the bulk.
    EXPECT_NEAR(sum_x4 / n, 3.0, 0.1);
    EXPECT_NEAR(static_cast<double>(beyond_3sigma) / n, 0.0027, 0.0006);
}

TEST(Rng, GaussianFastBlockShiftedMoments)
{
    pu::Rng rng(53);
    std::vector<double> block(200000);
    rng.gaussianFastBlock(10.0, 2.0, block.data(), block.size());
    pu::RunningStats stats;
    for (const double v : block) {
        stats.add(v);
    }
    EXPECT_NEAR(stats.mean(), 10.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

// ------------------------------------------------------ RunningStats

TEST(RunningStats, KnownSample)
{
    pu::RunningStats stats;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        stats.add(v);
    }
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_NEAR(stats.stddev(), 2.13809, 1e-4);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero)
{
    pu::RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_EQ(stats.mean(), 0.0);
    EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, SingleSampleVarianceZero)
{
    pu::RunningStats stats;
    stats.add(3.0);
    EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesCombined)
{
    pu::RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double v = i * 0.37 - 3.0;
        (i % 2 == 0 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    pu::RunningStats a, b;
    a.add(1.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.mean(), 1.0);
}

// -------------------------------------------------------- percentiles

TEST(Percentile, Anchors)
{
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(pu::percentileSorted(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(pu::percentileSorted(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(pu::percentileSorted(v, 1.0), 5.0);
}

TEST(Percentile, LinearInterpolation)
{
    const std::vector<double> v{0.0, 10.0};
    EXPECT_DOUBLE_EQ(pu::percentileSorted(v, 0.25), 2.5);
    EXPECT_DOUBLE_EQ(pu::percentileSorted(v, 0.75), 7.5);
}

TEST(Percentile, SingleElement)
{
    const std::vector<double> v{42.0};
    EXPECT_DOUBLE_EQ(pu::percentileSorted(v, 0.3), 42.0);
}

TEST(Percentile, RejectsEmpty)
{
    EXPECT_THROW(pu::percentileSorted({}, 0.5), std::invalid_argument);
}

TEST(Percentile, RejectsOutOfRangeQ)
{
    const std::vector<double> v{1.0, 2.0};
    EXPECT_THROW(pu::percentileSorted(v, -0.1), std::invalid_argument);
    EXPECT_THROW(pu::percentileSorted(v, 1.1), std::invalid_argument);
}

class PercentileSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PercentileSweep, MonotoneInQ)
{
    const std::vector<double> v{1.0, 4.0, 4.5, 8.0, 9.0, 12.0, 20.0};
    const double q = GetParam();
    if (q > 0.04) {
        EXPECT_GE(pu::percentileSorted(v, q),
                  pu::percentileSorted(v, q - 0.04));
    }
}

INSTANTIATE_TEST_SUITE_P(QGrid, PercentileSweep,
                         ::testing::Values(0.05, 0.15, 0.25, 0.35, 0.5,
                                           0.65, 0.75, 0.85, 0.95, 1.0));

TEST(Summarize, MatchesManual)
{
    const std::vector<double> v{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
    const pu::Summary s = pu::summarize(v);
    EXPECT_EQ(s.count, 8u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 9.0);
    EXPECT_NEAR(s.mean, 3.875, 1e-12);
    EXPECT_DOUBLE_EQ(s.p50, 3.5);
}

TEST(Summarize, EmptyInput)
{
    const pu::Summary s = pu::summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.mean, 0.0);
}

// ------------------------------------------------------------ fitLine

TEST(FitLine, RecoversExactLine)
{
    std::vector<double> x, y;
    for (int i = 0; i < 20; ++i) {
        x.push_back(i);
        y.push_back(3.0 + 0.5 * i);
    }
    const pu::LineFit fit = pu::fitLine(x, y);
    EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
    EXPECT_NEAR(fit.slope, 0.5, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLine, FlatLineZeroSlope)
{
    const std::vector<double> x{0, 1, 2, 3};
    const std::vector<double> y{2, 2, 2, 2};
    const pu::LineFit fit = pu::fitLine(x, y);
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
    EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(FitLine, RejectsMismatch)
{
    const std::vector<double> x{1, 2, 3};
    const std::vector<double> y{1, 2};
    EXPECT_THROW(pu::fitLine(x, y), std::invalid_argument);
}

TEST(FitLine, RejectsTooFewPoints)
{
    const std::vector<double> x{1};
    const std::vector<double> y{1};
    EXPECT_THROW(pu::fitLine(x, y), std::invalid_argument);
}

TEST(FitLine, DegenerateXGivesMean)
{
    const std::vector<double> x{2, 2, 2};
    const std::vector<double> y{1, 2, 3};
    const pu::LineFit fit = pu::fitLine(x, y);
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
    EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(Correlation, PerfectPositive)
{
    const std::vector<double> x{1, 2, 3, 4};
    const std::vector<double> y{2, 4, 6, 8};
    EXPECT_NEAR(pu::correlation(x, y), 1.0, 1e-12);
}

TEST(Correlation, PerfectNegative)
{
    const std::vector<double> x{1, 2, 3, 4};
    const std::vector<double> y{8, 6, 4, 2};
    EXPECT_NEAR(pu::correlation(x, y), -1.0, 1e-12);
}

TEST(Correlation, ConstantInputGivesZero)
{
    const std::vector<double> x{1, 1, 1};
    const std::vector<double> y{1, 2, 3};
    EXPECT_DOUBLE_EQ(pu::correlation(x, y), 0.0);
}

TEST(Correlation, RejectsBadSizes)
{
    const std::vector<double> x{1.0};
    const std::vector<double> y{1.0};
    EXPECT_THROW(pu::correlation(x, y), std::invalid_argument);
}

TEST(Centered, SubtractsOrigin)
{
    const std::vector<double> v{1.0, 2.0, 3.0};
    const std::vector<double> c = pu::centered(v, 1.0);
    EXPECT_EQ(c, (std::vector<double>{0.0, 1.0, 2.0}));
}

// ------------------------------------------------- kernel regression

TEST(KernelRegression, ConstantDataStaysConstant)
{
    std::vector<double> x, y;
    for (int i = 0; i < 30; ++i) {
        x.push_back(i);
        y.push_back(5.0);
    }
    const pu::KernelRegression kr(x, y);
    for (const double fit : kr.fittedValues()) {
        EXPECT_NEAR(fit, 5.0, 1e-9);
    }
}

TEST(KernelRegression, LinearDataRecovered)
{
    std::vector<double> x, y;
    for (int i = 0; i < 50; ++i) {
        x.push_back(i);
        y.push_back(1.0 + 2.0 * i);
    }
    const pu::KernelRegression kr(x, y, 5.0);
    // Local *linear* regression is exact on straight lines, including
    // at the boundaries (unlike Nadaraya-Watson).
    EXPECT_NEAR(kr.at(0.0), 1.0, 1e-6);
    EXPECT_NEAR(kr.at(25.0), 51.0, 1e-6);
    EXPECT_NEAR(kr.at(49.0), 99.0, 1e-6);
}

TEST(KernelRegression, SmoothingReducesNoise)
{
    pu::Rng rng(5);
    std::vector<double> x, y, clean;
    for (int i = 0; i < 200; ++i) {
        x.push_back(i);
        clean.push_back(0.01 * i);
        y.push_back(clean.back() + rng.gaussian(0.0, 0.5));
    }
    const std::vector<double> smooth = pu::kernelSmooth(x, y, 10.0);
    double raw_err = 0.0, smooth_err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        raw_err += (y[i] - clean[i]) * (y[i] - clean[i]);
        smooth_err += (smooth[i] - clean[i]) * (smooth[i] - clean[i]);
    }
    EXPECT_LT(smooth_err, raw_err / 4.0);
}

TEST(KernelRegression, RuleOfThumbBandwidthPositive)
{
    const std::vector<double> x{1, 2, 3, 4, 5};
    const std::vector<double> y{1, 2, 1, 2, 1};
    const pu::KernelRegression kr(x, y);
    EXPECT_GT(kr.bandwidth(), 0.0);
}

TEST(KernelRegression, DegenerateSameXFallsBack)
{
    const std::vector<double> x{2, 2, 2};
    const std::vector<double> y{1, 2, 3};
    const pu::KernelRegression kr(x, y, 1.0);
    EXPECT_NEAR(kr.at(2.0), 2.0, 1e-9);
}

TEST(KernelRegression, RejectsEmptyAndMismatch)
{
    const std::vector<double> x{1.0};
    const std::vector<double> none{};
    EXPECT_THROW(pu::KernelRegression(none, none),
                 std::invalid_argument);
    const std::vector<double> y2{1.0, 2.0};
    EXPECT_THROW(pu::KernelRegression(x, y2), std::invalid_argument);
}

TEST(KernelRegression, VectorQueryMatchesScalar)
{
    const std::vector<double> x{0, 1, 2, 3, 4};
    const std::vector<double> y{0, 1, 4, 9, 16};
    const pu::KernelRegression kr(x, y, 1.0);
    const std::vector<double> at = kr.at(std::vector<double>{1.5, 2.5});
    EXPECT_DOUBLE_EQ(at[0], kr.at(1.5));
    EXPECT_DOUBLE_EQ(at[1], kr.at(2.5));
}

// -------------------------------------------------------- ascii chart

TEST(AsciiChart, RendersSeriesAndLegend)
{
    pu::AsciiChart chart(40, 10);
    const std::vector<double> x{0, 1, 2, 3};
    const std::vector<double> y{0, 1, 2, 3};
    chart.addSeries("ramp", '*', x, y);
    chart.setTitle("test chart");
    const std::string out = chart.render();
    EXPECT_NE(out.find("test chart"), std::string::npos);
    EXPECT_NE(out.find('*'), std::string::npos);
    EXPECT_NE(out.find("ramp"), std::string::npos);
}

TEST(AsciiChart, VerticalMarkerAppears)
{
    pu::AsciiChart chart(40, 8);
    const std::vector<double> x{0, 10};
    const std::vector<double> y{0, 1};
    chart.addSeries("s", 'o', x, y);
    chart.addVerticalMarker(5.0, '|');
    const std::string out = chart.render();
    EXPECT_NE(out.find('|'), std::string::npos);
}

TEST(AsciiChart, EmptyChartHasPlaceholder)
{
    pu::AsciiChart chart;
    EXPECT_NE(chart.render().find("empty"), std::string::npos);
}

TEST(AsciiChart, RejectsMismatchedSeries)
{
    pu::AsciiChart chart;
    const std::vector<double> x{1, 2};
    const std::vector<double> y{1};
    EXPECT_THROW(chart.addSeries("bad", 'x', x, y),
                 std::invalid_argument);
}

TEST(AsciiChart, RejectsTinyCanvas)
{
    EXPECT_THROW(pu::AsciiChart(2, 1), std::invalid_argument);
}

TEST(AsciiChart, ZeroLineDrawnWhenRangeSpansZero)
{
    pu::AsciiChart chart(30, 9);
    const std::vector<double> x{0, 1};
    const std::vector<double> y{-1, 1};
    chart.addSeries("s", '#', x, y);
    EXPECT_NE(chart.render().find('-'), std::string::npos);
}

// -------------------------------------------------------------- table

TEST(TablePrinter, AlignsAndRenders)
{
    pu::TablePrinter table({"Asset", "MEAN", "MAX"});
    table.addRow({"foo", "1.5", "10"});
    table.addRow({"longer_name", "22.4", "3946"});
    const std::string out = table.render();
    EXPECT_NE(out.find("Asset"), std::string::npos);
    EXPECT_NE(out.find("longer_name"), std::string::npos);
    EXPECT_NE(out.find("3946"), std::string::npos);
}

TEST(TablePrinter, RejectsArityMismatch)
{
    pu::TablePrinter table({"a", "b"});
    EXPECT_THROW(table.addRow({"only one"}), std::invalid_argument);
}

TEST(TablePrinter, RejectsEmptyHeaders)
{
    EXPECT_THROW(pu::TablePrinter({}), std::invalid_argument);
}

TEST(TablePrinter, NumFormatsPrecision)
{
    EXPECT_EQ(pu::TablePrinter::num(1.23456, 2), "1.23");
    EXPECT_EQ(pu::TablePrinter::num(10.0, 0), "10");
}

// ---------------------------------------------------------------- csv

TEST(CsvWriter, WritesRows)
{
    const std::string path = ::testing::TempDir() + "csv_test.csv";
    {
        pu::CsvWriter csv(path);
        csv.writeRow(std::vector<std::string>{"h", "v"});
        csv.writeRow(std::vector<double>{1.0, 2.5});
    }
    std::ifstream in(path);
    std::string line1, line2;
    std::getline(in, line1);
    std::getline(in, line2);
    EXPECT_EQ(line1, "h,v");
    EXPECT_EQ(line2, "1,2.5");
    std::remove(path.c_str());
}

TEST(CsvWriter, EscapesSpecialCells)
{
    const std::string path = ::testing::TempDir() + "csv_escape.csv";
    {
        pu::CsvWriter csv(path);
        csv.writeRow(std::vector<std::string>{"a,b", "say \"hi\""});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "\"a,b\",\"say \"\"hi\"\"\"");
    std::remove(path.c_str());
}

TEST(CsvWriter, FatalOnBadPath)
{
    EXPECT_THROW(pu::CsvWriter("/nonexistent_dir_x/y.csv"),
                 pu::FatalError);
}

// -------------------------------------------------------------- units

TEST(Units, TemperatureRoundTrip)
{
    EXPECT_DOUBLE_EQ(pu::celsiusToKelvin(60.0), 333.15);
    EXPECT_DOUBLE_EQ(pu::kelvinToCelsius(pu::celsiusToKelvin(45.0)),
                     45.0);
}

TEST(Units, TimeConversions)
{
    EXPECT_DOUBLE_EQ(pu::hoursToSeconds(2.0), 7200.0);
    EXPECT_DOUBLE_EQ(pu::secondsToHours(1800.0), 0.5);
    EXPECT_DOUBLE_EQ(pu::nsToPs(1.5), 1500.0);
    EXPECT_DOUBLE_EQ(pu::psToNs(2800.0), 2.8);
}

// ------------------------------------------------------------ logging

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(pu::fatal("boom"), pu::FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(pu::panic("bug"), pu::PanicError);
}

TEST(Logging, VerbositySetGet)
{
    const pu::Verbosity before = pu::verbosity();
    pu::setVerbosity(pu::Verbosity::Silent);
    EXPECT_EQ(pu::verbosity(), pu::Verbosity::Silent);
    pu::setVerbosity(before);
}

TEST(Logging, FatalMessagePreserved)
{
    try {
        pu::fatal("specific message");
        FAIL() << "fatal must throw";
    } catch (const pu::FatalError &e) {
        EXPECT_STREQ(e.what(), "specific message");
    }
}

TEST(CompensatedSum, MillionIrregularStepsMatchClosedForm)
{
    // The classic drift case: a million 0.1-hour steps. fl(0.1) is
    // not dyadic, so naive accumulation walks away from the closed
    // form by ~1e-6 while the compensated sum stays within an ulp.
    pu::CompensatedSum sum;
    double naive = 0.0;
    long double exact = 0.0L;
    for (int i = 0; i < 1000000; ++i) {
        const double dt = static_cast<double>(i % 7 + 1) * 0.1;
        sum.add(dt);
        naive += dt;
        exact += static_cast<long double>(dt);
    }
    const double reference = static_cast<double>(exact);
    EXPECT_NEAR(sum.value(), reference, 1e-9);
    EXPECT_GT(std::abs(naive - reference),
              10.0 * std::abs(sum.value() - reference));
}

TEST(CompensatedSum, ExactStepsStayBitExact)
{
    // Hourly experiment steps sum exactly in plain doubles; the
    // compensation term must stay zero so golden outputs that
    // depended on plain accumulation are unchanged bit for bit.
    pu::CompensatedSum sum;
    for (int i = 0; i < 200; ++i) {
        sum.add(1.0);
    }
    EXPECT_EQ(sum.value(), 200.0);
    sum.reset();
    sum.add(2.5);
    sum.add(1.5);
    EXPECT_EQ(sum.value(), 4.0);
}
