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

TEST(Rng, GaussianFastRecordedValues)
{
    // Seed 185 walks every branch of the ziggurat within its first
    // 256 variates: the in-layer fast path, five wedge rejections, two
    // wedge accepts and one tail draw whose exponential loop rejects
    // once. The fast TDC sampler consumes this stream, so a rewrite of
    // gaussianFastFrom must keep every bit of it.
    static const double kFast[256] = {
        -0x1.cf864ad1acca5p+0, 0x1.b0e140e338956p+0, 0x1.522679c25ab8cp-2,
        0x1.f422848261163p+0, -0x1.17aaf0a6dec2dp+0, -0x1.8f6f6634e5a34p-1,
        -0x1.ef3434f1af3f2p-1, -0x1.987f121c4766p-5, -0x1.f1000c1bac9fbp-4,
        0x1.9bb9f597e37b9p-2, 0x1.380cb759ef80dp-2, -0x1.96e2ca4ace307p-5,
        0x1.8bf8608a1ccf6p+0, 0x1.5e98cec7ff7f8p-2, -0x1.4003f752854d5p-1,
        -0x1.e5b029ed5cbcfp+0, -0x1.0b42fee2d7524p-1, 0x1.49834730f3678p-1,
        0x1.de2307e506a83p-3, -0x1.17d49b4395bbp+0, 0x1.5ac1caedc59f7p-5,
        -0x1.549c8f6a86aefp-2, -0x1.f1d12611b0285p-4, -0x1.ffccfecb8e62fp-1,
        0x1.8cc34edd44dc9p-3, 0x1.af71d821ccca9p-1, -0x1.c1d70216ed662p-3,
        0x1.4647cc8bf81bp-2, -0x1.c1d39eb483e74p-4, 0x1.042d8c0e01274p-1,
        0x1.0e40bd543eb73p-1, -0x1.6528cf4396d3ep+0, 0x1.e12c50dc9412dp-1,
        -0x1.a6b64c46efdd2p-2, -0x1.452aac2701a35p+0, 0x1.b445a16c8f56p+0,
        0x1.cd1fc0fabe755p-1, -0x1.32c2d6147936fp-3, -0x1.37ec110a38859p+0,
        -0x1.7faecd50496e5p+0, 0x1.85e0f0de9ef48p+0, 0x1.98a113c9d65a8p+0,
        -0x1.00d3f5c45c3a5p+0, -0x1.9f4961a7cf64ap-1, 0x1.822ff5cbeaa72p-1,
        -0x1.e3fe2fd5a2c32p+0, -0x1.9a97feb5251f4p-4, -0x1.c4aa3ac0173c6p-3,
        0x1.29837fbe3f40ap+1, 0x1.67f184b66bff4p-2, 0x1.05427d682c542p-1,
        0x1.58dfd585f0aeap+0, -0x1.f1659a1aa64c5p-2, 0x1.5674b6c87f7fep-2,
        0x1.633d9338bcfefp-2, 0x1.0699b0a7f2e33p+1, 0x1.7e851af024feap+0,
        0x1.eca22d6bb9c8cp-2, -0x1.0359f5f925cabp-2, 0x1.3b815906a56e1p-1,
        -0x1.ab7060cbd7e4dp-2, -0x1.469bd8f652b8cp+0, 0x1.9d06a6a774d87p+0,
        -0x1.49b23c48d757cp-1, 0x1.333681ab87834p-1, -0x1.b31a3825ee356p+0,
        0x1.44fdfc294edd8p-2, 0x1.750ba535919c9p+0, 0x1.6e28ba9f579e2p-1,
        0x1.13c9c74f6502p-3, -0x1.bd8af3d58dd72p-1, -0x1.454769f13722p-3,
        0x1.374460ce290fcp+1, -0x1.76288bc4a438ap-2, -0x1.edb887457e85cp-3,
        -0x1.cd9dee1fe34e8p-1, -0x1.7ddbb16981063p-1, -0x1.8e2aee6cf0e6fp+0,
        0x1.514a0ee2dc41ap+0, 0x1.96dd943c3fb72p-1, 0x1.3ef8a5836fbbcp+1,
        -0x1.9c798cab1faeap-1, 0x1.339c3e06d518fp-1, -0x1.27450a7bae845p-3,
        0x1.eae9e6c1144ap-1, 0x1.83d0c4a9fe43cp+0, 0x1.9a1e8b6f06b0bp-4,
        0x1.4931d891c279ep-1, -0x1.80ba19259a03fp-2, -0x1.be1f518c1a802p-2,
        0x1.8657c3ce8e7a9p-2, -0x1.fcd35bc8468bbp-2, 0x1.1588c53c95c44p-2,
        0x1.ee90a92afa80fp-3, 0x1.9637d1d2ea7fap-3, -0x1.d2fcb0f12a24ap-2,
        0x1.344bbbf38c32ap+1, 0x1.0f50833fa8ffbp+1, 0x1.023f0b7925ef2p+1,
        -0x1.1d4e2eb9c92f5p+0, 0x1.2992339c51227p-1, -0x1.6b5ae54509c82p-3,
        -0x1.e306a645e5c82p-2, -0x1.3ead88daeff7p+0, 0x1.c9e1ce01c4ff1p-1,
        0x1.07e2ba9acd4bcp+2, 0x1.732567a7ff18fp-2, 0x1.5c9647018abcbp+0,
        -0x1.6cd6364e01546p-1, 0x1.389164713d6ccp+0, -0x1.c1d8771aa4ce1p-3,
        0x1.833cbba84481dp-1, 0x1.39da3565dd1d1p+1, -0x1.ca278f90dbebep-1,
        -0x1.90948e4fcc1eap+0, -0x1.57784e02e6a65p+0, 0x1.b581d88026dfap-2,
        -0x1.1fa1788f0d0e1p+0, -0x1.66f3a51e1f181p-2, 0x1.2b829518d9b33p-1,
        0x1.bd19ec0f5ab04p-2, 0x1.719836f9c674fp-1, -0x1.b48ac06c103b1p-5,
        0x1.801f25cc72a64p-3, 0x1.0cc7e547eff9dp-1, -0x1.f3ae800754f76p-1,
        -0x1.049c546ab7603p-3, 0x1.4050d91a976f8p-1, 0x1.8861cab26281dp-3,
        0x1.0ebaabf01d197p-2, 0x1.c80f87571726cp-1, 0x1.3902670723dd3p-6,
        -0x1.9885726eb662p-9, 0x1.7f90d5cb435f8p-1, 0x1.cb2f80f73fd26p-1,
        0x1.352b55823ef3bp-1, -0x1.53732295052fp-5, -0x1.ae9cf7cd11336p+0,
        -0x1.f6f79f098a096p+0, -0x1.41aa384c64cbp+0, -0x1.8b3e948f701e6p-2,
        0x1.098451fb7adf1p-1, -0x1.d39a31ee9aabep-2, 0x1.cca4a8dc67266p+0,
        0x1.4af5f954cfe55p+0, -0x1.c508d85a0ea48p-1, 0x1.c8c2aade8336cp-2,
        0x1.247337e4bdc25p+0, 0x1.380fe5a881ef6p-1, 0x1.aff11f80d3366p-4,
        0x1.8ef3d95ec536dp-2, 0x1.5d77c7ce46c93p+0, -0x1.e736348f3ac5ap+0,
        -0x1.702e8ffd61526p-2, -0x1.1ce144258cfaap-1, 0x1.a2fffdd9d80dcp-3,
        0x1.a678bd9b6d4cdp-1, 0x1.9d5717f7eab18p-3, 0x1.6a29effa14e05p-1,
        0x1.f293f63a56f59p-1, -0x1.71794f0370314p-2, -0x1.1e8920293a873p-4,
        0x1.48ad208172669p+0, 0x1.26454ab8a0a4bp+0, -0x1.c1afcfd2fe3e1p-1,
        0x1.3d7050fb526b6p-1, -0x1.562df2ca44b68p+0, 0x1.3ab3432ddf9b8p-3,
        -0x1.6f354e67af4a7p-3, 0x1.c93f4e6d76dd5p-3, -0x1.da4739ee4ac71p-1,
        0x1.3c5ef65f18c94p-1, -0x1.a9b074ae7fca1p-4, -0x1.56c0e72e06e94p-2,
        0x1.47e397cb6b685p-2, -0x1.29c902271feecp-1, 0x1.3a91ad0d278b8p-2,
        0x1.3bfd63e9256c4p-1, 0x1.021420db84e5p+0, -0x1.206e60d2a838fp+0,
        0x1.8b5fda7d39c9dp-2, -0x1.e347052f76d12p-2, -0x1.7be711aebf626p-1,
        -0x1.59a4a351e5f99p-7, -0x1.1983d25aaf5fcp+0, -0x1.0b939a7d13067p+0,
        0x1.b9ef1940fa84p+0, -0x1.af6bb8b16dcf3p+0, 0x1.37f292235c7f1p+0,
        0x1.0d03fa9b89a9p-1, -0x1.7f806d63837dfp+0, -0x1.b34cda7b0276cp-1,
        0x1.6f7e294f3bc1p-2, -0x1.f3624d41e95c1p-4, 0x1.d5921ee74f23dp-1,
        -0x1.602a8d1fb3513p-3, 0x1.b990535b117cap-5, -0x1.c7ae8f0454067p-2,
        0x1.9c0297cec10bcp-1, -0x1.903e04a76652cp-1, -0x1.c98ec56c396cap+0,
        -0x1.fa400dbf3878cp+0, -0x1.0f5048c98f7d3p+1, -0x1.69141b76b4026p-1,
        0x1.60c108bb8f12cp-2, 0x1.0031e7db62c1ep-2, -0x1.68bf0661e3422p-1,
        -0x1.24d1977a58febp-2, 0x1.93d4f7942f771p-2, 0x1.68560f1cbc5f6p-2,
        -0x1.e2fb8189d5ef6p-2, -0x1.0415d248932aep-1, -0x1.e75eca8e95c88p-3,
        -0x1.b33bff0d3f9cp-1, -0x1.ae994c2a84a64p+0, 0x1.b908c2fccf223p+0,
        0x1.083b4d9a8e4b1p+0, 0x1.d8dbfc61a4428p-2, -0x1.bb5250667d32p+0,
        -0x1.b0f160125364fp-1, -0x1.274228625e493p+1, -0x1.4f8f336d52395p+1,
        -0x1.9478f50d29e18p-1, 0x1.abcaf4a3cc2cdp-2, 0x1.074a31713da1cp-3,
        0x1.b1a489d5fdfc2p-2, -0x1.d2891cea8d2e4p-2, 0x1.04527d5ca652ap+0,
        0x1.5b09e9414dbaep+0, 0x1.56a1e6c0d5dc9p+0, -0x1.2840b8b43b7d5p-1,
        -0x1.6e1a97344b82fp+0, 0x1.1f9132b46b86bp+1, -0x1.3bd69349c66bep+0,
        0x1.ed9f46bfab7dap-2, 0x1.1c9b7f6a312d6p-2, -0x1.7a9cd80c71cdep+0,
        -0x1.23e30c4e6d15dp+0, 0x1.a872de1a35af5p-1, 0x1.ac775198a9c73p-1,
        -0x1.368f07d34e724p+0, 0x1.47ca7c02c19b8p-2, 0x1.c6315acf7c2d3p-1,
        -0x1.438e05134d692p-1, 0x1.97432a55a723bp+0, -0x1.042a63ed53f02p-3,
        0x1.8ab09ddb59d99p-2, 0x1.7804fd38a350bp-1, 0x1.05c229a8a9b1bp-1,
        0x1.9e895c398dcc6p-2, -0x1.4b5f5e20affc1p-1, 0x1.fe673dd181124p-5,
        0x1.11d646681dd3bp-1, 0x1.0faac503a9989p+0, 0x1.07e8d03752606p+0,
        0x1.ad6df8c16b409p-5,
    };
    static const double kBlock[24] = {
        0x1.99e6418a53e62p+0, 0x1.5206855e8adeap-3, -0x1.a06fed626872ap-1,
        -0x1.bbc79d853d4b7p-2, 0x1.59bd972d595f6p+0, 0x1.1fa63d064795cp-1,
        0x1.6e4b4c6b96e36p+0, -0x1.5abb8bb4821acp-2, -0x1.85fbd65b6d696p-6,
        0x1.9bd53ed67d43p-1, -0x1.41878381ba09fp+0, 0x1.fedd1ad1889d1p-1,
        0x1.931e9b9d6dcbep-2, -0x1.b291fa079192ap-1, -0x1.272b6016359e2p-1,
        0x1.69a8258e2bea1p-2, 0x1.029904c90d00ap-3, 0x1.ad3500e38d005p-1,
        0x1.65a4d790e1b84p-1, -0x1.e129b12410cf9p-2, 0x1.46e8a6ef1ff76p-1,
        0x1.6f5a48acebf62p-1, -0x1.28cf4b7950acap-4, -0x1.bf3d596425b22p-1,
    };
    pu::Rng rng(185);
    bool saw_tail = false;
    for (int i = 0; i < 256; ++i) {
        const double x = rng.gaussianFast();
        EXPECT_EQ(x, kFast[i]) << "variate " << i;
        // Only the tail path lands past the outermost layer edge r.
        saw_tail = saw_tail || std::abs(x) > 3.6541528853610088;
    }
    EXPECT_TRUE(saw_tail);
    double block[24];
    rng.gaussianFastBlock(0.0, 0.9, block, 24);
    for (int i = 0; i < 24; ++i) {
        EXPECT_EQ(block[i], kBlock[i]) << "block variate " << i;
    }
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
