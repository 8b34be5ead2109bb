/**
 * @file
 * Unit tests for the TDC sensor: capture semantics, Hamming-distance
 * post-processing, calibration, measurement, the Measure design and
 * the ring-oscillator baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "fabric/device.hpp"
#include "fabric/drc.hpp"
#include "phys/aging.hpp"
#include "phys/bti.hpp"
#include "phys/thermal.hpp"
#include "tdc/measure_design.hpp"
#include "tdc/ro_sensor.hpp"
#include "tdc/tdc.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

#include "aging_at.hpp"

namespace pa = pentimento::aging_at;
namespace pf = pentimento::fabric;
namespace pp = pentimento::phys;
namespace pt = pentimento::tdc;
namespace pu = pentimento::util;

namespace {

pf::DeviceConfig
deviceConfig(std::uint64_t seed = 1)
{
    pf::DeviceConfig config;
    config.tiles_x = 32;
    config.tiles_y = 32;
    config.nodes_per_tile = 64;
    config.seed = seed;
    return config;
}

pt::TdcConfig
quietTdc()
{
    pt::TdcConfig config;
    config.jitter_sigma_ps = 0.0;
    config.metastable_window_ps = 1e-9;
    return config;
}

struct Bench
{
    explicit Bench(double route_ps = 1000.0,
                   pt::TdcConfig tdc_config = {},
                   std::uint64_t seed = 1)
        : device(deviceConfig(seed)),
          route(device.allocateRoute("rut", route_ps)),
          chain(device.allocateCarryChain("chain", tdc_config.taps)),
          sensor(device, route, chain, tdc_config), rng(seed)
    {
    }

    pf::Device device;
    pf::RouteSpec route;
    pf::RouteSpec chain;
    pt::Tdc sensor;
    pu::Rng rng;
};

} // namespace

// ------------------------------------------------------------ Capture

TEST(Capture, HammingDistanceRisingCountsOnes)
{
    pt::Capture cap;
    cap.polarity = pp::Transition::Rising;
    cap.bits = {true, true, true, false, false};
    EXPECT_EQ(cap.hammingDistance(), 3u);
}

TEST(Capture, HammingDistanceFallingCountsZeros)
{
    pt::Capture cap;
    cap.polarity = pp::Transition::Falling;
    cap.bits = {false, false, true, true, true, true};
    EXPECT_EQ(cap.hammingDistance(), 2u);
}

TEST(Capture, HammingHandlesBubbles)
{
    // The paper's falling example: 0000_0110_1111... has HD 6 from
    // all-ones (six zeros).
    pt::Capture cap;
    cap.polarity = pp::Transition::Falling;
    cap.bits = {false, false, false, false, false, true, true, false,
                true,  true,  true,  true};
    EXPECT_EQ(cap.hammingDistance(), 6u);
}

TEST(Trace, MeanHamming)
{
    pt::Trace trace;
    trace.hamming = {10.0, 12.0, 14.0};
    EXPECT_DOUBLE_EQ(trace.meanHamming(), 12.0);
}

// ---------------------------------------------------------------- Tdc

TEST(Tdc, ConstructorValidatesChainArity)
{
    pf::Device device(deviceConfig());
    const pf::RouteSpec route = device.allocateRoute("r", 500.0);
    const pf::RouteSpec chain = device.allocateCarryChain("c", 32);
    pt::TdcConfig config; // expects 64 taps
    EXPECT_THROW(pt::Tdc(device, route, chain, config), pu::FatalError);
}

TEST(Tdc, CaptureAtZeroThetaSeesNothing)
{
    Bench bench(1000.0, quietTdc());
    const pt::Capture cap = bench.sensor.capture(
        pp::Transition::Rising, 0.0, 333.15, bench.rng);
    EXPECT_EQ(cap.hammingDistance(), 0u);
}

TEST(Tdc, CaptureAtHugeThetaSeesFullChain)
{
    Bench bench(1000.0, quietTdc());
    const pt::Capture cap = bench.sensor.capture(
        pp::Transition::Rising, 1e6, 333.15, bench.rng);
    EXPECT_EQ(cap.hammingDistance(), bench.sensor.config().taps);
}

TEST(Tdc, FallingCaptureConventions)
{
    Bench bench(1000.0, quietTdc());
    const pt::Capture none = bench.sensor.capture(
        pp::Transition::Falling, 0.0, 333.15, bench.rng);
    // Nothing propagated: the chain still shows the old all-ones
    // state, so HD from all-ones is zero.
    EXPECT_EQ(none.hammingDistance(), 0u);
    for (const bool bit : none.bits) {
        EXPECT_TRUE(bit);
    }
}

class ThetaSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ThetaSweep, HammingMonotoneInTheta)
{
    Bench bench(1000.0, quietTdc());
    const double theta = GetParam();
    const auto hd_at = [&](double t) {
        return bench.sensor
            .capture(pp::Transition::Rising, t, 333.15, bench.rng)
            .hammingDistance();
    };
    EXPECT_LE(hd_at(theta), hd_at(theta + 15.0));
}

INSTANTIATE_TEST_SUITE_P(AroundRouteDelay, ThetaSweep,
                         ::testing::Values(950.0, 1000.0, 1050.0,
                                           1100.0, 1150.0));

TEST(Tdc, MetastabilityCreatesVariedCaptures)
{
    pt::TdcConfig config;
    config.jitter_sigma_ps = 0.0;
    config.metastable_window_ps = 6.0;
    Bench bench(1000.0, config);
    // Park θ mid-chain so several taps sit inside the aperture.
    const double theta = 1000.0 * 1.02 + 32 * 2.8;
    bool varied = false;
    const auto first =
        bench.sensor
            .capture(pp::Transition::Rising, theta, 333.15, bench.rng)
            .hammingDistance();
    for (int i = 0; i < 50 && !varied; ++i) {
        varied = bench.sensor
                     .capture(pp::Transition::Rising, theta, 333.15,
                              bench.rng)
                     .hammingDistance() != first;
    }
    EXPECT_TRUE(varied);
}

TEST(Tdc, QuietConfigIsDeterministic)
{
    Bench bench(1000.0, quietTdc());
    const double theta = 1100.0;
    const auto a = bench.sensor.capture(pp::Transition::Rising, theta,
                                        333.15, bench.rng);
    const auto b = bench.sensor.capture(pp::Transition::Rising, theta,
                                        333.15, bench.rng);
    EXPECT_EQ(a.bits, b.bits);
}

TEST(Tdc, CalibrationLandsMidChain)
{
    Bench bench(2000.0);
    const double theta = bench.sensor.calibrate(333.15, bench.rng);
    EXPECT_GT(theta, 0.0);
    const pt::Trace rise = bench.sensor.takeTrace(
        pp::Transition::Rising, theta, 333.15, bench.rng);
    const pt::Trace fall = bench.sensor.takeTrace(
        pp::Transition::Falling, theta, 333.15, bench.rng);
    const double margin =
        static_cast<double>(bench.sensor.config().calibration_margin);
    const double taps = static_cast<double>(bench.sensor.config().taps);
    EXPECT_GT(rise.meanHamming(), margin - 1.0);
    EXPECT_LT(rise.meanHamming(), taps - margin + 1.0);
    EXPECT_GT(fall.meanHamming(), margin - 1.0);
    EXPECT_LT(fall.meanHamming(), taps - margin + 1.0);
}

class CalibrationSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(CalibrationSweep, WorksAcrossRouteLengths)
{
    Bench bench(GetParam());
    const double theta = bench.sensor.calibrate(333.15, bench.rng);
    // θ_init must exceed the route transit plus part of the chain.
    EXPECT_GT(theta, GetParam() * 0.8);
    const pt::Trace rise = bench.sensor.takeTrace(
        pp::Transition::Rising, theta, 333.15, bench.rng);
    EXPECT_GT(rise.meanHamming(), 4.0);
    EXPECT_LT(rise.meanHamming(),
              static_cast<double>(bench.sensor.config().taps) - 4.0);
}

INSTANTIATE_TEST_SUITE_P(PaperLengths, CalibrationSweep,
                         ::testing::Values(1000.0, 2000.0, 5000.0,
                                           10000.0));

TEST(Tdc, MeasureRequiresCalibration)
{
    Bench bench;
    EXPECT_THROW(bench.sensor.measure(333.15, bench.rng),
                 pu::FatalError);
}

TEST(Tdc, ThetaInitAdoption)
{
    Bench bench;
    bench.sensor.setThetaInit(1234.5);
    EXPECT_DOUBLE_EQ(bench.sensor.thetaInit(), 1234.5);
}

TEST(Tdc, MeasureWallClockModel)
{
    Bench bench;
    bench.sensor.calibrate(333.15, bench.rng);
    const pt::Measurement m = bench.sensor.measure(333.15, bench.rng);
    const auto &config = bench.sensor.config();
    const double expected =
        config.traces_per_measurement *
        (config.retune_seconds +
         2.0 * config.samples_per_trace * config.sample_seconds);
    EXPECT_DOUBLE_EQ(m.wall_seconds, expected);
}

TEST(Tdc, PristineRouteDeltaNearZero)
{
    Bench bench(1000.0);
    bench.sensor.calibrate(333.15, bench.rng);
    const pt::Measurement m = bench.sensor.measure(333.15, bench.rng);
    EXPECT_LT(std::abs(m.deltaPs()), 6.0);
}

TEST(Tdc, Burn1RaisesDeltaPs)
{
    Bench bench(2000.0);
    bench.sensor.calibrate(333.15, bench.rng);
    const pt::Measurement before =
        bench.sensor.measure(333.15, bench.rng);

    // Age the route under logic 1 (PBTI slows the falling edge).
    auto design = std::make_shared<pf::Design>("burn");
    design->setRouteValue(bench.route, true);
    bench.device.loadDesign(design);
    pp::OvenEnvironment oven(333.15);
    bench.device.advance(200.0, oven);
    bench.device.wipe();

    const pt::Measurement after =
        bench.sensor.measure(333.15, bench.rng);
    EXPECT_GT(after.deltaPs() - before.deltaPs(), 1.0);
}

TEST(Tdc, Burn0LowersDeltaPs)
{
    Bench bench(2000.0);
    bench.sensor.calibrate(333.15, bench.rng);
    const pt::Measurement before =
        bench.sensor.measure(333.15, bench.rng);

    auto design = std::make_shared<pf::Design>("burn");
    design->setRouteValue(bench.route, false);
    bench.device.loadDesign(design);
    pp::OvenEnvironment oven(333.15);
    bench.device.advance(200.0, oven);
    bench.device.wipe();

    const pt::Measurement after =
        bench.sensor.measure(333.15, bench.rng);
    EXPECT_LT(after.deltaPs() - before.deltaPs(), -1.0);
}

class BurnContrastSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(BurnContrastSweep, ContrastScalesWithRouteLength)
{
    const double length = GetParam();
    Bench bench(length);
    bench.sensor.calibrate(333.15, bench.rng);
    const double before =
        bench.sensor.measure(333.15, bench.rng).deltaPs();
    auto design = std::make_shared<pf::Design>("burn");
    design->setRouteValue(bench.route, true);
    bench.device.loadDesign(design);
    pp::OvenEnvironment oven(333.15);
    bench.device.advance(200.0, oven);
    bench.device.wipe();
    const double after =
        bench.sensor.measure(333.15, bench.rng).deltaPs();
    const double contrast = after - before;
    // Roughly 1.05 ps per ns of route (the Figure 6 envelope).
    EXPECT_GT(contrast, 0.7 * length / 1000.0);
    EXPECT_LT(contrast, 1.6 * length / 1000.0);
}

INSTANTIATE_TEST_SUITE_P(PaperLengths, BurnContrastSweep,
                         ::testing::Values(1000.0, 2000.0, 5000.0,
                                           10000.0));

// ------------------------------------------------ TdcConfig validation

namespace {

/** Expect the Tdc constructor to reject the mutated config. */
template <typename Mutate>
void
expectConfigRejected(Mutate mutate)
{
    pf::Device device(deviceConfig());
    const pf::RouteSpec route = device.allocateRoute("r", 500.0);
    const pf::RouteSpec chain = device.allocateCarryChain("c", 64);
    pt::TdcConfig config;
    mutate(config);
    EXPECT_THROW(pt::Tdc(device, route, chain, config), pu::FatalError);
}

} // namespace

TEST(TdcConfigValidation, RejectsZeroWindow)
{
    // A zero/negative aperture would divide the per-tap predicate by
    // zero and emit NaN hamming with no diagnostic.
    expectConfigRejected(
        [](pt::TdcConfig &c) { c.metastable_window_ps = 0.0; });
    expectConfigRejected(
        [](pt::TdcConfig &c) { c.metastable_window_ps = -4.0; });
}

TEST(TdcConfigValidation, RejectsZeroTaps)
{
    expectConfigRejected([](pt::TdcConfig &c) { c.taps = 0; });
}

TEST(TdcConfigValidation, RejectsNonPositiveSamplesPerTrace)
{
    expectConfigRejected(
        [](pt::TdcConfig &c) { c.samples_per_trace = 0; });
    expectConfigRejected(
        [](pt::TdcConfig &c) { c.samples_per_trace = -3; });
}

TEST(TdcConfigValidation, RejectsNonPositiveTracesPerMeasurement)
{
    expectConfigRejected(
        [](pt::TdcConfig &c) { c.traces_per_measurement = 0; });
}

TEST(TdcConfigValidation, RejectsNegativeOrNonFiniteJitter)
{
    expectConfigRejected(
        [](pt::TdcConfig &c) { c.jitter_sigma_ps = -0.1; });
    expectConfigRejected([](pt::TdcConfig &c) {
        c.jitter_sigma_ps = std::numeric_limits<double>::quiet_NaN();
    });
}

TEST(TdcConfigValidation, RejectsNonPositivePsPerBit)
{
    expectConfigRejected([](pt::TdcConfig &c) { c.ps_per_bit = 0.0; });
}

TEST(TdcConfigValidation, ZeroJitterStaysLegal)
{
    // The quiet (noiseless) sensors used throughout these tests must
    // keep constructing.
    pf::Device device(deviceConfig());
    const pf::RouteSpec route = device.allocateRoute("r", 500.0);
    const pf::RouteSpec chain = device.allocateCarryChain("c", 64);
    EXPECT_NO_THROW(pt::Tdc(device, route, chain, quietTdc()));
}

// ------------------------------------------- calibration bracketing

namespace {

/**
 * Age every route element far beyond its target delay, with the AC
 * duty chosen so NBTI's stronger prefactor is offset by less stress
 * time — both polarities slow by the same factor, which is what keeps
 * the falling front inside the chain once the rising front is tuned
 * mid-chain. (duty/(1-duty))^n == (nbti/pbti prefactor ratio) with
 * n = 0.25.
 */
void
injectExtremeAging(pf::Device &device, const pf::RouteSpec &route,
                   double scale)
{
    const pp::BtiParams params = pp::BtiParams::ultrascalePlus();
    const double ratio = std::pow(
        params.nbti.prefactor_v / params.pbti.prefactor_v,
        1.0 / params.pbti.time_exponent);
    const double duty = ratio / (1.0 + ratio);
    for (const pf::ResourceId &id : route.elements) {
        pf::RoutingElement &elem = device.element(id);
        elem.aging().setScale(scale);
        pa::holdToggling(elem.aging(), params, duty, 333.15, 100.0);
    }
}

} // namespace

TEST(Tdc, CalibrateWidensBracketForExtremeAgedRoute)
{
    // A route aged ~9x past its target exceeds the nominal θ search
    // bracket; the old fixed bracket silently saturated and returned
    // a θ below the route transit, biasing every measurement.
    Bench bench(1000.0);
    injectExtremeAging(bench.device, bench.route, 1e4);
    const double nominal_hi = 1000.0 * 2.0 + 64 * 2.8 + 2000.0;
    const double theta = bench.sensor.calibrate(333.15, bench.rng);
    EXPECT_GT(theta, nominal_hi);
    const pt::Trace rise = bench.sensor.takeTrace(
        pp::Transition::Rising, theta, 333.15, bench.rng);
    EXPECT_GT(rise.meanHamming(), 4.0);
    EXPECT_LT(rise.meanHamming(), 60.0);
}

TEST(Tdc, CalibrateFatalWhenRouteExceedsMaxBracket)
{
    // Beyond the bounded geometric widening the sensor must fail
    // loudly instead of returning a saturated θ.
    Bench bench(1000.0);
    injectExtremeAging(bench.device, bench.route, 1e8);
    EXPECT_THROW(bench.sensor.calibrate(333.15, bench.rng),
                 pu::FatalError);
}

// --------------------------------------- capture/sample lockstep

TEST(Tdc, SampleHammingMatchesCaptureLockstep)
{
    // sampleHamming duplicates captureFromArrivals' aperture
    // predicate without materialising bits; the two must agree on the
    // Hamming distance AND consume the identical draw sequence for
    // random θ, temperature and aging states.
    const pp::BtiParams params = pp::BtiParams::ultrascalePlus();
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Bench bench(1500.0, pt::TdcConfig{}, seed + 10);
        pu::Rng setup(seed * 77 + 5);
        for (const pf::ResourceId &id : bench.route.elements) {
            if (setup.bernoulli(0.7)) {
                pa::holdStatic(
                    bench.device.element(id).aging(), 
                    params, setup.bernoulli(0.5),
                    setup.uniform(300.0, 360.0),
                    setup.uniform(0.0, 300.0));
            }
        }
        for (int trial = 0; trial < 30; ++trial) {
            const double temp = setup.uniform(300.0, 370.0);
            const pp::Transition polarity = setup.bernoulli(0.5)
                                                ? pp::Transition::Rising
                                                : pp::Transition::Falling;
            const auto &arrivals =
                bench.sensor.arrivals(polarity, temp);
            const double theta = setup.uniform(
                arrivals.front() - 50.0, arrivals.back() + 50.0);
            pu::Rng rng_cap(seed * 1000 + trial);
            pu::Rng rng_fast(seed * 1000 + trial);
            const std::size_t cap_hd =
                bench.sensor
                    .captureFromArrivals(arrivals, polarity, theta,
                                         rng_cap)
                    .hammingDistance();
            const std::size_t fast_hd = bench.sensor.sampleHamming(
                arrivals, theta, rng_fast);
            EXPECT_EQ(cap_hd, fast_hd)
                << "seed " << seed << " trial " << trial;
            // Lockstep: both paths must have consumed the same draws.
            EXPECT_EQ(rng_cap(), rng_fast())
                << "seed " << seed << " trial " << trial;
        }
    }
}

// -------------------------------------------- fast sampling mode

TEST(FastSampling, StatisticallyEquivalentAcrossSeeds)
{
    // fast_sampling deliberately re-rolls sample paths (ziggurat
    // jitter, fused integer traces), so per-seed values differ; the
    // distribution of the measured observable must not move. Same
    // devices, same aging, same burn in both arms — only the sampling
    // draws differ.
    pu::RunningStats exact_stats;
    pu::RunningStats fast_stats;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        for (int fast = 0; fast < 2; ++fast) {
            pt::TdcConfig config;
            config.fast_sampling = fast == 1;
            Bench bench(2000.0, config, seed);
            bench.sensor.calibrate(333.15, bench.rng);
            auto design = std::make_shared<pf::Design>("burn");
            design->setRouteValue(bench.route, true);
            bench.device.loadDesign(design);
            pp::OvenEnvironment oven(333.15);
            bench.device.advance(200.0, oven);
            bench.device.wipe();
            const double delta =
                bench.sensor.measure(333.15, bench.rng).deltaPs();
            (fast == 1 ? fast_stats : exact_stats).add(delta);
        }
    }
    // Burn 1 drives ∆ps positive in both modes…
    EXPECT_GT(exact_stats.mean(), 1.0);
    EXPECT_GT(fast_stats.mean(), 1.0);
    // …and the seed-sweep means and spreads agree within sampling
    // noise (tolerances ~3x the empirical SEM of the 10-seed means).
    EXPECT_NEAR(fast_stats.mean(), exact_stats.mean(), 0.4);
    EXPECT_LT(std::abs(fast_stats.stddev() - exact_stats.stddev()),
              0.5);
}

TEST(FastSampling, CalibratesToSameThetaNeighbourhood)
{
    // Calibration is a statistic of many traces; fast and exact modes
    // must land θ_init within a few taps of each other.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        pt::TdcConfig exact_config;
        pt::TdcConfig fast_config;
        fast_config.fast_sampling = true;
        Bench exact_bench(2000.0, exact_config, seed);
        Bench fast_bench(2000.0, fast_config, seed);
        const double exact_theta =
            exact_bench.sensor.calibrate(333.15, exact_bench.rng);
        const double fast_theta =
            fast_bench.sensor.calibrate(333.15, fast_bench.rng);
        EXPECT_NEAR(fast_theta, exact_theta, 4.0 * 2.8)
            << "seed " << seed;
    }
}

namespace {

/** Recorded rising/falling distances of one fast-sampling measure(). */
struct RecordedMeasurement
{
    double rising_ps;
    double falling_ps;
};

/**
 * Calibrate a fast-sampling 2000 ps sensor, then measure it pristine,
 * after a 200 h burn-1 and twice after a 30 h recovery, comparing
 * every value bit for bit. The burn and recovery put BTI shifts, and
 * the recovery term, into the arrival walk the sampler reads.
 */
void
expectRecordedFastMeasurements(
    double window_ps, double theta_init,
    const RecordedMeasurement (&recorded)[4])
{
    pt::TdcConfig config;
    config.fast_sampling = true;
    config.metastable_window_ps = window_ps;
    Bench bench(2000.0, config);
    EXPECT_EQ(bench.sensor.calibrate(333.15, bench.rng), theta_init);
    const auto expectMeasure = [&](int k) {
        const pt::Measurement m = bench.sensor.measure(333.15, bench.rng);
        EXPECT_EQ(m.rising_distance_ps, recorded[k].rising_ps) << k;
        EXPECT_EQ(m.falling_distance_ps, recorded[k].falling_ps) << k;
    };
    expectMeasure(0);
    auto design = std::make_shared<pf::Design>("burn");
    design->setRouteValue(bench.route, true);
    bench.device.loadDesign(design);
    pp::OvenEnvironment oven(333.15);
    bench.device.advance(200.0, oven);
    expectMeasure(1);
    bench.device.wipe();
    bench.device.advance(30.0, oven);
    expectMeasure(2);
    expectMeasure(3);
}

} // namespace

TEST(FastSampling, MeasureRecordedValues)
{
    // Default geometry: the 4 ps aperture never holds more than two
    // taps, so only the fixed-trip pair of aperture draws runs.
    const RecordedMeasurement recorded[4] = {
        {0x1.61bbbbbbbbbbcp+6, 0x1.5d4ccccccccccp+6},
        {0x1.624b17e4b17e4p+6, 0x1.5581b4e81b4e8p+6},
        {0x1.609d0369d036ap+6, 0x1.56947ae147ae1p+6},
        {0x1.613851eb851ebp+6, 0x1.561d0369d036ap+6},
    };
    expectRecordedFastMeasurements(4.0, 0x1.056633999999ap+11, recorded);
}

TEST(FastSampling, WideApertureMeasureRecordedValues)
{
    // A 6 ps aperture spans more than two tap pitches, so some samples
    // see three metastable taps and run the generic tail loop past
    // the fixed-trip pair.
    {
        pt::TdcConfig config;
        config.metastable_window_ps = 6.0;
        Bench bench(2000.0, config);
        const std::vector<double> &arrivals =
            bench.sensor.arrivals(pp::Transition::Rising, 333.15);
        double narrowest = arrivals.back() - arrivals.front();
        for (std::size_t i = 0; i + 2 < arrivals.size(); ++i) {
            narrowest = std::min(narrowest, arrivals[i + 2] - arrivals[i]);
        }
        ASSERT_LT(narrowest, config.metastable_window_ps);
    }
    const RecordedMeasurement recorded[4] = {
        {0x1.5e5f92c5f92c6p+6, 0x1.59cccccccccccp+6},
        {0x1.5ep+6, 0x1.52258bf258bf2p+6},
        {0x1.5d88888888888p+6, 0x1.543f258bf258cp+6},
        {0x1.5e2fc962fc962p+6, 0x1.526147ae147adp+6},
    };
    expectRecordedFastMeasurements(6.0, 0x1.054807999999ap+11, recorded);
}

// -------------------------------------------------------MeasureDesign

TEST(MeasureDesign, OneSensorPerRoute)
{
    pf::Device device(deviceConfig());
    std::vector<pf::RouteSpec> routes{device.allocateRoute("a", 1000.0),
                                      device.allocateRoute("b", 2000.0)};
    pt::MeasureDesign design(device, routes);
    EXPECT_EQ(design.sensorCount(), 2u);
    EXPECT_EQ(design.sensor(0).routeSpec().name, "a");
    EXPECT_EQ(design.sensor(1).routeSpec().name, "b");
    EXPECT_THROW(design.sensor(2), pu::FatalError);
}

TEST(MeasureDesign, EmptyRouteListFatal)
{
    pf::Device device(deviceConfig());
    EXPECT_THROW(pt::MeasureDesign(device, {}), pu::FatalError);
}

TEST(MeasureDesign, PassesProviderDrc)
{
    pf::Device device(deviceConfig());
    std::vector<pf::RouteSpec> routes{device.allocateRoute("a", 1000.0)};
    pt::MeasureDesign design(device, routes);
    const pf::DesignRuleChecker drc;
    EXPECT_TRUE(drc.accepts(design));
}

TEST(MeasureDesign, CalibrateAllAndMeasureAll)
{
    pf::Device device(deviceConfig());
    std::vector<pf::RouteSpec> routes{device.allocateRoute("a", 1000.0),
                                      device.allocateRoute("b", 5000.0)};
    pt::MeasureDesign design(device, routes);
    pu::Rng rng(3);
    const std::vector<double> thetas = design.calibrateAll(333.15, rng);
    ASSERT_EQ(thetas.size(), 2u);
    EXPECT_GT(thetas[1], thetas[0]); // longer route needs larger θ
    const pt::MeasurementSweep sweep = design.measureAll(333.15, rng);
    EXPECT_EQ(sweep.per_route.size(), 2u);
    EXPECT_GT(sweep.wall_seconds, 0.0);
}

TEST(MeasureDesign, AdoptThetaInitsArityChecked)
{
    pf::Device device(deviceConfig());
    std::vector<pf::RouteSpec> routes{device.allocateRoute("a", 1000.0)};
    pt::MeasureDesign design(device, routes);
    EXPECT_THROW(design.adoptThetaInits({1.0, 2.0}), pu::FatalError);
    design.adoptThetaInits({1111.0});
    EXPECT_DOUBLE_EQ(design.sensor(0).thetaInit(), 1111.0);
}

TEST(MeasureDesign, MarksRoutesAndChainsToggling)
{
    pf::Device device(deviceConfig());
    std::vector<pf::RouteSpec> routes{device.allocateRoute("a", 500.0)};
    pt::MeasureDesign design(device, routes);
    EXPECT_EQ(design.activityFor(routes[0].elements[0]).kind,
              pf::Activity::Toggle);
    EXPECT_EQ(
        design.activityFor(design.sensor(0).chainSpec().elements[0])
            .kind,
        pf::Activity::Toggle);
}

// ------------------------------------------------------------ RO base

TEST(RoSensor, PeriodSumsBothPolarities)
{
    pf::Device device(deviceConfig());
    const pf::RouteSpec route = device.allocateRoute("r", 1000.0);
    pt::RoConfig config;
    pt::RingOscillatorSensor ro(device, route, config);
    pf::Route bound = device.bindRoute(route);
    const double expected =
        bound.delayPs(pp::Transition::Rising, 333.15) +
        bound.delayPs(pp::Transition::Falling, 333.15) +
        2.0 * config.inverter_ps;
    EXPECT_NEAR(ro.periodPs(333.15), expected, 1e-9);
}

TEST(RoSensor, CannotDistinguishBurnPolarity)
{
    // The paper's core argument against RO sensing: both burn
    // polarities slow the loop, so the scalar output loses the sign.
    pf::DeviceConfig config = deviceConfig();
    pf::Device dev_one(config);
    pf::Device dev_zero(config);
    const pf::RouteSpec route_one = dev_one.allocateRoute("r", 2000.0);
    const pf::RouteSpec route_zero = dev_zero.allocateRoute("r", 2000.0);

    pp::OvenEnvironment oven(333.15);
    auto design_one = std::make_shared<pf::Design>("one");
    design_one->setRouteValue(route_one, true);
    dev_one.loadDesign(design_one);
    dev_one.advance(200.0, oven);

    auto design_zero = std::make_shared<pf::Design>("zero");
    design_zero->setRouteValue(route_zero, false);
    dev_zero.loadDesign(design_zero);
    dev_zero.advance(200.0, oven);

    pt::RingOscillatorSensor ro_one(dev_one, route_one);
    pt::RingOscillatorSensor ro_zero(dev_zero, route_zero);
    const double p1 = ro_one.periodPs(333.15);
    const double p0 = ro_zero.periodPs(333.15);
    // Both periods grew; their difference is far smaller than either
    // growth (NBTI vs PBTI prefactor gap only).
    pf::Device fresh(config);
    const pf::RouteSpec route_f = fresh.allocateRoute("r", 2000.0);
    pt::RingOscillatorSensor ro_fresh(fresh, route_f);
    const double pf_ = ro_fresh.periodPs(333.15);
    EXPECT_GT(p1, pf_);
    EXPECT_GT(p0, pf_);
    EXPECT_LT(std::abs(p1 - p0), 0.6 * std::min(p1 - pf_, p0 - pf_));
}

TEST(RoSensor, DesignFailsDrc)
{
    pf::Device device(deviceConfig());
    const pf::RouteSpec route = device.allocateRoute("r", 1000.0);
    pt::RingOscillatorSensor ro(device, route);
    const pf::DesignRuleChecker drc;
    const auto violations = drc.check(*ro.buildDesign());
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations[0].rule, "combinational-loop");
}

TEST(RoSensor, FrequencyReadingIsNoisyButClose)
{
    pf::Device device(deviceConfig());
    const pf::RouteSpec route = device.allocateRoute("r", 1000.0);
    pt::RingOscillatorSensor ro(device, route);
    pu::Rng rng(5);
    const double nominal = 1e6 / ro.periodPs(333.15);
    for (int i = 0; i < 20; ++i) {
        EXPECT_NEAR(ro.readFrequencyMhz(333.15, rng), nominal,
                    nominal * 1e-3);
    }
}

TEST(RoSensor, EmptyRouteFatal)
{
    pf::Device device(deviceConfig());
    pf::RouteSpec empty;
    EXPECT_THROW(pt::RingOscillatorSensor(device, empty),
                 pu::FatalError);
}
