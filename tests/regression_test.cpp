/**
 * @file
 * Regression locks for the dense-aging-store refactor.
 *
 *  - Golden values: a small Figure-6-style Experiment 1 (fixed seed,
 *    4 routes, 6 sweeps) recorded from the pre-refactor hash-map
 *    implementation. The dense slab, bind-time handles, per-step
 *    kinetics context and epoch-keyed arrival caches must reproduce
 *    every ∆ps sample bit for bit.
 *  - State-epoch semantics: advance/loadDesign/wipe/applyServiceWear
 *    bump the epoch (cache invalidation), reads don't.
 *  - Worker-count invariance of the dense aging sweep and the
 *    measurement sweep: 1 lane vs 4 lanes, bit-identical.
 *  - materializedIds() determinism: sorted by packed key.
 *  - Driver pins: an FNV-1a digest over every field of the results of
 *    Experiments 1-3 and the TM1/TM2 facades, at 1 and 3 lanes, so a
 *    change to the shared condition/measure schedule cannot move a
 *    single output bit unnoticed.
 *  - The shared schedule's partition and its argument checks, which
 *    every driver inherits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/attack.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "phys/thermal.hpp"
#include "tdc/measure_design.hpp"
#include "tdc/tdc.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace pc = pentimento::core;
namespace pcl = pentimento::cloud;
namespace pf = pentimento::fabric;
namespace pp = pentimento::phys;
namespace pt = pentimento::tdc;
namespace pu = pentimento::util;

namespace {

pc::Experiment1Config
goldenConfig()
{
    pc::Experiment1Config config;
    config.groups = {{1000.0, 2}, {2000.0, 2}};
    config.burn_hours = 6.0;
    config.recovery_hours = 4.0;
    config.measure_every_h = 2.0;
    config.arith.dsp_count = 8;
    config.seed = 424242;
    return config;
}

struct GoldenRoute
{
    const char *name;
    bool burn_value;
    std::vector<double> hours;
    std::vector<double> delta_ps;
};

/** Recorded from the pre-refactor implementation (hexfloat exact). */
const std::vector<GoldenRoute> kGolden = {
    {"rut_1000ps_0", false,
     {0x0p+0, 0x1p+1, 0x1p+2, 0x1.8p+2, 0x1p+3, 0x1.4p+3},
     {0x0p+0, -0x1.06d3a06d3ap-1, -0x1.6c5f92c5f938p-1,
      -0x1.06d3a06d3ap-1, -0x1.ddddddddddep-3, -0x1.06d3a06d3a2p-3}},
    {"rut_1000ps_1", true,
     {0x0p+0, 0x1p+1, 0x1p+2, 0x1.8p+2, 0x1p+3, 0x1.4p+3},
     {0x0p+0, 0x1.dddddddddep-3, 0x1.7e4b17e4b19p-2,
      0x1.428f5c28f5dp-2, -0x1.06d3a06d3ap-2, -0x1.2aaaaaaaaaap-2}},
    {"rut_2000ps_0", false,
     {0x0p+0, 0x1p+1, 0x1p+2, 0x1.8p+2, 0x1p+3, 0x1.4p+3},
     {0x0p+0, -0x1.844444444438p-1, -0x1.ddddddddddd8p-1,
      -0x1.0fc962fc962cp+0, -0x1.428f5c28f5b8p-1,
      -0x1.7e4b17e4b16p-3}},
    {"rut_2000ps_1", true,
     {0x0p+0, 0x1p+1, 0x1p+2, 0x1.8p+2, 0x1p+3, 0x1.4p+3},
     {0x0p+0, 0x1.48888888888p-1, 0x1.4e81b4e81b5p-1,
      0x1.a2222222222p-1, 0x1.1eb851eb84cp-3, -0x1.7e4b17e4b4p-6}},
};

void
expectMatchesGolden(const pc::ExperimentResult &result)
{
    ASSERT_EQ(result.routes.size(), kGolden.size());
    EXPECT_EQ(result.sweeps, 6u);
    EXPECT_EQ(result.measure_seconds, 0x1.16c8b43958106p+4);
    for (std::size_t r = 0; r < kGolden.size(); ++r) {
        const pc::RouteRecord &route = result.routes[r];
        const GoldenRoute &golden = kGolden[r];
        EXPECT_EQ(route.name, golden.name);
        EXPECT_EQ(route.burn_value, golden.burn_value);
        ASSERT_EQ(route.series.size(), golden.hours.size());
        for (std::size_t k = 0; k < golden.hours.size(); ++k) {
            // Bit-exact: the refactor's caches must return the same
            // doubles the per-element recomputation produced.
            EXPECT_EQ(route.series.hours()[k], golden.hours[k])
                << route.name << " point " << k;
            EXPECT_EQ(route.series.values()[k], golden.delta_ps[k])
                << route.name << " point " << k;
        }
    }
}

TEST(GoldenRegression, Figure6StyleRunIsBitIdenticalToSeed)
{
    expectMatchesGolden(pc::runExperiment1(goldenConfig()));
}

TEST(GoldenRegression, Figure6StyleRunIsBitIdenticalWithWorkers)
{
    pu::ThreadPool pool(3);
    pc::Experiment1Config config = goldenConfig();
    config.pool = &pool;
    expectMatchesGolden(pc::runExperiment1(config));
}

// --------------------------------------------------- state epoch

pf::DeviceConfig
tinyConfig()
{
    pf::DeviceConfig config;
    config.tiles_x = 8;
    config.tiles_y = 8;
    config.nodes_per_tile = 32;
    return config;
}

TEST(StateEpoch, AdvanceBumps)
{
    pf::Device device(tinyConfig());
    pp::OvenEnvironment oven(333.15);
    const std::uint64_t before = device.stateEpoch();
    device.advance(1.0, oven);
    EXPECT_GT(device.stateEpoch(), before);
}

TEST(StateEpoch, LoadDesignBumps)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 250.0);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(spec, true);
    const std::uint64_t before = device.stateEpoch();
    device.loadDesign(design);
    EXPECT_GT(device.stateEpoch(), before);
}

TEST(StateEpoch, WipeBumps)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 250.0);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(spec, true);
    device.loadDesign(design);
    const std::uint64_t before = device.stateEpoch();
    device.wipe();
    EXPECT_GT(device.stateEpoch(), before);
}

TEST(StateEpoch, ServiceWearBumpsOnlyWhenWearing)
{
    pf::Device device(tinyConfig());
    device.element(device.allocateRoute("r", 250.0).elements[0]);
    const std::uint64_t before = device.stateEpoch();
    device.applyServiceWear(0.0);
    EXPECT_EQ(device.stateEpoch(), before);
    device.applyServiceWear(100.0);
    EXPECT_GT(device.stateEpoch(), before);
}

TEST(StateEpoch, ReadsDoNotBump)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 250.0);
    pf::Route route = device.bindRoute(spec);
    const std::uint64_t before = device.stateEpoch();
    (void)route.delayPs(pp::Transition::Rising, 333.15);
    (void)device.materializedIds();
    (void)device.findElement(spec.elements[0]);
    EXPECT_EQ(device.stateEpoch(), before);
}

// ------------------------------------------- cache invalidation

TEST(ArrivalCache, SameStateSameRngGivesSameCapture)
{
    pf::Device device(tinyConfig());
    pt::Tdc sensor(device, device.allocateRoute("r", 500.0),
                   device.allocateCarryChain("c", 64));
    pu::Rng rng_a(7);
    pu::Rng rng_b(7);
    // First call populates the cache, second reads through it; both
    // must see identical arrivals.
    const pt::Capture a =
        sensor.capture(pp::Transition::Rising, 700.0, 333.15, rng_a);
    const pt::Capture b =
        sensor.capture(pp::Transition::Rising, 700.0, 333.15, rng_b);
    EXPECT_EQ(a.bits, b.bits);
}

TEST(ArrivalCache, AgingInvalidatesCachedArrivals)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec route = device.allocateRoute("r", 500.0);
    pt::Tdc sensor(device, route, device.allocateCarryChain("c", 64));
    pu::Rng rng(7);
    sensor.calibrate(333.15, rng);
    const double before = sensor.measure(333.15, rng).deltaPs();

    // Burn the route hard; a stale arrival cache would keep reporting
    // the pre-burn delta.
    auto design = std::make_shared<pf::Design>("burn");
    design->setRouteValue(route, true);
    device.loadDesign(design);
    pp::OvenEnvironment oven(333.15);
    device.advance(500.0, oven);
    device.wipe();

    pu::Rng rng2(7);
    const double after = sensor.measure(333.15, rng2).deltaPs();
    EXPECT_GT(after - before, 0.5);
}

TEST(ArrivalCache, TemperatureChangeInvalidates)
{
    pf::Device device(tinyConfig());
    pt::Tdc sensor(device, device.allocateRoute("r", 500.0),
                   device.allocateCarryChain("c", 64));
    pu::Rng rng(7);
    const double theta = sensor.calibrate(333.15, rng);
    // Warmer die, slower route: fewer taps passed at the same θ.
    pu::Rng rng_cool(9);
    pu::Rng rng_hot(9);
    const auto cool =
        sensor.capture(pp::Transition::Rising, theta, 333.15, rng_cool);
    const auto hot =
        sensor.capture(pp::Transition::Rising, theta, 363.15, rng_hot);
    EXPECT_LT(hot.hammingDistance(), cool.hammingDistance());
}

TEST(ActivityCache, RecycledDesignAllocationDoesNotAliasCache)
{
    // The ablation_device_age pattern: each burn phase builds a fresh
    // Design (often landing on the just-freed allocation, with the
    // same revision count), loads it, advances, wipes. A cache keyed
    // on a raw pointer would mistake the new design for the old one
    // and keep aging with stale activity.
    pf::Device device(tinyConfig());
    const pf::RouteSpec route = device.allocateRoute("r", 500.0);
    pp::OvenEnvironment oven(333.15);
    {
        auto burn1 = std::make_shared<pf::Design>("burn1");
        burn1->setRouteValue(route, true);
        device.loadDesign(burn1);
    }
    device.advance(50.0, oven);
    device.wipe();
    {
        auto burn0 = std::make_shared<pf::Design>("burn0");
        burn0->setRouteValue(route, false);
        device.loadDesign(burn0);
    }
    device.advance(50.0, oven);
    pf::Route bound = device.bindRoute(route);
    // Both phases must have imprinted: burn 1 slows falling edges,
    // burn 0 slows rising edges.
    EXPECT_GT(bound.btiShiftPs(pp::Transition::Falling), 0.1);
    EXPECT_GT(bound.btiShiftPs(pp::Transition::Rising), 0.1);
}

TEST(ActivityCache, LateMaterialisedElementAgesAfterInPlaceMutation)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec route_a = device.allocateRoute("a", 250.0);
    const pf::RouteSpec route_b = device.allocateRoute("b", 250.0);
    pp::OvenEnvironment oven(333.15);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(route_a, true);
    device.loadDesign(design);
    device.advance(1.0, oven); // builds the dense activity cache
    // Mutate the loaded design in place to also burn route b, whose
    // elements only materialise afterwards (via binding, not via a
    // reload). The slab-growth check must fold them into the sweep.
    design->setRouteValue(route_b, true);
    pf::Route bound_b = device.bindRoute(route_b);
    device.advance(50.0, oven);
    EXPECT_GT(bound_b.btiShiftPs(pp::Transition::Falling), 0.1);
}

// ------------------------------------- dense sweep determinism

TEST(DenseSweep, WorkerCountInvariantAging)
{
    const auto runAging = [](pu::ThreadPool *pool) {
        pf::Device device(tinyConfig());
        std::vector<pf::RouteSpec> specs;
        auto design = std::make_shared<pf::Design>("d");
        for (int r = 0; r < 6; ++r) {
            specs.push_back(
                device.allocateRoute("r" + std::to_string(r), 400.0));
            if (r % 3 == 0) {
                design->setRouteValue(specs.back(), r % 2 == 0);
            } else {
                design->setRouteToggling(specs.back(), 0.3);
            }
        }
        device.setWorkPool(pool);
        device.loadDesign(design);
        pp::OvenEnvironment oven(333.15);
        for (int step = 0; step < 10; ++step) {
            device.advance(1.0, oven);
        }
        device.setWorkPool(nullptr);
        std::vector<double> delays;
        for (const pf::RouteSpec &spec : specs) {
            pf::Route route = device.bindRoute(spec);
            delays.push_back(
                route.delayPs(pp::Transition::Rising, 333.15));
            delays.push_back(
                route.delayPs(pp::Transition::Falling, 333.15));
        }
        return delays;
    };
    pu::ThreadPool pool(3);
    const std::vector<double> serial = runAging(nullptr);
    const std::vector<double> parallel = runAging(&pool);
    EXPECT_EQ(serial, parallel);
}

TEST(DenseSweep, WorkerCountInvariantMeasurement)
{
    const auto runSweep = [](pu::ThreadPool *pool) {
        pf::Device device(tinyConfig());
        std::vector<pf::RouteSpec> routes;
        for (int r = 0; r < 6; ++r) {
            routes.push_back(
                device.allocateRoute("r" + std::to_string(r), 400.0));
        }
        pt::MeasureDesign design(device, routes);
        pu::Rng rng(21);
        design.calibrateAll(333.15, rng, pool);
        const pt::MeasurementSweep sweep =
            design.measureAll(333.15, rng, pool);
        std::vector<double> flat;
        for (const pt::Measurement &m : sweep.per_route) {
            flat.push_back(m.rising_distance_ps);
            flat.push_back(m.falling_distance_ps);
        }
        return flat;
    };
    pu::ThreadPool pool(3);
    const std::vector<double> serial = runSweep(nullptr);
    const std::vector<double> parallel = runSweep(&pool);
    EXPECT_EQ(serial, parallel);
}

// ---------------------------------------- tenancy-churn golden

/**
 * Multi-tenant golden: 16 journal-backed tenancies (mid-tenancy
 * mitigation flips, fresh routes each, idle recovery between), with
 * only the last two tenancies' routes observed. Recorded from the
 * PR 5 implementation. journal_test and property_test lock that the
 * time of first observation never changes an aged delay; this golden
 * pins the absolute values and counts so a future PR cannot silently
 * perturb the variation/tenancy draw streams or the replay
 * arithmetic.
 */
const std::vector<double> kChurnGolden = {
    0x1.f43518bc3cc1fp+9, 0x1.f511461078846p+9,
    0x1.f4255cef75926p+9, 0x1.f4101631150a4p+9,
    0x1.f49153a7bc7fp+9,  0x1.f2f8a24502bd6p+9,
    0x1.f3681bae805edp+9, 0x1.f2f3a1c61ad86p+9,
    0x1.f2dbfca84afb4p+9, 0x1.ef52fc1ee34afp+9,
    0x1.f5f416203389ep+9, 0x1.f43ff8d492b4fp+9,
    0x1.f4e28b69e0397p+9, 0x1.f0ee594ab659ep+9,
    0x1.f5685bdfbe82cp+9, 0x1.f654550b4683ep+9,
};

TEST(GoldenRegression, TenancyChurnIsBitIdentical)
{
    const pc::TenancyChurnResult result =
        pc::runTenancyChurn(pc::TenancyChurnConfig{});
    ASSERT_EQ(result.observed_delays_ps.size(), kChurnGolden.size());
    for (std::size_t i = 0; i < kChurnGolden.size(); ++i) {
        EXPECT_EQ(result.observed_delays_ps[i], kChurnGolden[i])
            << "churn delay " << i;
    }
    // Only the two observed tenancies' routes materialised; the other
    // fourteen (plus the arithmetic-heavy filler) stay journaled.
    EXPECT_EQ(result.materialized, 320u);
    EXPECT_EQ(result.journaled, 2272u);
    EXPECT_EQ(result.elapsed_h, 0x1.36cp+10);
}

// ------------------------------------------- deterministic ids

TEST(MaterializedIds, SortedByPackedKey)
{
    pf::Device device(tinyConfig());
    // Materialise in deliberately shuffled order.
    const pf::RouteSpec spec = device.allocateRoute("r", 500.0);
    std::vector<pf::ResourceId> shuffled = spec.elements;
    std::reverse(shuffled.begin(), shuffled.end());
    std::swap(shuffled.front(), shuffled[shuffled.size() / 2]);
    for (const pf::ResourceId &id : shuffled) {
        device.element(id);
    }
    const std::vector<pf::ResourceId> ids = device.materializedIds();
    ASSERT_EQ(ids.size(), spec.elements.size());
    EXPECT_TRUE(std::is_sorted(
        ids.begin(), ids.end(),
        [](const pf::ResourceId &a, const pf::ResourceId &b) {
            return a.key() < b.key();
        }));
}

// ------------------------------------------------- driver pins

/** 64-bit FNV-1a over the bytes of every field fed to it. */
class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void
    bits(const std::vector<bool> &v)
    {
        u64(v.size());
        for (const bool b : v) {
            u64(b ? 1 : 0);
        }
    }

    void
    result(const pc::ExperimentResult &r)
    {
        u64(r.routes.size());
        for (const pc::RouteRecord &route : r.routes) {
            str(route.name);
            f64(route.target_ps);
            u64(route.burn_value ? 1 : 0);
            u64(route.series.size());
            for (std::size_t k = 0; k < route.series.size(); ++k) {
                f64(route.series.hours()[k]);
                f64(route.series.values()[k]);
            }
        }
        f64(r.condition_hours);
        f64(r.measure_seconds);
        u64(r.sweeps);
    }

    void
    classification(const pc::ClassificationReport &c)
    {
        u64(c.bits.size());
        for (const pc::BitEstimate &bit : c.bits) {
            u64(bit.value ? 1 : 0);
            f64(bit.statistic);
            f64(bit.confidence);
        }
        u64(c.correct);
        f64(c.accuracy);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

pcl::PlatformConfig
pinRegion(std::uint64_t seed, std::size_t fleet)
{
    pcl::PlatformConfig region = pc::awsF1Region(seed);
    region.fleet_size = fleet;
    return region;
}

/** Run a pinned driver serially and on a 3-lane pool. */
template <typename Run>
void
expectPinned(std::uint64_t pin, Run &&run)
{
    EXPECT_EQ(run(nullptr), pin) << "serial";
    pu::ThreadPool pool(3);
    EXPECT_EQ(run(&pool), pin) << "3 lanes";
}

pc::Experiment2Config
exp2PinConfig()
{
    pc::Experiment2Config config;
    config.groups = {{1000.0, 2}, {2000.0, 2}};
    config.burn_hours = 7.0;
    config.measure_every_h = 2.0;
    config.platform = pinRegion(51, 2);
    config.arith.dsp_count = 8;
    config.seed = 5151;
    return config;
}

pc::Experiment3Config
exp3PinConfig()
{
    pc::Experiment3Config config;
    config.groups = {{1000.0, 2}, {2000.0, 2}};
    config.burn_hours = 20.0;
    config.recovery_hours = 5.0;
    config.measure_every_h = 2.0;
    config.attacker_wait_h = 3.0;
    config.park_value = true;
    config.platform = pinRegion(52, 2);
    config.arith.dsp_count = 8;
    config.seed = 5252;
    return config;
}

pc::Tm1Report
runTm1Pin(pu::ThreadPool *pool, double measure_every_h)
{
    pcl::CloudPlatform platform(pinRegion(53, 2));
    pf::Device scratch(pc::awsF1Silicon(7));
    const pc::SecretBundle bundle = pc::makeSecretTarget(
        scratch, {true, false, true, false}, 2000.0, "pin_afi");
    const std::string afi_id = platform.marketplace().publish(
        "vendor", bundle.design, bundle.skeleton);
    pc::Tm1Options options;
    options.burn_hours = 9.0;
    options.measure_every_h = measure_every_h;
    options.seed = 5353;
    options.pool = pool;
    return pc::extractDesignData(platform, afi_id, options);
}

pc::Tm2Report
runTm2Pin(pu::ThreadPool *pool, double measure_every_h)
{
    pcl::CloudPlatform platform(pinRegion(54, 2));
    pc::Tm2Options options;
    options.victim_hours = 30.0;
    options.recovery_hours = 5.0;
    options.measure_every_h = measure_every_h;
    options.route_ps = 2000.0;
    options.seed = 5454;
    options.pool = pool;
    return pc::recoverUserData(platform, {true, true, false, true},
                               options);
}

TEST(DriverPins, Experiment1FractionalCadence)
{
    // 0.7 h steps accumulate rounding across the burn and carry it
    // into the recovery span.
    expectPinned(0x333d5da09f4b295dULL, [](pu::ThreadPool *pool) {
        pc::Experiment1Config config = goldenConfig();
        config.measure_every_h = 0.7;
        config.pool = pool;
        Fnv1a h;
        h.result(pc::runExperiment1(config));
        return h.value();
    });
}

TEST(DriverPins, Experiment2)
{
    expectPinned(0xf1fa05a684fd5f21ULL, [](pu::ThreadPool *pool) {
        pc::Experiment2Config config = exp2PinConfig();
        config.pool = pool;
        Fnv1a h;
        h.result(pc::runExperiment2(config));
        return h.value();
    });
}

TEST(DriverPins, Experiment3WaitAndParkOne)
{
    expectPinned(0x89419c323c14b1f0ULL, [](pu::ThreadPool *pool) {
        pc::Experiment3Config config = exp3PinConfig();
        config.pool = pool;
        Fnv1a h;
        h.result(pc::runExperiment3(config));
        return h.value();
    });
}

TEST(DriverPins, Tm1Extraction)
{
    expectPinned(0x1fe525da3d712648ULL, [](pu::ThreadPool *pool) {
        const pc::Tm1Report report = runTm1Pin(pool, 2.5);
        Fnv1a h;
        h.str(report.instance_id);
        h.result(report.result);
        h.classification(report.classification);
        h.bits(report.recovered_bits);
        return h.value();
    });
}

TEST(DriverPins, Tm2Recovery)
{
    expectPinned(0xfeb7323fc4a9e355ULL, [](pu::ThreadPool *pool) {
        const pc::Tm2Report report = runTm2Pin(pool, 1.5);
        Fnv1a h;
        h.str(report.victim_instance);
        h.str(report.attacker_instance);
        h.u64(report.reacquired_same_board ? 1 : 0);
        h.f64(report.fingerprint_similarity);
        h.u64(report.flash_rented);
        h.result(report.result);
        h.classification(report.classification);
        h.bits(report.recovered_bits);
        return h.value();
    });
}

// ------------------------------------------------ schedule checks

TEST(Schedule, WalksAbsoluteBoundsAndKeepsTheRemainder)
{
    std::vector<double> steps;
    std::vector<double> measured;
    const double end = pc::runSchedule(
        1.0, 3.5, 1.0,
        [&](double t, double dt) {
            steps.push_back(t);
            steps.push_back(dt);
        },
        [&](double t) { measured.push_back(t); });
    EXPECT_EQ(end, 3.5);
    EXPECT_EQ(steps, (std::vector<double>{1.0, 1.0, 2.0, 1.0, 3.0, 0.5}));
    EXPECT_EQ(measured, (std::vector<double>{2.0, 3.0, 3.5}));

    // An empty span (or one shorter than the step tolerance) is legal
    // and takes no step.
    int calls = 0;
    const auto count = [&](double, double) { ++calls; };
    EXPECT_EQ(pc::runSchedule(4.0, 4.0, 1.0, count, [](double) {}), 4.0);
    EXPECT_EQ(pc::runSchedule(4.0, 4.0 - 1e-12, 1.0, count, [](double) {}),
              4.0);
    EXPECT_EQ(calls, 0);
}

TEST(Schedule, BadCadenceOrBoundsAreFatal)
{
    const auto none = [](double, double) {};
    const auto skip = [](double) {};
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(pc::runSchedule(0.0, 1.0, 0.0, none, skip),
                 pu::FatalError);
    EXPECT_THROW(pc::runSchedule(0.0, 1.0, nan, none, skip),
                 pu::FatalError);
    EXPECT_THROW(pc::runSchedule(0.0, 1.0, inf, none, skip),
                 pu::FatalError);
    EXPECT_THROW(pc::runSchedule(2.0, 1.0, 1.0, none, skip),
                 pu::FatalError);
    EXPECT_THROW(pc::runSchedule(0.0, inf, 1.0, none, skip),
                 pu::FatalError);
    EXPECT_THROW(pc::runSchedule(nan, 1.0, 1.0, none, skip),
                 pu::FatalError);
}

TEST(Schedule, EveryDriverRejectsANonPositiveCadence)
{
    // Each row used to loop forever at a zero cadence.
    const std::vector<std::pair<const char *, std::function<void(double)>>>
        drivers = {
            {"runExperiment1",
             [](double every) {
                 pc::Experiment1Config config = goldenConfig();
                 config.measure_every_h = every;
                 pc::runExperiment1(config);
             }},
            {"runExperiment2",
             [](double every) {
                 pc::Experiment2Config config = exp2PinConfig();
                 config.measure_every_h = every;
                 pc::runExperiment2(config);
             }},
            {"runExperiment3",
             [](double every) {
                 pc::Experiment3Config config = exp3PinConfig();
                 config.measure_every_h = every;
                 pc::runExperiment3(config);
             }},
            {"extractDesignData",
             [](double every) { runTm1Pin(nullptr, every); }},
            {"recoverUserData",
             [](double every) { runTm2Pin(nullptr, every); }},
        };
    for (const double every :
         {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
        for (const auto &[name, run] : drivers) {
            EXPECT_THROW(run(every), pu::FatalError)
                << name << " at measure_every_h = " << every;
        }
    }
}

} // namespace
