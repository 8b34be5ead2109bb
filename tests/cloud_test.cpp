/**
 * @file
 * Unit tests for the cloud platform: ambient process, instances,
 * marketplace, rental lifecycle (wipe semantics, policies, quarantine,
 * flash acquisition) and fingerprint-based board re-identification.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "cloud/ambient.hpp"
#include "cloud/fingerprint.hpp"
#include "cloud/instance.hpp"
#include "cloud/marketplace.hpp"
#include "cloud/platform.hpp"
#include "core/presets.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace pc = pentimento::cloud;
namespace pf = pentimento::fabric;
namespace pu = pentimento::util;

namespace {

pc::PlatformConfig
smallRegion(std::size_t fleet = 3, std::uint64_t seed = 11)
{
    pc::PlatformConfig config = pentimento::core::awsF1Region(seed);
    config.fleet_size = fleet;
    config.device_template.tiles_x = 32;
    config.device_template.tiles_y = 32;
    return config;
}

} // namespace

// ------------------------------------------------------------ ambient

TEST(Ambient, StartsAtMean)
{
    pc::AmbientModel model({}, pu::Rng(1));
    EXPECT_DOUBLE_EQ(model.ambientK(), pc::AmbientParams{}.mean_k);
}

TEST(Ambient, StationaryMomentsMatchParams)
{
    pc::AmbientParams params;
    pc::AmbientModel model(params, pu::Rng(2));
    pu::RunningStats stats;
    for (int i = 0; i < 20000; ++i) {
        stats.add(model.step(1.0));
    }
    EXPECT_NEAR(stats.mean(), params.mean_k, 0.1);
    EXPECT_NEAR(stats.stddev(), params.sigma_k, 0.15);
}

TEST(Ambient, ZeroStepKeepsState)
{
    pc::AmbientModel model({}, pu::Rng(3));
    const double before = model.ambientK();
    EXPECT_DOUBLE_EQ(model.step(0.0), before);
}

TEST(Ambient, NegativeStepFatal)
{
    pc::AmbientModel model({}, pu::Rng(3));
    EXPECT_THROW(model.step(-1.0), pu::FatalError);
}

TEST(Ambient, NonFiniteStepFatal)
{
    // An infinite clock would reach the event count's integer cast.
    pc::AmbientModel model({}, pu::Rng(3));
    const double before = model.ambientK();
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_THROW(model.step(bad), pu::FatalError);
        EXPECT_THROW(model.advance(bad), pu::FatalError);
    }
    EXPECT_EQ(model.ambientK(), before);
}

TEST(Ambient, DeterministicPerSeed)
{
    pc::AmbientModel a({}, pu::Rng(9));
    pc::AmbientModel b({}, pu::Rng(9));
    for (int i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(a.step(1.0), b.step(1.0));
    }
}

TEST(Ambient, BadParamsFatal)
{
    pc::AmbientParams params;
    params.mean_k = -1.0;
    EXPECT_THROW(pc::AmbientModel(params, pu::Rng(1)), pu::FatalError);
    params = {};
    params.sigma_k = -0.5;
    EXPECT_THROW(pc::AmbientModel(params, pu::Rng(1)), pu::FatalError);
    params = {};
    params.event_every_h = 0.0;
    EXPECT_THROW(pc::AmbientModel(params, pu::Rng(1)), pu::FatalError);
}

// ------------------------------------------- event-driven ambient

/** Split total hours into random multiples of 1/4 h (sums exactly). */
std::vector<double>
dyadicSpanPartition(double total_h, std::uint64_t seed)
{
    pu::Rng rng(seed);
    auto ticks = static_cast<std::uint64_t>(total_h * 4.0);
    std::vector<double> parts;
    while (ticks > 0) {
        const std::uint64_t take =
            rng.uniformInt(1, std::min<std::uint64_t>(ticks, 96));
        parts.push_back(static_cast<double>(take) / 4.0);
        ticks -= take;
    }
    return parts;
}

TEST(Ambient, AdvanceIsLazyUntilObserved)
{
    pc::AmbientModel model({}, pu::Rng(5));
    model.advance(1000.0);
    EXPECT_EQ(model.committedEvents(), 0u);
    EXPECT_EQ(model.pendingEvents(), 1000u);
    model.ambientK();
    EXPECT_EQ(model.committedEvents(), 1000u);
    EXPECT_EQ(model.pendingEvents(), 0u);
}

TEST(Ambient, JumpMatchesHourlyStepsBitExactly)
{
    // The tentpole property: a 24 h jump produces the same
    // temperature as 24 x 1 h observed steps — the draws are keyed to
    // absolute event indices, not to the call pattern.
    pc::AmbientModel hourly({}, pu::Rng(9));
    pc::AmbientModel jump({}, pu::Rng(9));
    double last = 0.0;
    for (int h = 0; h < 24; ++h) {
        last = hourly.step(1.0);
    }
    EXPECT_EQ(jump.step(24.0), last);
    EXPECT_EQ(jump.committedEvents(), hourly.committedEvents());
}

TEST(Ambient, EventTracePartitionInvariant)
{
    // Random dyadic splits of a 30-day span: after any prefix, the
    // temperature is bit-identical to a fresh model jumped straight
    // to the same clock — the trace depends only on absolute time.
    for (const std::uint64_t seed : {3u, 4u, 5u}) {
        pc::AmbientModel split({}, pu::Rng(77));
        double t = 0.0;
        for (const double dt : dyadicSpanPartition(720.0, seed)) {
            split.advance(dt);
            t += dt;
            pc::AmbientModel direct({}, pu::Rng(77));
            direct.advance(t);
            ASSERT_EQ(split.ambientK(), direct.ambientK())
                << "prefix ending at t=" << t << " (seed " << seed
                << ")";
        }
        EXPECT_DOUBLE_EQ(t, 720.0);
    }
}

TEST(Ambient, StationaryMomentsOverManyEvents)
{
    // 1e5 events at the default hourly cadence: the exact transition
    // must hold the stationary moments.
    pc::AmbientParams params;
    pc::AmbientModel model(params, pu::Rng(11));
    pu::RunningStats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(model.step(1.0));
    }
    EXPECT_NEAR(stats.mean(), params.mean_k, 0.05);
    EXPECT_NEAR(stats.stddev(), params.sigma_k, 0.1);
}

TEST(Ambient, CoarseCadenceKeepsStationaryMoments)
{
    // A day-long event cadence (whole idle days coalesced into one
    // draw) is still the exact OU transition: same stationary law.
    pc::AmbientParams params;
    params.event_every_h = 24.0;
    pc::AmbientModel model(params, pu::Rng(13));
    pu::RunningStats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(model.step(24.0));
    }
    EXPECT_NEAR(stats.mean(), params.mean_k, 0.05);
    EXPECT_NEAR(stats.stddev(), params.sigma_k, 0.1);
}

// ----------------------------------------------------------- instance

TEST(Instance, AdvanceAccumulatesDeviceHours)
{
    pc::FpgaInstance inst("fpga-x",
                          smallRegion().device_template, {},
                          pu::Rng(1));
    inst.advanceHours(3.0, 1.0);
    EXPECT_DOUBLE_EQ(inst.device().elapsedHours(), 3.0);
}

TEST(Instance, DieHeatsUnderLoad)
{
    pc::FpgaInstance inst("fpga-x", smallRegion().device_template, {},
                          pu::Rng(1));
    auto design = std::make_shared<pf::Design>("hot");
    design->setPowerW(60.0);
    inst.device().loadDesign(design);
    const double idle = inst.dieTempK();
    inst.advanceHours(1.0, 0.25);
    EXPECT_GT(inst.dieTempK(), idle + 10.0);
}

TEST(Instance, EmptyIdFatal)
{
    EXPECT_THROW(pc::FpgaInstance("", smallRegion().device_template, {},
                                  pu::Rng(1)),
                 pu::FatalError);
}

TEST(Instance, BadStepFatal)
{
    pc::FpgaInstance inst("fpga-x", smallRegion().device_template, {},
                          pu::Rng(1));
    EXPECT_THROW(inst.advanceHours(-1.0), pu::FatalError);
    EXPECT_THROW(inst.advanceHours(1.0, 0.0), pu::FatalError);
}

TEST(Instance, DeferredIdleMatchesHourlyObservation)
{
    // An idle card advanced in one 240 h jump and observed once must
    // be bit-identical to a twin advanced hour by hour with the die
    // temperature read every hour: laziness is unobservable.
    const auto config = smallRegion().device_template;
    pc::FpgaInstance lazy("fpga-a", config, {}, pu::Rng(21));
    pc::FpgaInstance eager("fpga-a", config, {}, pu::Rng(21));
    double last = 0.0;
    for (int h = 0; h < 240; ++h) {
        eager.advanceHours(1.0);
        last = eager.dieTempK();
    }
    lazy.advanceHours(240.0);
    EXPECT_EQ(lazy.dieTempK(), last);
    EXPECT_DOUBLE_EQ(lazy.device().elapsedHours(), 240.0);
    EXPECT_DOUBLE_EQ(eager.device().elapsedHours(), 240.0);
}

/**
 * The paper-shaped fleet scenario: burn a route for 72 h, provider
 * wipe, idle in the pool for 30 days, then measure. The burn and the
 * idle span are partitioned differently per run; the aged delay must
 * not depend on the partition. Dyadic quarter-hour splits stay above
 * the package model's full-relaxation horizon (~0.2 h at tau = 18 s),
 * below which sub-partitioning a span changes the die temperature in
 * the last ulp.
 */
double
agedDelayAfterFleetScenario(const std::vector<double> &burn_parts,
                            const std::vector<double> &idle_parts)
{
    pc::FpgaInstance inst("fpga-x", smallRegion().device_template, {},
                          pu::Rng(31));
    pf::Device &device = inst.device();
    const pf::RouteSpec spec = device.allocateRoute("r", 1000.0);
    auto design = std::make_shared<pf::Design>("burn");
    design->setRouteValue(spec, true);
    design->setPowerW(30.0);
    device.loadDesign(design);
    for (const double dt : burn_parts) {
        inst.advanceHours(dt);
    }
    device.wipe();
    for (const double dt : idle_parts) {
        inst.advanceHours(dt);
    }
    // Read through a directly-bound Route: the device's
    // pre-observation hook must flush the deferred idle backlog.
    pf::Route route = device.bindRoute(spec);
    return route.delayPs(pentimento::phys::Transition::Falling, 333.15);
}

TEST(Instance, PartitionInvariantAgedDelays)
{
    const std::vector<double> burn_jump{72.0};
    const std::vector<double> idle_jump{720.0};
    const double golden =
        agedDelayAfterFleetScenario(burn_jump, idle_jump);
    // Hourly burn + daily idle.
    std::vector<double> burn_hourly(72, 1.0);
    std::vector<double> idle_daily(30, 24.0);
    EXPECT_EQ(agedDelayAfterFleetScenario(burn_hourly, idle_daily),
              golden);
    // Random dyadic splits of both spans.
    for (const std::uint64_t seed : {41u, 42u, 43u}) {
        EXPECT_EQ(agedDelayAfterFleetScenario(
                      dyadicSpanPartition(72.0, seed),
                      dyadicSpanPartition(720.0, seed + 100)),
                  golden)
            << "dyadic partition seed " << seed;
    }
}

// -------------------------------------------------------- marketplace

TEST(Marketplace, PublishAndFetch)
{
    pc::Marketplace market;
    auto design = std::make_shared<pf::Design>("afi");
    const std::string id = market.publish("vendor", design, {});
    EXPECT_EQ(market.fetchDesign(id).get(), design.get());
    EXPECT_EQ(market.record(id).publisher, "vendor");
    EXPECT_EQ(market.size(), 1u);
}

TEST(Marketplace, IdsAreUnique)
{
    pc::Marketplace market;
    auto design = std::make_shared<pf::Design>("afi");
    const std::string a = market.publish("v", design, {});
    const std::string b = market.publish("v", design, {});
    EXPECT_NE(a, b);
}

TEST(Marketplace, UnknownAfiFatal)
{
    pc::Marketplace market;
    EXPECT_THROW(market.fetchDesign("agfi-404"), pu::FatalError);
}

TEST(Marketplace, NullDesignFatal)
{
    pc::Marketplace market;
    EXPECT_THROW(market.publish("v", nullptr, {}), pu::FatalError);
}

TEST(Marketplace, SkeletonRoundTrip)
{
    pc::Marketplace market;
    auto design = std::make_shared<pf::Design>("afi");
    pf::RouteSpec spec;
    spec.name = "secret";
    spec.target_ps = 1000.0;
    spec.elements.push_back({});
    const std::string id = market.publish("v", design, {spec});
    ASSERT_EQ(market.skeleton(id).size(), 1u);
    EXPECT_EQ(market.skeleton(id)[0].name, "secret");
}

// ----------------------------------------------------------- platform

TEST(Platform, FleetSizeRespected)
{
    pc::CloudPlatform platform(smallRegion(4));
    EXPECT_EQ(platform.allInstanceIds().size(), 4u);
    EXPECT_EQ(platform.availableCount(), 4u);
}

TEST(Platform, EmptyFleetFatal)
{
    pc::PlatformConfig config = smallRegion(1);
    config.fleet_size = 0;
    EXPECT_THROW(pc::CloudPlatform{config}, pu::FatalError);
}

TEST(Platform, RentReducesAvailability)
{
    pc::CloudPlatform platform(smallRegion(2));
    const auto id = platform.rent();
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(platform.availableCount(), 1u);
    EXPECT_TRUE(platform.instance(*id).rented());
}

TEST(Platform, ExhaustionReturnsNullopt)
{
    // The paper hit exactly this error on AWS, motivating the flash
    // attack.
    pc::CloudPlatform platform(smallRegion(2));
    EXPECT_TRUE(platform.rent().has_value());
    EXPECT_TRUE(platform.rent().has_value());
    EXPECT_FALSE(platform.rent().has_value());
}

TEST(Platform, RentAllGrabsEverything)
{
    pc::CloudPlatform platform(smallRegion(5));
    const auto ids = platform.rentAll();
    EXPECT_EQ(ids.size(), 5u);
    EXPECT_EQ(platform.availableCount(), 0u);
}

TEST(Platform, ReleaseWipesDesignButKeepsInstance)
{
    pc::CloudPlatform platform(smallRegion(2));
    const auto id = platform.rent();
    auto design = std::make_shared<pf::Design>("d");
    EXPECT_TRUE(platform.loadDesign(*id, design).empty());
    EXPECT_NE(platform.instance(*id).device().currentDesign(), nullptr);
    platform.release(*id);
    EXPECT_EQ(platform.instance(*id).device().currentDesign(), nullptr);
    EXPECT_FALSE(platform.instance(*id).rented());
}

TEST(Platform, ReleaseNotRentedFatal)
{
    pc::CloudPlatform platform(smallRegion(2));
    EXPECT_THROW(platform.release("fpga-0"), pu::FatalError);
    EXPECT_THROW(platform.release("nope"), pu::FatalError);
}

TEST(Platform, UnknownInstanceFatal)
{
    pc::CloudPlatform platform(smallRegion(2));
    EXPECT_THROW(platform.instance("missing"), pu::FatalError);
}

TEST(Platform, LifoPolicyReturnsVictimBoard)
{
    pc::PlatformConfig config = smallRegion(3);
    config.policy = pc::AllocationPolicy::MostRecentlyReleased;
    pc::CloudPlatform platform(config);
    // Rent two boards, release them in order; LIFO returns the last
    // released first.
    const auto a = platform.rent();
    const auto b = platform.rent();
    platform.advanceHours(1.0);
    platform.release(*a);
    platform.advanceHours(1.0);
    platform.release(*b);
    const auto next = platform.rent();
    EXPECT_EQ(*next, *b);
}

TEST(Platform, FifoPolicyReturnsOldestBoard)
{
    pc::PlatformConfig config = smallRegion(2);
    config.policy = pc::AllocationPolicy::LeastRecentlyReleased;
    pc::CloudPlatform platform(config);
    const auto a = platform.rent();
    const auto b = platform.rent();
    platform.advanceHours(1.0);
    platform.release(*a);
    platform.advanceHours(1.0);
    platform.release(*b);
    const auto next = platform.rent();
    EXPECT_EQ(*next, *a);
}

TEST(Platform, QuarantineDelaysRerental)
{
    // §8.2 launch-rate control: released boards are withheld.
    pc::PlatformConfig config = smallRegion(1);
    config.quarantine_hours = 24.0;
    pc::CloudPlatform platform(config);
    const auto id = platform.rent();
    platform.advanceHours(1.0);
    platform.release(*id);
    EXPECT_EQ(platform.availableCount(), 0u);
    EXPECT_FALSE(platform.rent().has_value());
    platform.advanceHours(25.0);
    EXPECT_EQ(platform.availableCount(), 1u);
    EXPECT_TRUE(platform.rent().has_value());
}

TEST(Platform, DrcBlocksRingOscillator)
{
    pc::CloudPlatform platform(smallRegion(2));
    const auto id = platform.rent();
    auto ro = std::make_shared<pf::Design>("ro");
    ro->addCombinationalEdge("a", "b");
    ro->addCombinationalEdge("b", "a");
    const auto violations = platform.loadDesign(*id, ro);
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations[0].rule, "combinational-loop");
    // Rejected design is not resident.
    EXPECT_EQ(platform.instance(*id).device().currentDesign(), nullptr);
}

TEST(Platform, DrcBlocksOverPowerDesign)
{
    pc::CloudPlatform platform(smallRegion(2));
    const auto id = platform.rent();
    auto hot = std::make_shared<pf::Design>("hot");
    hot->setPowerW(100.0);
    const auto violations = platform.loadDesign(*id, hot);
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations[0].rule, "power-cap");
}

TEST(Platform, LoadOnUnrentedInstanceFatal)
{
    pc::CloudPlatform platform(smallRegion(2));
    auto design = std::make_shared<pf::Design>("d");
    EXPECT_THROW(platform.loadDesign("fpga-0", design), pu::FatalError);
}

TEST(Platform, AdvanceMovesClock)
{
    pc::CloudPlatform platform(smallRegion(2));
    platform.advanceHours(5.0);
    EXPECT_DOUBLE_EQ(platform.nowHours(), 5.0);
}

TEST(Platform, AdvanceBadArgsFatal)
{
    pc::CloudPlatform platform(smallRegion(2));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(platform.advanceHours(-1.0), pu::FatalError);
    EXPECT_THROW(platform.advanceHours(nan), pu::FatalError);
    EXPECT_THROW(platform.advanceHours(inf), pu::FatalError);
    EXPECT_THROW(platform.advanceHours(1.0, 0.0), pu::FatalError);
    EXPECT_THROW(platform.advanceHours(1.0, -0.5), pu::FatalError);
    EXPECT_THROW(platform.advanceHours(1.0, nan), pu::FatalError);
    // Validation happens before any board advances: the clock (and
    // the fleet) are untouched by the failed calls.
    EXPECT_DOUBLE_EQ(platform.nowHours(), 0.0);
    for (const auto &id : platform.allInstanceIds()) {
        EXPECT_DOUBLE_EQ(
            platform.instance(id).device().elapsedHours(), 0.0);
    }
}

TEST(Platform, FleetAgesDifferently)
{
    pc::CloudPlatform platform(smallRegion(4, 77));
    double min_scale = 1.0, max_scale = 0.0;
    for (const auto &id : platform.allInstanceIds()) {
        // Not rented, but accessing silicon parameters is fine for
        // the test's purpose.
        const double s = platform.instance(id).device().freshScale();
        min_scale = std::min(min_scale, s);
        max_scale = std::max(max_scale, s);
        EXPECT_LT(s, 0.35); // all cards are years old
    }
    EXPECT_NE(min_scale, max_scale);
}

// -------------------------------------------------------- fingerprint

TEST(Fingerprint, ProbeSpecsDeterministic)
{
    const pc::Fingerprinter fp;
    const auto config = smallRegion().device_template;
    const auto a = fp.probeSpecs(config);
    const auto b = fp.probeSpecs(config);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].elements.size(), b[i].elements.size());
        for (std::size_t e = 0; e < a[i].elements.size(); ++e) {
            EXPECT_EQ(a[i].elements[e], b[i].elements[e]);
        }
    }
}

TEST(Fingerprint, SelfSimilarityHigh)
{
    pc::CloudPlatform platform(smallRegion(2, 5));
    const auto id = platform.rent();
    pc::Fingerprinter fp;
    const auto fp1 = fp.probe(platform.instance(*id), "p1");
    const auto fp2 = fp.probe(platform.instance(*id), "p2");
    EXPECT_GT(pc::Fingerprinter::similarity(fp1, fp2), 0.9);
}

TEST(Fingerprint, CrossDeviceSimilarityLow)
{
    pc::CloudPlatform platform(smallRegion(2, 5));
    const auto a = platform.rent();
    const auto b = platform.rent();
    pc::Fingerprinter fp;
    const auto fpa = fp.probe(platform.instance(*a), "a");
    const auto fpb = fp.probe(platform.instance(*b), "b");
    EXPECT_LT(pc::Fingerprinter::similarity(fpa, fpb), 0.6);
}

TEST(Fingerprint, MatchFindsCorrectBoard)
{
    pc::CloudPlatform platform(smallRegion(3, 5));
    const auto ids = platform.rentAll();
    pc::Fingerprinter fp;
    std::vector<pc::Fingerprint> catalog;
    for (const auto &id : ids) {
        catalog.push_back(fp.probe(platform.instance(id), id));
    }
    const auto probe = fp.probe(platform.instance(ids[1]), "again");
    EXPECT_EQ(pc::Fingerprinter::match(probe, catalog), 1);
}

TEST(Fingerprint, MatchRespectsThreshold)
{
    pc::CloudPlatform platform(smallRegion(2, 5));
    const auto a = platform.rent();
    const auto b = platform.rent();
    pc::Fingerprinter fp;
    const auto fpa = fp.probe(platform.instance(*a), "a");
    const auto fpb = fp.probe(platform.instance(*b), "b");
    EXPECT_EQ(pc::Fingerprinter::match(fpa, {fpb}, 0.95), -1);
}

TEST(Fingerprint, SimilaritySizeMismatchFatal)
{
    pc::Fingerprint a, b;
    a.route_delays_ps = {1.0, 2.0};
    b.route_delays_ps = {1.0};
    EXPECT_THROW(pc::Fingerprinter::similarity(a, b), pu::FatalError);
}

TEST(Fingerprint, TooFewProbesFatal)
{
    pc::FingerprintConfig config;
    config.probe_routes = 1;
    EXPECT_THROW(pc::Fingerprinter{config}, pu::FatalError);
}
