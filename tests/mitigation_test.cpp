/**
 * @file
 * Tests for the §8.1 user mitigations and the route-shortening
 * advisor.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fabric/device.hpp"
#include "mitigation/advisor.hpp"
#include "mitigation/strategies.hpp"
#include "mitigation/strategy.hpp"
#include "util/logging.hpp"

namespace pf = pentimento::fabric;
namespace pm = pentimento::mitigation;
namespace pu = pentimento::util;

namespace {

struct Fixture
{
    Fixture()
    {
        pf::DeviceConfig config;
        config.tiles_x = 64;
        config.tiles_y = 64;
        device = std::make_unique<pf::Device>(config);
        for (int i = 0; i < 4; ++i) {
            specs.push_back(device->allocateRoute(
                "r" + std::to_string(i), 500.0));
        }
        logical = {true, false, true, true};
        pf::ArithmeticHeavyConfig arith;
        arith.dsp_count = 0;
        design = std::make_unique<pf::TargetDesign>("t", specs, logical,
                                                    arith);
    }

    std::vector<bool>
    heldValues() const
    {
        std::vector<bool> held;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            held.push_back(design->burnValue(i));
        }
        return held;
    }

    std::unique_ptr<pf::Device> device;
    std::vector<pf::RouteSpec> specs;
    std::vector<bool> logical;
    std::unique_ptr<pf::TargetDesign> design;
};

} // namespace

// ------------------------------------------------------- NoMitigation

TEST(NoMitigation, PassesValuesThrough)
{
    Fixture f;
    pm::NoMitigation none;
    none.apply(*f.design, *f.device, f.logical, 17.0);
    EXPECT_EQ(f.heldValues(), f.logical);
    EXPECT_EQ(none.name(), "none");
    EXPECT_EQ(none.epilogue().policy, pm::Epilogue::Policy::None);
}

// --------------------------------------------------------- inversion

TEST(Inversion, IdentityInFirstPeriod)
{
    Fixture f;
    pm::InversionMitigation invert(1.0);
    invert.apply(*f.design, *f.device, f.logical, 0.0);
    EXPECT_EQ(f.heldValues(), f.logical);
    invert.apply(*f.design, *f.device, f.logical, 0.5);
    EXPECT_EQ(f.heldValues(), f.logical);
}

TEST(Inversion, ComplementInOddPeriods)
{
    Fixture f;
    pm::InversionMitigation invert(1.0);
    invert.apply(*f.design, *f.device, f.logical, 1.0);
    const std::vector<bool> held = f.heldValues();
    for (std::size_t i = 0; i < held.size(); ++i) {
        EXPECT_EQ(held[i], !f.logical[i]);
    }
}

TEST(Inversion, AlternatesByPeriod)
{
    Fixture f;
    pm::InversionMitigation invert(2.0);
    invert.apply(*f.design, *f.device, f.logical, 2.0); // period 1 -> inverted
    EXPECT_NE(f.heldValues(), f.logical);
    invert.apply(*f.design, *f.device, f.logical, 4.0); // period 2 -> identity
    EXPECT_EQ(f.heldValues(), f.logical);
}

TEST(Inversion, NonPositivePeriodFatal)
{
    EXPECT_THROW(pm::InversionMitigation(0.0), pu::FatalError);
}

// ------------------------------------------------------------ shuffle

TEST(Shuffle, PreservesMultiset)
{
    Fixture f;
    pm::ShuffleMitigation shuffle(1.0, 99);
    shuffle.apply(*f.design, *f.device, f.logical, 5.0);
    std::vector<bool> held = f.heldValues();
    EXPECT_EQ(std::count(held.begin(), held.end(), true),
              std::count(f.logical.begin(), f.logical.end(), true));
}

TEST(Shuffle, StableWithinPeriod)
{
    Fixture f;
    pm::ShuffleMitigation shuffle(2.0, 99);
    shuffle.apply(*f.design, *f.device, f.logical, 0.0);
    const auto first = f.heldValues();
    shuffle.apply(*f.design, *f.device, f.logical, 1.9);
    EXPECT_EQ(f.heldValues(), first);
}

TEST(Shuffle, ChangesAcrossPeriods)
{
    // With 8 routes the chance of two independent permutations
    // colliding on the same value assignment is negligible for this
    // specific seed.
    pf::DeviceConfig config;
    config.tiles_x = 64;
    config.tiles_y = 64;
    pf::Device device(config);
    std::vector<pf::RouteSpec> specs;
    std::vector<bool> logical;
    for (int i = 0; i < 8; ++i) {
        std::string name = "r";
        name += std::to_string(i);
        specs.push_back(device.allocateRoute(name, 250.0));
        logical.push_back(i % 3 == 0);
    }
    pf::ArithmeticHeavyConfig arith;
    arith.dsp_count = 0;
    pf::TargetDesign design("t", specs, logical, arith);

    pm::ShuffleMitigation shuffle(1.0, 7);
    shuffle.apply(design, device, logical, 0.0);
    std::vector<bool> first;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        first.push_back(design.burnValue(i));
    }
    shuffle.apply(design, device, logical, 1.0);
    std::vector<bool> second;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        second.push_back(design.burnValue(i));
    }
    EXPECT_NE(first, second);
}

TEST(Shuffle, DeterministicForSeed)
{
    Fixture f1, f2;
    pm::ShuffleMitigation a(1.0, 42), b(1.0, 42);
    a.apply(*f1.design, *f1.device, f1.logical, 3.0);
    b.apply(*f2.design, *f2.device, f2.logical, 3.0);
    EXPECT_EQ(f1.heldValues(), f2.heldValues());
}

TEST(Shuffle, NonPositivePeriodFatal)
{
    EXPECT_THROW(pm::ShuffleMitigation(0.0, 1), pu::FatalError);
}

// --------------------------------------------------------- wear level

TEST(WearLevel, RelocatesAcrossSites)
{
    Fixture f;
    pm::WearLevelMitigation wear(1.0, 3);
    wear.apply(*f.design, *f.device, f.logical, 0.0);
    const pf::RouteSpec site0 = f.design->routeSpec(0);
    wear.apply(*f.design, *f.device, f.logical, 1.0);
    const pf::RouteSpec site1 = f.design->routeSpec(0);
    EXPECT_NE(site0.elements[0].key(), site1.elements[0].key());
    // Old site released, new site holds the value.
    EXPECT_EQ(f.design->activityFor(site0.elements[0]).kind,
              pf::Activity::Unused);
    EXPECT_EQ(f.design->activityFor(site1.elements[0]).kind,
              pf::Activity::Hold1);
}

TEST(WearLevel, CyclesBackToOriginalSite)
{
    Fixture f;
    pm::WearLevelMitigation wear(1.0, 2);
    wear.apply(*f.design, *f.device, f.logical, 0.0);
    const auto site0 = f.design->routeSpec(0).elements[0].key();
    wear.apply(*f.design, *f.device, f.logical, 1.0);
    wear.apply(*f.design, *f.device, f.logical, 2.0);
    EXPECT_EQ(f.design->routeSpec(0).elements[0].key(), site0);
}

TEST(WearLevel, ValuesPreservedAfterRelocation)
{
    Fixture f;
    pm::WearLevelMitigation wear(1.0, 3);
    wear.apply(*f.design, *f.device, f.logical, 0.0);
    wear.apply(*f.design, *f.device, f.logical, 1.0);
    EXPECT_EQ(f.heldValues(), f.logical);
}

TEST(WearLevel, BadConfigFatal)
{
    Fixture f;
    EXPECT_THROW(pm::WearLevelMitigation(0.0, 2), pu::FatalError);
    EXPECT_THROW(pm::WearLevelMitigation(1.0, 1), pu::FatalError);
}

// ------------------------------------------------------ hold-recovery

TEST(HoldRecovery, EpilogueCarriesPolicy)
{
    pm::HoldRecoveryMitigation hold(pm::Epilogue::Policy::Complement,
                                    48.0);
    EXPECT_EQ(hold.epilogue().policy,
              pm::Epilogue::Policy::Complement);
    EXPECT_DOUBLE_EQ(hold.epilogue().hours, 48.0);
    EXPECT_EQ(hold.name(), "hold-complement");
}

TEST(HoldRecovery, NamesPerPolicy)
{
    EXPECT_EQ(pm::HoldRecoveryMitigation(pm::Epilogue::Policy::AllZero,
                                         1.0)
                  .name(),
              "hold-zero");
    EXPECT_EQ(pm::HoldRecoveryMitigation(pm::Epilogue::Policy::AllOne,
                                         1.0)
                  .name(),
              "hold-one");
}

TEST(HoldRecovery, ValuesPassThroughDuringCompute)
{
    Fixture f;
    pm::HoldRecoveryMitigation hold(pm::Epilogue::Policy::Complement,
                                    10.0);
    hold.apply(*f.design, *f.device, f.logical, 7.0);
    EXPECT_EQ(f.heldValues(), f.logical);
}

TEST(HoldRecovery, NegativeHoldFatal)
{
    EXPECT_THROW(
        pm::HoldRecoveryMitigation(pm::Epilogue::Policy::AllZero, -1.0),
        pu::FatalError);
}

// ------------------------------------------------------------ advisor

TEST(Advisor, SafeLengthPositiveFinite)
{
    const pm::RouteShorteningAdvisor advisor;
    EXPECT_GT(advisor.safeLengthPs(), 0.0);
    EXPECT_LT(advisor.safeLengthPs(), 1e9);
}

TEST(Advisor, FlagsLongRoutesOnly)
{
    const pm::RouteShorteningAdvisor advisor;
    const double safe = advisor.safeLengthPs();
    const auto report = advisor.analyze(
        {{"short", safe * 0.5}, {"long", safe * 4.0}});
    ASSERT_EQ(report.routes.size(), 2u);
    EXPECT_FALSE(report.routes[0].flagged);
    EXPECT_TRUE(report.routes[1].flagged);
    EXPECT_EQ(report.flagged_count, 1u);
}

TEST(Advisor, SplitRecommendationBringsSnrBelowThreshold)
{
    const pm::RouteShorteningAdvisor advisor;
    const double safe = advisor.safeLengthPs();
    const auto report = advisor.analyze({{"long", safe * 3.7}});
    const auto &advice = report.routes[0];
    EXPECT_GE(advice.recommended_segments, 4);
    EXPECT_LE(advice.post_split_snr, 2.0 + 1e-9);
}

TEST(Advisor, SnrScalesWithScenario)
{
    pentimento::opentitan::AttackScenario harsh;
    harsh.device_age_h = 0.0; // new silicon leaks more
    const pm::RouteShorteningAdvisor strict(harsh);
    const pm::RouteShorteningAdvisor lax;
    EXPECT_LT(strict.safeLengthPs(), lax.safeLengthPs());
}
