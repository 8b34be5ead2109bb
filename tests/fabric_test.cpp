/**
 * @file
 * Unit tests for the fabric module: resources, elements, routes,
 * devices, designs and design-rule checking. The central invariant —
 * wiping a design does not erase aging — lives here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "fabric/drc.hpp"
#include "fabric/resource.hpp"
#include "fabric/route.hpp"
#include "fabric/routing_element.hpp"
#include "phys/thermal.hpp"
#include "util/logging.hpp"

#include "aging_at.hpp"
#include "observe_at_load.hpp"

namespace pa = pentimento::aging_at;
namespace pf = pentimento::fabric;
namespace pp = pentimento::phys;
namespace pu = pentimento::util;

namespace {

pf::DeviceConfig
smallConfig(std::uint64_t seed = 1)
{
    pf::DeviceConfig config;
    config.tiles_x = 16;
    config.tiles_y = 16;
    config.nodes_per_tile = 32;
    config.seed = seed;
    return config;
}

pf::ResourceId
nodeId(std::uint16_t x, std::uint16_t y, std::uint16_t index)
{
    pf::ResourceId id;
    id.tile_x = x;
    id.tile_y = y;
    id.type = pf::ResourceType::RoutingNode;
    id.index = index;
    return id;
}

} // namespace

// --------------------------------------------------------- ResourceId

TEST(ResourceId, KeyRoundTrip)
{
    const pf::ResourceId id = nodeId(12, 40, 7);
    const pf::ResourceId back = pf::ResourceId::fromKey(id.key());
    EXPECT_EQ(back, id);
}

class ResourceIdSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(ResourceIdSweep, RoundTripAcrossTypes)
{
    const auto [x, y, index] = GetParam();
    for (const auto type :
         {pf::ResourceType::RoutingNode, pf::ResourceType::CarryElement,
          pf::ResourceType::Register, pf::ResourceType::Lut,
          pf::ResourceType::Dsp}) {
        pf::ResourceId id;
        id.tile_x = static_cast<std::uint16_t>(x);
        id.tile_y = static_cast<std::uint16_t>(y);
        id.type = type;
        id.index = static_cast<std::uint16_t>(index);
        EXPECT_EQ(pf::ResourceId::fromKey(id.key()), id);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Corners, ResourceIdSweep,
    ::testing::Values(std::make_tuple(0, 0, 0),
                      std::make_tuple(1, 2, 3),
                      std::make_tuple(65535, 0, 65535),
                      std::make_tuple(255, 65535, 1)));

TEST(ResourceId, DistinctIdsHaveDistinctKeys)
{
    EXPECT_NE(nodeId(1, 2, 3).key(), nodeId(1, 2, 4).key());
    EXPECT_NE(nodeId(1, 2, 3).key(), nodeId(2, 1, 3).key());
}

TEST(ResourceId, ToStringIsReadable)
{
    const std::string s = nodeId(3, 4, 5).toString();
    EXPECT_NE(s.find("INT_X3Y4"), std::string::npos);
    EXPECT_NE(s.find("NODE_5"), std::string::npos);
}

TEST(ResourceType, Names)
{
    EXPECT_STREQ(pf::toString(pf::ResourceType::CarryElement), "CARRY");
    EXPECT_STREQ(pf::toString(pf::ResourceType::Dsp), "DSP");
}

// ----------------------------------------------------- RoutingElement

TEST(RoutingElement, BaseDelaysIncludeVariation)
{
    pp::ElementVariation var;
    var.rise_mult = 1.1;
    var.fall_mult = 0.9;
    const pf::RoutingElement elem(nodeId(0, 0, 0), 25.0, 25.0, var, 1.0);
    EXPECT_DOUBLE_EQ(elem.basePs(pp::Transition::Rising), 27.5);
    EXPECT_DOUBLE_EQ(elem.basePs(pp::Transition::Falling), 22.5);
}

TEST(RoutingElement, RejectsNonPositiveBase)
{
    const pp::ElementVariation var;
    EXPECT_THROW(pf::RoutingElement(nodeId(0, 0, 0), 0.0, 25.0, var, 1.0),
                 pu::FatalError);
}

TEST(RoutingElement, Hold1SlowsFallingOnly)
{
    const pf::DeviceConfig cfg = smallConfig();
    const pp::ElementVariation var;
    pf::RoutingElement elem(nodeId(0, 0, 0), 25.0, 25.0, var, 1.0);
    const double rise0 = elem.delayPs(cfg.bti, cfg.delay,
                                      pp::Transition::Rising, 333.15);
    const double fall0 = elem.delayPs(cfg.bti, cfg.delay,
                                      pp::Transition::Falling, 333.15);
    pa::age(elem, cfg.bti, {pf::Activity::Hold1, 0.5}, 333.15, 200.0);
    EXPECT_GT(elem.delayPs(cfg.bti, cfg.delay, pp::Transition::Falling,
                           333.15),
              fall0);
    EXPECT_DOUBLE_EQ(elem.delayPs(cfg.bti, cfg.delay,
                                  pp::Transition::Rising, 333.15),
                     rise0);
}

TEST(RoutingElement, Hold0SlowsRisingOnly)
{
    const pf::DeviceConfig cfg = smallConfig();
    const pp::ElementVariation var;
    pf::RoutingElement elem(nodeId(0, 0, 0), 25.0, 25.0, var, 1.0);
    const double rise0 = elem.delayPs(cfg.bti, cfg.delay,
                                      pp::Transition::Rising, 333.15);
    pa::age(elem, cfg.bti, {pf::Activity::Hold0, 0.5}, 333.15, 200.0);
    EXPECT_GT(elem.delayPs(cfg.bti, cfg.delay, pp::Transition::Rising,
                           333.15),
              rise0);
    EXPECT_DOUBLE_EQ(
        elem.deltaVth(cfg.bti, pp::TransistorType::Nmos), 0.0);
}

TEST(RoutingElement, UnusedActivityRecovers)
{
    const pf::DeviceConfig cfg = smallConfig();
    const pp::ElementVariation var;
    pf::RoutingElement elem(nodeId(0, 0, 0), 25.0, 25.0, var, 1.0);
    pa::age(elem, cfg.bti, {pf::Activity::Hold1, 0.5}, 333.15, 100.0);
    const double before =
        elem.deltaVth(cfg.bti, pp::TransistorType::Nmos);
    pa::age(elem, cfg.bti, {pf::Activity::Unused, 0.5}, 333.15, 100.0);
    EXPECT_LT(elem.deltaVth(cfg.bti, pp::TransistorType::Nmos), before);
}

// --------------------------------------------------------------Device

TEST(Device, ElementVariationIsPureFunctionOfSeedAndId)
{
    pf::Device a(smallConfig(77));
    pf::Device b(smallConfig(77));
    const pf::ResourceId id = nodeId(3, 3, 3);
    EXPECT_DOUBLE_EQ(a.element(id).basePs(pp::Transition::Rising),
                     b.element(id).basePs(pp::Transition::Rising));
    EXPECT_DOUBLE_EQ(a.element(id).basePs(pp::Transition::Falling),
                     b.element(id).basePs(pp::Transition::Falling));
}

TEST(Device, DifferentSeedsGiveDifferentSilicon)
{
    pf::Device a(smallConfig(1));
    pf::Device b(smallConfig(2));
    const pf::ResourceId id = nodeId(3, 3, 3);
    EXPECT_NE(a.element(id).basePs(pp::Transition::Rising),
              b.element(id).basePs(pp::Transition::Rising));
}

TEST(Device, MaterializationOrderIrrelevant)
{
    pf::Device a(smallConfig(9));
    pf::Device b(smallConfig(9));
    const pf::ResourceId first = nodeId(1, 1, 1);
    const pf::ResourceId second = nodeId(2, 2, 2);
    const double a1 = a.element(first).basePs(pp::Transition::Rising);
    (void)a.element(second);
    (void)b.element(second);
    const double b1 = b.element(first).basePs(pp::Transition::Rising);
    EXPECT_DOUBLE_EQ(a1, b1);
}

TEST(Device, FindElementDoesNotMaterialize)
{
    pf::Device device(smallConfig());
    EXPECT_EQ(device.findElement(nodeId(0, 0, 0)), nullptr);
    EXPECT_EQ(device.materializedCount(), 0u);
    device.element(nodeId(0, 0, 0));
    EXPECT_NE(device.findElement(nodeId(0, 0, 0)), nullptr);
    EXPECT_EQ(device.materializedCount(), 1u);
}

// ------------------------------------- element-slab index growth

TEST(ElementSlabIndex, GrowthAndRehashBeyondChunkCapacity)
{
    // 3000 insertions cross two chunk boundaries (1024 elements per
    // chunk) and several open-addressing rehashes (the index doubles
    // whenever its load factor would exceed 1/2). Handles must stay
    // dense in insertion order, element addresses must never move,
    // and every key must stay findable through all of it.
    pf::ElementSlab<pf::RoutingElement> store;
    constexpr std::uint32_t kCount = 3000;
    const pp::ElementVariation variation{};
    const auto make = [&](pf::ResourceId rid) {
        return pf::RoutingElement(rid, 25.0, 25.0, variation, 1.0);
    };
    std::vector<const pf::RoutingElement *> addresses;
    std::vector<std::uint64_t> keys;
    for (std::uint32_t i = 0; i < kCount; ++i) {
        const pf::ResourceId id =
            nodeId(static_cast<std::uint16_t>(i & 0x3f),
                   static_cast<std::uint16_t>((i >> 6) & 0x3f),
                   static_cast<std::uint16_t>(i >> 12));
        const pf::ElementHandle h = store.ensure(id, make);
        ASSERT_EQ(h, i); // dense, insertion-ordered
        addresses.push_back(&store.sweepAt(h));
        keys.push_back(id.key());
    }
    EXPECT_EQ(store.size(), kCount);
    for (std::uint32_t i = 0; i < kCount; ++i) {
        // Lookup survives every intervening rehash...
        EXPECT_EQ(store.find(keys[i]), i);
        // ...the chunked slab never relocated anything...
        EXPECT_EQ(&store.sweepAt(i), addresses[i]);
        // ...and the slot still holds the element it was built for.
        EXPECT_EQ(store.sweepAt(i).id().key(), keys[i]);
    }
    // Re-ensuring an existing key is a pure lookup.
    const pf::ResourceId again = nodeId(1, 0, 0);
    EXPECT_LT(store.ensure(again, make), kCount);
    EXPECT_EQ(store.size(), kCount);
    // Absent keys miss cleanly even at high occupancy.
    EXPECT_EQ(store.find(nodeId(63, 63, 63).key()),
              pf::kInvalidElement);
    // The deterministic listing covers the whole population.
    const std::vector<pf::ResourceId> ids = store.sortedIds();
    ASSERT_EQ(ids.size(), kCount);
    EXPECT_TRUE(std::is_sorted(
        ids.begin(), ids.end(),
        [](const pf::ResourceId &a, const pf::ResourceId &b) {
            return a.key() < b.key();
        }));
}

TEST(Device, DvthMemoSurvivesGrowthAtOneEpoch)
{
    // The ΔVth memo is handle-indexed and grown at bind time. A route
    // read fills its entries; binding many more elements then grows
    // the memo by several chunks. At the unchanged state epoch the
    // route must read the same delays out of its memo entries.
    pf::Device device(smallConfig());
    const pf::Route route =
        device.bindRoute(device.allocateRoute("r", 500.0));
    auto design = std::make_shared<pf::Design>("burn");
    design->setRouteValue(route.spec(), true);
    device.loadDesign(design);
    device.advanceAt(100.0, 333.15);
    const double fall = route.delayPs(pp::Transition::Falling, 333.15);
    const double rise = route.delayPs(pp::Transition::Rising, 353.15);
    ASSERT_GT(fall, route.baseDelayPs(pp::Transition::Falling));
    const std::uint64_t epoch = device.stateEpoch();
    for (std::uint16_t x = 1; x < 16; ++x) {
        for (std::uint16_t y = 0; y < 5; ++y) {
            for (std::uint16_t i = 0; i < 32; ++i) {
                (void)device.bindElement(nodeId(x, y, i));
            }
        }
    }
    ASSERT_GT(device.materializedCount(), 2048u);
    ASSERT_EQ(device.stateEpoch(), epoch);
    EXPECT_EQ(route.delayPs(pp::Transition::Falling, 333.15), fall);
    EXPECT_EQ(route.delayPs(pp::Transition::Rising, 353.15), rise);
}

TEST(Device, AllocateRouteElementCount)
{
    pf::Device device(smallConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 1000.0);
    EXPECT_EQ(spec.size(), 40u); // 1000 ps / 25 ps per element
    EXPECT_EQ(spec.name, "r");
    EXPECT_DOUBLE_EQ(spec.target_ps, 1000.0);
}

TEST(Device, AllocateRouteIdsAreUnique)
{
    pf::Device device(smallConfig());
    const pf::RouteSpec a = device.allocateRoute("a", 500.0);
    const pf::RouteSpec b = device.allocateRoute("b", 500.0);
    for (const auto &ida : a.elements) {
        for (const auto &idb : b.elements) {
            EXPECT_NE(ida.key(), idb.key());
        }
    }
}

TEST(Device, AllocateRouteExhaustionIsFatal)
{
    pf::DeviceConfig config = smallConfig();
    config.tiles_x = 1;
    config.tiles_y = 1;
    config.nodes_per_tile = 8;
    pf::Device device(config);
    EXPECT_THROW(device.allocateRoute("too_big", 1000.0),
                 pu::FatalError);
}

TEST(Device, AllocateCarryChainSeparateAddressSpace)
{
    pf::Device device(smallConfig());
    const pf::RouteSpec route = device.allocateRoute("r", 500.0);
    const pf::RouteSpec chain = device.allocateCarryChain("c", 64);
    EXPECT_EQ(chain.size(), 64u);
    for (const auto &id : chain.elements) {
        EXPECT_EQ(id.type, pf::ResourceType::CarryElement);
    }
    for (const auto &id : route.elements) {
        EXPECT_EQ(id.type, pf::ResourceType::RoutingNode);
    }
}

TEST(Device, CarryChainZeroTapsFatal)
{
    pf::Device device(smallConfig());
    EXPECT_THROW(device.allocateCarryChain("c", 0), pu::FatalError);
}

TEST(Device, BadConfigIsFatal)
{
    pf::DeviceConfig config = smallConfig();
    config.tiles_x = 0;
    EXPECT_THROW(pf::Device{config}, pu::FatalError);
    config = smallConfig();
    config.routing_pitch_ps = 0.0;
    EXPECT_THROW(pf::Device{config}, pu::FatalError);
}

TEST(Device, FreshScaleReflectsServiceAge)
{
    pf::DeviceConfig aged = smallConfig();
    aged.service_age_h = 30000.0;
    pf::Device new_dev(smallConfig());
    pf::Device old_dev(aged);
    EXPECT_DOUBLE_EQ(new_dev.freshScale(), 1.0);
    EXPECT_LT(old_dev.freshScale(), 0.3);
}

// ---------------------------------------------------------------Route

TEST(Route, BaseDelayNearTarget)
{
    pf::Device device(smallConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 2000.0);
    pf::Route route = device.bindRoute(spec);
    EXPECT_NEAR(route.baseDelayPs(pp::Transition::Rising), 2000.0,
                2000.0 * 0.1);
    EXPECT_NEAR(route.baseDelayPs(pp::Transition::Falling), 2000.0,
                2000.0 * 0.1);
}

TEST(Route, EmptySpecIsFatal)
{
    pf::Device device(smallConfig());
    pf::RouteSpec empty;
    empty.name = "empty";
    EXPECT_THROW(device.bindRoute(empty), pu::FatalError);
}

TEST(Route, PristineRouteHasNoBtiShift)
{
    pf::Device device(smallConfig());
    pf::Route route = device.bindRoute(device.allocateRoute("r", 1000.0));
    EXPECT_NEAR(route.btiShiftPs(pp::Transition::Rising), 0.0, 1e-9);
    EXPECT_NEAR(route.btiShiftPs(pp::Transition::Falling), 0.0, 1e-9);
}

// --------------------------------------------------------------Design

TEST(Design, EmptyNameIsFatal)
{
    EXPECT_THROW(pf::Design(""), pu::FatalError);
}

TEST(Design, RouteValueSetsActivityOnEveryElement)
{
    pf::Device device(smallConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 500.0);
    pf::Design design("d");
    design.setRouteValue(spec, true);
    EXPECT_EQ(design.configuredElements(), spec.size());
    for (const auto &id : spec.elements) {
        EXPECT_EQ(design.activityFor(id).kind, pf::Activity::Hold1);
    }
}

TEST(Design, ClearRouteRemovesActivity)
{
    pf::Device device(smallConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 500.0);
    pf::Design design("d");
    design.setRouteValue(spec, false);
    design.clearRoute(spec);
    EXPECT_EQ(design.configuredElements(), 0u);
    EXPECT_EQ(design.activityFor(spec.elements[0]).kind,
              pf::Activity::Unused);
}

TEST(Design, TogglingDutyStored)
{
    pf::Device device(smallConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 100.0);
    pf::Design design("d");
    design.setRouteToggling(spec, 0.75);
    EXPECT_DOUBLE_EQ(design.activityFor(spec.elements[0]).duty_one,
                     0.75);
    EXPECT_THROW(design.setRouteToggling(spec, 1.5), pu::FatalError);
}

TEST(Design, SettingUnusedErasesEntry)
{
    pf::Design design("d");
    const pf::ResourceId id = nodeId(1, 1, 1);
    design.setElementActivity(id, {pf::Activity::Hold1, 0.5});
    EXPECT_EQ(design.configuredElements(), 1u);
    design.setElementActivity(id, {pf::Activity::Unused, 0.5});
    EXPECT_EQ(design.configuredElements(), 0u);
}

TEST(Design, NegativePowerIsFatal)
{
    pf::Design design("d");
    EXPECT_THROW(design.setPowerW(-1.0), pu::FatalError);
}

// -------------------------------------------------------- TargetDesign

TEST(TargetDesign, BurnValuesApplied)
{
    pf::Device device(smallConfig());
    std::vector<pf::RouteSpec> specs{device.allocateRoute("a", 250.0),
                                     device.allocateRoute("b", 250.0)};
    pf::ArithmeticHeavyConfig arith;
    arith.dsp_count = 4;
    pf::TargetDesign design("t", specs, {true, false}, arith);
    EXPECT_TRUE(design.burnValue(0));
    EXPECT_FALSE(design.burnValue(1));
    EXPECT_EQ(design.activityFor(specs[0].elements[0]).kind,
              pf::Activity::Hold1);
    EXPECT_EQ(design.activityFor(specs[1].elements[0]).kind,
              pf::Activity::Hold0);
}

TEST(TargetDesign, MismatchedBurnValuesFatal)
{
    pf::Device device(smallConfig());
    std::vector<pf::RouteSpec> specs{device.allocateRoute("a", 250.0)};
    EXPECT_THROW(pf::TargetDesign("t", specs, {true, false}),
                 pu::FatalError);
}

TEST(TargetDesign, SetBurnValueFlipsActivity)
{
    pf::Device device(smallConfig());
    std::vector<pf::RouteSpec> specs{device.allocateRoute("a", 250.0)};
    pf::ArithmeticHeavyConfig arith;
    arith.dsp_count = 0;
    pf::TargetDesign design("t", specs, {false}, arith);
    design.setBurnValue(0, true);
    EXPECT_TRUE(design.burnValue(0));
    EXPECT_EQ(design.activityFor(specs[0].elements[0]).kind,
              pf::Activity::Hold1);
}

TEST(TargetDesign, RelocateRouteMovesActivity)
{
    pf::Device device(smallConfig());
    std::vector<pf::RouteSpec> specs{device.allocateRoute("a", 250.0)};
    pf::ArithmeticHeavyConfig arith;
    arith.dsp_count = 0;
    pf::TargetDesign design("t", specs, {true}, arith);
    const pf::RouteSpec new_site = device.allocateRoute("a2", 250.0);
    design.relocateRoute(0, new_site);
    EXPECT_EQ(design.activityFor(specs[0].elements[0]).kind,
              pf::Activity::Unused);
    EXPECT_EQ(design.activityFor(new_site.elements[0]).kind,
              pf::Activity::Hold1);
    EXPECT_EQ(design.routeSpec(0).name, "a2");
}

TEST(TargetDesign, Experiment2PowerBudget)
{
    pf::Device device(smallConfig());
    std::vector<pf::RouteSpec> specs{device.allocateRoute("a", 250.0)};
    pf::TargetDesign design("t", specs, {true});
    // 3896 DSPs at the default per-DSP power: the paper's 63 W,
    // inside the 85 W cap.
    EXPECT_NEAR(design.powerW(), 63.0, 1.5);
    EXPECT_LT(design.powerW(), 85.0);
}

TEST(TargetDesign, IndexOutOfRangeFatal)
{
    pf::Device device(smallConfig());
    std::vector<pf::RouteSpec> specs{device.allocateRoute("a", 250.0)};
    pf::ArithmeticHeavyConfig arith;
    arith.dsp_count = 0;
    pf::TargetDesign design("t", specs, {true}, arith);
    EXPECT_THROW(design.burnValue(1), pu::FatalError);
    EXPECT_THROW(design.routeSpec(1), pu::FatalError);
    EXPECT_THROW(design.setBurnValue(1, false), pu::FatalError);
}

// ------------------------------------------------- design lifecycle

TEST(DeviceLifecycle, LoadDesignDefersMaterialisationToObservation)
{
    pf::Device device(smallConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 500.0);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(spec, true);
    EXPECT_EQ(device.materializedCount(), 0u);
    device.loadDesign(design);
    // The load journals the configuration instead of touching the
    // slab; the elements are still owed their imprint.
    EXPECT_EQ(device.materializedCount(), 0u);
    EXPECT_EQ(device.journaledKeyCount(), spec.size());
    EXPECT_EQ(device.imprintedIds().size(), spec.size());
    // First observation materialises.
    pf::Route route = device.bindRoute(spec);
    EXPECT_EQ(device.materializedCount(), spec.size());
    EXPECT_EQ(device.journaledKeyCount(), 0u);
}

TEST(DeviceLifecycle, ObservingAtLoadLeavesNothingJournaled)
{
    // The equivalence tests' yardstick: observing the resident design
    // right after each load materialises every configured element, so
    // the journal holds nothing and every imprinted element exists.
    pf::Device device(smallConfig());
    const pf::RouteSpec first = device.allocateRoute("r", 500.0);
    const pf::RouteSpec second = device.allocateRoute("s", 300.0);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(first, true);
    device.loadDesign(design);
    pentimento::observe_at_load::observeResident(device);
    EXPECT_EQ(device.materializedCount(), first.size());
    EXPECT_EQ(device.journaledKeyCount(), 0u);
    EXPECT_EQ(device.imprintedIds(), device.materializedIds());

    // A replacement design over a new route and a wipe: still nothing
    // owed to the journal.
    auto next = std::make_shared<pf::Design>("e");
    next->setRouteValue(first, false);
    next->setRouteToggling(second, 0.5);
    device.loadDesign(next);
    pentimento::observe_at_load::observeResident(device);
    device.wipe();
    EXPECT_EQ(device.materializedCount(), first.size() + second.size());
    EXPECT_EQ(device.journaledKeyCount(), 0u);
    EXPECT_EQ(device.imprintedIds(), device.materializedIds());
}

TEST(DeviceLifecycle, NullDesignIsFatal)
{
    pf::Device device(smallConfig());
    EXPECT_THROW(device.loadDesign(nullptr), pu::FatalError);
}

TEST(DeviceLifecycle, WipeClearsDesignButNotAging)
{
    // THE core invariant of the paper: the provider's wipe removes
    // the configuration, the analog imprint stays.
    pf::Device device(smallConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 1000.0);
    auto design = std::make_shared<pf::Design>("burner");
    design->setRouteValue(spec, true);
    device.loadDesign(design);

    pp::OvenEnvironment oven(333.15);
    device.advance(200.0, oven);
    pf::Route route = device.bindRoute(spec);
    const double imprint = route.btiShiftPs(pp::Transition::Falling);
    EXPECT_GT(imprint, 0.5);

    device.wipe();
    EXPECT_EQ(device.currentDesign(), nullptr);
    EXPECT_NEAR(route.btiShiftPs(pp::Transition::Falling), imprint,
                1e-9);
}

TEST(DeviceLifecycle, AdvanceWithoutDesignRecovers)
{
    pf::Device device(smallConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 1000.0);
    auto design = std::make_shared<pf::Design>("burner");
    design->setRouteValue(spec, true);
    device.loadDesign(design);
    pp::OvenEnvironment oven(333.15);
    device.advance(200.0, oven);
    pf::Route route = device.bindRoute(spec);
    const double imprint = route.btiShiftPs(pp::Transition::Falling);
    device.wipe();
    device.advance(100.0, oven);
    const double later = route.btiShiftPs(pp::Transition::Falling);
    EXPECT_LT(later, imprint);
    EXPECT_GT(later, 0.0); // recovery is partial, not erasure
}

TEST(DeviceLifecycle, AdvanceAccumulatesElapsedHours)
{
    pf::Device device(smallConfig());
    pp::OvenEnvironment oven(333.15);
    device.advance(2.5, oven);
    device.advance(1.5, oven);
    EXPECT_DOUBLE_EQ(device.elapsedHours(), 4.0);
    EXPECT_THROW(device.advance(-1.0, oven), pu::FatalError);
}

TEST(DeviceLifecycle, NonFiniteSpansAreFatal)
{
    // An infinite span would give every element replayed over it an
    // infinite delay; each span producer, and service wear, must
    // refuse it (and NaN).
    pf::Device device(smallConfig());
    pp::OvenEnvironment oven(333.15);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {inf, nan}) {
        EXPECT_THROW(device.advance(bad, oven), pu::FatalError);
        EXPECT_THROW(device.advanceAt(bad, 333.15), pu::FatalError);
        EXPECT_THROW(device.ingestSegment(bad, 333.15), pu::FatalError);
        EXPECT_THROW(device.creditIdleHours(bad), pu::FatalError);
        EXPECT_THROW(device.applyServiceWear(bad), pu::FatalError);
    }
    EXPECT_EQ(device.elapsedHours(), 0.0);
}

TEST(DeviceLifecycle, BurnPolarityVisibleInRouteDelays)
{
    pf::Device device(smallConfig());
    const pf::RouteSpec one = device.allocateRoute("one", 1000.0);
    const pf::RouteSpec zero = device.allocateRoute("zero", 1000.0);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(one, true);
    design->setRouteValue(zero, false);
    device.loadDesign(design);
    pp::OvenEnvironment oven(333.15);
    device.advance(200.0, oven);

    pf::Route r_one = device.bindRoute(one);
    pf::Route r_zero = device.bindRoute(zero);
    EXPECT_GT(r_one.btiShiftPs(pp::Transition::Falling), 0.5);
    EXPECT_NEAR(r_one.btiShiftPs(pp::Transition::Rising), 0.0, 1e-6);
    EXPECT_GT(r_zero.btiShiftPs(pp::Transition::Rising), 0.5);
    EXPECT_NEAR(r_zero.btiShiftPs(pp::Transition::Falling), 0.0, 1e-6);
}

TEST(DeviceLifecycle, ServiceWearAgesMaterializedElements)
{
    pf::Device device(smallConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 500.0);
    device.element(spec.elements[0]);
    device.applyServiceWear(10000.0);
    const auto &elem = *device.findElement(spec.elements[0]);
    EXPECT_GT(elem.deltaVth(device.config().bti,
                            pp::TransistorType::Nmos),
              0.0);
    EXPECT_THROW(device.applyServiceWear(-1.0), pu::FatalError);
}

// ---------------------------------------------- design portability

TEST(DesignPortability, SpecsFromScratchDeviceBindOnAnotherDevice)
{
    // The marketplace flow depends on this: a vendor compiles a
    // design against the device *family* (a scratch Device), and the
    // resulting specs/design must work on any physical card of that
    // family.
    pf::Device scratch(smallConfig(111));
    const pf::RouteSpec spec = scratch.allocateRoute("net", 1000.0);
    auto design = std::make_shared<pf::Design>("afi");
    design->setRouteValue(spec, true);

    pf::Device card(smallConfig(222)); // different silicon, same grid
    card.loadDesign(design);
    pp::OvenEnvironment oven(333.15);
    card.advance(100.0, oven);

    pf::Route route = card.bindRoute(spec);
    EXPECT_GT(route.btiShiftPs(pp::Transition::Falling), 0.3);
    // The scratch device was never aged.
    pf::Route scratch_route = scratch.bindRoute(spec);
    EXPECT_NEAR(scratch_route.btiShiftPs(pp::Transition::Falling), 0.0,
                1e-9);
}

TEST(DesignPortability, SameFamilyCardsDifferInBaseDelayOnly)
{
    pf::Device a(smallConfig(1));
    pf::Device b(smallConfig(2));
    const pf::RouteSpec spec = a.allocateRoute("net", 2000.0);
    const double da = a.bindRoute(spec).baseDelayPs(
        pp::Transition::Rising);
    const double db = b.bindRoute(spec).baseDelayPs(
        pp::Transition::Rising);
    EXPECT_NE(da, db);                    // silicon-unique variation
    EXPECT_NEAR(da, db, 0.05 * da);       // but the same design delay
}

// ----------------------------------------------------------------- DRC

TEST(Drc, AcceptsFeedForwardDesign)
{
    pf::Design design("ok");
    design.addCombinationalEdge("a", "b");
    design.addCombinationalEdge("b", "c");
    design.addCombinationalEdge("a", "c");
    design.setPowerW(10.0);
    const pf::DesignRuleChecker drc;
    EXPECT_TRUE(drc.accepts(design));
}

TEST(Drc, RejectsDirectLoop)
{
    pf::Design design("ro");
    design.addCombinationalEdge("route", "inverter");
    design.addCombinationalEdge("inverter", "route");
    const pf::DesignRuleChecker drc;
    const auto violations = drc.check(design);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rule, "combinational-loop");
}

TEST(Drc, RejectsLongCycle)
{
    pf::Design design("long_loop");
    design.addCombinationalEdge("a", "b");
    design.addCombinationalEdge("b", "c");
    design.addCombinationalEdge("c", "d");
    design.addCombinationalEdge("d", "a");
    const pf::DesignRuleChecker drc;
    EXPECT_FALSE(drc.accepts(design));
}

TEST(Drc, SelfLoopDetected)
{
    pf::Design design("self");
    design.addCombinationalEdge("x", "x");
    const pf::DesignRuleChecker drc;
    EXPECT_FALSE(drc.accepts(design));
}

TEST(Drc, PowerCapEnforced)
{
    pf::Design design("hot");
    design.setPowerW(90.0);
    const pf::DesignRuleChecker drc(85.0);
    const auto violations = drc.check(design);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rule, "power-cap");
}

TEST(Drc, PowerAtCapAccepted)
{
    pf::Design design("edge");
    design.setPowerW(85.0);
    const pf::DesignRuleChecker drc(85.0);
    EXPECT_TRUE(drc.accepts(design));
}

TEST(Drc, MultipleViolationsReported)
{
    pf::Design design("bad");
    design.setPowerW(100.0);
    design.addCombinationalEdge("a", "a");
    const pf::DesignRuleChecker drc(85.0);
    EXPECT_EQ(drc.check(design).size(), 2u);
}

TEST(Drc, EmptyDesignAccepted)
{
    const pf::Design design("empty");
    const pf::DesignRuleChecker drc;
    EXPECT_TRUE(drc.accepts(design));
}

TEST(Drc, DiamondIsNotALoop)
{
    pf::Design design("diamond");
    design.addCombinationalEdge("a", "b");
    design.addCombinationalEdge("a", "c");
    design.addCombinationalEdge("b", "d");
    design.addCombinationalEdge("c", "d");
    const pf::DesignRuleChecker drc;
    EXPECT_TRUE(drc.accepts(design));
}
