/**
 * @file
 * Equivalence battery for the activity journal (PR 5).
 *
 * The journal defers element materialisation from design load to
 * first observation; these tests lock the property that makes that
 * deferral legal: *the time of first observation never changes an
 * aged delay*, for every schedule shape the engine uses — hourly
 * stepping, single jumps, random dyadic partitions — across
 * mid-tenancy mitigation flips, design replacement without a wipe,
 * partial mid-tenancy observation, service wear, timeline compaction,
 * and the cloud instance's deferred idle walk (creditIdleHours).
 * Each scenario runs 2 x N ways (observed at load or late x
 * schedules, see observe_at_load.hpp) and every output double must
 * be EQ, not NEAR.
 *
 * Bookkeeping locks ride along: what is journaled vs materialised at
 * each phase, and imprintedIds as the union listing.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "core/experiment.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "observe_at_load.hpp"
#include "util/rng.hpp"

namespace pc = pentimento::core;
namespace pcl = pentimento::cloud;
namespace pf = pentimento::fabric;
namespace pp = pentimento::phys;
namespace pu = pentimento::util;
using pentimento::observe_at_load::observeResident;

namespace {

pf::DeviceConfig
tinyConfig()
{
    pf::DeviceConfig config;
    config.tiles_x = 8;
    config.tiles_y = 8;
    config.nodes_per_tile = 32;
    return config;
}


/** Advance `hours` at a fixed die temperature, in schedule-shaped
 *  steps. */
using Stepper =
    std::function<void(pf::Device &, double hours, double temp_k)>;

const Stepper kJump = [](pf::Device &device, double hours,
                         double temp_k) {
    device.advanceAt(hours, temp_k);
};

const Stepper kHourly = [](pf::Device &device, double hours,
                           double temp_k) {
    double advanced = 0.0;
    while (advanced < hours - 1e-12) {
        const double dt = std::min(1.0, hours - advanced);
        device.advanceAt(dt, temp_k);
        advanced += dt;
    }
};

Stepper
dyadicStepper(std::uint64_t seed)
{
    return [seed](pf::Device &device, double hours, double temp_k) {
        pu::Rng rng(seed);
        auto ticks = static_cast<std::uint64_t>(hours * 64.0);
        while (ticks > 0) {
            const std::uint64_t take =
                rng.uniformInt(1, std::min<std::uint64_t>(ticks, 192));
            device.advanceAt(static_cast<double>(take) / 64.0,
                             temp_k);
            ticks -= take;
        }
    };
}

/**
 * Two tenancies with a mid-tenancy mitigation flip, a design replace
 * without an intervening wipe, a partial mid-tenancy observation, a
 * service-wear sweep, and a full final observation. Returns every
 * observed double. `at_load` observes the resident design after
 * every load and step (the yardstick of observe_at_load.hpp).
 */
std::vector<double>
runTenancyScenario(bool at_load, const Stepper &step)
{
    pf::Device device(tinyConfig());
    const auto load = [&](std::shared_ptr<const pf::Design> design) {
        device.loadDesign(std::move(design));
        if (at_load) {
            observeResident(device);
        }
    };
    const auto advance = [&](double hours, double temp_k) {
        step(device, hours, temp_k);
        if (at_load) {
            observeResident(device);
        }
    };
    const pf::RouteSpec route_a = device.allocateRoute("a", 600.0);
    const pf::RouteSpec route_b = device.allocateRoute("b", 400.0);
    const pf::RouteSpec route_c = device.allocateRoute("c", 500.0);

    // Tenancy 1: burn a, toggle b.
    auto design1 = std::make_shared<pf::Design>("t1");
    design1->setRouteValue(route_a, true);
    design1->setRouteToggling(route_b, 0.3);
    load(design1);
    advance(37.0, 348.15);
    // Mid-tenancy mitigation flip: rotate the burn value in place and
    // re-load the (mutated) resident design.
    design1->setRouteValue(route_a, false);
    load(design1);
    advance(20.0, 348.15);
    // Replace without wipe: b's release and c's configuration are one
    // boundary; a keeps its value across the replace (no flip).
    auto design2 = std::make_shared<pf::Design>("t2");
    design2->setRouteValue(route_a, false);
    design2->setRouteValue(route_c, true);
    load(design2);
    advance(12.0, 351.4);
    // Partial observation mid-tenancy: c materialises (consuming its
    // journal) while a and b stay deferred in the lazy run.
    pf::Route bound_c = device.bindRoute(route_c);
    std::vector<double> out;
    out.push_back(bound_c.delayPs(pp::Transition::Rising, 333.15));
    advance(9.0, 351.4);
    device.wipe();
    advance(16.0, 330.0);
    // Whole-fabric wear: lazily deferred elements must join the sweep.
    device.applyServiceWear(5.0, 0.25);
    advance(3.0, 330.0);

    for (const pf::RouteSpec *spec : {&route_a, &route_b, &route_c}) {
        pf::Route route = device.bindRoute(*spec);
        out.push_back(route.delayPs(pp::Transition::Rising, 333.15));
        out.push_back(route.delayPs(pp::Transition::Falling, 333.15));
        out.push_back(route.delayPs(pp::Transition::Falling, 358.15));
    }
    out.push_back(device.elapsedHours());
    out.push_back(static_cast<double>(device.materializedCount()));
    out.push_back(static_cast<double>(device.journaledKeyCount()));
    return out;
}

TEST(JournalEquivalence, TenancyScenarioBitIdenticalAcrossSchedules)
{
    const std::vector<double> reference =
        runTenancyScenario(true, kJump);
    EXPECT_EQ(reference, runTenancyScenario(false, kJump));
    EXPECT_EQ(reference, runTenancyScenario(true, kHourly));
    EXPECT_EQ(reference, runTenancyScenario(false, kHourly));
    for (const std::uint64_t seed : {31u, 32u, 33u}) {
        EXPECT_EQ(reference,
                  runTenancyScenario(true, dyadicStepper(seed)))
            << "at-load dyadic seed " << seed;
        EXPECT_EQ(reference,
                  runTenancyScenario(false, dyadicStepper(seed)))
            << "late dyadic seed " << seed;
    }
}

TEST(JournalEquivalence, CompactionRebaseKeepsDeferredReplayExact)
{
    // Hundreds of distinct-temperature segments with a periodically
    // observed route keep timeline compaction active; a route
    // configured late (in place, mid-run) journals its first run deep
    // into the segment list, so later compactions drop a consumed
    // prefix and must rebase the deferred positions — and the late
    // replay must still be bit-identical to observation at load.
    const auto run = [](bool at_load) {
        pf::Device device(tinyConfig());
        const auto settle = [&] {
            if (at_load) {
                observeResident(device);
            }
        };
        const pf::RouteSpec pinned = device.allocateRoute("p", 500.0);
        const pf::RouteSpec watched = device.allocateRoute("w", 500.0);
        auto design = std::make_shared<pf::Design>("d");
        design->setRouteValue(watched, false);
        device.loadDesign(design);
        settle();
        pf::Route bound = device.bindRoute(watched);
        std::vector<double> out;
        for (int seg = 0; seg < 100; ++seg) {
            device.advanceAt(1.0, 330.0 + 0.01 * seg);
            settle();
            if (seg % 10 == 0) {
                out.push_back(
                    bound.delayPs(pp::Transition::Falling, 333.15));
            }
        }
        // Late in-place configuration: the journal run starts ~100
        // segments in (folded at the next recorded span).
        design->setRouteValue(pinned, true);
        settle();
        for (int seg = 0; seg < 120; ++seg) {
            device.advanceAt(1.0, 340.0 + 0.01 * seg);
            settle();
            if (seg % 10 == 0) {
                out.push_back(
                    bound.delayPs(pp::Transition::Falling, 333.15));
            }
        }
        device.wipe();
        device.advanceAt(30.0, 320.0);
        pf::Route late = device.bindRoute(pinned);
        out.push_back(late.delayPs(pp::Transition::Rising, 333.15));
        out.push_back(late.delayPs(pp::Transition::Falling, 333.15));
        return out;
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(JournalEquivalence, ReserveAfterLoadInvalidatesResolutionRefresh)
{
    // reserveActivity() can rehash the activity map and permute its
    // iteration order; the values-only resolution refresh pairs the
    // walked activities positionally against cached cohorts, so a
    // reserve must invalidate cached resolutions like a key-set edit.
    // (Found by review: without the keyset bump the delays silently
    // diverge.)
    const auto run = [](bool reserve_between) {
        pf::Device device(tinyConfig());
        std::vector<pf::RouteSpec> routes;
        auto design = std::make_shared<pf::Design>("d");
        for (int r = 0; r < 6; ++r) {
            std::string name = "r";
            name += std::to_string(r);
            routes.push_back(device.allocateRoute(name, 500.0));
            design->setRouteValue(routes.back(), r % 2 == 0);
        }
        device.loadDesign(design);
        device.advanceAt(10.0, 340.0);
        if (reserve_between) {
            design->reserveActivity(4096); // may permute map order
        }
        for (int r = 0; r < 6; ++r) {
            design->setRouteValue(routes[r], r % 2 != 0); // rotate
        }
        device.advanceAt(10.0, 340.0);
        std::vector<double> out;
        for (const pf::RouteSpec &spec : routes) {
            pf::Route route = device.bindRoute(spec);
            out.push_back(
                route.delayPs(pp::Transition::Rising, 333.15));
            out.push_back(
                route.delayPs(pp::Transition::Falling, 333.15));
        }
        return out;
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(JournalLaziness, LoadWipeChurnTouchesNoElements)
{
    // A year of unmeasured tenancies materialises nothing at all.
    pc::TenancyChurnConfig config;
    config.tenancies = 40;
    config.observe_last = 0;
    const pc::TenancyChurnResult result = pc::runTenancyChurn(config);
    EXPECT_EQ(result.materialized, 0u);
    EXPECT_GT(result.journaled, 0u);
    EXPECT_TRUE(result.observed_delays_ps.empty());
}

TEST(JournalLaziness, ImprintedIdsListsDeferredAndMaterialised)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec burned = device.allocateRoute("x", 500.0);
    const pf::RouteSpec seen = device.allocateRoute("y", 500.0);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(burned, true);
    design->setRouteValue(seen, false);
    device.loadDesign(design);
    pf::Route bound = device.bindRoute(seen); // materialises y only
    (void)bound.delayPs(pp::Transition::Rising, 333.15);
    EXPECT_EQ(device.materializedCount(), seen.size());
    EXPECT_EQ(device.journaledKeyCount(), burned.size());
    const std::vector<pf::ResourceId> ids = device.imprintedIds();
    EXPECT_EQ(ids.size(), burned.size() + seen.size());
    EXPECT_TRUE(std::is_sorted(
        ids.begin(), ids.end(),
        [](const pf::ResourceId &a, const pf::ResourceId &b) {
            return a.key() < b.key();
        }));
}

TEST(JournalLaziness, MaterialisedDesignLoadDoesNotGrowTheTable)
{
    // An observed board re-loading designs over elements it has
    // already materialised (the TM2 attacker's measure and park
    // designs) journals nothing, so the load must not reserve table
    // room for those keys either.
    pf::Device device(tinyConfig());
    std::vector<pf::RouteSpec> routes;
    std::size_t elements = 0;
    for (int r = 0; elements < 100; ++r) {
        std::string name = "r";
        name += std::to_string(r);
        routes.push_back(device.allocateRoute(name, 500.0));
        elements += routes.back().size();
    }
    auto burn = std::make_shared<pf::Design>("burn");
    for (const pf::RouteSpec &spec : routes) {
        burn->setRouteValue(spec, true);
    }
    device.loadDesign(burn);
    device.advanceAt(10.0, 340.0);
    for (const pf::RouteSpec &spec : routes) {
        pf::Route route = device.bindRoute(spec);
        (void)route.delayPs(pp::Transition::Rising, 333.15);
    }
    ASSERT_EQ(device.journaledKeyCount(), 0u);
    const std::size_t slots = device.journalTableSlots();
    ASSERT_GT(slots, 0u);

    for (const bool value : {false, true, false}) {
        auto park = std::make_shared<pf::Design>("park");
        for (const pf::RouteSpec &spec : routes) {
            park->setRouteValue(spec, value);
        }
        device.loadDesign(park);
        device.advanceAt(1.0, 340.0);
    }
    EXPECT_EQ(device.journaledKeyCount(), 0u);
    EXPECT_EQ(device.journalTableSlots(), slots);
}

// ----------------------------------------- cloud deferral interplay

/**
 * Idle (deferred ambient walk) -> tenancy (journal) -> idle -> late
 * observation. The two laziness layers — creditIdleHours at the
 * instance, the activity journal at the device — must compose without
 * perturbing a bit relative to an instance observed at load.
 */
std::vector<double>
runCloudScenario(bool at_load)
{
    pcl::AmbientParams ambient;
    pcl::FpgaInstance inst("fpga-jx", tinyConfig(), ambient,
                           pu::Rng(909));
    pf::Device &device = inst.device();
    const pf::RouteSpec spec = device.allocateRoute("r", 800.0);
    inst.advanceHours(48.0); // pooled, unobserved
    auto design = std::make_shared<pf::Design>("tenant");
    design->setRouteValue(spec, true);
    design->setPowerW(20.0);
    device.loadDesign(design);
    if (at_load) {
        observeResident(device);
    }
    inst.advanceHours(24.0); // computing (stepped walk)
    device.wipe();
    inst.advanceHours(72.0); // pooled again
    pf::Route route = device.bindRoute(spec);
    return {route.delayPs(pp::Transition::Rising, 333.15),
            route.delayPs(pp::Transition::Falling, 333.15),
            device.elapsedHours(), inst.dieTempK()};
}

TEST(JournalCloudDeferral, CreditIdleHoursComposesWithJournal)
{
    EXPECT_EQ(runCloudScenario(true), runCloudScenario(false));
}

TEST(JournalCloudDeferral, IdleBacklogStaysDeferredUntilObservation)
{
    pcl::AmbientParams ambient;
    pcl::FpgaInstance inst("fpga-jy", tinyConfig(), ambient,
                           pu::Rng(910));
    // Allocation is pure bookkeeping: no observation, no flush.
    pf::RouteSpec spec;
    {
        pf::Device &device = inst.device();
        spec = device.allocateRoute("r", 500.0);
    }
    inst.advanceHours(100.0);
    EXPECT_DOUBLE_EQ(inst.deferredIdleHours(), 100.0);
    // Loading a design is a flip boundary: the idle walk must land on
    // the timeline first (the pre-observation hook flushes it).
    pf::Device &device = inst.device();
    EXPECT_DOUBLE_EQ(inst.deferredIdleHours(), 0.0);
    auto design = std::make_shared<pf::Design>("tenant");
    design->setRouteValue(spec, true);
    device.loadDesign(design);
    EXPECT_EQ(device.materializedCount(), 0u);
    EXPECT_EQ(device.journaledKeyCount(), spec.size());
    inst.advanceHours(10.0);
    device.wipe();
    inst.advanceHours(50.0);
    EXPECT_DOUBLE_EQ(inst.deferredIdleHours(), 50.0);
    EXPECT_EQ(device.journaledKeyCount(), spec.size());
    // Observation flushes the backlog AND consumes the journal.
    pf::Route route = device.bindRoute(spec);
    EXPECT_GT(route.btiShiftPs(pp::Transition::Falling), 0.0);
    EXPECT_DOUBLE_EQ(inst.deferredIdleHours(), 0.0);
    EXPECT_EQ(device.journaledKeyCount(), 0u);
}

} // namespace
