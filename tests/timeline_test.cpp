/**
 * @file
 * Locks for the segment-timeline aging model (PR 3).
 *
 *  - Partition invariance: advancing a constant-condition span as
 *    hourly steps, as one jump, or as a random dyadic partition
 *    produces bit-identical aged delays — including across activity
 *    flips (stress -> recover -> re-stress), mid-span mitigation-style
 *    value toggles, and 1-vs-N worker pools. This is the property
 *    that lets the experiment engine collapse uninterrupted burns
 *    into single jumps without perturbing a single output bit.
 *  - Laziness: advance() is O(1) bookkeeping — unobserved elements
 *    hold no aged state until a query forces a replay, same-condition
 *    steps coalesce into one segment, and an empty fabric records
 *    nothing at all (idle fleet stock ages for free).
 *  - Compensated time accumulation: a million irregular steps land on
 *    the closed-form total instead of drifting.
 *  - Run-total memo: AgingTimeline::runTotals answers from a table of
 *    many ranges, and every answer — hit, miss, after compaction,
 *    after a restore, under concurrent callers — is bit-equal to a
 *    fresh left-to-right sum over the current segments.
 *  - Element-aging pins: every activity through the public Device
 *    API, over both the per-segment and the run-reduced replay, with
 *    each element's BTI hours and ΔVth recorded as hexfloats.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/aging_timeline.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "phys/thermal.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pf = pentimento::fabric;
namespace pp = pentimento::phys;
namespace pu = pentimento::util;

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

/** Split total hours into random multiples of 1/64 h (sums exactly). */
std::vector<double>
dyadicPartition(double total_h, std::uint64_t seed)
{
    pu::Rng rng(seed);
    auto ticks = static_cast<std::uint64_t>(total_h * 64.0);
    std::vector<double> parts;
    while (ticks > 0) {
        const std::uint64_t take =
            rng.uniformInt(1, std::min<std::uint64_t>(ticks, 192));
        parts.push_back(static_cast<double>(take) / 64.0);
        ticks -= take;
    }
    return parts;
}

using Stepper = std::function<void(pf::Device &,
                                   pp::ThermalEnvironment &, double)>;

const Stepper kSingleJump = [](pf::Device &device,
                               pp::ThermalEnvironment &thermal,
                               double hours) {
    device.advance(hours, thermal);
};

const Stepper kHourly = [](pf::Device &device,
                           pp::ThermalEnvironment &thermal,
                           double hours) {
    double advanced = 0.0;
    while (advanced < hours - 1e-12) {
        const double dt = std::min(1.0, hours - advanced);
        device.advance(dt, thermal);
        advanced += dt;
    }
};

Stepper
randomStepper(std::uint64_t seed)
{
    return [seed](pf::Device &device, pp::ThermalEnvironment &thermal,
                  double hours) {
        for (const double dt : dyadicPartition(hours, seed)) {
            device.advance(dt, thermal);
        }
    };
}

/**
 * The stress -> recover -> re-stress scenario, with a mid-burn value
 * toggle (an inversion-mitigation-style flip) at a fixed hour. All
 * queries happen at the very end: queries are timeline observations,
 * so mid-run reads would themselves be segment boundaries.
 */
std::vector<double>
runScenario(const Stepper &step, pu::ThreadPool *pool)
{
    pf::Device device(tinyConfig());
    device.setWorkPool(pool);
    // 75 C: the Arrhenius pair is far from 1, so coalescing must
    // defer the duration x acceleration multiply to stay exact.
    pp::OvenEnvironment oven(pu::celsiusToKelvin(75.0));
    const pf::RouteSpec burn_route = device.allocateRoute("b", 500.0);
    const pf::RouteSpec idle_route = device.allocateRoute("i", 500.0);

    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(burn_route, true);
    design->setRouteToggling(idle_route, 0.3);
    device.loadDesign(design);
    step(device, oven, 37.0); // burn 1
    design->setRouteValue(burn_route, false);
    device.loadDesign(design);
    step(device, oven, 25.0); // mid-tenancy toggle: burn 0
    device.wipe();
    step(device, oven, 16.0); // released: recovery
    auto again = std::make_shared<pf::Design>("d2");
    again->setRouteValue(burn_route, true);
    device.loadDesign(again);
    step(device, oven, 9.0); // re-stress after recovery
    device.applyServiceWear(5.0, 0.25); // pool-exercised dense sweep
    step(device, oven, 3.0);

    std::vector<double> out;
    for (const pf::RouteSpec &spec : {burn_route, idle_route}) {
        pf::Route route = device.bindRoute(spec);
        out.push_back(route.delayPs(pp::Transition::Rising, 333.15));
        out.push_back(route.delayPs(pp::Transition::Falling, 333.15));
    }
    out.push_back(device.elapsedHours());
    device.setWorkPool(nullptr);
    return out;
}

/** n closed segments with distinct, irregular durations and factors. */
std::vector<pf::AgingSegment>
randomSegments(std::size_t n, std::uint64_t seed)
{
    pu::Rng rng(seed);
    std::vector<pf::AgingSegment> segs(n);
    for (pf::AgingSegment &seg : segs) {
        seg.duration_h = rng.uniform(0.1, 30.0);
        seg.ctx.stress_accel = rng.uniform(0.5, 9.0);
        seg.ctx.recovery_accel = rng.uniform(0.5, 9.0);
    }
    return segs;
}

/** Build a timeline whose closed segments are exactly `segs`. */
void
appendAll(pf::AgingTimeline &timeline,
          const std::vector<pf::AgingSegment> &segs)
{
    for (const pf::AgingSegment &seg : segs) {
        timeline.append(seg.duration_h, seg.ctx);
    }
    timeline.close();
}

/** The reference: a plain left-to-right sum over segs[from, to). */
pf::RunTotals
freshSum(const std::vector<pf::AgingSegment> &segs, std::uint32_t from,
         std::uint32_t to)
{
    pf::RunTotals totals;
    for (std::uint32_t k = from; k < to; ++k) {
        totals.stress_eff_h += segs[k].duration_h * segs[k].ctx.stress_accel;
        totals.recovery_eff_h +=
            segs[k].duration_h * segs[k].ctx.recovery_accel;
    }
    return totals;
}

bool
bitEqual(const pf::RunTotals &a, const pf::RunTotals &b)
{
    return std::bit_cast<std::uint64_t>(a.stress_eff_h) ==
               std::bit_cast<std::uint64_t>(b.stress_eff_h) &&
           std::bit_cast<std::uint64_t>(a.recovery_eff_h) ==
               std::bit_cast<std::uint64_t>(b.recovery_eff_h);
}

/** `count` random non-empty ranges within [0, n). */
std::vector<std::pair<std::uint32_t, std::uint32_t>>
randomRanges(std::size_t count, std::uint32_t n, std::uint64_t seed)
{
    pu::Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    for (std::size_t i = 0; i < count; ++i) {
        const auto from = static_cast<std::uint32_t>(rng.uniformIndex(n));
        const auto to = static_cast<std::uint32_t>(
            rng.uniformInt(from + 1, n));
        ranges.emplace_back(from, to);
    }
    return ranges;
}

TEST(SegmentTimeline, PartitionInvariantAgedDelays)
{
    const std::vector<double> jump = runScenario(kSingleJump, nullptr);
    const std::vector<double> hourly = runScenario(kHourly, nullptr);
    EXPECT_EQ(jump, hourly);
    for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
        EXPECT_EQ(jump, runScenario(randomStepper(seed), nullptr))
            << "random partition seed " << seed;
    }
}

TEST(SegmentTimeline, PartitionInvarianceHoldsAcrossWorkerCounts)
{
    pu::ThreadPool pool(3);
    const std::vector<double> serial = runScenario(kSingleJump, nullptr);
    EXPECT_EQ(serial, runScenario(kSingleJump, &pool));
    EXPECT_EQ(serial, runScenario(kHourly, &pool));
    EXPECT_EQ(serial, runScenario(randomStepper(21), &pool));
}

TEST(SegmentTimeline, ConstantConditionHoursCoalesceIntoOneSegment)
{
    pf::Device device(tinyConfig());
    pp::OvenEnvironment oven(333.15);
    const pf::RouteSpec spec = device.allocateRoute("r", 500.0);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(spec, true);
    device.loadDesign(design);
    for (int h = 0; h < 200; ++h) {
        device.advance(1.0, oven);
    }
    EXPECT_EQ(device.timelineSegments(), 1u);
    // Nothing observed yet: the elements are not even materialised —
    // the design load only journaled their activity.
    EXPECT_EQ(device.findElement(spec.elements[0]), nullptr);
    EXPECT_EQ(device.materializedCount(), 0u);
    // The first query materialises and replays the single 200 h
    // segment in one update.
    pf::Route route = device.bindRoute(spec);
    EXPECT_GT(route.btiShiftPs(pp::Transition::Falling), 0.5);
    const pf::RoutingElement *elem =
        device.findElement(spec.elements[0]);
    ASSERT_NE(elem, nullptr);
    EXPECT_EQ(elem->aging()
                  .state(pp::TransistorType::Nmos)
                  .stressHours(),
              200.0);
}

TEST(SegmentTimeline, EmptyFabricRecordsNoSegments)
{
    pf::Device device(tinyConfig());
    pp::OvenEnvironment oven(333.15);
    for (int h = 0; h < 1000; ++h) {
        device.advance(1.0, oven);
    }
    EXPECT_EQ(device.timelineSegments(), 0u);
    EXPECT_DOUBLE_EQ(device.elapsedHours(), 1000.0);
    // A later tenancy starts from pristine silicon regardless.
    pf::Route route =
        device.bindRoute(device.allocateRoute("r", 500.0));
    EXPECT_NEAR(route.btiShiftPs(pp::Transition::Falling), 0.0, 1e-12);
}

TEST(SegmentTimeline, TemperatureChangeOpensNewSegment)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 250.0);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(spec, true);
    device.loadDesign(design);
    pp::OvenEnvironment warm(333.15);
    pp::OvenEnvironment hot(353.15);
    device.advance(5.0, warm);
    device.advance(5.0, warm);
    EXPECT_EQ(device.timelineSegments(), 1u);
    device.advance(5.0, hot);
    EXPECT_EQ(device.timelineSegments(), 2u);
    device.advance(5.0, hot);
    EXPECT_EQ(device.timelineSegments(), 2u);
}

TEST(SegmentTimeline, WipeIsAnActivityBoundaryNotAnEraser)
{
    // The core paper invariant survives laziness: wiping flips the
    // configured elements to released (their pending burn is replayed
    // first), and the imprint remains queryable afterwards.
    pf::Device device(tinyConfig());
    pp::OvenEnvironment oven(333.15);
    const pf::RouteSpec spec = device.allocateRoute("r", 1000.0);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(spec, true);
    device.loadDesign(design);
    device.advance(150.0, oven);
    device.wipe(); // flush happens here, before any query
    pf::Route route = device.bindRoute(spec);
    const double imprint = route.btiShiftPs(pp::Transition::Falling);
    EXPECT_GT(imprint, 0.5);
    device.advance(50.0, oven); // released time: recovery
    EXPECT_LT(route.btiShiftPs(pp::Transition::Falling), imprint);
}

TEST(SegmentTimeline, IngestedSpansMatchAdvance)
{
    // The externally-coalesced ingestion API (credit the hours now,
    // hand the segments over later) must be indistinguishable from
    // eager advance() at the same temperatures.
    const auto run = [](bool ingested) {
        pf::Device device(tinyConfig());
        const pf::RouteSpec spec = device.allocateRoute("r", 500.0);
        auto design = std::make_shared<pf::Design>("d");
        design->setRouteValue(spec, true);
        device.loadDesign(design);
        const double temps[] = {333.15, 335.4, 331.9};
        if (ingested) {
            device.creditIdleHours(15.0);
            for (const double t : temps) {
                device.ingestSegment(5.0, t);
            }
        } else {
            for (const double t : temps) {
                pp::OvenEnvironment oven(t);
                device.advance(5.0, oven);
            }
        }
        pf::Route route = device.bindRoute(spec);
        return std::pair(device.elapsedHours(),
                         route.delayPs(pp::Transition::Falling, 333.15));
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(SegmentTimeline, LongRunReductionIsPartitionInvariant)
{
    // A run long enough for the pre-reduced replay path (hundreds of
    // distinct-temperature segments) must still be independent of how
    // the span was partitioned into advance() calls.
    const auto run = [](double step_h) {
        pf::Device device(tinyConfig());
        const pf::RouteSpec spec = device.allocateRoute("r", 500.0);
        auto design = std::make_shared<pf::Design>("d");
        design->setRouteValue(spec, true);
        device.loadDesign(design);
        for (int seg = 0; seg < 200; ++seg) {
            // One distinct temperature per hour, like the cloud
            // ambient: no two segments coalesce.
            pp::OvenEnvironment oven(330.0 + 0.01 * seg);
            double remaining = 1.0;
            while (remaining > 1e-12) {
                const double dt = std::min(step_h, remaining);
                device.advance(dt, oven);
                remaining -= dt;
            }
        }
        pf::Route route = device.bindRoute(spec);
        return route.delayPs(pp::Transition::Falling, 333.15);
    };
    const double jump = run(1.0);
    EXPECT_EQ(run(0.5), jump);
    EXPECT_EQ(run(0.25), jump);
}

TEST(CompensatedTime, MillionIrregularStepsMatchClosedForm)
{
    pf::Device device(tinyConfig());
    pp::OvenEnvironment oven(333.15);
    long double expected = 0.0L;
    for (int i = 0; i < 1000000; ++i) {
        const double dt = static_cast<double>(i % 9 + 1) * 0.1;
        device.advance(dt, oven);
        expected += static_cast<long double>(dt);
    }
    // Compensated accumulation holds the closed-form total to within
    // a few ulp (~6e-11 at this magnitude); naive summation drifts
    // orders of magnitude further after 10^6 irregular steps.
    EXPECT_NEAR(device.elapsedHours(),
                static_cast<double>(expected), 1e-9);
}

TEST(RunTotalsMemo, ThrashingManyRangesStaysBitExact)
{
    // Four times as many distinct ranges as the memo has slots,
    // interleaved and revisited: every answer, hit or miss, must be
    // the bits of a fresh left-to-right sum.
    pf::AgingTimeline timeline;
    appendAll(timeline, randomSegments(400, 11));
    const std::vector<pf::AgingSegment> segs = timeline.closed();
    ASSERT_EQ(segs.size(), 400u);
    const auto ranges = randomRanges(1024, 400, 12);
    pu::Rng order(13);
    for (int pass = 0; pass < 6; ++pass) {
        for (std::size_t i = 0; i < 4 * ranges.size(); ++i) {
            const auto &[from, to] = ranges[order.uniformIndex(ranges.size())];
            ASSERT_TRUE(bitEqual(timeline.runTotals(from, to),
                                 freshSum(segs, from, to)))
                << "pass " << pass << " range [" << from << ", " << to
                << ")";
        }
    }
}

TEST(RunTotalsMemo, CompactionRebasesRememberedRanges)
{
    pf::AgingTimeline timeline;
    appendAll(timeline, randomSegments(100, 21));
    const std::vector<pf::AgingSegment> before = timeline.closed();
    const pf::RunTotals old_totals = timeline.runTotals(10, 40);
    ASSERT_TRUE(bitEqual(old_totals, freshSum(before, 10, 40)));

    timeline.dropConsumed(5);
    const std::vector<pf::AgingSegment> after = timeline.closed();
    ASSERT_EQ(after.size(), 95u);
    // The same numbers now name segments [15, 45) of the old list.
    const pf::RunTotals rebased = timeline.runTotals(10, 40);
    EXPECT_TRUE(bitEqual(rebased, freshSum(after, 10, 40)));
    EXPECT_FALSE(bitEqual(rebased, old_totals));
}

TEST(RunTotalsMemo, RestoreInvalidatesRememberedRanges)
{
    pf::AgingTimeline timeline;
    const std::vector<pf::AgingSegment> first = randomSegments(64, 31);
    const std::vector<pf::AgingSegment> second = randomSegments(64, 32);
    timeline.restoreState(first, {}, 0.0, 0.0, false);
    const pf::RunTotals old_totals = timeline.runTotals(0, 20);
    ASSERT_TRUE(bitEqual(old_totals, freshSum(first, 0, 20)));

    // Same numeric range, different segments behind it: a restore
    // that kept the memo's revision tag would answer from the old run.
    timeline.restoreState(second, {}, 0.0, 0.0, false);
    const pf::RunTotals restored = timeline.runTotals(0, 20);
    EXPECT_TRUE(bitEqual(restored, freshSum(second, 0, 20)));
    EXPECT_FALSE(bitEqual(restored, old_totals));
}

TEST(RunTotalsMemo, ConcurrentCallersMatchSerialResults)
{
    pf::AgingTimeline timeline;
    appendAll(timeline, randomSegments(300, 41));
    const std::vector<pf::AgingSegment> segs = timeline.closed();
    const auto distinct = randomRanges(700, 300, 42);
    pu::Rng pick(43);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> queries;
    for (int i = 0; i < 20000; ++i) {
        queries.push_back(distinct[pick.uniformIndex(distinct.size())]);
    }

    pu::ThreadPool pool(4);
    ASSERT_GE(pool.workerCount(), 4u);
    std::vector<pf::RunTotals> results(queries.size());
    pool.parallelFor(0, queries.size(), [&](std::size_t i) {
        results[i] = timeline.runTotals(queries[i].first, queries[i].second);
    });
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto &[from, to] = queries[i];
        ASSERT_TRUE(bitEqual(results[i], freshSum(segs, from, to)))
            << "query " << i;
    }
}

// ------------------------------------------- element-aging pins

/** One element's aging state: NMOS and PMOS stress/recovery hours,
 *  then its ΔVth pair. */
using PinnedAging = std::array<double, 6>;

/**
 * Every element-aging path through the public Device API: a Hold0,
 * a Hold1 and a Toggle (duty 0.3) design in turn, then a wipe to
 * Unused, each phase aged over `segments` advanceAt spans at
 * alternating 50/70 °C so no two spans coalesce. Each flip therefore
 * replays a run of exactly `segments` closed segments: under 16 takes
 * replaySpan's per-segment branch, 16 or more its run-reduced one.
 * The first route is bound before the first load, so its flips replay
 * live; the second is only observed at the end, through the journal.
 */
std::vector<PinnedAging>
runActivityCycle(int segments)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec live = device.allocateRoute("live", 50.0);
    const pf::RouteSpec deferred = device.allocateRoute("deferred", 50.0);
    for (const pf::ResourceId &id : live.elements) {
        (void)device.bindElement(id);
    }
    for (int phase = 0; phase < 4; ++phase) {
        if (phase == 3) {
            device.wipe();
        } else {
            auto design =
                std::make_shared<pf::Design>("phase" + std::to_string(phase));
            for (const pf::RouteSpec *spec : {&live, &deferred}) {
                if (phase == 2) {
                    design->setRouteToggling(*spec, 0.3);
                } else {
                    design->setRouteValue(*spec, phase == 1);
                }
            }
            device.loadDesign(design);
        }
        for (int seg = 0; seg < segments; ++seg) {
            device.advanceAt(2.0 + 0.37 * seg,
                             seg % 2 == 0 ? 323.15 : 343.15);
        }
    }
    std::vector<PinnedAging> pins;
    for (const pf::RouteSpec *spec : {&live, &deferred}) {
        for (const pf::ResourceId &id : spec->elements) {
            const pf::RoutingElement &elem = device.element(id);
            const pp::BtiState &nmos =
                elem.aging().state(pp::TransistorType::Nmos);
            const pp::BtiState &pmos =
                elem.aging().state(pp::TransistorType::Pmos);
            PinnedAging pin{nmos.stressHours(), nmos.recoveryHours(),
                            pmos.stressHours(), pmos.recoveryHours()};
            elem.deltaVthPair(device.config().bti, pin[4], pin[5]);
            pins.push_back(pin);
        }
    }
    return pins;
}

void
expectPinned(const std::vector<PinnedAging> &got,
             const std::vector<PinnedAging> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t e = 0; e < got.size(); ++e) {
        for (std::size_t v = 0; v < 6; ++v) {
            EXPECT_EQ(got[e][v], want[e][v])
                << "element " << e << " value " << v;
        }
    }
}

TEST(ElementAgingPins, PerSegmentReplayRecordedValues)
{
    // Recorded values: a rounding change anywhere between the
    // timeline and BtiState fails here.
    expectPinned(runActivityCycle(5), {
        {0x1.48f04990a9865p+4, 0x1.fa0f3619a2586p+3, 0x1.9bd08a4eaefaep+4,
         0x1.fa0f3619a2586p+3, 0x1.04a135a6202ddp-12, 0x1.6f32a85d7d9f5p-12},
        {0x1.48f04990a9865p+4, 0x1.fa0f3619a2586p+3, 0x1.9bd08a4eaefacp+4,
         0x1.fa0f3619a2586p+3, 0x1.dbff1d0679ab1p-13, 0x1.4f500de90b512p-12},
        {0x1.48f04990a9865p+4, 0x1.fa0f3619a2586p+3, 0x1.9bd08a4eaefaep+4,
         0x1.fa0f3619a2586p+3, 0x1.1c08e8fd4f6bbp-12, 0x1.902c49b0469bap-12},
        {0x1.48f04990a9865p+4, 0x1.fa0f3619a2586p+3, 0x1.9bd08a4eaefaep+4,
         0x1.fa0f3619a2586p+3, 0x1.e4e96af8a847p-13, 0x1.5597cf21ec187p-12},
    });
}

TEST(ElementAgingPins, RunReducedReplayRecordedValues)
{
    expectPinned(runActivityCycle(20), {
        {0x1.8855e526f017ap+7, 0x1.2dcbeb590774ap+7, 0x1.a3030af91785ap+7,
         0x1.2dcbeb590774ap+7, 0x1.6145fcef1f5e8p-12, 0x1.1fd6e1d853e58p-11},
        {0x1.8855e526f017ap+7, 0x1.2dcbeb590774ap+7, 0x1.a3030af91785ap+7,
         0x1.2dcbeb590774ap+7, 0x1.4298eb170947fp-12, 0x1.06d85fb49c97ap-11},
        {0x1.8855e526f017ap+7, 0x1.2dcbeb590774ap+7, 0x1.a3030af91785cp+7,
         0x1.2dcbeb590774ap+7, 0x1.80ff80ebac95cp-12, 0x1.39b01d4612206p-11},
        {0x1.8855e526f017ap+7, 0x1.2dcbeb590774ap+7, 0x1.a3030af91785ap+7,
         0x1.2dcbeb590774ap+7, 0x1.48a3b49c8578ap-12, 0x1.0bc4a97997978p-11},
    });
}


} // namespace
