/**
 * @file
 * Property-style suites: randomized aging schedules, platform rental
 * fuzzing, TDC linearity, and classifier behaviour across SNR — the
 * invariants that must hold for *any* input, not just the paper's
 * configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloud/fingerprint.hpp"
#include "cloud/platform.hpp"
#include "core/classifier.hpp"
#include "core/delta_series.hpp"
#include "core/presets.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "phys/aging.hpp"
#include "phys/thermal.hpp"
#include "tdc/tdc.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"
#include "util/stats.hpp"

#include "aging_at.hpp"
#include "observe_at_load.hpp"

namespace pa = pentimento::aging_at;
namespace pc = pentimento::core;
namespace pcl = pentimento::cloud;
namespace pf = pentimento::fabric;
namespace pp = pentimento::phys;
namespace pt = pentimento::tdc;
namespace pu = pentimento::util;

// ------------------------------------------- random aging schedules

class AgingScheduleFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AgingScheduleFuzz, ShiftStaysNonNegativeAndBounded)
{
    const pp::BtiParams params = pp::BtiParams::ultrascalePlus();
    pu::Rng rng(GetParam());
    pp::ElementAging aging;
    pp::ElementAging pure_stress; // upper bound: never recovers

    double stressed_hours = 0.0;
    for (int step = 0; step < 200; ++step) {
        const double dt = rng.uniform(0.1, 5.0);
        const double temp = rng.uniform(300.0, 360.0);
        const int action = static_cast<int>(rng.uniformInt(0, 3));
        switch (action) {
          case 0:
            pa::holdStatic(aging, params, true, temp, dt);
            pa::holdStatic(pure_stress, params, true, temp, dt);
            stressed_hours += dt;
            break;
          case 1:
            pa::holdStatic(aging, params, false, temp, dt);
            break;
          case 2:
            pa::holdToggling(aging, params, rng.uniform(0.0, 1.0), temp, dt);
            break;
          default:
            pa::release(aging, params, temp, dt);
            break;
        }
        const double nmos =
            aging.deltaVth(params, pp::TransistorType::Nmos);
        const double pmos =
            aging.deltaVth(params, pp::TransistorType::Pmos);
        EXPECT_GE(nmos, 0.0);
        EXPECT_GE(pmos, 0.0);
        // An element that also saw hold-0 / toggle / release time can
        // never have MORE NMOS stress than one that spent every
        // hold-1 interval stressing and never recovered, plus the
        // toggle contributions bounded by full-time stress.
        EXPECT_LE(nmos,
                  pure_stress.deltaVth(params,
                                       pp::TransistorType::Nmos) +
                      params.pbti.prefactor_v *
                          std::pow(4000.0, 0.5));
    }
}

TEST_P(AgingScheduleFuzz, DeterministicReplay)
{
    const pp::BtiParams params = pp::BtiParams::ultrascalePlus();
    const auto run = [&](std::uint64_t seed) {
        pu::Rng rng(seed);
        pp::ElementAging aging;
        for (int step = 0; step < 100; ++step) {
            const double dt = rng.uniform(0.1, 3.0);
            if (rng.bernoulli(0.5)) {
                pa::holdStatic(aging, params, rng.bernoulli(0.5), 330.0, dt);
            } else {
                pa::release(aging, params, 330.0, dt);
            }
        }
        return aging.deltaVth(params, pp::TransistorType::Nmos) +
               aging.deltaVth(params, pp::TransistorType::Pmos);
    };
    EXPECT_DOUBLE_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AgingScheduleFuzz,
                         ::testing::Values(1, 7, 42, 1337, 99999));

// --------------------------------------------------- platform fuzzing

class PlatformFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PlatformFuzz, RentalInvariantsSurviveRandomOperations)
{
    pcl::PlatformConfig config = pc::awsF1Region(GetParam());
    config.fleet_size = 4;
    config.device_template.tiles_x = 32;
    config.device_template.tiles_y = 32;
    pcl::CloudPlatform platform(config);
    pu::Rng rng(GetParam());

    std::vector<std::string> held;
    for (int step = 0; step < 120; ++step) {
        const int action = static_cast<int>(rng.uniformInt(0, 3));
        if (action == 0) {
            if (const auto id = platform.rent()) {
                // A freshly rented board must be clean.
                EXPECT_EQ(platform.instance(*id)
                              .device()
                              .currentDesign(),
                          nullptr);
                held.push_back(*id);
            }
        } else if (action == 1 && !held.empty()) {
            const std::size_t pick =
                rng.uniformIndex(held.size());
            platform.release(held[pick]);
            held.erase(held.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        } else if (action == 2 && !held.empty()) {
            const std::size_t pick =
                rng.uniformIndex(held.size());
            auto design = std::make_shared<pf::Design>(
                "fuzz" + std::to_string(step));
            design->setPowerW(rng.uniform(1.0, 80.0));
            EXPECT_TRUE(
                platform.loadDesign(held[pick], design).empty());
        } else {
            platform.advanceHours(rng.uniform(0.1, 3.0));
        }
        // Conservation: held + available == fleet.
        EXPECT_EQ(held.size() + platform.availableCount(),
                  config.fleet_size);
        // No duplicates among held ids.
        for (std::size_t i = 0; i < held.size(); ++i) {
            for (std::size_t j = i + 1; j < held.size(); ++j) {
                EXPECT_NE(held[i], held[j]);
            }
        }
    }
}

TEST_P(PlatformFuzz, SplitStepsLeaveTheSameState)
{
    // A second platform on the same seed runs each random batch as
    // bookkeeping steps only, then each board's deferred device steps
    // in booking order, boards in shuffled order. After every batch its
    // image must be byte-identical to the platform driven through the
    // public calls.
    for (const pcl::BramScrubPolicy scrub :
         {pcl::BramScrubPolicy::None, pcl::BramScrubPolicy::ZeroOnRelease,
          pcl::BramScrubPolicy::ZeroOnRent}) {
        SCOPED_TRACE("scrub policy " +
                     std::to_string(static_cast<int>(scrub)));
        pcl::PlatformConfig config = pc::awsF1Region(GetParam());
        config.fleet_size = 4;
        config.device_template.tiles_x = 32;
        config.device_template.tiles_y = 32;
        config.policy = static_cast<pcl::AllocationPolicy>(GetParam() % 3);
        config.active_scrub = GetParam() % 2 == 1;
        config.bram_scrub = scrub;
        pcl::CloudPlatform direct(config);
        pcl::CloudPlatform split(config);
        const std::vector<std::string> ids = direct.allInstanceIds();
        const auto boardOf = [&](const std::string &id) {
            return static_cast<std::size_t>(
                std::find(ids.begin(), ids.end(), id) - ids.begin());
        };
        std::vector<std::vector<std::function<void()>>> deferred(
            ids.size());
        pu::Rng rng(GetParam());
        std::vector<std::string> held;

        for (int batch = 0; batch < 30; ++batch) {
            const std::int64_t steps = rng.uniformInt(1, 8);
            for (std::int64_t step = 0; step < steps; ++step) {
                const std::int64_t action = rng.uniformInt(0, 5);
                if (action == 0) {
                    const std::optional<std::string> id = direct.rent();
                    ASSERT_EQ(split.bookRent(), id);
                    if (id) {
                        pcl::FpgaInstance &inst = split.instance(*id);
                        deferred[boardOf(*id)].push_back(
                            [&split, &inst] { split.handOver(inst); });
                        held.push_back(*id);
                    }
                    continue;
                }
                if (action == 5) {
                    const double hours = rng.uniform(0.1, 30.0);
                    direct.advanceHours(hours);
                    split.advanceClock(hours);
                    for (std::size_t b = 0; b < ids.size(); ++b) {
                        pcl::FpgaInstance &inst = split.instance(ids[b]);
                        deferred[b].push_back(
                            [&inst, hours] { inst.advanceHours(hours); });
                    }
                    continue;
                }
                if (held.empty()) {
                    continue;
                }
                const std::size_t pick = rng.uniformIndex(held.size());
                const std::string id = held[pick];
                pcl::FpgaInstance &inst = split.instance(id);
                std::vector<std::function<void()>> &ops =
                    deferred[boardOf(id)];
                if (action == 1 || action == 2) {
                    // Clean or unclean release.
                    const bool clean = action == 1;
                    const double off_h = clean ? 0.0 : rng.uniform(0.0, 0.2);
                    if (clean) {
                        direct.release(id);
                    } else {
                        direct.releaseUnclean(id, off_h);
                    }
                    split.bookRelease(id, clean, split.nowHours());
                    ops.push_back([&split, &inst, clean, off_h] {
                        split.tearDown(inst, clean, off_h);
                    });
                    held.erase(held.begin() +
                               static_cast<std::ptrdiff_t>(pick));
                } else if (action == 3) {
                    // A tenant design burning freshly allocated routes.
                    auto design = std::make_shared<pf::Design>(
                        "fuzz" + std::to_string(batch) + "_" +
                        std::to_string(step));
                    for (int r = 0; r < 2; ++r) {
                        const std::string name =
                            design->name() + "_r" + std::to_string(r);
                        const pf::RouteSpec spec =
                            direct.instance(id).allocateRoute(name, 200.0);
                        EXPECT_EQ(inst.allocateRoute(name, 200.0).elements,
                                  spec.elements);
                        design->setRouteValue(spec, rng.bernoulli(0.5));
                    }
                    design->setPowerW(rng.uniform(1.0, 80.0));
                    EXPECT_TRUE(direct.loadDesign(id, design).empty());
                    split.bookLoad(id);
                    ops.push_back([&split, &inst, design] {
                        EXPECT_TRUE(split.configure(inst, design).empty());
                    });
                } else {
                    // A tenant BRAM write.
                    pf::ResourceId block;
                    block.type = pf::ResourceType::Bram;
                    block.index =
                        static_cast<std::uint16_t>(rng.uniformInt(0, 3));
                    const std::uint64_t word = rng();
                    direct.instance(id).device().writeBram(block, word);
                    ops.push_back([&inst, block, word] {
                        inst.device().writeBram(block, word);
                    });
                }
            }

            std::vector<std::size_t> order(ids.size());
            for (std::size_t b = 0; b < order.size(); ++b) {
                order[b] = b;
            }
            for (std::size_t b = order.size(); b > 1; --b) {
                std::swap(order[b - 1], order[rng.uniformIndex(b)]);
            }
            for (const std::size_t b : order) {
                for (const std::function<void()> &op : deferred[b]) {
                    op();
                }
                deferred[b].clear();
            }
            pu::SnapshotWriter want;
            pu::SnapshotWriter got;
            direct.saveState(want);
            split.saveState(got);
            ASSERT_EQ(got.finish(), want.finish()) << "batch " << batch;
        }
        EXPECT_EQ(split.bramScrubOps(), direct.bramScrubOps());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlatformFuzz,
                         ::testing::Values(3, 17, 23571));

// ------------------------------------------------------ TDC linearity

class TdcLinearity : public ::testing::TestWithParam<double>
{
};

TEST_P(TdcLinearity, MeasuredDriftTracksInjectedShift)
{
    // Burn for the parameter hours; the measured ∆ps drift must match
    // the route's true (internal) BTI shift within sensor noise.
    const double hours = GetParam();
    pf::Device device{pf::DeviceConfig{}};
    pp::OvenEnvironment oven(333.15);
    pu::Rng rng(5);

    const pf::RouteSpec route = device.allocateRoute("r", 5000.0);
    pt::Tdc sensor(device, route, device.allocateCarryChain("c", 64));
    sensor.calibrate(oven.dieTempK(), rng);
    const double before =
        sensor.measure(oven.dieTempK(), rng).deltaPs();

    auto design = std::make_shared<pf::Design>("burn");
    design->setRouteValue(route, true);
    device.loadDesign(design);
    device.advance(hours, oven);
    device.wipe();

    pf::Route bound = device.bindRoute(route);
    const double truth = bound.btiShiftPs(pp::Transition::Falling);
    const double measured =
        sensor.measure(oven.dieTempK(), rng).deltaPs() - before;
    EXPECT_NEAR(measured, truth, 0.6);
}

INSTANTIATE_TEST_SUITE_P(BurnDurations, TdcLinearity,
                         ::testing::Values(10.0, 50.0, 100.0, 200.0));

// ----------------------------------------------- classifier SNR sweep

class ClassifierSnr : public ::testing::TestWithParam<double>
{
};

TEST_P(ClassifierSnr, AccuracyReachesCeilingAboveSnrTwo)
{
    // Synthetic TM1 records at the parameter SNR: drift 1 ps, noise
    // 1/SNR ps.
    const double snr = GetParam();
    pu::Rng rng(31);
    pc::ExperimentResult result;
    for (int i = 0; i < 32; ++i) {
        pc::RouteRecord record;
        record.target_ps = 5000.0;
        record.burn_value = i % 2 == 0;
        const double drift = record.burn_value ? 1.0 : -1.0;
        for (int h = 0; h <= 60; ++h) {
            record.series.addPoint(
                h, drift * h / 60.0 +
                       rng.gaussian(0.0, 1.0 / snr));
        }
        result.routes.push_back(std::move(record));
    }
    const double accuracy =
        pc::ThreatModel1Classifier().classify(result).accuracy;
    if (snr >= 2.0) {
        EXPECT_GE(accuracy, 0.95);
    } else if (snr <= 0.25) {
        EXPECT_LE(accuracy, 0.95);
        EXPECT_GE(accuracy, 0.4); // never worse than near-chance
    }
}

INSTANTIATE_TEST_SUITE_P(SnrGrid, ClassifierSnr,
                         ::testing::Values(0.125, 0.25, 1.0, 2.0, 8.0));

// --------------------------------------- fingerprint stability

TEST(FingerprintProperty, SurvivesHeavyBurnIn)
{
    // Assumption 2 needs re-identification to work *after* the victim
    // used the board: the process-variation fingerprint must dominate
    // the few-ps aging drift.
    pcl::PlatformConfig config = pc::awsF1Region(66);
    config.fleet_size = 2;
    config.device_template.tiles_x = 64;
    config.device_template.tiles_y = 64;
    pcl::CloudPlatform platform(config);
    pcl::Fingerprinter fingerprinter;

    const auto a = platform.rent();
    const auto before =
        fingerprinter.probe(platform.instance(*a), "before");

    // Heavy tenant usage on that board.
    pf::Device &device = platform.instance(*a).device();
    auto design = std::make_shared<pf::Design>("tenant");
    for (int r = 0; r < 8; ++r) {
        std::string name = "n";
        name += std::to_string(r);
        design->setRouteValue(device.allocateRoute(name, 5000.0),
                              r % 2 == 0);
    }
    design->setPowerW(60.0);
    ASSERT_TRUE(platform.loadDesign(*a, design).empty());
    platform.advanceHours(200.0);

    const auto after =
        fingerprinter.probe(platform.instance(*a), "after");
    EXPECT_GT(pcl::Fingerprinter::similarity(before, after), 0.9);

    // And it still beats a different board.
    const auto b = platform.rent();
    const auto other =
        fingerprinter.probe(platform.instance(*b), "other");
    EXPECT_GT(pcl::Fingerprinter::similarity(before, after),
              pcl::Fingerprinter::similarity(before, other));
}

// --------------------------------------------- OU ambient properties

TEST(AmbientProperty, PackageNeverLeavesPhysicalRange)
{
    pcl::AmbientModel ambient({}, pu::Rng(8));
    pp::PackageThermalModel pkg(ambient.ambientK());
    for (int i = 0; i < 5000; ++i) {
        pkg.setAmbientK(ambient.step(1.0));
        const double die = pkg.step(63.0, 1.0);
        EXPECT_GT(die, 273.15); // above freezing
        EXPECT_LT(die, 400.0);  // below silicon limits
    }
}

// ------------------------------ series insertion-order invariance

class SeriesInsertionOrder
    : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Slope (and every other point-set statistic) must not depend on the
 * order points were inserted: parallel campaigns merge per-worker
 * partial series in completion order, which the estimates must not
 * see. Hours are kept distinct so the sorted series is unique and the
 * comparison is exact, not approximate.
 */
TEST_P(SeriesInsertionOrder, SlopeInvariantUnderInsertionOrder)
{
    pu::Rng rng(GetParam());
    const std::size_t n = 16 + rng.uniformInt(0, 48);

    // Distinct, strictly increasing hours with random gaps.
    std::vector<double> hours(n);
    std::vector<double> values(n);
    double h = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        h += rng.uniform(0.1, 4.0);
        hours[i] = h;
        values[i] = rng.gaussian(0.0, 3.0) + 0.05 * h;
    }

    // Baseline: chronological append.
    pc::DeltaSeries chronological;
    for (std::size_t i = 0; i < n; ++i) {
        chronological.addPoint(hours[i], values[i]);
    }

    // Shuffled insertion via insertPoint (Fisher-Yates on indices).
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
        order[i] = i;
    }
    for (std::size_t i = n - 1; i > 0; --i) {
        const std::size_t j = rng.uniformInt(0, i);
        std::swap(order[i], order[j]);
    }
    pc::DeltaSeries shuffled;
    for (const std::size_t i : order) {
        shuffled.insertPoint(hours[i], values[i]);
    }

    // The reassembled series is the same array, so every estimate is
    // bit-identical — not merely close.
    ASSERT_EQ(shuffled.size(), chronological.size());
    EXPECT_EQ(shuffled.hours(), chronological.hours());
    EXPECT_EQ(shuffled.values(), chronological.values());
    EXPECT_DOUBLE_EQ(shuffled.slopePerHour(),
                     chronological.slopePerHour());
    EXPECT_DOUBLE_EQ(shuffled.slopeStdErrorPerHour(),
                     chronological.slopeStdErrorPerHour());
    EXPECT_DOUBLE_EQ(shuffled.netDriftPs(),
                     chronological.netDriftPs());
    EXPECT_DOUBLE_EQ(shuffled.meanBetweenHours(hours.front(),
                                               hours.back()),
                     chronological.meanBetweenHours(hours.front(),
                                                    hours.back()));
}

/** Equal-hour ties keep arrival order (stable), like addPoint. */
TEST(SeriesInsertionOrder, TiesAreStable)
{
    pc::DeltaSeries a;
    a.addPoint(1.0, 10.0);
    a.addPoint(2.0, 20.0);
    a.addPoint(2.0, 21.0);
    a.addPoint(3.0, 30.0);

    pc::DeltaSeries b;
    b.insertPoint(1.0, 10.0);
    b.insertPoint(2.0, 20.0);
    b.insertPoint(2.0, 21.0);
    b.insertPoint(3.0, 30.0);
    EXPECT_EQ(a.hours(), b.hours());
    EXPECT_EQ(a.values(), b.values());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeriesInsertionOrder,
                         ::testing::Values(1u, 7u, 99u, 1234u,
                                           0xfeedu, 0xdeadbeefu));

// ----------------------- journal interleaving / observation order

class JournalInterleaving
    : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    /** A tiny default device. */
    static pf::Device
    makeDevice()
    {
        pf::DeviceConfig config;
        config.tiles_x = 8;
        config.tiles_y = 8;
        config.nodes_per_tile = 32;
        return pf::Device(config);
    }

    /**
     * Drive a device through a random-but-reproducible tenancy
     * interleaving: design loads over random route subsets, wipes,
     * in-place mutations of the resident design, irregular advances
     * at random temperatures, and every 17 steps a partial
     * observation of one route (its delays land in `seen`). The op
     * sequence is a pure function of the seed, so two devices fed
     * the same seed experience identical physical histories.
     * `at_load` also observes the resident design after every op
     * (the yardstick of observe_at_load.hpp); without it, a route
     * is first read whenever the drive or the test gets to it.
     */
    static std::vector<pf::RouteSpec>
    drive(pf::Device &device, std::uint64_t seed, bool at_load,
          std::vector<double> &seen)
    {
        pu::Rng rng(seed);
        std::vector<pf::RouteSpec> routes;
        for (int r = 0; r < 6; ++r) {
            routes.push_back(device.allocateRoute(
                "pool" + std::to_string(r), 400.0));
        }
        std::shared_ptr<pf::Design> resident;
        for (int step = 0; step < 60; ++step) {
            if (step % 17 == 16) {
                const pf::RouteSpec &spec =
                    routes[static_cast<std::size_t>(step / 17) %
                           routes.size()];
                for (const double d : observe(device, spec)) {
                    seen.push_back(d);
                }
            }
            const auto action =
                static_cast<int>(rng.uniformInt(0, 3));
            if (action == 0) {
                std::string name = "d";
                name += std::to_string(step);
                auto design = std::make_shared<pf::Design>(name);
                for (const pf::RouteSpec &route : routes) {
                    if (!rng.bernoulli(0.5)) {
                        continue;
                    }
                    if (rng.bernoulli(0.3)) {
                        design->setRouteToggling(
                            route,
                            0.125 * static_cast<double>(
                                        rng.uniformInt(1, 7)));
                    } else {
                        design->setRouteValue(route,
                                              rng.bernoulli(0.5));
                    }
                }
                if (design->configuredElements() == 0) {
                    design->setRouteValue(routes[0], true);
                }
                device.loadDesign(design);
                resident = std::move(design);
            } else if (action == 1) {
                device.wipe();
                resident.reset();
            } else if (action == 2 && resident != nullptr) {
                const std::size_t pick =
                    rng.uniformIndex(routes.size());
                resident->setRouteValue(routes[pick],
                                        rng.bernoulli(0.5));
            } else {
                const double dt =
                    0.25 * static_cast<double>(rng.uniformInt(1, 16));
                const double temp =
                    320.0 +
                    static_cast<double>(rng.uniformInt(0, 40));
                device.advanceAt(dt, temp);
            }
            if (at_load) {
                pentimento::observe_at_load::observeResident(device);
            }
        }
        return routes;
    }

    static std::vector<double>
    observe(pf::Device &device, const pf::RouteSpec &spec)
    {
        pf::Route route = device.bindRoute(spec);
        return {route.delayPs(pp::Transition::Rising, 333.15),
                route.delayPs(pp::Transition::Falling, 333.15)};
    }
};

TEST_P(JournalInterleaving, LateObservationMatchesObservationAtLoad)
{
    pf::Device at_load = makeDevice();
    pf::Device late = makeDevice();
    // Mid-drive reads come first in each series, so the late side
    // mixes journaled and materialised elements from then on.
    std::vector<double> delays_a;
    std::vector<double> delays_l;
    const std::vector<pf::RouteSpec> routes_a =
        drive(at_load, GetParam(), true, delays_a);
    const std::vector<pf::RouteSpec> routes_l =
        drive(late, GetParam(), false, delays_l);
    EXPECT_EQ(at_load.journaledKeyCount(), 0u);

    // Full observation: bind and read every pool route on both.
    for (std::size_t r = 0; r < routes_a.size(); ++r) {
        for (const double d : observe(at_load, routes_a[r])) {
            delays_a.push_back(d);
        }
        for (const double d : observe(late, routes_l[r])) {
            delays_l.push_back(d);
        }
    }
    EXPECT_EQ(delays_a, delays_l);
    EXPECT_EQ(late.journaledKeyCount(), 0u);

    // The materialised populations converge to the same sorted set.
    EXPECT_EQ(at_load.materializedIds(), late.materializedIds());
}

TEST_P(JournalInterleaving, ObservationOrderNeverChangesAnyDelay)
{
    // Replay the same interleaving several times, observing the pool
    // in different seeded shuffle orders; each route's delays must be
    // bit-identical however late (or early) its journal is consumed.
    const auto runWithOrder = [&](std::uint64_t shuffle_seed) {
        pf::Device device = makeDevice();
        std::vector<double> seen;
        const std::vector<pf::RouteSpec> routes =
            drive(device, GetParam(), false, seen);
        std::vector<std::size_t> order(routes.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        if (shuffle_seed != 0) {
            pu::Rng shuffle(shuffle_seed);
            for (std::size_t i = order.size() - 1; i > 0; --i) {
                const std::size_t j = shuffle.uniformInt(0, i);
                std::swap(order[i], order[j]);
            }
        }
        std::vector<std::vector<double>> per_route(routes.size());
        for (const std::size_t r : order) {
            per_route[r] = observe(device, routes[r]);
        }
        per_route.push_back(seen);
        return per_route;
    };
    const auto reference = runWithOrder(0);
    for (const std::uint64_t shuffle_seed : {11u, 12u, 13u, 14u}) {
        EXPECT_EQ(reference, runWithOrder(shuffle_seed))
            << "shuffle seed " << shuffle_seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalInterleaving,
                         ::testing::Values(5u, 29u, 4242u, 1u, 2u, 3u,
                                           7u, 11u, 13u, 17u, 19u, 23u,
                                           31u, 97u, 1009u, 65537u));
