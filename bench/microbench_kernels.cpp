/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot kernels:
 * BTI kinetics steps, aged-delay evaluation, TDC captures and full
 * measurement sweeps, whole-device aging steps, the fleet
 * campaign's day loop and a checkpointed campaign. These bound the
 * wall-clock cost of the figure benches.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cloud/ambient.hpp"
#include "cloud/platform.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "phys/aging.hpp"
#include "phys/bti.hpp"
#include "phys/thermal.hpp"
#include "serve/campaign.hpp"
#include "tdc/measure_design.hpp"
#include "tdc/tdc.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace pentimento;

namespace {

void
BM_BtiStressStep(benchmark::State &state)
{
    const phys::BtiParams params = phys::BtiParams::ultrascalePlus();
    phys::BtiState bti;
    for (auto _ : state) {
        bti.applyStress(params.nbti, 1.0, 0.5);
        benchmark::DoNotOptimize(bti.deltaVth(params.nbti, 1.0));
    }
}
BENCHMARK(BM_BtiStressStep);

void
BM_BtiCollapse(benchmark::State &state)
{
    // One recovery then one re-stress: the stress step collapses the
    // recovered shift back into stress hours (one deltaVth with its
    // recovery term, then the inverse power law), the path every
    // tenancy change takes on a previously stressed element.
    const phys::BtiParams params = phys::BtiParams::ultrascalePlus();
    phys::BtiState bti;
    bti.applyStress(params.nbti, 1.0, 100.0);
    for (auto _ : state) {
        bti.applyRecovery(params.nbti, 1.0);
        bti.applyStress(params.nbti, 1.0, 0.5);
        benchmark::DoNotOptimize(bti.stressHours());
    }
}
BENCHMARK(BM_BtiCollapse);

void
BM_ElementAgingHold(benchmark::State &state)
{
    const phys::BtiParams params = phys::BtiParams::ultrascalePlus();
    // One hour at 60 °C: the effective hours a one-segment replay
    // passes (duration x the segment's Arrhenius acceleration).
    const phys::AgingStepContext ctx(params, 333.15);
    phys::ElementAging aging;
    for (auto _ : state) {
        aging.holdStaticEffective(params, true, ctx.stress_accel,
                                  ctx.recovery_accel);
        benchmark::DoNotOptimize(
            aging.deltaVth(params, phys::TransistorType::Nmos));
    }
}
BENCHMARK(BM_ElementAgingHold);

void
BM_RouteDelayQuery(benchmark::State &state)
{
    fabric::Device device{fabric::DeviceConfig{}};
    const fabric::RouteSpec spec = device.allocateRoute(
        "r", static_cast<double>(state.range(0)));
    fabric::Route route = device.bindRoute(spec);
    route.delayPs(phys::Transition::Rising, 333.15); // materialize
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            route.delayPs(phys::Transition::Falling, 333.15));
    }
    state.SetLabel(std::to_string(state.range(0)) + "ps route");
}
BENCHMARK(BM_RouteDelayQuery)->Arg(1000)->Arg(10000);

void
BM_TdcCapture(benchmark::State &state)
{
    fabric::Device device{fabric::DeviceConfig{}};
    tdc::Tdc sensor(device, device.allocateRoute("r", 1000.0),
                    device.allocateCarryChain("c", 64));
    util::Rng rng(1);
    const double theta = sensor.calibrate(333.15, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sensor.capture(phys::Transition::Rising, theta, 333.15,
                           rng));
    }
}
BENCHMARK(BM_TdcCapture);

void
BM_TdcFullMeasurement(benchmark::State &state)
{
    fabric::Device device{fabric::DeviceConfig{}};
    tdc::Tdc sensor(device, device.allocateRoute("r", 5000.0),
                    device.allocateCarryChain("c", 64));
    util::Rng rng(1);
    sensor.calibrate(333.15, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sensor.measure(333.15, rng));
    }
}
BENCHMARK(BM_TdcFullMeasurement);

void
BM_TdcFastTrace(benchmark::State &state)
{
    // The TM2 scan's sampler: one calibrated 2000 ps sensor with fast
    // sampling, one measure() (10 traces per polarity of 24 ziggurat
    // samples each) per iteration. The arrival caches stay warm, so
    // this times trace sampling alone, not the arrival walk.
    fabric::Device device{fabric::DeviceConfig{}};
    tdc::TdcConfig config;
    config.fast_sampling = true;
    tdc::Tdc sensor(device, device.allocateRoute("r", 2000.0),
                    device.allocateCarryChain("c", config.taps), config);
    util::Rng rng(1);
    sensor.calibrate(333.15, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sensor.measure(333.15, rng));
    }
}
BENCHMARK(BM_TdcFastTrace);

void
BM_DeviceAdvanceHour(benchmark::State &state)
{
    fabric::Device device{fabric::DeviceConfig{}};
    std::vector<fabric::RouteSpec> specs;
    auto design = std::make_shared<fabric::Design>("d");
    for (int r = 0; r < state.range(0); ++r) {
        std::string name = "r";
        name += std::to_string(r);
        specs.push_back(device.allocateRoute(name, 5000.0));
        design->setRouteValue(specs.back(), r % 2 == 0);
    }
    device.loadDesign(design);
    phys::OvenEnvironment oven(333.15);
    for (auto _ : state) {
        device.advance(1.0, oven);
    }
    state.SetLabel(std::to_string(state.range(0)) + " routes");
}
BENCHMARK(BM_DeviceAdvanceHour)->Arg(16)->Arg(64);

void
BM_DeviceAdvanceHourParallel(benchmark::State &state)
{
    util::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
    fabric::Device device{fabric::DeviceConfig{}};
    device.setWorkPool(&pool);
    std::vector<fabric::RouteSpec> specs;
    auto design = std::make_shared<fabric::Design>("d");
    for (int r = 0; r < state.range(0); ++r) {
        std::string name = "r";
        name += std::to_string(r);
        specs.push_back(device.allocateRoute(name, 5000.0));
        design->setRouteValue(specs.back(), r % 2 == 0);
    }
    device.loadDesign(design);
    phys::OvenEnvironment oven(333.15);
    for (auto _ : state) {
        device.advance(1.0, oven);
    }
    state.SetLabel(std::to_string(state.range(0)) + " routes, " +
                   std::to_string(state.range(1) + 1) + " lanes");
}
BENCHMARK(BM_DeviceAdvanceHourParallel)
    ->Args({64, 0})
    ->Args({64, 3})
    ->Args({256, 0})
    ->Args({256, 3});

void
BM_DeviceAdvanceLongJump(benchmark::State &state)
{
    // The paper's Experiment 3 shape: a 256-element design burns X
    // for 200 h uninterrupted, and only then is anything measured.
    // Issued as 200 hourly advance() calls — the segment timeline
    // coalesces them into one O(1)-per-call segment, and the single
    // query at the end replays it once per element. Compare against
    // 200x the PR 2 BM_DeviceAdvanceHour cost at the same element
    // count.
    fabric::Device device{fabric::DeviceConfig{}};
    const fabric::RouteSpec spec = device.allocateRoute("r", 6400.0);
    auto design = std::make_shared<fabric::Design>("burn");
    design->setRouteValue(spec, true);
    device.loadDesign(design);
    fabric::Route route = device.bindRoute(spec);
    phys::OvenEnvironment oven(333.15);
    for (auto _ : state) {
        for (int h = 0; h < 200; ++h) {
            device.advance(1.0, oven);
        }
        benchmark::DoNotOptimize(
            route.delayPs(phys::Transition::Falling, 333.15));
    }
    state.SetLabel("200 h burn, 256 elements, one query");
}
BENCHMARK(BM_DeviceAdvanceLongJump);

void
BM_FleetIdleDay(benchmark::State &state)
{
    // One simulated day across a 100-board region with nothing
    // rented: unconfigured boards defer their whole ambient walk, so
    // per board-day the platform pays O(1) bookkeeping — no draws, no
    // package relaxation, no segments — until something observes a
    // board. This is the kernel under the fleet_campaign scenario.
    cloud::PlatformConfig config;
    config.fleet_size = 100;
    config.seed = 77;
    cloud::CloudPlatform platform(config);
    for (auto _ : state) {
        platform.advanceHours(24.0);
    }
    state.SetLabel("100 boards x 24 h, idle");
}
BENCHMARK(BM_FleetIdleDay);

void
BM_TenancyTurnover(benchmark::State &state)
{
    // The fleet-campaign tenancy-churn kernel: a board cycles through
    // tenancies that load a design, burn, wipe and idle — and nobody
    // ever measures. The tenant designs are built once outside the
    // loop (design construction is the tenant's bitstream, not the
    // board's turnover cost); the kernel times the DEVICE side. With
    // the activity journal every load/wipe is one O(1) run append per
    // key. Tenancy shape matches bench/fleet_campaign.cpp: 8 routes of
    // 2000 ps (80 elements each) plus a 128-DSP filler = 768
    // configured keys per tenant.
    fabric::DeviceConfig config;
    constexpr int kTenancies = 16;
    constexpr int kRoutes = 8;
    fabric::Device planner(config); // allocates the shared route plan
    util::Rng rng(1234);
    fabric::ArithmeticHeavyConfig arith;
    arith.dsp_count = 128;
    std::vector<std::shared_ptr<const fabric::TargetDesign>> targets;
    for (int t = 0; t < kTenancies; ++t) {
        std::vector<fabric::RouteSpec> specs;
        std::vector<bool> bits;
        for (int r = 0; r < kRoutes; ++r) {
            std::string name = "t";
            name += std::to_string(t);
            name += "_r";
            name += std::to_string(r);
            specs.push_back(planner.allocateRoute(name, 2000.0));
            bits.push_back(rng.bernoulli(0.5));
        }
        targets.push_back(std::make_shared<fabric::TargetDesign>(
            "tenant_" + std::to_string(t), specs, bits, arith));
    }
    for (auto _ : state) {
        fabric::Device device(config);
        int t = 0;
        for (const auto &target : targets) {
            device.loadDesign(target);
            device.advanceAt(18.0, 333.0 + 0.25 * t);
            device.wipe();
            device.advanceAt(24.0, 318.15);
            ++t;
        }
        benchmark::DoNotOptimize(device.materializedCount());
    }
    state.SetLabel("16 tenancies x (8 routes + filler), unobserved");
}
BENCHMARK(BM_TenancyTurnover);

void
BM_AmbientEventTrace(benchmark::State &state)
{
    // The event-driven ambient kernel: account a whole idle day in
    // O(1), then observe — the observation replays the day's 24
    // event draws with the exact per-event OU transition. Bounds the
    // cost of re-observing long-idle pooled stock.
    cloud::AmbientModel model({}, util::Rng(7));
    for (auto _ : state) {
        model.advance(24.0);
        benchmark::DoNotOptimize(model.ambientK());
    }
    state.SetLabel("24 h jump + observe (24 event draws)");
}
BENCHMARK(BM_AmbientEventTrace);

void
BM_FleetRentedDay(benchmark::State &state)
{
    // The eager counterpart of BM_FleetIdleDay: 16 of the boards run
    // a tenant design, so their walk sub-steps between ambient events
    // — one draw, one closed-form package relaxation and one O(1)
    // timeline segment per board-hour.
    cloud::PlatformConfig config;
    config.fleet_size = 16;
    config.seed = 77;
    cloud::CloudPlatform platform(config);
    const auto ids = platform.rentAll();
    for (const std::string &id : ids) {
        fabric::Device &device = platform.instance(id).device();
        const fabric::RouteSpec spec = device.allocateRoute("r", 2000.0);
        auto design = std::make_shared<fabric::Design>("d_" + id);
        design->setRouteValue(spec, true);
        design->setPowerW(40.0);
        platform.loadDesign(id, design);
    }
    for (auto _ : state) {
        platform.advanceHours(24.0);
    }
    state.SetLabel("16 boards x 24 h, rented");
}
BENCHMARK(BM_FleetRentedDay);

void
runMeasureSweepParallel(benchmark::State &state, bool fast_sampling)
{
    util::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
    fabric::Device device{fabric::DeviceConfig{}};
    std::vector<fabric::RouteSpec> routes;
    for (int r = 0; r < state.range(0); ++r) {
        std::string name = "r";
        name += std::to_string(r);
        routes.push_back(device.allocateRoute(name, 5000.0));
    }
    tdc::TdcConfig config;
    config.fast_sampling = fast_sampling;
    tdc::MeasureDesign design(device, routes, config);
    util::Rng rng(1);
    design.calibrateAll(333.15, rng, &pool);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            design.measureAll(333.15, rng, &pool));
    }
    state.SetLabel(std::to_string(state.range(0)) + " sensors, " +
                   std::to_string(state.range(1) + 1) + " lanes" +
                   (fast_sampling ? ", fast sampling" : ", exact"));
}

void
BM_MeasureSweepParallel(benchmark::State &state)
{
    // The attack-phase kernel as the fleet campaign runs it: fast
    // sampling (ziggurat jitter blocks + fused integer-sum traces) on
    // top of the ΔVth epoch cache and dual-polarity arrival walk.
    runMeasureSweepParallel(state, true);
}
BENCHMARK(BM_MeasureSweepParallel)
    ->Args({64, 0})
    ->Args({64, 3})
    ->Args({256, 0})
    ->Args({256, 3});

void
BM_MeasureSweepExact(benchmark::State &state)
{
    // The bit-exact default path (polar-method jitter per sample,
    // Welford trace means), kept measurable in the same run so the
    // fast path's speedup is reproducible anywhere.
    runMeasureSweepParallel(state, false);
}
BENCHMARK(BM_MeasureSweepExact)->Args({256, 0})->Args({256, 3});

void
BM_ThreadPoolOverhead(benchmark::State &state)
{
    util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        std::size_t sink = 0;
        pool.parallelFor(0, 1024, [&](std::size_t i) {
            benchmark::DoNotOptimize(sink += i);
        });
    }
    state.SetLabel(std::to_string(state.range(0) + 1) + " lanes");
}
BENCHMARK(BM_ThreadPoolOverhead)->Arg(0)->Arg(3);

void
BM_ThreadPoolWake(benchmark::State &state)
{
    // How fast parked helpers join a parallelFor. Each iteration
    // parks the workers for ~3 ms (untimed), then runs 64 spin tasks
    // of ~60 us; every task records its thread and start time.
    // Counters: helper first-task latency from the loop's start
    // (p50, p90, over every helper that ran) and helpers that ran at
    // least one task per loop (of range(0)).
    using Clock = std::chrono::steady_clock;
    constexpr std::size_t kTasks = 64;
    constexpr auto kSpin = std::chrono::microseconds(60);
    const auto workers = static_cast<std::size_t>(state.range(0));
    util::ThreadPool pool(workers);
    std::vector<std::thread::id> ran_on(kTasks);
    std::vector<double> start_us(kTasks);
    std::vector<double> first_us;
    std::size_t helpers_ran = 0;
    std::size_t loops = 0;
    for (auto _ : state) {
        state.PauseTiming();
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        state.ResumeTiming();
        const Clock::time_point t0 = Clock::now();
        pool.parallelFor(0, kTasks, [&](std::size_t i) {
            const Clock::time_point begin = Clock::now();
            ran_on[i] = std::this_thread::get_id();
            start_us[i] =
                std::chrono::duration<double, std::micro>(begin - t0)
                    .count();
            while (Clock::now() - begin < kSpin) {
            }
        });
        state.PauseTiming();
        const std::thread::id caller = std::this_thread::get_id();
        std::vector<std::pair<std::thread::id, double>> helpers;
        for (std::size_t i = 0; i < kTasks; ++i) {
            if (ran_on[i] == caller) {
                continue;
            }
            const auto it = std::find_if(
                helpers.begin(), helpers.end(),
                [&](const auto &h) { return h.first == ran_on[i]; });
            if (it == helpers.end()) {
                helpers.emplace_back(ran_on[i], start_us[i]);
            } else {
                it->second = std::min(it->second, start_us[i]);
            }
        }
        for (const auto &helper : helpers) {
            first_us.push_back(helper.second);
        }
        helpers_ran += helpers.size();
        ++loops;
        state.ResumeTiming();
    }
    std::sort(first_us.begin(), first_us.end());
    if (!first_us.empty()) {
        state.counters["helper_first_p50_us"] =
            util::percentileSorted(first_us, 0.5);
        state.counters["helper_first_p90_us"] =
            util::percentileSorted(first_us, 0.9);
    }
    state.counters["helpers_ran"] =
        loops == 0 ? 0.0
                   : static_cast<double>(helpers_ran) /
                         static_cast<double>(loops);
    state.SetLabel(std::to_string(workers) + " helpers, " +
                   std::to_string(kTasks) + " x 60 us tasks");
}
BENCHMARK(BM_ThreadPoolWake)->Arg(3)->UseRealTime();

void
BM_FleetSimulationPhase(benchmark::State &state)
{
    // The fleet campaign's day loop alone: perfbench's `campaign`
    // shape (runFleetScan defaults: 112 boards, a simulated year of
    // tenancies, 8 routes each) with no board scanned, so the timing
    // is the rents, loads, releases and daily advances and nothing of
    // the TM2 scan. Wall time, at 1 and 4 lanes. The /4/8 run adds
    // the default 8-board scan: the whole campaign, against which the
    // /4/0 run is the day loop's share.
    const auto lanes = static_cast<std::size_t>(state.range(0));
    util::ThreadPool pool(lanes - 1);
    serve::FleetScanConfig config;
    config.max_measured = static_cast<std::size_t>(state.range(1));
    config.pool = &pool;
    for (auto _ : state) {
        const util::Expected<serve::FleetScanResult> result =
            serve::runFleetScan(config);
        if (!result.ok()) {
            state.SkipWithError(result.error().c_str());
            break;
        }
        benchmark::DoNotOptimize(result.value().tenancies);
    }
    state.SetLabel(std::to_string(lanes) + " lanes, " +
                   std::to_string(config.max_measured) + " scanned");
}
BENCHMARK(BM_FleetSimulationPhase)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_CheckpointedFleetScan(benchmark::State &state)
{
    // perfbench's `durable` shape without its halt, resume and shards:
    // a serial runFleetScan (defaults: 112 boards, a simulated year, 8
    // routes per tenant, 8 boards scanned) that writes a rotating
    // checkpoint every 7 days, 52 in all. Wall time, so the fsync and
    // rename of each commit count wherever they run.
    char dir[] = "/tmp/microbench_ckpt_XXXXXX";
    if (::mkdtemp(dir) == nullptr) {
        state.SkipWithError("mkdtemp failed");
        return;
    }
    const std::string path = std::string(dir) + "/durable.ckpt";
    serve::FleetScanConfig config;
    config.checkpoint_every_days = 7;
    config.checkpoint_path = path;
    config.resume = serve::ResumeMode::Never;
    for (auto _ : state) {
        const util::Expected<serve::FleetScanResult> result =
            serve::runFleetScan(config);
        if (!result.ok()) {
            state.SkipWithError(result.error().c_str());
            break;
        }
        benchmark::DoNotOptimize(result.value().tenancies);
    }
    for (const char *suffix : {"", ".prev", ".tmp"}) {
        std::remove((path + suffix).c_str());
    }
    ::rmdir(dir);
}
BENCHMARK(BM_CheckpointedFleetScan)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
