#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "phys/thermal.hpp"
#include "util/logging.hpp"
#include "util/units.hpp"

namespace pentimento::core {

std::vector<RouteGroup>
paperRouteGroups()
{
    return {{1000.0, 16}, {2000.0, 16}, {5000.0, 16}, {10000.0, 16}};
}

double
ExperimentResult::measurementFraction() const
{
    const double condition_seconds =
        util::hoursToSeconds(condition_hours);
    if (condition_seconds + measure_seconds <= 0.0) {
        return 0.0;
    }
    return measure_seconds / (condition_seconds + measure_seconds);
}

double
ExperimentResult::secondsPerSweep() const
{
    if (sweeps == 0) {
        return 0.0;
    }
    return measure_seconds / static_cast<double>(sweeps);
}

std::vector<std::size_t>
ExperimentResult::groupIndices(double target_ps) const
{
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < routes.size(); ++i) {
        if (routes[i].target_ps == target_ps) {
            indices.push_back(i);
        }
    }
    return indices;
}

void
checkSchedule(double from, double to, double every_h)
{
    if (!std::isfinite(every_h) || every_h <= 0.0) {
        util::fatal("schedule: cadence must be finite and positive");
    }
    if (!std::isfinite(from) || !std::isfinite(to) ||
        to < from - kScheduleToleranceHours) {
        util::fatal("schedule: bounds must be finite and ordered");
    }
}

SweepRecorder::SweepRecorder(std::size_t routes, SweepObserver *observer)
    : raw_(routes), deltas_(routes), observer_(observer)
{
}

void
SweepRecorder::record(double hour, const tdc::MeasurementSweep &sweep)
{
    if (sweep.per_route.size() != raw_.size()) {
        util::fatal("SweepRecorder: sweep arity mismatch");
    }
    for (std::size_t i = 0; i < raw_.size(); ++i) {
        deltas_[i] = sweep.per_route[i].deltaPs();
        raw_[i].addPoint(hour, deltas_[i]);
    }
    measure_seconds_ += sweep.wall_seconds;
    const std::size_t index = sweeps_++;
    if (observer_ != nullptr &&
        !observer_->onSweep(index, hour, deltas_.data(), deltas_.size())) {
        throw util::CancelledError("experiment cancelled at sweep " +
                                   std::to_string(index));
    }
}

ExperimentResult
SweepRecorder::result(const std::vector<fabric::RouteSpec> &routes,
                      const std::vector<bool> &burn_values,
                      double condition_hours) const
{
    if (routes.size() != raw_.size() || burn_values.size() != raw_.size()) {
        util::fatal("SweepRecorder: route arity mismatch");
    }
    ExperimentResult result;
    result.condition_hours = condition_hours;
    result.measure_seconds = measure_seconds_;
    result.sweeps = sweeps_;
    result.routes.reserve(raw_.size());
    for (std::size_t i = 0; i < raw_.size(); ++i) {
        result.routes.push_back({routes[i].name, routes[i].target_ps,
                                 burn_values[i],
                                 raw_[i].centeredAtFirst()});
    }
    return result;
}

void
loadChecked(cloud::CloudPlatform &platform, const std::string &instance_id,
            std::shared_ptr<const fabric::Design> design, const char *what)
{
    if (!platform.loadDesign(instance_id, std::move(design)).empty()) {
        util::fatal(std::string(what) + " failed DRC on " + instance_id);
    }
}

std::shared_ptr<tdc::MeasureDesign>
calibrateOnPlatform(cloud::CloudPlatform &platform,
                    const std::string &instance_id,
                    const std::vector<fabric::RouteSpec> &routes,
                    const tdc::TdcConfig &tdc, util::ThreadPool *pool)
{
    cloud::FpgaInstance &inst = platform.instance(instance_id);
    auto measure =
        std::make_shared<tdc::MeasureDesign>(inst.device(), routes, tdc);
    loadChecked(platform, instance_id, measure, "measure design");
    measure->calibrateAll(inst.dieTempK(), inst.rng(), pool);
    return measure;
}

tdc::MeasurementSweep
measureOnPlatform(cloud::CloudPlatform &platform,
                  const std::string &instance_id,
                  const std::shared_ptr<tdc::MeasureDesign> &measure,
                  util::ThreadPool *pool)
{
    loadChecked(platform, instance_id, measure, "measure design");
    // Let the die settle to the Measure design's power before sampling
    // (the paper's measurement takes ~52 s anyway).
    platform.advanceHours(kMeasureSettleHours);
    cloud::FpgaInstance &inst = platform.instance(instance_id);
    return measure->measureAll(inst.dieTempK(), inst.rng(), pool);
}

std::shared_ptr<fabric::Design>
makeParkDesign(const std::string &name,
               const std::vector<fabric::RouteSpec> &routes, bool value)
{
    auto park = std::make_shared<fabric::Design>(name);
    for (const fabric::RouteSpec &spec : routes) {
        park->setRouteValue(spec, value);
    }
    park->setPowerW(2.0);
    return park;
}

namespace {

/** Allocated routes + ground-truth burn bits for one experiment. */
struct RouteSetup
{
    std::vector<fabric::RouteSpec> specs;
    std::vector<bool> burn_values;
};

RouteSetup
allocateRoutes(fabric::Device &device,
               const std::vector<RouteGroup> &groups, util::Rng &rng)
{
    if (groups.empty()) {
        util::fatal("experiment: no route groups configured");
    }
    RouteSetup setup;
    for (const RouteGroup &group : groups) {
        if (group.count <= 0 || group.target_ps <= 0.0) {
            util::fatal("experiment: bad route group");
        }
        for (int i = 0; i < group.count; ++i) {
            const std::string name =
                "rut_" + std::to_string(
                             static_cast<long>(group.target_ps)) +
                "ps_" + std::to_string(i);
            setup.specs.push_back(
                device.allocateRoute(name, group.target_ps));
            setup.burn_values.push_back(rng.bernoulli(0.5));
        }
    }
    return setup;
}

mitigation::NoMitigation g_no_mitigation;

mitigation::MitigationStrategy &
strategyOrDefault(mitigation::MitigationStrategy *strategy)
{
    return strategy != nullptr ? *strategy : g_no_mitigation;
}

/**
 * Advance a condition interval at the strategy's cadence so that
 * mitigation strategies with hourly schedules (inversion, shuffle,
 * wear-leveling) actually fire inside coarse measurement cadences.
 * A cadence of 0 (NoMitigation, hold-and-recover) means apply() is
 * idempotent over the interval: the whole uninterrupted span
 * collapses into one jump, which the device's segment timeline makes
 * O(1) — and bit-identical to the stepped equivalent, because
 * constant-condition steps coalesce into the same single segment.
 * The design is (re)loaded after every strategy application because
 * relocation may reference freshly allocated elements.
 */
template <typename LoadAndAdvance>
void
conditionWithStrategy(mitigation::MitigationStrategy &strategy,
                      fabric::TargetDesign &target,
                      fabric::Device &device,
                      const std::vector<bool> &values, double start_hour,
                      double duration_h, LoadAndAdvance &&load_and_advance)
{
    if (!(duration_h > 0.0)) {
        return;
    }
    const double cadence = strategy.cadenceHours();
    runSchedule(0.0, duration_h, cadence > 0.0 ? cadence : duration_h,
                [&](double advanced, double step) {
                    strategy.apply(target, device, values,
                                   start_hour + advanced);
                    load_and_advance(step);
                },
                [](double) {});
}

/** Apply a §8.1 epilogue before the tenant releases the instance. */
template <typename Advance>
void
runEpilogue(const mitigation::Epilogue &epilogue,
            fabric::TargetDesign &target, const std::vector<bool> &values,
            Advance &&advance)
{
    if (epilogue.policy == mitigation::Epilogue::Policy::None ||
        epilogue.hours <= 0.0) {
        return;
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
        switch (epilogue.policy) {
          case mitigation::Epilogue::Policy::Complement:
            target.setBurnValue(i, !values[i]);
            break;
          case mitigation::Epilogue::Policy::AllZero:
            target.setBurnValue(i, false);
            break;
          case mitigation::Epilogue::Policy::AllOne:
            target.setBurnValue(i, true);
            break;
          case mitigation::Epilogue::Policy::None:
            break;
        }
    }
    advance(epilogue.hours);
}

} // namespace

ExperimentResult
runExperiment1(const Experiment1Config &config)
{
    util::Rng rng(config.seed);
    fabric::Device device(config.device);
    phys::OvenEnvironment oven(
        util::celsiusToKelvin(config.oven_temp_c));

    RouteSetup setup = allocateRoutes(device, config.groups, rng);
    auto target = std::make_shared<fabric::TargetDesign>(
        "exp1_target", setup.specs, setup.burn_values, config.arith);
    auto measure = std::make_shared<tdc::MeasureDesign>(
        device, setup.specs, config.tdc);
    mitigation::MitigationStrategy &strategy =
        strategyOrDefault(config.strategy);

    util::Rng meas_rng = rng.split("measurement");

    // Hour 0: Calibration phase, then the baseline measurement that
    // the series are centered against.
    device.loadDesign(measure);
    measure->calibrateAll(oven.dieTempK(), meas_rng, config.pool);

    SweepRecorder recorder(setup.specs.size(), config.observer);
    const auto sweep = [&](double hour) {
        // Reloading the resident, unmutated Measure design is a no-op
        // inside loadDesign (no epoch bump), so the baseline sweep
        // reuses the calibration sweep's cached tap arrivals.
        device.loadDesign(measure);
        recorder.record(hour, measure->measureAll(oven.dieTempK(),
                                                  meas_rng, config.pool));
    };
    sweep(0.0);

    const auto conditionStep = [&](const std::vector<bool> &values,
                                   double hour, double dt) {
        conditionWithStrategy(strategy, *target, device, values, hour,
                              dt, [&](double step) {
                                  device.loadDesign(target);
                                  device.advance(step, oven);
                              });
    };

    // Burn-in period: condition X, measure every measure_every_h.
    const std::vector<bool> &x = setup.burn_values;
    std::vector<bool> x_bar(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        x_bar[i] = !x[i];
    }
    double hour = runSchedule(
        0.0, config.burn_hours, config.measure_every_h,
        [&](double t, double dt) { conditionStep(x, t, dt); }, sweep);
    // Recovery period: condition X̄ (paper hours [200, 400)), on the
    // burn's accumulated clock.
    hour = runSchedule(
        hour, config.burn_hours + config.recovery_hours,
        config.measure_every_h,
        [&](double t, double dt) { conditionStep(x_bar, t, dt); }, sweep);

    return recorder.result(setup.specs, setup.burn_values, hour);
}

ExperimentResult
runExperiment2(const Experiment2Config &config)
{
    util::Rng rng(config.seed);
    cloud::CloudPlatform platform(config.platform);

    const auto rented = platform.rent();
    if (!rented) {
        util::fatal("runExperiment2: region exhausted");
    }
    fabric::Device &device = platform.instance(*rented).device();

    RouteSetup setup = allocateRoutes(device, config.groups, rng);
    auto target = std::make_shared<fabric::TargetDesign>(
        "exp2_target", setup.specs, setup.burn_values, config.arith);
    mitigation::MitigationStrategy &strategy =
        strategyOrDefault(config.strategy);

    // Calibration + baseline (TM1 allows pre-burn-in measurement).
    const auto measure = calibrateOnPlatform(
        platform, *rented, setup.specs, config.tdc, config.pool);
    SweepRecorder recorder(setup.specs.size(), config.observer);
    const auto sweep = [&](double hour) {
        recorder.record(hour, measureOnPlatform(platform, *rented, measure,
                                                config.pool));
    };
    sweep(0.0);

    const double hour = runSchedule(
        0.0, config.burn_hours, config.measure_every_h,
        [&](double t, double dt) {
            conditionWithStrategy(
                strategy, *target, device, setup.burn_values, t,
                std::max(0.0, dt - kMeasureSettleHours), [&](double step) {
                    loadChecked(platform, *rented, target,
                                "runExperiment2: target design");
                    // Span-level advance: ambient events bound the
                    // walk, so no sub-step cap is needed.
                    platform.advanceHours(step, step);
                });
        },
        sweep);
    platform.release(*rented);

    return recorder.result(setup.specs, setup.burn_values, hour);
}

ExperimentResult
runExperiment3(const Experiment3Config &config)
{
    util::Rng rng(config.seed);
    cloud::CloudPlatform platform(config.platform);

    // ---- Victim tenancy -------------------------------------------
    const auto victim_id = platform.rent();
    if (!victim_id) {
        util::fatal("runExperiment3: region exhausted");
    }
    fabric::Device &device = platform.instance(*victim_id).device();

    RouteSetup setup = allocateRoutes(device, config.groups, rng);
    auto target = std::make_shared<fabric::TargetDesign>(
        "exp3_victim", setup.specs, setup.burn_values, config.arith);
    mitigation::MitigationStrategy &strategy =
        strategyOrDefault(config.strategy);

    // The victim computes for burn_hours with no attacker access and
    // no measurement (the attacker does not control the FPGA). With
    // an unscheduled strategy (cadence 0) the whole burn is a single
    // jump — the paper's Experiment 3 conditions 200 h uninterrupted,
    // and the segment timeline makes that O(1) per fleet board.
    const auto victimAdvance = [&](double hours) {
        loadChecked(platform, *victim_id, target,
                    "runExperiment3: victim design");
        platform.advanceHours(hours, hours);
    };
    conditionWithStrategy(strategy, *target, device, setup.burn_values,
                          0.0, config.burn_hours, victimAdvance);
    double hour = config.burn_hours;
    runEpilogue(strategy.epilogue(), *target, setup.burn_values,
                [&](double hours) {
                    victimAdvance(hours);
                    hour += hours;
                });
    platform.release(*victim_id); // provider wipes the configuration

    // ---- Attacker tenancy -----------------------------------------
    if (config.attacker_wait_h > 0.0) {
        // Waiting out a quarantine: the board recovers (or gets
        // scrubbed) in the pool meanwhile.
        // Whole-quarantine jump: pooled boards defer the span and
        // replay it only if observed again.
        platform.advanceHours(config.attacker_wait_h,
                              config.attacker_wait_h);
        hour += config.attacker_wait_h;
    }
    const auto attacker_id = platform.rent();
    if (!attacker_id) {
        util::fatal("runExperiment3: region exhausted for attacker");
    }
    fabric::Device &att_device = platform.instance(*attacker_id).device();
    if (&att_device != &device) {
        util::warn("runExperiment3: attacker was not assigned the "
                   "victim board; recovery will fail (expected with "
                   "quarantine/mitigation configurations)");
    }

    // The attacker knows the skeleton (Assumption 1) and builds the
    // Measure design over it; θ_init is consistent across devices of
    // a type (§6.3), obtained here by calibrating at takeover.
    const auto measure = calibrateOnPlatform(
        platform, *attacker_id, setup.specs, config.tdc, config.pool);
    const auto park = makeParkDesign("exp3_attacker_park", setup.specs,
                                     config.park_value);

    SweepRecorder recorder(setup.specs.size(), config.observer);
    const auto sweep = [&](double at_hour) {
        recorder.record(at_hour, measureOnPlatform(platform, *attacker_id,
                                                   measure, config.pool));
    };
    // First attacker sample: the centering origin (hour 200).
    sweep(hour);
    const double observed = runSchedule(
        0.0, config.recovery_hours, config.measure_every_h,
        [&](double, double dt) {
            loadChecked(platform, *attacker_id, park,
                        "runExperiment3: park design");
            const double park_h = std::max(0.0, dt - kMeasureSettleHours);
            if (park_h > 0.0) {
                platform.advanceHours(park_h, park_h);
            }
        },
        [&](double t) { sweep(hour + t); });
    platform.release(*attacker_id);

    return recorder.result(setup.specs, setup.burn_values,
                           hour + observed);
}

TenancyChurnResult
runTenancyChurn(const TenancyChurnConfig &config)
{
    if (config.tenancies == 0 || config.routes_per_tenant == 0) {
        util::fatal("runTenancyChurn: empty scenario");
    }
    if (config.burn_hours_min <= 0.0 ||
        config.burn_hours_max < config.burn_hours_min) {
        util::fatal("runTenancyChurn: bad burn-hour range");
    }
    util::Rng rng(config.seed);
    fabric::Device device{fabric::DeviceConfig{}};
    fabric::ArithmeticHeavyConfig arith;
    arith.dsp_count = config.dsp_count;

    struct TenancyRoutes
    {
        std::vector<fabric::RouteSpec> specs;
    };
    std::vector<TenancyRoutes> history;
    history.reserve(config.tenancies);
    double elapsed = 0.0;

    for (std::size_t t = 0; t < config.tenancies; ++t) {
        TenancyRoutes tenancy;
        std::vector<bool> bits;
        for (std::size_t r = 0; r < config.routes_per_tenant; ++r) {
            tenancy.specs.push_back(device.allocateRoute(
                "churn_t" + std::to_string(t) + "_r" +
                    std::to_string(r),
                config.route_target_ps));
            bits.push_back(rng.bernoulli(0.5));
        }
        auto target = std::make_shared<fabric::TargetDesign>(
            "churn_tenant_" + std::to_string(t), tenancy.specs, bits,
            arith);
        device.loadDesign(target);
        const double burn_h = static_cast<double>(rng.uniformInt(
            static_cast<std::uint64_t>(config.burn_hours_min),
            static_cast<std::uint64_t>(config.burn_hours_max)));
        // Distinct die temperature per tenancy: no two tenancies'
        // segments coalesce, so deferred replay walks a realistic
        // multi-segment history.
        const double temp_k =
            config.busy_temp_k +
            0.25 * static_cast<double>(rng.uniformInt(0, 8));
        device.advanceAt(burn_h / 2.0, temp_k);
        if (config.midflip) {
            // In-place mutation of the resident design — the flip is
            // folded in at the start of the next recorded span, like
            // an inversion mitigation firing mid-tenancy.
            for (std::size_t i = 0; i < bits.size(); ++i) {
                target->setBurnValue(i, !bits[i]);
            }
        }
        device.advanceAt(burn_h / 2.0, temp_k);
        device.wipe();
        device.advanceAt(config.idle_hours, config.idle_temp_k);
        elapsed += burn_h + config.idle_hours;
        history.push_back(std::move(tenancy));
        if (config.observer != nullptr &&
            !config.observer->onSweep(t, elapsed, nullptr, 0)) {
            throw util::CancelledError(
                "tenancy churn cancelled after tenancy " +
                std::to_string(t));
        }
    }

    TenancyChurnResult result;
    const std::size_t observe = std::min(config.observe_last,
                                         history.size());
    for (std::size_t i = history.size() - observe;
         i < history.size(); ++i) {
        for (const fabric::RouteSpec &spec : history[i].specs) {
            fabric::Route route = device.bindRoute(spec);
            result.observed_delays_ps.push_back(route.delayPs(
                phys::Transition::Rising, config.busy_temp_k));
            result.observed_delays_ps.push_back(route.delayPs(
                phys::Transition::Falling, config.busy_temp_k));
        }
    }
    result.materialized = device.materializedCount();
    result.journaled = device.journaledKeyCount();
    result.elapsed_h = elapsed;
    return result;
}

} // namespace pentimento::core
