/**
 * @file
 * The paper's three experiments (§5-6).
 *
 * Each experiment interleaves the Calibration, Condition and
 * Measurement phases of §5.2 over simulated hours:
 *
 *  - Experiment 1 (lab): a factory-new ZCU102 in a 60 C oven; 64
 *    routes in four delay groups burn a random X for 200 h, then
 *    recover under X̄ for 200 h, measured hourly (Figure 6).
 *  - Experiment 2 (cloud, TM1): the same route groups on a rented,
 *    multi-year-old AWS F1 card; 200 h of burn with hourly
 *    measurement interleaved by the attacker (Figure 7).
 *  - Experiment 3 (cloud, TM2): a victim burns X for 200 h
 *    uninterrupted and releases; the attacker re-acquires the board,
 *    parks the routes at logic 0 and watches 25 h of recovery
 *    (Figure 8).
 *
 * Results are centered ∆ps series per route plus ground-truth burn
 * values for scoring.
 */

#ifndef PENTIMENTO_CORE_EXPERIMENT_HPP
#define PENTIMENTO_CORE_EXPERIMENT_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "core/delta_series.hpp"
#include "core/presets.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "mitigation/strategy.hpp"
#include "tdc/measure_design.hpp"
#include "util/parallel.hpp"

namespace pentimento::core {

/**
 * Thermal settle time before each measurement sweep, hours (54 s ≈
 * the paper's 52 s measurement). The die relaxes to the Measure
 * design's power level, so the baseline and every later sweep see the
 * same thermal operating point; without this, the Target design's
 * tens of watts would alias into ∆ps through the rise/fall
 * temperature-coefficient mismatch.
 */
inline constexpr double kMeasureSettleHours = 0.015;

/** One set of identically-sized routes under test. */
struct RouteGroup
{
    double target_ps = 1000.0;
    int count = 16;
};

/** The paper's standard 64-route layout (16 each of 1/2/5/10 ns). */
std::vector<RouteGroup> paperRouteGroups();

/**
 * Observation/cancellation hook for long experiment loops.
 *
 * onSweep() fires after every measurement sweep with the raw
 * (uncentered) per-route ∆ps of that sweep; returning false asks the
 * experiment to stop, which it honours by throwing
 * util::CancelledError at that checkpoint. The server layer uses this
 * both to stream incremental results and to enforce per-request
 * deadlines cooperatively — long loops never need to be killed from
 * outside. Purely-conditioning loops with no sweeps (tenancy churn)
 * call onSweep with n_routes == 0 once per tenancy so they stay
 * cancellable too.
 */
class SweepObserver
{
  public:
    virtual ~SweepObserver() = default;

    /** @return false to cancel the run at this checkpoint. */
    virtual bool onSweep(std::size_t sweep_index, double hour,
                         const double *delta_ps,
                         std::size_t n_routes) = 0;
};

/** Result record for one route under test. */
struct RouteRecord
{
    std::string name;
    double target_ps = 0.0;
    /** Ground-truth burn bit (opaque to the attacker; for scoring). */
    bool burn_value = false;
    /** Centered ∆ps series. */
    DeltaSeries series;
};

/** Output of one experiment run. */
struct ExperimentResult
{
    std::vector<RouteRecord> routes;
    /** Hours spent in the Condition phase. */
    double condition_hours = 0.0;
    /** Total modeled Measurement wall-clock, seconds. */
    double measure_seconds = 0.0;
    /** Number of measurement sweeps taken. */
    std::size_t sweeps = 0;

    /** Fraction of experiment time spent measuring (paper: ~1.4%). */
    double measurementFraction() const;

    /** Mean wall-clock of one sweep (paper: 33-52 s). */
    double secondsPerSweep() const;

    /** Indices of the routes belonging to a delay group. */
    std::vector<std::size_t> groupIndices(double target_ps) const;
};

/** Steps shorter than this at a span's end are not taken, hours. */
inline constexpr double kScheduleToleranceHours = 1e-9;

/** Fatal unless runSchedule's cadence and bounds are usable. */
void checkSchedule(double from, double to, double every_h);

/**
 * The §5.2 schedule every driver runs. `t` walks from the absolute
 * hour `from` to `to` in steps of min(every_h, to − t); each step calls
 * condition(t, dt) and then measure(t + dt). Returns the accumulated
 * final `t`, so a later span can continue from it. A cadence that is
 * not finite and positive, or bounds that are not finite or run
 * backwards, are fatal; an empty span takes no step.
 */
template <typename Condition, typename Measure>
double
runSchedule(double from, double to, double every_h, Condition &&condition,
            Measure &&measure)
{
    checkSchedule(from, to, every_h);
    double t = from;
    while (t < to - kScheduleToleranceHours) {
        const double dt = std::min(every_h, to - t);
        condition(t, dt);
        t += dt;
        measure(t);
    }
    return t;
}

/**
 * Collects a run's measurement sweeps: a raw ∆ps series per route,
 * the modeled sweep seconds and the sweep count. Each sweep is also
 * handed to the optional observer as its raw (uncentered) per-route
 * ∆ps; a false return throws util::CancelledError at that sweep.
 */
class SweepRecorder
{
  public:
    explicit SweepRecorder(std::size_t routes,
                           SweepObserver *observer = nullptr);

    void record(double hour, const tdc::MeasurementSweep &sweep);

    /** Route i is named after routes[i] and centered at its first
     *  sweep; burn_values[i] is its ground truth. */
    ExperimentResult result(const std::vector<fabric::RouteSpec> &routes,
                            const std::vector<bool> &burn_values,
                            double condition_hours) const;

  private:
    std::vector<DeltaSeries> raw_;
    std::vector<double> deltas_;
    SweepObserver *observer_;
    double measure_seconds_ = 0.0;
    std::size_t sweeps_ = 0;
};

/** Load a design on a rented board; fatal "<what> failed DRC on <id>". */
void loadChecked(cloud::CloudPlatform &platform,
                 const std::string &instance_id,
                 std::shared_ptr<const fabric::Design> design,
                 const char *what);

/**
 * Calibration phase on a rented board: build the Measure design over
 * `routes`, load it and calibrate every sensor at the die's
 * temperature from the instance's draw stream.
 */
std::shared_ptr<tdc::MeasureDesign>
calibrateOnPlatform(cloud::CloudPlatform &platform,
                    const std::string &instance_id,
                    const std::vector<fabric::RouteSpec> &routes,
                    const tdc::TdcConfig &tdc, util::ThreadPool *pool);

/**
 * Measurement phase on a rented board: load `measure`, let the die
 * settle for kMeasureSettleHours, then sweep every sensor.
 */
tdc::MeasurementSweep
measureOnPlatform(cloud::CloudPlatform &platform,
                  const std::string &instance_id,
                  const std::shared_ptr<tdc::MeasureDesign> &measure,
                  util::ThreadPool *pool);

/** The attacker's 2 W park design holding every route at `value`. */
std::shared_ptr<fabric::Design>
makeParkDesign(const std::string &name,
               const std::vector<fabric::RouteSpec> &routes, bool value);

/** Experiment 1 configuration (lab, Figure 6). */
struct Experiment1Config
{
    std::vector<RouteGroup> groups = paperRouteGroups();
    double burn_hours = 200.0;
    double recovery_hours = 200.0;
    double oven_temp_c = 60.0;
    double measure_every_h = 1.0;
    fabric::DeviceConfig device = zcu102New();
    fabric::ArithmeticHeavyConfig arith{};
    tdc::TdcConfig tdc{};
    std::uint64_t seed = 2023;
    /** Optional user mitigation applied during the burn (ablations). */
    mitigation::MitigationStrategy *strategy = nullptr;
    /**
     * Optional work pool: calibration and measurement sweeps fan
     * out across its workers. Same seed produces bit-identical
     * results for any worker count (nullptr = serial).
     */
    util::ThreadPool *pool = nullptr;
    /** Optional per-sweep observation/cancellation hook. */
    SweepObserver *observer = nullptr;
};

/** Run Experiment 1 on a local device. */
ExperimentResult runExperiment1(const Experiment1Config &config);

/** Experiment 2 configuration (cloud, TM1, Figure 7). */
struct Experiment2Config
{
    std::vector<RouteGroup> groups = paperRouteGroups();
    double burn_hours = 200.0;
    double measure_every_h = 1.0;
    cloud::PlatformConfig platform = awsF1Region();
    fabric::ArithmeticHeavyConfig arith{}; // 3896 DSPs, ~63 W
    tdc::TdcConfig tdc{};
    std::uint64_t seed = 2023;
    mitigation::MitigationStrategy *strategy = nullptr;
    /** Work pool (see Experiment1Config::pool). */
    util::ThreadPool *pool = nullptr;
    /** Optional per-sweep observation/cancellation hook. */
    SweepObserver *observer = nullptr;
};

/** Run Experiment 2 against a cloud platform. */
ExperimentResult runExperiment2(const Experiment2Config &config);

/** Experiment 3 configuration (cloud, TM2, Figure 8). */
struct Experiment3Config
{
    std::vector<RouteGroup> groups = paperRouteGroups();
    /** Victim burn, uninstrumented (no attacker access). */
    double burn_hours = 200.0;
    /** Attacker's recovery observation window. */
    double recovery_hours = 25.0;
    double measure_every_h = 1.0;
    /**
     * Hours the attacker waits between the victim's release and their
     * own rental (e.g. to outlast a provider quarantine). The board
     * sits in the pool recovering — or being scrubbed — meanwhile.
     */
    double attacker_wait_h = 0.0;
    /** Value the attacker parks the routes at (§6.3 chooses 0). */
    bool park_value = false;
    cloud::PlatformConfig platform = awsF1Region();
    fabric::ArithmeticHeavyConfig arith{};
    tdc::TdcConfig tdc{};
    std::uint64_t seed = 2023;
    /** Optional victim-side mitigation (incl. its epilogue). */
    mitigation::MitigationStrategy *strategy = nullptr;
    /** Work pool (see Experiment1Config::pool). */
    util::ThreadPool *pool = nullptr;
    /** Optional per-sweep observation/cancellation hook. */
    SweepObserver *observer = nullptr;
};

/** Run Experiment 3 against a cloud platform. */
ExperimentResult runExperiment3(const Experiment3Config &config);

/**
 * Deterministic single-board tenancy churn: the workload the activity
 * journal exists for. A sequence of tenancies each allocates fresh
 * routes, burns a random word (with an optional in-place burn-value
 * rotation mid-tenancy, mitigation-style), releases, and lets the
 * board idle — and nobody measures anything until the very end, when
 * the last `observe_last` tenancies' routes are bound and read. The
 * run is a pure function of the config (every draw comes from `seed`),
 * so its outputs serve as regression goldens (GoldenRegression in
 * regression_test pins every observed delay and both element counts
 * bitwise). The board is a default fabric::DeviceConfig.
 */
struct TenancyChurnConfig
{
    /** Completed tenancies. */
    std::size_t tenancies = 16;
    std::size_t routes_per_tenant = 4;
    double route_target_ps = 1000.0;
    /** Arithmetic-heavy filler DSPs per tenant design. */
    int dsp_count = 32;
    /** Tenancy length is uniform in [min, max] whole hours. */
    double burn_hours_min = 24.0;
    double burn_hours_max = 96.0;
    /** Pool idle time between tenancies (recovery), hours. */
    double idle_hours = 24.0;
    /** Rotate every burn value halfway through each tenancy (an
     *  in-place design mutation, exercising mid-tenancy flips). */
    bool midflip = true;
    /** Die temperature while a tenant computes / while idle (K). */
    double busy_temp_k = 333.15;
    double idle_temp_k = 318.15;
    /** Bind and read the routes of the last N tenancies at the end
     *  (0 = never observe anything: the pure-churn benchmark form). */
    std::size_t observe_last = 2;
    std::uint64_t seed = 7321;
    /** Optional per-tenancy cancellation hook (n_routes == 0). */
    SweepObserver *observer = nullptr;
};

/** Output of a tenancy-churn run. */
struct TenancyChurnResult
{
    /** Rising/falling aged delay (ps) per observed route, tenancy
     *  order then route order. */
    std::vector<double> observed_delays_ps;
    /** Materialised elements after the final observation. */
    std::size_t materialized = 0;
    /** Configured-but-unobserved elements still journal-deferred. */
    std::size_t journaled = 0;
    /** Simulated hours elapsed. */
    double elapsed_h = 0.0;
};

/** Run the tenancy-churn scenario. */
TenancyChurnResult runTenancyChurn(const TenancyChurnConfig &config);

} // namespace pentimento::core

#endif // PENTIMENTO_CORE_EXPERIMENT_HPP
