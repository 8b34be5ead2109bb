/**
 * @file
 * Ablation: TDC vs. ring-oscillator sensing (paper §7).
 *
 * Three claims to reproduce:
 *  1. the RO's combinational loop fails the provider's design rule
 *     checks outright, while the TDC loads cleanly — so on the cloud
 *     the comparison is already over;
 *  2. an RO integrates NMOS and PMOS transit into one scalar. Under
 *     perfect lab conditions a residual polarity signal survives
 *     (NBTI grows the period ~20% more than PBTI), but it is
 *     one-sided magnitude, not sign;
 *  3. that residue dies under cloud ambient drift: ±1.6 K between
 *     baseline and post-burn readings moves the RO period by more
 *     than the class gap, while the TDC's falling-minus-rising
 *     observable cancels temperature common-mode and keeps its
 *     opposite-sign separation.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "fabric/drc.hpp"
#include "phys/thermal.hpp"
#include "tdc/measure_design.hpp"
#include "tdc/ro_sensor.hpp"
#include "tdc/tdc.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace pentimento;

namespace {

struct SensorRun
{
    int tdc_correct = 0;
    int ro_correct = 0;
    int total = 0;
};

/**
 * Burn 12 routes and classify with both sensors. ambient_sigma_k > 0
 * adds independent temperature drift between each route's baseline
 * and post-burn readings (the cloud's uncontrolled environment).
 */
SensorRun
runComparison(double ambient_sigma_k, std::uint64_t seed)
{
    fabric::Device device{fabric::DeviceConfig{}};
    util::Rng rng(seed);
    const double t0 = 318.15;

    std::vector<fabric::RouteSpec> routes;
    std::vector<bool> burn;
    for (int r = 0; r < 12; ++r) {
        std::string name = "r";
        name += std::to_string(r);
        routes.push_back(device.allocateRoute(name, 5000.0));
        burn.push_back(r % 2 == 0);
    }

    const auto drawTemp = [&] {
        return t0 + rng.gaussian(0.0, ambient_sigma_k);
    };

    std::vector<tdc::Tdc> tdcs;
    std::vector<double> tdc_before, ro_before;
    for (std::size_t r = 0; r < routes.size(); ++r) {
        const double temp = drawTemp();
        std::string chain = "c";
        chain += std::to_string(r);
        tdcs.emplace_back(device, routes[r],
                          device.allocateCarryChain(chain, 64));
        tdcs.back().calibrate(temp, rng);
        tdc_before.push_back(tdcs.back().measure(temp, rng).deltaPs());
        ro_before.push_back(
            tdc::RingOscillatorSensor(device, routes[r])
                .periodPs(temp));
    }

    auto design = std::make_shared<fabric::Design>("burn");
    for (std::size_t r = 0; r < routes.size(); ++r) {
        design->setRouteValue(routes[r], burn[r]);
    }
    device.loadDesign(design);
    phys::OvenEnvironment oven(t0);
    device.advance(150.0, oven);
    device.wipe();

    std::vector<double> tdc_drift, ro_growth;
    for (std::size_t r = 0; r < routes.size(); ++r) {
        const double temp = drawTemp();
        tdc_drift.push_back(tdcs[r].measure(temp, rng).deltaPs() -
                            tdc_before[r]);
        ro_growth.push_back(
            tdc::RingOscillatorSensor(device, routes[r])
                .periodPs(temp) -
            ro_before[r]);
    }

    // TDC: polarity is the drift sign. RO: best unlabeled split of
    // the one-sided growth magnitudes (bigger growth -> NBTI -> 0).
    SensorRun run;
    run.total = static_cast<int>(routes.size());
    const double ro_split = util::otsuThreshold(ro_growth);
    for (std::size_t r = 0; r < routes.size(); ++r) {
        run.tdc_correct += (tdc_drift[r] > 0.0) == burn[r];
        run.ro_correct += (ro_growth[r] < ro_split) == burn[r];
    }
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "ablation_sensor");
    std::printf("=== Ablation: TDC vs. ring-oscillator sensor "
                "(12 bits, 5 ns routes, 150 h) ===\n\n");

    const auto pool = bench::makePool(argc, argv);
    const std::vector<double> sigmas = {0.0, 1.6};
    const std::vector<SensorRun> runs = util::parallelMap<SensorRun>(
        sigmas.size(),
        [&](std::size_t i) { return runComparison(sigmas[i], 5); },
        pool.get());

    const SensorRun lab = runs[0];
    std::printf("lab conditions (temperature pinned):\n");
    std::printf("  TDC  sign recovery:      %2d/%d\n", lab.tdc_correct,
                lab.total);
    std::printf("  RO   magnitude recovery: %2d/%d  (rides on the "
                "NBTI/PBTI asymmetry only)\n",
                lab.ro_correct, lab.total);

    const SensorRun cloud = runs[1];
    std::printf("\ncloud conditions (+/-1.6 K ambient drift between "
                "readings):\n");
    std::printf("  TDC  sign recovery:      %2d/%d  (differential "
                "observable cancels drift)\n",
                cloud.tdc_correct, cloud.total);
    std::printf("  RO   magnitude recovery: %2d/%d  (1 ps class gap "
                "buried under ~1.6 ps drift)\n",
                cloud.ro_correct, cloud.total);

    // DRC verdicts: the decisive difference on a real platform.
    fabric::Device device{fabric::DeviceConfig{}};
    std::vector<fabric::RouteSpec> routes{
        device.allocateRoute("r", 5000.0)};
    const fabric::DesignRuleChecker drc;
    tdc::MeasureDesign tdc_design(device, routes);
    tdc::RingOscillatorSensor ro(device, routes[0]);
    const auto ro_violations = drc.check(*ro.buildDesign());
    std::printf("\nprovider DRC: TDC design %s; RO design %s",
                drc.accepts(tdc_design) ? "ACCEPTED" : "rejected",
                ro_violations.empty() ? "accepted" : "REJECTED");
    if (!ro_violations.empty()) {
        std::printf(" (%s)", ro_violations[0].rule.c_str());
    }
    std::vector<std::vector<std::string>> csv_rows;
    for (std::size_t i = 0; i < sigmas.size(); ++i) {
        csv_rows.push_back(std::vector<std::string>{
            std::to_string(sigmas[i]),
            std::to_string(runs[i].tdc_correct),
            std::to_string(runs[i].ro_correct),
            std::to_string(runs[i].total)});
    }
    bench::dumpGridCsv(argc, argv,
                       {"ambient_sigma_k", "tdc_correct", "ro_correct",
                        "total"},
                       csv_rows);

    std::printf("\n\nthe TDC separates NBTI from PBTI by polarity and "
                "passes DRC; the RO loses the\nsign, loses its margin "
                "to ambient drift, and never loads on AWS at all.\n");
    return 0;
}
