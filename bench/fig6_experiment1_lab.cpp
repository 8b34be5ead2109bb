/**
 * @file
 * Regenerates Figure 6 — Experiment 1 (Lab Environment).
 *
 * A factory-new ZCU102 in a 60 C oven. 64 routes (16 each of 1000 /
 * 2000 / 5000 / 10000 ps) burn a random X for 200 hours, then recover
 * under X̄ for 200 hours; ∆ps (falling − rising) is measured hourly,
 * centered at hour 0 and kernel-smoothed.
 *
 * Paper expectations:
 *  - burn 0 (cyan) falls, burn 1 (magenta) rises, from hour zero;
 *  - |∆ps| at h200: ±[1,2] / ±[2,3] / ±[5,6] / ±[10,11] ps per group;
 *  - burn-1 routes re-cross zero within 30-50 h of recovery;
 *  - burn-0 routes take >200 h;
 *  - measurement is a ~1.4% tax.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace pentimento;

namespace {

/**
 * Mean hours to re-cross zero after the burn/recovery switch,
 * computed over the 5/10 ns groups (short-route noise straddles zero
 * long before the physics does).
 */
double
meanCrossingHours(const core::ExperimentResult &result, bool burn_value,
                  double switch_hour)
{
    double sum = 0.0;
    int count = 0;
    for (const auto &route : result.routes) {
        if (route.burn_value != burn_value ||
            route.target_ps < 5000.0) {
            continue;
        }
        const auto smooth = route.series.smoothed(20.0);
        const auto &hours = route.series.hours();
        double crossing = -1.0;
        for (std::size_t k = 0; k < hours.size(); ++k) {
            if (hours[k] <= switch_hour) {
                continue;
            }
            const bool crossed = burn_value ? smooth[k] <= 0.0
                                            : smooth[k] >= 0.0;
            if (crossed) {
                crossing = hours[k] - switch_hour;
                break;
            }
        }
        if (crossing >= 0.0) {
            sum += crossing;
            ++count;
        }
    }
    return count == 0 ? -1.0 : sum / count;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "fig6_experiment1_lab");
    std::printf("=== Figure 6: Experiment 1 (lab, new ZCU102, 60 C "
                "oven) ===\n\n");
    core::Experiment1Config config;
    config.seed = 2023;
    const auto pool = bench::makePool(argc, argv);
    config.pool = pool.get();
    const core::ExperimentResult result = core::runExperiment1(config);

    const char *labels[] = {"(a) 1000 ps routes", "(b) 2000 ps routes",
                            "(c) 5000 ps routes",
                            "(d) 10000 ps routes"};
    const double groups[] = {1000.0, 2000.0, 5000.0, 10000.0};
    for (int g = 0; g < 4; ++g) {
        std::printf("%s\n",
                    bench::renderGroupChart(result, groups[g],
                                            labels[g], 200.0)
                        .c_str());
    }

    std::printf("deltas at the 200-hour mark (mean of hours "
                "[190, 200]):\n");
    std::printf("  %10s  %12s  %12s  %s\n", "group", "burn 0", "burn 1",
                "paper envelope");
    const char *paper[] = {"-/+ [1,2] ps", "-/+ [2,3] ps",
                           "-/+ [5,6] ps", "-/+ [10,11] ps"};
    const auto rows = bench::envelopes(result, 190.0, 200.0);
    for (std::size_t g = 0; g < rows.size(); ++g) {
        std::printf("  %8.0fps  %+10.2fps  %+10.2fps  %s\n",
                    rows[g].target_ps, rows[g].burn0_mean_ps,
                    rows[g].burn1_mean_ps, paper[g]);
    }

    std::printf("\nrecovery (after the hour-200 switch to X-bar):\n");
    const double burn1_cross = meanCrossingHours(result, true, 200.0);
    const double burn0_cross = meanCrossingHours(result, false, 200.0);
    if (burn1_cross >= 0.0) {
        std::printf("  burn-1 routes re-cross zero after ~%.0f h "
                    "(paper: 30-50 h)\n",
                    burn1_cross);
    }
    if (burn0_cross >= 0.0) {
        std::printf("  burn-0 routes re-cross zero after ~%.0f h "
                    "(paper: over 200 h)\n",
                    burn0_cross);
    } else {
        std::printf("  burn-0 routes have NOT re-crossed zero within "
                    "200 h (paper: over 200 h)\n");
    }

    std::printf("\n%s\n", bench::measurementCost(result).c_str());
    bench::handleCsvFlag(argc, argv, result);
    return 0;
}
