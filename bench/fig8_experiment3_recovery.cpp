/**
 * @file
 * Regenerates Figure 8 — Experiment 3 (Cloud Environment), validating
 * Threat Model 2: recovery of Type B user data via BTI *recovery*.
 *
 * A victim burns a random X for 200 hours with no attacker access,
 * releases the instance (provider wipes it), and the attacker —
 * having re-acquired the same board — parks every route at logic 0
 * and measures for 25 hours.
 *
 * Paper expectations:
 *  - the plot starts at hour 200 (no earlier data exists);
 *  - routes that held 1 (magenta) immediately decrease relative to
 *    the flat routes that held 0 (cyan);
 *  - separation is weaker than in the lab but sufficient to recover
 *    user data, especially on longer routes.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "core/classifier.hpp"
#include "core/experiment.hpp"

using namespace pentimento;

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "fig8_experiment3_recovery");
    std::printf("=== Figure 8: Experiment 3 (cloud, Threat Model 2 "
                "recovery) ===\n\n");
    core::Experiment3Config config;
    config.seed = 2023;
    const auto pool = bench::makePool(argc, argv);
    config.pool = pool.get();
    const core::ExperimentResult result = core::runExperiment3(config);

    const char *labels[] = {"(a) 1000 ps routes", "(b) 2000 ps routes",
                            "(c) 5000 ps routes",
                            "(d) 10000 ps routes"};
    const double groups[] = {1000.0, 2000.0, 5000.0, 10000.0};
    for (int g = 0; g < 4; ++g) {
        std::printf("%s\n",
                    bench::renderGroupChart(result, groups[g],
                                            labels[g], -1.0, 8.0)
                        .c_str());
    }

    std::printf("recovery slopes over the 25-hour attacker window "
                "(ps/h, mean per class):\n");
    std::printf("  %10s  %12s  %12s\n", "group", "burn 0", "burn 1");
    for (const double g : groups) {
        double s0 = 0.0, s1 = 0.0;
        int n0 = 0, n1 = 0;
        for (const std::size_t i : result.groupIndices(g)) {
            const auto &route = result.routes[i];
            if (route.burn_value) {
                s1 += route.series.slopePerHour();
                ++n1;
            } else {
                s0 += route.series.slopePerHour();
                ++n0;
            }
        }
        std::printf("  %8.0fps  %+12.4f  %+12.4f\n", g,
                    n0 ? s0 / n0 : 0.0, n1 ? s1 / n1 : 0.0);
    }

    const core::ClassificationReport report =
        core::ThreatModel2Classifier().classify(result);
    std::printf("\nThreat Model 2 (Type B user data): %s\n",
                bench::classificationSummary(report).c_str());
    std::printf("per-group accuracy:\n");
    for (const double g : groups) {
        int ok = 0, total = 0;
        for (const std::size_t i : result.groupIndices(g)) {
            ++total;
            ok += report.bits[i].value == result.routes[i].burn_value;
        }
        std::printf("  %8.0fps: %2d/%2d\n", g, ok, total);
    }
    std::printf("\nas in the paper, the cloud recovery signal lacks "
                "the lab's magnitude and\nclarity on short routes; "
                "long routes leak reliably.\n");
    bench::handleCsvFlag(argc, argv, result);
    return 0;
}
