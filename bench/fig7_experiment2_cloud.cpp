/**
 * @file
 * Regenerates Figure 7 — Experiment 2 (Cloud Environment), validating
 * Threat Model 1 on the AWS-F1-like platform.
 *
 * The same four route groups on a rented, years-old F1 card in
 * eu-west-2. 200 hours of burn with the attacker interleaving hourly
 * measurements (the 3896-DSP / ~63 W Arithmetic Heavy target design).
 *
 * Paper expectations:
 *  - same cyan-down / magenta-up separation as the lab, but noisier
 *    and ~5-10x smaller: ±[0,.2] / ±[0,.4] / ±[0,1] / ±[0,2] ps;
 *  - X (Type A design data) recoverable from the drift directions.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "core/classifier.hpp"
#include "core/experiment.hpp"

using namespace pentimento;

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "fig7_experiment2_cloud");
    std::printf("=== Figure 7: Experiment 2 (cloud, aged F1 card, "
                "Threat Model 1) ===\n\n");
    core::Experiment2Config config;
    config.seed = 2023;
    const auto pool = bench::makePool(argc, argv);
    config.pool = pool.get();
    const core::ExperimentResult result = core::runExperiment2(config);

    const char *labels[] = {"(a) 1000 ps routes", "(b) 2000 ps routes",
                            "(c) 5000 ps routes",
                            "(d) 10000 ps routes"};
    const double groups[] = {1000.0, 2000.0, 5000.0, 10000.0};
    for (int g = 0; g < 4; ++g) {
        std::printf("%s\n",
                    bench::renderGroupChart(result, groups[g],
                                            labels[g])
                        .c_str());
    }

    std::printf("deltas at the 200-hour mark (mean of hours "
                "[190, 200]):\n");
    std::printf("  %10s  %12s  %12s  %s\n", "group", "burn 0",
                "burn 1", "paper envelope");
    const char *paper[] = {"-/+ [0,.2] ps", "-/+ [0,.4] ps",
                           "-/+ [0,1] ps", "-/+ [0,2] ps"};
    const auto rows = bench::envelopes(result, 190.0, 200.0);
    for (std::size_t g = 0; g < rows.size(); ++g) {
        std::printf("  %8.0fps  %+10.2fps  %+10.2fps  %s\n",
                    rows[g].target_ps, rows[g].burn0_mean_ps,
                    rows[g].burn1_mean_ps, paper[g]);
    }

    const core::ClassificationReport report =
        core::ThreatModel1Classifier().classify(result);
    std::printf("\nThreat Model 1 (Type A design data): %s\n",
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

    std::printf("\n%s\n", bench::measurementCost(result).c_str());
    std::printf("cloud contrast is ~5-10x below the lab's (compare "
                "fig6); older, hotter,\nnoisier silicon — exactly the "
                "paper's observation.\n");
    bench::handleCsvFlag(argc, argv, result);
    return 0;
}
