/**
 * @file
 * Ablation: recoverability vs. route length.
 *
 * The paper: "There appear to be no limitations in route length as to
 * observable burn-in effects, with the 1000 ps tested routes showing
 * a clear difference" (§6.1) and, as a mitigation, "the user should
 * strive to make routes that hold sensitive data as short as
 * possible" (§8.1). This sweep measures burn-in contrast and TM1
 * accuracy from 500 ps to 20 ns on the cloud platform and compares
 * against the analytic vulnerability model.
 *
 * Each route length is an independent experiment (own platform, own
 * seed), so the grid fans out across `--workers N` lanes; the table
 * and any `--csv` dump are bit-identical for every worker count.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "core/classifier.hpp"
#include "core/experiment.hpp"
#include "opentitan/vulnerability.hpp"
#include "util/stats.hpp"

using namespace pentimento;

namespace {

struct LengthRow
{
    double length_ps = 0.0;
    double contrast_ps = 0.0;
    double predicted_ps = 0.0;
    double accuracy = 0.0;
    /** Per-route end-window contrast, for the CSV dump. */
    std::vector<std::string> route_names;
    std::vector<double> route_contrast_ps;
    std::vector<bool> route_burn;
};

LengthRow
runLength(double length, const opentitan::VulnerabilityMetric &metric)
{
    core::Experiment2Config config;
    config.groups = {{length, 12}};
    config.burn_hours = 100.0;
    config.measure_every_h = 2.0;
    config.seed = 555;
    const core::ExperimentResult result = core::runExperiment2(config);

    LengthRow row;
    row.length_ps = length;
    util::RunningStats contrast;
    for (const auto &route : result.routes) {
        const double c =
            std::abs(route.series.meanBetweenHours(90.0, 100.0));
        contrast.add(c);
        row.route_names.push_back(route.name);
        row.route_contrast_ps.push_back(c);
        row.route_burn.push_back(route.burn_value);
    }
    row.contrast_ps = contrast.mean();
    row.predicted_ps = metric.expectedDeltaPs(length);
    row.accuracy =
        core::ThreatModel1Classifier().classify(result).accuracy;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "ablation_route_length");
    std::printf("=== Ablation: route length vs. recoverability "
                "(cloud, 100 h burn) ===\n\n");

    opentitan::AttackScenario scenario;
    scenario.burn_hours = 100.0;
    scenario.temp_k = 340.0; // die under the target design
    const opentitan::VulnerabilityMetric metric(scenario);

    const std::vector<double> lengths = {500.0,  1000.0,  2000.0,
                                         5000.0, 10000.0, 20000.0};

    const auto pool = bench::makePool(argc, argv);
    const std::vector<LengthRow> rows = util::parallelMap<LengthRow>(
        lengths.size(),
        [&](std::size_t i) { return runLength(lengths[i], metric); },
        pool.get());

    std::printf("  %9s  %14s  %14s  %12s\n", "length", "contrast(ps)",
                "predicted(ps)", "TM1 accuracy");
    for (const LengthRow &row : rows) {
        std::printf("  %7.0fps  %14.3f  %14.3f  %10.1f%%\n",
                    row.length_ps, row.contrast_ps, row.predicted_ps,
                    100.0 * row.accuracy);
    }

    std::vector<std::vector<std::string>> csv_rows;
    for (const LengthRow &row : rows) {
        for (std::size_t r = 0; r < row.route_names.size(); ++r) {
            csv_rows.push_back(std::vector<std::string>{
                std::to_string(row.length_ps), row.route_names[r],
                row.route_burn[r] ? "1" : "0",
                std::to_string(row.route_contrast_ps[r]),
                std::to_string(row.contrast_ps),
                std::to_string(row.predicted_ps),
                std::to_string(row.accuracy)});
        }
    }
    bench::dumpGridCsv(argc, argv,
                       {"length_ps", "route", "burn_value",
                        "contrast_ps", "group_contrast_ps",
                        "predicted_ps", "tm1_accuracy"},
                       csv_rows);

    std::printf("\ncontrast scales linearly with route length "
                "(more stressed transistors);\nshort routes are the "
                "paper's recommended defensive design pattern.\n");
    return 0;
}
