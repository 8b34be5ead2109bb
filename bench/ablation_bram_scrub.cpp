/**
 * @file
 * Ablation: when should the provider zero BRAM contents?
 *
 * The aging channel cannot be erased logically
 * (ablation_provider_scrub); the BRAM content-remanence channel can —
 * the provider just has to pay for a zeroing pass somewhere in the
 * tenancy lifecycle. This bench runs the same fleet-scan campaign
 * under the three content-scrub policies and prices them:
 *
 *  - **none**: contents ride along to the next tenant. The attacker
 *    recovers every retained word.
 *  - **zero-on-release**: scrub inside the provider's release
 *    pipeline. Unclean teardowns (tenant crash, host power event)
 *    bypass the pipeline — and therefore the scrub — so a residual
 *    exposure window survives.
 *  - **zero-on-rent**: scrub at hand-over to the next tenant. Catches
 *    unclean teardowns too; recovery drops to zero at the price of
 *    one scrub per rental (including rentals that never needed it).
 *
 * The ScrubPolicyAdvisor ranks the measured outcomes by exposure
 * reduction and reports the scrub-operation cost per point of
 * reduction. The expected strict ordering of recovery rates
 * (none > zero-on-release > zero-on-rent) is locked by bram_test.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mitigation/advisor.hpp"
#include "serve/campaign.hpp"
#include "util/logging.hpp"

using namespace pentimento;

namespace {

constexpr std::size_t kFleet = 24;
constexpr int kDays = 180;
constexpr std::uint64_t kSeed = 777;

mitigation::ScrubPolicyOutcome
runPolicy(const std::string &name, cloud::BramScrubPolicy policy)
{
    serve::FleetScanConfig config;
    config.fleet = kFleet;
    config.days = kDays;
    config.seed = kSeed;
    config.bram_channel = true;
    config.bram_scrub = policy;
    const util::Expected<serve::FleetScanResult> run =
        serve::runFleetScan(config);
    if (!run.ok()) {
        util::fatal("ablation_bram_scrub: " + run.error());
    }
    std::uint64_t blocks = 0;
    std::uint64_t recovered = 0;
    for (const serve::FleetScanBramScore &score :
         run.value().bram_boards) {
        blocks += score.blocks;
        recovered += score.recovered;
    }
    mitigation::ScrubPolicyOutcome outcome;
    outcome.name = name;
    outcome.recovery_rate =
        blocks > 0 ? static_cast<double>(recovered) /
                         static_cast<double>(blocks)
                   : 0.0;
    outcome.scrub_ops = run.value().bram_scrub_ops;
    return outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!bench::argsAreKnown(argc, argv, "ablation_bram_scrub",
                             {"--csv"})) {
        std::fprintf(stderr, "usage: ablation_bram_scrub [--csv PATH]\n");
        return 2;
    }
    std::printf("=== Ablation: provider BRAM content-scrub policies "
                "===\n");
    std::printf("(%zu boards, %d simulated days, TM2 readout of the "
                "last tenancy's words\nbefore the attacker's first "
                "reconfiguration)\n\n",
                kFleet, kDays);

    std::vector<mitigation::ScrubPolicyOutcome> outcomes = {
        runPolicy("none", cloud::BramScrubPolicy::None),
        runPolicy("zero-on-release",
                  cloud::BramScrubPolicy::ZeroOnRelease),
        runPolicy("zero-on-rent", cloud::BramScrubPolicy::ZeroOnRent),
    };

    const std::vector<mitigation::ScrubPolicyAdvice> ranked =
        mitigation::ScrubPolicyAdvisor().rank(outcomes, "none");

    std::printf("  %-18s %10s %10s %10s %14s\n", "policy", "recovery",
                "scrubs", "benefit", "scrubs/point");
    std::vector<std::vector<std::string>> csv_rows;
    for (const mitigation::ScrubPolicyAdvice &a : ranked) {
        char cost[32];
        if (a.benefit > 0.0) {
            std::snprintf(cost, sizeof(cost), "%.0f",
                          a.cost_per_benefit / 100.0);
        } else {
            std::snprintf(cost, sizeof(cost), "-");
        }
        std::printf("  %-18s %9.1f%% %10zu %9.1f%% %14s\n",
                    a.name.c_str(), 100.0 * a.recovery_rate,
                    static_cast<std::size_t>(a.scrub_ops),
                    100.0 * a.benefit, cost);
        csv_rows.push_back(std::vector<std::string>{
            a.name, std::to_string(a.recovery_rate),
            std::to_string(a.scrub_ops), std::to_string(a.benefit),
            std::to_string(a.rank)});
    }
    bench::dumpGridCsv(
        argc, argv,
        {"policy", "recovery_rate", "scrub_ops", "benefit", "rank"},
        csv_rows);

    std::printf(
        "\nzero-on-release buys most of the reduction at the fewest "
        "scrubs but leaves the\nunclean-teardown window open; "
        "zero-on-rent closes it completely for a scrub on\nevery "
        "rental. Unlike the aging channel, content remanence is "
        "logically erasable\n— the provider's only question is where "
        "in the lifecycle to pay.\n");
    return 0;
}
