/**
 * @file
 * Ablation: how much of Assumption 1 does the attacker really need?
 *
 * Both threat models assume the attacker knows the victim's placement
 * "skeleton". This sweep corrupts that knowledge: for a fraction of
 * the routes the attacker's Measure design points at the wrong
 * physical location (fresh fabric, no imprint). Recovery accuracy
 * should interpolate from chance (0% knowledge) to the full attack
 * (100%), demonstrating both that Assumption 1 is necessary and that
 * *partial* leaks of placement information already leak data.
 */

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "phys/thermal.hpp"
#include "tdc/tdc.hpp"
#include "util/rng.hpp"

using namespace pentimento;

namespace {

/** Fraction of bits recovered with partial skeleton knowledge. */
double
accuracyWithKnowledge(double knowledge, std::uint64_t seed)
{
    fabric::Device device{fabric::DeviceConfig{}};
    phys::OvenEnvironment oven(333.15);
    util::Rng rng(seed);

    const int bits = 16;
    std::vector<fabric::RouteSpec> truth;
    std::vector<bool> secret;
    for (int b = 0; b < bits; ++b) {
        truth.push_back(
            device.allocateRoute("secret" + std::to_string(b), 5000.0));
        secret.push_back(rng.bernoulli(0.5));
    }

    // The attacker's belief: correct spec with probability
    // `knowledge`, otherwise a plausible-but-wrong location.
    std::vector<fabric::RouteSpec> believed;
    for (int b = 0; b < bits; ++b) {
        if (rng.bernoulli(knowledge)) {
            believed.push_back(truth[static_cast<std::size_t>(b)]);
        } else {
            believed.push_back(device.allocateRoute(
                "decoy" + std::to_string(b), 5000.0));
        }
    }

    // Baseline on the believed skeleton, burn on the true one.
    std::vector<tdc::Tdc> sensors;
    std::vector<double> before;
    for (int b = 0; b < bits; ++b) {
        std::string chain = "c";
        chain += std::to_string(b);
        sensors.emplace_back(device,
                             believed[static_cast<std::size_t>(b)],
                             device.allocateCarryChain(chain, 64));
        sensors.back().calibrate(oven.dieTempK(), rng);
        before.push_back(
            sensors.back().measure(oven.dieTempK(), rng).deltaPs());
    }

    auto victim = std::make_shared<fabric::Design>("victim");
    for (int b = 0; b < bits; ++b) {
        victim->setRouteValue(truth[static_cast<std::size_t>(b)],
                              secret[static_cast<std::size_t>(b)]);
    }
    device.loadDesign(victim);
    device.advance(150.0, oven);
    device.wipe();

    int correct = 0;
    for (int b = 0; b < bits; ++b) {
        const double drift =
            sensors[static_cast<std::size_t>(b)]
                .measure(oven.dieTempK(), rng)
                .deltaPs() -
            before[static_cast<std::size_t>(b)];
        correct += (drift > 0.0) == secret[static_cast<std::size_t>(b)];
    }
    return static_cast<double>(correct) / bits;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "ablation_skeleton");
    std::printf("=== Ablation: skeleton knowledge (Assumption 1) vs. "
                "recovery accuracy ===\n");
    std::printf("(16 bits on 5 ns routes, 150 h burn, lab "
                "conditions; wrong locations point at\nfresh fabric)\n"
                "\n");
    std::printf("  %10s  %10s\n", "knowledge", "accuracy");

    // Flatten (knowledge level x trial) into one grid so every
    // independent run can occupy a worker lane.
    const std::vector<double> levels = {0.0, 0.25, 0.5, 0.75, 1.0};
    const int trials = 3;
    const auto pool = bench::makePool(argc, argv);
    const std::vector<double> acc = util::parallelMap<double>(
        levels.size() * trials,
        [&](std::size_t i) {
            return accuracyWithKnowledge(levels[i / trials],
                                         1000 + i % trials);
        },
        pool.get());
    for (std::size_t level = 0; level < levels.size(); ++level) {
        double sum = 0.0;
        for (int t = 0; t < trials; ++t) {
            sum += acc[level * trials + t];
        }
        std::printf("  %9.0f%%  %9.1f%%\n", 100.0 * levels[level],
                    100.0 * sum / trials);
    }
    std::vector<std::vector<std::string>> csv_rows;
    for (std::size_t level = 0; level < levels.size(); ++level) {
        for (int t = 0; t < trials; ++t) {
            csv_rows.push_back(std::vector<std::string>{
                std::to_string(levels[level]), std::to_string(t),
                std::to_string(acc[level * trials + t])});
        }
    }
    bench::dumpGridCsv(argc, argv, {"knowledge", "trial", "accuracy"},
                       csv_rows);

    std::printf("\naccuracy interpolates from coin-flip to complete "
                "recovery: Assumption 1 is\nnecessary, and every "
                "partially-leaked placement is already a partial key "
                "leak.\n");
    return 0;
}
