/**
 * @file
 * Ablation: temporal-channel lifetime — thermal covert channel vs.
 * pentimenti.
 *
 * Related work (Tian & Szefer, §7) built a single-tenant temporal
 * covert channel from residual *heat*: the receiver must grab the
 * board within minutes because "cloud FPGAs return to ambient
 * temperatures within a few minutes". BTI remanence, by contrast,
 * "can last hundreds of hours". This bench transmits one bit through
 * each channel and sweeps the gap between victim release and attacker
 * measurement.
 */

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "phys/thermal.hpp"
#include "tdc/tdc.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace pentimento;

namespace {

struct ChannelReadout
{
    double thermal_signal_k = 0.0; ///< residual die heating, kelvin
    double bti_signal_ps = 0.0;    ///< pentimento contrast, ps
};

ChannelReadout
readAfterGap(double gap_hours, std::uint64_t seed)
{
    fabric::Device device{fabric::DeviceConfig{}};
    // Cloud-style package thermal model around a 45 C ambient.
    phys::PackageThermalModel thermal(util::celsiusToKelvin(45.0));
    util::Rng rng(seed);

    const fabric::RouteSpec route = device.allocateRoute("bit", 5000.0);
    tdc::Tdc sensor(device, route,
                    device.allocateCarryChain("chain", 64));
    sensor.calibrate(thermal.dieTempK(), rng);
    const double before =
        sensor.measure(thermal.dieTempK(), rng).deltaPs();

    // The transmitter: a hot design holding the route at 1 for 20 h
    // (heat transmits through power; data transmits through BTI).
    auto tx = std::make_shared<fabric::Design>("transmitter");
    tx->setRouteValue(route, true);
    tx->setPowerW(80.0);
    device.loadDesign(tx);
    device.advance(20.0, thermal);
    device.wipe();

    const double hot_k = thermal.dieTempK();
    (void)hot_k;
    // The gap: board idle in the pool.
    if (gap_hours > 0.0) {
        device.advance(gap_hours, thermal);
    }

    ChannelReadout readout;
    readout.thermal_signal_k =
        thermal.dieTempK() - util::celsiusToKelvin(45.0);
    readout.bti_signal_ps =
        sensor.measure(thermal.dieTempK(), rng).deltaPs() - before;
    return readout;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::requireSweepArgs(argc, argv, "ablation_channel_lifetime");
    std::printf("=== Ablation: temporal-channel lifetime — heat vs. "
                "pentimento ===\n");
    std::printf("(one 5 ns route held at 1 by an 80 W design for "
                "20 h, then released)\n\n");
    std::printf("  %-18s %18s %18s\n", "gap before read",
                "thermal residue", "BTI contrast");

    struct Gap
    {
        const char *label;
        double hours;
    };
    const std::vector<Gap> gaps = {{"30 seconds", 30.0 / 3600.0},
                                   {"5 minutes", 5.0 / 60.0},
                                   {"1 hour", 1.0},
                                   {"1 day", 24.0},
                                   {"1 week", 168.0}};
    const auto pool = bench::makePool(argc, argv);
    const std::vector<ChannelReadout> readouts =
        util::parallelMap<ChannelReadout>(
            gaps.size(),
            [&](std::size_t i) {
                return readAfterGap(gaps[i].hours, 77);
            },
            pool.get());
    for (std::size_t i = 0; i < gaps.size(); ++i) {
        std::printf("  %-18s %15.2f K  %15.2f ps\n", gaps[i].label,
                    readouts[i].thermal_signal_k,
                    readouts[i].bti_signal_ps);
    }

    std::vector<std::vector<std::string>> csv_rows;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
        csv_rows.push_back(std::vector<std::string>{
            gaps[i].label, std::to_string(gaps[i].hours),
            std::to_string(readouts[i].thermal_signal_k),
            std::to_string(readouts[i].bti_signal_ps)});
    }
    bench::dumpGridCsv(argc, argv,
                       {"gap", "gap_hours", "thermal_residue_k",
                        "bti_contrast_ps"},
                       csv_rows);

    std::printf("\nthe thermal channel decays with the package time "
                "constant (seconds-minutes);\nthe pentimento outlives "
                "it by orders of magnitude — the paper's 'more\n"
                "pernicious temporal channel'.\n");
    return 0;
}
