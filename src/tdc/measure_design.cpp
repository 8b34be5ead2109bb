#include "tdc/measure_design.hpp"

#include "util/logging.hpp"

namespace pentimento::tdc {

MeasureDesign::MeasureDesign(fabric::Device &device,
                             const std::vector<fabric::RouteSpec> &routes,
                             const TdcConfig &config)
    : fabric::Design("measure")
{
    if (routes.empty()) {
        util::fatal("MeasureDesign: no routes to observe");
    }
    sensors_.reserve(routes.size());
    for (std::size_t i = 0; i < routes.size(); ++i) {
        fabric::RouteSpec chain = device.allocateCarryChain(
            "tdc_chain_" + std::to_string(i), config.taps);
        // While the Measure design is resident, the routes under test
        // and the chains carry launch transitions: low-duty toggling.
        setRouteToggling(routes[i], 0.5);
        setRouteToggling(chain, 0.5);
        sensors_.emplace_back(device, routes[i], std::move(chain),
                              config);
        // Feed-forward netlist arcs: transition generator -> route ->
        // chain. Loop-free by construction, so the design passes the
        // provider DRC (unlike a ring oscillator).
        const std::string tag = "tdc" + std::to_string(i);
        addCombinationalEdge("transition_gen", tag + "/route");
        addCombinationalEdge(tag + "/route", tag + "/chain");
    }
    // A TDC array is small: clock generator + chains + capture FFs.
    setPowerW(2.5);
}

Tdc &
MeasureDesign::sensor(std::size_t i)
{
    if (i >= sensors_.size()) {
        util::fatal("MeasureDesign::sensor: index out of range");
    }
    return sensors_[i];
}

const Tdc &
MeasureDesign::sensor(std::size_t i) const
{
    if (i >= sensors_.size()) {
        util::fatal("MeasureDesign::sensor: index out of range");
    }
    return sensors_[i];
}

std::vector<double>
MeasureDesign::calibrateAll(double temp_k, util::Rng &rng,
                            util::ThreadPool *pool)
{
    // Streams are split serially, in index order, before any fan-out:
    // sensor i's draws depend only on (rng state, i), never on how
    // the loop below is scheduled.
    std::vector<util::Rng> streams =
        util::splitStreams(rng, sensors_.size(), "calibrate");
    std::vector<double> thetas(sensors_.size());
    const auto tune = [&](std::size_t i) {
        thetas[i] = sensors_[i].calibrate(temp_k, streams[i]);
    };
    util::parallelFor(sensors_.size(), tune, pool);
    return thetas;
}

void
MeasureDesign::adoptThetaInits(const std::vector<double> &thetas)
{
    if (thetas.size() != sensors_.size()) {
        util::fatal("MeasureDesign::adoptThetaInits: arity mismatch");
    }
    for (std::size_t i = 0; i < sensors_.size(); ++i) {
        sensors_[i].setThetaInit(thetas[i]);
    }
}

MeasurementSweep
MeasureDesign::measureAll(double temp_k, util::Rng &rng,
                          util::ThreadPool *pool) const
{
    std::vector<util::Rng> streams =
        util::splitStreams(rng, sensors_.size(), "measure");
    MeasurementSweep sweep;
    sweep.per_route.resize(sensors_.size());
    const auto probe = [&](std::size_t i) {
        sweep.per_route[i] = sensors_[i].measure(temp_k, streams[i]);
    };
    util::parallelFor(sensors_.size(), probe, pool);
    // Reduce serially, in index order, so the float sum never depends
    // on completion order.
    for (const Measurement &m : sweep.per_route) {
        sweep.wall_seconds += m.wall_seconds;
    }
    return sweep;
}

} // namespace pentimento::tdc
