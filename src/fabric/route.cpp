#include "fabric/route.hpp"

#include <limits>

#include "fabric/device.hpp"
#include "util/logging.hpp"

namespace pentimento::fabric {

Route::Route(Device &device, RouteSpec spec)
    : device_(&device), spec_(std::move(spec)),
      synced_epoch_(std::numeric_limits<std::uint64_t>::max())
{
    if (spec_.elements.empty()) {
        util::fatal("Route: spec '" + spec_.name + "' has no elements");
    }
    // Resolve every id to its dense element once: delay queries on
    // the measurement path then never touch the id index again.
    elements_.reserve(spec_.elements.size());
    handles_.reserve(spec_.elements.size());
    for (const ResourceId &id : spec_.elements) {
        const ElementHandle h = device_->bindElement(id);
        handles_.push_back(h);
        elements_.push_back(&device_->elementAt(h));
    }
}

void
Route::syncForRead() const
{
    // A query is a timeline observation: pending segments must be
    // folded into the elements first. The device's state epoch moves
    // on every advance/load/wipe/wear, so an unchanged epoch means
    // the elements we synced last time are still current.
    const std::uint64_t epoch = device_->stateEpoch();
    if (synced_epoch_ == epoch) {
        return;
    }
    device_->syncHandles(handles_.data(), handles_.size());
    synced_epoch_ = epoch;
}

double
Route::baseDelayPs(phys::Transition t) const
{
    double total = 0.0;
    for (const RoutingElement *elem : elements_) {
        total += elem->basePs(t);
    }
    return total;
}

double
Route::delayPs(phys::Transition t, double temp_k) const
{
    syncForRead();
    const auto &cfg = device_->config();
    const double temp_factor = cfg.delay.temperatureFactor(t, temp_k);
    const phys::TransistorType limiter = phys::limitingTransistor(t);
    // The device's ΔVth memo shares the power-law results across
    // polarities, temperatures and repeated queries at one state.
    double total = 0.0;
    for (std::size_t i = 0; i < elements_.size(); ++i) {
        const ElementDvth &memo = device_->dvthAt(handles_[i]);
        const double dvth = limiter == phys::TransistorType::Nmos
                                ? memo.nmos_v
                                : memo.pmos_v;
        total += elements_[i]->delayPsCached(cfg.delay, t, dvth,
                                             temp_factor);
    }
    return total;
}

double
Route::btiShiftPs(phys::Transition t) const
{
    return delayPs(t, device_->config().delay.ref_temp_k) -
           baseDelayPs(t);
}

} // namespace pentimento::fabric
