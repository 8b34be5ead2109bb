/**
 * @file
 * Routes and route skeletons.
 *
 * A RouteSpec is the paper's "skeleton": the ordered list of physical
 * resource ids a net occupies, with no knowledge of the value carried.
 * Threat-model Assumption 1 is that the attacker possesses the
 * victim's RouteSpecs (from an open-source bitstream such as OpenTitan
 * or FINN, or as the AFI author). A Route binds a spec to a concrete
 * Device for delay queries.
 */

#ifndef PENTIMENTO_FABRIC_ROUTE_HPP
#define PENTIMENTO_FABRIC_ROUTE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/element_slab.hpp"
#include "fabric/resource.hpp"
#include "phys/delay_model.hpp"

namespace pentimento::fabric {

class Device;

/**
 * Placement skeleton of one net (Assumption 1 artifact).
 */
struct RouteSpec
{
    /** Net name, e.g. "keymgr_aes_key[key][0][17]". */
    std::string name;
    /** Nominal design delay this route was allocated for (ps). */
    double target_ps = 0.0;
    /** Ordered physical elements the net traverses. */
    std::vector<ResourceId> elements;

    /** Number of physical elements (transistor stages). */
    std::size_t size() const { return elements.size(); }
};

class RoutingElement;

/**
 * A RouteSpec bound to a Device.
 *
 * Routes are cheap value types; the aging state lives in the Device.
 * Binding resolves every ResourceId to its dense element once, so
 * delay queries are flat pointer walks with no hashing or locking.
 */
class Route
{
  public:
    Route(Device &device, RouteSpec spec);

    /** The placement skeleton. */
    const RouteSpec &spec() const { return spec_; }

    /** Net name. */
    const std::string &name() const { return spec_.name; }

    /** Number of elements. */
    std::size_t size() const { return spec_.size(); }

    /** Sum of un-aged element delays for a polarity. */
    double baseDelayPs(phys::Transition t) const;

    /** Present delay including BTI and temperature. */
    double delayPs(phys::Transition t, double temp_k) const;

    /**
     * The pure BTI-induced delay shift for a polarity, in ps, at the
     * reference temperature (diagnostic; the TDC never sees this
     * directly).
     */
    double btiShiftPs(phys::Transition t) const;

    /** Device this route is bound to. */
    Device &device() { return *device_; }
    const Device &device() const { return *device_; }

  private:
    /** Replay pending aging segments before reading delays. */
    void syncForRead() const;

    Device *device_;
    RouteSpec spec_;
    /** Dense element pointers resolved at bind time (stable: the
     *  device's slab never relocates elements). */
    std::vector<RoutingElement *> elements_;
    /** Matching dense handles (for the pre-read lazy-aging sync). */
    std::vector<ElementHandle> handles_;
    /** Device state epoch the elements were last synced at: delay
     *  queries skip the per-element sync scan entirely while the
     *  device has not moved. */
    mutable std::uint64_t synced_epoch_;
};

} // namespace pentimento::fabric

#endif // PENTIMENTO_FABRIC_ROUTE_HPP
