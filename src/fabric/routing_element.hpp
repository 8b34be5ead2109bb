/**
 * @file
 * One transistor-bearing fabric element.
 *
 * A routing element stands for a programmable interconnect segment
 * (pass-transistor mux plus buffer) or one carry-chain stage. It owns
 * its base rise/fall delays (with frozen process variation) and its
 * BTI aging state — the aging state is the physical medium of the
 * pentimento.
 */

#ifndef PENTIMENTO_FABRIC_ROUTING_ELEMENT_HPP
#define PENTIMENTO_FABRIC_ROUTING_ELEMENT_HPP

#include <cstdint>

#include "fabric/resource.hpp"
#include "phys/aging.hpp"
#include "phys/delay_model.hpp"
#include "phys/variation.hpp"

namespace pentimento::fabric {

/** What a configured design does with an element over an interval. */
enum class Activity
{
    Unused, ///< not configured: both transistors recover
    Hold0,  ///< statically holds logic 0 (NBTI stress on PMOS)
    Hold1,  ///< statically holds logic 1 (PBTI stress on NMOS)
    Toggle  ///< carries switching data (AC stress on both)
};

/** Activity plus its duty parameter. */
struct ElementActivity
{
    Activity kind = Activity::Unused;
    /** For Toggle: fraction of time at logic 1. */
    double duty_one = 0.5;

    bool
    operator==(const ElementActivity &other) const
    {
        return kind == other.kind && duty_one == other.duty_one;
    }
};

/**
 * A single physical element: delays + aging.
 */
class RoutingElement
{
  public:
    /**
     * @param id physical identity
     * @param base_rise_ps un-aged rising-edge delay (variation baked in)
     * @param base_fall_ps un-aged falling-edge delay
     * @param variation frozen per-element multipliers
     * @param fresh_scale device-age derating of BTI susceptibility
     */
    RoutingElement(ResourceId id, double base_rise_ps, double base_fall_ps,
                   const phys::ElementVariation &variation,
                   double fresh_scale);

    /** Physical identity. */
    const ResourceId &id() const { return id_; }

    /** Un-aged delay for a polarity. */
    double basePs(phys::Transition t) const;

    /**
     * Present delay for a polarity, including BTI shift and
     * temperature.
     */
    double delayPs(const phys::BtiParams &bti, const phys::DelayParams &dp,
                   phys::Transition t, double temp_k) const;

    /**
     * delayPs with the polarity's temperature factor precomputed (the
     * per-element form of a route sweep at one temperature).
     * Header-inline: this is THE per-element operation of every route
     * walk and TDC arrival recompute.
     */
    double
    delayPsFactored(const phys::BtiParams &bti,
                    const phys::DelayParams &dp, phys::Transition t,
                    double temp_factor) const
    {
        const phys::TransistorType limiter =
            phys::limitingTransistor(t);
        const double dvth = aging_.deltaVth(bti, limiter);
        return phys::agedDelayPsFactored(dp, basePs(t), dvth,
                                         temp_factor);
    }

    /**
     * delayPsFactored with the limiting transistor's ΔVth already
     * known — the form walks take when the ΔVth epoch cache hits, so
     * the BTI power law is skipped entirely. Bit-identical to
     * delayPsFactored when dvth_v is the cached deltaVth value.
     */
    double
    delayPsCached(const phys::DelayParams &dp, phys::Transition t,
                  double dvth_v, double temp_factor) const
    {
        return phys::agedDelayPsFactored(dp, basePs(t), dvth_v,
                                         temp_factor);
    }

    /** Both transistors' ΔVth (fills one ΔVth cache entry). */
    void
    deltaVthPair(const phys::BtiParams &bti, double &nmos_v,
                 double &pmos_v) const
    {
        aging_.deltaVthPair(bti, nmos_v, pmos_v);
    }

    /**
     * Age the element under an activity, given effective stress and
     * recovery hours (duration·accel for one timeline segment, or
     * Σ duration·accel pre-reduced over a constant-activity run). The
     * device's replay is the only engine caller; Toggle reads only
     * the stress hours and Unused only the recovery hours.
     */
    void age(const phys::BtiParams &bti, const ElementActivity &activity,
             double stress_eff_h, double recovery_eff_h);

    /** Threshold shift of one transistor (volts). */
    double deltaVth(const phys::BtiParams &bti,
                    phys::TransistorType type) const;

    /** Mutable aging state (tests, pre-wear injection). */
    phys::ElementAging &aging() { return aging_; }

    /** Aging state, read-only. */
    const phys::ElementAging &aging() const { return aging_; }

  private:
    // Deliberately no lazy-timeline bookkeeping here: the device
    // keeps it in handle-indexed side arrays so the element stays a
    // single cache line for the dense measurement walks.
    ResourceId id_;
    double base_rise_ps_;
    double base_fall_ps_;
    phys::ElementAging aging_;
};

} // namespace pentimento::fabric

#endif // PENTIMENTO_FABRIC_ROUTING_ELEMENT_HPP
