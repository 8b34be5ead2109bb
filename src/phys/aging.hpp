/**
 * @file
 * Per-element aging aggregate.
 *
 * An FPGA routing element is modelled as a complementary PMOS/NMOS
 * pair; ElementAging bundles the two BtiStates with the per-element
 * susceptibility scale and exposes the three ways a resource spends
 * simulated time: statically holding a value (the paper's burn-in
 * condition), toggling (Arithmetic Heavy style activity), or released
 * (unconfigured / wiped). Each takes effective stress/recovery hours;
 * the temperature dependence lives in phys::AgingStepContext, applied
 * by the caller.
 */

#ifndef PENTIMENTO_PHYS_AGING_HPP
#define PENTIMENTO_PHYS_AGING_HPP

#include "phys/bti.hpp"

namespace pentimento::phys {

/**
 * Combined NBTI/PBTI aging state of one routing element.
 */
class ElementAging
{
  public:
    /** Set the per-element susceptibility (variation * device age). */
    void setScale(double scale) { scale_ = scale; }

    /** Per-element susceptibility multiplier. */
    double scale() const { return scale_; }

    /**
     * Hold a static logic value. The stressed transistor accrues
     * stress_eff_h effective stress hours; the complementary one
     * accrues recovery_eff_h effective recovery hours.
     *
     * Every mutator takes *effective* hours (wall-clock duration
     * times the Arrhenius acceleration of phys::AgingStepContext),
     * so one call applies a single segment (duration·accel) or a
     * whole pre-reduced run of constant-activity segments
     * (Σ duration·accel) alike.
     */
    void holdStaticEffective(const BtiParams &p, bool value,
                             double stress_eff_h, double recovery_eff_h);

    /**
     * Carry a toggling signal: the NMOS accrues duty_one of the
     * effective stress hours and the PMOS the rest.
     *
     * @param duty_one fraction of time the signal is at logic 1
     */
    void holdTogglingEffective(const BtiParams &p, double duty_one,
                               double stress_eff_h);

    /**
     * Element unconfigured (design wiped / slice left empty): both
     * transistors recover.
     */
    void releaseEffective(const BtiParams &p, double recovery_eff_h);

    /** Threshold shift of the chosen transistor, in volts.
     *  Header-inline: innermost call of every aged-delay read. */
    double
    deltaVth(const BtiParams &p, TransistorType type) const
    {
        if (type == TransistorType::Nmos) {
            return nmos_.deltaVth(p.pbti, scale_);
        }
        return pmos_.deltaVth(p.nbti, scale_);
    }

    /**
     * Both transistors' threshold shifts in one call — the form the
     * ΔVth epoch cache fills. Each value is bit-identical to the
     * corresponding deltaVth(p, type) call.
     */
    void
    deltaVthPair(const BtiParams &p, double &nmos_v, double &pmos_v) const
    {
        nmos_v = nmos_.deltaVth(p.pbti, scale_);
        pmos_v = pmos_.deltaVth(p.nbti, scale_);
    }

    /** Direct access for tests and persistence. */
    const BtiState &state(TransistorType type) const;

    /** Mutable access for checkpoint restore. */
    BtiState &
    state(TransistorType type)
    {
        return type == TransistorType::Nmos ? nmos_ : pmos_;
    }

  private:
    BtiState nmos_;
    BtiState pmos_;
    double scale_ = 1.0;
};

} // namespace pentimento::phys

#endif // PENTIMENTO_PHYS_AGING_HPP
