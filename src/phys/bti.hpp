/**
 * @file
 * Bias temperature instability (BTI) kinetics.
 *
 * This is the analog mechanism behind "FPGA pentimenti" (paper §3):
 *
 *  - a CMOS transistor whose gate is stressed accumulates a threshold
 *    voltage shift ΔVth that grows as a saturating power law of
 *    effective stress time;
 *  - NBTI stresses PMOS transistors while they see a logic 0, PBTI
 *    stresses NMOS transistors while they see a logic 1;
 *  - removing the stress partially reverses the shift; a sizeable
 *    quasi-permanent component remains on experimental timescales.
 *    On the UltraScale+ 16 nm FinFET parts the paper measures, the
 *    *observable* burn-1 pentimento fades within 30-50 hours while
 *    the burn-0 pentimento persists beyond 200 hours (§6.1); in this
 *    model that asymmetry emerges from NBTI being both stronger and
 *    slower to relax than PBTI;
 *  - both stress accrual and recovery accelerate with temperature
 *    (Arrhenius).
 *
 * The model keeps, per transistor, an *effective stress time* and an
 * *effective recovery time*. ΔVth is
 *
 *     dVth = scale * A * s^n * (P + (1 - P) / (1 + r / tau))
 *
 * with s the effective stress hours, r the effective recovery hours
 * since stress last ended, P the permanent fraction, and `scale` a
 * per-element multiplier combining process variation and device-age
 * derating. The recoverable part halves after tau effective recovery
 * hours. Re-stressing collapses the recovered state back into an
 * equivalent stress time, so stress/recover cycles compose sensibly.
 *
 * Calibration note: prefactors are fitted so a fresh device at 60 °C
 * reproduces the paper's Figure 6 envelopes (±[1,2] ps on a 1000 ps
 * route after 200 h, scaling linearly in route length); they are not
 * transferable silicon constants.
 */

#ifndef PENTIMENTO_PHYS_BTI_HPP
#define PENTIMENTO_PHYS_BTI_HPP

#include <cstdint>

namespace pentimento::phys {

/** The two transistor types in a CMOS pair. */
enum class TransistorType
{
    Nmos,
    Pmos
};

/** The two BTI mechanisms. */
enum class BtiMechanism
{
    Nbti, ///< negative BTI: stresses PMOS while gate sees logic 0
    Pbti  ///< positive BTI: stresses NMOS while gate sees logic 1
};

/** Mechanism that degrades the given transistor type. */
constexpr BtiMechanism
mechanismFor(TransistorType type)
{
    return type == TransistorType::Pmos ? BtiMechanism::Nbti
                                        : BtiMechanism::Pbti;
}

/** Transistor type degraded by the given mechanism. */
constexpr TransistorType
transistorFor(BtiMechanism mech)
{
    return mech == BtiMechanism::Nbti ? TransistorType::Pmos
                                      : TransistorType::Nmos;
}

/**
 * True when a held logic value stresses the given transistor type.
 *
 * A route held at logic 1 stresses its NMOS pass devices (PBTI); a
 * route held at logic 0 stresses its PMOS devices (NBTI).
 */
constexpr bool
valueStresses(bool logic_value, TransistorType type)
{
    return logic_value ? type == TransistorType::Nmos
                       : type == TransistorType::Pmos;
}

/** Kinetic constants of one BTI mechanism. */
struct MechanismParams
{
    /** ΔVth in volts after one effective stress hour (at scale 1). */
    double prefactor_v = 0.0;
    /** Power-law time exponent n. */
    double time_exponent = 0.17;
    /** Recovery half-life style constant tau (effective hours). */
    double recovery_tau_h = 50.0;
    /** Fraction of the shift that never recovers. */
    double permanent_fraction = 0.05;
};

/** Full BTI parameter set for a device family. */
struct BtiParams
{
    MechanismParams nbti;
    MechanismParams pbti;

    /**
     * Activation energy (eV) applied to *stress time* accumulation.
     *
     * Because ΔVth ~ t^n, the apparent activation energy at the ΔVth
     * level is n * Ea; the default yields a ~2.4x ΔVth swing between
     * 25 °C and 85 °C, consistent with the modest-but-real thermal
     * acceleration the paper leans on (§5.1 Arithmetic Heavy heating).
     */
    double stress_activation_ev = 0.8;
    /** Activation energy (eV) for recovery-time accumulation. */
    double recovery_activation_ev = 0.8;
    /** Temperature at which effective hours equal wall-clock hours. */
    double reference_temp_k = 333.15; // 60 C, the paper's oven

    /**
     * Calibration for a Virtex/Zynq UltraScale+ 16 nm part, fitted to
     * the paper's Experiment 1 (new ZCU102, 60 C oven).
     */
    static BtiParams ultrascalePlus();
};

/** Arrhenius acceleration factor relative to a reference temperature. */
double arrheniusAccel(double activation_ev, double temp_k, double ref_k);

/**
 * Per-step kinetics context.
 *
 * The Arrhenius acceleration factors depend only on (params, temp_k),
 * never on the element, so an aging sweep computes them once and
 * shares the context across every element instead of paying two
 * exp() calls per element per step.
 */
struct AgingStepContext
{
    /** Effective-hours multiplier for stress accrual. */
    double stress_accel = 1.0;
    /** Effective-hours multiplier for recovery accrual. */
    double recovery_accel = 1.0;

    AgingStepContext() = default;
    AgingStepContext(const BtiParams &params, double temperature_k);

    /** Same acceleration pair (used to coalesce timeline segments). */
    bool
    operator==(const AgingStepContext &other) const
    {
        return stress_accel == other.stress_accel &&
               recovery_accel == other.recovery_accel;
    }
};

/**
 * Memo of the last AgingStepContext by (params identity, temperature).
 *
 * A device steps at one temperature for hours at a time (ovens pin it
 * outright; the package model changes it only when the ambient or the
 * dissipated power moves), so consecutive advance() calls would
 * otherwise recompute the same two exp() factors. The cache compares
 * the parameter block by address and the temperature bitwise, which
 * is exact: a hit returns the identical context a fresh construction
 * would produce.
 */
class StepContextCache
{
  public:
    /** Context for (params, temp_k), recomputed only on change. */
    const AgingStepContext &get(const BtiParams &params, double temp_k);

    /** Number of cache misses so far (tests / diagnostics). */
    std::uint64_t misses() const { return misses_; }

  private:
    const BtiParams *params_ = nullptr;
    double temp_k_ = 0.0;
    AgingStepContext ctx_;
    std::uint64_t misses_ = 0;
};

/**
 * Aging state of a single transistor.
 *
 * The state is intentionally tiny (two doubles) because a simulated
 * device instantiates one per transistor across the whole fabric.
 */
class BtiState
{
  public:
    /**
     * Accrue stress.
     *
     * Any outstanding recovery is first collapsed into an equivalent
     * stress time so the power law resumes from the current ΔVth.
     *
     * @param p mechanism constants
     * @param scale per-element prefactor multiplier (variation * age)
     * @param dt_eff_h effective stress hours (wall hours * Arrhenius
     *        factor * duty)
     */
    void applyStress(const MechanismParams &p, double scale,
                     double dt_eff_h);

    /**
     * Accrue recovery (transistor unstressed).
     *
     * @param p mechanism constants
     * @param dt_eff_h effective recovery hours
     */
    void applyRecovery(const MechanismParams &p, double dt_eff_h);

    /**
     * Present threshold shift in volts. Header-inline: the pristine
     * early-out makes un-aged elements nearly free on route walks.
     */
    double
    deltaVth(const MechanismParams &p, double scale) const
    {
        if (stress_eff_h_ <= 0.0) {
            return 0.0;
        }
        return deltaVthStressed(p, scale);
    }

    /** Accumulated effective stress hours. */
    double stressHours() const { return stress_eff_h_; }

    /** Effective recovery hours since stress last ended. */
    double recoveryHours() const { return recovery_eff_h_; }

    /** True when the transistor has never been stressed. */
    bool pristine() const { return stress_eff_h_ == 0.0; }

    /** Restore checkpointed effective hours bit-exactly. */
    void
    restoreHours(double stress_eff_h, double recovery_eff_h)
    {
        stress_eff_h_ = stress_eff_h;
        recovery_eff_h_ = recovery_eff_h;
    }

  private:
    /** deltaVth's slow path (pow + recovery window). */
    double deltaVthStressed(const MechanismParams &p,
                            double scale) const;

    double stress_eff_h_ = 0.0;
    double recovery_eff_h_ = 0.0;
};

/**
 * Derating of *fresh* BTI contrast on an already-worn device.
 *
 * Cloud FPGAs are years old; the paper observes roughly 5-10x smaller
 * burn-in amplitudes on AWS F1 than on the factory-new ZCU102
 * (Figure 7 vs Figure 6) and attributes it to device age. We model the
 * reduced availability of fresh traps as a multiplicative derating of
 * the stress prefactor:
 *
 *     scale(age) = (1 + age_h / tau_age)^(-m)
 *
 * calibrated to ~0.36 after one year and ~0.15 after four years of
 * service.
 */
struct DeviceAgeModel
{
    double tau_age_h = 3000.0;
    double exponent = 0.75;

    /** Fresh-stress prefactor multiplier for a device of given age. */
    double freshStressScale(double age_hours) const;
};

} // namespace pentimento::phys

#endif // PENTIMENTO_PHYS_BTI_HPP
