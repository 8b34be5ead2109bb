#include "phys/bti.hpp"

#include <cmath>

#include "util/logging.hpp"
#include "util/units.hpp"

namespace pentimento::phys {

BtiParams
BtiParams::ultrascalePlus()
{
    BtiParams p;
    // Calibrated so a 1000 ps route on a new device at 60 C develops
    // a falling-minus-rising contrast of ~ +1.05 ps (burn 1 / PBTI)
    // or ~ -1.26 ps (burn 0 / NBTI) after 200 h — matching the
    // Figure 6 envelopes, which scale ~1 ps per ns of route — and so
    // that §6.1's recovery asymmetry holds *as an observable*:
    //
    //  - a burn-1 route switched to 0 returns to ∆ps = 0 in 30-50 h:
    //    moderate PBTI relaxation plus the stronger fresh NBTI accrual
    //    on the freshly-stressed PMOS side;
    //  - a burn-0 route switched to 1 needs > 200 h: NBTI relaxes
    //    slowly (deep quasi-permanent component) and the weaker fresh
    //    PBTI cannot cancel it until well past 200 h.
    //
    // NBTI is the stronger mechanism (paper §1) and, on the paper's
    // 16 nm FinFET parts, the slower one to fade (§6.1: "fundamental
    // difference between the NBTI and PBTI effect").
    p.nbti.prefactor_v = 1.42e-4;
    p.nbti.time_exponent = 0.25;
    p.nbti.recovery_tau_h = 120.0;
    p.nbti.permanent_fraction = 0.84;

    p.pbti.prefactor_v = 1.18e-4;
    p.pbti.time_exponent = 0.25;
    p.pbti.recovery_tau_h = 40.0;
    p.pbti.permanent_fraction = 0.60;

    p.stress_activation_ev = 0.8;
    p.recovery_activation_ev = 0.8;
    p.reference_temp_k = util::celsiusToKelvin(60.0);
    return p;
}

double
arrheniusAccel(double activation_ev, double temp_k, double ref_k)
{
    if (temp_k <= 0.0 || ref_k <= 0.0) {
        util::fatal("arrheniusAccel: non-positive absolute temperature");
    }
    return std::exp(activation_ev / util::kBoltzmannEv *
                    (1.0 / ref_k - 1.0 / temp_k));
}

AgingStepContext::AgingStepContext(const BtiParams &params,
                                   double temperature_k)
    : stress_accel(arrheniusAccel(params.stress_activation_ev,
                                  temperature_k,
                                  params.reference_temp_k)),
      // Equal activation energies (the calibrated default) make the
      // two factors the same exp(): reuse it instead of recomputing —
      // bit-identical, and the cloud walk constructs one context per
      // ambient event per board.
      recovery_accel(
          params.recovery_activation_ev == params.stress_activation_ev
              ? stress_accel
              : arrheniusAccel(params.recovery_activation_ev,
                               temperature_k,
                               params.reference_temp_k))
{
}

const AgingStepContext &
StepContextCache::get(const BtiParams &params, double temp_k)
{
    if (params_ != &params || temp_k_ != temp_k) {
        ctx_ = AgingStepContext(params, temp_k);
        params_ = &params;
        temp_k_ = temp_k;
        ++misses_;
    }
    return ctx_;
}

void
BtiState::applyStress(const MechanismParams &p, double scale,
                      double dt_eff_h)
{
    if (dt_eff_h < 0.0) {
        util::fatal("BtiState::applyStress: negative time step");
    }
    if (dt_eff_h == 0.0) {
        return;
    }
    if (recovery_eff_h_ > 0.0) {
        // Collapse the partially recovered shift into the equivalent
        // stress time so renewed stress continues from the present
        // ΔVth rather than the pre-recovery one.
        const double dv = deltaVth(p, scale);
        const double a = scale * p.prefactor_v;
        if (a > 0.0 && dv > 0.0) {
            stress_eff_h_ = std::pow(dv / a, 1.0 / p.time_exponent);
        } else {
            stress_eff_h_ = 0.0;
        }
        recovery_eff_h_ = 0.0;
    }
    stress_eff_h_ += dt_eff_h;
}

void
BtiState::applyRecovery(const MechanismParams &p, double dt_eff_h)
{
    (void)p;
    if (dt_eff_h < 0.0) {
        util::fatal("BtiState::applyRecovery: negative time step");
    }
    if (stress_eff_h_ == 0.0) {
        return; // nothing to recover
    }
    recovery_eff_h_ += dt_eff_h;
}

double
BtiState::deltaVthStressed(const MechanismParams &p, double scale) const
{
    const double raw =
        scale * p.prefactor_v * std::pow(stress_eff_h_, p.time_exponent);
    if (recovery_eff_h_ <= 0.0) {
        return raw;
    }
    const double recoverable = (1.0 - p.permanent_fraction) /
                               (1.0 + recovery_eff_h_ / p.recovery_tau_h);
    return raw * (p.permanent_fraction + recoverable);
}

double
DeviceAgeModel::freshStressScale(double age_hours) const
{
    if (age_hours < 0.0) {
        util::fatal("DeviceAgeModel: negative age");
    }
    return std::pow(1.0 + age_hours / tau_age_h, -exponent);
}

} // namespace pentimento::phys
