#include "phys/aging.hpp"

#include "util/logging.hpp"

namespace pentimento::phys {

void
ElementAging::holdStaticEffective(const BtiParams &p, bool value,
                                  double stress_eff_h,
                                  double recovery_eff_h)
{
    if (value) {
        // Logic 1 stresses NMOS pass devices (PBTI); the PMOS side
        // recovers.
        nmos_.applyStress(p.pbti, scale_, stress_eff_h);
        pmos_.applyRecovery(p.nbti, recovery_eff_h);
    } else {
        pmos_.applyStress(p.nbti, scale_, stress_eff_h);
        nmos_.applyRecovery(p.pbti, recovery_eff_h);
    }
}

void
ElementAging::holdTogglingEffective(const BtiParams &p, double duty_one,
                                    double stress_eff_h)
{
    if (duty_one < 0.0 || duty_one > 1.0) {
        util::fatal(
            "ElementAging::holdTogglingEffective: duty outside [0,1]");
    }
    // A toggling node spends duty_one of the interval stressing the
    // NMOS and the rest stressing the PMOS. Interleaved micro-recovery
    // during the opposite half-cycles is folded into the effective
    // stress times (AC stress factor).
    nmos_.applyStress(p.pbti, scale_, stress_eff_h * duty_one);
    pmos_.applyStress(p.nbti, scale_, stress_eff_h * (1.0 - duty_one));
}

void
ElementAging::releaseEffective(const BtiParams &p, double recovery_eff_h)
{
    nmos_.applyRecovery(p.pbti, recovery_eff_h);
    pmos_.applyRecovery(p.nbti, recovery_eff_h);
}

const BtiState &
ElementAging::state(TransistorType type) const
{
    return type == TransistorType::Nmos ? nmos_ : pmos_;
}

} // namespace pentimento::phys
