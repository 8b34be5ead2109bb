#include "fabric/routing_element.hpp"

#include "util/logging.hpp"

namespace pentimento::fabric {

RoutingElement::RoutingElement(ResourceId id, double base_rise_ps,
                               double base_fall_ps,
                               const phys::ElementVariation &variation,
                               double fresh_scale)
    : id_(id), base_rise_ps_(base_rise_ps * variation.rise_mult),
      base_fall_ps_(base_fall_ps * variation.fall_mult)
{
    if (base_rise_ps <= 0.0 || base_fall_ps <= 0.0) {
        util::fatal("RoutingElement: non-positive base delay");
    }
    aging_.setScale(variation.bti_mult * fresh_scale);
}

double
RoutingElement::basePs(phys::Transition t) const
{
    return t == phys::Transition::Rising ? base_rise_ps_ : base_fall_ps_;
}

double
RoutingElement::delayPs(const phys::BtiParams &bti,
                        const phys::DelayParams &dp, phys::Transition t,
                        double temp_k) const
{
    return delayPsFactored(bti, dp, t, dp.temperatureFactor(t, temp_k));
}

void
RoutingElement::age(const phys::BtiParams &bti,
                    const ElementActivity &activity, double stress_eff_h,
                    double recovery_eff_h)
{
    switch (activity.kind) {
      case Activity::Hold0:
        aging_.holdStaticEffective(bti, false, stress_eff_h,
                                   recovery_eff_h);
        break;
      case Activity::Hold1:
        aging_.holdStaticEffective(bti, true, stress_eff_h,
                                   recovery_eff_h);
        break;
      case Activity::Toggle:
        aging_.holdTogglingEffective(bti, activity.duty_one,
                                     stress_eff_h);
        break;
      case Activity::Unused:
        aging_.releaseEffective(bti, recovery_eff_h);
        break;
    }
}

double
RoutingElement::deltaVth(const phys::BtiParams &bti,
                         phys::TransistorType type) const
{
    return aging_.deltaVth(bti, type);
}

} // namespace pentimento::fabric
