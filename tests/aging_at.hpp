/**
 * @file
 * Wall-clock aging helpers for the unit tests.
 *
 * The element aging API takes effective stress/recovery hours. These
 * helpers age for dt_h wall-clock hours at one die temperature,
 * converting exactly as the device's per-segment replay does:
 * effective hours = dt_h x the temperature's Arrhenius acceleration.
 */

#ifndef PENTIMENTO_TESTS_AGING_AT_HPP
#define PENTIMENTO_TESTS_AGING_AT_HPP

#include "fabric/routing_element.hpp"
#include "phys/aging.hpp"
#include "phys/bti.hpp"

namespace pentimento::aging_at {

inline void
holdStatic(phys::ElementAging &aging, const phys::BtiParams &p, bool value,
           double temp_k, double dt_h)
{
    const phys::AgingStepContext ctx(p, temp_k);
    aging.holdStaticEffective(p, value, dt_h * ctx.stress_accel,
                              dt_h * ctx.recovery_accel);
}

inline void
holdToggling(phys::ElementAging &aging, const phys::BtiParams &p,
             double duty_one, double temp_k, double dt_h)
{
    const phys::AgingStepContext ctx(p, temp_k);
    aging.holdTogglingEffective(p, duty_one, dt_h * ctx.stress_accel);
}

inline void
release(phys::ElementAging &aging, const phys::BtiParams &p, double temp_k,
        double dt_h)
{
    const phys::AgingStepContext ctx(p, temp_k);
    aging.releaseEffective(p, dt_h * ctx.recovery_accel);
}

inline void
age(fabric::RoutingElement &elem, const phys::BtiParams &p,
    const fabric::ElementActivity &activity, double temp_k, double dt_h)
{
    const phys::AgingStepContext ctx(p, temp_k);
    elem.age(p, activity, dt_h * ctx.stress_accel,
             dt_h * ctx.recovery_accel);
}

} // namespace pentimento::aging_at

#endif // PENTIMENTO_TESTS_AGING_AT_HPP
