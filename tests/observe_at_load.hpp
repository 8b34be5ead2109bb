/**
 * @file
 * Observation-at-load yardstick for the journal equivalence tests.
 *
 * A Device journals a configured element's activity flips and builds
 * the element only when something first observes it. The contract
 * that makes this deferral legal: the time of first observation never
 * changes an aged delay. These tests check it by running one scenario
 * on two default devices and comparing every output bitwise. One is
 * observed late, as the scenario reads it. On the other, the test
 * calls observeResident() after each load, wipe, in-place mutation
 * and advance, so every configured element is built the moment it is
 * configured and carries at most one journal run. A fault in
 * multi-run journal replay therefore shows on the late side only.
 */

#ifndef PENTIMENTO_TESTS_OBSERVE_AT_LOAD_HPP
#define PENTIMENTO_TESTS_OBSERVE_AT_LOAD_HPP

#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "fabric/resource.hpp"

namespace pentimento::observe_at_load {

/** Bind every element the resident design configures (a no-op when
 *  no design is loaded). Binding is an observation: it builds the
 *  element and consumes its journal runs. */
inline void
observeResident(fabric::Device &device)
{
    const fabric::Design *design = device.currentDesign();
    if (design == nullptr) {
        return;
    }
    for (const auto &[key, activity] : design->activityMap()) {
        (void)activity;
        (void)device.bindElement(fabric::ResourceId::fromKey(key));
    }
}

} // namespace pentimento::observe_at_load

#endif // PENTIMENTO_TESTS_OBSERVE_AT_LOAD_HPP
