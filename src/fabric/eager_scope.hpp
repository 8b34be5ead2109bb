/**
 * @file
 * Test seam for the eager materialisation reference path.
 *
 * A Device defers a configured element's BTI imprint in its activity
 * journal and materialises the element at first observation. The
 * equivalence tests need the pre-journal behaviour — every configured
 * element materialised at design load — as the reference the lazy
 * path must match bit for bit. That reference is not a configuration
 * anyone runs, so it is not a DeviceConfig field: a Device latches
 * whether a scope is open once, in its constructor. A scope therefore
 * reaches devices built deep inside CloudPlatform, FpgaInstance or
 * core::runTenancyChurn without a parameter.
 *
 * Only tests open a scope. CI fails if this seam is named anywhere
 * but tests/, this header and fabric/device.cpp.
 */

#ifndef PENTIMENTO_FABRIC_EAGER_SCOPE_HPP
#define PENTIMENTO_FABRIC_EAGER_SCOPE_HPP

#include <atomic>

namespace pentimento::fabric::testing {

/** While alive, every newly constructed Device materialises eagerly. */
class EagerMaterialisationScope
{
  public:
    /** Open a scope. `enabled = false` opens none, so one code path
     *  can run both sides of an eager/lazy comparison. */
    explicit EagerMaterialisationScope(bool enabled = true)
        : enabled_(enabled)
    {
        if (enabled_) {
            ++depth();
        }
    }

    ~EagerMaterialisationScope()
    {
        if (enabled_) {
            --depth();
        }
    }

    EagerMaterialisationScope(const EagerMaterialisationScope &) = delete;
    EagerMaterialisationScope &
    operator=(const EagerMaterialisationScope &) = delete;

    /** True while any scope is open (process-wide: a Device built on
     *  a pool thread sees a scope its test thread opened). */
    static bool active() { return depth() > 0; }

  private:
    static std::atomic<int> &
    depth()
    {
        static std::atomic<int> open{0};
        return open;
    }

    bool enabled_;
};

} // namespace pentimento::fabric::testing

#endif // PENTIMENTO_FABRIC_EAGER_SCOPE_HPP
