/**
 * @file
 * Unit and property tests for the physics module: BTI kinetics,
 * delay sensitivity, thermal models, process variation, device aging.
 */

#include <gtest/gtest.h>

#include "phys/aging.hpp"
#include "phys/bti.hpp"
#include "phys/delay_model.hpp"
#include "phys/thermal.hpp"
#include "phys/variation.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

#include "aging_at.hpp"

namespace pa = pentimento::aging_at;
namespace pp = pentimento::phys;
namespace pu = pentimento::util;

namespace {

pp::BtiParams
params()
{
    return pp::BtiParams::ultrascalePlus();
}

} // namespace

// -------------------------------------------------------- mechanisms

TEST(Mechanism, MappingBetweenTransistorsAndMechanisms)
{
    EXPECT_EQ(pp::mechanismFor(pp::TransistorType::Pmos),
              pp::BtiMechanism::Nbti);
    EXPECT_EQ(pp::mechanismFor(pp::TransistorType::Nmos),
              pp::BtiMechanism::Pbti);
    EXPECT_EQ(pp::transistorFor(pp::BtiMechanism::Nbti),
              pp::TransistorType::Pmos);
    EXPECT_EQ(pp::transistorFor(pp::BtiMechanism::Pbti),
              pp::TransistorType::Nmos);
}

TEST(Mechanism, ValueStressPolarity)
{
    // Logic 1 stresses NMOS (PBTI); logic 0 stresses PMOS (NBTI).
    EXPECT_TRUE(pp::valueStresses(true, pp::TransistorType::Nmos));
    EXPECT_FALSE(pp::valueStresses(true, pp::TransistorType::Pmos));
    EXPECT_TRUE(pp::valueStresses(false, pp::TransistorType::Pmos));
    EXPECT_FALSE(pp::valueStresses(false, pp::TransistorType::Nmos));
}

TEST(BtiParams, NbtiStrongerThanPbti)
{
    const pp::BtiParams p = params();
    EXPECT_GT(p.nbti.prefactor_v, p.pbti.prefactor_v);
}

TEST(BtiParams, NbtiSlowerToRecover)
{
    const pp::BtiParams p = params();
    EXPECT_GT(p.nbti.recovery_tau_h, p.pbti.recovery_tau_h);
    EXPECT_GT(p.nbti.permanent_fraction, p.pbti.permanent_fraction);
}

// --------------------------------------------------------- arrhenius

TEST(Arrhenius, UnityAtReference)
{
    EXPECT_DOUBLE_EQ(pp::arrheniusAccel(0.8, 333.15, 333.15), 1.0);
}

TEST(Arrhenius, AcceleratesAboveReference)
{
    EXPECT_GT(pp::arrheniusAccel(0.8, 358.15, 333.15), 1.0);
    EXPECT_LT(pp::arrheniusAccel(0.8, 298.15, 333.15), 1.0);
}

TEST(Arrhenius, MonotoneInTemperature)
{
    double prev = 0.0;
    for (double t = 280.0; t <= 380.0; t += 10.0) {
        const double a = pp::arrheniusAccel(0.8, t, 333.15);
        EXPECT_GT(a, prev);
        prev = a;
    }
}

TEST(Arrhenius, ZeroActivationIsFlat)
{
    EXPECT_DOUBLE_EQ(pp::arrheniusAccel(0.0, 300.0, 350.0), 1.0);
}

TEST(Arrhenius, FatalOnNonPositiveTemperature)
{
    EXPECT_THROW(pp::arrheniusAccel(0.8, -1.0, 300.0), pu::FatalError);
    EXPECT_THROW(pp::arrheniusAccel(0.8, 300.0, 0.0), pu::FatalError);
}

// ---------------------------------------------------------- BtiState

TEST(BtiState, PristineHasNoShift)
{
    const pp::BtiState state;
    EXPECT_TRUE(state.pristine());
    EXPECT_DOUBLE_EQ(state.deltaVth(params().nbti, 1.0), 0.0);
}

TEST(BtiState, StressRaisesShift)
{
    pp::BtiState state;
    state.applyStress(params().nbti, 1.0, 10.0);
    EXPECT_GT(state.deltaVth(params().nbti, 1.0), 0.0);
    EXPECT_FALSE(state.pristine());
}

TEST(BtiState, StressMonotoneInTime)
{
    pp::BtiState state;
    double prev = 0.0;
    for (int i = 0; i < 20; ++i) {
        state.applyStress(params().nbti, 1.0, 5.0);
        const double dv = state.deltaVth(params().nbti, 1.0);
        EXPECT_GT(dv, prev);
        prev = dv;
    }
}

TEST(BtiState, PowerLawIsSublinear)
{
    pp::BtiState a, b;
    a.applyStress(params().nbti, 1.0, 100.0);
    b.applyStress(params().nbti, 1.0, 200.0);
    const double dv_a = a.deltaVth(params().nbti, 1.0);
    const double dv_b = b.deltaVth(params().nbti, 1.0);
    EXPECT_LT(dv_b, 2.0 * dv_a);
    EXPECT_GT(dv_b, dv_a);
}

TEST(BtiState, IncrementalStressEqualsBulk)
{
    pp::BtiState inc, bulk;
    for (int i = 0; i < 100; ++i) {
        inc.applyStress(params().pbti, 1.0, 2.0);
    }
    bulk.applyStress(params().pbti, 1.0, 200.0);
    EXPECT_NEAR(inc.deltaVth(params().pbti, 1.0),
                bulk.deltaVth(params().pbti, 1.0), 1e-12);
}

TEST(BtiState, RecoveryReducesShift)
{
    pp::BtiState state;
    state.applyStress(params().pbti, 1.0, 200.0);
    const double before = state.deltaVth(params().pbti, 1.0);
    state.applyRecovery(params().pbti, 50.0);
    const double after = state.deltaVth(params().pbti, 1.0);
    EXPECT_LT(after, before);
    EXPECT_GT(after, 0.0);
}

TEST(BtiState, RecoveryMonotone)
{
    pp::BtiState state;
    state.applyStress(params().pbti, 1.0, 200.0);
    double prev = state.deltaVth(params().pbti, 1.0);
    for (int i = 0; i < 10; ++i) {
        state.applyRecovery(params().pbti, 20.0);
        const double dv = state.deltaVth(params().pbti, 1.0);
        EXPECT_LT(dv, prev);
        prev = dv;
    }
}

TEST(BtiState, PermanentFractionFloorsRecovery)
{
    const pp::BtiParams p = params();
    pp::BtiState state;
    state.applyStress(p.nbti, 1.0, 200.0);
    const double raw = state.deltaVth(p.nbti, 1.0);
    state.applyRecovery(p.nbti, 1e7);
    EXPECT_GE(state.deltaVth(p.nbti, 1.0),
              0.99 * p.nbti.permanent_fraction * raw);
}

TEST(BtiState, RecoveryOnPristineIsNoOp)
{
    pp::BtiState state;
    state.applyRecovery(params().nbti, 100.0);
    EXPECT_TRUE(state.pristine());
    EXPECT_DOUBLE_EQ(state.deltaVth(params().nbti, 1.0), 0.0);
}

TEST(BtiState, RestressCollapsesRecoveredState)
{
    const pp::BtiParams p = params();
    pp::BtiState state;
    state.applyStress(p.pbti, 1.0, 100.0);
    state.applyRecovery(p.pbti, 100.0);
    const double recovered = state.deltaVth(p.pbti, 1.0);
    state.applyStress(p.pbti, 1.0, 1e-9);
    // Resuming stress continues from the recovered level, not the
    // pre-recovery one.
    EXPECT_NEAR(state.deltaVth(p.pbti, 1.0), recovered, 1e-8);
    EXPECT_DOUBLE_EQ(state.recoveryHours(), 0.0);
}

TEST(BtiState, StressRecoverRestressRecordedValues)
{
    // Recorded bits of one stress -> recover -> re-stress -> recover
    // cycle per mechanism, at a non-unit scale. The collapse turns the
    // recovered shift back into stress hours, so stressHours() after
    // it pins the recovery term and the inverse power law together.
    struct Row
    {
        double stressed;
        double recovered;
        double collapsed_hours;
        double restressed;
        double rerecovered;
    };
    const pp::BtiParams p = params();
    const pp::MechanismParams *mechanisms[] = {&p.nbti, &p.pbti};
    const Row recorded[] = {
        {0x1.da2f198b50f0ep-12, 0x1.c08b9bccce275p-12,
         0x1.e85a456a8be1bp+6, 0x1.cc4c6c8dfab31p-12,
         0x1.97b1677670557p-12},
        {0x1.8a0a4b4fb6a41p-12, 0x1.2ab134a9c720bp-12,
         0x1.cb2ef903017c7p+5, 0x1.3cbad4b690682p-12,
         0x1.99e2b8ec42689p-13},
    };
    const double scale = 0.93;
    for (int k = 0; k < 2; ++k) {
        const pp::MechanismParams &m = *mechanisms[k];
        const Row &want = recorded[k];
        pp::BtiState state;
        state.applyStress(m, scale, 137.5);
        EXPECT_EQ(state.deltaVth(m, scale), want.stressed) << k;
        state.applyRecovery(m, 61.25);
        EXPECT_EQ(state.deltaVth(m, scale), want.recovered) << k;
        state.applyStress(m, scale, 12.0);
        EXPECT_EQ(state.stressHours(), want.collapsed_hours) << k;
        EXPECT_EQ(state.deltaVth(m, scale), want.restressed) << k;
        state.applyRecovery(m, 300.0);
        EXPECT_EQ(state.deltaVth(m, scale), want.rerecovered) << k;
    }
}

TEST(BtiState, ScaleMultipliesShift)
{
    pp::BtiState a, b;
    a.applyStress(params().nbti, 1.0, 50.0);
    b.applyStress(params().nbti, 2.0, 50.0);
    EXPECT_NEAR(b.deltaVth(params().nbti, 2.0),
                2.0 * a.deltaVth(params().nbti, 1.0), 1e-12);
}

TEST(BtiState, NegativeTimeStepsAreFatal)
{
    pp::BtiState state;
    EXPECT_THROW(state.applyStress(params().nbti, 1.0, -1.0),
                 pu::FatalError);
    EXPECT_THROW(state.applyRecovery(params().nbti, -1.0),
                 pu::FatalError);
}

/** Property sweep: kinetics invariants hold for both mechanisms. */
class MechanismSweep
    : public ::testing::TestWithParam<pp::BtiMechanism>
{
  protected:
    const pp::MechanismParams &
    mech() const
    {
        return GetParam() == pp::BtiMechanism::Nbti ? params_.nbti
                                                    : params_.pbti;
    }
    pp::BtiParams params_ = params();
};

TEST_P(MechanismSweep, StressThenFullCycleNeverNegative)
{
    pp::BtiState state;
    for (int cycle = 0; cycle < 5; ++cycle) {
        state.applyStress(mech(), 1.0, 20.0);
        state.applyRecovery(mech(), 15.0);
        EXPECT_GE(state.deltaVth(mech(), 1.0), 0.0);
    }
}

TEST_P(MechanismSweep, RecoveryNeverIncreasesShift)
{
    pp::BtiState state;
    state.applyStress(mech(), 1.0, 100.0);
    double prev = state.deltaVth(mech(), 1.0);
    for (int i = 0; i < 30; ++i) {
        state.applyRecovery(mech(), 7.0);
        const double dv = state.deltaVth(mech(), 1.0);
        EXPECT_LE(dv, prev + 1e-15);
        prev = dv;
    }
}

INSTANTIATE_TEST_SUITE_P(BothMechanisms, MechanismSweep,
                         ::testing::Values(pp::BtiMechanism::Nbti,
                                           pp::BtiMechanism::Pbti));

// ------------------------------------------------------ ElementAging

TEST(ElementAging, Hold1StressesNmosOnly)
{
    pp::ElementAging aging;
    pa::holdStatic(aging, params(), true, 333.15, 100.0);
    EXPECT_GT(aging.deltaVth(params(), pp::TransistorType::Nmos), 0.0);
    EXPECT_DOUBLE_EQ(aging.deltaVth(params(), pp::TransistorType::Pmos),
                     0.0);
}

TEST(ElementAging, Hold0StressesPmosOnly)
{
    pp::ElementAging aging;
    pa::holdStatic(aging, params(), false, 333.15, 100.0);
    EXPECT_GT(aging.deltaVth(params(), pp::TransistorType::Pmos), 0.0);
    EXPECT_DOUBLE_EQ(aging.deltaVth(params(), pp::TransistorType::Nmos),
                     0.0);
}

TEST(ElementAging, ToggleStressesBothByDuty)
{
    pp::ElementAging aging;
    pa::holdToggling(aging, params(), 0.5, 333.15, 100.0);
    const double nmos =
        aging.deltaVth(params(), pp::TransistorType::Nmos);
    const double pmos =
        aging.deltaVth(params(), pp::TransistorType::Pmos);
    EXPECT_GT(nmos, 0.0);
    EXPECT_GT(pmos, 0.0);
    // NBTI prefactor is larger, so PMOS accumulates more at 50% duty.
    EXPECT_GT(pmos, nmos);
}

TEST(ElementAging, ToggleDutyExtremesMatchStatic)
{
    pp::ElementAging toggled, held;
    pa::holdToggling(toggled, params(), 1.0, 333.15, 80.0);
    pa::holdStatic(held, params(), true, 333.15, 80.0);
    EXPECT_NEAR(toggled.deltaVth(params(), pp::TransistorType::Nmos),
                held.deltaVth(params(), pp::TransistorType::Nmos),
                1e-12);
}

TEST(ElementAging, ReleaseRecoversBoth)
{
    pp::ElementAging aging;
    pa::holdStatic(aging, params(), true, 333.15, 100.0);
    pa::holdStatic(aging, params(), false, 333.15, 100.0);
    const double nmos_before =
        aging.deltaVth(params(), pp::TransistorType::Nmos);
    const double pmos_before =
        aging.deltaVth(params(), pp::TransistorType::Pmos);
    pa::release(aging, params(), 333.15, 100.0);
    EXPECT_LT(aging.deltaVth(params(), pp::TransistorType::Nmos),
              nmos_before);
    EXPECT_LT(aging.deltaVth(params(), pp::TransistorType::Pmos),
              pmos_before);
}

TEST(ElementAging, HigherTemperatureAgesFaster)
{
    pp::ElementAging cool, hot;
    pa::holdStatic(cool, params(), true, 318.15, 100.0);
    pa::holdStatic(hot, params(), true, 348.15, 100.0);
    EXPECT_GT(hot.deltaVth(params(), pp::TransistorType::Nmos),
              cool.deltaVth(params(), pp::TransistorType::Nmos));
}

TEST(ElementAging, BadDutyIsFatal)
{
    pp::ElementAging aging;
    EXPECT_THROW(pa::holdToggling(aging, params(), -0.1, 333.15, 1.0),
                 pu::FatalError);
    EXPECT_THROW(pa::holdToggling(aging, params(), 1.1, 333.15, 1.0),
                 pu::FatalError);
}

TEST(ElementAging, ScaleStored)
{
    pp::ElementAging aging;
    aging.setScale(0.5);
    EXPECT_DOUBLE_EQ(aging.scale(), 0.5);
}

// -------------------------------------------------------- delay model

TEST(DelayModel, ShiftFractionLinearInVth)
{
    const pp::DelayParams p;
    EXPECT_DOUBLE_EQ(p.delayShiftFraction(0.0), 0.0);
    EXPECT_NEAR(p.delayShiftFraction(2e-3),
                2.0 * p.delayShiftFraction(1e-3), 1e-15);
}

TEST(DelayModel, ShiftFractionUsesAlphaPowerLaw)
{
    const pp::DelayParams p;
    EXPECT_NEAR(p.delayShiftFraction(1e-3),
                p.alpha * 1e-3 / (p.vdd_v - p.vth0_v), 1e-15);
}

TEST(DelayModel, TemperatureFactorUnityAtReference)
{
    const pp::DelayParams p;
    EXPECT_DOUBLE_EQ(
        p.temperatureFactor(pp::Transition::Rising, p.ref_temp_k), 1.0);
    EXPECT_DOUBLE_EQ(
        p.temperatureFactor(pp::Transition::Falling, p.ref_temp_k),
        1.0);
}

TEST(DelayModel, RiseTempCoefficientExceedsFall)
{
    const pp::DelayParams p;
    const double hot = p.ref_temp_k + 20.0;
    EXPECT_GT(p.temperatureFactor(pp::Transition::Rising, hot),
              p.temperatureFactor(pp::Transition::Falling, hot));
}

TEST(DelayModel, AgedDelayGrowsWithShiftAndTemp)
{
    const pp::DelayParams p;
    const double base =
        pp::agedDelayPs(p, pp::Transition::Falling, 100.0, 0.0,
                        p.ref_temp_k);
    EXPECT_DOUBLE_EQ(base, 100.0);
    EXPECT_GT(pp::agedDelayPs(p, pp::Transition::Falling, 100.0, 1e-3,
                              p.ref_temp_k),
              base);
    EXPECT_GT(pp::agedDelayPs(p, pp::Transition::Falling, 100.0, 0.0,
                              p.ref_temp_k + 30.0),
              base);
}

TEST(DelayModel, LimitingTransistorConvention)
{
    EXPECT_EQ(pp::limitingTransistor(pp::Transition::Falling),
              pp::TransistorType::Nmos);
    EXPECT_EQ(pp::limitingTransistor(pp::Transition::Rising),
              pp::TransistorType::Pmos);
}

TEST(DelayModel, FatalWhenVddBelowVth)
{
    pp::DelayParams p;
    p.vdd_v = 0.2;
    p.vth0_v = 0.3;
    EXPECT_THROW(p.delayShiftFraction(1e-3), pu::FatalError);
}

// ------------------------------------------------------------ thermal

TEST(Thermal, OvenPinsTemperature)
{
    pp::OvenEnvironment oven(333.15);
    EXPECT_DOUBLE_EQ(oven.step(100.0, 5.0), 333.15);
    EXPECT_DOUBLE_EQ(oven.dieTempK(), 333.15);
}

TEST(Thermal, OvenRejectsNonPositive)
{
    EXPECT_THROW(pp::OvenEnvironment(0.0), pu::FatalError);
}

TEST(Thermal, PackageConvergesToAmbientPlusRP)
{
    pp::PackageThermalModel pkg(318.15, 0.35, 0.005);
    double temp = 0.0;
    for (int i = 0; i < 100; ++i) {
        temp = pkg.step(60.0, 0.01);
    }
    EXPECT_NEAR(temp, 318.15 + 0.35 * 60.0, 0.01);
}

TEST(Thermal, PackageCoolsWhenIdle)
{
    pp::PackageThermalModel pkg(318.15, 0.35, 0.005);
    for (int i = 0; i < 100; ++i) {
        pkg.step(60.0, 0.01);
    }
    for (int i = 0; i < 100; ++i) {
        pkg.step(0.0, 0.01);
    }
    EXPECT_NEAR(pkg.dieTempK(), 318.15, 0.01);
}

TEST(Thermal, PackageTracksAmbientChange)
{
    pp::PackageThermalModel pkg(318.15);
    pkg.setAmbientK(325.0);
    for (int i = 0; i < 200; ++i) {
        pkg.step(0.0, 0.01);
    }
    EXPECT_NEAR(pkg.dieTempK(), 325.0, 0.01);
    EXPECT_DOUBLE_EQ(pkg.ambientK(), 325.0);
}

TEST(Thermal, PackageApproachIsMonotone)
{
    pp::PackageThermalModel pkg(318.15, 0.35, 0.01);
    double prev = pkg.dieTempK();
    for (int i = 0; i < 20; ++i) {
        const double t = pkg.step(50.0, 0.002);
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(Thermal, PackageRejectsBadInput)
{
    EXPECT_THROW(pp::PackageThermalModel(-1.0), pu::FatalError);
    EXPECT_THROW(pp::PackageThermalModel(300.0, -0.1), pu::FatalError);
    pp::PackageThermalModel pkg(300.0);
    EXPECT_THROW(pkg.step(-1.0, 1.0), pu::FatalError);
    EXPECT_THROW(pkg.step(1.0, -1.0), pu::FatalError);
}

// ---------------------------------------------------------- variation

TEST(Variation, DeterministicGivenSameStream)
{
    const pp::VariationParams vp;
    pp::VariationSampler a(vp, pu::Rng(5));
    pp::VariationSampler b(vp, pu::Rng(5));
    for (int i = 0; i < 10; ++i) {
        const pp::ElementVariation va = a.sample();
        const pp::ElementVariation vb = b.sample();
        EXPECT_DOUBLE_EQ(va.rise_mult, vb.rise_mult);
        EXPECT_DOUBLE_EQ(va.fall_mult, vb.fall_mult);
        EXPECT_DOUBLE_EQ(va.bti_mult, vb.bti_mult);
    }
}

TEST(Variation, MultipliersPositiveAndNearUnity)
{
    const pp::VariationParams vp;
    pp::VariationSampler sampler(vp, pu::Rng(6));
    pu::RunningStats rise;
    for (int i = 0; i < 20000; ++i) {
        const pp::ElementVariation v = sampler.sample();
        EXPECT_GT(v.rise_mult, 0.0);
        EXPECT_GT(v.fall_mult, 0.0);
        EXPECT_GT(v.bti_mult, 0.0);
        rise.add(v.rise_mult);
    }
    EXPECT_NEAR(rise.mean(), 1.0, 0.01);
    EXPECT_NEAR(rise.stddev(), vp.delay_sigma, 0.005);
}

TEST(Variation, RiseFallCorrelated)
{
    const pp::VariationParams vp;
    pp::VariationSampler sampler(vp, pu::Rng(7));
    std::vector<double> rise, fall;
    for (int i = 0; i < 5000; ++i) {
        const pp::ElementVariation v = sampler.sample();
        rise.push_back(v.rise_mult);
        fall.push_back(v.fall_mult);
    }
    const double corr = pu::correlation(rise, fall);
    EXPECT_GT(corr, 0.2);
    EXPECT_LT(corr, 0.95);
}

// ----------------------------------------------------- device aging

TEST(DeviceAge, NewDeviceHasFullScale)
{
    const pp::DeviceAgeModel model;
    EXPECT_DOUBLE_EQ(model.freshStressScale(0.0), 1.0);
}

TEST(DeviceAge, ScaleDecreasesWithAge)
{
    const pp::DeviceAgeModel model;
    double prev = 1.1;
    for (double age = 0.0; age <= 50000.0; age += 5000.0) {
        const double s = model.freshStressScale(age);
        EXPECT_LT(s, prev);
        EXPECT_GT(s, 0.0);
        prev = s;
    }
}

TEST(DeviceAge, CalibrationPoints)
{
    const pp::DeviceAgeModel model;
    // ~1 year and ~3.5 years of service: the Figure 6 vs Figure 7
    // amplitude ratio.
    EXPECT_NEAR(model.freshStressScale(8760.0), 0.36, 0.05);
    EXPECT_NEAR(model.freshStressScale(30000.0), 0.17, 0.04);
}

TEST(DeviceAge, NegativeAgeIsFatal)
{
    const pp::DeviceAgeModel model;
    EXPECT_THROW(model.freshStressScale(-1.0), pu::FatalError);
}

/** Temperature sweep: stress acceleration is monotone end to end. */
class TemperatureSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(TemperatureSweep, HotterMeansMoreShift)
{
    const double temp_c = GetParam();
    pp::ElementAging cool, hot;
    pa::holdStatic(cool, params(), true, pu::celsiusToKelvin(temp_c), 50.0);
    pa::holdStatic(hot, params(), true, pu::celsiusToKelvin(temp_c + 15.0),
                   50.0);
    EXPECT_GT(hot.deltaVth(params(), pp::TransistorType::Nmos),
              cool.deltaVth(params(), pp::TransistorType::Nmos));
}

INSTANTIATE_TEST_SUITE_P(TwentyFiveToEighty, TemperatureSweep,
                         ::testing::Values(25.0, 40.0, 55.0, 70.0));

// ------------------------------------------------ step-context cache

TEST(StepContextCache, HitsAreEquivalentToFreshConstruction)
{
    const pp::BtiParams p = pp::BtiParams::ultrascalePlus();
    pp::StepContextCache cache;

    const pp::AgingStepContext &warm = cache.get(p, 333.15);
    const pp::AgingStepContext fresh_warm(p, 333.15);
    EXPECT_EQ(warm.stress_accel, fresh_warm.stress_accel);
    EXPECT_EQ(warm.recovery_accel, fresh_warm.recovery_accel);
    EXPECT_EQ(cache.misses(), 1u);

    // Same (params, temperature): a hit, and bitwise the same values.
    const pp::AgingStepContext &again = cache.get(p, 333.15);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(again.stress_accel, fresh_warm.stress_accel);
    EXPECT_EQ(again.recovery_accel, fresh_warm.recovery_accel);

    // Temperature change: recomputed, and again bit-equal to fresh.
    const pp::AgingStepContext &hot = cache.get(p, 363.15);
    const pp::AgingStepContext fresh_hot(p, 363.15);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(hot.stress_accel, fresh_hot.stress_accel);
    EXPECT_EQ(hot.recovery_accel, fresh_hot.recovery_accel);

    // Different parameter block (same temperature): must not hit.
    pp::BtiParams other = pp::BtiParams::ultrascalePlus();
    other.stress_activation_ev = 0.5;
    const pp::AgingStepContext &alt = cache.get(other, 363.15);
    const pp::AgingStepContext fresh_alt(other, 363.15);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(alt.stress_accel, fresh_alt.stress_accel);
}

TEST(StepContextCache, DeviceAdvanceSharesOneContextPerTemperature)
{
    // An aging sweep at a pinned temperature must pay the two exp()
    // calls once, not once per advance call.
    pp::StepContextCache cache;
    const pp::BtiParams p = pp::BtiParams::ultrascalePlus();
    for (int i = 0; i < 100; ++i) {
        (void)cache.get(p, 318.15);
    }
    EXPECT_EQ(cache.misses(), 1u);
}
