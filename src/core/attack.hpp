/**
 * @file
 * End-to-end attack facades (the flows of paper §2).
 *
 * These wrap the experiment plumbing into the two stories an attacker
 * actually executes:
 *
 *  - extractDesignData: Threat Model 1. Rent an encrypted marketplace
 *    AFI, interleave burn-in with TDC measurement on the known
 *    skeleton, and read the netlist constants out of the drift signs.
 *  - recoverUserData: Threat Model 2. Fingerprint a board, let the
 *    victim compute on it, flash-acquire the pool after release,
 *    re-identify the board by fingerprint, and recover the victim's
 *    runtime data from 25 h of BTI recovery.
 */

#ifndef PENTIMENTO_CORE_ATTACK_HPP
#define PENTIMENTO_CORE_ATTACK_HPP

#include <memory>
#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "core/classifier.hpp"
#include "core/experiment.hpp"

namespace pentimento::core {

/** A secret-bearing Target design plus its public skeleton. */
struct SecretBundle
{
    std::shared_ptr<fabric::TargetDesign> design;
    std::vector<fabric::RouteSpec> skeleton;
    std::vector<bool> secret;
};

/**
 * Build a design that stores a secret bitstring on dedicated routes
 * (netlist constants: a key, ML weights). One route per bit.
 *
 * @param device device whose allocator provides the skeleton
 * @param secret the confidential bits
 * @param route_ps nominal delay of each secret route
 * @param name design name
 * @param arith surrounding Arithmetic Heavy sizing
 */
SecretBundle makeSecretTarget(fabric::Device &device,
                              const std::vector<bool> &secret,
                              double route_ps, const std::string &name,
                              const fabric::ArithmeticHeavyConfig &arith =
                                  {});

/** Options for the TM1 facade. */
struct Tm1Options
{
    double burn_hours = 200.0;
    double measure_every_h = 1.0;
    tdc::TdcConfig tdc{};
    std::uint64_t seed = 99;
    /** Work pool for sweeps (see Experiment1Config::pool). */
    util::ThreadPool *pool = nullptr;
};

/** Outcome of a TM1 extraction. */
struct Tm1Report
{
    std::string instance_id;
    ExperimentResult result;
    ClassificationReport classification;
    std::vector<bool> recovered_bits;
};

/**
 * Threat Model 1: extract Type A design data from a marketplace AFI.
 *
 * The AFI's design is loaded opaquely; the skeleton published with it
 * (Assumption 1) steers the sensors. Ground truth for scoring is read
 * from the marketplace record when the AFI wraps a TargetDesign.
 */
Tm1Report extractDesignData(cloud::CloudPlatform &platform,
                            const std::string &afi_id,
                            const Tm1Options &options = {});

/** Options for the TM2 facade. */
struct Tm2Options
{
    double victim_hours = 200.0;
    double recovery_hours = 25.0;
    double measure_every_h = 1.0;
    /** Attacker park value during recovery (§6.3 motivates 0). */
    bool park_value = false;
    /** Nominal delay of each secret route. */
    double route_ps = 5000.0;
    tdc::TdcConfig tdc{};
    std::uint64_t seed = 99;
    /** Work pool for sweeps (see Experiment1Config::pool). */
    util::ThreadPool *pool = nullptr;
};

/** Outcome of a TM2 recovery. */
struct Tm2Report
{
    std::string victim_instance;
    std::string attacker_instance;
    /** Did fingerprint re-identification land on the victim board? */
    bool reacquired_same_board = false;
    double fingerprint_similarity = 0.0;
    /** Boards the flash acquisition had to rent. */
    std::size_t flash_rented = 0;
    ExperimentResult result;
    ClassificationReport classification;
    std::vector<bool> recovered_bits;
};

/**
 * Threat Model 2: recover Type B user data from a prior tenant.
 *
 * Executes the full story: reconnaissance fingerprint, victim
 * tenancy holding `secret` on its routes, release + provider wipe,
 * flash acquisition, fingerprint re-identification, 25 h recovery
 * measurement, classification.
 */
Tm2Report recoverUserData(cloud::CloudPlatform &platform,
                          const std::vector<bool> &secret,
                          const Tm2Options &options = {});

} // namespace pentimento::core

#endif // PENTIMENTO_CORE_ATTACK_HPP
