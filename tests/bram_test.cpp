/**
 * @file
 * BRAM content-remanence battery (PR 10).
 *
 * The second resource class, with persistence semantics opposite the
 * aging channel's: contents survive power events and PCIe resets
 * (inside a per-block retention window) but are zeroed by any
 * (re)configuration and by provider scrub policy. Locks:
 *
 *  - the BramBlock state machine and its lazy retention resolution;
 *  - Device semantics: configuration zeroes, wipe alone preserves,
 *    design BRAM inits apply under bramRevision gating;
 *  - deterministic per-block retention and decay-noise draws (pure
 *    split streams — observation order and device twins agree);
 *  - instance power events: powerCycle accrues off-power and drops
 *    the configuration, pcieReset touches nothing;
 *  - platform scrub policies, including the unclean-teardown bypass
 *    of ZeroOnRelease;
 *  - snapshot round-trips at adversarial cut points (pending decay
 *    resolution, mid-campaign checkpoints, fault-injected resume);
 *  - the campaign-level scrub-policy ordering the ablation prices:
 *    none > zero-on-release > zero-on-rent;
 *  - satellites: the active-scrub lifecycle regressions and the
 *    Rng::uniformIndex / uniformInt empty-range guards.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/platform.hpp"
#include "core/presets.hpp"
#include "fabric/bram_block.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "fabric/route.hpp"
#include "mitigation/advisor.hpp"
#include "serve/campaign.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

#include "observe_at_load.hpp"

namespace pcl = pentimento::cloud;
namespace pco = pentimento::core;
namespace pf = pentimento::fabric;
namespace pm = pentimento::mitigation;
namespace pp = pentimento::phys;
namespace ps = pentimento::serve;
namespace pu = pentimento::util;

namespace {

constexpr std::uint32_t kDevTag = pu::snapshotTag('B', 'D', 'V', '!');

pf::ResourceId
bramId(std::uint16_t index)
{
    pf::ResourceId id;
    id.type = pf::ResourceType::Bram;
    id.index = index;
    return id;
}

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

} // namespace

// ------------------------------------------------ block state machine

TEST(BramBlock, StateMachineTransitions)
{
    pf::BramBlock block;
    block.id_ = bramId(0);
    block.retention_limit_h = 1.0;
    EXPECT_EQ(block.state, pf::BramState::Unwritten);
    EXPECT_FALSE(block.resolveRetention());

    block.write(0x1234, 5.0);
    EXPECT_EQ(block.state, pf::BramState::Written);
    EXPECT_EQ(block.content, 0x1234u);
    EXPECT_EQ(block.written_at_h, 5.0);
    // No off-power exposure yet: resolution is a no-op.
    EXPECT_FALSE(block.resolveRetention());
    EXPECT_EQ(block.state, pf::BramState::Written);

    // Inside the retention window: survives as Retained.
    block.accrueOffPower(0.25);
    EXPECT_FALSE(block.resolveRetention());
    EXPECT_EQ(block.state, pf::BramState::Retained);
    EXPECT_EQ(block.content, 0x1234u);

    // Accumulated exposure exceeds the window: the caller owes the
    // block its cell-noise content.
    block.accrueOffPower(0.9);
    EXPECT_TRUE(block.resolveRetention());
    EXPECT_EQ(block.state, pf::BramState::Decayed);
    // Decayed content cannot decay again.
    EXPECT_FALSE(block.resolveRetention());
    block.accrueOffPower(10.0);
    EXPECT_FALSE(block.resolveRetention());
    EXPECT_EQ(block.state, pf::BramState::Decayed);

    block.zero();
    EXPECT_EQ(block.state, pf::BramState::Zeroed);
    EXPECT_EQ(block.content, 0u);
    // Zeroed content has nothing left to decay.
    block.accrueOffPower(10.0);
    EXPECT_FALSE(block.resolveRetention());
    EXPECT_EQ(block.state, pf::BramState::Zeroed);
}

TEST(BramBlock, StateNames)
{
    EXPECT_STREQ(pf::toString(pf::BramState::Unwritten), "unwritten");
    EXPECT_STREQ(pf::toString(pf::BramState::Written), "written");
    EXPECT_STREQ(pf::toString(pf::BramState::Retained), "retained");
    EXPECT_STREQ(pf::toString(pf::BramState::Decayed), "decayed");
    EXPECT_STREQ(pf::toString(pf::BramState::Zeroed), "zeroed");
}

// -------------------------------------------------- device semantics

TEST(BramDevice, ConfigurationZeroesWipeAlonePreserves)
{
    pf::Device device{pf::DeviceConfig{}};
    device.writeBram(bramId(0), 0xdeadbeefULL);
    device.writeBram(bramId(1), 0xfeedfaceULL);
    ASSERT_EQ(device.bramBlockCount(), 2u);

    // A wipe clears configuration; memory cells keep their charge.
    device.wipe();
    EXPECT_EQ(device.readBram(bramId(0)).state, pf::BramState::Written);
    EXPECT_EQ(device.readBram(bramId(0)).content, 0xdeadbeefULL);
    EXPECT_EQ(device.readBram(bramId(1)).content, 0xfeedfaceULL);

    // Configuring a bitstream zeroes every block.
    auto design = std::make_shared<pf::Design>("next_tenant");
    device.loadDesign(design);
    EXPECT_EQ(device.readBram(bramId(0)).state, pf::BramState::Zeroed);
    EXPECT_EQ(device.readBram(bramId(0)).content, 0u);
    EXPECT_EQ(device.readBram(bramId(1)).state, pf::BramState::Zeroed);
}

TEST(BramDevice, DesignInitsApplyUnderRevisionGating)
{
    pf::Device device{pf::DeviceConfig{}};
    auto design = std::make_shared<pf::Design>("with_inits");
    design->setBramInit(bramId(0), 0xaaaaULL);
    device.loadDesign(design);
    EXPECT_EQ(device.readBram(bramId(0)).state, pf::BramState::Written);
    EXPECT_EQ(device.readBram(bramId(0)).content, 0xaaaaULL);

    // Scribble on the live block, then re-load the unchanged design:
    // same (name, bramRevision) means no reconfiguration, so the
    // scribble survives (this is what makes checkpoint-resume's
    // re-load of the rebuilt design BRAM-neutral).
    device.writeBram(bramId(1), 0xbbbbULL);
    device.loadDesign(design);
    EXPECT_EQ(device.readBram(bramId(1)).content, 0xbbbbULL);

    // Mutating the inits bumps bramRevision: the next load of the
    // *same* design object is a real reconfiguration again.
    design->setBramInit(bramId(2), 0xccccULL);
    device.loadDesign(design);
    EXPECT_EQ(device.readBram(bramId(0)).content, 0xaaaaULL);
    EXPECT_EQ(device.readBram(bramId(1)).state, pf::BramState::Zeroed);
    EXPECT_EQ(device.readBram(bramId(2)).content, 0xccccULL);

    // A wipe clears the applied-configuration tracking: any load
    // after it reconfigures even though (name, revision) match.
    device.writeBram(bramId(3), 0xddddULL);
    device.wipe();
    EXPECT_EQ(device.findBramBlock(bramId(3))->content, 0xddddULL);
    device.loadDesign(design);
    EXPECT_EQ(device.readBram(bramId(3)).state, pf::BramState::Zeroed);
    EXPECT_EQ(device.readBram(bramId(0)).content, 0xaaaaULL);
}

TEST(BramDevice, RetentionDrawsAreDeterministicPerSeed)
{
    pf::DeviceConfig config;
    config.seed = 4242;
    pf::Device a(config);
    pf::Device b(config);
    a.writeBram(bramId(0), 7);
    b.writeBram(bramId(0), 7);
    ASSERT_NE(a.findBramBlock(bramId(0)), nullptr);
    EXPECT_GT(a.findBramBlock(bramId(0))->retention_limit_h, 0.0);
    EXPECT_EQ(a.findBramBlock(bramId(0))->retention_limit_h,
              b.findBramBlock(bramId(0))->retention_limit_h);

    // Far beyond any plausible draw from the default lognormal: both
    // twins decay, and their cell-noise contents agree (pure per-id
    // draw from the device seed), while differing from the data.
    a.accrueBramOffPower(1.0e6);
    b.accrueBramOffPower(1.0e6);
    const pf::BramBlock &ra = a.readBram(bramId(0));
    const pf::BramBlock &rb = b.readBram(bramId(0));
    EXPECT_EQ(ra.state, pf::BramState::Decayed);
    EXPECT_EQ(rb.state, pf::BramState::Decayed);
    EXPECT_EQ(ra.content, rb.content);
    EXPECT_NE(ra.content, 7u);

    // A different silicon seed re-rolls the per-block draws.
    config.seed = 4243;
    pf::Device c(config);
    c.writeBram(bramId(0), 7);
    EXPECT_NE(c.findBramBlock(bramId(0))->retention_limit_h,
              a.findBramBlock(bramId(0))->retention_limit_h);
}

// ------------------------------------------------ instance semantics

TEST(BramInstance, PowerCycleDropsConfigurationAndAgesContents)
{
    pcl::PlatformConfig config = pco::awsF1Region(11);
    config.fleet_size = 1;
    // Retention long enough that the short outage below never decays.
    config.device_template.bram_retention_median_h = 1000.0;
    config.device_template.bram_retention_sigma = 0.1;
    pcl::CloudPlatform platform(config);
    const auto id = platform.rent();
    pcl::FpgaInstance &inst = platform.instance(*id);
    pf::Device &device = inst.device();

    auto design = std::make_shared<pf::Design>("tenant");
    ASSERT_TRUE(platform.loadDesign(*id, design).empty());
    device.writeBram(bramId(0), 0xabcdULL);

    inst.powerCycle(0.5);
    EXPECT_EQ(inst.powerCycles(), 1u);
    // Configuration is SRAM: gone. Contents: retained (short outage).
    EXPECT_EQ(device.currentDesign(), nullptr);
    const pf::BramBlock &block = device.readBram(bramId(0));
    EXPECT_EQ(block.state, pf::BramState::Retained);
    EXPECT_EQ(block.content, 0xabcdULL);
    EXPECT_EQ(block.off_power_h, 0.5);
}

TEST(BramInstance, LongOutageDecaysContents)
{
    pcl::PlatformConfig config = pco::awsF1Region(12);
    config.fleet_size = 1;
    config.device_template.bram_retention_median_h = 1.0e-4;
    config.device_template.bram_retention_sigma = 0.01;
    pcl::CloudPlatform platform(config);
    const auto id = platform.rent();
    pcl::FpgaInstance &inst = platform.instance(*id);
    inst.device().writeBram(bramId(0), 0x5555ULL);
    inst.powerCycle(10.0);
    const pf::BramBlock &block = inst.device().readBram(bramId(0));
    EXPECT_EQ(block.state, pf::BramState::Decayed);
    EXPECT_NE(block.content, 0x5555ULL);
}

TEST(BramInstance, PcieResetTouchesNothing)
{
    pcl::PlatformConfig config = pco::awsF1Region(13);
    config.fleet_size = 1;
    pcl::CloudPlatform platform(config);
    const auto id = platform.rent();
    pcl::FpgaInstance &inst = platform.instance(*id);
    auto design = std::make_shared<pf::Design>("tenant");
    ASSERT_TRUE(platform.loadDesign(*id, design).empty());
    inst.device().writeBram(bramId(0), 0x9999ULL);

    inst.pcieReset();
    EXPECT_EQ(inst.pcieResets(), 1u);
    // The headline observation of the data-persistence literature:
    // configuration AND contents survive a PCIe hot reset.
    EXPECT_NE(inst.device().currentDesign(), nullptr);
    const pf::BramBlock &block = inst.device().readBram(bramId(0));
    EXPECT_EQ(block.state, pf::BramState::Written);
    EXPECT_EQ(block.content, 0x9999ULL);
    EXPECT_EQ(block.off_power_h, 0.0);
}

// ------------------------------------------------- platform policies

TEST(BramPlatform, ZeroOnReleaseScrubsCleanReleasesOnly)
{
    pcl::PlatformConfig config = pco::awsF1Region(21);
    config.fleet_size = 2;
    config.bram_scrub = pcl::BramScrubPolicy::ZeroOnRelease;
    pcl::CloudPlatform platform(config);

    const auto a = platform.rent();
    platform.instance(*a).device().writeBram(bramId(0), 0x1111ULL);
    platform.release(*a);
    EXPECT_EQ(platform.instance(*a).device().readBram(bramId(0)).state,
              pf::BramState::Zeroed);
    EXPECT_EQ(platform.bramScrubOps(), 1u);

    // An unclean teardown bypasses the release pipeline — and with it
    // the scrub. The content merely ages against retention.
    const auto b = platform.rent();
    pf::Device &dev_b = platform.instance(*b).device();
    dev_b.writeBram(bramId(0), 0x2222ULL);
    platform.releaseUnclean(*b, 0.001);
    EXPECT_EQ(platform.bramScrubOps(), 1u);
    const pf::BramBlock &block = dev_b.readBram(bramId(0));
    EXPECT_NE(block.state, pf::BramState::Zeroed);
    EXPECT_EQ(block.off_power_h, 0.001);
}

TEST(BramPlatform, ZeroOnRentScrubsAtHandOver)
{
    pcl::PlatformConfig config = pco::awsF1Region(22);
    config.fleet_size = 1;
    config.bram_scrub = pcl::BramScrubPolicy::ZeroOnRent;
    pcl::CloudPlatform platform(config);

    const auto a = platform.rent();
    EXPECT_EQ(platform.bramScrubOps(), 1u);
    pf::Device &device = platform.instance(*a).device();
    device.writeBram(bramId(0), 0x3333ULL);
    platform.releaseUnclean(*a, 0.0); // bypasses nothing: no release scrub
    EXPECT_EQ(device.readBram(bramId(0)).content, 0x3333ULL);

    // The next tenant's hand-over catches what the teardown left.
    const auto b = platform.rent();
    EXPECT_EQ(platform.bramScrubOps(), 2u);
    EXPECT_EQ(device.readBram(bramId(0)).state, pf::BramState::Zeroed);
}

// --------------------------------- active-scrub lifecycle regressions

namespace {

/**
 * One rent→burn→release→pool→re-rent→measure lifecycle under
 * active_scrub. pool_hours = 0 reproduces the zero-elapsed re-rent
 * (released and re-acquired before the pool ever advances).
 * `at_load` observes the resident design after every load, including
 * the scrub design release() loads (observe_at_load.hpp).
 */
double
scrubLifecycleDelay(bool at_load, double pool_hours, bool active_scrub)
{
    pcl::PlatformConfig config = pco::awsF1Region(31);
    config.fleet_size = 1;
    config.active_scrub = active_scrub;
    pcl::CloudPlatform platform(config);
    const auto id = platform.rent();
    pf::Device &device = platform.instance(*id).device();
    const auto settle = [&] {
        if (at_load) {
            pentimento::observe_at_load::observeResident(device);
        }
    };
    const pf::RouteSpec net = device.allocateRoute("net", 4000.0);
    auto victim = std::make_shared<pf::Design>("victim");
    victim->setRouteValue(net, true);
    if (!platform.loadDesign(*id, victim).empty()) {
        ADD_FAILURE() << "victim design failed DRC";
        return 0.0;
    }
    settle();
    platform.advanceHours(50.0);
    platform.release(*id); // active_scrub loads the pooled scrub design
    settle();
    if (pool_hours > 0.0) {
        platform.advanceHours(pool_hours);
    }
    // Re-rent: rent()'s wipe() must close the scrub design's journal
    // runs correctly before the attacker observes anything.
    const auto again = platform.rent();
    if (!again.has_value()) {
        ADD_FAILURE() << "re-rent failed";
        return 0.0;
    }
    settle();
    platform.advanceHours(1.0);
    pf::Route route = device.bindRoute(net);
    return route.delayPs(pp::Transition::Falling, 333.15);
}

} // namespace

TEST(ActiveScrubLifecycle, ZeroElapsedReRentAccruesNoScrubStress)
{
    // Released with active_scrub and re-rented before the pool ever
    // advances: the scrub design was resident for zero hours, so the
    // measured delay must match a platform that never scrubbed.
    const double scrubbed = scrubLifecycleDelay(false, 0.0, true);
    const double idle = scrubLifecycleDelay(false, 0.0, false);
    EXPECT_EQ(scrubbed, idle);
}

TEST(ActiveScrubLifecycle, EagerAndLazyAgreeThroughPooledScrub)
{
    // The pooled scrub design's activity runs live in the journal on
    // the lazy side and as materialised flips on the side observed at
    // every load (the "eager" side of the name); rent()'s wipe must
    // close them identically.
    for (const double pool_hours : {0.0, 24.0}) {
        const double lazy =
            scrubLifecycleDelay(false, pool_hours, true);
        const double at_load =
            scrubLifecycleDelay(true, pool_hours, true);
        EXPECT_EQ(lazy, at_load) << "pooled for " << pool_hours << " h";
    }
}

// ------------------------------------------------- rng empty ranges

TEST(RngGuards, UniformIndexFatalsOnEmptyContainer)
{
    pu::Rng rng(1);
    const std::vector<int> empty;
    EXPECT_THROW((void)rng.uniformIndex(empty.size()), pu::FatalError);
    // The guard uniformInt cannot provide: an empty container's
    // size()-1 wraps to the legitimate full-range request.
    EXPECT_NO_THROW((void)rng.uniformInt(0, ~0ULL));
    EXPECT_THROW((void)rng.uniformInt(5, 3), pu::FatalError);
    // Draw compatibility: switching a call site from uniformInt(0,
    // n-1) to uniformIndex(n) must not move the stream.
    pu::Rng a(9), b(9);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(a.uniformInt(0, 12), b.uniformIndex(13));
    }
}

// ------------------------------------------------ snapshot round trip

TEST(BramSnapshot, RoundTripsPendingAndResolvedStatesBitIdentically)
{
    pf::DeviceConfig config;
    config.seed = 616;
    config.bram_retention_median_h = 0.5;
    pf::Device straight(config);

    // Adversarial mix at the cut: Zeroed blocks, a Written block with
    // accrued-but-unresolved off-power (its decay draw still pending),
    // and a block already resolved at readback.
    straight.writeBram(bramId(0), 0xa0a0ULL);
    straight.writeBram(bramId(1), 0xb1b1ULL);
    straight.zeroBram();
    straight.writeBram(bramId(2), 0xc2c2ULL);
    straight.writeBram(bramId(3), 0xd3d3ULL);
    straight.accrueBramOffPower(0.7);
    (void)straight.readBram(bramId(3)); // resolved; b2 stays pending

    pu::SnapshotWriter writer;
    writer.beginChunk(kDevTag);
    straight.saveState(writer);
    writer.endChunk();
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(writer.finish());
    ASSERT_TRUE(made.ok()) << made.error();

    pf::Device restored(config);
    ASSERT_TRUE(made.value().enterChunk(kDevTag));
    const pu::Expected<void> result =
        restored.restoreState(made.value());
    ASSERT_TRUE(result.ok()) << result.error();
    ASSERT_EQ(restored.bramBlockCount(), straight.bramBlockCount());

    for (std::uint16_t i = 0; i < 4; ++i) {
        const pf::BramBlock *s = straight.findBramBlock(bramId(i));
        const pf::BramBlock *r = restored.findBramBlock(bramId(i));
        ASSERT_NE(s, nullptr);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(s->state, r->state) << "block " << i;
        EXPECT_EQ(s->content, r->content) << "block " << i;
        EXPECT_EQ(s->written_at_h, r->written_at_h) << "block " << i;
        EXPECT_EQ(s->off_power_h, r->off_power_h) << "block " << i;
        EXPECT_EQ(s->retention_limit_h, r->retention_limit_h)
            << "block " << i;
    }
    // The pending block resolves identically on both twins.
    const pf::BramBlock &sp = straight.readBram(bramId(2));
    const pf::BramBlock &rp = restored.readBram(bramId(2));
    EXPECT_EQ(sp.state, rp.state);
    EXPECT_EQ(sp.content, rp.content);
}

// -------------------------------------------------- campaign channel

namespace {

ps::FleetScanConfig
smallCampaign(pcl::BramScrubPolicy policy)
{
    ps::FleetScanConfig config;
    config.fleet = 12;
    config.days = 60;
    config.seed = 505;
    config.routes_per_tenant = 4;
    config.max_measured = 4;
    config.bram_channel = true;
    config.bram_scrub = policy;
    return config;
}

void
expectSameResult(const ps::FleetScanResult &a,
                 const ps::FleetScanResult &b)
{
    EXPECT_EQ(a.tenancies, b.tenancies);
    EXPECT_EQ(a.simulated_h, b.simulated_h);
    ASSERT_EQ(a.boards.size(), b.boards.size());
    for (std::size_t i = 0; i < a.boards.size(); ++i) {
        EXPECT_EQ(a.boards[i].board, b.boards[i].board);
        EXPECT_EQ(a.boards[i].bits, b.boards[i].bits);
        EXPECT_EQ(a.boards[i].correct, b.boards[i].correct);
        EXPECT_EQ(a.boards[i].accuracy, b.boards[i].accuracy);
    }
    ASSERT_EQ(a.bram_boards.size(), b.bram_boards.size());
    for (std::size_t i = 0; i < a.bram_boards.size(); ++i) {
        EXPECT_EQ(a.bram_boards[i].board, b.bram_boards[i].board);
        EXPECT_EQ(a.bram_boards[i].blocks, b.bram_boards[i].blocks);
        EXPECT_EQ(a.bram_boards[i].recovered,
                  b.bram_boards[i].recovered);
        EXPECT_EQ(a.bram_boards[i].decayed, b.bram_boards[i].decayed);
        EXPECT_EQ(a.bram_boards[i].zeroed, b.bram_boards[i].zeroed);
        EXPECT_EQ(a.bram_boards[i].unclean, b.bram_boards[i].unclean);
    }
    EXPECT_EQ(a.bram_scrub_ops, b.bram_scrub_ops);
}

double
campaignRecovery(const ps::FleetScanResult &result)
{
    std::uint64_t blocks = 0;
    std::uint64_t recovered = 0;
    for (const ps::FleetScanBramScore &s : result.bram_boards) {
        blocks += s.blocks;
        recovered += s.recovered;
    }
    return blocks > 0 ? static_cast<double>(recovered) /
                            static_cast<double>(blocks)
                      : 0.0;
}

} // namespace

TEST(BramCampaign, ChannelIsNeutralForTheAgingScores)
{
    ps::FleetScanConfig with = smallCampaign(pcl::BramScrubPolicy::None);
    ps::FleetScanConfig without = with;
    without.bram_channel = false;
    const auto a = ps::runFleetScan(with);
    const auto b = ps::runFleetScan(without);
    ASSERT_TRUE(a.ok()) << a.error();
    ASSERT_TRUE(b.ok()) << b.error();
    // The interconnect channel must not move by a single draw.
    ASSERT_EQ(a.value().boards.size(), b.value().boards.size());
    for (std::size_t i = 0; i < a.value().boards.size(); ++i) {
        EXPECT_EQ(a.value().boards[i].board, b.value().boards[i].board);
        EXPECT_EQ(a.value().boards[i].correct,
                  b.value().boards[i].correct);
        EXPECT_EQ(a.value().boards[i].accuracy,
                  b.value().boards[i].accuracy);
    }
    EXPECT_TRUE(b.value().bram_boards.empty());
    EXPECT_FALSE(a.value().bram_boards.empty());
}

TEST(BramCampaign, ScrubPolicyOrderingIsStrict)
{
    // The acceptance ordering the ablation prices: content rides along
    // under no scrub, the release-pipeline scrub leaves the unclean-
    // teardown window open, and scrub-at-hand-over closes everything.
    // Same scenario as bench/ablation_bram_scrub, smaller horizon.
    ps::FleetScanConfig config;
    config.fleet = 24;
    config.days = 180;
    config.seed = 777;
    config.bram_channel = true;

    config.bram_scrub = pcl::BramScrubPolicy::None;
    const auto none = ps::runFleetScan(config);
    config.bram_scrub = pcl::BramScrubPolicy::ZeroOnRelease;
    const auto on_release = ps::runFleetScan(config);
    config.bram_scrub = pcl::BramScrubPolicy::ZeroOnRent;
    const auto on_rent = ps::runFleetScan(config);
    ASSERT_TRUE(none.ok() && on_release.ok() && on_rent.ok());

    const double r_none = campaignRecovery(none.value());
    const double r_release = campaignRecovery(on_release.value());
    const double r_rent = campaignRecovery(on_rent.value());
    EXPECT_GT(r_none, r_release);
    EXPECT_GT(r_release, r_rent);
    EXPECT_EQ(r_rent, 0.0);
    // The cost side orders the other way round: hand-over scrubbing
    // pays on every rental, pipeline scrubbing only on clean releases.
    EXPECT_GT(on_rent.value().bram_scrub_ops,
              on_release.value().bram_scrub_ops);
    EXPECT_EQ(none.value().bram_scrub_ops, 0u);
}

TEST(BramCampaign, CheckpointResumeReproducesTheBramReadout)
{
    const std::string path = tempPath("bram_campaign.ckpt");
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());

    const auto straight =
        ps::runFleetScan(smallCampaign(pcl::BramScrubPolicy::None));
    ASSERT_TRUE(straight.ok()) << straight.error();

    // Adversarial cut: halt mid-campaign with tenancies in flight —
    // written-but-unread blocks, unclean fates decided but not yet
    // executed, and pending retention draws all live in the snapshot.
    ps::FleetScanConfig halted =
        smallCampaign(pcl::BramScrubPolicy::None);
    halted.checkpoint_path = path;
    halted.checkpoint_every_days = 7;
    halted.halt_at_day = 31;
    const auto first = ps::runFleetScan(halted);
    ASSERT_TRUE(first.ok()) << first.error();
    ASSERT_EQ(first.value().halted_after_day, 31);

    ps::FleetScanConfig resumed =
        smallCampaign(pcl::BramScrubPolicy::None);
    resumed.checkpoint_path = path;
    resumed.resume = ps::ResumeMode::Require;
    const auto second = ps::runFleetScan(resumed);
    ASSERT_TRUE(second.ok()) << second.error();
    EXPECT_EQ(second.value().resumed_day, 31);
    expectSameResult(straight.value(), second.value());
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

TEST(BramCampaign, FaultInjectedResumeStillReproducesTheResult)
{
    const std::string path = tempPath("bram_campaign_fault.ckpt");
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());

    const auto straight =
        ps::runFleetScan(smallCampaign(pcl::BramScrubPolicy::None));
    ASSERT_TRUE(straight.ok()) << straight.error();

    ps::FleetScanConfig halted =
        smallCampaign(pcl::BramScrubPolicy::None);
    halted.checkpoint_path = path;
    halted.checkpoint_every_days = 7;
    halted.halt_at_day = 31;
    ASSERT_TRUE(ps::runFleetScan(halted).ok());

    // Corrupt the primary generation on load: resume must fall back
    // to .prev (an even more adversarial cut, three weeks earlier)
    // and still reproduce the identical result.
    const pu::Expected<pu::fault::Schedule> schedule =
        pu::fault::parseSchedule(
            "seed=1;snapshot.load.corrupt_crc:max=1");
    ASSERT_TRUE(schedule.ok()) << schedule.error();
    pu::fault::arm(schedule.value());
    ps::FleetScanConfig resumed =
        smallCampaign(pcl::BramScrubPolicy::None);
    resumed.checkpoint_path = path;
    resumed.resume = ps::ResumeMode::Require;
    const auto second = ps::runFleetScan(resumed);
    pu::fault::disarm();
    ASSERT_TRUE(second.ok()) << second.error();
    EXPECT_EQ(second.value().resumed_from, path + ".prev");
    expectSameResult(straight.value(), second.value());
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

// ------------------------------------------------------ advisor

TEST(ScrubPolicyAdvisor, RanksByBenefitThenCost)
{
    std::vector<pm::ScrubPolicyOutcome> outcomes = {
        {"none", 0.8, 0},
        {"zero-on-release", 0.2, 90},
        {"zero-on-rent", 0.0, 140},
    };
    const std::vector<pm::ScrubPolicyAdvice> ranked =
        pm::ScrubPolicyAdvisor().rank(outcomes, "none");
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].name, "zero-on-rent");
    EXPECT_EQ(ranked[0].rank, 1);
    EXPECT_DOUBLE_EQ(ranked[0].benefit, 0.8);
    EXPECT_DOUBLE_EQ(ranked[0].cost_per_benefit, 140.0 / 0.8);
    EXPECT_EQ(ranked[1].name, "zero-on-release");
    EXPECT_DOUBLE_EQ(ranked[1].benefit, 0.6000000000000001);
    EXPECT_EQ(ranked[2].name, "none");
    EXPECT_DOUBLE_EQ(ranked[2].benefit, 0.0);
    EXPECT_TRUE(std::isinf(ranked[2].cost_per_benefit));

    EXPECT_THROW(pm::ScrubPolicyAdvisor().rank(outcomes, "missing"),
                 pu::FatalError);
}
