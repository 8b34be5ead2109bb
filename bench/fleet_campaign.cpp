/**
 * @file
 * Fleet-scale persistence campaign (the workload PR 3 unlocks).
 *
 * A marketplace region of 112 boards runs a simulated year of
 * interleaved tenancies: tenants rent boards, burn their secrets for
 * days at a time, release; the pool idles, is re-rented, idles again.
 * At the end a TM2 attacker flash-acquires a handful of recently
 * released boards (≤ 8) and runs the paper's park-and-watch recovery
 * attack against whatever the last tenant left behind — the
 * persistence scan across rented boards that "Security Risks Due to
 * Data Persistence in Cloud FPGA Platforms" (Zhang et al.) performs
 * on real hardware.
 *
 * The campaign engine itself lives in serve/campaign (shared with the
 * campaign server); this binary is the CLI. It runs the scenario in
 * one of two ways:
 *
 *  - **In-process** (default): serve::runFleetScan in golden-compat
 *    mode — the exact historical draw sequence this bench has always
 *    produced, locked by the committed golden CSV. Crash-safe
 *    checkpointing (PR 7): `--checkpoint-every N` writes a rotating
 *    two-generation snapshot every N simulated days; `--resume`
 *    continues from the latest good generation; `--halt-at-day D`
 *    exits cleanly after day D (the kill half of the CI
 *    kill-and-resume stress). SIGINT/SIGTERM flush a final checkpoint
 *    at the next day boundary and exit 128+sig.
 *
 *  - **Sharded** (PR 9): `--shards N` partitions the TM2 scan across
 *    N campaign_server worker *processes* under serve/shard's
 *    fault-tolerant supervisor — crashed, killed or wedged workers
 *    are respawned and resume from their per-shard checkpoints, and
 *    the merged CSV is byte-identical to the in-process run
 *    regardless of shard count, worker deaths or retry order.
 *    `--fault-schedule S` arms util/fault's deterministic
 *    fault-injection schedule here and (via the environment) in every
 *    worker.
 *
 * `--fleet N` and `--years Y` rescale the region and the simulated
 * horizon so the scaling claims are reproducible at other sizes;
 * `--seed S` re-rolls the tenancy/ambient sample paths. The recovery
 * rate is a high-variance statistic at these deliberately marginal
 * conditions (service-aged silicon, short tenancies, 25 h of
 * observation): across nearby seeds it spans roughly 50-85%, and the
 * default seed is chosen to sit near the middle of that range.
 */

#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/campaign.hpp"
#include "serve/shard.hpp"
#include "util/expected.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

using namespace pentimento;

namespace {

constexpr std::size_t kDefaultFleet = 112;
constexpr int kDefaultYears = 1;
constexpr std::uint64_t kDefaultSeed = 90902;
constexpr std::size_t kRoutesPerTenant = 8;
constexpr std::size_t kMaxMeasured = 8;
constexpr const char *kDefaultCheckpointPath = "fleet_campaign.ckpt";

/**
 * Last delivery-requested signal, observed by the day loop. SIGINT or
 * SIGTERM does not abandon the campaign: the loop finishes the current
 * day, writes a final checkpoint, and exits 128+sig — an interrupted
 * campaign is ALWAYS `--resume`-able.
 */
std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    g_signal.store(sig, std::memory_order_relaxed);
}

/** Day-boundary hook: cancels the engine once a signal is pending. */
class SignalObserver final : public core::SweepObserver
{
  public:
    explicit SignalObserver(int days) : days_(days) {}

    bool
    onSweep(std::size_t day, double, const double *,
            std::size_t) override
    {
        last_day_ = static_cast<int>(day);
        sig_ = g_signal.load(std::memory_order_relaxed);
        return sig_ == 0 || last_day_ >= days_;
    }

    int lastDay() const { return last_day_; }
    int signalNumber() const { return sig_; }

  private:
    int days_ = 0;
    int last_day_ = 0;
    int sig_ = 0;
};

// --------------------------------------------------- CLI validation

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: fleet_campaign [options]\n"
        "  --fleet N             boards in the region (default %zu)\n"
        "  --years N             simulated years (default %d)\n"
        "  --seed S              campaign seed (default %llu)\n"
        "  --workers N           parallel lanes for the scan phase\n"
        "  --csv PATH            write per-board attack scores as CSV\n"
        "  --journal-stress      daily burn rotations + coverage check\n"
        "  --checkpoint-every N  checkpoint every N simulated days\n"
        "  --checkpoint-path P   checkpoint file (default %s)\n"
        "  --resume              continue from the latest good "
        "checkpoint\n"
        "  --halt-at-day D       exit cleanly after day D (pairs with "
        "--resume)\n"
        "  --day-sleep-ms N      throttle each simulated day (signal "
        "tests)\n"
        "  --shards N            fan the scan out across N worker "
        "processes\n"
        "  --worker-binary P     campaign_server binary for --shards\n"
        "  --fault-schedule S    arm a deterministic fault schedule\n"
        "  --bram                run the BRAM content-remanence "
        "channel too\n"
        "  --bram-scrub P        provider scrub policy: none | "
        "release | rent\n",
        kDefaultFleet, kDefaultYears,
        static_cast<unsigned long long>(kDefaultSeed),
        kDefaultCheckpointPath);
}

/**
 * Whitelist scan: every argument must be a known flag, with its value
 * present when one is required. Anything else is a usage error — a
 * typoed scaling flag silently ignored would misattribute numbers.
 */
bool
argsAreKnown(int argc, char **argv)
{
    static const char *kValueFlags[] = {
        "--fleet",   "--years", "--seed",
        "--workers", "--csv",   "--checkpoint-every",
        "--checkpoint-path",    "--halt-at-day",
        "--day-sleep-ms",       "--shards",
        "--worker-binary",      "--fault-schedule",
        "--bram-scrub"};
    static const char *kBareFlags[] = {"--journal-stress", "--resume",
                                       "--bram"};
    for (int i = 1; i < argc; ++i) {
        bool known = false;
        for (const char *flag : kValueFlags) {
            if (std::strcmp(argv[i], flag) == 0) {
                if (i + 1 >= argc) {
                    std::fprintf(stderr,
                                 "fleet_campaign: missing value for "
                                 "%s\n",
                                 flag);
                    return false;
                }
                ++i;
                known = true;
                break;
            }
        }
        for (const char *flag : kBareFlags) {
            if (!known && std::strcmp(argv[i], flag) == 0) {
                known = true;
                break;
            }
        }
        if (!known) {
            std::fprintf(stderr, "fleet_campaign: unknown flag '%s'\n",
                         argv[i]);
            return false;
        }
    }
    return true;
}

const char *
parseStringFlag(int argc, char **argv, const char *flag,
                const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            return argv[i + 1];
        }
    }
    return fallback;
}

// ------------------------------------------------------------ report

/**
 * BRAM-channel report, stdout only: the CSV grid keeps its historical
 * aging-channel columns so the committed golden stays byte-exact even
 * under --bram.
 */
void
printBramSummary(const serve::FleetScanResult &result)
{
    std::printf("\n  BRAM channel          %zu provider scrubs\n",
                static_cast<std::size_t>(result.bram_scrub_ops));
    std::printf("  %-12s %8s %10s %8s %8s %9s\n", "board", "blocks",
                "recovered", "decayed", "zeroed", "teardown");
    std::size_t blocks = 0;
    std::size_t recovered = 0;
    for (const serve::FleetScanBramScore &s : result.bram_boards) {
        std::printf("  %-12s %8zu %10zu %8zu %8zu %9s\n",
                    s.board.c_str(),
                    static_cast<std::size_t>(s.blocks),
                    static_cast<std::size_t>(s.recovered),
                    static_cast<std::size_t>(s.decayed),
                    static_cast<std::size_t>(s.zeroed),
                    s.unclean ? "unclean" : "clean");
        blocks += s.blocks;
        recovered += s.recovered;
    }
    if (blocks > 0) {
        std::printf("  %-12s %8zu %9.1f%%\n", "overall", blocks,
                    100.0 * static_cast<double>(recovered) /
                        static_cast<double>(blocks));
    }
}

void
printSummary(const serve::FleetScanResult &result, std::size_t fleet,
             bool journal_stress, double wall_s, int argc, char **argv)
{
    std::printf("  fleet                 %zu boards\n", fleet);
    std::printf("  simulated             %.0f h (%.1f board-years)\n",
                result.simulated_h,
                result.simulated_h * static_cast<double>(fleet) /
                    8760.0);
    std::printf("  tenancies             %zu\n",
                static_cast<std::size_t>(result.tenancies));
    std::printf("  boards measured       %zu (+%zu virgin skipped)\n\n",
                result.boards.size(),
                static_cast<std::size_t>(result.skipped));

    std::printf("  %-12s %8s %10s\n", "board", "bits", "recovered");
    std::size_t bits = 0;
    std::size_t correct = 0;
    std::vector<std::vector<std::string>> rows;
    for (const serve::FleetScanBoardScore &s : result.boards) {
        std::printf("  %-12s %8zu %9.1f%%\n", s.board.c_str(),
                    static_cast<std::size_t>(s.bits),
                    100.0 * s.accuracy);
        bits += s.bits;
        correct += s.correct;
        rows.push_back({s.board, std::to_string(s.bits),
                        std::to_string(s.correct),
                        std::to_string(s.accuracy)});
    }
    if (bits > 0) {
        std::printf("  %-12s %8zu %9.1f%%\n", "overall", bits,
                    100.0 * static_cast<double>(correct) /
                        static_cast<double>(bits));
    }
    if (journal_stress) {
        std::printf("\n  journal stress        %zu deferred elements "
                    "replayed across %zu boards, coverage exact\n",
                    static_cast<std::size_t>(result.stress_elements),
                    static_cast<std::size_t>(result.stress_boards));
    }
    if (!result.bram_boards.empty()) {
        printBramSummary(result);
    }
    std::printf("\n  wall clock            %.2f s (%.0f simulated "
                "board-hours per ms)\n",
                wall_s,
                result.simulated_h * static_cast<double>(fleet) /
                    (1000.0 * wall_s));
    bench::dumpGridCsv(argc, argv,
                       {"board", "bits", "correct", "accuracy"}, rows);
}

} // namespace

int
main(int argc, char **argv)
{
    if (!argsAreKnown(argc, argv)) {
        printUsage(stderr);
        return 2;
    }
    std::size_t kFleet = 0;
    int kDays = 0;
    std::uint64_t seed = 0;
    long checkpoint_every = 0;
    long halt_at_day = 0;
    long day_sleep_ms = 0;
    long shards = 0;
    int lanes = 1;
    std::string checkpoint_path;
    try {
        // Every bound is checked here, before the value is narrowed to
        // the int/uint32_t fields it feeds: a wrapped value would run
        // a different campaign instead of failing.
        kFleet = static_cast<std::size_t>(bench::parseLongFlag(
            argc, argv, "--fleet", kDefaultFleet, 1, UINT32_MAX));
        kDays = 365 * static_cast<int>(bench::parseLongFlag(
                          argc, argv, "--years", kDefaultYears, 1,
                          INT_MAX / 365));
        // Seed 0 is a legal Rng seed, so the floor is 0 here.
        seed = static_cast<std::uint64_t>(bench::parseLongFlag(
            argc, argv, "--seed", static_cast<long>(kDefaultSeed), 0));
        checkpoint_every = bench::parseLongFlag(
            argc, argv, "--checkpoint-every", 0, 1, INT_MAX);
        halt_at_day = bench::parseLongFlag(argc, argv, "--halt-at-day",
                                           0, 1, INT_MAX);
        day_sleep_ms = bench::parseLongFlag(
            argc, argv, "--day-sleep-ms", 0, 0, UINT32_MAX);
        shards = bench::parseLongFlag(argc, argv, "--shards", 0, 0,
                                      serve::kMaxShards);
        lanes = bench::parseWorkers(argc, argv);
        checkpoint_path = parseStringFlag(
            argc, argv, "--checkpoint-path", kDefaultCheckpointPath);
    } catch (const util::FatalError &error) {
        std::fprintf(stderr, "fleet_campaign: %s\n", error.what());
        printUsage(stderr);
        return 2;
    }
    // --journal-stress exercises the activity journal at fleet scale:
    // every active tenancy rotates its burn values daily (in-place
    // design mutations, journaled as O(1) flips on unobserved
    // boards), and after the scan the unmeasured boards' deferred
    // populations are force-materialised and cross-checked against
    // the imprinted listing. Perturbs the aging histories, so the
    // committed CSV golden only applies without the flag.
    const bool journal_stress =
        bench::hasFlag(argc, argv, "--journal-stress");
    const bool resume = bench::hasFlag(argc, argv, "--resume");
    if (shards > 0 && (journal_stress || resume || halt_at_day > 0)) {
        std::fprintf(stderr,
                     "fleet_campaign: --shards cannot be combined "
                     "with --journal-stress/--resume/--halt-at-day "
                     "(workers checkpoint and resume on their own)\n");
        printUsage(stderr);
        return 2;
    }
    const bool bram = bench::hasFlag(argc, argv, "--bram");
    const std::string bram_scrub_name =
        parseStringFlag(argc, argv, "--bram-scrub", "none");
    cloud::BramScrubPolicy bram_scrub = cloud::BramScrubPolicy::None;
    if (bram_scrub_name == "release") {
        bram_scrub = cloud::BramScrubPolicy::ZeroOnRelease;
    } else if (bram_scrub_name == "rent") {
        bram_scrub = cloud::BramScrubPolicy::ZeroOnRent;
    } else if (bram_scrub_name != "none") {
        std::fprintf(stderr,
                     "fleet_campaign: unknown --bram-scrub policy "
                     "'%s'\n",
                     bram_scrub_name.c_str());
        printUsage(stderr);
        return 2;
    }
    if (shards > 0 &&
        (bram || bram_scrub != cloud::BramScrubPolicy::None)) {
        // The per-board BRAM readouts are local-run bookkeeping, not
        // part of the worker wire protocol, so a sharded run could
        // not merge them.
        std::fprintf(stderr,
                     "fleet_campaign: --shards cannot be combined "
                     "with --bram/--bram-scrub\n");
        printUsage(stderr);
        return 2;
    }
    const char *fault_schedule =
        parseStringFlag(argc, argv, "--fault-schedule", "");
    if (fault_schedule[0] != '\0') {
        // Through the environment so spawned shard workers inherit
        // the same schedule (each point draws from its own stream, so
        // sharing the spec is safe).
        ::setenv("PENTIMENTO_FAULTS", fault_schedule, 1);
    }
    const util::Expected<void> armed = util::fault::armFromEnv();
    if (!armed.ok()) {
        std::fprintf(stderr, "fleet_campaign: %s\n",
                     armed.error().c_str());
        return 1;
    }

    std::printf("=== Fleet campaign: %zu boards, %d simulated days, "
                "TM2 scan of <= %zu boards ===\n\n",
                kFleet, kDays, kMaxMeasured);
    const auto wall_start = std::chrono::steady_clock::now();

    // ---- sharded: supervisor over campaign_server workers ---------
    if (shards > 0) {
        std::string worker_binary =
            parseStringFlag(argc, argv, "--worker-binary", "");
        if (worker_binary.empty()) {
            const std::string self = argv[0];
            const std::size_t slash = self.rfind('/');
            worker_binary =
                slash == std::string::npos
                    ? std::string("./campaign_server")
                    : self.substr(0, slash + 1) + "campaign_server";
        }
        serve::ShardSupervisorConfig supervisor;
        supervisor.worker_binary = std::move(worker_binary);
        supervisor.checkpoint_dir = checkpoint_path + ".shards";
        supervisor.shard_count = static_cast<std::uint32_t>(shards);
        supervisor.backoff_seed = seed;
        supervisor.request.kind = serve::RequestKind::FleetScan;
        supervisor.request.seed = seed;
        supervisor.request.deadline_ms = 300000;
        supervisor.request.flags = serve::kFlagGoldenCampaign;
        supervisor.request.fleet = static_cast<std::uint32_t>(kFleet);
        supervisor.request.days = static_cast<std::uint32_t>(kDays);
        supervisor.request.scan_routes_per_tenant =
            static_cast<std::uint32_t>(kRoutesPerTenant);
        supervisor.request.max_measured =
            static_cast<std::uint32_t>(kMaxMeasured);
        supervisor.request.checkpoint_every_days =
            static_cast<std::uint32_t>(checkpoint_every);
        supervisor.request.throttle_ms_per_day =
            static_cast<std::uint32_t>(day_sleep_ms);

        const util::Expected<serve::ShardedScanResult> run =
            serve::runShardedFleetScan(supervisor);
        if (!run.ok()) {
            std::fprintf(stderr, "fleet_campaign: %s\n",
                         run.error().c_str());
            return 1;
        }
        std::uint32_t attempts = 0;
        std::uint32_t spawned = 0;
        for (const serve::ShardOutcome &shard : run.value().shards) {
            attempts += shard.attempts;
            spawned += shard.workers_spawned;
        }
        std::printf("  shards                %zu workers (%u attempts, "
                    "%u processes spawned)\n",
                    run.value().shards.size(), attempts, spawned);
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        printSummary(run.value().merged, kFleet, false, wall_s, argc,
                     argv);
        return 0;
    }

    // ---- in-process: the engine in golden-compat mode -------------
    serve::FleetScanConfig config;
    config.fleet = kFleet;
    config.days = kDays;
    config.seed = seed;
    config.routes_per_tenant = kRoutesPerTenant;
    config.max_measured = kMaxMeasured;
    config.checkpoint_every_days = static_cast<int>(checkpoint_every);
    config.checkpoint_path = checkpoint_path;
    config.throttle_ms_per_day =
        static_cast<std::uint32_t>(day_sleep_ms);
    // --resume is a promise, not a hint: if both generations are bad,
    // fail rather than silently redo the year.
    config.resume = resume ? serve::ResumeMode::Require
                           : serve::ResumeMode::Never;
    // This bench's historical draw sequence (fixed driver stream,
    // "tenant_" naming) is locked by the committed golden CSV.
    config.golden_compat = true;
    config.journal_stress = journal_stress;
    config.bram_channel = bram;
    config.bram_scrub = bram_scrub;
    config.halt_at_day = static_cast<int>(halt_at_day);
    util::ThreadPool pool(static_cast<std::size_t>(lanes - 1));
    config.pool = &pool;
    SignalObserver observer(kDays);
    config.observer = &observer;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    serve::FleetScanResult result;
    try {
        util::Expected<serve::FleetScanResult> run =
            serve::runFleetScan(config);
        if (!run.ok()) {
            std::fprintf(stderr, "fleet_campaign: %s\n",
                         run.error().c_str());
            return 1;
        }
        result = std::move(run.value());
    } catch (const util::CancelledError &) {
        std::fprintf(stderr,
                     "fleet_campaign: signal %d after day %d; "
                     "checkpoint written to %s (resume with "
                     "--resume)\n",
                     observer.signalNumber(), observer.lastDay(),
                     checkpoint_path.c_str());
        return 128 + observer.signalNumber();
    }
    if (!result.resumed_from.empty()) {
        std::printf("  resumed from %s at day %d (%zu finished, "
                    "%zu active tenancies)\n\n",
                    result.resumed_from.c_str(), result.resumed_day,
                    static_cast<std::size_t>(result.resumed_finished),
                    static_cast<std::size_t>(result.resumed_active));
    }
    if (result.halted_after_day > 0) {
        std::printf("  halted after day %d; checkpoint written to %s "
                    "(resume with --resume)\n",
                    result.halted_after_day, checkpoint_path.c_str());
        return 0;
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    printSummary(result, kFleet, journal_stress, wall_s, argc, argv);
    return 0;
}
