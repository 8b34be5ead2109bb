/**
 * @file
 * The in-process campaign workloads: campaign, churn and durable.
 *
 * Each run cycles through a fixed list of campaign seeds derived from
 * the run seed until the window has elapsed and every seed has run at
 * least once. Every campaign is timed, digested and checked; the
 * recovery figure is taken over the distinct seeds only, so it does
 * not depend on how many campaigns fit in the window.
 */

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"
#include "replay.hpp"
#include "serve/campaign.hpp"
#include "serve/shard.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace pc = pentimento;
using pc::serve::FleetScanConfig;
using pc::serve::FleetScanResult;

namespace {

/** The three campaign workload shapes. */
struct Shape
{
    /** Digest key prefix: same shape and seed, same digest. */
    const char *key;
    bool durable = false;
    /** Distinct campaign seeds per run. */
    std::size_t distinct = 16;
};

Shape
shapeFor(const std::string &workload)
{
    if (workload == "churn") {
        return Shape{"churn", false, 20};
    }
    if (workload == "durable") {
        // Same campaign shape as `campaign`, so the same digests.
        return Shape{"campaign", true, 6};
    }
    return Shape{"campaign", false, 16};
}

std::size_t
campaignLanes()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

/** Fires once: records when the engine reached its first day boundary. */
class FirstDayObserver : public pc::core::SweepObserver
{
  public:
    bool onSweep(std::size_t, double, const double *, std::size_t) override
    {
        if (first_ns_ == 0) {
            first_ns_ = nowNs();
        }
        return true;
    }
    std::int64_t firstNs() const { return first_ns_; }

  private:
    std::int64_t first_ns_ = 0;
};

/** Everything one campaign-workload run needs, built in set-up. */
struct Setup
{
    Shape shape;
    std::vector<std::uint64_t> seeds;
    std::unique_ptr<pc::util::ThreadPool> pool;
    std::string checkpoint_path;
};

Setup
makeSetup(const Params &params)
{
    Setup s;
    s.shape = shapeFor(params.workload);
    for (std::size_t i = 0; i < s.shape.distinct; ++i) {
        s.seeds.push_back(deriveSeed(params.seed, s.shape.key, i));
    }
    if (params.workload == "campaign") {
        s.pool = std::make_unique<pc::util::ThreadPool>(campaignLanes() -
                                                        1);
    }
    if (s.shape.durable) {
        std::filesystem::create_directories(params.scratch_dir);
        s.checkpoint_path = params.scratch_dir + "/durable.ckpt";
    }
    return s;
}

FleetScanConfig
configFor(const Params &params, const Setup &s, std::uint64_t seed)
{
    FleetScanConfig config;
    config.seed = seed;
    config.pool = s.pool.get();
    if (params.workload == "churn") {
        config.journal_stress = true;
        config.bram_channel = true;
        config.bram_scrub = pc::cloud::BramScrubPolicy::ZeroOnRelease;
        config.max_measured = 2;
    }
    return config;
}

/** Mid-year halt day of a durable campaign, from its seed. */
int
haltDay(std::uint64_t seed)
{
    return 150 + static_cast<int>(seed % 60);
}

void
clearCheckpoints(const std::string &path)
{
    for (const char *suffix : {"", ".prev", ".tmp"}) {
        std::error_code ec;
        std::filesystem::remove(path + suffix, ec);
    }
}

std::string
seedKey(const Shape &shape, std::uint64_t seed)
{
    return std::string(shape.key) + ":" + std::to_string(seed);
}

/** Basic sanity of one campaign result. */
bool
plausible(const Params &params, const FleetScanConfig &config,
          const FleetScanResult &r, RunResult *out)
{
    if (r.boards.empty() || r.boards.size() > config.max_measured ||
        r.tenancies == 0) {
        out->fail(params.workload + ": implausible campaign result");
        return false;
    }
    if (config.journal_stress && r.stress_boards == 0) {
        out->fail("churn: journal coverage check did not run");
        return false;
    }
    if (config.bram_channel && r.bram_boards.size() != r.boards.size()) {
        out->fail("churn: BRAM readout missing");
        return false;
    }
    return true;
}

/** Timings and outputs of one durable iteration. */
struct DurableRun
{
    double campaign_s = 0.0;
    double resume_s = 0.0;
    double shard_s = 0.0;
    FleetScanResult result;
    std::uint64_t shard_attempts = 0;
    std::uint64_t shard_spawned = 0;
    bool ok = false;
};

/**
 * One durable iteration: checkpointed run halting mid-year, resume
 * with ResumeMode::Require, then a 2-shard run of the same seed. With
 * a tracer the campaign part goes through the traced replay.
 */
DurableRun
runDurable(const Params &params, const Setup &s, std::uint64_t seed,
           Tracer *tracer, ReplayCounts *counts, RunResult *out)
{
    DurableRun run;
    clearCheckpoints(s.checkpoint_path);
    FleetScanConfig config = configFor(params, s, seed);
    config.checkpoint_every_days = 7;
    config.checkpoint_path = s.checkpoint_path;
    config.halt_at_day = haltDay(seed);
    config.resume = pc::serve::ResumeMode::Never;
    const auto engine = [&](const FleetScanConfig &c) {
        return tracer != nullptr ? replayFleetScan(c, *tracer, counts)
                                 : pc::serve::runFleetScan(c);
    };
    if (tracer != nullptr) {
        tracer->begin("campaign");
    }
    const std::int64_t t0 = nowNs();
    const pc::util::Expected<FleetScanResult> halted = engine(config);
    FirstDayObserver observer;
    config.halt_at_day = 0;
    config.resume = pc::serve::ResumeMode::Require;
    config.observer = &observer;
    const std::int64_t t_resume = nowNs();
    const pc::util::Expected<FleetScanResult> resumed = engine(config);
    const std::int64_t t1 = nowNs();
    if (tracer != nullptr) {
        tracer->end();
    }
    run.campaign_s = static_cast<double>(t1 - t0) / 1e9;
    run.resume_s =
        static_cast<double>(observer.firstNs() - t_resume) / 1e9;
    if (!halted.ok() || !resumed.ok()) {
        out->fail("durable: " + (halted.ok() ? resumed.error()
                                              : halted.error()));
        return run;
    }
    if (halted.value().halted_after_day != haltDay(seed) ||
        resumed.value().resumed_day != haltDay(seed) ||
        observer.firstNs() == 0) {
        out->fail("durable: halt/resume did not happen as configured");
        return run;
    }
    run.result = resumed.value();

    pc::serve::ShardSupervisorConfig shard;
    shard.worker_binary = params.server_binary;
    shard.shard_count = 2;
    shard.backoff_seed = seed;
    shard.request.kind = pc::serve::RequestKind::FleetScan;
    shard.request.seed = seed;
    shard.request.fleet = static_cast<std::uint32_t>(config.fleet);
    shard.request.days = static_cast<std::uint32_t>(config.days);
    shard.request.scan_routes_per_tenant =
        static_cast<std::uint32_t>(config.routes_per_tenant);
    shard.request.max_measured =
        static_cast<std::uint32_t>(config.max_measured);
    const std::int64_t t2 = nowNs();
    pc::util::Expected<pc::serve::ShardedScanResult> sharded =
        pc::util::unexpected(std::string("not run"));
    {
        Scope span(tracer, "serve.shard_run");
        sharded = pc::serve::runShardedFleetScan(shard);
    }
    run.shard_s = static_cast<double>(nowNs() - t2) / 1e9;
    if (!sharded.ok()) {
        out->fail("durable: sharded run failed: " + sharded.error());
        return run;
    }
    for (const pc::serve::ShardOutcome &o : sharded.value().shards) {
        run.shard_attempts += o.attempts;
        run.shard_spawned += o.workers_spawned;
    }
    if (campaignDigest(sharded.value().merged) !=
        campaignDigest(run.result)) {
        out->fail("durable: 2-shard result differs from resumed result");
        return run;
    }
    run.ok = true;
    return run;
}

/** A campaign result with the seed it came from. */
using SeededResult = std::pair<std::uint64_t, FleetScanResult>;

/** Bits recovered / attacked over a set of results, percent. */
double
recoveryPct(const std::vector<SeededResult> &results)
{
    std::uint64_t bits = 0;
    std::uint64_t correct = 0;
    for (const auto &[seed, r] : results) {
        for (const auto &b : r.boards) {
            bits += b.bits;
            correct += b.correct;
        }
    }
    return bits == 0 ? 0.0
                     : 100.0 * static_cast<double>(correct) /
                           static_cast<double>(bits);
}

} // namespace

void
runCampaignSetupProbe(const Params &params)
{
    const Setup s = makeSetup(params);
    if (s.shape.durable) {
        clearCheckpoints(s.checkpoint_path);
    }
}

void
runCampaignWorkload(const Params &params, RunResult *out)
{
    const Setup s = makeSetup(params);
    // Traced runs spend the first half of the window untraced, to
    // compare walls and scores against, and the second half traced.
    const double untraced_s =
        params.trace ? params.seconds / 2.0 : params.seconds;
    const std::size_t min_distinct =
        params.trace ? std::min<std::size_t>(s.seeds.size(), 2)
                     : s.seeds.size();

    std::vector<double> walls;
    std::vector<double> resumes;
    std::vector<double> shard_walls;
    std::vector<SeededResult> distinct;
    std::vector<std::pair<std::uint64_t, double>> untraced_by_seed;
    std::uint64_t shard_attempts = 0;
    std::uint64_t shard_spawned = 0;
    const std::int64_t start = nowNs();
    const auto elapsed = [&] {
        return static_cast<double>(nowNs() - start) / 1e9;
    };
    for (std::size_t i = 0;; ++i) {
        const bool window_done = elapsed() >= untraced_s;
        if ((i >= min_distinct && window_done) ||
            elapsed() > untraced_s * 3.0 + 30.0) {
            break;
        }
        const std::uint64_t seed = s.seeds[i % s.seeds.size()];
        ++out->attempted;
        FleetScanResult result;
        double wall = 0.0;
        if (s.shape.durable) {
            DurableRun run = runDurable(params, s, seed, nullptr, nullptr,
                                        out);
            if (!run.ok) {
                continue;
            }
            wall = run.campaign_s;
            resumes.push_back(run.resume_s);
            shard_walls.push_back(run.shard_s);
            shard_attempts += run.shard_attempts;
            shard_spawned += run.shard_spawned;
            result = std::move(run.result);
        } else {
            const FleetScanConfig config = configFor(params, s, seed);
            const std::int64_t t0 = nowNs();
            pc::util::Expected<FleetScanResult> r =
                pc::serve::runFleetScan(config);
            wall = static_cast<double>(nowNs() - t0) / 1e9;
            if (!r.ok()) {
                out->fail(params.workload + ": " + r.error());
                continue;
            }
            if (!plausible(params, config, r.value(), out)) {
                continue;
            }
            result = std::move(r.value());
        }
        walls.push_back(wall);
        untraced_by_seed.emplace_back(seed, wall);
        out->digest(seedKey(s.shape, seed), campaignDigest(result));
        if (i < s.seeds.size()) {
            distinct.emplace_back(seed, std::move(result));
        }
    }
    const double window_s = elapsed();
    const double peak_rss_mb = peakRssMb();

    // Durable results must equal an uninterrupted multi-lane run of
    // the same seed (lane count and checkpointing change nothing).
    if (s.shape.durable) {
        clearCheckpoints(s.checkpoint_path);
        pc::util::ThreadPool lanes(campaignLanes() - 1);
        for (const auto &[seed, resumed] : distinct) {
            FleetScanConfig config = configFor(params, s, seed);
            config.pool = &lanes;
            const pc::util::Expected<FleetScanResult> plain =
                pc::serve::runFleetScan(config);
            ++out->attempted;
            if (!plain.ok() || campaignDigest(plain.value()) !=
                                   campaignDigest(resumed)) {
                out->fail("durable: resumed result differs from the "
                          "uninterrupted campaign");
            }
        }
    }

    const double tail_p = tailPercentile(walls.size());
    out->note("campaign_samples", static_cast<double>(walls.size()));
    out->note("campaign_tail_percentile", tail_p);
    out->note("distinct_seeds", static_cast<double>(distinct.size()));
    if (s.shape.durable) {
        out->note("resume_s", percentile(resumes, 50.0));
        out->note("shard_p50_s", percentile(shard_walls, 50.0));
        out->note("shard_attempts", static_cast<double>(shard_attempts));
        out->note("shard_spawned", static_cast<double>(shard_spawned));
    }
    if (!params.trace) {
        EndToEnd e2e;
        e2e.campaign_p50_s = percentile(walls, 50.0);
        e2e.campaign_tail_s = percentile(walls, tail_p);
        e2e.recovery_pct = recoveryPct(distinct);
        e2e.peak_rss_mb = peak_rss_mb;
        e2e.goodput_rps = static_cast<double>(walls.size()) / window_s;
        emitEndToEnd(e2e, out);
        return;
    }

    // ---- traced half: replay the seeds already run untraced --------
    Tracer tracer;
    ReplayCounts counts;
    std::vector<double> ratios;
    std::size_t traced_campaigns = 0;
    std::uint64_t traced_attempts = 0;
    std::uint64_t traced_spawned = 0;
    const std::size_t replayable =
        std::min(untraced_by_seed.size(), s.seeds.size());
    const std::int64_t traced_start = nowNs();
    const auto traced_elapsed = [&] {
        return static_cast<double>(nowNs() - traced_start) / 1e9;
    };
    for (std::size_t i = 0; replayable > 0; ++i) {
        if ((i >= 1 && traced_elapsed() >= params.seconds - untraced_s) ||
            traced_elapsed() > params.seconds * 3.0 + 30.0) {
            break;
        }
        const std::uint64_t seed = untraced_by_seed[i % replayable].first;
        tracer.setTraceId(i + 1);
        ++out->attempted;
        FleetScanResult result;
        double wall = 0.0;
        if (s.shape.durable) {
            DurableRun run =
                runDurable(params, s, seed, &tracer, &counts, out);
            if (!run.ok) {
                continue;
            }
            wall = run.campaign_s;
            traced_attempts += run.shard_attempts;
            traced_spawned += run.shard_spawned;
            result = std::move(run.result);
        } else {
            const FleetScanConfig config = configFor(params, s, seed);
            const std::int64_t t0 = nowNs();
            tracer.begin("campaign");
            pc::util::Expected<FleetScanResult> r =
                replayFleetScan(config, tracer, &counts);
            tracer.end();
            wall = static_cast<double>(nowNs() - t0) / 1e9;
            if (!r.ok()) {
                out->fail("replay: " + r.error());
                continue;
            }
            result = std::move(r.value());
        }
        ++traced_campaigns;
        // The replay must reproduce the untraced run's scores: a
        // differing digest for the same seed fails the run.
        out->digest(seedKey(s.shape, seed), campaignDigest(result));
        std::vector<double> same_seed;
        for (const auto &[sd, w] : untraced_by_seed) {
            if (sd == seed) {
                same_seed.push_back(w);
            }
        }
        ratios.push_back(wall / percentile(same_seed, 50.0));
    }
    const double traced_wall_s = traced_elapsed();
    if (s.shape.durable) {
        clearCheckpoints(s.checkpoint_path);
    }
    if (!tracer.write(params.scratch_dir + "/trace-" + params.workload +
                      ".csv")) {
        out->fail("could not write the trace file");
    }

    LayerFigures f;
    const double per = std::max<double>(1.0, traced_campaigns);
    f.deferred_keys = static_cast<double>(counts.deferred_keys) / per;
    f.materialised_keys =
        static_cast<double>(counts.materialised_keys) / per;
    if (counts.deferred_keys > 0) {
        f.materialised_ratio = static_cast<double>(counts.materialised_keys) /
                               static_cast<double>(counts.deferred_keys);
    }
    const Tracer::Aggregate commit = spanTotals(tracer, "snapshot.commit");
    if (commit.calls > 0 && commit.self_ns > 0) {
        f.snapshot_bytes = static_cast<double>(counts.snapshot_bytes) /
                           static_cast<double>(commit.calls);
        f.commit_mb_per_s = static_cast<double>(counts.snapshot_bytes) /
                            (1024.0 * 1024.0) /
                            (static_cast<double>(commit.self_ns) / 1e9);
    }
    if (s.shape.durable) {
        f.shard_attempts = static_cast<double>(traced_attempts) / per;
        f.shard_spawned = static_cast<double>(traced_spawned) / per;
        f.resume_s = percentile(resumes, 50.0);
    }
    f.trace_overhead_pct = 100.0 * (percentile(ratios, 50.0) - 1.0);
    f.error_ratio = static_cast<double>(out->failed) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1, out->attempted));
    emitLayerMetrics(tracer, traced_wall_s, f, out);
    out->note("traced_campaigns", static_cast<double>(traced_campaigns));
    out->note("traced_spans", static_cast<double>(tracer.spanCount()));
}

} // namespace perfbench
