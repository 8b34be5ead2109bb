/**
 * @file
 * Shared pieces of the perfbench driver: run parameters, the result
 * record every workload fills, the in-memory span tracer, the campaign
 * digest, and the latency statistics.
 *
 * perfbench_driver runs one workload for a fixed wall-clock window and prints
 * one JSON object. With tracing off it reports end-to-end metrics; with
 * tracing on it reports per-layer spans recorded around the library's
 * public calls (see replay.cpp and serve_load.cpp).
 */

#ifndef PERFBENCH_PERFBENCH_HPP
#define PERFBENCH_PERFBENCH_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

/** Monotonic clock in ns; comparable across processes (CLOCK_MONOTONIC). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Command-line parameters of one driver run. */
struct Params
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** campaign_server binary (shard workers and the serve workload). */
    std::string server_binary;
    /** Scratch directory for checkpoints and the trace file. */
    std::string scratch_dir;
};

/** One metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Reasons for failures (first few, for the detail line). */
    std::vector<std::string> errors;
    /** Metrics printed in the final line, in insertion order. */
    std::vector<std::pair<std::string, Metric>> metrics;
    /** Extra facts for the detail line (sample counts, percentiles). */
    std::vector<std::pair<std::string, double>> detail;
    /** Per-campaign digests: (shape key, campaign seed) -> digest. */
    std::vector<std::pair<std::string, std::uint32_t>> digests;

    void fail(const std::string &why);
    void metric(const std::string &name, double value,
                const std::string &unit);
    void note(const std::string &name, double value);
    /** Record a digest; a differing repeat of the same key fails. */
    void digest(const std::string &key, std::uint32_t value);
};

/**
 * In-memory span recorder. One instance per thread. Spans nest through
 * a stack: a span's self time is its duration minus its children's.
 * Names must be string literals (they are compared by address).
 */
class Tracer
{
  public:
    struct Aggregate
    {
        std::uint64_t calls = 0;
        std::int64_t self_ns = 0;
    };

    /** Spans opened from now on carry this id (campaign or request). */
    void setTraceId(std::uint64_t id) { trace_id_ = id; }

    void begin(const char *name);
    void end();
    /** A closed top-level span timed elsewhere (e.g. across threads). */
    void record(const char *name, std::int64_t start, std::int64_t end);

    /** Per-name totals of closed spans. */
    const std::vector<std::pair<const char *, Aggregate>> &
    aggregates() const
    {
        return aggregates_;
    }

    /** Fold another thread's tracer into this one's totals. */
    void merge(const Tracer &other);

    /** Write every kept span as CSV (name,start_ns,end_ns,parent,id). */
    bool write(const std::string &path) const;

    std::uint64_t spanCount() const { return spans_.size() + dropped_; }

  private:
    struct Open
    {
        const char *name;
        std::int64_t start;
        std::int64_t child_ns;
        std::int64_t index; // into spans_, -1 when dropped
    };
    struct Span
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        std::int64_t parent;
        std::uint64_t trace_id;
    };
    Aggregate &slot(const char *name);

    std::vector<Open> stack_;
    std::vector<Span> spans_;
    std::vector<std::pair<const char *, Aggregate>> aggregates_;
    std::uint64_t trace_id_ = 0;
    std::uint64_t dropped_ = 0;
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name) : tracer_(tracer)
    {
        if (tracer_ != nullptr) {
            tracer_->begin(name);
        }
    }
    ~Scope()
    {
        if (tracer_ != nullptr) {
            tracer_->end();
        }
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
};

/**
 * Campaign digest: CRC32C of the encodeFleetScanResult payload minus
 * the 8-byte request id (the scheme of `server_loadgen --scan-days`).
 */
std::uint32_t campaignDigest(const pentimento::serve::FleetScanResult &r);

/** Same digest from a RESULT payload received over the wire. */
std::uint32_t payloadDigest(const std::vector<std::uint8_t> &payload);

/** Deterministic per-index seed derived from the run seed. */
std::uint64_t deriveSeed(std::uint64_t run_seed, const char *stream,
                         std::uint64_t index);

/** Linear-interpolated percentile (p in [0, 100]) of a sample. */
double percentile(std::vector<double> values, double p);

/**
 * The tail percentile: the highest of a fixed ladder with at least
 * ten samples beyond it, or 50 when even the median has fewer.
 */
double tailPercentile(std::size_t samples);

/** Peak resident set of this process and its reaped children, MiB. */
double peakRssMb();

// Workload entry points.
void runCampaignWorkload(const Params &params, RunResult *out);
void runServeWorkload(const Params &params, RunResult *out);

/**
 * Set-up only: build what a run builds before its first unit of work,
 * then print "ready <nowNs>" (serve: once the server answered a Ping).
 */
void runCampaignSetupProbe(const Params &params);
void runServeSetupProbe(const Params &params);

/** End-to-end metrics every untraced run reports (plus setup_s). */
struct EndToEnd
{
    double campaign_p50_s = 0.0;
    double campaign_tail_s = 0.0;
    double recovery_pct = 0.0;
    double peak_rss_mb = 0.0;
    double goodput_rps = 0.0;
};
void emitEndToEnd(const EndToEnd &e2e, RunResult *out);

/**
 * Per-layer figures besides the spans. Fields a workload does not
 * exercise stay 0. The workload-specific end-to-end figures (resume,
 * ping, scan, capacity) ride here, measured on the untraced half.
 */
struct LayerFigures
{
    double deferred_keys = 0.0;
    double materialised_keys = 0.0;
    double materialised_ratio = 0.0;
    double snapshot_bytes = 0.0;
    double commit_mb_per_s = 0.0;
    double shard_attempts = 0.0;
    double shard_spawned = 0.0;
    double shed_ratio = 0.0;
    double deadline_ratio = 0.0;
    double malformed_answered_ratio = 0.0;
    double gen_lag_ms = 0.0;
    double trace_overhead_pct = 0.0;
    double resume_s = 0.0;
    double ping_p50_us = 0.0;
    double ping_tail_us = 0.0;
    double scan_p50_ms = 0.0;
    double scan_tail_ms = 0.0;
    double capacity_rps = 0.0;
    double error_ratio = 0.0;
};

/**
 * Emit every per-layer metric: <span>.calls/.ms/.share for each of the
 * benchmark's spans (share = self time / traced wall), then the figures.
 */
void emitLayerMetrics(const Tracer &tracer, double traced_wall_s,
                      const LayerFigures &figures, RunResult *out);

/** Self time (ms) and calls of one span name in a tracer. */
Tracer::Aggregate spanTotals(const Tracer &tracer, const char *name);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HPP
