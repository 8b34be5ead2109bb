#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>

#include "perfbench.hpp"
#include "util/snapshot.hpp"

namespace perfbench {

namespace {

/** Spans kept for the written trace; totals keep counting beyond. */
constexpr std::size_t kMaxKeptSpans = 1u << 20;

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Span names every traced run reports, in order. */
const char *const kSpanNames[] = {
    "cloud.advance_day",    "cloud.rent",          "cloud.release",
    "cloud.load_tenant",    "cloud.load_attack",   "cloud.advance_settle",
    "fabric.allocate_route", "fabric.bram_io",     "fabric.materialise",
    "tdc.calibrate",        "tdc.sweep_first",     "tdc.sweep",
    "core.classify",        "snapshot.serialize",  "snapshot.commit",
    "snapshot.open",        "snapshot.restore",    "serve.encode",
    "serve.decode",         "serve.rtt.ping",      "serve.rtt.churn",
    "serve.rtt.scan",       "serve.shard_run",
};
const std::size_t kSpanCount = sizeof(kSpanNames) / sizeof(kSpanNames[0]);

} // namespace

void
RunResult::fail(const std::string &why)
{
    ++failed;
    if (errors.size() < 8) {
        errors.push_back(why);
    }
}

void
RunResult::metric(const std::string &name, double value,
                  const std::string &unit)
{
    metrics.emplace_back(name, Metric{value, unit});
}

void
RunResult::note(const std::string &name, double value)
{
    detail.emplace_back(name, value);
}

void
RunResult::digest(const std::string &key, std::uint32_t value)
{
    for (const auto &[k, v] : digests) {
        if (k == key) {
            if (v != value) {
                fail("digest of " + key + " differs between repeats");
            }
            return;
        }
    }
    digests.emplace_back(key, value);
}

Tracer::Aggregate &
Tracer::slot(const char *name)
{
    for (auto &[n, agg] : aggregates_) {
        if (n == name) {
            return agg;
        }
    }
    aggregates_.emplace_back(name, Aggregate{});
    return aggregates_.back().second;
}

void
Tracer::begin(const char *name)
{
    std::int64_t index = -1;
    const std::int64_t parent =
        stack_.empty() ? -1 : stack_.back().index;
    const std::int64_t start = nowNs();
    if (spans_.size() < kMaxKeptSpans) {
        index = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(Span{name, start, 0, parent, trace_id_});
    } else {
        ++dropped_;
    }
    stack_.push_back(Open{name, start, 0, index});
}

void
Tracer::end()
{
    const std::int64_t stop = nowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = stop - open.start;
    if (open.index >= 0) {
        spans_[static_cast<std::size_t>(open.index)].end = stop;
    }
    Aggregate &agg = slot(open.name);
    ++agg.calls;
    agg.self_ns += duration - open.child_ns;
    if (!stack_.empty()) {
        stack_.back().child_ns += duration;
    }
}

void
Tracer::record(const char *name, std::int64_t start, std::int64_t stop)
{
    if (spans_.size() < kMaxKeptSpans) {
        spans_.push_back(Span{name, start, stop, -1, trace_id_});
    } else {
        ++dropped_;
    }
    Aggregate &agg = slot(name);
    ++agg.calls;
    agg.self_ns += stop - start;
}

void
Tracer::merge(const Tracer &other)
{
    for (const auto &[name, agg] : other.aggregates_) {
        Aggregate &mine = slot(name);
        mine.calls += agg.calls;
        mine.self_ns += agg.self_ns;
    }
    const std::int64_t offset = static_cast<std::int64_t>(spans_.size());
    for (Span span : other.spans_) {
        if (spans_.size() >= kMaxKeptSpans) {
            ++dropped_;
            continue;
        }
        if (span.parent >= 0) {
            span.parent += offset;
        }
        spans_.push_back(span);
    }
    dropped_ += other.dropped_;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        return false;
    }
    std::fprintf(file, "name,start_ns,end_ns,parent,trace_id\n");
    for (const Span &span : spans_) {
        std::fprintf(file, "%s,%lld,%lld,%lld,%llu\n", span.name,
                     static_cast<long long>(span.start),
                     static_cast<long long>(span.end),
                     static_cast<long long>(span.parent),
                     static_cast<unsigned long long>(span.trace_id));
    }
    return std::fclose(file) == 0;
}

std::uint32_t
payloadDigest(const std::vector<std::uint8_t> &payload)
{
    if (payload.size() < 8) {
        return 0;
    }
    return pentimento::util::crc32c(payload.data() + 8,
                                    payload.size() - 8);
}

std::uint32_t
campaignDigest(const pentimento::serve::FleetScanResult &result)
{
    return payloadDigest(
        pentimento::serve::encodeFleetScanResult(0, result));
}

std::uint64_t
deriveSeed(std::uint64_t run_seed, const char *stream,
           std::uint64_t index)
{
    std::uint64_t h = splitmix(run_seed);
    for (const char *c = stream; *c != '\0'; ++c) {
        h = splitmix(h ^ static_cast<unsigned char>(*c));
    }
    // Keep seeds short so they read well in logs and the digest file.
    return splitmix(h ^ index) % 1000000007ULL;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
tailPercentile(std::size_t samples)
{
    static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 80.0, 75.0};
    for (const double p : kLadder) {
        if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) {
            return p;
        }
    }
    return 50.0;
}

double
peakRssMb()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss,
                                        children.ru_maxrss)) /
           1024.0;
}

Tracer::Aggregate
spanTotals(const Tracer &tracer, const char *name)
{
    for (const auto &[n, a] : tracer.aggregates()) {
        if (std::strcmp(n, name) == 0) {
            return a;
        }
    }
    return {};
}

void
emitEndToEnd(const EndToEnd &e2e, RunResult *out)
{
    out->metric("campaign_p50_s", e2e.campaign_p50_s, "s");
    out->metric("campaign_tail_s", e2e.campaign_tail_s, "s");
    out->metric("recovery_pct", e2e.recovery_pct, "%");
    out->metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
    out->metric("goodput_rps", e2e.goodput_rps, "1/s");
}

void
emitLayerMetrics(const Tracer &tracer, double traced_wall_s,
                 const LayerFigures &f, RunResult *out)
{
    for (std::size_t i = 0; i < kSpanCount; ++i) {
        const char *name = kSpanNames[i];
        const Tracer::Aggregate agg = spanTotals(tracer, name);
        const double ms = static_cast<double>(agg.self_ns) / 1e6;
        out->metric(std::string(name) + ".calls",
                    static_cast<double>(agg.calls), "count");
        out->metric(std::string(name) + ".ms", ms, "ms");
        out->metric(std::string(name) + ".share",
                    traced_wall_s > 0.0 ? ms / 1e3 / traced_wall_s : 0.0,
                    "ratio");
    }
    out->metric("fabric.deferred_keys", f.deferred_keys, "count");
    out->metric("fabric.materialised_keys", f.materialised_keys, "count");
    out->metric("fabric.materialised_ratio", f.materialised_ratio, "ratio");
    out->metric("snapshot.bytes", f.snapshot_bytes, "bytes");
    out->metric("snapshot.commit_mb_per_s", f.commit_mb_per_s, "MB/s");
    out->metric("shard.attempts", f.shard_attempts, "count");
    out->metric("shard.spawned", f.shard_spawned, "count");
    out->metric("serve.shed_ratio", f.shed_ratio, "ratio");
    out->metric("serve.deadline_ratio", f.deadline_ratio, "ratio");
    out->metric("serve.malformed_answered_ratio",
                f.malformed_answered_ratio, "ratio");
    out->metric("serve.gen_lag_ms", f.gen_lag_ms, "ms");
    out->metric("trace_overhead_pct", f.trace_overhead_pct, "%");
    out->metric("resume_s", f.resume_s, "s");
    out->metric("ping_p50_us", f.ping_p50_us, "us");
    out->metric("ping_tail_us", f.ping_tail_us, "us");
    out->metric("scan_p50_ms", f.scan_p50_ms, "ms");
    out->metric("scan_tail_ms", f.scan_tail_ms, "ms");
    out->metric("capacity_rps", f.capacity_rps, "1/s");
    out->metric("error_ratio", f.error_ratio, "ratio");
}

} // namespace perfbench
