/**
 * @file
 * Shared rendering helpers for the figure/table benches.
 */

#ifndef PENTIMENTO_BENCH_COMMON_HPP
#define PENTIMENTO_BENCH_COMMON_HPP

#include <climits>
#include <memory>
#include <string>

#include "core/classifier.hpp"
#include "core/experiment.hpp"
#include "util/parallel.hpp"

namespace pentimento::bench {

/**
 * Total parallel lanes requested on the command line: `--workers N`
 * wins, then the PENTIMENTO_WORKERS environment variable, then 1
 * (serial). Benches are deterministic by construction, so lanes only
 * change wall-clock, never output. A malformed, non-positive or
 * past-INT_MAX value of either fatals, the same as parseLongFlag().
 */
int parseWorkers(int argc, char **argv);

/**
 * `--flag N` integer argument, or `fallback` when the flag is absent.
 * Fatals on a missing, malformed, or out-of-range value (outside
 * [min_value, max_value], or past what a long holds) — a scaling flag
 * silently falling back or wrapping would misattribute the resulting
 * numbers.
 */
long parseLongFlag(int argc, char **argv, const char *flag,
                   long fallback, long min_value = 1,
                   long max_value = LONG_MAX);

/** True when a bare boolean flag (e.g. `--journal-stress`) is
 *  present. */
bool hasFlag(int argc, char **argv, const char *flag);

/**
 * Build the bench's work pool from the command line: a pool with
 * parseWorkers() - 1 extra threads (the caller is the final lane).
 * With --workers 1 the pool has zero workers and every
 * parallelMap/parallelFor degenerates to the serial loop. A bad
 * --workers or PENTIMENTO_WORKERS prints the error and exits 2.
 */
std::unique_ptr<util::ThreadPool> makePool(int argc, char **argv);

/**
 * Render one route-delay group of an experiment as an ASCII chart:
 * burn-0 routes drawn with 'o', burn-1 routes with 'x', kernel
 * smoothed, with an optional vertical marker at the burn/recovery
 * switch.
 */
std::string renderGroupChart(const core::ExperimentResult &result,
                             double target_ps, const std::string &title,
                             double marker_hour = -1.0,
                             double bandwidth_h = 25.0);

/**
 * Per-group ∆ps envelope at the end of an interval: the mean of
 * |∆ps| over [h_from, h_to] split by burn value, printed next to the
 * paper's reported range.
 */
struct EnvelopeRow
{
    double target_ps = 0.0;
    double burn0_mean_ps = 0.0;
    double burn1_mean_ps = 0.0;
};

/** Compute envelopes for every group over a window. */
std::vector<EnvelopeRow> envelopes(const core::ExperimentResult &result,
                                   double h_from, double h_to);

/** Format a classification summary line. */
std::string classificationSummary(const core::ClassificationReport &r);

/** Print the standard measurement-cost line (paper §6.1: ~1.4%). */
std::string measurementCost(const core::ExperimentResult &result);

/**
 * Dump the raw per-route series behind a figure to CSV (columns:
 * route, target_ps, burn_value, hour, delta_ps) so the plot can be
 * regenerated with external tooling.
 */
void dumpCsv(const core::ExperimentResult &result,
             const std::string &path);

/**
 * Handle an optional `--csv <path>` command-line flag: when present,
 * dump the result and report where. Returns true when a dump was
 * written.
 */
bool handleCsvFlag(int argc, char **argv,
                   const core::ExperimentResult &result);

/** `--csv <path>` argument, or nullptr when the flag is absent. */
const char *csvPath(int argc, char **argv);

/**
 * The shared ablation `--csv` handler: when the flag is present,
 * write header + rows to the requested path and report where, so
 * every sweep is scriptable with the same flag and format
 * conventions. Returns true when a dump was written.
 */
bool dumpGridCsv(int argc, char **argv,
                 const std::vector<std::string> &header,
                 const std::vector<std::vector<std::string>> &rows);

} // namespace pentimento::bench

#endif // PENTIMENTO_BENCH_COMMON_HPP
