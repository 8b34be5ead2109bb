#include "bench_common.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/ascii_chart.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace pentimento::bench {

namespace {

/**
 * Parse a whole decimal string as a long in [min_value, max_value];
 * fatals naming `what` on anything else (trailing junk, overflow, or
 * out of range).
 */
long
parseLongValue(const char *text, const char *what, long min_value,
               long max_value)
{
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        value < min_value || value > max_value) {
        util::fatal(std::string("bench: bad value for ") + what);
    }
    return value;
}

/**
 * Total lanes named by PENTIMENTO_WORKERS, or 0 when it is unset. A
 * set but malformed value fatals exactly like a bad `--workers`.
 */
long
lanesFromEnv()
{
    const char *env = std::getenv("PENTIMENTO_WORKERS");
    return env == nullptr
               ? 0
               : parseLongValue(env, "PENTIMENTO_WORKERS", 1, INT_MAX);
}

} // namespace

int
parseWorkers(int argc, char **argv)
{
    // Fallback 0 marks "flag absent": a present value must be >= 1.
    long lanes = parseLongFlag(argc, argv, "--workers", 0, 1, INT_MAX);
    if (lanes == 0) {
        lanes = lanesFromEnv();
    }
    return lanes > 0 ? static_cast<int>(lanes) : 1;
}

long
parseLongFlag(int argc, char **argv, const char *flag, long fallback,
              long min_value, long max_value)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0) {
            continue;
        }
        if (i + 1 >= argc) {
            util::fatal(std::string("bench: missing value for ") +
                        flag);
        }
        return parseLongValue(argv[i + 1], flag, min_value, max_value);
    }
    return fallback;
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            return true;
        }
    }
    return false;
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

bool
argsAreKnown(int argc, char **argv, const char *program,
             std::initializer_list<const char *> value_flags,
             std::initializer_list<const char *> bare_flags)
{
    const auto named = [](std::initializer_list<const char *> flags,
                          const char *arg) {
        for (const char *flag : flags) {
            if (std::strcmp(arg, flag) == 0) {
                return true;
            }
        }
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        if (named(value_flags, argv[i])) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value for %s\n",
                             program, argv[i]);
                return false;
            }
            ++i;
        } else if (!named(bare_flags, argv[i])) {
            std::fprintf(stderr, "%s: unknown flag '%s'\n", program,
                         argv[i]);
            return false;
        }
    }
    return true;
}

void
requireSweepArgs(int argc, char **argv, const char *program)
{
    if (!argsAreKnown(argc, argv, program, {"--workers", "--csv"})) {
        std::fprintf(stderr, "usage: %s [--workers N] [--csv PATH]\n",
                     program);
        std::exit(2);
    }
}

std::unique_ptr<util::ThreadPool>
makePool(int argc, char **argv)
{
    int lanes = 1;
    try {
        lanes = parseWorkers(argc, argv);
    } catch (const util::FatalError &error) {
        // A bad --workers or PENTIMENTO_WORKERS is a usage error:
        // exit before any thread is spawned, never abort.
        std::fprintf(stderr, "%s\n", error.what());
        std::exit(2);
    }
    return std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(lanes - 1));
}

std::string
renderGroupChart(const core::ExperimentResult &result, double target_ps,
                 const std::string &title, double marker_hour,
                 double bandwidth_h)
{
    util::AsciiChart chart(76, 18);
    chart.setTitle(title);
    chart.setAxisLabels("hours", "delta ps (falling - rising)");

    std::vector<double> h0, v0, h1, v1;
    for (const std::size_t i : result.groupIndices(target_ps)) {
        const core::RouteRecord &record = result.routes[i];
        const std::vector<double> smooth =
            record.series.smoothed(bandwidth_h);
        for (std::size_t k = 0; k < smooth.size(); ++k) {
            if (record.burn_value) {
                h1.push_back(record.series.hours()[k]);
                v1.push_back(smooth[k]);
            } else {
                h0.push_back(record.series.hours()[k]);
                v0.push_back(smooth[k]);
            }
        }
    }
    if (!h0.empty()) {
        chart.addSeries("burn 0 (cyan in paper)", 'o', h0, v0);
    }
    if (!h1.empty()) {
        chart.addSeries("burn 1 (magenta in paper)", 'x', h1, v1);
    }
    if (marker_hour >= 0.0) {
        chart.addVerticalMarker(marker_hour, '|');
    }
    return chart.render();
}

std::vector<EnvelopeRow>
envelopes(const core::ExperimentResult &result, double h_from,
          double h_to)
{
    std::vector<double> groups;
    for (const auto &route : result.routes) {
        bool seen = false;
        for (const double g : groups) {
            seen = seen || g == route.target_ps;
        }
        if (!seen) {
            groups.push_back(route.target_ps);
        }
    }

    std::vector<EnvelopeRow> rows;
    for (const double g : groups) {
        EnvelopeRow row;
        row.target_ps = g;
        util::RunningStats zero, one;
        for (const std::size_t i : result.groupIndices(g)) {
            const core::RouteRecord &record = result.routes[i];
            const double v =
                record.series.meanBetweenHours(h_from, h_to);
            (record.burn_value ? one : zero).add(v);
        }
        row.burn0_mean_ps = zero.mean();
        row.burn1_mean_ps = one.mean();
        rows.push_back(row);
    }
    return rows;
}

std::string
classificationSummary(const core::ClassificationReport &r)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "bit recovery: %zu/%zu correct (%.1f%%)",
                  r.correct, r.bits.size(), 100.0 * r.accuracy);
    return buf;
}

void
dumpCsv(const core::ExperimentResult &result, const std::string &path)
{
    util::CsvWriter csv(path);
    csv.writeRow(std::vector<std::string>{"route", "target_ps",
                                          "burn_value", "hour",
                                          "delta_ps"});
    for (const core::RouteRecord &record : result.routes) {
        for (std::size_t k = 0; k < record.series.size(); ++k) {
            csv.writeRow(std::vector<std::string>{
                record.name, std::to_string(record.target_ps),
                record.burn_value ? "1" : "0",
                std::to_string(record.series.hours()[k]),
                std::to_string(record.series.values()[k])});
        }
    }
}

const char *
csvPath(int argc, char **argv)
{
    return parseStringFlag(argc, argv, "--csv", nullptr);
}

bool
handleCsvFlag(int argc, char **argv,
              const core::ExperimentResult &result)
{
    const char *path = csvPath(argc, argv);
    if (path == nullptr) {
        return false;
    }
    dumpCsv(result, path);
    std::printf("raw series written to %s\n", path);
    return true;
}

bool
dumpGridCsv(int argc, char **argv,
            const std::vector<std::string> &header,
            const std::vector<std::vector<std::string>> &rows)
{
    const char *path = csvPath(argc, argv);
    if (path == nullptr) {
        return false;
    }
    util::CsvWriter csv(path);
    csv.writeRow(header);
    for (const auto &row : rows) {
        csv.writeRow(row);
    }
    std::printf("\nraw grid written to %s\n", path);
    return true;
}

std::string
measurementCost(const core::ExperimentResult &result)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "measurement: %.0f s per sweep, %.2f%% of experiment "
                  "time (paper: 33-52 s, ~1.4%%)",
                  result.secondsPerSweep(),
                  100.0 * result.measurementFraction());
    return buf;
}

} // namespace pentimento::bench
