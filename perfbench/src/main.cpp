/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints one JSON
 * line with the run's metrics, checks and detail.
 *
 *   perfbench_driver --workload campaign|churn|durable|serve
 *                    --seed N --seconds S --trace 0|1
 *                    --server-binary PATH --scratch DIR
 *
 * Set-up time is measured on fresh processes: the program re-executes
 * itself with --setup-probe a few times and takes the median of the
 * time from spawn to the probe's "ready" line.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "perfbench.hpp"
#include "util/logging.hpp"

extern char **environ;

namespace {

using perfbench::Params;
using perfbench::RunResult;

constexpr int kSetupProbes = 21;

bool
parseArgs(int argc, char **argv, Params *p, bool *probe)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-probe") {
            *probe = true;
            continue;
        }
        if (i + 1 >= argc) {
            return false;
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            p->workload = value;
        } else if (flag == "--seed") {
            p->seed = std::stoull(value);
        } else if (flag == "--seconds") {
            p->seconds = std::stod(value);
        } else if (flag == "--trace") {
            p->trace = value == "1";
        } else if (flag == "--server-binary") {
            p->server_binary = value;
        } else if (flag == "--scratch") {
            p->scratch_dir = value;
        } else {
            return false;
        }
    }
    return (p->workload == "campaign" || p->workload == "churn" ||
            p->workload == "durable" || p->workload == "serve") &&
           p->seconds > 0.0 && !p->server_binary.empty() &&
           !p->scratch_dir.empty();
}

/** Spawn one set-up probe of this binary; seconds to its ready line. */
double
probeSetup(int argc, char **argv)
{
    char self[4096];
    const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (len <= 0) {
        return -1.0;
    }
    self[len] = '\0';
    std::vector<char *> args(argv, argv + argc);
    std::string flag = "--setup-probe";
    args[0] = self;
    args.push_back(flag.data());
    args.push_back(nullptr);
    int fds[2];
    if (::pipe(fds) != 0) {
        return -1.0;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    pid_t pid = -1;
    const std::int64_t t0 = perfbench::nowNs();
    const int rc = posix_spawn(&pid, self, &actions, nullptr, args.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string text;
    if (rc == 0) {
        char buf[256];
        ssize_t n = 0;
        while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
            text.append(buf, static_cast<std::size_t>(n));
        }
    }
    ::close(fds[0]);
    int status = 0;
    if (rc == 0) {
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    const std::size_t at = text.find("ready ");
    if (rc != 0 || at == std::string::npos || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        return -1.0;
    }
    const long long ready = std::stoll(text.substr(at + 6));
    return static_cast<double>(ready - t0) / 1e9;
}

void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            std::putchar('\\');
            std::putchar(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            std::printf("\\u%04x", c);
        } else {
            std::putchar(c);
        }
    }
    std::putchar('"');
}

void
printResult(const RunResult &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        std::printf("%s", i == 0 ? "" : ", ");
        printJsonString(r.metrics[i].first);
        std::printf(": {\"value\": %.17g, \"unit\": ",
                    r.metrics[i].second.value);
        printJsonString(r.metrics[i].second.unit);
        std::printf("}");
    }
    std::printf("}, \"detail\": {");
    for (std::size_t i = 0; i < r.detail.size(); ++i) {
        std::printf("%s", i == 0 ? "" : ", ");
        printJsonString(r.detail[i].first);
        std::printf(": %.17g", r.detail[i].second);
    }
    std::printf("}, \"digests\": {");
    for (std::size_t i = 0; i < r.digests.size(); ++i) {
        std::printf("%s", i == 0 ? "" : ", ");
        printJsonString(r.digests[i].first);
        std::printf(": \"%08x\"", r.digests[i].second);
    }
    std::printf("}, \"errors\": [");
    for (std::size_t i = 0; i < r.errors.size(); ++i) {
        std::printf("%s", i == 0 ? "" : ", ");
        printJsonString(r.errors[i]);
    }
    std::printf("], \"build\": {\"compiler\": ");
    printJsonString(PERFBENCH_COMPILER);
    std::printf(", \"build_type\": ");
    printJsonString(PERFBENCH_BUILD_TYPE);
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Params params;
    bool probe = false;
    try {
        if (!parseArgs(argc, argv, &params, &probe)) {
            std::fprintf(stderr,
                         "usage: perfbench_driver --workload "
                         "campaign|churn|durable|serve --seed N "
                         "--seconds S --trace 0|1 --server-binary PATH "
                         "--scratch DIR\n");
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: bad argument: %s\n",
                     e.what());
        return 2;
    }
    std::filesystem::create_directories(params.scratch_dir);
    if (probe) {
        if (params.workload == "serve") {
            perfbench::runServeSetupProbe(params);
        } else {
            perfbench::runCampaignSetupProbe(params);
            std::printf("ready %lld\n",
                        static_cast<long long>(perfbench::nowNs()));
        }
        return 0;
    }

    RunResult result;
    std::vector<double> setups;
    for (int i = 0; i < kSetupProbes; ++i) {
        const double s = probeSetup(argc, argv);
        if (s < 0.0) {
            result.fail("set-up probe failed");
        } else {
            setups.push_back(s);
        }
    }
    try {
        if (params.workload == "serve") {
            perfbench::runServeWorkload(params, &result);
        } else {
            perfbench::runCampaignWorkload(params, &result);
        }
    } catch (const std::exception &e) {
        result.fail(std::string("workload threw: ") + e.what());
    }
    if (!params.trace) {
        result.metrics.insert(
            result.metrics.begin(),
            {"setup_s", {perfbench::percentile(setups, 50.0), "s"}});
    }
    for (const auto &[name, metric] : result.metrics) {
        if (!std::isfinite(metric.value)) {
            result.fail("metric " + name + " is not finite");
        }
    }
    if (result.attempted == 0) {
        result.fail("nothing attempted");
        result.attempted = 1;
    }
    printResult(result);
    return 0;
}
