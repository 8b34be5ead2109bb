/**
 * @file
 * campaign_server: the long-running campaign-as-a-service daemon.
 *
 * Binds serve::CampaignServer on loopback and serves protocol-v1
 * requests until SIGINT/SIGTERM, which triggers a graceful drain:
 * stop accepting, answer new requests SHUTTING_DOWN, cancel in-flight
 * campaigns at their next day boundary (flushing a final checkpoint)
 * and exit 0. `--port 0` (the default) binds an ephemeral port and
 * prints it — scripts parse the "listening on port N" line.
 *
 * Crash recovery: with --checkpoint-dir set, fleet-scan campaigns
 * checkpoint under it keyed by request id; after a crash (or kill -9)
 * restart the server with the same directory and resubmit the
 * identical request — it resumes from the latest good generation and
 * re-delivers byte-identical RESULT bytes.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

using namespace pentimento;

namespace {

std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    g_signal.store(sig, std::memory_order_relaxed);
}

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: campaign_server [options]\n"
        "  --port P             TCP port (default 0 = ephemeral)\n"
        "  --workers N          simulation lanes shared by requests\n"
        "  --executors N        concurrent request executors "
        "(default 1)\n"
        "  --queue N            admission queue capacity (default 8)\n"
        "  --deadline-ms N      default per-request deadline\n"
        "  --max-deadline-ms N  ceiling on client deadlines\n"
        "  --frame-timeout-ms N mid-frame stall timeout\n"
        "  --checkpoint-dir P   campaign checkpoint directory\n"
        "  --worker             shard-worker mode: exit when stdin "
        "closes\n"
        "  --verbose            per-request log lines\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (!bench::argsAreKnown(
            argc, argv, "campaign_server",
            {"--port", "--workers", "--executors", "--queue",
             "--deadline-ms", "--max-deadline-ms", "--frame-timeout-ms",
             "--checkpoint-dir"},
            {"--verbose", "--worker"})) {
        printUsage(stderr);
        return 2;
    }
    serve::CampaignServerConfig config;
    try {
        config.port = static_cast<std::uint16_t>(
            bench::parseLongFlag(argc, argv, "--port", 0, 0));
        config.sim_workers = static_cast<std::size_t>(
            bench::parseWorkers(argc, argv) - 1);
        config.executors = static_cast<int>(
            bench::parseLongFlag(argc, argv, "--executors", 1));
        config.queue_capacity = static_cast<std::size_t>(
            bench::parseLongFlag(argc, argv, "--queue", 8));
        config.default_deadline_ms = static_cast<std::uint32_t>(
            bench::parseLongFlag(argc, argv, "--deadline-ms", 60000));
        config.max_deadline_ms = static_cast<std::uint32_t>(
            bench::parseLongFlag(argc, argv, "--max-deadline-ms",
                                 600000));
        config.frame_timeout_ms = static_cast<std::uint32_t>(
            bench::parseLongFlag(argc, argv, "--frame-timeout-ms",
                                 5000));
        config.checkpoint_dir =
            bench::parseStringFlag(argc, argv, "--checkpoint-dir", "");
    } catch (const util::FatalError &error) {
        std::fprintf(stderr, "campaign_server: %s\n", error.what());
        printUsage(stderr);
        return 2;
    }
    if (bench::hasFlag(argc, argv, "--verbose")) {
        util::setVerbosity(util::Verbosity::Info);
    }
    // Chaos harnesses hand workers their deterministic fault schedule
    // through the environment; a typoed schedule must refuse to start
    // rather than fake an injection-free green run.
    const util::Expected<void> armed = util::fault::armFromEnv();
    if (!armed.ok()) {
        std::fprintf(stderr, "campaign_server: %s\n",
                     armed.error().c_str());
        return 1;
    }
    if (!config.checkpoint_dir.empty()) {
        if (::mkdir(config.checkpoint_dir.c_str(), 0777) != 0 &&
            errno != EEXIST) {
            std::fprintf(stderr,
                         "campaign_server: cannot create checkpoint "
                         "dir %s: %s\n",
                         config.checkpoint_dir.c_str(),
                         std::strerror(errno));
            return 1;
        }
    }

    serve::CampaignServer server(config);
    const util::Expected<void> started = server.start();
    if (!started.ok()) {
        std::fprintf(stderr, "campaign_server: %s\n",
                     started.error().c_str());
        return 1;
    }
    std::printf("campaign_server listening on port %u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    if (bench::hasFlag(argc, argv, "--worker")) {
        // Shard-worker mode: the supervisor holds our stdin pipe. EOF
        // means it is gone — exit immediately rather than linger as
        // an orphan daemon. _Exit, not exit: a shard worker's only
        // durable state is its checkpoint, already safe on disk, and
        // a prompt death is exactly what the supervisor's crash
        // machinery is built to absorb.
        std::thread([] {
            char buf[64];
            for (;;) {
                const ssize_t n = ::read(0, buf, sizeof(buf));
                if (n == 0 || (n < 0 && errno != EINTR)) {
                    std::_Exit(0);
                }
            }
        }).detach();
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (g_signal.load(std::memory_order_relaxed) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const int sig = g_signal.load(std::memory_order_relaxed);
    std::printf("campaign_server: signal %d, draining\n", sig);
    std::fflush(stdout);
    server.stop(); // drain: finish/deadline-out in-flight, checkpoint
    std::printf("campaign_server: drained, bye\n");
    return 0;
}
