/**
 * @file
 * server_loadgen: concurrent well-formed + adversarial load for
 * campaign_server.
 *
 * Each client thread round-trips `--requests` Ping requests on a
 * persistent connection (the protocol/framing/admission fast path),
 * and every `--adversarial-every`-th iteration also opens a throwaway
 * connection and feeds the server a malformed stream from a rotating
 * corpus — garbage bytes, oversized declared lengths, truncated
 * frames, corrupted CRCs — verifying the server answers with a typed
 * ERROR (or a clean close) and keeps serving the well-formed traffic.
 *
 * Reports sustained requests/s, and the CI-gated inverse form
 * `ns_per_request` (the perf pipeline's kernels are ns/op,
 * lower-is-better).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/client.hpp"
#include "util/logging.hpp"
#include "util/snapshot.hpp"

using namespace pentimento;

namespace {

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: server_loadgen --port P [options]\n"
        "  --port P              server port (required)\n"
        "  --clients N           concurrent client threads "
        "(default 4)\n"
        "  --requests N          well-formed requests per client "
        "(default 500)\n"
        "  --adversarial-every K adversarial connection every Kth "
        "request (default 4, 0 = off)\n"
        "one-shot fleet-scan mode (for crash-recovery scripts):\n"
        "  --scan-days N         submit one FleetScan over N days and "
        "print scan_payload_crc\n"
        "  --scan-id N           request id (default 1)\n"
        "  --scan-seed S         campaign seed (default 1717)\n"
        "  --scan-throttle-ms N  pace the campaign (default 0)\n"
        "  --scan-checkpoint-every N  checkpoint cadence in days "
        "(default 0)\n");
}

/** One adversarial connection from the rotating corpus. */
void
attackOnce(std::uint16_t port, unsigned variant,
           std::atomic<std::uint64_t> *survived)
{
    serve::ClientConnection conn;
    if (!conn.connect(port).ok()) {
        return; // server busy accepting; the well-formed path measures
    }
    std::vector<std::uint8_t> bytes;
    switch (variant % 4) {
      case 0: // garbage: wrong magic from the first byte
        bytes = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02,
                 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
        break;
      case 1: { // oversized declared payload length
        serve::WireWriter w;
        w.u32(serve::kFrameMagic);
        w.u32(1);           // Request
        w.u32(0x7fffffffu); // 2 GiB "payload"
        bytes = w.take();
        break;
      }
      case 2: { // truncated frame, then half-close mid-request
        const std::vector<std::uint8_t> frame = serve::encodeFrame(
            serve::FrameType::Request, {1, 2, 3, 4, 5, 6, 7, 8});
        bytes.assign(frame.begin(), frame.begin() + 9);
        break;
      }
      default: { // CRC corrupted in a structurally complete frame
        bytes = serve::encodeFrame(serve::FrameType::Request,
                                   {9, 9, 9, 9});
        bytes.back() ^= 0xff;
        break;
      }
    }
    (void)conn.sendRaw(bytes.data(), bytes.size());
    conn.closeWrite();
    // The server must answer (typed ERROR) or close cleanly — either
    // way this read returns promptly instead of hanging.
    (void)conn.readFrame(2000);
    survived->fetch_add(1, std::memory_order_relaxed);
}

/**
 * One-shot fleet-scan mode: submit a single FleetScan request and
 * print a checksum of the RESULT payload *minus* the echoed request
 * id, so crash-recovery scripts can compare runs submitted under
 * different ids. Exit 0 only on a RESULT frame.
 */
int
runScanMode(std::uint16_t port, long days, long id, long seed,
            long throttle_ms, long checkpoint_every)
{
    serve::Request request;
    request.request_id = static_cast<std::uint64_t>(id);
    request.seed = static_cast<std::uint64_t>(seed);
    request.kind = serve::RequestKind::FleetScan;
    request.fleet = 6;
    request.days = static_cast<std::uint32_t>(days);
    request.scan_routes_per_tenant = 2;
    request.max_measured = 2;
    request.throttle_ms_per_day =
        static_cast<std::uint32_t>(throttle_ms);
    request.checkpoint_every_days =
        static_cast<std::uint32_t>(checkpoint_every);

    serve::ClientConnection conn;
    const util::Expected<void> connected = conn.connect(port);
    if (!connected.ok()) {
        std::fprintf(stderr, "scan: %s\n", connected.error().c_str());
        return 1;
    }
    if (!conn.sendFrame(serve::FrameType::Request,
                        serve::encodeRequest(request))
             .ok()) {
        std::fprintf(stderr, "scan: send failed\n");
        return 1;
    }
    // Generous read deadline: a throttled campaign paces itself.
    const util::Expected<serve::Frame> reply = conn.readFrame(600000);
    if (!reply.ok()) {
        std::fprintf(stderr, "scan: %s\n", reply.error().c_str());
        return 1;
    }
    if (reply.value().type != serve::FrameType::Result) {
        std::fprintf(stderr, "scan: got frame type %u, not RESULT\n",
                     static_cast<unsigned>(reply.value().type));
        return 1;
    }
    const std::vector<std::uint8_t> &payload = reply.value().payload;
    if (payload.size() < 8) {
        std::fprintf(stderr, "scan: short RESULT payload\n");
        return 1;
    }
    const std::uint32_t crc =
        util::crc32c(payload.data() + 8, payload.size() - 8);
    std::printf("scan_status ok\n");
    std::printf("scan_payload_bytes %zu\n", payload.size());
    std::printf("scan_payload_crc %08x\n", crc);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!bench::argsAreKnown(
            argc, argv, "server_loadgen",
            {"--port", "--clients", "--requests", "--adversarial-every",
             "--scan-days", "--scan-id", "--scan-seed",
             "--scan-throttle-ms", "--scan-checkpoint-every"})) {
        printUsage(stderr);
        return 2;
    }
    std::uint16_t port = 0;
    long clients = 0;
    long requests = 0;
    long adversarial_every = 0;
    long scan_days = 0;
    long scan_id = 0;
    long scan_seed = 0;
    long scan_throttle_ms = 0;
    long scan_checkpoint_every = 0;
    try {
        port = static_cast<std::uint16_t>(
            bench::parseLongFlag(argc, argv, "--port", 0));
        clients = bench::parseLongFlag(argc, argv, "--clients", 4);
        requests = bench::parseLongFlag(argc, argv, "--requests", 500);
        adversarial_every = bench::parseLongFlag(
            argc, argv, "--adversarial-every", 4, 0);
        scan_days =
            bench::parseLongFlag(argc, argv, "--scan-days", 0, 0);
        scan_id = bench::parseLongFlag(argc, argv, "--scan-id", 1);
        scan_seed =
            bench::parseLongFlag(argc, argv, "--scan-seed", 1717);
        scan_throttle_ms = bench::parseLongFlag(
            argc, argv, "--scan-throttle-ms", 0, 0);
        scan_checkpoint_every = bench::parseLongFlag(
            argc, argv, "--scan-checkpoint-every", 0, 0);
    } catch (const util::FatalError &error) {
        std::fprintf(stderr, "server_loadgen: %s\n", error.what());
        printUsage(stderr);
        return 2;
    }
    if (scan_days > 0) {
        return runScanMode(port, scan_days, scan_id, scan_seed,
                           scan_throttle_ms, scan_checkpoint_every);
    }

    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> adversarial{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    const auto start = std::chrono::steady_clock::now();
    for (long c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            serve::ClientConnection conn;
            if (!conn.connect(port).ok()) {
                failures.fetch_add(static_cast<std::uint64_t>(requests),
                                   std::memory_order_relaxed);
                return;
            }
            for (long i = 0; i < requests; ++i) {
                serve::Request request;
                request.request_id = static_cast<std::uint64_t>(
                    c * 1000000L + i + 1);
                request.seed = 1;
                request.kind = serve::RequestKind::Ping;
                if (!conn.sendFrame(serve::FrameType::Request,
                                    serve::encodeRequest(request))
                         .ok()) {
                    failures.fetch_add(1, std::memory_order_relaxed);
                    break;
                }
                const util::Expected<serve::Frame> reply =
                    conn.readFrame(5000);
                if (!reply.ok() ||
                    reply.value().type != serve::FrameType::Result) {
                    failures.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                completed.fetch_add(1, std::memory_order_relaxed);
                if (adversarial_every > 0 &&
                    (i + 1) % adversarial_every == 0) {
                    attackOnce(port,
                               static_cast<unsigned>(c + i),
                               &adversarial);
                }
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    const std::uint64_t done = completed.load();
    const double rps = wall_s > 0.0
                           ? static_cast<double>(done) / wall_s
                           : 0.0;
    const double ns_per_request =
        done > 0 ? 1e9 * wall_s / static_cast<double>(done) : 0.0;
    std::printf("clients               %ld\n", clients);
    std::printf("completed             %llu\n",
                static_cast<unsigned long long>(done));
    std::printf("failures              %llu\n",
                static_cast<unsigned long long>(failures.load()));
    std::printf("adversarial probes    %llu\n",
                static_cast<unsigned long long>(adversarial.load()));
    std::printf("wall seconds          %.3f\n", wall_s);
    std::printf("requests_per_second %.1f\n", rps);
    std::printf("ns_per_request %.0f\n", ns_per_request);
    return failures.load() == 0 && done > 0 ? 0 : 1;
}
