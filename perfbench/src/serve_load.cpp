/**
 * @file
 * The serve workload: one campaign_server process with 2 executors,
 * driven by a single-process open-loop generator (one sender thread,
 * one receiver thread, one connection).
 *
 * Requests are sent on a fixed schedule whatever the server does, and
 * each is timed from its scheduled send time, so a stall shows up in
 * the latency of every request it delays. The mix is mostly Ping with
 * a small share of TenancyChurn and small FleetScans; every
 * kProbeEvery-th request also puts a malformed stream on a throwaway
 * connection, which must get a typed ERROR or a clean close. The seed
 * picks the scan and churn inputs; the pattern of kinds is fixed.
 *
 * A run has a fixed-rate phase (the end-to-end figures) and a capacity
 * ladder (the highest rate that keeps the ping tail under
 * kPingLimitUs with no errors and no growing backlog). Results are
 * checked against in-process runs of the same requests afterwards.
 */

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <spawn.h>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/experiment.hpp"
#include "perfbench.hpp"
#include "serve/campaign.hpp"
#include "serve/client.hpp"
#include "serve/wire.hpp"

extern char **environ;

namespace perfbench {

namespace pc = pentimento;
using pc::serve::ErrorCode;
using pc::serve::Frame;
using pc::serve::FrameType;
using pc::serve::Request;
using pc::serve::RequestKind;

namespace {

/** Offered rate of the fixed-rate phase, requests/s. */
constexpr double kBaseRate = 2000.0;
/**
 * Capacity ladder: multiples of kBaseRate. Every rung runs, so a run
 * measures for its whole window; capacity is the highest rung reached
 * without a failing one below it.
 */
constexpr double kLadder[] = {1.0, 2.0, 4.0, 8.0};
/**
 * The mix is a fixed pattern: of every kPatternLength requests, one is
 * a FleetScan and one (half a pattern later) a TenancyChurn; the rest
 * are Pings. At kBaseRate heavy requests are then 12.5 ms apart and
 * never overlap on the executors, so latency reads the same run to
 * run; the ladder's higher rates overlap and queue them.
 */
constexpr std::size_t kPatternLength = 50;
constexpr std::uint64_t kProbeEvery = 100;
/** Latency limit on the ping tail for the capacity ladder. */
constexpr double kPingLimitUs = 10000.0;
/**
 * The generator fell behind (run invalid) when its median wake-up lag
 * passes this, i.e. it no longer keeps its schedule; wake-up jitter
 * alone shows in the reported p99 lag.
 */
constexpr double kGenLagLimitMs = 1.0;
/** A generator this far behind its schedule stops sending. */
constexpr std::int64_t kGiveUpLagNs = 1'000'000'000;
constexpr std::size_t kScanSeeds = 128;
/**
 * Latency figures are medians over this many equal blocks of a phase,
 * each block giving its own median and tail: one noisy stretch of a
 * shared host then moves one block, not the run's figure.
 */
constexpr std::size_t kBlocks = 5;
constexpr std::size_t kChurnSeeds = 16;

// ------------------------------------------------------- server process

/**
 * CPU split between server and generator. On hosts with at least four
 * CPUs the server gets the upper half and the generator the lower
 * half, so the two never time-share a CPU; on smaller hosts both keep
 * every CPU.
 */
bool
cpuHalf(bool upper, cpu_set_t *set)
{
    cpu_set_t all;
    CPU_ZERO(&all);
    if (::sched_getaffinity(0, sizeof(all), &all) != 0) {
        return false;
    }
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all)) {
            cpus.push_back(c);
        }
    }
    if (cpus.size() < 4) {
        return false;
    }
    CPU_ZERO(set);
    const std::size_t half = cpus.size() / 2;
    for (std::size_t i = upper ? half : 0; i < (upper ? cpus.size() : half);
         ++i) {
        CPU_SET(cpus[i], set);
    }
    return true;
}

/** Run `spawn` with this thread pinned to the server's CPUs. */
template <typename Fn>
int
spawnOnServerCpus(Fn spawn)
{
    cpu_set_t saved;
    cpu_set_t server;
    const bool pin = ::sched_getaffinity(0, sizeof(saved), &saved) == 0 &&
                     cpuHalf(true, &server);
    if (pin) {
        ::sched_setaffinity(0, sizeof(server), &server);
    }
    const int rc = spawn();
    if (pin) {
        ::sched_setaffinity(0, sizeof(saved), &saved);
    }
    return rc;
}

/** Pin the calling thread (and threads it starts) to the generator's CPUs. */
void
pinGenerator()
{
    cpu_set_t generator;
    if (cpuHalf(false, &generator)) {
        ::sched_setaffinity(0, sizeof(generator), &generator);
    }
}

/** A campaign_server child process; stopped and reaped on destruction. */
class ServerProcess
{
  public:
    ServerProcess() = default;
    ~ServerProcess() { stop(); }
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    bool start(const std::string &binary, std::string *error)
    {
        int fds[2];
        if (::pipe(fds) != 0) {
            *error = "pipe failed";
            return false;
        }
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
        posix_spawn_file_actions_addclose(&actions, fds[0]);
        std::vector<std::string> args = {binary, "--executors", "2",
                                         "--port", "0"};
        std::vector<char *> argv;
        for (std::string &a : args) {
            argv.push_back(a.data());
        }
        argv.push_back(nullptr);
        const int rc = spawnOnServerCpus([&] {
            return posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
        });
        posix_spawn_file_actions_destroy(&actions);
        ::close(fds[1]);
        out_fd_ = fds[0];
        if (rc != 0) {
            pid_ = -1;
            *error = "cannot spawn " + binary;
            return false;
        }
        std::string text;
        const std::int64_t deadline = nowNs() + 20'000'000'000LL;
        while (nowNs() < deadline) {
            pollfd pfd{out_fd_, POLLIN, 0};
            if (::poll(&pfd, 1, 100) <= 0) {
                continue;
            }
            char buf[256];
            const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
            if (n <= 0) {
                break;
            }
            text.append(buf, static_cast<std::size_t>(n));
            const std::size_t at = text.find("listening on port ");
            const std::size_t eol = text.find('\n', at);
            if (at != std::string::npos && eol != std::string::npos) {
                port_ = static_cast<std::uint16_t>(
                    std::stoul(text.substr(at + 18, eol - at - 18)));
                return true;
            }
        }
        *error = "campaign_server did not report its port";
        return false;
    }

    std::uint16_t port() const { return port_; }

    /** Peak resident set of the server (VmHWM), MiB. */
    double peakRssMb() const
    {
        std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(status, line)) {
            if (line.rfind("VmHWM:", 0) == 0) {
                return std::stod(line.substr(6)) / 1024.0;
            }
        }
        return 0.0;
    }

    /** Graceful drain (SIGTERM) and reap. */
    void stop()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            int status = 0;
            while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
            }
            pid_ = -1;
        }
        if (out_fd_ >= 0) {
            ::close(out_fd_);
            out_fd_ = -1;
        }
    }

  private:
    pid_t pid_ = -1;
    int out_fd_ = -1;
    std::uint16_t port_ = 0;
};

// ------------------------------------------------------------ requests

struct Seeds
{
    std::vector<std::uint64_t> scan;
    std::vector<std::uint64_t> churn;
};

Request
scanRequest(std::uint64_t seed)
{
    Request r;
    r.kind = RequestKind::FleetScan;
    r.seed = seed;
    r.fleet = 6;
    r.days = 30;
    r.scan_routes_per_tenant = 2;
    r.max_measured = 2;
    return r;
}

Request
churnRequest(std::uint64_t seed)
{
    Request r;
    r.kind = RequestKind::TenancyChurn;
    r.seed = seed;
    r.tenancies = 4;
    r.routes_per_tenant = 4;
    r.dsp_count = 32;
    r.burn_hours_min = 24.0;
    r.burn_hours_max = 96.0;
    r.idle_hours = 24.0;
    r.midflip = true;
    r.observe_last = 2;
    return r;
}

/** One planned request of a phase. */
struct Planned
{
    RequestKind kind = RequestKind::Ping;
    /** Index into the scan or churn seed list. */
    std::uint32_t seed_index = 0;
};

/** Where the mix pattern stands; seeds cycle across phases. */
struct MixCursor
{
    std::size_t scans = 0;
    std::size_t churns = 0;
};

std::vector<Planned>
planPhase(MixCursor &mix, std::size_t count)
{
    std::vector<Planned> plan(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (i % kPatternLength == kPatternLength / 2) {
            plan[i].kind = RequestKind::FleetScan;
            plan[i].seed_index =
                static_cast<std::uint32_t>(mix.scans++ % kScanSeeds);
        } else if (i % kPatternLength == 0) {
            plan[i].kind = RequestKind::TenancyChurn;
            plan[i].seed_index =
                static_cast<std::uint32_t>(mix.churns++ % kChurnSeeds);
        }
    }
    return plan;
}

// ----------------------------------------------------------- transports

/**
 * The request path: through serve::ClientConnection untraced, or a
 * bench-side socket client with encode/decode spans when traced.
 * send() runs on the sender thread, read() on the receiver thread.
 */
class Transport
{
  public:
    virtual ~Transport() = default;
    virtual bool send(const Request &request) = 0;
    virtual pc::util::Expected<Frame> read(std::uint32_t timeout_ms) = 0;
};

class ClientTransport : public Transport
{
  public:
    bool connect(std::uint16_t port) { return conn_.connect(port).ok(); }
    bool send(const Request &request) override
    {
        return conn_
            .sendFrame(FrameType::Request, pc::serve::encodeRequest(request))
            .ok();
    }
    pc::util::Expected<Frame> read(std::uint32_t timeout_ms) override
    {
        return conn_.readFrame(timeout_ms);
    }

  private:
    pc::serve::ClientConnection conn_;
};

/** Socket client mirroring ClientConnection, with spans. */
class TracedTransport : public Transport
{
  public:
    TracedTransport(Tracer *send_tracer, Tracer *recv_tracer)
        : send_tracer_(send_tracer), recv_tracer_(recv_tracer)
    {
    }
    ~TracedTransport() override
    {
        if (fd_ >= 0) {
            ::close(fd_);
        }
    }
    TracedTransport(const TracedTransport &) = delete;
    TracedTransport &operator=(const TracedTransport &) = delete;

    bool connect(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0) {
            return false;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            return false;
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return true;
    }

    bool send(const Request &request) override
    {
        std::vector<std::uint8_t> frame;
        {
            Scope span(send_tracer_, "serve.encode");
            frame = pc::serve::encodeFrame(FrameType::Request,
                                           pc::serve::encodeRequest(request));
        }
        std::size_t sent = 0;
        while (sent < frame.size()) {
            const ssize_t n = ::send(fd_, frame.data() + sent,
                                     frame.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR) {
                    continue;
                }
                return false;
            }
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    pc::util::Expected<Frame> read(std::uint32_t timeout_ms) override
    {
        const std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
        for (;;) {
            Frame frame;
            pc::serve::FrameDecoder::Status status;
            {
                Scope span(recv_tracer_, "serve.decode");
                status = decoder_.next(&frame);
            }
            if (status == pc::serve::FrameDecoder::Status::Ready) {
                return frame;
            }
            if (status == pc::serve::FrameDecoder::Status::Corrupt) {
                return pc::util::unexpected("corrupt stream");
            }
            const std::int64_t left_ms = (deadline - nowNs()) / 1'000'000;
            if (left_ms <= 0) {
                return pc::util::unexpected("timed out");
            }
            pollfd pfd{fd_, POLLIN, 0};
            const int rc = ::poll(&pfd, 1, static_cast<int>(left_ms) + 1);
            if (rc < 0 && errno == EINTR) {
                continue;
            }
            if (rc <= 0) {
                return pc::util::unexpected("timed out");
            }
            std::uint8_t buf[4096];
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0) {
                if (n < 0 && errno == EINTR) {
                    continue;
                }
                return pc::util::unexpected("connection closed");
            }
            Scope span(recv_tracer_, "serve.decode");
            decoder_.feed(buf, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    pc::serve::FrameDecoder decoder_{1u << 24};
    Tracer *send_tracer_;
    Tracer *recv_tracer_;
};

// -------------------------------------------------------------- phases

/** Outcome of one open-loop phase at a fixed rate. */
struct Phase
{
    double rate = 0.0;
    std::uint64_t planned = 0;
    std::uint64_t sent = 0;
    std::uint64_t results = 0;
    std::uint64_t shed = 0;
    std::uint64_t deadline = 0;
    std::uint64_t other_errors = 0;
    std::uint64_t wrong = 0;
    std::uint64_t lost = 0;
    std::uint64_t probes = 0;
    std::uint64_t probes_typed = 0;
    std::uint64_t probes_closed = 0;
    std::vector<double> ping_us;
    std::vector<double> scan_s;
    /** Latencies split by block of the send schedule. */
    std::vector<std::vector<double>> ping_blocks =
        std::vector<std::vector<double>>(kBlocks);
    std::vector<std::vector<double>> scan_blocks =
        std::vector<std::vector<double>>(kBlocks);
    std::vector<double> lag_ms;
    /** Ping latency medians over the first and last fifth of sends. */
    double early_ping_us = 0.0;
    double late_ping_us = 0.0;
    /** Time from the last send until every answer was in, s. */
    double drain_s = 0.0;
    double send_window_s = 0.0;

    std::uint64_t errors() const
    {
        return shed + deadline + other_errors + wrong + lost;
    }
    bool generatorBehind() const
    {
        return percentile(lag_ms, 50.0) > kGenLagLimitMs;
    }
};

/** Digests seen per (kind, seed index); a differing repeat is wrong. */
struct Observed
{
    std::map<std::uint32_t, std::uint32_t> scan;
    std::map<std::uint32_t, std::uint32_t> churn;
};

/** One malformed stream on a throwaway connection, checked later. */
pc::serve::ClientConnection
sendProbe(std::uint16_t port, std::uint64_t variant)
{
    pc::serve::ClientConnection conn;
    if (!conn.connect(port).ok()) {
        return conn;
    }
    std::vector<std::uint8_t> bytes;
    switch (variant % 4) {
      case 0: // garbage: wrong magic from the first byte
        bytes = {0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8};
        break;
      case 1: { // oversized declared payload length
        pc::serve::WireWriter w;
        w.u32(pc::serve::kFrameMagic);
        w.u32(1);
        w.u32(0x7fffffffu);
        bytes = w.take();
        break;
      }
      case 2: { // truncated frame
        const std::vector<std::uint8_t> frame = pc::serve::encodeFrame(
            FrameType::Request, {1, 2, 3, 4, 5, 6, 7, 8});
        bytes.assign(frame.begin(), frame.begin() + 9);
        break;
      }
      default: { // corrupted CRC
        bytes = pc::serve::encodeFrame(FrameType::Request, {9, 9, 9, 9});
        bytes.back() ^= 0xff;
        break;
      }
    }
    (void)conn.sendRaw(bytes.data(), bytes.size());
    conn.closeWrite();
    return conn;
}

/**
 * Run one phase: `seconds` of sends at `rate`, then wait for the
 * answers. Request ids continue from *next_id.
 */
Phase
runPhase(std::uint16_t port, Transport &transport, double rate,
         double seconds, const Seeds &seeds, MixCursor &mix,
         std::uint64_t *next_id, Observed *observed, Tracer *rtt_tracer)
{
    Phase phase;
    phase.rate = rate;
    const std::size_t count =
        std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
    phase.planned = count;
    const std::vector<Planned> plan = planPhase(mix, count);
    const std::uint64_t first_id = *next_id;
    *next_id += count;
    const std::int64_t period_ns = static_cast<std::int64_t>(1e9 / rate);
    std::vector<std::atomic<std::int64_t>> sent_at(count);
    std::atomic<std::uint64_t> sent_count{0};
    std::atomic<bool> sender_done{false};
    std::vector<double> ping_at_us(count, -1.0);
    // Start a little in the future so the receiver is up first.
    const std::int64_t start = nowNs() + 2'000'000;
    const auto scheduled = [&](std::size_t i) {
        return start + static_cast<std::int64_t>(i) * period_ns;
    };

    std::int64_t last_answer = 0;
    std::thread receiver([&] {
        std::uint64_t received = 0;
        for (;;) {
            const bool done = sender_done.load(std::memory_order_acquire);
            if (done && received >= sent_count.load()) {
                break;
            }
            if (done && nowNs() - last_answer > 10'000'000'000LL &&
                nowNs() - sent_at[count - 1].load() > 10'000'000'000LL) {
                break; // answers lost; counted below
            }
            const pc::util::Expected<Frame> frame = transport.read(100);
            if (!frame.ok()) {
                if (frame.error().find("timed out") == std::string::npos) {
                    break;
                }
                continue;
            }
            const std::int64_t t = nowNs();
            last_answer = t;
            ++received;
            const Frame &f = frame.value();
            pc::serve::WireReader reader(f.payload.data(), f.payload.size());
            const std::uint64_t id = reader.u64();
            if (!reader.ok() || id < first_id || id >= first_id + count) {
                ++phase.wrong;
                continue;
            }
            const std::size_t i = static_cast<std::size_t>(id - first_id);
            const Planned &p = plan[i];
            if (rtt_tracer != nullptr) {
                rtt_tracer->setTraceId(id);
                rtt_tracer->record(p.kind == RequestKind::Ping
                                       ? "serve.rtt.ping"
                                       : p.kind == RequestKind::FleetScan
                                             ? "serve.rtt.scan"
                                             : "serve.rtt.churn",
                                   sent_at[i].load(), t);
            }
            if (f.type == FrameType::Error) {
                const auto info = pc::serve::decodeError(f.payload);
                if (info && info->code == ErrorCode::RetryAfter) {
                    ++phase.shed;
                } else if (info &&
                           info->code == ErrorCode::DeadlineExceeded) {
                    ++phase.deadline;
                } else {
                    ++phase.other_errors;
                }
                continue;
            }
            if (f.type != FrameType::Result) {
                ++phase.wrong;
                continue;
            }
            const double latency_ns = static_cast<double>(t - scheduled(i));
            const std::uint32_t digest = payloadDigest(f.payload);
            bool ok = true;
            if (p.kind == RequestKind::Ping) {
                ping_at_us[i] = latency_ns / 1e3;
                ok = f.payload.size() >= 8;
            } else if (p.kind == RequestKind::FleetScan) {
                std::uint64_t echoed = 0;
                ok = pc::serve::decodeFleetScanResult(f.payload, &echoed)
                         .ok() &&
                     echoed == id;
                const auto it =
                    observed->scan.emplace(p.seed_index, digest).first;
                ok = ok && it->second == digest;
                phase.scan_s.push_back(latency_ns / 1e9);
                phase.scan_blocks[i * kBlocks / count].push_back(
                    latency_ns / 1e9);
            } else {
                ok = observed->churn.emplace(p.seed_index, digest)
                         .first->second == digest;
            }
            if (ok) {
                ++phase.results;
            } else {
                ++phase.wrong;
            }
        }
        phase.lost = sent_count.load() - std::min(sent_count.load(), received);
    });

    std::vector<pc::serve::ClientConnection> probes;
    for (std::size_t i = 0; i < count; ++i) {
        const std::int64_t due = scheduled(i);
        // Sleep (no spinning: a spinning sender would take a core from
        // the server on a small host); the wake-up delay is the
        // generator's lag and is reported.
        const std::int64_t sleep_ns = due - nowNs();
        if (sleep_ns > 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
        }
        const std::int64_t wake = nowNs();
        phase.lag_ms.push_back(static_cast<double>(wake - due) / 1e6);
        if (wake - due > kGiveUpLagNs) {
            break; // hopelessly behind: the rest count as lost
        }
        const Planned &p = plan[i];
        Request request = p.kind == RequestKind::FleetScan
                              ? scanRequest(seeds.scan[p.seed_index])
                          : p.kind == RequestKind::TenancyChurn
                              ? churnRequest(seeds.churn[p.seed_index])
                              : Request{};
        request.request_id = first_id + i;
        sent_at[i].store(nowNs());
        if (!transport.send(request)) {
            break;
        }
        sent_count.fetch_add(1);
        if ((first_id + i) % kProbeEvery == 0) {
            probes.push_back(sendProbe(port, (first_id + i) / kProbeEvery));
        }
    }
    const std::int64_t last_send = nowNs();
    sender_done.store(true, std::memory_order_release);
    receiver.join();
    phase.sent = sent_count.load();
    phase.lost += count - phase.sent;
    phase.send_window_s = static_cast<double>(last_send - start) / 1e9;
    phase.drain_s =
        std::max(0.0, static_cast<double>(last_answer - last_send) / 1e9);

    // Probe answers: a typed ERROR or a clean close, nothing else.
    for (pc::serve::ClientConnection &probe : probes) {
        ++phase.probes;
        if (!probe.connected()) {
            continue;
        }
        const pc::util::Expected<Frame> answer = probe.readFrame(2000);
        if (answer.ok() && answer.value().type == FrameType::Error &&
            pc::serve::decodeError(answer.value().payload)) {
            ++phase.probes_typed;
        } else if (!answer.ok() &&
                   answer.error().find("closed") != std::string::npos) {
            ++phase.probes_closed;
        }
    }

    std::vector<double> early;
    std::vector<double> late;
    for (std::size_t i = 0; i < count; ++i) {
        if (ping_at_us[i] < 0.0) {
            continue;
        }
        phase.ping_us.push_back(ping_at_us[i]);
        phase.ping_blocks[i * kBlocks / count].push_back(ping_at_us[i]);
        if (i < count / 5) {
            early.push_back(ping_at_us[i]);
        } else if (i >= count - count / 5) {
            late.push_back(ping_at_us[i]);
        }
    }
    phase.early_ping_us = percentile(early, 50.0);
    phase.late_ping_us = percentile(late, 50.0);
    return phase;
}

/** Median over blocks of each block's median (or tail). */
double
blockMedian(const std::vector<std::vector<double>> &blocks, bool tail)
{
    std::vector<double> per_block;
    for (const std::vector<double> &block : blocks) {
        if (!block.empty()) {
            per_block.push_back(percentile(
                block, tail ? tailPercentile(block.size()) : 50.0));
        }
    }
    return percentile(per_block, 50.0);
}

/** A rung passes: tail under the limit, no errors, no growing backlog. */
bool
rungPasses(const Phase &phase)
{
    const double tail = percentile(phase.ping_us,
                                   tailPercentile(phase.ping_us.size()));
    const bool backlog_grew =
        phase.late_ping_us > 2.0 * phase.early_ping_us + 200.0 ||
        phase.drain_s > 0.5;
    return !phase.generatorBehind() && phase.errors() == 0 &&
           phase.probes_typed + phase.probes_closed == phase.probes &&
           tail < kPingLimitUs && !backlog_grew;
}

void
account(const Phase &phase, RunResult *out)
{
    out->attempted += phase.planned + phase.probes;
    out->failed += phase.errors();
    const std::uint64_t bad_probes =
        phase.probes - phase.probes_typed - phase.probes_closed;
    out->failed += bad_probes;
    if (phase.errors() > 0 || bad_probes > 0) {
        if (out->errors.size() < 8) {
            out->errors.push_back(
                "serve phase at " + std::to_string(phase.rate) +
                " req/s: " + std::to_string(phase.errors()) +
                " failed requests, " + std::to_string(bad_probes) +
                " unanswered probes");
        }
    }
}

/** Compare everything received with in-process runs of the same requests. */
std::vector<pc::serve::FleetScanResult>
verifyAgainstInProcess(const Seeds &seeds, const Observed &observed,
                       RunResult *out)
{
    std::vector<pc::serve::FleetScanResult> reference;
    for (const auto &[index, digest] : observed.scan) {
        const Request r = scanRequest(seeds.scan[index]);
        pc::serve::FleetScanConfig config;
        config.fleet = r.fleet;
        config.days = static_cast<int>(r.days);
        config.seed = r.seed;
        config.routes_per_tenant = r.scan_routes_per_tenant;
        config.max_measured = r.max_measured;
        const auto result = pc::serve::runFleetScan(config);
        if (!result.ok() || campaignDigest(result.value()) != digest) {
            out->fail("serve: FleetScan RESULT differs from the in-process "
                      "campaign");
            continue;
        }
        out->digest("scan:" + std::to_string(r.seed), digest);
        reference.push_back(result.value());
    }
    for (const auto &[index, digest] : observed.churn) {
        const Request r = churnRequest(seeds.churn[index]);
        pc::core::TenancyChurnConfig config;
        config.tenancies = r.tenancies;
        config.routes_per_tenant = r.routes_per_tenant;
        config.dsp_count = static_cast<int>(r.dsp_count);
        config.burn_hours_min = r.burn_hours_min;
        config.burn_hours_max = r.burn_hours_max;
        config.idle_hours = r.idle_hours;
        config.midflip = r.midflip;
        config.observe_last = r.observe_last;
        config.seed = r.seed;
        const std::uint32_t expect = payloadDigest(
            pc::serve::encodeChurnResult(0, pc::core::runTenancyChurn(config)));
        if (expect != digest) {
            out->fail("serve: TenancyChurn RESULT differs from the "
                      "in-process run");
        }
    }
    return reference;
}

Seeds
makeSeeds(std::uint64_t run_seed)
{
    Seeds seeds;
    for (std::size_t i = 0; i < kScanSeeds; ++i) {
        seeds.scan.push_back(deriveSeed(run_seed, "scan", i));
    }
    for (std::size_t i = 0; i < kChurnSeeds; ++i) {
        seeds.churn.push_back(deriveSeed(run_seed, "churn_req", i));
    }
    return seeds;
}

/** Start the server and answer one Ping: the end of serve's set-up. */
bool
startAndPing(const Params &params, ServerProcess *server, RunResult *out)
{
    std::string error;
    if (!server->start(params.server_binary, &error)) {
        out->fail("serve: " + error);
        return false;
    }
    pc::serve::ClientConnection conn;
    Request ping;
    ping.request_id = 1;
    if (!conn.connect(server->port()).ok()) {
        out->fail("serve: cannot connect");
        return false;
    }
    const auto reply = conn.call(ping, {}, 5000);
    if (!reply.ok() || reply.value().type != FrameType::Result) {
        out->fail("serve: first Ping unanswered");
        return false;
    }
    return true;
}

} // namespace

void
runServeSetupProbe(const Params &params)
{
    ServerProcess server;
    RunResult ignored;
    if (!startAndPing(params, &server, &ignored)) {
        std::exit(1);
    }
    std::printf("ready %lld\n", static_cast<long long>(nowNs()));
    std::fflush(stdout);
}

void
runServeWorkload(const Params &params, RunResult *out)
{
    const Seeds seeds = makeSeeds(params.seed);
    MixCursor mix;
    ServerProcess server;
    pinGenerator();
    if (!startAndPing(params, &server, out)) {
        return;
    }
    const std::uint16_t port = server.port();
    Observed observed;
    std::uint64_t next_id = 100;

    // Untraced window: the fixed-rate phase, then the ladder.
    const double untraced_s = params.trace ? params.seconds / 2.0
                                           : params.seconds;
    Phase fixed;
    {
        ClientTransport transport;
        if (!transport.connect(port)) {
            out->fail("serve: cannot connect");
            return;
        }
        fixed = runPhase(port, transport, kBaseRate, untraced_s * 0.6, seeds,
                         mix, &next_id, &observed, nullptr);
    }
    account(fixed, out);
    // Peak memory after the fixed-rate phase: the ladder's length (and
    // with it the number of connections the server has seen) varies
    // from run to run; the fixed phase's traffic does not.
    const double server_rss = server.peakRssMb();
    if (fixed.generatorBehind()) {
        out->fail("serve: the generator fell behind its schedule "
                  "(run invalid)");
    }
    double capacity = 0.0;
    bool passing = true;
    const double rung_s =
        untraced_s * 0.4 / static_cast<double>(std::size(kLadder));
    for (const double multiple : kLadder) {
        ClientTransport transport;
        if (!transport.connect(port)) {
            out->fail("serve: cannot connect");
            break;
        }
        Phase rung = runPhase(port, transport, kBaseRate * multiple, rung_s,
                              seeds, mix, &next_id, &observed, nullptr);
        // Sheds at rungs above capacity are the point of the ladder;
        // only wrong answers and unanswered probes fail the run.
        out->attempted += rung.planned + rung.probes;
        out->failed += rung.wrong;
        out->failed +=
            rung.probes - rung.probes_typed - rung.probes_closed;
        if (passing && !rungPasses(rung)) {
            out->note("ladder_stop_rps", rung.rate);
            passing = false;
        }
        if (passing) {
            capacity =
                static_cast<double>(rung.results) / rung.send_window_s;
        }
    }

    LayerFigures f;
    Tracer send_tracer;
    Tracer recv_tracer;
    double traced_wall_s = 0.0;
    if (params.trace) {
        TracedTransport transport(&send_tracer, &recv_tracer);
        if (!transport.connect(port)) {
            out->fail("serve: cannot connect");
            return;
        }
        const std::int64_t t0 = nowNs();
        const Phase traced =
            runPhase(port, transport, kBaseRate, params.seconds - untraced_s,
                     seeds, mix, &next_id, &observed, &recv_tracer);
        traced_wall_s = static_cast<double>(nowNs() - t0) / 1e9;
        account(traced, out);
        f.trace_overhead_pct =
            100.0 * (percentile(traced.ping_us, 50.0) /
                         percentile(fixed.ping_us, 50.0) -
                     1.0);
    }
    server.stop();

    const std::vector<pc::serve::FleetScanResult> reference =
        verifyAgainstInProcess(seeds, observed, out);
    std::uint64_t bits = 0;
    std::uint64_t correct = 0;
    for (const auto &r : reference) {
        for (const auto &b : r.boards) {
            bits += b.bits;
            correct += b.correct;
        }
    }

    const double ping_tail_p = tailPercentile(fixed.ping_blocks[0].size());
    const double scan_tail_p = tailPercentile(fixed.scan_blocks[0].size());
    out->note("ping_samples", static_cast<double>(fixed.ping_us.size()));
    out->note("ping_tail_percentile", ping_tail_p);
    out->note("scan_samples", static_cast<double>(fixed.scan_s.size()));
    out->note("scan_tail_percentile", scan_tail_p);
    out->note("offered_rps", kBaseRate);
    out->note("gen_lag_p50_ms", percentile(fixed.lag_ms, 50.0));
    out->note("gen_lag_p95_ms", percentile(fixed.lag_ms, 95.0));
    out->note("gen_lag_p99_ms", percentile(fixed.lag_ms, 99.0));
    for (const double q : {75.0, 90.0, 95.0, 99.0}) {
        out->note("scan_p" + std::to_string(static_cast<int>(q)) + "_s",
                  percentile(fixed.scan_s, q));
    }
    out->note("probes", static_cast<double>(fixed.probes));
    out->note("latency_blocks", static_cast<double>(kBlocks));
    out->note("ping_p50_us", blockMedian(fixed.ping_blocks, false));
    out->note("ping_tail_us", blockMedian(fixed.ping_blocks, true));
    out->note("capacity_rps", capacity);
    out->note("distinct_scan_seeds", static_cast<double>(reference.size()));

    if (!params.trace) {
        EndToEnd e2e;
        e2e.campaign_p50_s = blockMedian(fixed.scan_blocks, false);
        e2e.campaign_tail_s = blockMedian(fixed.scan_blocks, true);
        e2e.recovery_pct =
            bits == 0 ? 0.0
                      : 100.0 * static_cast<double>(correct) /
                            static_cast<double>(bits);
        e2e.peak_rss_mb = server_rss;
        e2e.goodput_rps =
            static_cast<double>(fixed.results) / fixed.send_window_s;
        emitEndToEnd(e2e, out);
        return;
    }

    send_tracer.merge(recv_tracer);
    if (!send_tracer.write(params.scratch_dir + "/trace-serve.csv")) {
        out->fail("could not write the trace file");
    }
    const double sent = std::max<double>(1.0, fixed.sent);
    f.shed_ratio = static_cast<double>(fixed.shed) / sent;
    f.deadline_ratio = static_cast<double>(fixed.deadline) / sent;
    f.malformed_answered_ratio =
        fixed.probes == 0 ? 0.0
                          : static_cast<double>(fixed.probes_typed) /
                                static_cast<double>(fixed.probes);
    f.gen_lag_ms = percentile(fixed.lag_ms, 99.0);
    f.ping_p50_us = blockMedian(fixed.ping_blocks, false);
    f.ping_tail_us = blockMedian(fixed.ping_blocks, true);
    f.scan_p50_ms = blockMedian(fixed.scan_blocks, false) * 1e3;
    f.scan_tail_ms = blockMedian(fixed.scan_blocks, true) * 1e3;
    f.capacity_rps = capacity;
    f.error_ratio = static_cast<double>(out->failed) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1, out->attempted));
    emitLayerMetrics(send_tracer, traced_wall_s, f, out);
}

} // namespace perfbench
