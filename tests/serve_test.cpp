/**
 * @file
 * Campaign-server battery: wire codec, hardened framing, protocol
 * validation, and the live-server robustness contract — fuzz
 * (truncation at every offset, oversized lengths, garbage, slowloris,
 * mid-request disconnect), deadlines, backpressure, drain,
 * determinism across pool widths and concurrent traffic, and
 * checkpoint/resume byte-identity.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "serve/campaign.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/snapshot.hpp"

namespace {

using namespace pentimento;
using serve::ErrorCode;
using serve::Frame;
using serve::FrameDecoder;
using serve::FrameType;
using serve::Request;
using serve::RequestKind;

// ------------------------------------------------------- wire codec

TEST(Wire, RoundTripsScalarsAndStrings)
{
    serve::WireWriter writer;
    writer.u8(7);
    writer.u32(0xdeadbeefu);
    writer.u64(0x0123456789abcdefull);
    writer.f64(-1234.5);
    writer.str("pentimento");
    const std::vector<std::uint8_t> bytes = writer.take();

    serve::WireReader reader(bytes.data(), bytes.size());
    EXPECT_EQ(reader.u8(), 7);
    EXPECT_EQ(reader.u32(), 0xdeadbeefu);
    EXPECT_EQ(reader.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(reader.f64(), -1234.5);
    EXPECT_EQ(reader.str(), "pentimento");
    EXPECT_TRUE(reader.ok());
    EXPECT_TRUE(reader.atEnd());
}

TEST(Wire, TruncationPoisonsTheReader)
{
    serve::WireWriter writer;
    writer.u32(42);
    const std::vector<std::uint8_t> bytes = writer.take();
    serve::WireReader reader(bytes.data(), bytes.size());
    EXPECT_EQ(reader.u32(), 42u);
    EXPECT_EQ(reader.u64(), 0u); // past the end: zero, not UB
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.u32(), 0u); // sticky
}

TEST(Wire, StringLengthBeyondPayloadFails)
{
    serve::WireWriter writer;
    writer.u32(1000); // declared string length far past the end
    writer.u8('x');
    const std::vector<std::uint8_t> bytes = writer.take();
    serve::WireReader reader(bytes.data(), bytes.size());
    EXPECT_EQ(reader.str(), "");
    EXPECT_FALSE(reader.ok());
}

// ---------------------------------------------------------- framing

TEST(Framing, RoundTripsAnyPayload)
{
    const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
    const std::vector<std::uint8_t> bytes =
        serve::encodeFrame(FrameType::Sweep, payload);
    FrameDecoder decoder(1 << 16);
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_EQ(decoder.next(&frame), FrameDecoder::Status::Ready);
    EXPECT_EQ(frame.type, FrameType::Sweep);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Status::NeedMore);
}

TEST(Framing, ByteAtATimeDecodesIdentically)
{
    const std::vector<std::uint8_t> payload(100, 0xab);
    const std::vector<std::uint8_t> bytes =
        serve::encodeFrame(FrameType::Request, payload);
    FrameDecoder decoder(1 << 16);
    Frame frame;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        decoder.feed(&bytes[i], 1);
        EXPECT_EQ(decoder.next(&frame),
                  FrameDecoder::Status::NeedMore);
    }
    decoder.feed(&bytes.back(), 1);
    ASSERT_EQ(decoder.next(&frame), FrameDecoder::Status::Ready);
    EXPECT_EQ(frame.payload, payload);
}

TEST(Framing, TruncationAtEveryOffsetNeverProducesAFrame)
{
    const std::vector<std::uint8_t> bytes = serve::encodeFrame(
        FrameType::Request, {10, 20, 30, 40, 50});
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        FrameDecoder decoder(1 << 16);
        decoder.feed(bytes.data(), cut);
        Frame frame;
        EXPECT_EQ(decoder.next(&frame),
                  FrameDecoder::Status::NeedMore)
            << "cut at " << cut;
    }
}

TEST(Framing, BadMagicIsCorrupt)
{
    std::vector<std::uint8_t> bytes =
        serve::encodeFrame(FrameType::Request, {1});
    bytes[0] ^= 0xff;
    FrameDecoder decoder(1 << 16);
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Status::Corrupt);
    EXPECT_NE(decoder.error().find("magic"), std::string::npos);
    // Sticky: feeding more valid bytes cannot revive the stream.
    const std::vector<std::uint8_t> good =
        serve::encodeFrame(FrameType::Request, {1});
    decoder.feed(good.data(), good.size());
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Status::Corrupt);
}

TEST(Framing, OversizedDeclaredLengthIsRejectedFromTheHeader)
{
    serve::WireWriter writer;
    writer.u32(serve::kFrameMagic);
    writer.u32(1);
    writer.u32(0x7fffffffu); // 2 GiB declared; never buffered
    const std::vector<std::uint8_t> bytes = writer.take();
    FrameDecoder decoder(1 << 16);
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Status::Corrupt);
    EXPECT_NE(decoder.error().find("exceeds limit"),
              std::string::npos);
}

TEST(Framing, CorruptedCrcIsDetected)
{
    std::vector<std::uint8_t> bytes =
        serve::encodeFrame(FrameType::Request, {1, 2, 3});
    bytes[bytes.size() - 2] ^= 0x40;
    FrameDecoder decoder(1 << 16);
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Status::Corrupt);
    EXPECT_NE(decoder.error().find("checksum"), std::string::npos);
}

TEST(Framing, RandomGarbageNeverAborts)
{
    util::Rng rng(20240807);
    for (int trial = 0; trial < 200; ++trial) {
        FrameDecoder decoder(1 << 12);
        std::vector<std::uint8_t> junk(
            static_cast<std::size_t>(rng.uniformInt(1, 400)));
        for (std::uint8_t &byte : junk) {
            byte = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        }
        decoder.feed(junk.data(), junk.size());
        Frame frame;
        // Must terminate with NeedMore or Corrupt; Ready would mean a
        // forged CRC on random bytes, astronomically unlikely.
        while (decoder.next(&frame) == FrameDecoder::Status::Ready) {
        }
    }
}

// --------------------------------------------------------- protocol

Request
pingRequest(std::uint64_t id)
{
    Request request;
    request.request_id = id;
    request.seed = 1;
    request.kind = RequestKind::Ping;
    return request;
}

Request
smallChurnRequest(std::uint64_t id, std::uint64_t seed)
{
    Request request;
    request.request_id = id;
    request.seed = seed;
    request.kind = RequestKind::TenancyChurn;
    request.tenancies = 4;
    request.routes_per_tenant = 2;
    request.burn_hours_min = 4.0;
    request.burn_hours_max = 12.0;
    request.idle_hours = 2.0;
    request.midflip = true;
    request.observe_last = 2;
    request.dsp_count = 8;
    return request;
}

Request
smallExp1Request(std::uint64_t id, std::uint64_t seed)
{
    Request request;
    request.request_id = id;
    request.seed = seed;
    request.kind = RequestKind::Experiment1;
    request.burn_hours = 2.0;
    request.recovery_hours = 1.0;
    request.measure_every_h = 1.0;
    request.groups = {{1000.0, 2}};
    return request;
}

Request
smallFleetScanRequest(std::uint64_t id, std::uint64_t seed)
{
    Request request;
    request.request_id = id;
    request.seed = seed;
    request.kind = RequestKind::FleetScan;
    request.fleet = 6;
    request.days = 30;
    request.scan_routes_per_tenant = 2;
    request.max_measured = 2;
    return request;
}

TEST(Protocol, RequestRoundTrips)
{
    const Request request = smallChurnRequest(77, 42);
    Request decoded;
    const auto error =
        serve::decodeRequest(serve::encodeRequest(request), &decoded);
    ASSERT_FALSE(error.has_value()) << error->message;
    EXPECT_EQ(decoded.request_id, 77u);
    EXPECT_EQ(decoded.seed, 42u);
    EXPECT_EQ(decoded.kind, RequestKind::TenancyChurn);
    EXPECT_EQ(decoded.tenancies, 4u);
    EXPECT_EQ(decoded.burn_hours_max, 12.0);
    EXPECT_TRUE(decoded.midflip);
}

TEST(Protocol, TrailingBytesAreMalformed)
{
    std::vector<std::uint8_t> payload =
        serve::encodeRequest(pingRequest(1));
    payload.push_back(0);
    Request decoded;
    const auto error = serve::decodeRequest(payload, &decoded);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, ErrorCode::Malformed);
    EXPECT_EQ(error->request_id, 1u);
}

TEST(Protocol, TruncatedPayloadAtEveryOffsetIsTyped)
{
    const std::vector<std::uint8_t> payload =
        serve::encodeRequest(smallExp1Request(9, 5));
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        const std::vector<std::uint8_t> prefix(payload.begin(),
                                               payload.begin() +
                                                   static_cast<
                                                       std::ptrdiff_t>(
                                                       cut));
        Request decoded;
        const auto error = serve::decodeRequest(prefix, &decoded);
        ASSERT_TRUE(error.has_value()) << "cut at " << cut;
        EXPECT_EQ(error->code, ErrorCode::Malformed);
    }
}

TEST(Protocol, UnknownVersionKindAndFlagsAreUnsupported)
{
    Request request = pingRequest(3);
    std::vector<std::uint8_t> payload = serve::encodeRequest(request);
    payload[0] = 9; // version (first LE u32 byte)
    Request decoded;
    auto error = serve::decodeRequest(payload, &decoded);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, ErrorCode::Unsupported);

    payload = serve::encodeRequest(request);
    payload.back() = 99; // kind is the final header byte for Ping
    error = serve::decodeRequest(payload, &decoded);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, ErrorCode::Unsupported);

    request.flags = 0x80;
    error = serve::decodeRequest(serve::encodeRequest(request),
                                 &decoded);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, ErrorCode::Unsupported);
}

TEST(Protocol, CapViolationsAreInvalidArgument)
{
    Request request = smallExp1Request(4, 1);
    request.groups = {{1000.0, 9999}};
    Request decoded;
    auto error = serve::decodeRequest(serve::encodeRequest(request),
                                      &decoded);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, ErrorCode::InvalidArgument);
    EXPECT_EQ(error->request_id, 4u);

    Request scan = smallFleetScanRequest(5, 1);
    scan.days = 100000;
    error = serve::decodeRequest(serve::encodeRequest(scan), &decoded);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, ErrorCode::InvalidArgument);

    Request churn = smallChurnRequest(6, 1);
    churn.burn_hours_max = 2.0; // below min
    error = serve::decodeRequest(serve::encodeRequest(churn),
                                 &decoded);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, ErrorCode::InvalidArgument);
}

TEST(Protocol, ZeroRequestIdIsRejected)
{
    Request decoded;
    const auto error = serve::decodeRequest(
        serve::encodeRequest(pingRequest(0)), &decoded);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, ErrorCode::InvalidArgument);
}

// ---------------------------------------------------------- logging

TEST(Logging, ThreadContextIsPerThread)
{
    util::setThreadLogContext("req 1");
    EXPECT_EQ(util::threadLogContext(), "req 1");
    std::thread other([] {
        EXPECT_EQ(util::threadLogContext(), "");
        util::setThreadLogContext("req 2");
        EXPECT_EQ(util::threadLogContext(), "req 2");
    });
    other.join();
    EXPECT_EQ(util::threadLogContext(), "req 1");
    util::setThreadLogContext("");
}

TEST(Logging, ConcurrentEmissionIsRaceFree)
{
    // Exercised under TSan/ASan in CI: unsynchronised verbosity or
    // stream writes would flag here.
    util::setVerbosity(util::Verbosity::Silent);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t] {
            std::string context = "t";
            context += std::to_string(t);
            util::setThreadLogContext(context);
            for (int i = 0; i < 200; ++i) {
                util::warn("concurrent warn");
                util::inform("concurrent inform");
                util::setVerbosity(i % 2 == 0
                                       ? util::Verbosity::Silent
                                       : util::Verbosity::Warning);
            }
            util::setThreadLogContext("");
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    util::setVerbosity(util::Verbosity::Silent);
}

// ------------------------------------------------------ live server

class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        util::setVerbosity(util::Verbosity::Silent);
    }

    serve::CampaignServerConfig
    baseConfig()
    {
        serve::CampaignServerConfig config;
        config.port = 0;
        config.executors = 1;
        config.sim_workers = 0;
        config.queue_capacity = 8;
        config.default_deadline_ms = 60000;
        config.frame_timeout_ms = 5000;
        return config;
    }

    /** Start a server or fail the test. */
    std::unique_ptr<serve::CampaignServer>
    startServer(const serve::CampaignServerConfig &config)
    {
        auto server = std::make_unique<serve::CampaignServer>(config);
        const util::Expected<void> started = server->start();
        EXPECT_TRUE(started.ok()) << started.error();
        return server;
    }

    /** Connect, send one request, return the first reply frame. */
    util::Expected<Frame>
    roundTrip(std::uint16_t port, const Request &request,
              std::uint32_t timeout_ms = 60000)
    {
        serve::ClientConnection conn;
        const util::Expected<void> connected = conn.connect(port);
        if (!connected.ok()) {
            return util::unexpected(connected.error());
        }
        const util::Expected<void> sent = conn.sendFrame(
            FrameType::Request, serve::encodeRequest(request));
        if (!sent.ok()) {
            return util::unexpected(sent.error());
        }
        return conn.readFrame(timeout_ms);
    }

    /** RESULT payload bytes for a request, asserting success. */
    std::vector<std::uint8_t>
    resultBytes(std::uint16_t port, const Request &request)
    {
        const util::Expected<Frame> reply = roundTrip(port, request);
        EXPECT_TRUE(reply.ok()) << reply.error();
        if (!reply.ok()) {
            return {};
        }
        EXPECT_EQ(reply.value().type, FrameType::Result);
        return reply.value().payload;
    }

    /** Expect an ERROR reply with the given code. */
    serve::ErrorInfo
    expectError(const util::Expected<Frame> &reply, ErrorCode code)
    {
        EXPECT_TRUE(reply.ok()) << reply.error();
        serve::ErrorInfo info;
        if (!reply.ok()) {
            return info;
        }
        EXPECT_EQ(reply.value().type, FrameType::Error);
        const auto decoded = serve::decodeError(reply.value().payload);
        EXPECT_TRUE(decoded.has_value());
        if (decoded) {
            info = *decoded;
            EXPECT_EQ(info.code, code) << info.message;
        }
        return info;
    }
};

TEST_F(ServeTest, PingRoundTrips)
{
    auto server = startServer(baseConfig());
    const util::Expected<Frame> reply =
        roundTrip(server->port(), pingRequest(11));
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().type, FrameType::Result);
    serve::WireReader reader(reply.value().payload.data(),
                             reply.value().payload.size());
    EXPECT_EQ(reader.u64(), 11u);
    EXPECT_EQ(reader.u8(),
              static_cast<std::uint8_t>(RequestKind::Ping));
    EXPECT_EQ(reader.u32(), serve::kProtocolVersion);
}

TEST_F(ServeTest, GarbageGetsTypedErrorAndServerStaysServiceable)
{
    auto server = startServer(baseConfig());
    serve::ClientConnection conn;
    ASSERT_TRUE(conn.connect(server->port()).ok());
    const std::uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef,
                                 1,    2,    3,    4};
    ASSERT_TRUE(conn.sendRaw(junk, sizeof(junk)).ok());
    expectError(conn.readFrame(5000), ErrorCode::Malformed);
    // The poisoned connection closes...
    const util::Expected<Frame> after = conn.readFrame(5000);
    EXPECT_FALSE(after.ok());
    // ...and a fresh connection still serves.
    const util::Expected<Frame> reply =
        roundTrip(server->port(), pingRequest(12));
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().type, FrameType::Result);
}

TEST_F(ServeTest, TruncatedFramesAtEveryOffsetNeverWedgeTheServer)
{
    auto server = startServer(baseConfig());
    const std::vector<std::uint8_t> frame = serve::encodeFrame(
        FrameType::Request, serve::encodeRequest(pingRequest(13)));
    for (std::size_t cut = 1; cut < frame.size(); ++cut) {
        serve::ClientConnection conn;
        ASSERT_TRUE(conn.connect(server->port()).ok());
        ASSERT_TRUE(conn.sendRaw(frame.data(), cut).ok());
        conn.close(); // mid-request disconnect at every offset
    }
    const util::Expected<Frame> reply =
        roundTrip(server->port(), pingRequest(14));
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().type, FrameType::Result);
}

TEST_F(ServeTest, OversizedDeclaredLengthIsRefusedCheaply)
{
    auto server = startServer(baseConfig());
    serve::ClientConnection conn;
    ASSERT_TRUE(conn.connect(server->port()).ok());
    serve::WireWriter writer;
    writer.u32(serve::kFrameMagic);
    writer.u32(1);
    writer.u32(0x7fffffffu);
    const std::vector<std::uint8_t> bytes = writer.bytes();
    ASSERT_TRUE(conn.sendRaw(bytes.data(), bytes.size()).ok());
    expectError(conn.readFrame(5000), ErrorCode::Malformed);
}

TEST_F(ServeTest, SlowlorisByteAtATimeStillDecodes)
{
    auto server = startServer(baseConfig());
    serve::ClientConnection conn;
    ASSERT_TRUE(conn.connect(server->port()).ok());
    const std::vector<std::uint8_t> frame = serve::encodeFrame(
        FrameType::Request, serve::encodeRequest(pingRequest(15)));
    for (const std::uint8_t byte : frame) {
        ASSERT_TRUE(conn.sendRaw(&byte, 1).ok());
    }
    const util::Expected<Frame> reply = conn.readFrame(10000);
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().type, FrameType::Result);
}

TEST_F(ServeTest, StalledMidFrameTimesOut)
{
    serve::CampaignServerConfig config = baseConfig();
    config.frame_timeout_ms = 150;
    auto server = startServer(config);
    serve::ClientConnection conn;
    ASSERT_TRUE(conn.connect(server->port()).ok());
    const std::vector<std::uint8_t> frame = serve::encodeFrame(
        FrameType::Request, serve::encodeRequest(pingRequest(16)));
    ASSERT_TRUE(conn.sendRaw(frame.data(), 6).ok()); // stall mid-frame
    const serve::ErrorInfo info =
        expectError(conn.readFrame(5000), ErrorCode::Malformed);
    EXPECT_NE(info.message.find("timed out"), std::string::npos);
}

TEST_F(ServeTest, MalformedPayloadKeepsConnectionServiceable)
{
    auto server = startServer(baseConfig());
    serve::ClientConnection conn;
    ASSERT_TRUE(conn.connect(server->port()).ok());
    // CRC-valid frame whose payload fails request decoding.
    ASSERT_TRUE(conn.sendFrame(FrameType::Request, {1, 2, 3}).ok());
    expectError(conn.readFrame(5000), ErrorCode::Malformed);
    // Same connection, well-formed request: still answered.
    ASSERT_TRUE(conn.sendFrame(FrameType::Request,
                               serve::encodeRequest(pingRequest(17)))
                    .ok());
    const util::Expected<Frame> reply = conn.readFrame(5000);
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().type, FrameType::Result);
}

TEST_F(ServeTest, NonRequestFramesAreRefused)
{
    auto server = startServer(baseConfig());
    serve::ClientConnection conn;
    ASSERT_TRUE(conn.connect(server->port()).ok());
    ASSERT_TRUE(conn.sendFrame(FrameType::Result, {1}).ok());
    expectError(conn.readFrame(5000), ErrorCode::Unsupported);
}

TEST_F(ServeTest, QueueFullShedsWithRetryAfter)
{
    serve::CampaignServerConfig config = baseConfig();
    config.queue_capacity = 1;
    auto server = startServer(config);

    // Occupy the single executor with a throttled campaign (~2 s).
    Request slow = smallFleetScanRequest(20, 9);
    slow.days = 40;
    slow.throttle_ms_per_day = 50;
    serve::ClientConnection busy;
    ASSERT_TRUE(busy.connect(server->port()).ok());
    ASSERT_TRUE(busy.sendFrame(FrameType::Request,
                               serve::encodeRequest(slow))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    // Fill the queue...
    serve::ClientConnection queued;
    ASSERT_TRUE(queued.connect(server->port()).ok());
    ASSERT_TRUE(queued.sendFrame(
                         FrameType::Request,
                         serve::encodeRequest(smallChurnRequest(21, 1)))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // ...and the next request sheds with an explicit hint.
    const util::Expected<Frame> shed =
        roundTrip(server->port(), smallChurnRequest(22, 1), 5000);
    const serve::ErrorInfo info =
        expectError(shed, ErrorCode::RetryAfter);
    EXPECT_GT(info.retry_after_ms, 0u);
    EXPECT_EQ(info.request_id, 22u);

    // Ping bypasses admission: the saturated server is still alive.
    const util::Expected<Frame> ping =
        roundTrip(server->port(), pingRequest(23), 5000);
    ASSERT_TRUE(ping.ok()) << ping.error();
    EXPECT_EQ(ping.value().type, FrameType::Result);

    // Let the in-flight work finish so stop() drains promptly.
    const util::Expected<Frame> busy_reply = busy.readFrame(30000);
    EXPECT_TRUE(busy_reply.ok()) << busy_reply.error();
    const util::Expected<Frame> queued_reply = queued.readFrame(30000);
    EXPECT_TRUE(queued_reply.ok()) << queued_reply.error();
}

TEST_F(ServeTest, ShedHintGrowsUnderSustainedOverload)
{
    serve::CampaignServerConfig config = baseConfig();
    config.queue_capacity = 1;
    config.retry_after_ms = 50;
    auto server = startServer(config);

    // Occupy the single executor with a throttled campaign (~2 s)...
    Request slow = smallFleetScanRequest(25, 9);
    slow.days = 40;
    slow.throttle_ms_per_day = 50;
    serve::ClientConnection busy;
    ASSERT_TRUE(busy.connect(server->port()).ok());
    ASSERT_TRUE(busy.sendFrame(FrameType::Request,
                               serve::encodeRequest(slow))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    // ...and fill the queue.
    serve::ClientConnection queued;
    ASSERT_TRUE(queued.connect(server->port()).ok());
    ASSERT_TRUE(queued.sendFrame(
                         FrameType::Request,
                         serve::encodeRequest(smallChurnRequest(26, 1)))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Every further request sheds — with a hint that pushes clients
    // progressively further out the longer the overload lasts.
    std::vector<std::uint32_t> hints;
    for (std::uint64_t id = 27; id < 32; ++id) {
        const util::Expected<Frame> shed =
            roundTrip(server->port(), smallChurnRequest(id, 1), 5000);
        const serve::ErrorInfo info =
            expectError(shed, ErrorCode::RetryAfter);
        hints.push_back(info.retry_after_ms);
    }
    ASSERT_EQ(hints.size(), 5u);
    EXPECT_GE(hints.front(), config.retry_after_ms);
    for (std::size_t i = 1; i < hints.size(); ++i) {
        EXPECT_GE(hints[i], hints[i - 1]) << "hint " << i << " shrank";
        EXPECT_LE(hints[i], config.retry_after_cap_ms);
    }
    EXPECT_GT(hints.back(), hints.front())
        << "sustained overload must grow the hint";

    // Drain the in-flight work so stop() is prompt.
    EXPECT_TRUE(busy.readFrame(30000).ok());
    EXPECT_TRUE(queued.readFrame(30000).ok());
}

TEST_F(ServeTest, ClientCallRetriesShedsUntilAdmitted)
{
    serve::CampaignServerConfig config = baseConfig();
    config.queue_capacity = 1;
    config.retry_after_ms = 50;
    auto server = startServer(config);

    // Same overload shape as above: executor busy (~1.5 s), queue full.
    Request slow = smallFleetScanRequest(35, 9);
    slow.days = 30;
    slow.throttle_ms_per_day = 50;
    serve::ClientConnection busy;
    ASSERT_TRUE(busy.connect(server->port()).ok());
    ASSERT_TRUE(busy.sendFrame(FrameType::Request,
                               serve::encodeRequest(slow))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    serve::ClientConnection queued;
    ASSERT_TRUE(queued.connect(server->port()).ok());
    ASSERT_TRUE(queued.sendFrame(
                         FrameType::Request,
                         serve::encodeRequest(smallChurnRequest(36, 1)))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // A retrying call() absorbs the sheds and lands once the backlog
    // clears — the caller never sees a RETRY_AFTER.
    serve::ClientConfig retry_config;
    retry_config.max_retries = 40;
    retry_config.backoff_base_ms = 50;
    retry_config.backoff_cap_ms = 200;
    retry_config.jitter_seed = 7;
    serve::ClientConnection caller;
    ASSERT_TRUE(caller.connect(server->port()).ok());
    std::uint32_t retries = 0;
    const util::Expected<Frame> reply = caller.call(
        smallChurnRequest(37, 1), retry_config, 30000, &retries);
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().type, FrameType::Result);
    EXPECT_GE(retries, 1u) << "the first submission must have shed";
    serve::WireReader reader(reply.value().payload.data(),
                             reply.value().payload.size());
    EXPECT_EQ(reader.u64(), 37u);

    EXPECT_TRUE(busy.readFrame(30000).ok());
    EXPECT_TRUE(queued.readFrame(30000).ok());
}

TEST_F(ServeTest, DeadlineExceededMidCampaign)
{
    auto server = startServer(baseConfig());
    Request slow = smallFleetScanRequest(30, 9);
    slow.days = 2000;
    slow.throttle_ms_per_day = 20; // ~40 s straight through
    slow.deadline_ms = 300;
    const auto start = std::chrono::steady_clock::now();
    const util::Expected<Frame> reply =
        roundTrip(server->port(), slow, 20000);
    expectError(reply, ErrorCode::DeadlineExceeded);
    const double waited_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(waited_s, 10.0); // cancelled cooperatively, not ran out
}

TEST_F(ServeTest, ExpiredWhileQueuedIsDeadlineExceeded)
{
    serve::CampaignServerConfig config = baseConfig();
    auto server = startServer(config);
    // Executor busy for ~1.5 s; the queued request's 100 ms deadline
    // expires before it is ever dequeued.
    Request slow = smallFleetScanRequest(31, 9);
    slow.days = 30;
    slow.throttle_ms_per_day = 50;
    serve::ClientConnection busy;
    ASSERT_TRUE(busy.connect(server->port()).ok());
    ASSERT_TRUE(busy.sendFrame(FrameType::Request,
                               serve::encodeRequest(slow))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    Request quick = smallChurnRequest(32, 1);
    quick.deadline_ms = 100;
    const util::Expected<Frame> reply =
        roundTrip(server->port(), quick, 30000);
    expectError(reply, ErrorCode::DeadlineExceeded);
    const util::Expected<Frame> busy_reply = busy.readFrame(30000);
    EXPECT_TRUE(busy_reply.ok()) << busy_reply.error();
}

TEST_F(ServeTest, DrainRefusesNewWorkAndCancelsCampaigns)
{
    // The campaign's checkpoints land here; its first one is the
    // test's proof that the scan is in flight.
    char tmpl[] = "/tmp/serve_drain_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    char name[64];
    std::snprintf(name, sizeof(name), "/campaign_%016llx.ckpt",
                  static_cast<unsigned long long>(40));
    const std::string checkpoint = dir + name;
    // Declared before the server, so it runs after the server stops,
    // on every exit path including a failed ASSERT.
    struct RemoveCheckpoints
    {
        const std::string &dir;
        const std::string &checkpoint;
        ~RemoveCheckpoints()
        {
            for (const char *suffix : {"", ".prev", ".tmp"}) {
                ::unlink((checkpoint + suffix).c_str());
            }
            ::rmdir(dir.c_str());
        }
    } remove_checkpoints{dir, checkpoint};
    serve::CampaignServerConfig config = baseConfig();
    config.checkpoint_dir = dir;
    auto server = startServer(config);

    // A draining server stops accepting, so both connections are
    // opened, and proven accepted by a Ping, before the drain.
    serve::ClientConnection campaign;
    serve::ClientConnection other;
    for (serve::ClientConnection *conn : {&campaign, &other}) {
        ASSERT_TRUE(conn->connect(server->port()).ok());
        ASSERT_TRUE(conn->sendFrame(FrameType::Request,
                                    serve::encodeRequest(pingRequest(42)))
                        .ok());
        const util::Expected<Frame> pong = conn->readFrame(5000);
        ASSERT_TRUE(pong.ok()) << pong.error();
        ASSERT_EQ(pong.value().type, FrameType::Result);
    }

    Request slow = smallFleetScanRequest(40, 9);
    slow.days = 2000;
    slow.throttle_ms_per_day = 20;
    slow.checkpoint_every_days = 1;
    ASSERT_TRUE(campaign
                    .sendFrame(FrameType::Request,
                               serve::encodeRequest(slow))
                    .ok());
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (::access(checkpoint.c_str(), F_OK) != 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), give_up)
            << "the campaign never committed its day-1 checkpoint";
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    server->requestDrain();
    // New non-ping work is refused...
    ASSERT_TRUE(other
                    .sendFrame(FrameType::Request,
                               serve::encodeRequest(
                                   smallChurnRequest(41, 1)))
                    .ok());
    expectError(other.readFrame(5000), ErrorCode::ShuttingDown);
    // ...and the in-flight campaign cancels at its next day boundary.
    expectError(campaign.readFrame(20000), ErrorCode::ShuttingDown);
    server->stop();
}

TEST_F(ServeTest, ChurnResponseMatchesDirectRun)
{
    auto server = startServer(baseConfig());
    const Request request = smallChurnRequest(50, 4242);
    const std::vector<std::uint8_t> via_server =
        resultBytes(server->port(), request);

    core::TenancyChurnConfig config;
    config.tenancies = request.tenancies;
    config.routes_per_tenant = request.routes_per_tenant;
    config.dsp_count = static_cast<int>(request.dsp_count);
    config.burn_hours_min = request.burn_hours_min;
    config.burn_hours_max = request.burn_hours_max;
    config.idle_hours = request.idle_hours;
    config.midflip = request.midflip;
    config.observe_last = request.observe_last;
    config.seed = request.seed;
    const std::vector<std::uint8_t> direct = serve::encodeChurnResult(
        request.request_id, core::runTenancyChurn(config));
    EXPECT_EQ(via_server, direct);
}

TEST_F(ServeTest, ResponseBytesAreIdenticalAcrossPoolWidths)
{
    serve::CampaignServerConfig serial = baseConfig();
    serial.sim_workers = 0;
    serve::CampaignServerConfig wide = baseConfig();
    wide.sim_workers = 3;

    const Request request = smallExp1Request(60, 777);
    std::vector<std::uint8_t> bytes_serial;
    {
        auto server = startServer(serial);
        bytes_serial = resultBytes(server->port(), request);
    }
    std::vector<std::uint8_t> bytes_wide;
    {
        auto server = startServer(wide);
        bytes_wide = resultBytes(server->port(), request);
    }
    ASSERT_FALSE(bytes_serial.empty());
    EXPECT_EQ(bytes_serial, bytes_wide);
}

TEST_F(ServeTest, DeterministicUnderConcurrentMixedTraffic)
{
    serve::CampaignServerConfig config = baseConfig();
    config.executors = 2;
    config.sim_workers = 2;
    auto server = startServer(config);
    const std::uint16_t port = server->port();

    // Reference bytes from a quiet round-trip.
    const Request request = smallExp1Request(70, 31337);
    const std::vector<std::uint8_t> reference =
        resultBytes(port, request);
    ASSERT_FALSE(reference.empty());

    // The same request under concurrent mixed traffic (pings, churn,
    // adversarial connections) must produce the same bytes.
    std::atomic<bool> go{true};
    std::thread noise([&] {
        std::uint64_t id = 1000;
        while (go.load(std::memory_order_relaxed)) {
            (void)roundTrip(port, pingRequest(++id), 5000);
            serve::ClientConnection junk;
            if (junk.connect(port).ok()) {
                const std::uint8_t garbage[] = {0xff, 0xfe, 0xfd,
                                                0xfc, 0xfb};
                (void)junk.sendRaw(garbage, sizeof(garbage));
            }
        }
    });
    std::thread churn_noise([&] {
        std::uint64_t id = 5000;
        while (go.load(std::memory_order_relaxed)) {
            (void)roundTrip(port, smallChurnRequest(++id, 3), 30000);
        }
    });
    std::vector<std::uint8_t> under_load;
    Request repeat = request;
    repeat.request_id = 71;
    under_load = resultBytes(port, repeat);
    go.store(false, std::memory_order_relaxed);
    noise.join();
    churn_noise.join();

    // Responses echo their own request id; normalise it before
    // comparing the remainder byte-for-byte.
    ASSERT_GE(under_load.size(), 8u);
    ASSERT_GE(reference.size(), 8u);
    std::vector<std::uint8_t> reference_body(reference.begin() + 8,
                                             reference.end());
    std::vector<std::uint8_t> loaded_body(under_load.begin() + 8,
                                          under_load.end());
    EXPECT_EQ(reference_body, loaded_body);
}

TEST_F(ServeTest, StreamedSweepsArriveBeforeTheResult)
{
    auto server = startServer(baseConfig());
    Request request = smallExp1Request(80, 99);
    request.flags = serve::kFlagStreamSweeps;
    serve::ClientConnection conn;
    ASSERT_TRUE(conn.connect(server->port()).ok());
    ASSERT_TRUE(conn.sendFrame(FrameType::Request,
                               serve::encodeRequest(request))
                    .ok());
    std::size_t sweeps = 0;
    Frame final_frame;
    for (;;) {
        const util::Expected<Frame> frame = conn.readFrame(60000);
        ASSERT_TRUE(frame.ok()) << frame.error();
        if (frame.value().type == FrameType::Sweep) {
            serve::WireReader reader(frame.value().payload.data(),
                                     frame.value().payload.size());
            EXPECT_EQ(reader.u64(), 80u);
            EXPECT_EQ(reader.u32(), sweeps); // in-order sweep index
            ++sweeps;
            continue;
        }
        final_frame = frame.value();
        break;
    }
    EXPECT_EQ(final_frame.type, FrameType::Result);
    // exp1: baseline + 2 burn + 1 recovery sweeps.
    EXPECT_EQ(sweeps, 4u);
    serve::WireReader reader(final_frame.payload.data(),
                             final_frame.payload.size());
    EXPECT_EQ(reader.u64(), 80u);
    (void)reader.u8();
    EXPECT_EQ(reader.u64(), 4u); // result agrees on the sweep count
}

// ------------------------------------------ fleet-scan lane layout

/** A small region with enough released boards to fill 8 scan slots. */
serve::FleetScanConfig
laneScanConfig(bool stressed, std::size_t max_measured)
{
    serve::FleetScanConfig config;
    config.fleet = 24;
    config.days = 100;
    config.seed = 4141;
    config.routes_per_tenant = 2;
    config.max_measured = max_measured;
    if (stressed) {
        config.journal_stress = true;
        config.bram_channel = true;
        config.bram_scrub = cloud::BramScrubPolicy::ZeroOnRelease;
    }
    return config;
}

/** Wire bytes plus the local bookkeeping the scan's lanes fill in. */
std::vector<std::uint8_t>
scanFingerprint(const serve::FleetScanResult &result)
{
    std::vector<std::uint8_t> out = serve::encodeFleetScanResult(1, result);
    serve::WireWriter w;
    w.u64(result.stress_boards);
    w.u64(result.stress_elements);
    w.u64(result.bram_scrub_ops);
    w.u32(static_cast<std::uint32_t>(result.bram_boards.size()));
    for (const serve::FleetScanBramScore &bram : result.bram_boards) {
        w.str(bram.board);
        w.u64(bram.blocks);
        w.u64(bram.recovered);
        w.u64(bram.decayed);
        w.u64(bram.zeroed);
        w.u8(bram.unclean ? 1 : 0);
    }
    const std::vector<std::uint8_t> tail = w.take();
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
}

serve::FleetScanResult
runScan(const serve::FleetScanConfig &config)
{
    util::Expected<serve::FleetScanResult> result =
        serve::runFleetScan(config);
    EXPECT_TRUE(result.ok()) << result.error();
    return result.ok() ? std::move(result.value())
                       : serve::FleetScanResult{};
}

TEST(FleetScanLanes, ResultIsIdenticalAcrossPoolWidths)
{
    util::setVerbosity(util::Verbosity::Silent);
    for (const bool stressed : {false, true}) {
        for (const std::size_t measured : {2u, 8u}) {
            SCOPED_TRACE(std::string(stressed ? "stressed" : "plain") +
                         " max_measured=" + std::to_string(measured));
            const serve::FleetScanResult serial =
                runScan(laneScanConfig(stressed, measured));
            ASSERT_EQ(serial.boards.size(), measured);
            ASSERT_EQ(serial.bram_boards.size(), stressed ? measured : 0);
            const std::vector<std::uint8_t> reference =
                scanFingerprint(serial);
            for (const std::size_t workers : {0u, 1u, 3u}) {
                util::ThreadPool pool(workers);
                serve::FleetScanConfig config =
                    laneScanConfig(stressed, measured);
                config.pool = &pool;
                EXPECT_EQ(scanFingerprint(runScan(config)), reference)
                    << workers << " workers";
            }
        }
    }
}

TEST(FleetScanLanes, ShardsAtFullWidthConcatenateToTheUnshardedRun)
{
    util::setVerbosity(util::Verbosity::Silent);
    // 8 targets: 2 shards split them 4 + 4, 3 shards 3 + 3 + 2.
    util::ThreadPool pool(3);
    for (const bool stressed : {false, true}) {
        const serve::FleetScanResult whole =
            runScan(laneScanConfig(stressed, 8));
        for (const std::uint32_t shards : {2u, 3u}) {
            SCOPED_TRACE(std::string(stressed ? "stressed" : "plain") +
                         " shards=" + std::to_string(shards));
            serve::FleetScanResult merged;
            std::vector<serve::FleetScanBramScore> bram;
            for (std::uint32_t i = 0; i < shards; ++i) {
                serve::FleetScanConfig config =
                    laneScanConfig(stressed, 8);
                config.shard_index = i;
                config.shard_count = shards;
                config.pool = &pool;
                serve::FleetScanResult part = runScan(config);
                merged.tenancies = part.tenancies;
                merged.simulated_h = part.simulated_h;
                merged.skipped = part.skipped;
                merged.boards.insert(merged.boards.end(),
                                     part.boards.begin(),
                                     part.boards.end());
                bram.insert(bram.end(), part.bram_boards.begin(),
                            part.bram_boards.end());
            }
            EXPECT_EQ(serve::encodeFleetScanResult(1, merged),
                      serve::encodeFleetScanResult(1, whole));
            ASSERT_EQ(bram.size(), whole.bram_boards.size());
            for (std::size_t b = 0; b < bram.size(); ++b) {
                EXPECT_EQ(bram[b].board, whole.bram_boards[b].board);
                EXPECT_EQ(bram[b].recovered,
                          whole.bram_boards[b].recovered);
                EXPECT_EQ(bram[b].decayed, whole.bram_boards[b].decayed);
                EXPECT_EQ(bram[b].zeroed, whole.bram_boards[b].zeroed);
            }
        }
    }
}

/** Observer that never cancels: it only makes every window one day. */
class AlwaysContinue : public core::SweepObserver
{
  public:
    bool
    onSweep(std::size_t, double, const double *, std::size_t) override
    {
        return true;
    }
};

TEST(FleetScanLanes, DayWindowsAreInvisible)
{
    // The day loop runs in windows cut at the run's end, checkpoints,
    // the halt day and (with an observer) every day, with each
    // window's device work fanned out per board. None of that may
    // show in the result: not the window length, not the lane count,
    // not a halt-and-resume in the middle.
    util::setVerbosity(util::Verbosity::Silent);
    char tmpl[] = "/tmp/serve_windows_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::string path = dir + "/scan.ckpt";
    const auto clearCheckpoints = [&] {
        for (const char *suffix : {"", ".prev", ".tmp"}) {
            ::unlink((path + suffix).c_str());
        }
    };
    enum class Durability
    {
        None,
        Every7,
        HaltThenResume
    };
    AlwaysContinue always;
    util::ThreadPool pool0(0);
    util::ThreadPool pool1(1);
    util::ThreadPool pool3(3);
    util::ThreadPool *const pools[] = {&pool0, &pool1, &pool3};
    // Six window layouts: {no observer, observer} x durability. Each
    // campaign variant k runs all six, two per pool width, rotated by
    // k so that across the six variants every width meets every
    // layout too.
    int variant = 0;
    for (const bool stressed : {false, true}) {
        for (const cloud::BramScrubPolicy scrub :
             {cloud::BramScrubPolicy::None,
              cloud::BramScrubPolicy::ZeroOnRelease,
              cloud::BramScrubPolicy::ZeroOnRent}) {
            serve::FleetScanConfig base = laneScanConfig(stressed, 2);
            base.fleet = 12;
            base.days = 160;
            base.bram_scrub = scrub;
            const serve::FleetScanResult straight = runScan(base);
            if (stressed) {
                // Rotations and the coverage check did run.
                EXPECT_GT(straight.stress_boards, 0u);
            }
            const std::vector<std::uint8_t> reference =
                scanFingerprint(straight);
            for (int slot = 0; slot < 6; ++slot) {
                const int layout = (slot + variant) % 6;
                util::ThreadPool *pool = pools[slot / 2];
                const bool observed = layout % 2 == 1;
                const auto durability = static_cast<Durability>(layout / 2);
                SCOPED_TRACE(std::string(stressed ? "stressed" : "plain") +
                             " scrub=" +
                             std::to_string(static_cast<int>(scrub)) +
                             " lanes=" + std::to_string(pool->concurrency()) +
                             (observed ? " observer" : "") +
                             " durability=" +
                             std::to_string(static_cast<int>(durability)));
                serve::FleetScanConfig config = base;
                config.pool = pool;
                config.observer = observed ? &always : nullptr;
                if (durability != Durability::None) {
                    clearCheckpoints();
                    config.checkpoint_path = path;
                    config.resume = serve::ResumeMode::Never;
                }
                if (durability == Durability::Every7) {
                    config.checkpoint_every_days = 7;
                }
                if (durability == Durability::HaltThenResume) {
                    config.halt_at_day = 150;
                    EXPECT_EQ(runScan(config).halted_after_day, 150);
                    config.halt_at_day = 0;
                    config.resume = serve::ResumeMode::Require;
                }
                const serve::FleetScanResult result = runScan(config);
                if (durability == Durability::HaltThenResume) {
                    EXPECT_EQ(result.resumed_day, 150);
                }
                EXPECT_EQ(scanFingerprint(result), reference);
            }
            ++variant;
        }
    }
    clearCheckpoints();
    ::rmdir(dir.c_str());
}

// ----------------------------------------- checkpoint/resume engine

class FleetScanResumeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        util::setVerbosity(util::Verbosity::Silent);
        char tmpl[] = "/tmp/serve_scan_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
    }

    void
    TearDown() override
    {
        // Best-effort cleanup of the handful of checkpoint files.
        for (const char *suffix :
             {"/scan.ckpt", "/scan.ckpt.prev", "/scan.ckpt.tmp"}) {
            ::unlink((dir_ + suffix).c_str());
        }
        ::rmdir(dir_.c_str());
    }

    serve::FleetScanConfig
    scanConfig()
    {
        serve::FleetScanConfig config;
        config.fleet = 6;
        config.days = 30;
        config.seed = 1717;
        config.routes_per_tenant = 2;
        config.max_measured = 2;
        return config;
    }

    std::string dir_;
};

/** Observer cancelling after a fixed number of days. */
class CancelAfter : public core::SweepObserver
{
  public:
    explicit CancelAfter(std::size_t days) : days_(days) {}
    bool
    onSweep(std::size_t day, double, const double *,
            std::size_t) override
    {
        return day < days_;
    }

  private:
    std::size_t days_;
};

TEST_F(FleetScanResumeTest, ResumedRunIsByteIdentical)
{
    const util::Expected<serve::FleetScanResult> straight =
        serve::runFleetScan(scanConfig());
    ASSERT_TRUE(straight.ok()) << straight.error();
    const std::vector<std::uint8_t> reference =
        serve::encodeFleetScanResult(1, straight.value());

    // Interrupted run: checkpoints every 5 days, cancelled at day 12
    // (which flushes a final checkpoint at the cancellation boundary).
    serve::FleetScanConfig interrupted = scanConfig();
    interrupted.checkpoint_every_days = 5;
    interrupted.checkpoint_path = dir_ + "/scan.ckpt";
    CancelAfter cancel(12);
    interrupted.observer = &cancel;
    EXPECT_THROW((void)serve::runFleetScan(interrupted),
                 util::CancelledError);

    // Resubmission resumes from the checkpoint and re-delivers the
    // byte-identical result.
    serve::FleetScanConfig resumed = scanConfig();
    resumed.checkpoint_every_days = 5;
    resumed.checkpoint_path = dir_ + "/scan.ckpt";
    const util::Expected<serve::FleetScanResult> result =
        serve::runFleetScan(resumed);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_EQ(serve::encodeFleetScanResult(1, result.value()),
              reference);
}

#if defined(PENTIMENTO_FAULT_INJECTION)

TEST_F(FleetScanResumeTest, BitRottenPrimaryResumesFromPrevGeneration)
{
    const util::Expected<serve::FleetScanResult> straight =
        serve::runFleetScan(scanConfig());
    ASSERT_TRUE(straight.ok()) << straight.error();
    const std::vector<std::uint8_t> reference =
        serve::encodeFleetScanResult(1, straight.value());

    // Interrupted run leaves two generations: .ckpt at day 12 (the
    // cancellation flush) and .prev at day 10 (the last periodic one).
    serve::FleetScanConfig interrupted = scanConfig();
    interrupted.checkpoint_every_days = 5;
    interrupted.checkpoint_path = dir_ + "/scan.ckpt";
    CancelAfter cancel(12);
    interrupted.observer = &cancel;
    EXPECT_THROW((void)serve::runFleetScan(interrupted),
                 util::CancelledError);

    // One in-flight bit flip (max=1): the newest generation fails its
    // CRC on load, and the .prev generation must rescue the resume —
    // Require turns a silent fresh rerun into a hard failure, so this
    // also proves a real resume happened.
    const util::Expected<util::fault::Schedule> schedule =
        util::fault::parseSchedule(
            "seed=1;snapshot.load.corrupt_crc:max=1");
    ASSERT_TRUE(schedule.ok()) << schedule.error();
    util::fault::arm(schedule.value());
    serve::FleetScanConfig resumed = scanConfig();
    resumed.checkpoint_every_days = 5;
    resumed.checkpoint_path = dir_ + "/scan.ckpt";
    resumed.resume = serve::ResumeMode::Require;
    const util::Expected<serve::FleetScanResult> result =
        serve::runFleetScan(resumed);
    util::fault::disarm();

    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_EQ(result.value().resumed_from, dir_ + "/scan.ckpt.prev");
    // The .prev generation predates the cancellation flush.
    EXPECT_GT(result.value().resumed_day, 0);
    EXPECT_LT(result.value().resumed_day, 12);
    EXPECT_EQ(serve::encodeFleetScanResult(1, result.value()),
              reference);
}

TEST_F(FleetScanResumeTest, TornRenameOnLastCommitResumesFromPrev)
{
    const util::Expected<serve::FleetScanResult> straight =
        serve::runFleetScan(scanConfig());
    ASSERT_TRUE(straight.ok()) << straight.error();
    const std::vector<std::uint8_t> reference =
        serve::encodeFleetScanResult(1, straight.value());

    // The interrupted run commits at days 5 and 10 and flushes at the
    // day-12 cancellation. The flush's rename goes through with half
    // the image, so the published primary is torn and only the day-10
    // generation, rotated to .prev first, is whole.
    const util::Expected<util::fault::Schedule> schedule =
        util::fault::parseSchedule(
            "seed=1;snapshot.commit.torn_rename:skip=2,max=1");
    ASSERT_TRUE(schedule.ok()) << schedule.error();
    util::fault::arm(schedule.value());
    serve::FleetScanConfig interrupted = scanConfig();
    interrupted.checkpoint_every_days = 5;
    interrupted.checkpoint_path = dir_ + "/scan.ckpt";
    CancelAfter cancel(12);
    interrupted.observer = &cancel;
    EXPECT_THROW((void)serve::runFleetScan(interrupted),
                 util::CancelledError);
    const std::vector<util::fault::PointStats> stats =
        util::fault::stats();
    util::fault::disarm();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].evaluations, 3u);
    EXPECT_EQ(stats[0].fires, 1u);

    serve::FleetScanConfig resumed = scanConfig();
    resumed.checkpoint_every_days = 5;
    resumed.checkpoint_path = dir_ + "/scan.ckpt";
    resumed.resume = serve::ResumeMode::Require;
    const util::Expected<serve::FleetScanResult> result =
        serve::runFleetScan(resumed);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_EQ(result.value().resumed_from, dir_ + "/scan.ckpt.prev");
    EXPECT_EQ(result.value().resumed_day, 10);
    EXPECT_EQ(serve::encodeFleetScanResult(1, result.value()),
              reference);
}

#endif // PENTIMENTO_FAULT_INJECTION

// A halted run returns, and a cancelled run throws, only once its
// last checkpoint is published: right after, no .tmp is left and the
// primary generation resumes at the halt or cancel day.
TEST_F(FleetScanResumeTest, HaltAndCancelReturnOnlyAfterPublish)
{
    const std::string path = dir_ + "/scan.ckpt";
    const auto requireResume = [&](int day) {
        serve::FleetScanConfig resumed = scanConfig();
        resumed.checkpoint_path = path;
        resumed.resume = serve::ResumeMode::Require;
        const util::Expected<serve::FleetScanResult> result =
            serve::runFleetScan(resumed);
        ASSERT_TRUE(result.ok()) << result.error();
        EXPECT_EQ(result.value().resumed_from, path);
        EXPECT_EQ(result.value().resumed_day, day);
    };

    serve::FleetScanConfig halted = scanConfig();
    halted.checkpoint_every_days = 5;
    halted.checkpoint_path = path;
    halted.halt_at_day = 12;
    const util::Expected<serve::FleetScanResult> result =
        serve::runFleetScan(halted);
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_EQ(result.value().halted_after_day, 12);
    requireResume(12);

    for (const char *suffix : {"", ".prev"}) {
        ::unlink((path + suffix).c_str());
    }
    serve::FleetScanConfig cancelled = scanConfig();
    cancelled.checkpoint_every_days = 5;
    cancelled.checkpoint_path = path;
    CancelAfter cancel(17);
    cancelled.observer = &cancel;
    EXPECT_THROW((void)serve::runFleetScan(cancelled),
                 util::CancelledError);
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
    requireResume(17);
}

#if defined(PENTIMENTO_FAULT_INJECTION)

// A commit whose rename fails is warned about, on the campaign's own
// thread (its log context tags the line), and the run goes on: the
// result is the straight run's, and later generations still resume.
TEST_F(FleetScanResumeTest, FailedBackgroundPublishIsWarnedAndRunContinues)
{
    const util::Expected<serve::FleetScanResult> straight =
        serve::runFleetScan(scanConfig());
    ASSERT_TRUE(straight.ok()) << straight.error();
    const std::vector<std::uint8_t> reference =
        serve::encodeFleetScanResult(1, straight.value());

    const util::Expected<util::fault::Schedule> schedule =
        util::fault::parseSchedule("seed=1;snapshot.commit.rename:max=1");
    ASSERT_TRUE(schedule.ok()) << schedule.error();
    serve::FleetScanConfig checkpointed = scanConfig();
    checkpointed.checkpoint_every_days = 5;
    checkpointed.checkpoint_path = dir_ + "/scan.ckpt";
    util::fault::arm(schedule.value());
    util::setVerbosity(util::Verbosity::Warning);
    util::setThreadLogContext("scan");
    ::testing::internal::CaptureStderr();
    const util::Expected<serve::FleetScanResult> result =
        serve::runFleetScan(checkpointed);
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    util::setThreadLogContext("");
    util::setVerbosity(util::Verbosity::Silent);
    const std::vector<util::fault::PointStats> stats =
        util::fault::stats();
    util::fault::disarm();

    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_EQ(serve::encodeFleetScanResult(1, result.value()), reference);
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].fires, 1u);
    EXPECT_NE(warnings.find("warn: [scan] fleet scan: checkpoint write "
                            "failed (snapshot: rename failed"),
              std::string::npos)
        << warnings;
    EXPECT_NE(::access((dir_ + "/scan.ckpt.tmp").c_str(), F_OK), 0);

    // Commits at days 10 to 25 published; the newest resumes.
    serve::FleetScanConfig resumed = checkpointed;
    resumed.resume = serve::ResumeMode::Require;
    const util::Expected<serve::FleetScanResult> again =
        serve::runFleetScan(resumed);
    ASSERT_TRUE(again.ok()) << again.error();
    EXPECT_EQ(again.value().resumed_from, dir_ + "/scan.ckpt");
    EXPECT_EQ(again.value().resumed_day, 25);
    EXPECT_EQ(serve::encodeFleetScanResult(1, again.value()), reference);
}

#endif // PENTIMENTO_FAULT_INJECTION

TEST_F(FleetScanResumeTest, CorruptCheckpointFallsBackToFreshRun)
{
    const util::Expected<serve::FleetScanResult> straight =
        serve::runFleetScan(scanConfig());
    ASSERT_TRUE(straight.ok()) << straight.error();

    // A real checkpoint from an interrupted run, its format version
    // byte set back one: a file of the previous format must be
    // refused, not parsed.
    const std::string path = dir_ + "/scan.ckpt";
    serve::FleetScanConfig interrupted = scanConfig();
    interrupted.checkpoint_every_days = 5;
    interrupted.checkpoint_path = path;
    CancelAfter cancel(12);
    interrupted.observer = &cancel;
    EXPECT_THROW((void)serve::runFleetScan(interrupted),
                 util::CancelledError);
    std::string stale;
    if (std::FILE *in = std::fopen(path.c_str(), "rb")) {
        int c = 0;
        while ((c = std::fgetc(in)) != EOF) {
            stale.push_back(static_cast<char>(c));
        }
        std::fclose(in);
    }
    ASSERT_GT(stale.size(), 16u);
    ASSERT_EQ(stale[8], static_cast<char>(util::kSnapshotVersion));
    stale[8] = static_cast<char>(util::kSnapshotVersion - 1);

    struct Input
    {
        const char *name;
        std::string bytes;
        const char *require_error;
    };
    const Input inputs[] = {
        {"garbage", "not a snapshot", "shorter than header"},
        {"previous version", stale, "unsupported format version"},
    };
    for (const Input &input : inputs) {
        SCOPED_TRACE(input.name);
        // Plant the input where the checkpoint would be, with no
        // .prev generation to fall back to.
        ::unlink((path + ".prev").c_str());
        std::FILE *file = std::fopen(path.c_str(), "wb");
        ASSERT_NE(file, nullptr);
        std::fwrite(input.bytes.data(), 1, input.bytes.size(), file);
        std::fclose(file);

        serve::FleetScanConfig required = scanConfig();
        required.checkpoint_path = path;
        required.resume = serve::ResumeMode::Require;
        const util::Expected<serve::FleetScanResult> refused =
            serve::runFleetScan(required);
        ASSERT_FALSE(refused.ok());
        EXPECT_NE(refused.error().find(input.require_error),
                  std::string::npos)
            << refused.error();

        serve::FleetScanConfig config = scanConfig();
        config.checkpoint_path = path;
        const util::Expected<serve::FleetScanResult> result =
            serve::runFleetScan(config);
        ASSERT_TRUE(result.ok()) << result.error();
        EXPECT_EQ(serve::encodeFleetScanResult(1, result.value()),
                  serve::encodeFleetScanResult(1, straight.value()));
    }
}

TEST_F(FleetScanResumeTest, ConfigSkewIgnoresTheCheckpoint)
{
    serve::FleetScanConfig first = scanConfig();
    first.checkpoint_every_days = 5;
    first.checkpoint_path = dir_ + "/scan.ckpt";
    CancelAfter cancel(10);
    first.observer = &cancel;
    EXPECT_THROW((void)serve::runFleetScan(first),
                 util::CancelledError);

    // Different seed: the stale checkpoint must not leak into it.
    serve::FleetScanConfig skewed = scanConfig();
    skewed.seed = 9999;
    skewed.checkpoint_path = dir_ + "/scan.ckpt";
    const util::Expected<serve::FleetScanResult> via_ckpt =
        serve::runFleetScan(skewed);
    ASSERT_TRUE(via_ckpt.ok()) << via_ckpt.error();

    serve::FleetScanConfig clean = scanConfig();
    clean.seed = 9999;
    const util::Expected<serve::FleetScanResult> direct =
        serve::runFleetScan(clean);
    ASSERT_TRUE(direct.ok()) << direct.error();
    EXPECT_EQ(serve::encodeFleetScanResult(1, via_ckpt.value()),
              serve::encodeFleetScanResult(1, direct.value()));
}

TEST_F(FleetScanResumeTest, ServerResumesAfterRestart)
{
    // The in-process version of the CI kill -9 test: run the campaign
    // straight on one server, then on a second server cancel it
    // mid-flight by draining, "restart" (a third server on the same
    // checkpoint dir), resubmit, and compare RESULT bytes.
    util::setVerbosity(util::Verbosity::Silent);
    serve::CampaignServerConfig server_config;
    server_config.port = 0;
    server_config.executors = 1;
    server_config.checkpoint_dir = dir_;

    Request request;
    request.request_id = 90;
    request.seed = 1717;
    request.kind = RequestKind::FleetScan;
    request.fleet = 6;
    request.days = 30;
    request.scan_routes_per_tenant = 2;
    request.max_measured = 2;
    request.checkpoint_every_days = 5;

    std::vector<std::uint8_t> reference;
    {
        serve::CampaignServer server(server_config);
        ASSERT_TRUE(server.start().ok());
        serve::ClientConnection conn;
        ASSERT_TRUE(conn.connect(server.port()).ok());
        ASSERT_TRUE(conn.sendFrame(FrameType::Request,
                                   serve::encodeRequest(request))
                        .ok());
        const util::Expected<Frame> reply = conn.readFrame(120000);
        ASSERT_TRUE(reply.ok()) << reply.error();
        ASSERT_EQ(reply.value().type, FrameType::Result);
        reference = reply.value().payload;
        server.stop();
    }
    // Clear the finished campaign's checkpoint so the next run starts
    // fresh, then cancel it mid-flight via drain.
    {
        char name[64];
        std::snprintf(name, sizeof(name), "/campaign_%016llx.ckpt",
                      static_cast<unsigned long long>(90));
        ::unlink((dir_ + name).c_str());
        ::unlink((dir_ + name + ".prev").c_str());
    }
    {
        serve::CampaignServer server(server_config);
        ASSERT_TRUE(server.start().ok());
        Request throttled = request;
        throttled.throttle_ms_per_day = 30;
        serve::ClientConnection conn;
        ASSERT_TRUE(conn.connect(server.port()).ok());
        ASSERT_TRUE(conn.sendFrame(FrameType::Request,
                                   serve::encodeRequest(throttled))
                        .ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        server.requestDrain();
        const util::Expected<Frame> cancelled = conn.readFrame(20000);
        ASSERT_TRUE(cancelled.ok()) << cancelled.error();
        EXPECT_EQ(cancelled.value().type, FrameType::Error);
        server.stop();
    }
    {
        serve::CampaignServer server(server_config);
        ASSERT_TRUE(server.start().ok());
        serve::ClientConnection conn;
        ASSERT_TRUE(conn.connect(server.port()).ok());
        ASSERT_TRUE(conn.sendFrame(FrameType::Request,
                                   serve::encodeRequest(request))
                        .ok());
        const util::Expected<Frame> reply = conn.readFrame(120000);
        ASSERT_TRUE(reply.ok()) << reply.error();
        ASSERT_EQ(reply.value().type, FrameType::Result);
        EXPECT_EQ(reply.value().payload, reference);
        server.stop();
    }
    // Cleanup the campaign checkpoints this test created.
    char name[64];
    std::snprintf(name, sizeof(name), "/campaign_%016llx.ckpt",
                  static_cast<unsigned long long>(90));
    ::unlink((dir_ + name).c_str());
    ::unlink((dir_ + name + ".prev").c_str());
    ::unlink((dir_ + name + ".tmp").c_str());
}

} // namespace
