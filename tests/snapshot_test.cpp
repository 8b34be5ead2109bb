/**
 * @file
 * Checkpoint/restore battery (PR 7).
 *
 * Two halves. The format half fault-injects the snapshot container:
 * truncation at every byte, a bit flip in every byte, stale versions,
 * duplicated/missing/reordered chunks, trailing garbage, and simulated
 * crashes between temp-write and rename — every case must be detected
 * and surfaced as a recoverable util::Expected error, never a fatal.
 *
 * The state half locks round-trip bit-identity: checkpoints are taken
 * at deliberately adversarial points (mid-tenancy with a resident
 * design, a pending five-run journal history, an open
 * timeline segment, un-flushed deferred idle time) and every delay,
 * temperature, and RNG draw after restore must EQ — not NEAR — the
 * straight-through run. Satellites ride along: the element-slab rehash
 * round trip past one slab chunk, and the journal's compaction-pin
 * rebase / applyServiceWear orderings immediately after restore.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "core/presets.hpp"
#include "fabric/activity_journal.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "fabric/route.hpp"
#include "serve/campaign.hpp"
#include "util/expected.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

#include "observe_at_load.hpp"

namespace pc = pentimento::cloud;
namespace pf = pentimento::fabric;
namespace pp = pentimento::phys;
namespace pu = pentimento::util;

namespace {

constexpr std::uint32_t kTag1 = pu::snapshotTag('T', 'S', '1', '!');
constexpr std::uint32_t kTag2 = pu::snapshotTag('T', 'S', '2', '!');
constexpr std::uint32_t kDevTag = pu::snapshotTag('D', 'E', 'V', '!');

/** Write the two chunks of the sample image, exercising every
 *  primitive. */
void
writeSample(pu::SnapshotWriter &writer)
{
    writer.beginChunk(kTag1);
    writer.u8(7);
    writer.u32(0xdeadbeefu);
    writer.u64(0x0123456789abcdefULL);
    writer.f64(-3.5e-9);
    writer.str("pentimento");
    writer.endChunk();
    writer.beginChunk(kTag2);
    writer.u64(42);
    writer.u64(43);
    writer.endChunk();
}

/** The finished two-chunk sample image. */
std::vector<std::uint8_t>
sampleImage()
{
    pu::SnapshotWriter writer;
    writeSample(writer);
    return writer.finish();
}

/** Full strict parse of the sample image; false on any defect. */
bool
sampleParses(std::vector<std::uint8_t> image)
{
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(image));
    if (!made.ok()) {
        return false;
    }
    pu::SnapshotReader &r = made.value();
    if (!r.enterChunk(kTag1)) {
        return false;
    }
    (void)r.u8();
    (void)r.u32();
    (void)r.u64();
    (void)r.f64();
    (void)r.str();
    if (!r.leaveChunk() || !r.enterChunk(kTag2)) {
        return false;
    }
    (void)r.u64();
    (void)r.u64();
    return r.leaveChunk() && r.expectEnd();
}

struct ChunkSpan
{
    std::size_t begin;
    std::size_t end;
};

/** Byte extents of every chunk (incl. END), by walking the headers. */
std::vector<ChunkSpan>
chunkSpans(const std::vector<std::uint8_t> &image)
{
    std::vector<ChunkSpan> spans;
    std::size_t off = 16;
    while (off + 20 <= image.size()) {
        std::uint64_t len = 0;
        std::memcpy(&len, image.data() + off + 8, sizeof(len));
        const std::size_t end = off + 16 + len + 4;
        spans.push_back({off, end});
        off = end;
    }
    return spans;
}

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

void
writeRawFile(const std::string &path, const std::string &bytes)
{
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), fp);
    std::fclose(fp);
}

bool
fileExists(const std::string &path)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr) {
        return false;
    }
    std::fclose(fp);
    return true;
}

/** Every byte of the file at `path` (empty when it cannot be read). */
std::vector<std::uint8_t>
fileBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    if (std::FILE *fp = std::fopen(path.c_str(), "rb")) {
        int c = 0;
        while ((c = std::fgetc(fp)) != EOF) {
            bytes.push_back(static_cast<std::uint8_t>(c));
        }
        std::fclose(fp);
    }
    return bytes;
}

/** One-chunk image carrying a single marker value. */
std::vector<std::uint8_t>
markerImage(std::uint64_t marker)
{
    pu::SnapshotWriter writer;
    writer.beginChunk(kTag1);
    writer.u64(marker);
    writer.endChunk();
    return writer.finish();
}

std::uint64_t
readMarker(pu::SnapshotReader &reader)
{
    EXPECT_TRUE(reader.enterChunk(kTag1));
    const std::uint64_t marker = reader.u64();
    EXPECT_TRUE(reader.leaveChunk());
    EXPECT_TRUE(reader.expectEnd());
    return marker;
}

/**
 * The marker of the generation at `path`, read the way campaign resume
 * reads a checkpoint: open() checks the header, and each chunk's CRC
 * is checked as the chunk is entered. Any rejection is the error.
 */
pu::Expected<std::uint64_t>
markerAt(const std::string &path)
{
    pu::Expected<pu::SnapshotReader> opened = pu::SnapshotReader::open(path);
    if (!opened.ok()) {
        return pu::unexpected(opened.error());
    }
    pu::SnapshotReader &reader = opened.value();
    if (!reader.enterChunk(kTag1)) {
        return pu::unexpected(reader.error());
    }
    const std::uint64_t marker = reader.u64();
    if (!reader.leaveChunk() || !reader.expectEnd()) {
        return pu::unexpected(reader.error());
    }
    return marker;
}

/** markerAt(), or 0 after recording the rejection as a failure. */
std::uint64_t
goodMarkerAt(const std::string &path)
{
    const pu::Expected<std::uint64_t> marker = markerAt(path);
    EXPECT_TRUE(marker.ok()) << path << ": " << marker.error();
    return marker.ok() ? marker.value() : 0;
}

} // namespace

// ------------------------------------------------------------ CRC32C

namespace {

/** Bit-at-a-time CRC32C: the slowest, most obviously correct oracle. */
std::uint32_t
crc32cBitwise(const std::uint8_t *data, std::size_t len)
{
    std::uint32_t crc = ~0u;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
        }
    }
    return ~crc;
}

} // namespace

TEST(SnapshotCrc32c, KnownAnswers)
{
    // RFC 3720 appendix B.4 (iSCSI) test vectors.
    std::uint8_t buf[32];
    std::memset(buf, 0x00, sizeof(buf));
    EXPECT_EQ(pu::crc32c(buf, sizeof(buf)), 0x8A9136AAu);
    EXPECT_EQ(pu::crc32cPortable(buf, sizeof(buf)), 0x8A9136AAu);
    std::memset(buf, 0xff, sizeof(buf));
    EXPECT_EQ(pu::crc32c(buf, sizeof(buf)), 0x62A8AB43u);
    EXPECT_EQ(pu::crc32cPortable(buf, sizeof(buf)), 0x62A8AB43u);
    for (std::size_t i = 0; i < sizeof(buf); ++i) {
        buf[i] = static_cast<std::uint8_t>(i);
    }
    EXPECT_EQ(pu::crc32c(buf, sizeof(buf)), 0x46DD794Eu);
    EXPECT_EQ(pu::crc32cPortable(buf, sizeof(buf)), 0x46DD794Eu);
    for (std::size_t i = 0; i < sizeof(buf); ++i) {
        buf[i] = static_cast<std::uint8_t>(31 - i);
    }
    EXPECT_EQ(pu::crc32c(buf, sizeof(buf)), 0x113FDB5Cu);
    EXPECT_EQ(pu::crc32cPortable(buf, sizeof(buf)), 0x113FDB5Cu);
    // The conventional check value.
    EXPECT_EQ(pu::crc32c("123456789", 9), 0xE3069283u);
    EXPECT_EQ(pu::crc32cPortable("123456789", 9), 0xE3069283u);
    EXPECT_EQ(pu::crc32c(nullptr, 0), 0u);
}

TEST(SnapshotCrc32c, DispatchMatchesPortableAtEveryLengthAndAlignment)
{
    // Both implementations must agree with the bitwise oracle on every
    // head/body/tail split of the word loops.
    std::vector<std::uint8_t> pool(1024 + 16);
    pu::Rng rng(20240311);
    for (std::uint8_t &b : pool) {
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    }
    for (std::size_t align = 0; align < 16; ++align) {
        for (std::size_t len = 0; len <= 1024; ++len) {
            const std::uint8_t *p = pool.data() + align;
            const std::uint32_t want = crc32cBitwise(p, len);
            ASSERT_EQ(pu::crc32cPortable(p, len), want)
                << "len " << len << " align " << align;
            ASSERT_EQ(pu::crc32c(p, len), want)
                << "len " << len << " align " << align;
        }
    }
}

TEST(SnapshotCrc32c, SeedChainsAcrossSplits)
{
    std::vector<std::uint8_t> data(777);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    const std::uint32_t whole = pu::crc32c(data.data(), data.size());
    for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{8},
                                    std::size_t{300}, data.size()}) {
        const std::uint32_t head = pu::crc32c(data.data(), split);
        EXPECT_EQ(pu::crc32c(data.data() + split, data.size() - split,
                             head),
                  whole)
            << "split " << split;
        const std::uint32_t head_portable =
            pu::crc32cPortable(data.data(), split);
        EXPECT_EQ(pu::crc32cPortable(data.data() + split,
                                     data.size() - split, head_portable),
                  whole)
            << "split " << split;
    }
}

// --------------------------------------------------- container format

TEST(SnapshotFormat, PrimitiveRoundTrip)
{
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(sampleImage());
    ASSERT_TRUE(made.ok()) << made.error();
    pu::SnapshotReader &r = made.value();
    ASSERT_TRUE(r.enterChunk(kTag1));
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.f64(), -3.5e-9);
    EXPECT_EQ(r.str(), "pentimento");
    ASSERT_TRUE(r.leaveChunk());
    ASSERT_TRUE(r.enterChunk(kTag2));
    EXPECT_EQ(r.u64(), 42u);
    EXPECT_EQ(r.u64(), 43u);
    ASSERT_TRUE(r.leaveChunk());
    EXPECT_TRUE(r.expectEnd());
    EXPECT_TRUE(r.ok()) << r.error();
}

TEST(SnapshotFormat, EveryTruncationDetected)
{
    const std::vector<std::uint8_t> image = sampleImage();
    for (std::size_t len = 0; len < image.size(); ++len) {
        std::vector<std::uint8_t> cut(image.begin(),
                                      image.begin() +
                                          static_cast<std::ptrdiff_t>(len));
        EXPECT_FALSE(sampleParses(std::move(cut)))
            << "truncation to " << len << " bytes went undetected";
    }
}

TEST(SnapshotFormat, EveryBitFlipDetected)
{
    const std::vector<std::uint8_t> image = sampleImage();
    for (std::size_t i = 0; i < image.size(); ++i) {
        for (const std::uint8_t bit : {std::uint8_t{0x01},
                                       std::uint8_t{0x80}}) {
            std::vector<std::uint8_t> flipped = image;
            flipped[i] ^= bit;
            EXPECT_FALSE(sampleParses(std::move(flipped)))
                << "bit flip at byte " << i << " went undetected";
        }
    }
}

TEST(SnapshotFormat, StaleVersionRejected)
{
    std::vector<std::uint8_t> image = sampleImage();
    image[8] = static_cast<std::uint8_t>(pu::kSnapshotVersion + 1);
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(image));
    ASSERT_FALSE(made.ok());
    EXPECT_NE(made.error().find("version"), std::string::npos)
        << made.error();
}

TEST(SnapshotFormat, VarintRoundTripsAtEveryLength)
{
    std::vector<std::uint64_t> values{0, 1};
    for (int bits = 7; bits < 64; bits += 7) {
        values.push_back((std::uint64_t{1} << bits) - 1);
        values.push_back(std::uint64_t{1} << bits);
    }
    values.push_back(~std::uint64_t{0});
    pu::SnapshotWriter writer;
    writer.beginChunk(kTag1);
    pu::SnapshotSpan span = writer.span(10 * values.size() + 10);
    for (const std::uint64_t v : values) {
        span.varint(v);
    }
    writer.trim(span);
    writer.endChunk();
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(writer.finish());
    ASSERT_TRUE(made.ok());
    pu::SnapshotReader &reader = made.value();
    ASSERT_TRUE(reader.enterChunk(kTag1));
    for (const std::uint64_t v : values) {
        EXPECT_EQ(reader.varint(), v);
    }
    EXPECT_TRUE(reader.leaveChunk()) << reader.error();
}

TEST(SnapshotFormat, ReservedFlagsRejected)
{
    std::vector<std::uint8_t> image = sampleImage();
    image[13] = 0x40;
    EXPECT_FALSE(pu::SnapshotReader::fromBuffer(std::move(image)).ok());
}

TEST(SnapshotFormat, DuplicateChunkDetected)
{
    std::vector<std::uint8_t> image = sampleImage();
    const std::vector<ChunkSpan> spans = chunkSpans(image);
    ASSERT_EQ(spans.size(), 3u); // TS1, TS2, END
    // Splice a byte-identical copy of chunk 0 (its own CRC intact)
    // right after the original.
    std::vector<std::uint8_t> dup(image.begin(),
                                  image.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          spans[0].end));
    dup.insert(dup.end(),
               image.begin() +
                   static_cast<std::ptrdiff_t>(spans[0].begin),
               image.begin() + static_cast<std::ptrdiff_t>(spans[0].end));
    dup.insert(dup.end(),
               image.begin() + static_cast<std::ptrdiff_t>(spans[0].end),
               image.end());

    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(dup));
    ASSERT_TRUE(made.ok());
    pu::SnapshotReader &r = made.value();
    ASSERT_TRUE(r.enterChunk(kTag1));
    (void)r.u8();
    (void)r.u32();
    (void)r.u64();
    (void)r.f64();
    (void)r.str();
    ASSERT_TRUE(r.leaveChunk());
    EXPECT_FALSE(r.enterChunk(kTag1));
    EXPECT_NE(r.error().find("sequence"), std::string::npos) << r.error();
}

TEST(SnapshotFormat, MissingChunkDetected)
{
    std::vector<std::uint8_t> image = sampleImage();
    const std::vector<ChunkSpan> spans = chunkSpans(image);
    ASSERT_EQ(spans.size(), 3u);
    image.erase(image.begin() +
                    static_cast<std::ptrdiff_t>(spans[1].begin),
                image.begin() + static_cast<std::ptrdiff_t>(spans[1].end));
    EXPECT_FALSE(sampleParses(std::move(image)));
}

TEST(SnapshotFormat, ReorderedChunksDetected)
{
    const std::vector<std::uint8_t> image = sampleImage();
    const std::vector<ChunkSpan> spans = chunkSpans(image);
    ASSERT_EQ(spans.size(), 3u);
    std::vector<std::uint8_t> swapped(image.begin(), image.begin() + 16);
    const auto append = [&](const ChunkSpan &span) {
        swapped.insert(swapped.end(),
                       image.begin() +
                           static_cast<std::ptrdiff_t>(span.begin),
                       image.begin() +
                           static_cast<std::ptrdiff_t>(span.end));
    };
    append(spans[1]);
    append(spans[0]);
    append(spans[2]);
    EXPECT_FALSE(sampleParses(std::move(swapped)));
}

TEST(SnapshotFormat, TrailingGarbageRejected)
{
    std::vector<std::uint8_t> image = sampleImage();
    image.push_back(0xab);
    EXPECT_FALSE(sampleParses(std::move(image)));
}

TEST(SnapshotFormat, WrongTagAndUnderconsumptionDetected)
{
    {
        pu::Expected<pu::SnapshotReader> made =
            pu::SnapshotReader::fromBuffer(sampleImage());
        ASSERT_TRUE(made.ok());
        EXPECT_FALSE(made.value().enterChunk(kTag2));
        EXPECT_NE(made.value().error().find("tag"), std::string::npos);
    }
    {
        pu::Expected<pu::SnapshotReader> made =
            pu::SnapshotReader::fromBuffer(markerImage(9));
        ASSERT_TRUE(made.ok());
        pu::SnapshotReader &r = made.value();
        ASSERT_TRUE(r.enterChunk(kTag1));
        EXPECT_FALSE(r.leaveChunk()); // u64 payload never consumed
        EXPECT_FALSE(r.ok());
    }
}

TEST(SnapshotFormat, StickyErrorReturnsZeroes)
{
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(markerImage(77));
    ASSERT_TRUE(made.ok());
    pu::SnapshotReader &r = made.value();
    ASSERT_TRUE(r.enterChunk(kTag1));
    EXPECT_EQ(r.u64(), 77u);
    EXPECT_EQ(r.u64(), 0u); // past payload end: fails, returns zero
    EXPECT_FALSE(r.ok());
    const std::string first = r.error();
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.f64(), 0.0);
    EXPECT_EQ(r.error(), first) << "later failures must not overwrite";
    EXPECT_FALSE(r.status().ok());
}

// ------------------------------------------ atomic commit & generations

TEST(SnapshotFormat, CommitIsAtomicAndReopens)
{
    const std::string path = tempPath("snap_commit.bin");
    std::remove(path.c_str());
    pu::SnapshotWriter writer;
    writer.beginChunk(kTag1);
    writer.u64(123);
    writer.endChunk();
    const pu::Expected<void> committed = writer.commit(path);
    ASSERT_TRUE(committed.ok()) << committed.error();
    EXPECT_FALSE(fileExists(path + ".tmp"));

    pu::Expected<pu::SnapshotReader> made = pu::SnapshotReader::open(path);
    ASSERT_TRUE(made.ok()) << made.error();
    EXPECT_EQ(readMarker(made.value()), 123u);
    std::remove(path.c_str());
}

TEST(SnapshotFormat, RotatingCommitSurvivesCorruptPrimary)
{
    const std::string path = tempPath("snap_rotate.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());

    {
        pu::SnapshotWriter gen1;
        gen1.beginChunk(kTag1);
        gen1.u64(1);
        gen1.endChunk();
        ASSERT_TRUE(gen1.commitRotating(path).ok());
        EXPECT_TRUE(fileExists(path));
        EXPECT_FALSE(fileExists(prev));
    }
    {
        pu::SnapshotWriter gen2;
        gen2.beginChunk(kTag1);
        gen2.u64(2);
        gen2.endChunk();
        ASSERT_TRUE(gen2.commitRotating(path).ok());
        EXPECT_TRUE(fileExists(prev));
    }
    // Both generations intact and distinguishable.
    EXPECT_EQ(goodMarkerAt(path), 2u);
    EXPECT_EQ(goodMarkerAt(prev), 1u);

    // Corrupt the primary (torn/garbage write): it is refused, and the
    // previous good generation still reads.
    writeRawFile(path, "not a snapshot");
    EXPECT_FALSE(markerAt(path).ok());
    EXPECT_EQ(goodMarkerAt(prev), 1u);

    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(SnapshotFormat, CrashBetweenTempWriteAndRenameIsHarmless)
{
    const std::string path = tempPath("snap_crash.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());

    pu::SnapshotWriter gen1;
    gen1.beginChunk(kTag1);
    gen1.u64(1);
    gen1.endChunk();
    ASSERT_TRUE(gen1.commitRotating(path).ok());

    // Crash while writing the next generation: a torn .tmp exists but
    // neither published file was touched.
    writeRawFile(path + ".tmp", "PNTM torn half-written image");
    EXPECT_EQ(goodMarkerAt(path), 1u);
    std::remove((path + ".tmp").c_str());

    // Crash between the two renames of a rotating commit: the primary
    // is already rotated away, .prev still loads.
    ASSERT_EQ(std::rename(path.c_str(), prev.c_str()), 0);
    EXPECT_FALSE(markerAt(path).ok());
    EXPECT_EQ(goodMarkerAt(prev), 1u);

    // Both generations gone: recoverable errors naming each path.
    std::remove(prev.c_str());
    for (const std::string &gone : {path, prev}) {
        const pu::Expected<std::uint64_t> missing = markerAt(gone);
        ASSERT_FALSE(missing.ok());
        EXPECT_NE(missing.error().find(gone), std::string::npos)
            << missing.error();
    }
}

// The two-stage commit is the same commit: staging then publishing
// leaves the bytes commitRotating() writes and finish() returns, and
// nothing appears under the path before publish().
TEST(SnapshotFormat, StagedThenPublishedIsByteIdentical)
{
    const std::string staged_path = tempPath("snap_staged.bin");
    const std::string direct_path = tempPath("snap_direct.bin");
    for (const std::string &path : {staged_path, direct_path}) {
        std::remove(path.c_str());
        std::remove((path + ".prev").c_str());
        std::remove((path + ".tmp").c_str());
    }
    const std::vector<std::uint8_t> image = sampleImage();

    pu::SnapshotWriter direct;
    writeSample(direct);
    ASSERT_TRUE(direct.commitRotating(direct_path).ok());

    pu::SnapshotWriter writer;
    writeSample(writer);
    pu::Expected<pu::StagedSnapshot> staged =
        writer.stageRotating(staged_path);
    ASSERT_TRUE(staged.ok()) << staged.error();
    EXPECT_FALSE(fileExists(staged_path));
    EXPECT_EQ(fileBytes(staged_path + ".tmp"), image);

    const pu::Expected<void> published = staged.value().publish();
    ASSERT_TRUE(published.ok()) << published.error();
    EXPECT_FALSE(fileExists(staged_path + ".tmp"));
    EXPECT_EQ(fileBytes(staged_path), image);
    EXPECT_EQ(fileBytes(direct_path), image);
    EXPECT_EQ(writer.finish(), image);
    EXPECT_THROW((void)staged.value().publish(), pu::PanicError);

    std::remove(staged_path.c_str());
    std::remove(direct_path.c_str());
}

// A staged commit that is dropped unpublished takes its .tmp with it.
// The rotation already happened, so .prev holds the old primary and
// nothing is published in its place. A moved-from stage owns nothing.
TEST(SnapshotFormat, DroppedStageRemovesTmp)
{
    const std::string path = tempPath("snap_dropped.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());
    std::remove((path + ".tmp").c_str());

    pu::SnapshotWriter gen1;
    gen1.beginChunk(kTag1);
    gen1.u64(1);
    gen1.endChunk();
    ASSERT_TRUE(gen1.commitRotating(path).ok());

    {
        pu::SnapshotWriter gen2;
        gen2.beginChunk(kTag1);
        gen2.u64(2);
        gen2.endChunk();
        pu::Expected<pu::StagedSnapshot> staged = gen2.stageRotating(path);
        ASSERT_TRUE(staged.ok()) << staged.error();
        EXPECT_TRUE(fileExists(path + ".tmp"));
        EXPECT_FALSE(fileExists(path));
    }
    EXPECT_FALSE(fileExists(path + ".tmp"));
    EXPECT_FALSE(fileExists(path));
    EXPECT_EQ(goodMarkerAt(prev), 1u);

    // Moving a stage hands over the .tmp: dropping the moved-from
    // object leaves it, and the new owner still publishes.
    std::optional<pu::StagedSnapshot> owner;
    {
        pu::SnapshotWriter gen3;
        gen3.beginChunk(kTag1);
        gen3.u64(3);
        gen3.endChunk();
        pu::Expected<pu::StagedSnapshot> staged = gen3.stageRotating(path);
        ASSERT_TRUE(staged.ok()) << staged.error();
        owner.emplace(std::move(staged.value()));
    }
    EXPECT_TRUE(fileExists(path + ".tmp"));
    ASSERT_TRUE(owner->publish().ok());
    EXPECT_FALSE(fileExists(path + ".tmp"));
    EXPECT_EQ(goodMarkerAt(path), 3u);
    EXPECT_EQ(goodMarkerAt(prev), 1u);

    std::remove(path.c_str());
    std::remove(prev.c_str());
}

// A field that would run past its span panics before it is stored, in
// every build type, so a miscounted record section cannot write past
// the bytes it appended.
TEST(SnapshotFormat, SpanOverrunPanics)
{
    pu::SnapshotWriter writer;
    writer.beginChunk(kTag1);
    pu::SnapshotSpan span = writer.span(12);
    span.u64(1);
    span.u32(2);
    EXPECT_THROW(span.u8(3), pu::PanicError);
}

// open() checks only the header; a flipped payload byte must still be
// caught by the per-chunk CRC when the chunk is entered.
TEST(SnapshotFormat, OpenReaderStillChecksChunkCrc)
{
    const std::string path = tempPath("snap_flip.bin");
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    std::vector<std::uint8_t> image = markerImage(0x1122334455667788ULL);
    image[16 + 16] ^= 0x01; // first payload byte of chunk 0
    writeRawFile(path, std::string(image.begin(), image.end()));

    pu::Expected<pu::SnapshotReader> opened = pu::SnapshotReader::open(path);
    ASSERT_TRUE(opened.ok()) << opened.error();
    EXPECT_FALSE(opened.value().enterChunk(kTag1));
    EXPECT_NE(opened.value().error().find("CRC mismatch"), std::string::npos)
        << opened.value().error();
    std::remove(path.c_str());
}

#if defined(PENTIMENTO_FAULT_INJECTION)

// Failed-commit hygiene, driven through the same injection points the
// chaos battery schedules: a commit that fails for *any* reason must
// leave no stale .tmp behind and must not have touched the published
// generations — the rotated .prev still reads.
TEST(SnapshotFormat, InjectedCommitFailuresLeaveNoTmpAndKeepPrev)
{
    const std::string path = tempPath("snap_fault.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());
    std::remove((path + ".tmp").c_str());

    pu::SnapshotWriter gen1;
    gen1.beginChunk(kTag1);
    gen1.u64(1);
    gen1.endChunk();
    ASSERT_TRUE(gen1.commitRotating(path).ok());

    const char *failures[] = {"snapshot.commit.enospc",
                              "snapshot.commit.short_write",
                              "snapshot.commit.rename"};
    for (const char *point : failures) {
        const pu::Expected<pu::fault::Schedule> schedule =
            pu::fault::parseSchedule(std::string("seed=1;") + point +
                                     ":max=1");
        ASSERT_TRUE(schedule.ok()) << schedule.error();
        pu::fault::arm(schedule.value());

        pu::SnapshotWriter gen2;
        gen2.beginChunk(kTag1);
        gen2.u64(2);
        gen2.endChunk();
        const pu::Expected<void> committed = gen2.commitRotating(path);
        pu::fault::disarm();
        ASSERT_FALSE(committed.ok()) << point << " did not fire";
        // No half-written temp file may survive the failure.
        EXPECT_FALSE(fileExists(path + ".tmp")) << point;
        // The rotation already moved gen1 to .prev, where it must
        // still read; nothing was published in its place.
        EXPECT_FALSE(markerAt(path).ok()) << point;
        EXPECT_EQ(goodMarkerAt(prev), 1u) << point;

        // Reset for the next failure mode: republish gen1 as primary.
        std::remove(path.c_str());
        std::remove(prev.c_str());
        pu::SnapshotWriter again;
        again.beginChunk(kTag1);
        again.u64(1);
        again.endChunk();
        ASSERT_TRUE(again.commitRotating(path).ok());
    }

    // Which stage each point fires in. The write faults fire in
    // stageRotating(), the rename fault in publish(). A torn rename is
    // decided at the stage, which writes half the image, but publish()
    // renames it and only then reports it. Either way the failed
    // commit leaves no .tmp, and .prev still reads.
    struct Point
    {
        const char *name;
        bool fires_in_stage;
        bool stage_fails;
    };
    const Point points[] = {
        {"snapshot.commit.enospc", true, true},
        {"snapshot.commit.short_write", true, true},
        {"snapshot.commit.torn_rename", true, false},
        {"snapshot.commit.rename", false, false},
    };
    for (const Point &point : points) {
        SCOPED_TRACE(point.name);
        const pu::Expected<pu::fault::Schedule> schedule =
            pu::fault::parseSchedule(std::string("seed=1;") + point.name +
                                     ":max=1");
        ASSERT_TRUE(schedule.ok()) << schedule.error();
        pu::fault::arm(schedule.value());

        pu::SnapshotWriter gen2;
        gen2.beginChunk(kTag1);
        gen2.u64(2);
        gen2.endChunk();
        pu::Expected<pu::StagedSnapshot> staged = gen2.stageRotating(path);
        const std::uint64_t fired_at_stage = pu::fault::stats()[0].fires;
        const bool published =
            staged.ok() && staged.value().publish().ok();
        const std::uint64_t fired = pu::fault::stats()[0].fires;
        pu::fault::disarm();

        EXPECT_EQ(fired_at_stage, point.fires_in_stage ? 1u : 0u);
        EXPECT_EQ(fired, 1u);
        EXPECT_EQ(staged.ok(), !point.stage_fails);
        EXPECT_FALSE(published);
        EXPECT_FALSE(fileExists(path + ".tmp"));
        EXPECT_FALSE(markerAt(path).ok());
        EXPECT_EQ(goodMarkerAt(prev), 1u);

        std::remove(path.c_str());
        std::remove(prev.c_str());
        pu::SnapshotWriter again;
        again.beginChunk(kTag1);
        again.u64(1);
        again.endChunk();
        ASSERT_TRUE(again.commitRotating(path).ok());
    }
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

// A torn rename is worse than a clean failure: the rename itself
// succeeds, so the *published primary* is truncated mid-image (the
// crash-between-fwrite-and-fsync shape) and commit reports it only
// after the fact. Entering the primary's chunks must reject it, and
// the rotated .prev must still deliver the previous generation.
TEST(SnapshotFormat, InjectedTornRenamePublishesCorruptPrimaryPrevRescues)
{
    const std::string path = tempPath("snap_torn.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());

    pu::SnapshotWriter gen1;
    gen1.beginChunk(kTag1);
    gen1.u64(1);
    gen1.endChunk();
    ASSERT_TRUE(gen1.commitRotating(path).ok());

    const pu::Expected<pu::fault::Schedule> schedule =
        pu::fault::parseSchedule(
            "seed=1;snapshot.commit.torn_rename:max=1");
    ASSERT_TRUE(schedule.ok()) << schedule.error();
    pu::fault::arm(schedule.value());
    pu::SnapshotWriter gen2;
    gen2.beginChunk(kTag1);
    gen2.u64(2);
    gen2.endChunk();
    const pu::Expected<void> committed = gen2.commitRotating(path);
    pu::fault::disarm();

    // The write went through rename before the failure surfaced.
    ASSERT_FALSE(committed.ok());
    EXPECT_NE(committed.error().find("torn rename"), std::string::npos)
        << committed.error();
    EXPECT_FALSE(fileExists(path + ".tmp"));
    // Header-only open() cannot see the damage (the first 16 bytes
    // survived the tear); entering the chunks must.
    EXPECT_TRUE(pu::SnapshotReader::open(path).ok());
    EXPECT_FALSE(markerAt(path).ok());
    EXPECT_EQ(goodMarkerAt(prev), 1u);

    std::remove(path.c_str());
    std::remove(prev.c_str());
}

// The load-side bit-rot point: a good image on disk, corrupted once in
// flight. The primary's read rejects; the next open, of .prev,
// succeeds because max=1 spends the fault on the primary.
TEST(SnapshotFormat, InjectedLoadCorruptionFallsBackToPrev)
{
    const std::string path = tempPath("snap_rot.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());

    for (std::uint64_t marker : {1ULL, 2ULL}) {
        pu::SnapshotWriter writer;
        writer.beginChunk(kTag1);
        writer.u64(marker);
        writer.endChunk();
        ASSERT_TRUE(writer.commitRotating(path).ok());
    }

    const pu::Expected<pu::fault::Schedule> schedule =
        pu::fault::parseSchedule("seed=1;snapshot.load.corrupt_crc:max=1");
    ASSERT_TRUE(schedule.ok()) << schedule.error();
    pu::fault::arm(schedule.value());
    const pu::Expected<std::uint64_t> primary = markerAt(path);
    const pu::Expected<std::uint64_t> previous = markerAt(prev);
    pu::fault::disarm();
    EXPECT_FALSE(primary.ok());
    ASSERT_TRUE(previous.ok()) << previous.error();
    EXPECT_EQ(previous.value(), 1u);

    std::remove(path.c_str());
    std::remove(prev.c_str());
}

#endif // PENTIMENTO_FAULT_INJECTION

TEST(SnapshotFormat, ExpectedBasics)
{
    pu::Expected<int> value = 5;
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value.value(), 5);
    pu::Expected<int> error = pu::unexpected("boom");
    ASSERT_FALSE(error.ok());
    EXPECT_EQ(error.error(), "boom");
    pu::Expected<void> fine;
    EXPECT_TRUE(fine.ok());
}

// ------------------------------------------------ device round trips

namespace {

pf::DeviceConfig
tinyConfig(std::uint64_t seed)
{
    pf::DeviceConfig config;
    config.tiles_x = 8;
    config.tiles_y = 8;
    config.nodes_per_tile = 32;
    config.seed = seed;
    config.service_age_h = 20000.0;
    return config;
}

/**
 * Every field of the device config fingerprint, with its width in the
 * image and a skew of tinyConfig() that restore must refuse. The
 * family is the length-prefixed string ahead of the fixed-width
 * fields, so it has no fixed width.
 */
struct FingerprintField
{
    const char *name;
    std::size_t bytes;
    void (*skew)(pf::DeviceConfig &);
};

const FingerprintField kFingerprintFields[] = {
    {"family", 0, [](pf::DeviceConfig &c) { c.family = "xczu9eg"; }},
    {"seed", 8, [](pf::DeviceConfig &c) { c.seed += 1; }},
    {"service_age_h", 8,
     [](pf::DeviceConfig &c) { c.service_age_h += 1.0; }},
    {"tiles_x", 4, [](pf::DeviceConfig &c) { c.tiles_x = 9; }},
    {"tiles_y", 4, [](pf::DeviceConfig &c) { c.tiles_y = 9; }},
    {"nodes_per_tile", 4,
     [](pf::DeviceConfig &c) { c.nodes_per_tile = 33; }},
    {"bram_retention_median_h", 8,
     [](pf::DeviceConfig &c) { c.bram_retention_median_h *= 2.0; }},
    {"bram_retention_sigma", 8,
     [](pf::DeviceConfig &c) { c.bram_retention_sigma += 0.5; }},
};

/** Bytes of the fixed-width fingerprint fields. */
std::size_t
fingerprintBytes()
{
    std::size_t bytes = 0;
    for (const FingerprintField &field : kFingerprintFields) {
        bytes += field.bytes;
    }
    return bytes;
}

std::vector<std::uint8_t>
saveDeviceImage(const pf::Device &device)
{
    pu::SnapshotWriter writer;
    writer.beginChunk(kDevTag);
    device.saveState(writer);
    writer.endChunk();
    return writer.finish();
}

pu::Expected<void>
restoreDeviceImage(std::vector<std::uint8_t> image, pf::Device &device,
                   bool *had_design = nullptr)
{
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(image));
    if (!made.ok()) {
        return pu::unexpected(made.error());
    }
    pu::SnapshotReader &reader = made.value();
    if (!reader.enterChunk(kDevTag)) {
        return reader.status();
    }
    const pu::Expected<void> restored =
        device.restoreState(reader, had_design);
    if (!restored.ok()) {
        return restored;
    }
    if (!reader.leaveChunk() || !reader.expectEnd()) {
        return reader.status();
    }
    return {};
}

/** Route delays for both polarities at two temperatures. */
void
observeRoute(pf::Device &device, const pf::RouteSpec &spec,
             std::vector<double> &out)
{
    pf::Route route(device, spec);
    out.push_back(route.delayPs(pp::Transition::Rising, 348.15));
    out.push_back(route.delayPs(pp::Transition::Falling, 348.15));
    out.push_back(route.delayPs(pp::Transition::Rising, 353.0));
    out.push_back(route.delayPs(pp::Transition::Falling, 353.0));
}

void
expectSameSeries(const std::vector<double> &straight,
                 const std::vector<double> &resumed)
{
    ASSERT_EQ(straight.size(), resumed.size());
    for (std::size_t i = 0; i < straight.size(); ++i) {
        EXPECT_EQ(straight[i], resumed[i])
            << "observation " << i << " diverged after restore";
    }
}

} // namespace

TEST(SnapshotDevice, MidTenancyRoundTripIsBitIdentical)
{
    // Straight-through twin: two tenancies, a design replace without a
    // wipe, pending journal runs and an open timeline segment at the
    // cut point — nothing observed yet, so nothing is materialised.
    pf::Device straight(tinyConfig(77));
    const pf::RouteSpec ra = straight.allocateRoute("a", 600.0);
    const pf::RouteSpec rb = straight.allocateRoute("b", 400.0);
    const pf::RouteSpec rc = straight.allocateRoute("c", 500.0);
    auto d1 = std::make_shared<pf::Design>("t1");
    d1->setRouteValue(ra, true);
    d1->setRouteToggling(rb, 0.3);
    straight.loadDesign(d1);
    straight.advanceAt(37.0, 348.15);
    auto d2 = std::make_shared<pf::Design>("t2");
    d2->setRouteValue(ra, false);
    d2->setRouteValue(rc, true);
    straight.loadDesign(d2);
    straight.advanceAt(11.5, 351.0); // leaves the segment open

    const std::size_t journaled_before = straight.journaledKeyCount();
    ASSERT_GT(journaled_before, 0u);
    const std::vector<std::uint8_t> image = saveDeviceImage(straight);
    // Save is strictly non-flushing: nothing materialised, journal
    // untouched.
    EXPECT_EQ(straight.journaledKeyCount(), journaled_before);
    EXPECT_EQ(straight.materializedCount(), 0u);

    pf::Device restored(tinyConfig(77));
    bool had_design = false;
    const pu::Expected<void> result =
        restoreDeviceImage(image, restored, &had_design);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_TRUE(had_design);
    EXPECT_EQ(restored.journaledKeyCount(), journaled_before);

    // Identical continuation on both twins. Designs are code, not
    // board state: the restored twin re-loads the resident design
    // first (draw-neutral on the straight twin, which already has it).
    const auto continuation = [&](pf::Device &device) {
        std::vector<double> obs;
        device.loadDesign(d2);
        device.advanceAt(5.0, 350.0);
        observeRoute(device, ra, obs);
        observeRoute(device, rb, obs);
        observeRoute(device, rc, obs);
        device.advanceAt(7.0, 349.0);
        observeRoute(device, ra, obs);
        observeRoute(device, rc, obs);
        device.applyServiceWear(2.0);
        observeRoute(device, ra, obs);
        observeRoute(device, rb, obs);
        obs.push_back(static_cast<double>(device.materializedCount()));
        obs.push_back(static_cast<double>(device.journaledKeyCount()));
        obs.push_back(static_cast<double>(device.timelineSegments()));
        return obs;
    };
    expectSameSeries(continuation(straight), continuation(restored));
}

TEST(SnapshotDevice, RestoreRequiresPristineTarget)
{
    pf::Device source(tinyConfig(5));
    source.advanceAt(3.0, 349.0);
    const std::vector<std::uint8_t> image = saveDeviceImage(source);

    pf::Device used(tinyConfig(5));
    used.advanceAt(1.0, 349.0);
    const pu::Expected<void> result = restoreDeviceImage(image, used);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().find("pristine"), std::string::npos);
}

TEST(SnapshotDevice, ConfigFingerprintSkewRejected)
{
    pf::Device source(tinyConfig(5));
    source.advanceAt(3.0, 349.0);
    const std::vector<std::uint8_t> image = saveDeviceImage(source);

    pf::Device same(tinyConfig(5));
    const pu::Expected<void> restored = restoreDeviceImage(image, same);
    ASSERT_TRUE(restored.ok()) << restored.error();

    // A skew in any one fingerprint field is a different board.
    for (const FingerprintField &field : kFingerprintFields) {
        SCOPED_TRACE(field.name);
        pf::DeviceConfig config = tinyConfig(5);
        field.skew(config);
        pf::Device other(config);
        const pu::Expected<void> result = restoreDeviceImage(image, other);
        ASSERT_FALSE(result.ok());
        EXPECT_NE(result.error().find("fingerprint"), std::string::npos)
            << result.error();
    }
}

// An image saved from a device observed at every load (every
// configured element materialised, nothing journaled) restores into a
// default device. The time of first observation never moves the
// physics: every later observed delay must equal the straight lazy
// run's.
TEST(SnapshotDevice, FullyObservedImageRestoresIntoDefaultDevice)
{
    const auto secondTenant = [](const std::vector<pf::RouteSpec> &r) {
        auto design = std::make_shared<pf::Design>("t2");
        design->setRouteValue(r[0], false);
        design->setRouteValue(r[2], true);
        return design;
    };
    // Two tenancies, the second still resident with its segment open.
    // `at_load` observes each design the moment it is loaded.
    const auto tenancies = [&](pf::Device &device, bool at_load) {
        const std::vector<pf::RouteSpec> routes = {
            device.allocateRoute("a", 600.0),
            device.allocateRoute("b", 400.0),
            device.allocateRoute("c", 500.0)};
        const auto load = [&](std::shared_ptr<const pf::Design> design) {
            device.loadDesign(std::move(design));
            if (at_load) {
                pentimento::observe_at_load::observeResident(device);
            }
        };
        auto first = std::make_shared<pf::Design>("t1");
        first->setRouteValue(routes[0], true);
        first->setRouteToggling(routes[1], 0.3);
        load(first);
        device.advanceAt(37.0, 348.15);
        device.wipe();
        device.advanceAt(20.0, 320.0);
        load(secondTenant(routes));
        device.advanceAt(11.5, 351.0);
        return routes;
    };
    pf::Device lazy(tinyConfig(83));
    pf::Device observed(tinyConfig(83));
    const std::vector<pf::RouteSpec> routes = tenancies(lazy, false);
    (void)tenancies(observed, true);
    ASSERT_EQ(lazy.materializedCount(), 0u);
    ASSERT_EQ(observed.journaledKeyCount(), 0u);
    ASSERT_GT(observed.materializedCount(), 0u);

    pf::Device restored(tinyConfig(83));
    bool had_design = false;
    const pu::Expected<void> result = restoreDeviceImage(
        saveDeviceImage(observed), restored, &had_design);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_TRUE(had_design);
    EXPECT_EQ(restored.materializedCount(), observed.materializedCount());

    // Re-load the resident design (draw-neutral on the straight run),
    // then a third tenancy whose new route the restored default
    // device journals rather than materialises.
    const auto continuation = [&](pf::Device &device) {
        std::vector<double> obs;
        device.loadDesign(secondTenant(routes));
        device.advanceAt(6.0, 350.0);
        const pf::RouteSpec rd = device.allocateRoute("d", 450.0);
        auto third = std::make_shared<pf::Design>("t3");
        third->setRouteValue(routes[1], true);
        third->setRouteValue(rd, false);
        device.loadDesign(third);
        obs.push_back(static_cast<double>(device.findElement(
                          rd.elements.front()) == nullptr));
        device.advanceAt(30.0, 349.0);
        for (const pf::RouteSpec &route : routes) {
            observeRoute(device, route, obs);
        }
        observeRoute(device, rd, obs);
        device.wipe();
        device.advanceAt(12.0, 318.15);
        observeRoute(device, routes[0], obs);
        observeRoute(device, rd, obs);
        return obs;
    };
    const std::vector<double> straight = continuation(lazy);
    ASSERT_EQ(straight.front(), 1.0) << "the new route must journal";
    expectSameSeries(straight, continuation(restored));
}

TEST(SnapshotDevice, CorruptImageNeverAborts)
{
    pf::Device source(tinyConfig(9));
    const pf::RouteSpec r = source.allocateRoute("r", 500.0);
    auto d = std::make_shared<pf::Design>("d");
    d->setRouteValue(r, true);
    source.loadDesign(d);
    source.advanceAt(20.0, 350.0);
    const std::vector<std::uint8_t> image = saveDeviceImage(source);

    // A flip anywhere in the device chunk must surface as an Expected
    // error (CRC), not reach any constructor fatal.
    for (std::size_t i = 20; i < image.size(); i += 97) {
        std::vector<std::uint8_t> corrupt = image;
        corrupt[i] ^= 0x20;
        pf::Device target(tinyConfig(9));
        EXPECT_FALSE(restoreDeviceImage(std::move(corrupt), target).ok())
            << "flip at byte " << i;
    }
    // Truncations likewise.
    for (const std::size_t len :
         {image.size() / 4, image.size() / 2, image.size() - 5}) {
        std::vector<std::uint8_t> cut(
            image.begin(),
            image.begin() + static_cast<std::ptrdiff_t>(len));
        pf::Device target(tinyConfig(9));
        EXPECT_FALSE(restoreDeviceImage(std::move(cut), target).ok())
            << "truncation to " << len;
    }
}

// A CRC-valid device image whose segment or element count claims
// 2^61 records must fail by name before anything is reserved for them.
TEST(SnapshotDevice, HugeRecordCountsAreRejected)
{
    pf::Device source(tinyConfig(9));
    const pf::RouteSpec r = source.allocateRoute("r", 500.0);
    auto d = std::make_shared<pf::Design>("d");
    d->setRouteValue(r, true);
    source.loadDesign(d);
    source.advanceAt(20.0, 350.0);
    (void)source.element(r.elements.front());
    const std::vector<std::uint8_t> image = saveDeviceImage(source);

    // Payload: family string, the fixed-width fingerprint fields, 57
    // clock bytes, then the segment count; the element count follows
    // the closed segments (24 bytes each) and the 33-byte open segment.
    std::uint64_t family_len = 0;
    std::memcpy(&family_len, image.data() + 32, sizeof(family_len));
    const std::size_t segments_at =
        32 + 8 + family_len + fingerprintBytes() + 57;
    std::uint64_t segments = 0;
    std::memcpy(&segments, image.data() + segments_at, sizeof(segments));
    const std::size_t elements_at = segments_at + 8 + 24 * segments + 33;
    std::uint64_t elements = 0;
    std::memcpy(&elements, image.data() + elements_at, sizeof(elements));
    ASSERT_GT(elements, 0u);

    const struct
    {
        std::size_t at;
        const char *error;
    } rows[] = {{segments_at, "segment count overruns"},
                {elements_at, "element count overruns"}};
    for (const auto &row : rows) {
        std::vector<std::uint8_t> corrupt = image;
        const std::uint64_t huge = std::uint64_t{1} << 61;
        std::memcpy(corrupt.data() + row.at, &huge, sizeof(huge));
        const ChunkSpan chunk = chunkSpans(corrupt).front();
        const std::uint32_t crc = pu::crc32c(corrupt.data() + chunk.begin,
                                             chunk.end - 4 - chunk.begin);
        std::memcpy(corrupt.data() + chunk.end - 4, &crc, sizeof(crc));
        pf::Device target(tinyConfig(9));
        const pu::Expected<void> result =
            restoreDeviceImage(std::move(corrupt), target);
        ASSERT_FALSE(result.ok()) << row.error;
        EXPECT_NE(result.error().find(row.error), std::string::npos)
            << result.error();
    }
}

TEST(SnapshotDevice, ElementSlabRehashRoundTrip)
{
    // Materialise past one slab chunk (1024) so the open-addressing
    // index has grown through at least one rehash before the save.
    pf::Device straight(tinyConfig(55));
    std::vector<pf::ResourceId> ids;
    for (std::uint16_t x = 0; x < 8; ++x) {
        for (std::uint16_t y = 0; y < 8; ++y) {
            for (std::uint16_t i = 0; i < 20; ++i) {
                ids.push_back(pf::ResourceId{
                    x, y, pf::ResourceType::RoutingNode, i});
            }
        }
    }
    for (const pf::ResourceId &id : ids) {
        (void)straight.element(id);
    }
    straight.applyServiceWear(10.0);
    ASSERT_GT(straight.materializedCount(), 1024u);

    const std::vector<std::uint8_t> image = saveDeviceImage(straight);
    pf::Device restored(tinyConfig(55));
    const pu::Expected<void> result = restoreDeviceImage(image, restored);
    ASSERT_TRUE(result.ok()) << result.error();

    // Identical listing order and identical flat-index probes: every
    // id must land on the same dense handle it held before the save.
    const std::vector<pf::ResourceId> a = straight.materializedIds();
    const std::vector<pf::ResourceId> b = restored.materializedIds();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key(), b[i].key()) << "listing order at " << i;
    }
    for (const pf::ResourceId &id : ids) {
        EXPECT_EQ(straight.bindElement(id), restored.bindElement(id));
    }
    const pf::DeviceConfig &cfg = straight.config();
    for (std::size_t i = 0; i < ids.size(); i += 97) {
        const double sa = straight.element(ids[i]).delayPs(
            cfg.bti, cfg.delay, pp::Transition::Rising, 348.15);
        const double sb = restored.element(ids[i]).delayPs(
            cfg.bti, cfg.delay, pp::Transition::Rising, 348.15);
        EXPECT_EQ(sa, sb);
    }
}

// The journal's saveState sizes its slot section from the used count,
// so a restored journal whose used count disagrees with its occupied
// slots would write past that section on the next save. A CRC-valid
// image carrying such a count must be rejected at restore.
TEST(SnapshotDevice, JournalUsedCountMustMatchOccupiedSlots)
{
    pf::ActivityJournal journal;
    journal.recordIfChanged(11, pf::ElementActivity{pf::Activity::Hold1}, 0);
    journal.recordIfChanged(12, pf::ElementActivity{pf::Activity::Hold0}, 0);
    pu::SnapshotWriter writer;
    writer.beginChunk(kTag1);
    journal.saveState(writer);
    writer.endChunk();
    std::vector<std::uint8_t> image = writer.finish();

    // The used count is the journal's second u64, after the table size.
    const std::size_t used_at = 16 + 16 + 8;
    std::uint64_t used = 0;
    std::memcpy(&used, image.data() + used_at, sizeof(used));
    ASSERT_EQ(used, 2u);
    ++used;
    std::memcpy(image.data() + used_at, &used, sizeof(used));
    // Re-seal the chunk so only the journal's own checks can object.
    const ChunkSpan chunk = chunkSpans(image).front();
    const std::uint32_t crc =
        pu::crc32c(image.data() + chunk.begin, chunk.end - 4 - chunk.begin);
    std::memcpy(image.data() + chunk.end - 4, &crc, sizeof(crc));

    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(image));
    ASSERT_TRUE(made.ok());
    pu::SnapshotReader &reader = made.value();
    ASSERT_TRUE(reader.enterChunk(kTag1)) << reader.error();
    pf::ActivityJournal restored;
    EXPECT_FALSE(restored.restoreState(reader));
    EXPECT_NE(reader.error().find("occupancy"), std::string::npos)
        << reader.error();
}

// ------------------------------------------- journal section (v2)

namespace {

/** Little-endian builder for hand-crafted journal sections. */
struct SectionBytes
{
    std::vector<std::uint8_t> bytes;

    SectionBytes &
    u8(std::uint8_t v)
    {
        bytes.push_back(v);
        return *this;
    }
    SectionBytes &
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i, v >>= 8) {
            u8(static_cast<std::uint8_t>(v));
        }
        return *this;
    }
    SectionBytes &
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i, v >>= 8) {
            u8(static_cast<std::uint8_t>(v));
        }
        return *this;
    }
    SectionBytes &
    varint(std::uint64_t v)
    {
        for (; v >= 0x80; v >>= 7) {
            u8(static_cast<std::uint8_t>(v | 0x80));
        }
        return u8(static_cast<std::uint8_t>(v));
    }
    /** Geometry: table size, used and active counts. */
    SectionBytes &
    geometry(std::uint64_t table, std::uint64_t used, std::uint64_t active)
    {
        return u64(table).u64(used).u64(active);
    }
    /** A Hold1 history node at position `from` under `parent`. */
    SectionBytes &
    node(std::uint32_t from, std::uint32_t parent)
    {
        u32(from).u8(static_cast<std::uint8_t>(pf::Activity::Hold1));
        const double duty = 0.5;
        std::uint64_t bits = 0;
        std::memcpy(&bits, &duty, sizeof(bits));
        return u64(bits).u32(parent);
    }
    SectionBytes &
    slot(std::uint64_t gap, std::uint64_t key, std::uint64_t history)
    {
        return varint(gap).u64(key).varint(history);
    }
};

/** Restore `section` as the whole payload of one chunk; returns the
 *  reader's error ("" when the restore and the chunk close succeed). */
std::string
journalRestoreError(const std::vector<std::uint8_t> &section)
{
    pu::SnapshotWriter writer;
    writer.beginChunk(kTag1);
    for (const std::uint8_t b : section) {
        writer.u8(b);
    }
    writer.endChunk();
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(writer.finish());
    if (!made.ok()) {
        return made.error();
    }
    pu::SnapshotReader &reader = made.value();
    pf::ActivityJournal journal;
    if (reader.enterChunk(kTag1) && journal.restoreState(reader)) {
        reader.leaveChunk();
    }
    return reader.error();
}

/** Save a journal alone into one chunk. */
std::vector<std::uint8_t>
journalImage(const pf::ActivityJournal &journal)
{
    pu::SnapshotWriter writer;
    writer.beginChunk(kTag1);
    journal.saveState(writer);
    writer.endChunk();
    return writer.finish();
}

} // namespace

// CRC-valid journal sections built to attack the restore: each must
// come back as a named error — no allocation sized from a bogus
// count, no walk that never reaches the root.
TEST(SnapshotJournal, HostileSectionsAreRejected)
{
    struct Row
    {
        const char *name;
        std::vector<std::uint8_t> section;
        const char *error; // "" = must restore
    };
    std::vector<Row> rows;
    {
        SectionBytes b;
        b.geometry(256, 2, 1).u64(2).node(0, 0).node(1, 1);
        b.u64(2).slot(5, 11, 2).slot(3, 12, 0);
        rows.push_back({"well-formed", b.bytes, ""});
        b.u8(0);
        rows.push_back({"trailing bytes after the slots", b.bytes,
                        "not fully consumed"});
    }
    {
        SectionBytes b;
        b.geometry(std::uint64_t{1} << 61, 0, 0).u64(0).u64(0);
        rows.push_back({"table size 2^61", b.bytes, "geometry"});
    }
    {
        SectionBytes b;
        b.geometry(256, 0, 0).u64(std::uint64_t{1} << 61);
        rows.push_back({"history count 2^61", b.bytes, "history count"});
    }
    {
        SectionBytes b;
        b.geometry(256, 0, 0).u64(1).node(0, 1).u64(0);
        rows.push_back({"self parent", b.bytes, "parent is not below"});
    }
    {
        SectionBytes b;
        b.geometry(256, 0, 0).u64(2).node(0, 2).node(1, 0).u64(0);
        rows.push_back({"forward parent", b.bytes, "parent is not below"});
    }
    {
        SectionBytes b;
        b.geometry(256, 1, 1).u64(1).node(0, 0).u64(1).slot(5, 11, 2);
        rows.push_back({"slot history id >= node count", b.bytes,
                        "history out of range"});
    }
    {
        SectionBytes b;
        b.geometry(256, 2, 2).u64(1).node(0, 0).u64(2);
        b.slot(5, 11, 1).slot(0, 12, 1);
        rows.push_back({"duplicate slot index", b.bytes, "duplicated"});
    }
    {
        SectionBytes b;
        b.geometry(256, 1, 1).u64(1).node(0, 0).u64(1).slot(256, 11, 1);
        rows.push_back({"slot index past the table", b.bytes,
                        "duplicated"});
    }
    {
        SectionBytes b;
        b.geometry(256, 1, 1).u64(1).node(0, 0).u64(1);
        b.varint(5).u64(11).u8(0x81);
        rows.push_back({"unterminated varint", b.bytes, "runs past end"});
    }
    {
        SectionBytes b;
        b.geometry(256, 1, 1).u64(1).node(0, 0).u64(1);
        for (int i = 0; i < 10; ++i) {
            b.u8(0xff);
        }
        b.u8(0x01).u64(11).varint(1);
        rows.push_back({"11-byte varint", b.bytes, "longer than 10 bytes"});
    }
    {
        SectionBytes b;
        b.geometry(256, 1, 1).u64(1).node(0, 0).u64(1);
        for (int i = 0; i < 9; ++i) {
            b.u8(0xff);
        }
        b.u8(0x02).u64(11).varint(1);
        rows.push_back({"varint past 64 bits", b.bytes, "overflows"});
    }
    for (const Row &row : rows) {
        SCOPED_TRACE(row.name);
        const std::string error = journalRestoreError(row.section);
        if (*row.error == '\0') {
            EXPECT_EQ(error, "");
        } else {
            EXPECT_NE(error.find(row.error), std::string::npos) << error;
        }
    }
}

TEST(SnapshotJournal, SectionTakesAtMostTwelveBytesPerKey)
{
    // Twenty tenancies on a small device's key range, each loading
    // 1,200 deferred keys (held and toggling) and then wiping them.
    // Neighbouring placements overlap by half, so keys carry histories
    // of different depths.
    pf::ActivityJournal journal;
    for (std::uint32_t t = 0; t < 20; ++t) {
        const std::uint64_t first = 0x4000 + 600 * std::uint64_t{t};
        for (std::uint64_t key = first; key < first + 1200; ++key) {
            const pf::ElementActivity activity =
                key % 2 == 0
                    ? pf::ElementActivity{pf::Activity::Hold1}
                    : pf::ElementActivity{pf::Activity::Toggle, 0.3};
            ASSERT_TRUE(journal.recordIfChanged(key, activity, 2 * t));
        }
        for (std::uint64_t key = first; key < first + 1200; ++key) {
            ASSERT_TRUE(
                journal.recordIfChanged(key, pf::ElementActivity{},
                                        2 * t + 1));
        }
    }
    const std::size_t keys = journal.activeKeyCount();
    ASSERT_EQ(keys, 12600u);

    const std::vector<std::uint8_t> image = journalImage(journal);
    const ChunkSpan chunk = chunkSpans(image).front();
    const std::size_t section = chunk.end - chunk.begin - 16 - 4;
    EXPECT_LE(section, 12 * keys) << section << " bytes for " << keys
                                  << " keys";

    // The compact form restores every key's full run list.
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(image);
    ASSERT_TRUE(made.ok());
    pu::SnapshotReader &reader = made.value();
    ASSERT_TRUE(reader.enterChunk(kTag1));
    pf::ActivityJournal restored;
    ASSERT_TRUE(restored.restoreState(reader)) << reader.error();
    ASSERT_TRUE(reader.leaveChunk()) << reader.error();
    const std::vector<std::uint64_t> active = journal.activeKeys();
    ASSERT_EQ(restored.activeKeys(), active);
    EXPECT_EQ(restored.minActivePosition(99), journal.minActivePosition(99));
    for (const std::uint64_t key : active) {
        const std::vector<pf::JournalRun> a = journal.consume(key);
        const std::vector<pf::JournalRun> b = restored.consume(key);
        ASSERT_EQ(a.size(), b.size()) << key;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].from, b[i].from);
            EXPECT_EQ(a[i].activity, b[i].activity);
        }
    }
    EXPECT_EQ(journalImage(restored), journalImage(journal));
}

TEST(SnapshotDevice, SpillArenaRestoreThenLateKeyAndWear)
{
    // Five activity changes on the same never-observed key give it a
    // five-node history chain; the checkpoint lands mid-pending.
    pf::Device straight(tinyConfig(99));
    const pf::RouteSpec rx = straight.allocateRoute("x", 500.0);
    std::vector<std::shared_ptr<pf::Design>> designs;
    for (int i = 0; i < 5; ++i) {
        std::string name = "d";
        name += std::to_string(i);
        auto d = std::make_shared<pf::Design>(name);
        if (i % 2 == 0) {
            d->setRouteValue(rx, true);
        } else {
            d->setRouteToggling(rx, 0.2 + 0.1 * i);
        }
        straight.loadDesign(d);
        straight.advanceAt(6.0 + i, 348.0 + i);
        designs.push_back(d);
    }
    ASSERT_GT(straight.journaledKeyCount(), 0u);

    const std::vector<std::uint8_t> image = saveDeviceImage(straight);
    pf::Device restored(tinyConfig(99));
    const pu::Expected<void> result = restoreDeviceImage(image, restored);
    ASSERT_TRUE(result.ok()) << result.error();

    // Immediately after restore: configure a brand-new key alongside
    // the five-run one, then a whole-fabric service-wear sweep — the
    // orderings most likely to trip a mis-restored history link or pin.
    const auto continuation = [&](pf::Device &device) {
        std::vector<double> obs;
        device.loadDesign(designs.back());
        const pf::RouteSpec ry = device.allocateRoute("y", 450.0);
        auto late = std::make_shared<pf::Design>("late");
        late->setRouteValue(rx, true);
        late->setRouteToggling(ry, 0.5);
        device.loadDesign(late);
        device.advanceAt(9.0, 352.0);
        device.applyServiceWear(4.0);
        observeRoute(device, rx, obs);
        observeRoute(device, ry, obs);
        obs.push_back(static_cast<double>(device.journaledKeyCount()));
        obs.push_back(static_cast<double>(device.materializedCount()));
        return obs;
    };
    expectSameSeries(continuation(straight), continuation(restored));
}

TEST(SnapshotDevice, CompactionPinRebaseAfterRestore)
{
    // Eighty distinct-temperature segments with a journal-deferred key
    // pinned at position zero: the restored timeline must compact with
    // the same prefix drop and pin rebase as the straight run once the
    // pin lifts.
    pf::Device straight(tinyConfig(101));
    const pf::RouteSpec rp = straight.allocateRoute("p", 500.0);
    auto dp = std::make_shared<pf::Design>("dp");
    dp->setRouteValue(rp, true);
    straight.loadDesign(dp);
    for (int i = 0; i < 80; ++i) {
        straight.advanceAt(1.0, 340.0 + static_cast<double>(i % 7));
    }
    ASSERT_GT(straight.journaledKeyCount(), 0u);

    const std::vector<std::uint8_t> image = saveDeviceImage(straight);
    pf::Device restored(tinyConfig(101));
    const pu::Expected<void> result = restoreDeviceImage(image, restored);
    ASSERT_TRUE(result.ok()) << result.error();

    const auto continuation = [&](pf::Device &device) {
        std::vector<double> obs;
        device.loadDesign(dp);
        const pf::RouteSpec rq = device.allocateRoute("q", 420.0);
        auto dq = std::make_shared<pf::Design>("dq");
        dq->setRouteValue(rp, false);
        dq->setRouteToggling(rq, 0.6);
        device.loadDesign(dq);
        device.advanceAt(30.0, 345.0);
        observeRoute(device, rp, obs); // materialise: replay + unpin
        observeRoute(device, rq, obs);
        device.advanceAt(40.0, 346.0);
        device.loadDesign(dp); // flip flush → compaction opportunity
        device.advanceAt(10.0, 347.0);
        observeRoute(device, rp, obs);
        observeRoute(device, rq, obs);
        obs.push_back(static_cast<double>(device.timelineSegments()));
        obs.push_back(static_cast<double>(device.materializedCount()));
        return obs;
    };
    expectSameSeries(continuation(straight), continuation(restored));
}

// ---------------------------------------------- platform round trips

namespace {

pc::PlatformConfig
smallRegion(std::size_t fleet, std::uint64_t seed)
{
    pc::PlatformConfig config = pentimento::core::awsF1Region(seed);
    config.fleet_size = fleet;
    config.device_template.tiles_x = 32;
    config.device_template.tiles_y = 32;
    return config;
}

std::vector<std::uint8_t>
savePlatformImage(const pc::CloudPlatform &platform)
{
    pu::SnapshotWriter writer;
    platform.saveState(writer);
    return writer.finish();
}

pu::Expected<void>
restorePlatformImage(std::vector<std::uint8_t> image,
                     pc::CloudPlatform &platform,
                     std::vector<std::string> *boards_with_design = nullptr)
{
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(image));
    if (!made.ok()) {
        return pu::unexpected(made.error());
    }
    pu::SnapshotReader &reader = made.value();
    const pu::Expected<void> restored =
        platform.restoreState(reader, boards_with_design);
    if (!restored.ok()) {
        return restored;
    }
    if (!reader.expectEnd()) {
        return reader.status();
    }
    return {};
}

} // namespace

TEST(SnapshotPlatform, MidTenancyRoundTripIsBitIdentical)
{
    const pc::PlatformConfig config = smallRegion(3, 21);
    pc::CloudPlatform straight(config);
    const std::optional<std::string> board = straight.rent();
    ASSERT_TRUE(board.has_value());
    pf::Device &device = straight.instance(*board).device();
    const pf::RouteSpec r0 = device.allocateRoute("r0", 800.0);
    const pf::RouteSpec r1 = device.allocateRoute("r1", 650.0);
    auto design = std::make_shared<pf::Design>("tenant");
    design->setRouteValue(r0, true);
    design->setRouteToggling(r1, 0.4);
    design->setPowerW(20.0);
    ASSERT_TRUE(straight.loadDesign(*board, design).empty());
    straight.advanceHours(48.0); // idle boards defer, tenant walks

    const std::vector<std::uint8_t> image = savePlatformImage(straight);

    pc::CloudPlatform resumed(config);
    std::vector<std::string> with_design;
    const pu::Expected<void> result =
        restorePlatformImage(image, resumed, &with_design);
    ASSERT_TRUE(result.ok()) << result.error();
    ASSERT_EQ(with_design.size(), 1u);
    EXPECT_EQ(with_design[0], *board);
    EXPECT_EQ(resumed.nowHours(), straight.nowHours());

    const auto continuation = [&](pc::CloudPlatform &platform) {
        std::vector<double> doubles;
        std::vector<std::string> strings;
        EXPECT_TRUE(platform.loadDesign(*board, design).empty());
        platform.advanceHours(25.0);
        doubles.push_back(platform.nowHours());
        for (const std::string &id : platform.allInstanceIds()) {
            pc::FpgaInstance &inst = platform.instance(id);
            doubles.push_back(inst.dieTempK());
            doubles.push_back(inst.rng().uniform());
        }
        pf::Device &dev = platform.instance(*board).device();
        pf::Route a(dev, r0);
        pf::Route b(dev, r1);
        const double die = platform.instance(*board).dieTempK();
        doubles.push_back(a.delayPs(pp::Transition::Rising, die));
        doubles.push_back(a.delayPs(pp::Transition::Falling, die));
        doubles.push_back(b.delayPs(pp::Transition::Rising, die));
        doubles.push_back(b.delayPs(pp::Transition::Falling, die));
        platform.advanceHours(10.0);
        for (const std::string &id : platform.allInstanceIds()) {
            doubles.push_back(platform.instance(id).dieTempK());
        }
        const std::optional<std::string> next = platform.rent();
        strings.push_back(next.value_or("<none>"));
        return std::make_pair(doubles, strings);
    };
    const auto obs_straight = continuation(straight);
    const auto obs_resumed = continuation(resumed);
    expectSameSeries(obs_straight.first, obs_resumed.first);
    EXPECT_EQ(obs_straight.second, obs_resumed.second);
}

TEST(SnapshotPlatform, UnflushedDeferredIdleRoundTrips)
{
    const pc::PlatformConfig config = smallRegion(3, 22);
    pc::CloudPlatform straight(config);
    straight.advanceHours(500.0); // every board defers its walk

    const std::vector<std::uint8_t> image = savePlatformImage(straight);
    // Saving must not flush the deferred backlog.
    for (const std::string &id : straight.allInstanceIds()) {
        EXPECT_EQ(straight.instance(id).deferredIdleHours(), 500.0);
    }

    pc::CloudPlatform resumed(config);
    const pu::Expected<void> result = restorePlatformImage(image, resumed);
    ASSERT_TRUE(result.ok()) << result.error();
    for (const std::string &id : resumed.allInstanceIds()) {
        EXPECT_EQ(resumed.instance(id).deferredIdleHours(), 500.0);
    }

    const auto continuation = [](pc::CloudPlatform &platform) {
        std::vector<double> obs;
        for (const std::string &id : platform.allInstanceIds()) {
            obs.push_back(platform.instance(id).dieTempK()); // flushes
        }
        platform.advanceHours(100.0);
        for (const std::string &id : platform.allInstanceIds()) {
            obs.push_back(platform.instance(id).dieTempK());
            obs.push_back(platform.instance(id).rng().uniform());
        }
        return obs;
    };
    expectSameSeries(continuation(straight), continuation(resumed));
}

TEST(SnapshotPlatform, SchedulerRngStreamContinues)
{
    pc::PlatformConfig config = smallRegion(4, 23);
    config.policy = pc::AllocationPolicy::Random;
    pc::CloudPlatform straight(config);
    const std::optional<std::string> first = straight.rent();
    ASSERT_TRUE(first.has_value());
    straight.advanceHours(10.0);
    straight.release(*first);

    const std::vector<std::uint8_t> image = savePlatformImage(straight);
    pc::CloudPlatform resumed(config);
    const pu::Expected<void> result = restorePlatformImage(image, resumed);
    ASSERT_TRUE(result.ok()) << result.error();

    // The Random policy draws from the scheduler stream on every rent:
    // the restored platform must pick the exact same board sequence.
    const auto drain = [](pc::CloudPlatform &platform) {
        std::vector<std::string> order;
        while (const std::optional<std::string> id = platform.rent()) {
            order.push_back(*id);
        }
        return order;
    };
    EXPECT_EQ(drain(straight), drain(resumed));
}

TEST(SnapshotPlatform, ConfigSkewAndCorruptionRejectedGracefully)
{
    pc::CloudPlatform source(smallRegion(3, 31));
    source.advanceHours(24.0);
    const std::vector<std::uint8_t> image = savePlatformImage(source);

    {
        pc::CloudPlatform other(smallRegion(3, 32));
        const pu::Expected<void> result =
            restorePlatformImage(image, other);
        ASSERT_FALSE(result.ok());
        EXPECT_NE(result.error().find("fingerprint"), std::string::npos);
    }
    {
        std::vector<std::uint8_t> corrupt = image;
        corrupt[corrupt.size() / 2] ^= 0x10;
        pc::CloudPlatform target(smallRegion(3, 31));
        EXPECT_FALSE(restorePlatformImage(std::move(corrupt), target).ok());
    }
    {
        std::vector<std::uint8_t> cut(
            image.begin(),
            image.begin() +
                static_cast<std::ptrdiff_t>(image.size() * 2 / 3));
        pc::CloudPlatform target(smallRegion(3, 31));
        EXPECT_FALSE(restorePlatformImage(std::move(cut), target).ok());
    }
}

// ------------------------------------------- checkpoint image identity

namespace {

struct ImageStamp
{
    std::uint64_t size;
    std::uint64_t fnv1a;
};

/**
 * Size and 64-bit FNV-1a digest of the checkpoint file a small fleet
 * scan leaves when it halts at day 14 (periodic checkpoints every 7
 * days). Not the file's CRC32C: every chunk ends in its own CRC32C,
 * and a CRC over a block followed by that block's CRC is the same for
 * any content of the block, so a whole-file CRC32C would pin only the
 * chunk lengths.
 */
ImageStamp
haltedCheckpointStamp(const std::string &leaf, bool stress_and_bram)
{
    pu::setVerbosity(pu::Verbosity::Silent);
    const std::string path = tempPath(leaf);
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());

    pentimento::serve::FleetScanConfig config;
    config.fleet = 6;
    config.days = 30;
    config.checkpoint_every_days = 7;
    config.halt_at_day = 14;
    config.checkpoint_path = path;
    config.journal_stress = stress_and_bram;
    config.bram_channel = stress_and_bram;
    if (stress_and_bram) {
        config.bram_scrub = pc::BramScrubPolicy::ZeroOnRelease;
    }
    const pu::Expected<pentimento::serve::FleetScanResult> halted =
        pentimento::serve::runFleetScan(config);
    EXPECT_TRUE(halted.ok()) << halted.error();

    ImageStamp stamp{0, 0xcbf29ce484222325ULL};
    if (std::FILE *fp = std::fopen(path.c_str(), "rb")) {
        int c = 0;
        while ((c = std::fgetc(fp)) != EOF) {
            stamp.fnv1a = (stamp.fnv1a ^ static_cast<std::uint64_t>(c)) *
                          0x100000001b3ULL;
            ++stamp.size;
        }
        std::fclose(fp);
    }
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    return stamp;
}

} // namespace

// The serializers write records straight into a pre-sized buffer;
// these stamps lock the format v3 checkpoint bytes themselves. A
// serializer change that moves a byte must bump kSnapshotVersion and
// re-pin them.
TEST(SnapshotImage, HaltedFleetCheckpointIsByteIdentical)
{
    const ImageStamp stamp =
        haltedCheckpointStamp("snap_pin_plain.ckpt", false);
    EXPECT_EQ(stamp.size, 93530u);
    EXPECT_EQ(stamp.fnv1a, 0x60cbd0f150bb3929ULL);
}

TEST(SnapshotImage, HaltedStressBramCheckpointIsByteIdentical)
{
    const ImageStamp stamp =
        haltedCheckpointStamp("snap_pin_stress.ckpt", true);
    EXPECT_EQ(stamp.size, 95148u);
    EXPECT_EQ(stamp.fnv1a, 0xa96893ec441c957aULL);
}
