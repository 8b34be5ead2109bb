/**
 * @file
 * Versioned, checksummed binary snapshot format for board state.
 *
 * Layout: an 16-byte header (magic "PNTMSNP\x01", format version,
 * reserved flags) followed by a flat sequence of chunks. Each chunk is
 *
 *     u32 tag | u32 seq | u64 payload_len | payload | u32 crc32c
 *
 * where the CRC covers tag+seq+len+payload, and seq is the 0-based
 * ordinal of the chunk in the file — a duplicated, dropped, or
 * reordered chunk breaks the sequence even when its own CRC is intact.
 * The file ends with a mandatory "END!" chunk whose payload is the
 * count of preceding chunks; trailing garbage after it is rejected.
 *
 * Writing is atomic: the whole image is built in memory, written to
 * `<path>.tmp`, fsync'd, then renamed over `<path>`. commitRotating()
 * additionally keeps the previous good generation at `<path>.prev`, so
 * a crash at any instant leaves at least one loadable checkpoint.
 * A commit runs in two stages: stageRotating() rotates and writes
 * `.tmp`, and StagedSnapshot::publish() fsyncs and renames it, so a
 * caller can publish on another thread once the image is staged.
 * Choosing a generation is the caller's job: open() checks only the
 * header, each chunk's CRC is checked as it is entered, and a restore
 * that fails part-way retries `<path>.prev` (campaign resume does, and
 * also falls back there on config skew).
 *
 * Reading is abort-free: SnapshotReader carries a sticky error (like
 * std::istream) — the first malformed field poisons the reader, every
 * later read returns zero values, and the caller checks ok() once at
 * the end. Top-level entry points return util::Expected rather than
 * calling util::fatal, so a corrupt checkpoint is a recoverable event.
 */

#ifndef PENTIMENTO_UTIL_SNAPSHOT_HPP
#define PENTIMENTO_UTIL_SNAPSHOT_HPP

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/expected.hpp"
#include "util/logging.hpp"

namespace pentimento::util {

/** Format version written to and required from every snapshot. */
inline constexpr std::uint32_t kSnapshotVersion = 3;

/** Pack a 4-char chunk tag ("BRD!") into its on-disk u32. */
constexpr std::uint32_t
snapshotTag(char a, char b, char c, char d)
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/**
 * CRC32C (Castagnoli) of a byte range, chainable via seed:
 * crc32c(b, n, crc32c(a, m)) is the CRC of a followed by b. Runs the
 * SSE4.2 crc32 instruction when the CPU has it (checked once at run
 * time) and the portable slicing-by-8 code otherwise; both compute the
 * same function.
 */
std::uint32_t crc32c(const void *data, std::size_t len,
                     std::uint32_t seed = 0);

/** The portable slicing-by-8 CRC32C, whatever the CPU supports. */
std::uint32_t crc32cPortable(const void *data, std::size_t len,
                             std::uint32_t seed = 0);

/**
 * Write cursor over bytes already appended to a SnapshotWriter (see
 * SnapshotWriter::span). Each field is one fixed-size store, in the
 * same byte layout the writer's primitives produce, so a serializer
 * can emit whole fixed-layout records without a vector append per
 * field. A field that would run past the appended bytes panics before
 * it is stored.
 */
class SnapshotSpan
{
  public:
    void u8(std::uint8_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }
    /** Bit-cast like SnapshotWriter::f64. */
    void f64(double v) { put(v); }

    /**
     * Unsigned LEB128: seven bits per byte, low group first, the high
     * bit set on every byte but the last (1 to 10 bytes). Read back by
     * SnapshotReader::varint.
     */
    void
    varint(std::uint64_t v)
    {
        for (; v >= 0x80; v >>= 7) {
            put(static_cast<std::uint8_t>(v | 0x80));
        }
        put(static_cast<std::uint8_t>(v));
    }

  private:
    friend class SnapshotWriter;

    SnapshotSpan(std::uint8_t *at, std::size_t len)
        : at_(at), end_(at + len)
    {
    }

    template <typename T>
    void
    put(T v)
    {
        if (static_cast<std::size_t>(end_ - at_) < sizeof(v)) {
            panic("SnapshotSpan: record overruns its reserved bytes");
        }
        std::memcpy(at_, &v, sizeof(v));
        at_ += sizeof(v);
    }

    std::uint8_t *at_;
    std::uint8_t *end_;
};

/**
 * A commit whose image is written and flushed to `<path>.tmp` but is
 * neither durable nor published (SnapshotWriter::stageRotating).
 * publish() makes it both. Destroying a staged commit that was never
 * published closes and removes `.tmp`, leaving the published
 * generations as the stage left them. Move-only; publish() may run on
 * a thread other than the one that staged it.
 */
class StagedSnapshot
{
  public:
    StagedSnapshot(StagedSnapshot &&other) noexcept;
    StagedSnapshot &operator=(StagedSnapshot &&) = delete;
    StagedSnapshot(const StagedSnapshot &) = delete;
    StagedSnapshot &operator=(const StagedSnapshot &) = delete;
    ~StagedSnapshot();

    /**
     * fsync and close `<path>.tmp`, then rename it over `<path>`. Any
     * OS-level failure removes `.tmp` and is returned, not thrown.
     * Call at most once.
     */
    Expected<void> publish();

  private:
    friend class SnapshotWriter;

    StagedSnapshot(std::FILE *file, std::string path, bool torn)
        : file_(file), path_(std::move(path)), torn_(torn)
    {
    }

    std::FILE *file_ = nullptr; // open `.tmp`; null once published
    std::string path_;
    bool torn_ = false; // injected torn rename: report after publishing
};

/**
 * Builds a snapshot image in memory and commits it atomically.
 *
 * Usage: beginChunk(tag), write primitives, endChunk(), repeat; then
 * either commit()/commitRotating() to persist, or finish() to get the
 * complete image for in-memory round trips (tests, microbenches).
 *
 * Serializers write their fixed-layout records through span(), so a
 * multi-megabyte image is not appended to one field at a time.
 */
class SnapshotWriter
{
  public:
    SnapshotWriter();

    /** Open a chunk; primitives written next land in its payload. */
    void beginChunk(std::uint32_t tag);
    /** Close the open chunk: patch its length, append its CRC. */
    void endChunk();

    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /** Doubles are bit-cast, never formatted: restore is bit-exact. */
    void f64(double v);
    /** Length-prefixed byte string. */
    void str(std::string_view v);

    /**
     * Make room for `bytes` more bytes. Missing capacity is added
     * exactly, not doubled, so a caller that knows roughly how big the
     * image will be allocates it once.
     */
    void reserve(std::size_t bytes);

    /**
     * Append `len` bytes and return a cursor the caller fills with
     * exactly `len` bytes of fields — or with at most `len` when the
     * record sizes are only bounded (varints), followed by trim(). The
     * cursor is invalidated by the next write to this writer.
     */
    SnapshotSpan span(std::size_t len);

    /** Drop the bytes the last span() left unfilled. */
    void trim(const SnapshotSpan &span);

    /**
     * Append the terminal END chunk and return the finished image.
     * The writer is spent afterwards.
     */
    const std::vector<std::uint8_t> &finish();

    /**
     * finish() + atomic persist: write `<path>.tmp`, flush + fsync,
     * rename over `<path>`. Any OS-level failure is returned, not
     * thrown.
     */
    Expected<void> commit(const std::string &path);

    /**
     * Like commit(), but first rotates an existing `<path>` to
     * `<path>.prev` so the previous good generation survives a corrupt
     * or torn write of the new one.
     */
    Expected<void> commitRotating(const std::string &path);

    /**
     * The first stage of commitRotating(): finish(), rotate `<path>`
     * to `<path>.prev`, then write and flush `<path>.tmp`. The image
     * is not needed after this returns. A failure removes `.tmp`.
     */
    Expected<StagedSnapshot> stageRotating(const std::string &path);

  private:
    /** finish(), then write and flush `<path>.tmp`. */
    Expected<StagedSnapshot> stage(const std::string &path);

    std::vector<std::uint8_t> out_;
    std::size_t chunk_start_ = 0; // offset of open chunk's tag; 0 = closed
    std::uint32_t chunk_count_ = 0;
    bool finished_ = false;
};

/**
 * Parses a snapshot image with sticky-error semantics.
 *
 * enterChunk(tag) validates the next chunk's header, CRC, and
 * sequence number; primitives then consume its payload; leaveChunk()
 * requires the payload to be fully consumed (a length drift inside a
 * chunk is structural corruption, not slack). After any failure all
 * reads return zeroes and fail() records only the first error.
 */
class SnapshotReader
{
  public:
    /** Wrap an in-memory image (no validation beyond the header). */
    static Expected<SnapshotReader> fromBuffer(
        std::vector<std::uint8_t> image);

    /** Load `path` fully into memory and validate the header. */
    static Expected<SnapshotReader> open(const std::string &path);

    /** Enter the next chunk, which must carry `tag`. */
    bool enterChunk(std::uint32_t tag);
    /** Leave the current chunk; fails unless fully consumed. */
    bool leaveChunk();
    /** Validate the terminal END chunk and absence of trailing bytes. */
    bool expectEnd();

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();
    /** A SnapshotSpan::varint. An encoding that runs past the chunk
     *  payload or past 10 bytes, or overflows 64 bits, poisons the
     *  reader. */
    std::uint64_t varint();

    /** Unread payload bytes of the current chunk (0 outside one).
     *  Bounds a record count before anything is sized from it. */
    std::size_t
    remaining() const
    {
        return in_chunk_ && ok() ? payload_end_ - cursor_ : 0;
    }

    /** Size of the whole image, file header included. */
    std::size_t imageBytes() const { return image_.size(); }

    /** Record a (first) error; subsequent reads return zeroes. */
    void fail(std::string message);
    /** True until the first structural or checksum error. */
    bool ok() const { return error_.empty(); }
    /** First recorded error message ("" when ok). */
    const std::string &error() const { return error_; }

    /** Convert reader state into an Expected for top-level callers. */
    Expected<void>
    status() const
    {
        if (!ok()) {
            return unexpected(error_);
        }
        return {};
    }

  private:
    SnapshotReader() = default;

    bool take(void *dst, std::size_t len);

    std::vector<std::uint8_t> image_;
    std::size_t cursor_ = 0;      // next unread byte in image_
    std::size_t payload_end_ = 0; // end of current chunk payload; 0 = none
    std::size_t chunk_end_ = 0;   // end incl. trailing CRC
    std::uint32_t next_seq_ = 0;
    bool in_chunk_ = false;
    std::string error_;
};

} // namespace pentimento::util

#endif // PENTIMENTO_UTIL_SNAPSHOT_HPP
