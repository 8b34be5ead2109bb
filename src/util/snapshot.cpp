#include "util/snapshot.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <sys/stat.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

#include "util/fault.hpp"
#include "util/logging.hpp"

namespace pentimento::util {

namespace {

/** 8-byte file magic; the trailing byte doubles as a format epoch. */
constexpr unsigned char kMagic[8] = {'P', 'N', 'T', 'M',
                                     'S', 'N', 'P', '\x01'};
constexpr std::size_t kHeaderBytes = 16;
/** Fixed chunk header: tag u32 + seq u32 + payload_len u64. */
constexpr std::size_t kChunkHeaderBytes = 16;
constexpr std::uint32_t kEndTag = snapshotTag('E', 'N', 'D', '!');

constexpr std::uint32_t kCastagnoliReflected = 0x82f63b78u;

/**
 * Slicing-by-8 tables for the reflected Castagnoli polynomial. Row 0
 * is the classic bytewise table; row k advances a byte through k more
 * zero bytes, so eight table lookups retire one 8-byte word.
 */
struct Crc32cTables
{
    std::uint32_t rows[8][256] = {};

    constexpr Crc32cTables()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit) {
                crc = (crc & 1u) != 0 ? (crc >> 1) ^ kCastagnoliReflected
                                      : crc >> 1;
            }
            rows[0][i] = crc;
        }
        for (std::uint32_t i = 0; i < 256; ++i) {
            for (int k = 1; k < 8; ++k) {
                const std::uint32_t prev = rows[k - 1][i];
                rows[k][i] = (prev >> 8) ^ rows[0][prev & 0xffu];
            }
        }
    }
};

constexpr Crc32cTables kCrcTables;

/** Little-endian 32-bit load, independent of host byte order. */
std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

/** Raw (un-inverted) portable update: slicing-by-8, bytewise tail. */
std::uint32_t
crc32cSliced(const unsigned char *p, std::size_t len, std::uint32_t crc)
{
    const auto &t = kCrcTables.rows;
    for (; len >= 8; p += 8, len -= 8) {
        const std::uint32_t lo = loadLe32(p) ^ crc;
        const std::uint32_t hi = loadLe32(p + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len) {
        crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
    }
    return crc;
}

#if defined(__x86_64__)

/**
 * Raw update with the SSE4.2 crc32 instruction (same polynomial). Only
 * reached after a runtime CPU check, so the rest of the library keeps
 * the baseline ISA.
 */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(const unsigned char *p, std::size_t len, std::uint32_t crc)
{
    for (; len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0;
         ++p, --len) {
        crc = _mm_crc32_u8(crc, *p);
    }
    std::uint64_t wide = crc;
    for (; len >= 8; p += 8, len -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        wide = _mm_crc32_u64(wide, word);
    }
    crc = static_cast<std::uint32_t>(wide);
    for (; len > 0; ++p, --len) {
        crc = _mm_crc32_u8(crc, *p);
    }
    return crc;
}

#endif

using Crc32cUpdate = std::uint32_t (*)(const unsigned char *, std::size_t,
                                       std::uint32_t);

/** The fastest raw update this CPU runs, chosen on first use. */
Crc32cUpdate
crc32cUpdate()
{
    // A direct CPUID query rather than __builtin_cpu_supports: the
    // latter links libgcc's CPU-model constructor, which then runs
    // its CPUID sweep at the start of every process.
    static const Crc32cUpdate update = [] {
#if defined(__x86_64__)
        unsigned eax = 0;
        unsigned ebx = 0;
        unsigned ecx = 0;
        unsigned edx = 0;
        if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
            (ecx & bit_SSE4_2) != 0) {
            return crc32cSse42;
        }
#endif
        return crc32cSliced;
    }();
    return update;
}

std::string
errnoMessage(const std::string &what, const std::string &path)
{
    return what + " " + path + ": " + std::strerror(errno);
}

} // namespace

std::uint32_t
crc32c(const void *data, std::size_t len, std::uint32_t seed)
{
    return ~crc32cUpdate()(static_cast<const unsigned char *>(data), len,
                           ~seed);
}

std::uint32_t
crc32cPortable(const void *data, std::size_t len, std::uint32_t seed)
{
    return ~crc32cSliced(static_cast<const unsigned char *>(data), len,
                         ~seed);
}

SnapshotWriter::SnapshotWriter()
{
    // Magic, version, flags, assembled in a fixed array and copied in
    // one step: GCC 12 reports a false -Wstringop-overflow for
    // piecewise inserts into the empty vector.
    const std::uint32_t version = kSnapshotVersion;
    const std::uint32_t flags = 0;
    std::uint8_t header[kHeaderBytes];
    std::memcpy(header, kMagic, sizeof(kMagic));
    std::memcpy(header + sizeof(kMagic), &version, 4);
    std::memcpy(header + sizeof(kMagic) + 4, &flags, 4);
    out_.assign(header, header + kHeaderBytes);
}

void
SnapshotWriter::beginChunk(std::uint32_t tag)
{
    if (chunk_start_ != 0 || finished_) {
        panic("SnapshotWriter::beginChunk: chunk already open or finished");
    }
    chunk_start_ = out_.size();
    u32(tag);
    u32(chunk_count_);
    u64(0); // payload length, patched by endChunk()
}

void
SnapshotWriter::endChunk()
{
    if (chunk_start_ == 0) {
        panic("SnapshotWriter::endChunk: no open chunk");
    }
    const std::uint64_t payload_len =
        out_.size() - chunk_start_ - kChunkHeaderBytes;
    std::memcpy(out_.data() + chunk_start_ + 8, &payload_len,
                sizeof(payload_len));
    const std::uint32_t crc =
        crc32c(out_.data() + chunk_start_, out_.size() - chunk_start_);
    chunk_start_ = 0;
    ++chunk_count_;
    u32(crc);
}

void
SnapshotWriter::u8(std::uint8_t v)
{
    out_.push_back(v);
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(&v);
    out_.insert(out_.end(), bytes, bytes + sizeof(v));
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(&v);
    out_.insert(out_.end(), bytes, bytes + sizeof(v));
}

void
SnapshotWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
SnapshotWriter::str(std::string_view v)
{
    u64(v.size());
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(v.data());
    out_.insert(out_.end(), bytes, bytes + v.size());
}

void
SnapshotWriter::reserve(std::size_t bytes)
{
    if (out_.capacity() - out_.size() < bytes) {
        out_.reserve(out_.size() + bytes);
    }
}

SnapshotSpan
SnapshotWriter::span(std::size_t len)
{
    const std::size_t at = out_.size();
    out_.resize(at + len);
    return SnapshotSpan(out_.data() + at, len);
}

void
SnapshotWriter::trim(const SnapshotSpan &span)
{
    if (span.end_ != out_.data() + out_.size()) {
        panic("SnapshotWriter::trim: span is not the image tail");
    }
    out_.resize(static_cast<std::size_t>(span.at_ - out_.data()));
}

const std::vector<std::uint8_t> &
SnapshotWriter::finish()
{
    if (chunk_start_ != 0) {
        panic("SnapshotWriter::finish: chunk still open");
    }
    if (!finished_) {
        const std::uint32_t preceding = chunk_count_;
        beginChunk(kEndTag);
        u64(preceding);
        endChunk();
        finished_ = true;
    }
    return out_;
}

StagedSnapshot::StagedSnapshot(StagedSnapshot &&other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      path_(std::move(other.path_)), torn_(other.torn_)
{
}

StagedSnapshot::~StagedSnapshot()
{
    // Never published: drop the staged image.
    if (file_ != nullptr) {
        std::fclose(file_);
        std::remove((path_ + ".tmp").c_str());
    }
}

Expected<void>
StagedSnapshot::publish()
{
    if (file_ == nullptr) {
        panic("StagedSnapshot::publish: nothing staged");
    }
    const std::string tmp = path_ + ".tmp";
    std::FILE *fp = std::exchange(file_, nullptr);
    if (fsync(fileno(fp)) != 0) {
        const Expected<void> err =
            unexpected(errnoMessage("snapshot: fsync failed for", tmp));
        std::fclose(fp);
        std::remove(tmp.c_str());
        return err;
    }
    if (std::fclose(fp) != 0) {
        std::remove(tmp.c_str());
        return unexpected(errnoMessage("snapshot: close failed for", tmp));
    }
    if (fault::shouldFail("snapshot.commit.rename")) {
        std::remove(tmp.c_str());
        return unexpected("snapshot: rename failed for " + tmp +
                          " (injected)");
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        const Expected<void> err =
            unexpected(errnoMessage("snapshot: rename failed for", tmp));
        std::remove(tmp.c_str());
        return err;
    }
    if (torn_) {
        return unexpected("snapshot: torn rename for " + path_ +
                          " (injected; destination truncated)");
    }
    return {};
}

Expected<StagedSnapshot>
SnapshotWriter::stage(const std::string &path)
{
    const std::vector<std::uint8_t> &image = finish();
    const std::string tmp = path + ".tmp";
    if (fault::shouldFail("snapshot.commit.enospc")) {
        return unexpected("snapshot: cannot create " + tmp +
                          ": No space left on device (injected)");
    }
    std::FILE *fp = std::fopen(tmp.c_str(), "wb");
    if (fp == nullptr) {
        return unexpected(errnoMessage("snapshot: cannot create", tmp));
    }
    // A torn rename writes a truncated image but then "succeeds" all
    // the way through rename, leaving a corrupt destination — the
    // failure mode a crash between fwrite and fsync would produce on
    // a journal-less filesystem. The .prev generation must rescue it.
    const bool torn = fault::shouldFail("snapshot.commit.torn_rename");
    const bool short_write =
        !torn && fault::shouldFail("snapshot.commit.short_write");
    const std::size_t intend =
        (torn || short_write) ? image.size() / 2 : image.size();
    const std::size_t written =
        intend == 0 ? 0 : std::fwrite(image.data(), 1, intend, fp);
    if (short_write || written != intend || std::fflush(fp) != 0) {
        const std::string err =
            errnoMessage("snapshot: short write to", tmp);
        std::fclose(fp);
        std::remove(tmp.c_str());
        return unexpected(err);
    }
    return StagedSnapshot(fp, path, torn);
}

Expected<StagedSnapshot>
SnapshotWriter::stageRotating(const std::string &path)
{
    // Keep the previous good generation: path -> path.prev, then the
    // fresh image lands on path. A crash between the two renames
    // leaves .prev loadable; a torn .tmp write never touches either.
    const std::string prev = path + ".prev";
    if (std::rename(path.c_str(), prev.c_str()) != 0 && errno != ENOENT) {
        return unexpected(errnoMessage("snapshot: rotate failed for", path));
    }
    return stage(path);
}

Expected<void>
SnapshotWriter::commit(const std::string &path)
{
    Expected<StagedSnapshot> staged = stage(path);
    if (!staged.ok()) {
        return unexpected(staged.error());
    }
    return staged.value().publish();
}

Expected<void>
SnapshotWriter::commitRotating(const std::string &path)
{
    Expected<StagedSnapshot> staged = stageRotating(path);
    if (!staged.ok()) {
        return unexpected(staged.error());
    }
    return staged.value().publish();
}

Expected<SnapshotReader>
SnapshotReader::fromBuffer(std::vector<std::uint8_t> image)
{
    if (image.size() < kHeaderBytes) {
        return unexpected("snapshot: file shorter than header");
    }
    if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
        return unexpected("snapshot: bad magic (not a snapshot file)");
    }
    std::uint32_t version = 0;
    std::memcpy(&version, image.data() + 8, sizeof(version));
    if (version != kSnapshotVersion) {
        return unexpected("snapshot: unsupported format version " +
                          std::to_string(version) + " (expected " +
                          std::to_string(kSnapshotVersion) + ")");
    }
    std::uint32_t flags = 0;
    std::memcpy(&flags, image.data() + 12, sizeof(flags));
    if (flags != 0) {
        return unexpected("snapshot: unsupported header flags");
    }
    SnapshotReader reader;
    reader.image_ = std::move(image);
    reader.cursor_ = kHeaderBytes;
    return reader;
}

Expected<SnapshotReader>
SnapshotReader::open(const std::string &path)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr) {
        return unexpected(errnoMessage("snapshot: cannot open", path));
    }
    // Size the image from the file length and read it in one call.
    // Commits publish by rename, so a snapshot never grows while open.
    std::vector<std::uint8_t> image;
    struct stat st;
    if (fstat(fileno(fp), &st) == 0 && st.st_size > 0) {
        image.resize(static_cast<std::size_t>(st.st_size));
    }
    const std::size_t got =
        image.empty() ? 0 : std::fread(image.data(), 1, image.size(), fp);
    image.resize(got);
    const bool read_error = std::ferror(fp) != 0;
    std::fclose(fp);
    if (read_error) {
        return unexpected(errnoMessage("snapshot: read failed for", path));
    }
    if (image.size() > kHeaderBytes &&
        fault::shouldFail("snapshot.load.corrupt_crc")) {
        // Media bit-rot: flip one mid-file byte so some chunk's CRC
        // check must reject the image.
        image[kHeaderBytes + (image.size() - kHeaderBytes) / 2] ^= 0x40u;
    }
    return fromBuffer(std::move(image));
}

bool
SnapshotReader::enterChunk(std::uint32_t tag)
{
    if (!ok()) {
        return false;
    }
    if (in_chunk_) {
        panic("SnapshotReader::enterChunk: chunk already open");
    }
    if (image_.size() - cursor_ < kChunkHeaderBytes + 4) {
        fail("snapshot: truncated at chunk header");
        return false;
    }
    std::uint32_t got_tag = 0;
    std::uint32_t got_seq = 0;
    std::uint64_t payload_len = 0;
    std::memcpy(&got_tag, image_.data() + cursor_, 4);
    std::memcpy(&got_seq, image_.data() + cursor_ + 4, 4);
    std::memcpy(&payload_len, image_.data() + cursor_ + 8, 8);
    if (payload_len > image_.size() - cursor_ - kChunkHeaderBytes - 4) {
        fail("snapshot: chunk payload overruns file");
        return false;
    }
    const std::size_t payload_begin = cursor_ + kChunkHeaderBytes;
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, image_.data() + payload_begin + payload_len, 4);
    const std::uint32_t computed_crc =
        crc32c(image_.data() + cursor_, kChunkHeaderBytes + payload_len);
    if (stored_crc != computed_crc) {
        fail("snapshot: CRC mismatch in chunk " + std::to_string(got_seq));
        return false;
    }
    if (got_seq != next_seq_) {
        fail("snapshot: chunk sequence break (expected " +
             std::to_string(next_seq_) + ", found " +
             std::to_string(got_seq) + " — duplicated or missing chunk)");
        return false;
    }
    if (got_tag != tag) {
        fail("snapshot: unexpected chunk tag in chunk " +
             std::to_string(got_seq));
        return false;
    }
    cursor_ = payload_begin;
    payload_end_ = payload_begin + payload_len;
    chunk_end_ = payload_end_ + 4;
    in_chunk_ = true;
    ++next_seq_;
    return true;
}

bool
SnapshotReader::leaveChunk()
{
    if (!ok()) {
        return false;
    }
    if (!in_chunk_) {
        panic("SnapshotReader::leaveChunk: no open chunk");
    }
    if (cursor_ != payload_end_) {
        fail("snapshot: chunk payload not fully consumed (layout drift)");
        return false;
    }
    cursor_ = chunk_end_;
    in_chunk_ = false;
    payload_end_ = 0;
    chunk_end_ = 0;
    return true;
}

bool
SnapshotReader::expectEnd()
{
    if (!enterChunk(kEndTag)) {
        return false;
    }
    const std::uint64_t preceding = u64();
    if (!leaveChunk()) {
        return false;
    }
    if (ok() && preceding + 1 != next_seq_) {
        fail("snapshot: END chunk count mismatch");
        return false;
    }
    if (ok() && cursor_ != image_.size()) {
        fail("snapshot: trailing bytes after END chunk");
        return false;
    }
    return ok();
}

bool
SnapshotReader::take(void *dst, std::size_t len)
{
    if (!ok()) {
        std::memset(dst, 0, len);
        return false;
    }
    if (!in_chunk_ || payload_end_ - cursor_ < len) {
        std::memset(dst, 0, len);
        fail("snapshot: field read past end of chunk payload");
        return false;
    }
    std::memcpy(dst, image_.data() + cursor_, len);
    cursor_ += len;
    return true;
}

std::uint8_t
SnapshotReader::u8()
{
    std::uint8_t v = 0;
    take(&v, sizeof(v));
    return v;
}

std::uint32_t
SnapshotReader::u32()
{
    std::uint32_t v = 0;
    take(&v, sizeof(v));
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    std::uint64_t v = 0;
    take(&v, sizeof(v));
    return v;
}

double
SnapshotReader::f64()
{
    std::uint64_t bits = 0;
    take(&bits, sizeof(bits));
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::uint64_t
SnapshotReader::varint()
{
    std::uint64_t v = 0;
    for (int shift = 0; ok(); shift += 7) {
        if (!in_chunk_ || cursor_ == payload_end_) {
            fail("snapshot: varint runs past end of chunk payload");
            break;
        }
        const std::uint8_t byte = image_[cursor_++];
        // The tenth byte holds bit 63 alone and must end the varint.
        if (shift == 63 && byte > 1) {
            fail((byte & 0x80u) != 0
                     ? "snapshot: varint longer than 10 bytes"
                     : "snapshot: varint overflows 64 bits");
            break;
        }
        v |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
        if ((byte & 0x80u) == 0) {
            return v;
        }
    }
    return 0;
}

std::string
SnapshotReader::str()
{
    const std::uint64_t len = u64();
    if (!ok()) {
        return {};
    }
    if (!in_chunk_ || payload_end_ - cursor_ < len) {
        fail("snapshot: string length overruns chunk payload");
        return {};
    }
    std::string v(reinterpret_cast<const char *>(image_.data() + cursor_),
                  len);
    cursor_ += len;
    return v;
}

void
SnapshotReader::fail(std::string message)
{
    if (error_.empty()) {
        error_ = std::move(message);
    }
}

} // namespace pentimento::util
