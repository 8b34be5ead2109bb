#include "fabric/activity_journal.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/snapshot.hpp"

namespace pentimento::fabric {

void
ActivityJournal::grow()
{
    growFor(used_ + 1);
}

void
ActivityJournal::growFor(std::size_t total)
{
    std::size_t grown = slots_.empty() ? 256 : slots_.size();
    while (2 * total > grown) {
        grown *= 2;
    }
    if (grown == slots_.size()) {
        return;
    }
    // Slot is trivial, so this is one memset-cheap allocation plus a
    // re-insert sweep — not 10^5 run constructors.
    std::vector<Slot> rehashed(grown);
    const std::size_t mask = grown - 1;
    for (const Slot &slot : slots_) {
        if (slot.count == 0) {
            continue;
        }
        std::size_t i = hashKey(slot.key) & mask;
        while (rehashed[i].count != 0) {
            i = (i + 1) & mask;
        }
        rehashed[i] = slot;
    }
    slots_ = std::move(rehashed);
}

void
ActivityJournal::reserve(std::size_t expected_keys)
{
    growFor(used_ + expected_keys);
}

const ActivityJournal::RawRun &
ActivityJournal::lastRun(const Slot &slot) const
{
    if (slot.count <= 2) {
        return slot.runs[slot.count - 1];
    }
    return arena_[slot.tail].run;
}

ElementActivity
ActivityJournal::current(std::uint64_t key) const
{
    if (slots_.empty()) {
        return ElementActivity{};
    }
    const Slot &slot = slots_[probe(key)];
    if (slot.count == 0 || slot.count == kSpent) {
        return ElementActivity{};
    }
    const RawRun &last = lastRun(slot);
    return ElementActivity{last.kind, last.duty_one};
}

bool
ActivityJournal::recordOverflow(Slot &slot,
                                const ElementActivity &activity,
                                std::uint32_t pos)
{
    if (slot.count == kSpent) {
        util::fatal("ActivityJournal: flip recorded for a consumed "
                    "(materialised) key");
    }
    if (slot.count > 2 && sameActivity(arena_[slot.tail].run, activity)) {
        return false;
    }
    const auto node = static_cast<std::uint32_t>(arena_.size());
    arena_.push_back(Node{pack(pos, activity), kNpos});
    if (slot.count > 2) {
        arena_[slot.tail].next = node;
    } else {
        slot.head = node;
    }
    slot.tail = node;
    ++slot.count;
    return true;
}

std::vector<JournalRun>
ActivityJournal::consume(std::uint64_t key)
{
    std::vector<JournalRun> runs;
    if (slots_.empty()) {
        return runs;
    }
    Slot &slot = slots_[probe(key)];
    if (slot.count == 0 || slot.count == kSpent) {
        return runs;
    }
    runs.reserve(slot.count);
    runs.push_back(unpack(slot.runs[0]));
    if (slot.count >= 2) {
        runs.push_back(unpack(slot.runs[1]));
    }
    if (slot.count > 2) {
        for (std::uint32_t i = slot.head; i != kNpos;
             i = arena_[i].next) {
            runs.push_back(unpack(arena_[i].run));
        }
    }
    // Invalidate the memoised min only when this key attained it
    // (its first-run position is still intact here) — an observation
    // burst consuming thousands of non-pin keys must not force an
    // O(table) rescan per subsequent compaction query.
    if (slot.runs[0].from == cached_min_) {
        cached_min_ = kNpos;
    }
    slot.count = kSpent;
    slot.head = 0;
    slot.tail = 0;
    --active_;
    return runs;
}

std::vector<std::uint64_t>
ActivityJournal::activeKeys() const
{
    std::vector<std::uint64_t> keys;
    keys.reserve(active_);
    for (const Slot &slot : slots_) {
        if (slot.count != 0 && slot.count != kSpent) {
            keys.push_back(slot.key);
        }
    }
    return keys;
}

std::uint32_t
ActivityJournal::minActivePosition(std::uint32_t fallback) const
{
    if (active_ == 0) {
        return fallback;
    }
    if (cached_min_ == kNpos) {
        std::uint32_t min_pos = static_cast<std::uint32_t>(-2);
        for (const Slot &slot : slots_) {
            if (slot.count != 0 && slot.count != kSpent) {
                min_pos = std::min(min_pos, slot.runs[0].from);
            }
        }
        cached_min_ = min_pos;
    }
    return std::min(cached_min_, fallback);
}

void
ActivityJournal::rebase(std::uint32_t delta)
{
    if (delta == 0) {
        return;
    }
    if (cached_min_ != kNpos) {
        cached_min_ -= delta;
    }
    for (Slot &slot : slots_) {
        if (slot.count == 0 || slot.count == kSpent) {
            continue;
        }
        slot.runs[0].from -= delta;
        if (slot.count >= 2) {
            slot.runs[1].from -= delta;
        }
        if (slot.count > 2) {
            for (std::uint32_t i = slot.head; i != kNpos;
                 i = arena_[i].next) {
                arena_[i].run.from -= delta;
            }
        }
    }
}

namespace {

/** Serialized run: from u32, kind u8, duty_one f64. */
constexpr std::size_t kRunBytes = 4 + 1 + 8;
/** Arena node record: its run, then the u32 chain link. */
constexpr std::size_t kNodeBytes = kRunBytes + 4;
/** Occupied-slot record: u64 index, u64 key, u32 count/head/tail, two
 *  inline runs. */
constexpr std::size_t kSlotBytes = 8 + 8 + 3 * 4 + 2 * kRunBytes;
/** Table size, used, active, memoised min, arena size, and the
 *  occupied-slot count that precedes the slot records. */
constexpr std::size_t kGeometryBytes = 8 + 8 + 8 + 4 + 8 + 8;

void
saveRun(util::SnapshotSpan &out,
        std::uint32_t from, Activity kind, double duty_one)
{
    out.u32(from);
    out.u8(static_cast<std::uint8_t>(kind));
    out.f64(duty_one);
}

} // namespace

void
ActivityJournal::saveState(util::SnapshotWriter &writer) const
{
    // Slots are never emptied (consume() leaves a spent marker), so
    // used_ is exactly the number of occupied slots: the section's size
    // is known before the one scan of the probe table.
    util::SnapshotSpan out = writer.span(
        kGeometryBytes + arena_.size() * kNodeBytes + used_ * kSlotBytes);
    out.u64(slots_.size());
    out.u64(used_);
    out.u64(active_);
    out.u32(cached_min_);
    out.u64(arena_.size());
    for (const Node &node : arena_) {
        saveRun(out, node.run.from, node.run.kind, node.run.duty_one);
        out.u32(node.next);
    }
    out.u64(used_);
    std::size_t written = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot &slot = slots_[i];
        if (slot.count == 0) {
            continue;
        }
        out.u64(i);
        out.u64(slot.key);
        out.u32(slot.count);
        out.u32(slot.head);
        out.u32(slot.tail);
        saveRun(out, slot.runs[0].from, slot.runs[0].kind,
                slot.runs[0].duty_one);
        saveRun(out, slot.runs[1].from, slot.runs[1].kind,
                slot.runs[1].duty_one);
        ++written;
    }
    if (written != used_) {
        util::panic("ActivityJournal::saveState: occupied slots disagree "
                    "with the used count");
    }
}

namespace {

struct RestoreRun
{
    std::uint32_t from = 0;
    std::uint8_t kind = 0;
    double duty_one = 0.0;
};

RestoreRun
readRun(util::SnapshotReader &reader)
{
    RestoreRun run;
    run.from = reader.u32();
    run.kind = reader.u8();
    run.duty_one = reader.f64();
    if (run.kind > static_cast<std::uint8_t>(Activity::Toggle)) {
        reader.fail("snapshot: journal run has invalid activity kind");
    }
    return run;
}

} // namespace

bool
ActivityJournal::restoreState(util::SnapshotReader &reader)
{
    const std::uint64_t table_size = reader.u64();
    const std::uint64_t used = reader.u64();
    const std::uint64_t active = reader.u64();
    const std::uint32_t cached_min = reader.u32();
    const std::uint64_t arena_size = reader.u64();
    if (!reader.ok()) {
        return false;
    }
    if ((table_size & (table_size - 1)) != 0 ||
        (table_size == 0 && used != 0) || active > used ||
        (table_size != 0 && 2 * used > table_size)) {
        reader.fail("snapshot: journal table geometry is inconsistent");
        return false;
    }
    std::vector<Node> arena;
    arena.reserve(arena_size);
    for (std::uint64_t i = 0; i < arena_size && reader.ok(); ++i) {
        const RestoreRun run = readRun(reader);
        const std::uint32_t next = reader.u32();
        if (reader.ok() && next != kNpos && next >= arena_size) {
            reader.fail("snapshot: journal arena link out of range");
        }
        arena.push_back(Node{
            RawRun{run.from, static_cast<Activity>(run.kind),
                   run.duty_one},
            next});
    }
    const std::uint64_t occupied = reader.u64();
    if (reader.ok() && occupied != used) {
        // saveState sizes its section from the used count, so a
        // restored journal must keep the two equal.
        reader.fail("snapshot: journal occupancy disagrees with its "
                    "used count");
    }
    if (!reader.ok()) {
        return false;
    }
    std::vector<Slot> slots(table_size);
    std::uint64_t seen_active = 0;
    for (std::uint64_t n = 0; n < occupied && reader.ok(); ++n) {
        const std::uint64_t index = reader.u64();
        const std::uint64_t key = reader.u64();
        const std::uint32_t count = reader.u32();
        const std::uint32_t head = reader.u32();
        const std::uint32_t tail = reader.u32();
        const RestoreRun run0 = readRun(reader);
        const RestoreRun run1 = readRun(reader);
        if (!reader.ok()) {
            return false;
        }
        if (index >= table_size || slots[index].count != 0) {
            reader.fail("snapshot: journal slot index invalid or "
                        "duplicated");
            return false;
        }
        if (count == 0 ||
            (count != kSpent && count > 2 &&
             (head >= arena_size || tail >= arena_size ||
              count - 2 > arena_size))) {
            reader.fail("snapshot: journal slot run count/chain invalid");
            return false;
        }
        Slot &slot = slots[index];
        slot.key = key;
        slot.count = count;
        slot.head = head;
        slot.tail = tail;
        slot.runs[0] = RawRun{run0.from,
                              static_cast<Activity>(run0.kind),
                              run0.duty_one};
        slot.runs[1] = RawRun{run1.from,
                              static_cast<Activity>(run1.kind),
                              run1.duty_one};
        seen_active += (count != kSpent) ? 1 : 0;
    }
    if (!reader.ok()) {
        return false;
    }
    if (seen_active != active) {
        reader.fail("snapshot: journal active-key count mismatch");
        return false;
    }
    slots_ = std::move(slots);
    arena_ = std::move(arena);
    used_ = used;
    active_ = active;
    cached_min_ = cached_min;
    return true;
}

} // namespace pentimento::fabric
