#include "fabric/activity_journal.hpp"

#include <algorithm>
#include <bit>

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
    // re-insert sweep — not 10^5 constructors.
    std::vector<Slot> rehashed(grown);
    const std::size_t mask = grown - 1;
    for (const Slot &slot : slots_) {
        if (slot.history == kRoot) {
            continue;
        }
        std::size_t i = hashKey(slot.key) & mask;
        while (rehashed[i].history != kRoot) {
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

void
ActivityJournal::recordSpent()
{
    util::fatal("ActivityJournal: flip recorded for a consumed "
                "(materialised) key");
}

std::uint64_t
ActivityJournal::nodeHash(std::uint32_t parent, std::uint32_t from,
                          const ElementActivity &activity)
{
    // The duty cycle enters by its bits: nodes are equal only when
    // bit-identical.
    return hashKey(
        hashKey(std::bit_cast<std::uint64_t>(activity.duty_one) ^
                static_cast<std::uint64_t>(activity.kind)) ^
        (static_cast<std::uint64_t>(parent) << 32 | from));
}

std::uint32_t
ActivityJournal::intern(std::uint32_t parent, std::uint32_t from,
                        const ElementActivity &activity)
{
    if (2 * nodes_.size() >= index_.size()) {
        reindex(std::max<std::size_t>(64, 2 * index_.size()));
    }
    const std::size_t mask = index_.size() - 1;
    const std::uint64_t duty_bits =
        std::bit_cast<std::uint64_t>(activity.duty_one);
    std::size_t i = nodeHash(parent, from, activity) & mask;
    for (; index_[i] != kRoot; i = (i + 1) & mask) {
        const Node &node = nodes_[index_[i]];
        if (node.parent == parent && node.from == from &&
            node.activity.kind == activity.kind &&
            std::bit_cast<std::uint64_t>(node.activity.duty_one) ==
                duty_bits) {
            return index_[i];
        }
    }
    if (nodes_.size() >= kSpent) {
        util::fatal("ActivityJournal: history pool exhausted");
    }
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    const Node &up = nodes_[parent];
    const Node node{activity, from, parent, up.count + 1,
                    parent == kRoot ? from : up.first};
    nodes_.push_back(node);
    index_[i] = id;
    return id;
}

void
ActivityJournal::reindex(std::size_t size)
{
    index_.assign(size, kRoot);
    const std::size_t mask = size - 1;
    for (std::uint32_t id = 1; id < nodes_.size(); ++id) {
        const Node &node = nodes_[id];
        std::size_t i = nodeHash(node.parent, node.from, node.activity) &
                        mask;
        while (index_[i] != kRoot) {
            i = (i + 1) & mask;
        }
        index_[i] = id;
    }
}

ElementActivity
ActivityJournal::current(std::uint64_t key) const
{
    if (slots_.empty()) {
        return ElementActivity{};
    }
    const Slot &slot = slots_[probe(key)];
    if (slot.history == kSpent) {
        return ElementActivity{};
    }
    return nodes_[slot.history].activity;
}

std::vector<JournalRun>
ActivityJournal::consume(std::uint64_t key)
{
    std::vector<JournalRun> runs;
    if (slots_.empty()) {
        return runs;
    }
    Slot &slot = slots_[probe(key)];
    if (slot.history == kRoot || slot.history == kSpent) {
        return runs;
    }
    // The chain runs newest to oldest; fill the vector from the back.
    const Node &tip = nodes_[slot.history];
    runs.resize(tip.count);
    std::size_t n = tip.count;
    for (std::uint32_t id = slot.history; id != kRoot;
         id = nodes_[id].parent) {
        runs[--n] = JournalRun{nodes_[id].from, nodes_[id].activity};
    }
    // Invalidate the memoised min only when this key attained it — an
    // observation burst consuming thousands of non-pin keys must not
    // force an O(table) rescan per subsequent compaction query.
    if (tip.first == cached_min_) {
        cached_min_ = kNpos;
    }
    slot.history = kSpent;
    --active_;
    return runs;
}

std::vector<std::uint64_t>
ActivityJournal::activeKeys() const
{
    std::vector<std::uint64_t> keys;
    keys.reserve(active_);
    for (const Slot &slot : slots_) {
        if (slot.history != kRoot && slot.history != kSpent) {
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
            if (slot.history != kRoot && slot.history != kSpent) {
                min_pos = std::min(min_pos, nodes_[slot.history].first);
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
    // Every active chain starts at or after the pin, so its nodes stay
    // in range. Nodes only consumed keys reach may wrap; no lookup can
    // reach them again, since new runs extend active chains or the
    // root, and a shift keeps (parent, from, activity) unique.
    for (std::size_t id = 1; id < nodes_.size(); ++id) {
        nodes_[id].from -= delta;
        nodes_[id].first -= delta;
    }
    reindex(index_.size());
}

namespace {

/** Table size, used and active counts. */
constexpr std::size_t kGeometryBytes = 3 * 8;
/** History node record: from u32, kind u8, duty_one f64, parent u32. */
constexpr std::size_t kNodeBytes = 4 + 1 + 8 + 4;
/** Occupied-slot record bounds: varint gap, u64 key, varint history
 *  (a u32 id fits in 5 varint bytes). */
constexpr std::size_t kMinSlotBytes = 1 + 8 + 1;
constexpr std::size_t kMaxSlotBytes = 10 + 8 + 5;

} // namespace

void
ActivityJournal::saveState(util::SnapshotWriter &writer) const
{
    // Slots are never emptied (consume() leaves a spent marker), so
    // used_ is exactly the number of occupied slots: the section's size
    // is bounded before the one scan of the probe table.
    util::SnapshotSpan out =
        writer.span(kGeometryBytes + 8 + (nodes_.size() - 1) * kNodeBytes +
                    8 + used_ * kMaxSlotBytes);
    out.u64(slots_.size());
    out.u64(used_);
    out.u64(active_);
    out.u64(nodes_.size() - 1);
    for (std::size_t id = 1; id < nodes_.size(); ++id) {
        const Node &node = nodes_[id];
        out.u32(node.from);
        out.u8(static_cast<std::uint8_t>(node.activity.kind));
        out.f64(node.activity.duty_one);
        out.u32(node.parent);
    }
    out.u64(used_);
    std::size_t written = 0;
    std::size_t prev = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot &slot = slots_[i];
        if (slot.history == kRoot) {
            continue;
        }
        out.varint(i - prev);
        out.u64(slot.key);
        out.varint(slot.history == kSpent ? kRoot : slot.history);
        prev = i;
        ++written;
    }
    if (written != used_) {
        util::panic("ActivityJournal::saveState: occupied slots disagree "
                    "with the used count");
    }
    writer.trim(out);
}

bool
ActivityJournal::restoreState(util::SnapshotReader &reader)
{
    const std::uint64_t table_size = reader.u64();
    const std::uint64_t used = reader.u64();
    const std::uint64_t active = reader.u64();
    const std::uint64_t node_count = reader.u64();
    if (!reader.ok()) {
        return false;
    }
    // The growth rule keeps a table within 8x its occupancy (reserve()
    // sizes for keys the caller then records), so one past 16x is
    // corrupt — and must not reach the allocator.
    if ((table_size & (table_size - 1)) != 0 ||
        (table_size == 0 && used != 0) || active > used ||
        (table_size != 0 && used > table_size / 2) ||
        (table_size > 256 && used < table_size / 16)) {
        reader.fail("snapshot: journal table geometry is inconsistent");
        return false;
    }
    if (node_count > reader.remaining() / kNodeBytes) {
        reader.fail("snapshot: journal history count overruns its chunk");
        return false;
    }
    std::vector<Node> nodes(1);
    nodes.reserve(node_count + 1);
    for (std::uint64_t id = 1; id <= node_count && reader.ok(); ++id) {
        Node node;
        node.from = reader.u32();
        const std::uint8_t kind = reader.u8();
        node.activity = ElementActivity{static_cast<Activity>(kind),
                                        reader.f64()};
        node.parent = reader.u32();
        if (!reader.ok()) {
            return false;
        }
        if (kind > static_cast<std::uint8_t>(Activity::Toggle)) {
            reader.fail("snapshot: journal run has invalid activity kind");
            return false;
        }
        // Backward links only: every chain ends at the root, so a
        // consume() or rebase() walk terminates.
        if (node.parent >= id) {
            reader.fail("snapshot: journal history parent is not below "
                        "its own id");
            return false;
        }
        const Node &up = nodes[node.parent];
        node.count = up.count + 1;
        node.first = node.parent == kRoot ? node.from : up.first;
        nodes.push_back(node);
    }
    const std::uint64_t occupied = reader.u64();
    if (reader.ok() && occupied != used) {
        // saveState sizes its section from the used count, so a
        // restored journal must keep the two equal.
        reader.fail("snapshot: journal occupancy disagrees with its "
                    "used count");
    }
    if (reader.ok() && occupied > reader.remaining() / kMinSlotBytes) {
        reader.fail("snapshot: journal occupancy overruns its chunk");
    }
    if (!reader.ok()) {
        return false;
    }
    std::vector<Slot> slots(table_size);
    std::uint64_t seen_active = 0;
    std::uint64_t index = 0;
    for (std::uint64_t n = 0; n < occupied; ++n) {
        const std::uint64_t gap = reader.varint();
        const std::uint64_t key = reader.u64();
        const std::uint64_t history = reader.varint();
        if (!reader.ok()) {
            return false;
        }
        // Strictly increasing indices: only the first gap may be 0.
        if ((n != 0 && gap == 0) || gap >= table_size - index) {
            reader.fail("snapshot: journal slot index invalid or "
                        "duplicated");
            return false;
        }
        index += gap;
        if (history >= nodes.size()) {
            reader.fail("snapshot: journal slot history out of range");
            return false;
        }
        slots[index].key = key;
        slots[index].history = history == kRoot
                                   ? kSpent
                                   : static_cast<std::uint32_t>(history);
        seen_active += (history != kRoot) ? 1 : 0;
    }
    if (seen_active != active) {
        reader.fail("snapshot: journal active-key count mismatch");
        return false;
    }
    slots_ = std::move(slots);
    nodes_ = std::move(nodes);
    used_ = used;
    active_ = active;
    // A memo, not state: the first query recomputes it.
    cached_min_ = kNpos;
    reindex(std::max<std::size_t>(64, std::bit_ceil(4 * nodes_.size())));
    return true;
}

} // namespace pentimento::fabric
