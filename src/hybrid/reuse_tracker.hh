/**
 * @file
 * Block reuse bookkeeping shared by every insertion policy.
 *
 * The paper tags blocks (in both L2 and LLC) with their reuse class; the
 * tag travels with the block and is reset when the block re-enters the
 * hierarchy from main memory. This tracker centralises that state, keyed
 * by block number, and also maintains the per-block LLC hit count that
 * TAP's thrashing classification needs.
 *
 * The store is a flat open-addressing table (linear probing,
 * backward-shift deletion) rather than std::unordered_map: lookup() runs
 * once for every insertion and onLlcHit()/onMemoryFetch() for
 * every demand access, so the per-event lookup must be one hash, one
 * probe run over a contiguous array and no node allocation. Behaviour is
 * fully deterministic (probe order depends only on the key sequence),
 * which the rerun-differential checks rely on.
 */

#ifndef HLLC_HYBRID_REUSE_TRACKER_HH
#define HLLC_HYBRID_REUSE_TRACKER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "hybrid/types.hh"

namespace hllc::hybrid
{

class ReuseTracker
{
  public:
    ReuseTracker() : slots_(initialSlots) {}

    /** What the tracker knows of one block. */
    struct Entry
    {
        ReuseClass reuse = ReuseClass::None;
        /** LLC hits since the block's last memory fetch. */
        unsigned hits = 0;
    };

    /**
     * Reuse class and hit count of @p block from one probe (a default
     * Entry if never seen): the insertion path needs both.
     */
    Entry
    lookup(Addr block) const
    {
        const Slot *s = find(block);
        return s == nullptr
            ? Entry{}
            : Entry{ static_cast<ReuseClass>(s->reuse), s->hits };
    }

    /** Reuse class of @p block (None if never seen). */
    ReuseClass classOf(Addr block) const { return lookup(block).reuse; }

    /**
     * An LLC hit reclassifies the block: GetX hits and hits on dirty
     * copies mean write reuse; GetS hits on clean copies mean read reuse
     * (LHybrid's loop-block condition).
     */
    void
    onLlcHit(Addr block, bool getx, bool copy_dirty)
    {
        Slot &s = findOrInsert(block);
        if (s.hits < 0xffff)
            ++s.hits;
        s.reuse = static_cast<std::uint8_t>(
            (getx || copy_dirty) ? ReuseClass::Write : ReuseClass::Read);
    }

    /**
     * The block missed the whole hierarchy and is being refetched from
     * memory: its reuse history is discarded (blocks enter L2 as
     * non-reused / NLB).
     */
    void
    onMemoryFetch(Addr block)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hashOf(block) & mask;
        while (slots_[i].used) {
            if (slots_[i].key == block) {
                eraseAt(i);
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /** Number of blocks currently tracked. */
    std::size_t size() const { return size_; }

    /** Drop all state (fresh replay). */
    void
    clear()
    {
        slots_.assign(initialSlots, Slot{});
        size_ = 0;
    }

  private:
    struct Slot
    {
        Addr key = 0;
        std::uint16_t hits = 0;
        std::uint8_t reuse = 0; //!< ReuseClass
        std::uint8_t used = 0;
    };

    static constexpr std::size_t initialSlots = 1024;

    /** splitmix64 finalizer: a full-avalanche mix of the block number. */
    static std::size_t
    hashOf(Addr key)
    {
        std::uint64_t x = key;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        return static_cast<std::size_t>(x);
    }

    const Slot *
    find(Addr key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hashOf(key) & mask;
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return &slots_[i];
            i = (i + 1) & mask;
        }
        return nullptr;
    }

    Slot &
    findOrInsert(Addr key)
    {
        // Keep the table at most half full so probe runs stay short.
        if ((size_ + 1) * 2 > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hashOf(key) & mask;
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return slots_[i];
            i = (i + 1) & mask;
        }
        slots_[i] = Slot{ key, 0, 0, 1 };
        ++size_;
        return slots_[i];
    }

    /**
     * Backward-shift deletion (Knuth 6.4 Algorithm R): followers of the
     * probe run whose home slot lies at or before the hole slide back so
     * lookups never need tombstones.
     */
    void
    eraseAt(std::size_t hole)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hole;
        std::size_t j = hole;
        while (true) {
            j = (j + 1) & mask;
            if (!slots_[j].used)
                break;
            const std::size_t home = hashOf(slots_[j].key) & mask;
            // Move slots_[j] into the hole unless its home position lies
            // cyclically within (i, j] (it would then probe past i).
            const bool home_in_range = i <= j ? (home > i && home <= j)
                                              : (home > i || home <= j);
            if (!home_in_range) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i] = Slot{};
        --size_;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        const std::size_t mask = slots_.size() - 1;
        for (const Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = hashOf(s.key) & mask;
            while (slots_[i].used)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace hllc::hybrid

#endif // HLLC_HYBRID_REUSE_TRACKER_HH
