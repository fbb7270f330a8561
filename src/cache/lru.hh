/**
 * @file
 * True-LRU recency tracking shared by the private caches and the LLC.
 *
 * Recency is kept as a monotonically increasing per-line timestamp; with
 * at most 16 ways a victim scan is cheaper and simpler than maintaining
 * linked stacks, and it makes constrained victim searches (Fit-LRU over
 * frames with enough effective capacity, paper Sec. III-B1) trivial.
 *
 * The victim scans are templates over the eligibility predicate so the
 * per-access replacement path never goes through a std::function (the
 * predicate inlines into the scan loop), and each scan is one pass of
 * selects with no data-dependent branch: ways are few, and a mispredicted
 * compare costs more than visiting every way.
 */

#ifndef HLLC_CACHE_LRU_HH
#define HLLC_CACHE_LRU_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace hllc::cache
{

class LruState
{
  public:
    LruState(std::uint32_t num_sets, std::uint32_t num_ways)
        : numSets_(num_sets), numWays_(num_ways),
          wayBits_(static_cast<unsigned>(std::bit_width(num_ways))),
          stamps_(static_cast<std::size_t>(num_sets) * num_ways, 0)
    {
        HLLC_ASSERT(num_sets > 0 && num_ways > 0);
    }

    /** Mark (set, way) most recently used. */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        HLLC_ASSERT(set < numSets_ && way < numWays_);
        stamps_[static_cast<std::size_t>(set) * numWays_ + way] = ++clock_;
    }

    /** Timestamp of (set, way); larger = more recent. 0 = never used. */
    std::uint64_t
    stamp(std::uint32_t set, std::uint32_t way) const
    {
        HLLC_ASSERT(set < numSets_ && way < numWays_);
        return stamps_[static_cast<std::size_t>(set) * numWays_ + way];
    }

    /**
     * Recency stamps of @p set's ways, indexed by way (the row stamp()
     * reads one entry of). Victim scans that rank ways by their own
     * rule, such as the LLC's Fit-LRU, read it directly.
     */
    const std::uint64_t *
    stampRow(std::uint32_t set) const
    {
        HLLC_ASSERT(set < numSets_);
        return stamps_.data() + static_cast<std::size_t>(set) * numWays_;
    }

    /** Smallest key of a scan in which no way was eligible. */
    static constexpr std::uint64_t noWay = ~std::uint64_t{0};

    /**
     * Key of @p way in a branch-free victim scan: @p rank above the way
     * index, or noWay when the way is not @p eligible. The smallest key
     * of a scan is the lowest rank, the lowest way among equal ranks.
     * Ranks are at most rankLimit(): stamps stay far below it, since
     * the clock would need 2^59 touches to reach it at 16 ways.
     */
    std::uint64_t
    scanKey(std::uint64_t rank, std::uint32_t way, bool eligible) const
    {
        return (rank << wayBits_ | way) |
               (std::uint64_t{0} - static_cast<std::uint64_t>(!eligible));
    }

    /** Largest rank scanKey() can pack. */
    std::uint64_t rankLimit() const { return noWay >> wayBits_; }

    /** The way the smallest key of a scan names; -1 for noWay. */
    int
    scanWay(std::uint64_t key) const
    {
        const std::uint64_t way_mask = (std::uint64_t{1} << wayBits_) - 1;
        return key == noWay ? -1 : static_cast<int>(key & way_mask);
    }

    /**
     * Least recently used way of @p set among ways in [begin, end) that
     * satisfy @p eligible; ties (never-touched ways share stamp 0) go to
     * the lowest index. Returns -1 when no way is eligible.
     */
    template <typename Pred>
    int
    lruWay(std::uint32_t set, std::uint32_t begin, std::uint32_t end,
           const Pred &eligible) const
    {
        HLLC_ASSERT(begin <= end && end <= numWays_);
        const std::uint64_t *row = stampRow(set);
        std::uint64_t best = noWay;
        for (std::uint32_t w = begin; w < end; ++w)
            best = std::min(best, scanKey(row[w], w, eligible(w)));
        return scanWay(best);
    }

    /**
     * Most recently used way of @p set among ways in [begin, end) that
     * satisfy @p eligible; ties go to the lowest index. Returns -1 when
     * no way is eligible.
     */
    template <typename Pred>
    int
    mruWay(std::uint32_t set, std::uint32_t begin, std::uint32_t end,
           const Pred &eligible) const
    {
        HLLC_ASSERT(begin <= end && end <= numWays_);
        const std::uint64_t *row = stampRow(set);
        std::uint64_t best = noWay;
        for (std::uint32_t w = begin; w < end; ++w) {
            best = std::min(
                best, scanKey(rankLimit() - row[w], w, eligible(w)));
        }
        return scanWay(best);
    }

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t numWays() const { return numWays_; }

  private:
    std::uint32_t numSets_;
    std::uint32_t numWays_;
    unsigned wayBits_; //!< low key bits that hold a way index
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamps_;
};

} // namespace hllc::cache

#endif // HLLC_CACHE_LRU_HH
