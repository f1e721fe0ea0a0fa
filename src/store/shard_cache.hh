/**
 * @file
 * ShardImageCache — shard-level hydration cache with admission
 * control.
 *
 * The EnrollmentDb's read path is record-granular: a point read of a
 * v4 shard image fetches its header, index and only the wanted record
 * frames (about 1.4 KB per probe at 100k channels / 512 shards). This
 * cache keeps whole *decoded* shard images (the post-CRC-salvage
 * record map) resident under a byte budget, so a resident shard
 * answers with no IO and no decode at all. It never loads: `peek`
 * serves what is resident, and entries arrive only by write-through
 * when the db rewrites an image (`update`):
 *
 *  - LRU over shards, byte-budgeted: the cache never holds more than
 *    `budgetBytes` of decoded records, however many shards that is.
 *  - Frequency-based admission: a shard is only admitted by evicting
 *    colder shards. Each access bumps a saturating per-shard
 *    frequency; a candidate may evict the LRU victim only while the
 *    victim's frequency does not exceed its own. Under a scan pattern
 *    whose working set exceeds the budget, plain LRU degenerates to
 *    0% hits (every miss evicts the entry the scan needs next);
 *    admission control instead pins a stable hot subset and serves
 *    budget/working-set of the traffic from memory.
 *  - Batch reads: `resident` looks a view up without touching LRU
 *    order, frequency or counters, so the concurrent phase of
 *    `EnrollmentDb::readRecords(groups, pool)` may call it from any
 *    thread while no writer runs; the store then replays the batch's
 *    accesses through `peek`, serially and in ascending shard order.
 *    The cache takes no locks, and every admission and eviction
 *    decision — with every counter — is a pure function of the access
 *    sequence, hence of (seed, config) at any thread count.
 *
 * Coherence contract: the cache belongs to the EnrollmentDb, which
 * updates it (write-through) whenever it rewrites a shard image and
 * invalidates it whenever injected damage lands on one. Bytes written
 * behind the db's back (forensic tooling, external truncation) are
 * outside the coherence domain, exactly like an OS page cache.
 *
 * Every cache metric is MetricStability::Unstable: hit patterns
 * depend on the budget knob, and the stable telemetry export must be
 * byte-identical with the cache on or off.
 */

#ifndef DIVOT_STORE_SHARD_CACHE_HH
#define DIVOT_STORE_SHARD_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "store/codec.hh"
#include "telemetry/telemetry.hh"

namespace divot::store {

/** One decoded shard image, shared between the cache and readers. */
struct ShardView
{
    /** Every record recoverable from the image (whole-bank read or
     *  per-record salvage, bank A first — the preference order the
     *  point read uses too). */
    std::map<std::string, EnrollmentRecord> records;

    /** True when the parse saw no damage at all: both banks located
     *  and whole-bank CRC-verified, zero damaged frames. A miss in
     *  `records` of a clean view is a *provable* Missing; a miss in a
     *  damaged view must fall back to a point read of the image to
     *  distinguish Missing from Unrecoverable. */
    bool clean = false;

    /** Approximate decoded footprint, bytes (budget accounting). */
    std::size_t bytes = 0;

    /** Recompute `bytes` from `records`. */
    void accountBytes();
};

/** Cache tuning. */
struct ShardCacheConfig
{
    std::size_t budgetBytes = 0; //!< decoded-image budget; 0 disables
    unsigned shards = 1;         //!< shard-index space (fixed)
};

/** Cache counters. */
struct ShardCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;      //!< peeks that found nothing resident
    uint64_t admissions = 0;  //!< written-through views admitted
    uint64_t rejections = 0;  //!< written-through views not stored
                              //!< (victim hotter, or view > budget)
    uint64_t evictions = 0;
    uint64_t updates = 0;     //!< write-through image rewrites
    uint64_t invalidations = 0;
    std::size_t bytes = 0;    //!< currently resident decoded bytes
    std::size_t peakBytes = 0;
};

/**
 * The byte-budgeted, admission-filtered LRU cache of decoded shard
 * images.
 */
class ShardImageCache
{
  public:
    explicit ShardImageCache(ShardCacheConfig config);

    /**
     * Return `shard`'s resident view, or null without touching disk.
     * Counts as a hit and an access (LRU + frequency) when resident,
     * as a miss otherwise.
     */
    std::shared_ptr<const ShardView> peek(unsigned shard);

    /**
     * Return `shard`'s resident view, or null, with no side effect at
     * all (no LRU touch, no frequency bump, no counter). Safe to call
     * concurrently while no other member runs; the caller replays the
     * access through `peek` afterwards.
     */
    std::shared_ptr<const ShardView> resident(unsigned shard) const
    {
        return entries_[shard].view;
    }

    /**
     * Write-through: the db rewrote `shard`'s image and `view` is its
     * exact new decoded content. Replaces the resident entry (or
     * attempts admission like an access would).
     */
    void update(unsigned shard, ShardView view);

    /** Drop `shard`'s entry (damage landed on the image). */
    void invalidate(unsigned shard);

    const ShardCacheConfig &config() const { return config_; }

    /** @return the counters (serial sections only). */
    ShardCacheStats stats() const { return stats_; }

    /** Register the store.cache.* counters (all Unstable). */
    void attachTelemetry(Telemetry *telemetry);

  private:
    struct Entry
    {
        std::shared_ptr<const ShardView> view; //!< null = not cached
        std::list<unsigned>::iterator lruIt;   //!< valid when cached
        uint32_t frequency = 0; //!< saturating access count
    };

    /** Unlink `shard`'s resident view (no counter). */
    void drop(unsigned shard);
    /** Move `shard` to the hot end and bump its frequency. */
    void touch(unsigned shard);
    /** Try to make room for and insert `view`; false = rejected. */
    bool admit(unsigned shard, std::shared_ptr<const ShardView> view);

    ShardCacheConfig config_;
    std::vector<Entry> entries_; //!< indexed by shard
    std::list<unsigned> lru_;    //!< front = hottest
    ShardCacheStats stats_;      //!< bytes = resident decoded bytes
    Counter tmHits_;
    Counter tmMisses_;
    Counter tmAdmissions_;
    Counter tmRejections_;
    Counter tmEvictions_;
    Counter tmUpdates_;
    Counter tmInvalidations_;
};

} // namespace divot::store

#endif // DIVOT_STORE_SHARD_CACHE_HH
