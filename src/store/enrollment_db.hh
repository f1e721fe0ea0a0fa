/**
 * @file
 * Crash-safe sharded enrollment database.
 *
 * `EnrollmentDb` generalizes the single-file dual-bank EnrollmentStore
 * (PR 2) to fleet scale: records are distributed across N shard files
 * keyed by a stable hash of the channel id, every shard is the same
 * dual-bank + per-record-CRC image, and all of it sits behind a
 * write-ahead journal so each mutation (enroll, re-calibrate,
 * quarantine flag, erase) is atomic across power cuts:
 *
 *   1. the mutation is appended to `journal.wal` (CRC-framed, so a
 *      torn tail is detected and discarded on replay);
 *   2. it lands in the owning shard's in-memory overlay;
 *   3. overlays flush to their shard image (atomic temp+rename
 *      rewrite) when they grow past `overlayFlushRecords`, and the
 *      journal truncates at a checkpoint once every overlay has
 *      flushed.
 *
 * A crash at any point leaves either the old state or the new state
 * reachable: un-flushed mutations replay from the journal on the next
 * open; a torn shard rewrite leaves the abandoned temp file beside an
 * intact image. Memory and read IO stay proportional to the records
 * touched — overlays never exceed the flush threshold, and reads
 * (`get`, `readRecords`) fetch a v4 image's header, index and only
 * the wanted record frames instead of materializing the shard. The
 * batch `readRecords(groups, pool)` reads many shards in parallel and
 * then applies its cache accesses serially, so the one LRU cache
 * stays a pure function of the call sequence at any thread count.
 *
 * Bulk load (`writeShards`) is the provisioning path: it bypasses the
 * journal and builds each shard's image once, from its whole record
 * group merged over whatever the image already holds. It checkpoints
 * first, so no journal entry can ever replay over a bulk-written
 * record. Images are built and their temps written (and data-synced)
 * in parallel; renames and cache write-through run serially in
 * ascending shard order, and the renames are pinned by the next
 * checkpoint's directory sync.
 *
 * Storage faults are injected through the same deterministic
 * `FaultInjector` the instruments use: each mutating operation — a
 * journaled mutation, a checkpoint, a scrub rewrite, one shard commit
 * of a bulk load — consumes one IO-event index, and
 * `storageFrameFor(event)` decides whether that operation is torn,
 * crashed at a chosen commit point, bit-rotted, or truncated. A
 * simulated power cut marks the db dead (`alive()` false): every later
 * mutation refuses, while `get` and `readRecords` keep serving what
 * the handle last saw (MegaFleet hydrates through a dead handle until
 * its next write reopens the store). Recovery is a fresh EnrollmentDb
 * on the same directory, which may continue the dead handle's event
 * count (`resumeIoEvents`).
 *
 * See DESIGN.md §14 for the shard layout, journal format, and crash
 * matrix.
 */

#ifndef DIVOT_STORE_ENROLLMENT_DB_HH
#define DIVOT_STORE_ENROLLMENT_DB_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "store/codec.hh"
#include "store/io.hh"
#include "store/shard_cache.hh"
#include "telemetry/telemetry.hh"

namespace divot {
class ThreadPool;
} // namespace divot

namespace divot::store {

/** Tunables for one EnrollmentDb. */
struct EnrollmentDbConfig
{
    std::string directory;      //!< shard + journal directory (must exist)
    unsigned shards = 16;       //!< shard file count (fixed at creation)
    uint64_t overlayFlushRecords = 64; //!< per-shard overlay size
                                       //!< triggering a shard flush
    uint64_t journalCheckpointBytes = 1u << 20; //!< journal size
                                                //!< triggering checkpoint

    /** Decoded-image cache budget, bytes; 0 keeps the classic
     *  read-per-lookup path (see shard_cache.hh). */
    std::size_t shardCacheBytes = 0;

    /**
     * Group commit: defer the directory fsync of shard-image renames
     * to one `syncDir` per flush epoch, issued before the journal
     * truncates at a checkpoint. The temp-file fsync still runs on
     * every rewrite, so each image is old-or-new; a power cut that
     * loses a deferred directory entry merely resurfaces the old
     * image, and the still-intact journal replays the difference.
     */
    bool journalGroupCommit = false;
};

/** One shard's ids in a batch read (EnrollmentDb::readRecords). */
struct ShardReadGroup
{
    unsigned shard = 0;
    std::vector<std::string> ids;
};

/** The answer to one ShardReadGroup. */
struct ShardRead
{
    std::vector<RecordRead> reads; //!< one per id, in order
    bool fromCache = false;        //!< the overlay and the resident
                                   //!< view settled every id (no disk
                                   //!< read)
};

/** One shard's records in a bulk write (EnrollmentDb::writeShards). */
struct ShardWriteGroup
{
    unsigned shard = 0;
    std::vector<EnrollmentRecord> records; //!< each routes to `shard`
};

/** What became of one ShardWriteGroup. */
enum class ShardWriteStatus : uint8_t
{
    Landed,  //!< the shard's new image committed (renamed into place)
    Failed,  //!< the commit was attempted and did not land
    Skipped, //!< never attempted: the handle died first
};

/** Outcome of scrubbing one shard. */
struct ScrubResult
{
    unsigned shard = 0;    //!< shard index that was examined
    bool scanned = false;  //!< shard file existed and was examined
    bool repaired = false; //!< image was rewritten from recovered records
    bool unreadable = false; //!< image yielded nothing recoverable; the
                             //!< file is left untouched for forensics
                             //!< and every record in the shard must be
                             //!< presumed lost (owner should fence all
                             //!< channels routed to this shard)
    std::vector<std::string> lostIds; //!< records damaged beyond repair
                                      //!< (ids only when parseable)
    uint64_t lostUnnamed = 0; //!< unrecoverable records with no
                              //!< readable id
};

/**
 * The sharded enrollment database. Not thread-safe: callers use it
 * from serial sections only (the fleet scheduler's event loop, bench
 * enrollment loops), which also keeps the IO-event sequence — and
 * therefore every injected storage fault — deterministic. The batch
 * `readRecords` and `writeShards` fan their work out on the caller's
 * pool themselves.
 */
class EnrollmentDb
{
  public:
    explicit EnrollmentDb(EnrollmentDbConfig config);

    /**
     * Open the database: validate the directory, replay any journal
     * tail left by a crash (torn entries are detected by their CRC
     * frame and truncated away), and prime per-shard bookkeeping.
     *
     * @return false when the directory is unusable
     */
    bool open();

    /** @return false once a simulated power cut has hit this handle. */
    bool alive() const { return !dead_; }

    /**
     * Insert or replace a record (journal append + overlay; may
     * trigger a shard flush and a checkpoint).
     *
     * @return true when the mutation is durable (journaled or
     *         flushed; see io.hh for the journal's power-cut sync
     *         model); false on a crash/torn fault or dead handle
     */
    bool put(const EnrollmentRecord &record);

    /**
     * Bulk load: give each group's shard a new image holding the
     * shard's current image-layer records with the group's records
     * laid over them (the same lenient merge a flush does). Groups
     * must name distinct shards in ascending order, and every record
     * must route to its group's shard and pass `put`'s checks (a group
     * that breaks this is Failed, untouched).
     *
     * Order of effects: pending overlays are checkpointed and the
     * journal truncated first (one IO event, only when the journal is
     * non-empty), so replay can never lay an older journaled record
     * over a bulk-written one. Then every image is built and its temp
     * file written and data-synced on `pool`. Then, serially in group
     * order, each commit consumes one IO event, applies that event's
     * StorageFault, renames the temp into place and writes the view
     * through to the cache. A power cut ends the call: later groups
     * are Skipped and never built. The renames are pinned by the next
     * checkpoint's directory sync. No journal entry covers a
     * bulk-written image, and none is appended.
     *
     * Crash points of one commit (DESIGN.md §14.7): BeforeWrite — no
     * temp byte lands; AfterJournal and BeforeCommit — the temp is
     * complete and synced but never renamed (the bulk path's only
     * write-ahead artifact is its temp); torn — a prefix of the temp
     * lands; AfterCommit — the image is in place and the handle dies.
     * Bit rot and truncation land on the committed image.
     *
     * @return one status per group, in order
     */
    std::vector<ShardWriteStatus>
    writeShards(const std::vector<ShardWriteGroup> &groups,
                ThreadPool &pool);

    /** Remove a record (tombstone through the same journal path). */
    bool erase(const std::string &id);

    /**
     * Update just the lifecycle flags of an existing record.
     *
     * @return false when the record is missing/unrecoverable or the
     *         rewrite faulted
     */
    bool setFlags(const std::string &id, uint64_t flags);

    /**
     * Point lookup of one id: its shard's pending overlay, then the
     * resident decoded view, then a point read of the image (see the
     * batch `readRecords`).
     */
    DbGetStatus get(const std::string &id, EnrollmentRecord &out);

    /**
     * Batch read: every group is read on `pool` (groups are claimed
     * dynamically, one shard per claim). Each id is settled the way
     * `get` settles it: by the shard's pending overlay first (a
     * tombstone answers Missing), then by the resident decoded view (a
     * miss in a *clean* view is a provable Missing), and every id left
     * is read from disk with `readShardRecords` (header, index, then
     * only the wanted frames, bank B's frame when bank A's fails).
     * Never loads or admits a whole shard: the cache fills only by
     * write-through.
     *
     * The concurrent phase only reads overlays and looks resident
     * views up; after the join the batch's cache accesses — hits,
     * misses, LRU touches, frequency bumps — are applied serially in
     * group order, one `peek` per group, so cache state and counters
     * do not depend on the thread count. Pass each shard at most
     * once, in ascending order.
     *
     * @return one ShardRead per group, in order; an id of a shard with
     *         no image and no pending record is Missing
     */
    std::vector<ShardRead>
    readRecords(const std::vector<ShardReadGroup> &groups,
                ThreadPool &pool);

    /** @return cache counters (zeroes when no cache is configured). */
    ShardCacheStats cacheStats() const;

    /** Flush every overlay and truncate the journal. */
    bool checkpoint();

    /**
     * Scrub one shard: parse its image leniently and rewrite a
     * pristine dual-bank copy whenever anything short of a clean
     * bank A read was needed (bank-B fallback, per-record salvage).
     * Records damaged in both banks are dropped from the rewrite and
     * reported in the result so the fleet can demote those channels
     * to PendingReenroll. An image that yields *nothing* recoverable
     * is never rewritten (that would silently wipe the shard): it is
     * left in place and flagged `ScrubResult::unreadable`.
     */
    ScrubResult scrubShard(unsigned shard);

    /**
     * Background scrub hook: examine the next shard in round-robin
     * order. Designed to be called once per idle scheduler tick.
     */
    ScrubResult scrubStep();

    /**
     * Import every record of a legacy v1/v2 EnrollmentStore image (or
     * a v3/v4 shard image) through the normal `put` path.
     *
     * @return records imported (0 when the bytes parse as nothing)
     */
    uint64_t importImage(const std::vector<char> &bytes);

    /**
     * @return all ids currently in the database (disk + overlays). A v4
     *         shard contributes its index (including records damaged
     *         in both banks, which `get` reports Unrecoverable); a v3
     *         image, or one whose two indexes are damaged, is parsed
     *         whole and contributes its recovered records.
     */
    std::vector<std::string> ids();

    /** Route an id to its shard index. */
    unsigned shardOf(const std::string &id) const;

    /** @return shard image path (exists only after a flush). */
    std::string shardPath(unsigned shard) const;

    /** @return journal path. */
    std::string journalPath() const;

    /** @return IO events consumed so far (fault-plan addressing). */
    uint64_t ioEvents() const { return ioEvent_; }

    /**
     * Number the next IO event `next`: a recovery handle continues its
     * dead predecessor's count, so each scheduled storage fault fires
     * once instead of once per handle.
     */
    void resumeIoEvents(uint64_t next) { ioEvent_ = next; }

    /** @return journal entries replayed by open(). */
    uint64_t replayedEntries() const { return replayed_; }

    /** Attach a fault injector (nullptr detaches). */
    void attachFaultInjector(const FaultInjector *injector);

    /** Attach telemetry; registers the stable store.* counters. */
    void attachTelemetry(Telemetry *telemetry);

    const EnrollmentDbConfig &config() const { return config_; }

  private:
    /** One shard's pending mutations; nullopt marks a tombstone. */
    using Overlay = std::map<std::string,
                             std::optional<EnrollmentRecord>>;

    bool appendJournal(uint8_t op, const std::vector<char> &body,
                       const StorageFault &fault);
    bool flushShard(unsigned shard, const StorageFault &fault);
    /**
     * The records a rewrite of `shard` starts from: a clean cached
     * view when one is resident, else whatever a lenient parse of the
     * image recovers (an image that yields nothing is first moved
     * aside as `.corrupt`). Empty when the shard has no image.
     */
    std::map<std::string, EnrollmentRecord> imageRecords(unsigned shard);
    /** Lay `shard`'s pending overlay over `records`. */
    void mergeOverlay(unsigned shard,
                      std::map<std::string, EnrollmentRecord> &records) const;
    /**
     * `shard`'s image holding exactly `records` was just renamed into
     * place: note the directory sync the rename deferred (if it did),
     * write the clean view through to the cache, drop the overlay the
     * image now covers, and count the flush.
     */
    void landImage(unsigned shard,
                   std::map<std::string, EnrollmentRecord> records,
                   bool dir_sync_deferred);
    /**
     * Settle `ids` of one shard: the overlay first, then the resident
     * view, then a point read of the image. With `access` the view
     * lookup is a counted `peek`, made only when the overlay leaves an
     * id unsettled (serial callers); without it the lookup is the
     * side-effect-free `resident`, and the call changes no state, so
     * the batch's workers may run it concurrently.
     */
    ShardRead readShard(unsigned shard, const std::vector<std::string> &ids,
                        bool access);
    /**
     * Every overlay has landed: settle the group-commit epoch's
     * deferred directory sync — strictly before the journal truncates,
     * since afterwards a lost rename could no longer be replayed — then
     * truncate the journal and count the checkpoint.
     */
    void truncateJournal();
    void applyPostWriteDamage(const StorageFault &fault,
                              unsigned shard);
    bool replayJournal();
    StorageFault faultFor(uint64_t event) const;
    bool mutate(uint8_t op, const std::string &id,
                const EnrollmentRecord *record);

    EnrollmentDbConfig config_;
    std::vector<Overlay> overlays_;
    bool dead_ = false;
    bool opened_ = false;
    uint64_t ioEvent_ = 0;
    uint64_t journalBytes_ = 0;
    uint64_t journalSeq_ = 0;
    uint64_t replayed_ = 0;
    unsigned scrubCursor_ = 0;
    bool pendingDirSync_ = false;
    std::unique_ptr<ShardImageCache> cache_;
    AppendStream journalStream_; //!< group-commit: journal handle
                                 //!< held open across appends; closed
                                 //!< before every truncation
    const FaultInjector *injector_ = nullptr;
    Telemetry *telemetry_ = nullptr;
    Counter tmPuts_;
    Counter tmGets_;
    Counter tmGetDamaged_;
    Counter tmFlushes_;
    Counter tmCheckpoints_;
    Counter tmJournalEntries_;
    Counter tmJournalReplays_;
    Counter tmScrubPasses_;
    Counter tmScrubRepairs_;
    Counter tmScrubLost_;
    Counter tmCrashes_;
};

} // namespace divot::store

#endif // DIVOT_STORE_ENROLLMENT_DB_HH
