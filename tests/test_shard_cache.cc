/**
 * @file
 * Tests for the ShardImageCache and its EnrollmentDb integration: the
 * byte budget holds under any access pattern, frequency-based
 * admission pins a hot subset where plain LRU would thrash, a
 * side-effect-free `resident` lookup leaves every decision to the
 * serial replay, a parallel batch read answers and decides exactly
 * like one-shard reads issued serially, write-through and damage
 * invalidation keep the cache coherent with the image layer, and the
 * stable telemetry export is byte-identical with the cache on or off.
 * The cache fills only by write-through (`update`), so every case
 * drives it through `update`/`peek` or the db's batch read.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "store/codec.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"
#include "store/shard_cache.hh"
#include "telemetry/telemetry.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace divot::store {
namespace {

Fingerprint
testFingerprint(double seed)
{
    Waveform raw(1e-12, {seed, seed + 1.0, seed + 2.0, seed * 0.5});
    Waveform residual(1e-12, {0.5, -0.5, 0.5, -0.5});
    return Fingerprint::fromParts(raw, residual,
                                  "fp" + std::to_string(seed));
}

EnrollmentRecord
testRecord(const std::string &id, double seed)
{
    EnrollmentRecord rec;
    rec.id = id;
    rec.fp = testFingerprint(seed);
    rec.nominal = Waveform(1e-12, {seed, seed});
    rec.generation = 1;
    return rec;
}

/** Fresh empty db directory under the test temp dir. */
std::string
freshDir(const char *name)
{
    const std::string dir = std::string(::testing::TempDir()) + name;
    ensureDir(dir);
    for (unsigned s = 0; s < 64; ++s) {
        const std::string shard =
            dir + "/shard-" + std::to_string(s) + ".bin";
        removeFile(shard);
        removeFile(shard + ".tmp");
        removeFile(shard + ".corrupt");
    }
    removeFile(dir + "/journal.wal");
    return dir;
}

/** A one-record view of deterministic size. */
ShardView
viewFor(unsigned shard)
{
    ShardView view;
    const std::string id = "sh" + std::to_string(shard);
    view.records[id] = testRecord(id, shard);
    view.clean = true;
    view.accountBytes();
    return view;
}

std::size_t
oneViewBytes()
{
    return viewFor(0).bytes;
}

// --------------------------------------------------------------------
// Cache unit behavior

TEST(ShardCache, BudgetHoldsAndLruEvicts)
{
    const std::size_t unit = oneViewBytes();
    ShardCacheConfig cfg;
    cfg.shards = 16;
    cfg.budgetBytes = 3 * unit; // room for three views
    ShardImageCache cache(cfg);

    for (unsigned s = 0; s < 16; ++s) {
        cache.update(s, viewFor(s));
        EXPECT_LE(cache.stats().bytes, cfg.budgetBytes);
    }
    const ShardCacheStats stats = cache.stats();
    EXPECT_EQ(stats.updates, 16u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.peakBytes, cfg.budgetBytes);

    // Cold scan with equal frequencies: the most recent admissions
    // are the residents, the oldest were evicted.
    EXPECT_EQ(cache.peek(0), nullptr);
    EXPECT_NE(cache.peek(15), nullptr);
}

TEST(ShardCache, AdmissionPinsHotShardUnderScan)
{
    const std::size_t unit = oneViewBytes();
    ShardCacheConfig cfg;
    cfg.shards = 32;
    cfg.budgetBytes = 2 * unit;
    ShardImageCache cache(cfg);

    // Heat shard 0 well past any scan candidate's frequency.
    cache.update(0, viewFor(0));
    for (int i = 0; i < 7; ++i)
        ASSERT_NE(cache.peek(0), nullptr);

    // A scan of rewrites whose working set dwarfs the budget. Plain
    // LRU would evict shard 0 on the first write-through that needs
    // its slot; admission control must refuse to evict the hotter
    // resident.
    for (unsigned s = 1; s < 32; ++s)
        cache.update(s, viewFor(s));

    const ShardCacheStats stats = cache.stats();
    EXPECT_NE(cache.peek(0), nullptr);
    EXPECT_EQ(stats.hits, 7u); // accesses 2..8 of shard 0
    EXPECT_GT(stats.rejections, 0u);
    EXPECT_LE(stats.bytes, cfg.budgetBytes);
}

TEST(ShardCache, OversizedViewServedTransientlyNeverStored)
{
    ShardCacheConfig cfg;
    cfg.shards = 4;
    cfg.budgetBytes = 64; // smaller than any real view
    ShardImageCache cache(cfg);

    cache.update(1, viewFor(1));
    EXPECT_EQ(cache.peek(1), nullptr);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_GT(cache.stats().rejections, 0u);

    // Through the db: the rejected shard is still served, by a point
    // read of its image.
    EnrollmentDbConfig dbCfg;
    dbCfg.directory = freshDir("cache_oversized");
    dbCfg.shards = 1;
    dbCfg.shardCacheBytes = 64;
    EnrollmentDb db(dbCfg);
    ASSERT_TRUE(db.open());
    std::vector<std::string> ids;
    for (int i = 0; i < 4; ++i) {
        ids.push_back("big" + std::to_string(i));
        ASSERT_TRUE(db.put(testRecord(ids.back(), i)));
    }
    ASSERT_TRUE(db.checkpoint());
    EXPECT_GT(db.cacheStats().rejections, 0u);
    EXPECT_EQ(db.cacheStats().bytes, 0u);
    ThreadPool pool(1);
    const std::vector<ShardRead> got =
        db.readRecords({ShardReadGroup{0, ids}}, pool);
    EXPECT_FALSE(got[0].fromCache);
    for (std::size_t k = 0; k < ids.size(); ++k)
        EXPECT_EQ(got[0].reads[k].status, DbGetStatus::Ok) << ids[k];
    EXPECT_EQ(db.cacheStats().bytes, 0u);
}

TEST(ShardCache, ResidentLookupHasNoSideEffects)
{
    const std::size_t unit = oneViewBytes();
    ShardCacheConfig cfg;
    cfg.shards = 4;
    cfg.budgetBytes = 2 * unit;
    ShardImageCache cache(cfg);
    cache.update(0, viewFor(0));
    cache.update(1, viewFor(1));

    const ShardCacheStats before = cache.stats();
    for (int i = 0; i < 8; ++i) {
        EXPECT_NE(cache.resident(0), nullptr);
        EXPECT_EQ(cache.resident(2), nullptr);
    }
    const ShardCacheStats after = cache.stats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);

    // Shard 0 is still the LRU victim at its old frequency: had the
    // lookups touched it, shard 1 would be the one evicted.
    cache.update(2, viewFor(2));
    EXPECT_EQ(cache.resident(0), nullptr);
    EXPECT_NE(cache.resident(1), nullptr);
    EXPECT_NE(cache.resident(2), nullptr);
}

// --------------------------------------------------------------------
// EnrollmentDb integration

EnrollmentDbConfig
cachedConfig(const std::string &dir)
{
    EnrollmentDbConfig cfg;
    cfg.directory = dir;
    cfg.shards = 1; // all records in one image
    cfg.overlayFlushRecords = 4;
    cfg.shardCacheBytes = 1u << 20;
    return cfg;
}

/** Batch-read `ids` (all routed to shard 0) in one group. */
ShardRead
readShard0(EnrollmentDb &db, const std::vector<std::string> &ids)
{
    ThreadPool pool(1);
    return db.readRecords({ShardReadGroup{0, ids}}, pool).front();
}

TEST(ShardCacheDb, WriteThroughServesFreshRecords)
{
    const std::string dir = freshDir("cache_wt");
    EnrollmentDb db(cachedConfig(dir));
    ASSERT_TRUE(db.open());
    std::vector<std::string> ids;
    for (int i = 0; i < 4; ++i) {
        ids.push_back("wt" + std::to_string(i));
        ASSERT_TRUE(db.put(testRecord(ids.back(), i)));
    }
    ASSERT_TRUE(db.checkpoint());

    // The flush wrote the image through: no disk read.
    const ShardRead first = readShard0(db, ids);
    EXPECT_TRUE(first.fromCache);
    for (const RecordRead &read : first.reads)
        EXPECT_EQ(read.status, DbGetStatus::Ok);

    // Rewrite one record through the normal mutation path; the flush
    // must write through so the next cached read sees generation 2.
    EnrollmentRecord fresh = testRecord("wt1", 41.0);
    fresh.generation = 2;
    ASSERT_TRUE(db.put(fresh));
    ASSERT_TRUE(db.checkpoint());

    const ShardRead after = readShard0(db, ids);
    EXPECT_TRUE(after.fromCache);
    EXPECT_EQ(after.reads[1].status, DbGetStatus::Ok);
    EXPECT_EQ(after.reads[1].record.generation, 2u);
    EXPECT_GT(db.cacheStats().updates, 0u);

    EnrollmentRecord out;
    EXPECT_EQ(db.get("wt1", out), DbGetStatus::Ok);
    EXPECT_EQ(out.generation, 2u);
}

TEST(ShardCacheDb, RotInvalidatesAndScrubRewriteRefreshes)
{
    const std::string dir = freshDir("cache_rot");
    const EnrollmentDbConfig cfg = cachedConfig(dir);
    std::vector<std::string> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back("rot" + std::to_string(i));
    {
        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(db.put(testRecord(ids[i], i)));
        ASSERT_TRUE(db.checkpoint());
    }

    std::vector<char> pristine;
    {
        EnrollmentDb peek(cfg);
        ASSERT_TRUE(readFile(peek.shardPath(0), pristine));
    }
    FaultPlan plan;
    plan.storageBitRot(4, 1, 3.0); // rot exactly one write: the 5th put
    const FaultInjector injector(plan, Rng(11));
    EnrollmentDb db(cfg);
    db.attachFaultInjector(&injector);
    ASSERT_TRUE(db.open());

    // Warm the cache on the clean image: re-putting the four records
    // fills the overlay, and its flush writes the image through.
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(db.put(testRecord(ids[i], i)));
    ASSERT_TRUE(readShard0(db, ids).fromCache);

    // Land the rot.
    ASSERT_TRUE(db.put(testRecord("extra", 9.0)));
    std::vector<char> rotted;
    ASSERT_TRUE(readFile(db.shardPath(0), rotted));
    ASSERT_NE(pristine, rotted);

    // Damage invalidated the entry: the next read goes to the rotted
    // bytes, not the stale clean view.
    const ShardRead damaged = readShard0(db, ids);
    EXPECT_FALSE(damaged.fromCache);
    EXPECT_GT(db.cacheStats().invalidations, 0u);

    // Scrub rewrites a pristine dual-bank image and writes through;
    // the cached view must match the repaired on-disk content.
    const ScrubResult scrub = db.scrubShard(0);
    EXPECT_TRUE(scrub.scanned);
    EXPECT_TRUE(scrub.lostIds.empty());
    std::vector<std::string> all = ids;
    all.push_back("extra");
    all.push_back("never-written");
    const ShardRead repaired = readShard0(db, all);
    EXPECT_TRUE(repaired.fromCache);
    for (std::size_t k = 0; k + 1 < all.size(); ++k)
        EXPECT_EQ(repaired.reads[k].status, DbGetStatus::Ok) << all[k];
    // Only a clean view settles a miss without asking the image.
    EXPECT_EQ(repaired.reads.back().status, DbGetStatus::Missing);
    for (int i = 0; i < 4; ++i) {
        EnrollmentRecord out;
        EXPECT_EQ(db.get(ids[i], out), DbGetStatus::Ok);
    }
}

TEST(ShardCacheDb, BatchReadMatchesSerialReads)
{
    // Two identical dbs whose cache holds only part of the shard set:
    // one is read one group per call on a single thread, the other
    // through one parallel batch call. Every answer and every cache decision must agree, also
    // after write-through rewrites that evict by the replayed order.
    auto filled = [](const char *name) {
        EnrollmentDbConfig cfg;
        cfg.directory = freshDir(name);
        cfg.shards = 8;
        cfg.shardCacheBytes = 12 * oneViewBytes();
        auto db = std::make_unique<EnrollmentDb>(cfg);
        EXPECT_TRUE(db->open());
        for (int i = 0; i < 40; ++i)
            EXPECT_TRUE(db->put(testRecord("b" + std::to_string(i), i)));
        EXPECT_TRUE(db->checkpoint());
        return db;
    };
    const std::unique_ptr<EnrollmentDb> serial = filled("cache_batch_s");
    const std::unique_ptr<EnrollmentDb> batch = filled("cache_batch_b");

    std::map<unsigned, std::vector<std::string>> byShard;
    for (int i = 0; i < 40; ++i) {
        const std::string id = "b" + std::to_string(i);
        byShard[serial->shardOf(id)].push_back(id);
    }
    for (int i = 0; i < 8; ++i) {
        const std::string id = "absent" + std::to_string(i);
        byShard[serial->shardOf(id)].push_back(id);
    }
    std::vector<ShardReadGroup> groups;
    for (const auto &[shard, ids] : byShard)
        groups.push_back(ShardReadGroup{shard, ids});

    ThreadPool pool(4);
    ThreadPool one(1);
    for (int round = 0; round < 3; ++round) {
        const std::vector<ShardRead> got = batch->readRecords(groups, pool);
        ASSERT_EQ(got.size(), groups.size());
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const ShardRead want =
                serial->readRecords({groups[g]}, one).front();
            EXPECT_EQ(got[g].fromCache, want.fromCache)
                << "shard " << groups[g].shard;
            ASSERT_EQ(got[g].reads.size(), want.reads.size());
            for (std::size_t k = 0; k < want.reads.size(); ++k) {
                EXPECT_EQ(got[g].reads[k].status, want.reads[k].status)
                    << groups[g].ids[k];
                EXPECT_EQ(got[g].reads[k].record.id,
                          want.reads[k].record.id);
                EXPECT_EQ(got[g].reads[k].record.generation,
                          want.reads[k].record.generation);
            }
        }
        // Rewrite two shards between rounds: their write-through
        // admissions evict whatever the replayed reads left coldest.
        for (EnrollmentDb *db : {serial.get(), batch.get()}) {
            EnrollmentRecord fresh = testRecord("b" + std::to_string(round),
                                                100.0 + round);
            fresh.generation = 2 + round;
            ASSERT_TRUE(db->put(fresh));
            ASSERT_TRUE(db->put(testRecord(
                "b" + std::to_string(20 + round), 200.0 + round)));
            ASSERT_TRUE(db->checkpoint());
        }
    }
    const ShardCacheStats a = serial->cacheStats();
    const ShardCacheStats b = batch->cacheStats();
    EXPECT_GT(a.hits, 0u);
    EXPECT_GT(a.misses, 0u);
    EXPECT_GT(a.evictions, 0u);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.admissions, b.admissions);
    EXPECT_EQ(a.rejections, b.rejections);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.updates, b.updates);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.peakBytes, b.peakBytes);
}

TEST(ShardCacheDb, StableExportIdenticalCacheOnOff)
{
    auto drive = [](const std::string &dir, std::size_t cache_bytes,
                    std::string &json) {
        EnrollmentDbConfig cfg;
        cfg.directory = dir;
        cfg.shards = 4;
        cfg.overlayFlushRecords = 4;
        cfg.shardCacheBytes = cache_bytes;
        Telemetry telemetry;
        EnrollmentDb db(cfg);
        db.attachTelemetry(&telemetry);
        ASSERT_TRUE(db.open());
        for (int i = 0; i < 24; ++i)
            ASSERT_TRUE(db.put(
                testRecord("ch" + std::to_string(i), i)));
        for (int i = 0; i < 24; i += 3) {
            EnrollmentRecord out;
            EXPECT_EQ(db.get("ch" + std::to_string(i), out),
                      DbGetStatus::Ok);
        }
        std::vector<ShardReadGroup> groups(cfg.shards);
        for (unsigned s = 0; s < cfg.shards; ++s)
            groups[s].shard = s;
        for (int i = 0; i < 24; ++i) {
            const std::string id = "ch" + std::to_string(i);
            groups[db.shardOf(id)].ids.push_back(id);
        }
        ThreadPool pool(2);
        for (const ShardRead &read : db.readRecords(groups, pool))
            for (const RecordRead &record : read.reads)
                EXPECT_EQ(record.status, DbGetStatus::Ok);
        ASSERT_TRUE(db.checkpoint());
        json = telemetry.exportJson();
    };

    std::string with_cache;
    std::string without_cache;
    drive(freshDir("cache_tm_on"), 1u << 20, with_cache);
    drive(freshDir("cache_tm_off"), 0, without_cache);
    EXPECT_EQ(with_cache, without_cache);

    // Sanity: the cached run did count cache traffic (in the unstable
    // tier, invisible above).
    const std::string dir = freshDir("cache_tm_on2");
    EnrollmentDbConfig cfg;
    cfg.directory = dir;
    cfg.shards = 4;
    cfg.overlayFlushRecords = 4;
    cfg.shardCacheBytes = 1u << 20;
    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(db.put(testRecord("s" + std::to_string(i), i)));
    ASSERT_TRUE(db.checkpoint());
    std::vector<std::string> ids;
    for (int i = 0; i < 8; ++i) {
        const std::string id = "s" + std::to_string(i);
        if (db.shardOf(id) == 0)
            ids.push_back(id);
    }
    ASSERT_FALSE(ids.empty());
    readShard0(db, ids);
    readShard0(db, ids);
    EXPECT_GT(db.cacheStats().hits, 0u);
    EXPECT_GT(db.cacheStats().updates, 0u);
}

} // namespace
} // namespace divot::store
