/**
 * @file
 * Tests for the crash-safe sharded EnrollmentDb: codec roundtrips,
 * dual-bank recovery, write-ahead journal replay, the power-cut
 * matrix (a crash at every commit point leaves either the old or the
 * new state reachable, never junk), scrub repair, the stable store.*
 * telemetry counters, and the v4 record index: point reads that agree
 * with the whole-image parse under corruption, index-only `ids()`,
 * and v3 images that stay readable until their next rewrite; and the
 * EnrollmentStore EPROM image, which is a one-shard v4 image.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "auth/enrollment.hh"
#include "fault/fault.hh"
#include "store/codec.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"
#include "telemetry/telemetry.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

#ifndef DIVOT_GOLDEN_DIR
#error "DIVOT_GOLDEN_DIR must point at the checked-in golden directory"
#endif

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

/**
 * Fresh empty db directory under the test temp dir. Suffixed with the
 * pid: parameterized instances run as concurrent ctest entries, and a
 * shared path would let one instance's cleanup race another's replay.
 */
std::string
freshDir(const char *name)
{
    const std::string dir = std::string(::testing::TempDir()) + name +
        "_" + std::to_string(static_cast<long>(::getpid()));
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

EnrollmentDbConfig
smallConfig(const std::string &dir)
{
    EnrollmentDbConfig cfg;
    cfg.directory = dir;
    cfg.shards = 4;
    cfg.overlayFlushRecords = 4;
    return cfg;
}

bool
sameRecord(const EnrollmentRecord &a, const EnrollmentRecord &b)
{
    return a.id == b.id &&
        a.fp.raw().samples() == b.fp.raw().samples() &&
        a.fp.residual().samples() == b.fp.residual().samples() &&
        a.nominal.samples() == b.nominal.samples() &&
        a.flags == b.flags && a.generation == b.generation;
}

// --------------------------------------------------------------------
// Codec

TEST(StoreCodec, RecordBodyRoundtrip)
{
    const EnrollmentRecord rec = testRecord("dimm0.clk", 3.0);
    EnrollmentRecord back;
    ASSERT_TRUE(decodeRecordBody(encodeRecordBody(rec), back));
    EXPECT_TRUE(sameRecord(rec, back));
}

TEST(StoreCodec, DecodeRejectsEmptyRaw)
{
    EnrollmentRecord rec = testRecord("x", 1.0);
    rec.fp = Fingerprint::fromParts(Waveform(), Waveform(), "empty");
    EnrollmentRecord back;
    EXPECT_FALSE(decodeRecordBody(encodeRecordBody(rec), back));
}

TEST(StoreCodec, ShardImageRoundtrip)
{
    std::map<std::string, EnrollmentRecord> records;
    for (int i = 0; i < 5; ++i) {
        const std::string id = "ch" + std::to_string(i);
        records[id] = testRecord(id, i);
    }
    const std::vector<char> image = buildShardImage(records);
    std::map<std::string, EnrollmentRecord> back;
    const ShardParseReport report = parseShardImage(image, back);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.bankUsed, 0);
    EXPECT_FALSE(report.fellBack);
    ASSERT_EQ(back.size(), records.size());
    for (const auto &[id, rec] : records)
        EXPECT_TRUE(sameRecord(rec, back.at(id)));
}

TEST(StoreCodec, SingleByteCorruptionAlwaysRecovers)
{
    std::map<std::string, EnrollmentRecord> records;
    for (int i = 0; i < 3; ++i) {
        const std::string id = "wire" + std::to_string(i);
        records[id] = testRecord(id, i + 10);
    }
    const std::vector<char> image = buildShardImage(records);
    // Any single flipped byte damages at most one bank: the parse
    // must still recover every record.
    for (std::size_t pos = 0; pos < image.size();
         pos += std::max<std::size_t>(1, image.size() / 97)) {
        std::vector<char> bad = image;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x41);
        std::map<std::string, EnrollmentRecord> back;
        const ShardParseReport report = parseShardImage(bad, back);
        ASSERT_TRUE(report.ok) << "byte " << pos;
        ASSERT_EQ(back.size(), records.size()) << "byte " << pos;
        for (const auto &[id, rec] : records)
            EXPECT_TRUE(sameRecord(rec, back.at(id)))
                << "byte " << pos;
    }
}

TEST(StoreCodec, FindShardRecordStatuses)
{
    std::map<std::string, EnrollmentRecord> records;
    records["aa"] = testRecord("aa", 1);
    records["bb"] = testRecord("bb", 2);
    const std::vector<char> image = buildShardImage(records);

    EnrollmentRecord out;
    EXPECT_EQ(findShardRecord(image, "aa", out), 1);
    EXPECT_TRUE(sameRecord(records["aa"], out));
    EXPECT_EQ(findShardRecord(image, "zz", out), 0);
}

TEST(StoreCodec, ChannelHashIsStable)
{
    // Pinned values: shard routing must never change across builds
    // or platforms, or existing databases would scatter.
    EXPECT_EQ(channelHash(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(channelHash("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(channelHash("ch0"), channelHash(std::string("ch0")));
    EXPECT_NE(channelHash("ch0"), channelHash("ch1"));
}

// --------------------------------------------------------------------
// EnrollmentDb basics

TEST(EnrollmentDb, PutGetEraseRoundtrip)
{
    const std::string dir = freshDir("db_basic");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());

    const EnrollmentRecord rec = testRecord("dimm0.clk", 7.0);
    EXPECT_TRUE(db.put(rec));

    EnrollmentRecord out;
    EXPECT_EQ(db.get("dimm0.clk", out), DbGetStatus::Ok);
    EXPECT_TRUE(sameRecord(rec, out));
    EXPECT_EQ(db.get("ghost", out), DbGetStatus::Missing);

    EXPECT_TRUE(db.erase("dimm0.clk"));
    EXPECT_EQ(db.get("dimm0.clk", out), DbGetStatus::Missing);
}

TEST(EnrollmentDb, OpenFailsOnMissingDirectory)
{
    EnrollmentDbConfig cfg;
    cfg.directory =
        std::string(::testing::TempDir()) + "does_not_exist_xyz";
    EnrollmentDb db(cfg);
    EXPECT_FALSE(db.open());
}

TEST(EnrollmentDb, JournalReplayRecoversUnflushedMutations)
{
    const std::string dir = freshDir("db_replay");
    const EnrollmentRecord rec = testRecord("ch.a", 1.0);
    {
        EnrollmentDb db(smallConfig(dir));
        ASSERT_TRUE(db.open());
        EXPECT_TRUE(db.put(rec));
        // No checkpoint, overlay below the flush threshold: the only
        // durable copy lives in the journal.
    }
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    EXPECT_EQ(db.replayedEntries(), 1u);
    EnrollmentRecord out;
    EXPECT_EQ(db.get("ch.a", out), DbGetStatus::Ok);
    EXPECT_TRUE(sameRecord(rec, out));
}

TEST(EnrollmentDb, CheckpointFlushesAndTruncatesJournal)
{
    const std::string dir = freshDir("db_ckpt");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(db.put(
            testRecord("ch" + std::to_string(i), i)));
    EXPECT_TRUE(db.checkpoint());
    EXPECT_EQ(fileSize(db.journalPath()), 0);

    // A fresh handle reads everything from shard images alone.
    EnrollmentDb db2(smallConfig(dir));
    ASSERT_TRUE(db2.open());
    EXPECT_EQ(db2.replayedEntries(), 0u);
    for (int i = 0; i < 6; ++i) {
        EnrollmentRecord out;
        EXPECT_EQ(db2.get("ch" + std::to_string(i), out),
                  DbGetStatus::Ok);
    }
}

TEST(EnrollmentDb, BatchReadSeesUnflushedOverlay)
{
    // The batch read settles ids the way get() does: a pending put
    // answers its fresh record and a pending erase answers Missing
    // before the image is consulted, and the cache still sees exactly
    // one access per group.
    const std::string dir = freshDir("db_batch_overlay");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.shards = 1;
    cfg.overlayFlushRecords = 64; // nothing below flushes on its own
    cfg.shardCacheBytes = 1u << 20;
    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(db.put(testRecord("ov" + std::to_string(i), i)));
    ASSERT_TRUE(db.checkpoint()); // image + write-through view

    EnrollmentRecord fresh = testRecord("ov1", 11.0);
    fresh.generation = 2;
    ASSERT_TRUE(db.put(fresh));
    ASSERT_TRUE(db.erase("ov2"));
    ASSERT_TRUE(db.put(testRecord("ov9", 9.0)));

    const ShardCacheStats before = db.cacheStats();
    ThreadPool pool(2);
    const std::vector<std::string> ids = {"ov0", "ov1", "ov2", "ov9",
                                          "ghost"};
    const std::vector<ShardRead> got =
        db.readRecords({ShardReadGroup{0, ids}}, pool);
    const ShardCacheStats after = db.cacheStats();

    ASSERT_EQ(got.size(), 1u);
    const std::vector<RecordRead> &reads = got[0].reads;
    EXPECT_TRUE(got[0].fromCache);
    EXPECT_EQ(reads[0].status, DbGetStatus::Ok);
    EXPECT_TRUE(sameRecord(reads[0].record, testRecord("ov0", 0.0)));
    EXPECT_EQ(reads[1].status, DbGetStatus::Ok);
    EXPECT_TRUE(sameRecord(reads[1].record, fresh));
    EXPECT_EQ(reads[2].status, DbGetStatus::Missing);
    EXPECT_EQ(reads[3].status, DbGetStatus::Ok);
    EXPECT_TRUE(sameRecord(reads[3].record, testRecord("ov9", 9.0)));
    EXPECT_EQ(reads[4].status, DbGetStatus::Missing);
    for (std::size_t k = 0; k < ids.size(); ++k) {
        EnrollmentRecord out;
        EXPECT_EQ(db.get(ids[k], out), reads[k].status) << ids[k];
    }

    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.admissions, before.admissions);
    EXPECT_EQ(after.rejections, before.rejections);
    EXPECT_EQ(after.evictions, before.evictions);
    EXPECT_EQ(after.updates, before.updates);
    EXPECT_EQ(after.invalidations, before.invalidations);
    EXPECT_EQ(after.bytes, before.bytes);

    // Without a cache the overlay still answers first; the ids it
    // leaves go to a point read of the image.
    EnrollmentDbConfig bare = cfg;
    bare.shardCacheBytes = 0;
    EnrollmentDb reopened(bare);
    ASSERT_TRUE(reopened.open()); // replays the three pending entries
    const std::vector<ShardRead> again =
        reopened.readRecords({ShardReadGroup{0, ids}}, pool);
    EXPECT_FALSE(again[0].fromCache);
    for (std::size_t k = 0; k < ids.size(); ++k) {
        EXPECT_EQ(again[0].reads[k].status, reads[k].status) << ids[k];
        EXPECT_EQ(again[0].reads[k].record.generation,
                  reads[k].record.generation);
    }
}

TEST(EnrollmentDb, SetFlagsPersists)
{
    const std::string dir = freshDir("db_flags");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    ASSERT_TRUE(db.put(testRecord("q.ch", 2.0)));
    EXPECT_TRUE(db.setFlags("q.ch", kRecordQuarantined));
    EXPECT_FALSE(db.setFlags("ghost", kRecordQuarantined));

    EnrollmentDb db2(smallConfig(dir));
    ASSERT_TRUE(db2.open());
    EnrollmentRecord out;
    ASSERT_EQ(db2.get("q.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(out.flags, kRecordQuarantined);
}

TEST(EnrollmentDb, IdsMergesShardsAndOverlays)
{
    const std::string dir = freshDir("db_ids");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    for (int i = 0; i < 7; ++i)
        ASSERT_TRUE(db.put(testRecord("w" + std::to_string(i), i)));
    ASSERT_TRUE(db.erase("w3"));
    std::vector<std::string> ids = db.ids();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids.size(), 6u);
    EXPECT_TRUE(std::find(ids.begin(), ids.end(), "w3") == ids.end());
}

// --------------------------------------------------------------------
// Crash matrix: one power cut at every commit point; after recovery
// the record is either fully present or fully absent — never junk.

class EnrollmentDbCrash
    : public ::testing::TestWithParam<StorageCrashPoint>
{
};

TEST_P(EnrollmentDbCrash, PowerCutLeavesOldOrNewState)
{
    const StorageCrashPoint point = GetParam();
    const std::string dir = freshDir("db_crash");

    // Seed one committed record, then crash the second put.
    FaultPlan plan;
    plan.storageCrash(1, point);
    const FaultInjector injector(plan, Rng(99));

    const EnrollmentRecord first = testRecord("stable.ch", 1.0);
    const EnrollmentRecord second = testRecord("victim.ch", 2.0);
    bool putReportedDurable = false;
    {
        EnrollmentDb db(smallConfig(dir));
        db.attachFaultInjector(&injector);
        ASSERT_TRUE(db.open());
        ASSERT_TRUE(db.put(first));
        putReportedDurable = db.put(second);
        if (point == StorageCrashPoint::AfterCommit)
            EXPECT_TRUE(putReportedDurable);
        else
            EXPECT_FALSE(putReportedDurable);
        EXPECT_FALSE(db.alive());
        // A dead handle refuses everything.
        EnrollmentRecord out;
        EXPECT_FALSE(db.put(testRecord("late.ch", 3.0)));
        EXPECT_FALSE(db.checkpoint());
    }

    // Recovery: fresh handle on the same directory.
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    EnrollmentRecord out;
    ASSERT_EQ(db.get("stable.ch", out), DbGetStatus::Ok)
        << "committed record lost";
    EXPECT_TRUE(sameRecord(first, out));

    const DbGetStatus victim = db.get("victim.ch", out);
    switch (point) {
    case StorageCrashPoint::BeforeWrite:
        EXPECT_EQ(victim, DbGetStatus::Missing);
        break;
    case StorageCrashPoint::AfterJournal:
    case StorageCrashPoint::BeforeCommit:
    case StorageCrashPoint::AfterCommit:
        // The journal entry was durable before the cut: replay must
        // recover the mutation in full.
        ASSERT_EQ(victim, DbGetStatus::Ok);
        EXPECT_TRUE(sameRecord(second, out));
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPoints, EnrollmentDbCrash,
    ::testing::Values(StorageCrashPoint::BeforeWrite,
                      StorageCrashPoint::AfterJournal,
                      StorageCrashPoint::BeforeCommit,
                      StorageCrashPoint::AfterCommit));

TEST(EnrollmentDbFaults, TornJournalAppendDiscardsOnlyTheTail)
{
    const std::string dir = freshDir("db_torn");
    FaultPlan plan;
    plan.storageTornWrite(2, 0.3);
    const FaultInjector injector(plan, Rng(5));

    {
        EnrollmentDb db(smallConfig(dir));
        db.attachFaultInjector(&injector);
        ASSERT_TRUE(db.open());
        ASSERT_TRUE(db.put(testRecord("a.ch", 1.0)));
        ASSERT_TRUE(db.put(testRecord("b.ch", 2.0)));
        EXPECT_FALSE(db.put(testRecord("c.ch", 3.0))); // torn
        EXPECT_FALSE(db.alive());
    }

    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    EXPECT_EQ(db.replayedEntries(), 2u);
    EnrollmentRecord out;
    EXPECT_EQ(db.get("a.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(db.get("b.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(db.get("c.ch", out), DbGetStatus::Missing);
    // The torn tail was truncated: the journal frames cleanly again.
    EXPECT_TRUE(db.put(testRecord("c.ch", 3.0)));
}

TEST(EnrollmentDbFaults, BitRotRecoversThroughSurvivingBank)
{
    const std::string dir = freshDir("db_rot");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.shards = 1; // all damage lands in one shard image
    {
        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(db.put(
                testRecord("rot" + std::to_string(i), i)));
        ASSERT_TRUE(db.checkpoint());
    }

    // Rot a couple of bits after the image exists (the put routes the
    // damage at the shard file). Stuck-at bits can be no-ops when the
    // forced level matches, so remember the pristine image and assert
    // real damage landed.
    std::vector<char> pristine;
    {
        EnrollmentDb peek(cfg);
        ASSERT_TRUE(readFile(peek.shardPath(0), pristine));
    }
    FaultPlan plan;
    // Rot exactly one write, the put: the scrub rewrite (IO event 1)
    // must land clean for the final strict-parse check.
    plan.storageBitRot(0, 1, 3.0);
    const FaultInjector injector(plan, Rng(11));
    EnrollmentDb db(cfg);
    db.attachFaultInjector(&injector);
    ASSERT_TRUE(db.open());
    ASSERT_TRUE(db.put(testRecord("extra", 9.0)));
    std::vector<char> rotted;
    ASSERT_TRUE(readFile(db.shardPath(0), rotted));
    ASSERT_NE(pristine, rotted);

    // Every original record still reads back: localized rot damages
    // at most one bank per record.
    for (int i = 0; i < 4; ++i) {
        EnrollmentRecord out;
        EXPECT_EQ(db.get("rot" + std::to_string(i), out),
                  DbGetStatus::Ok);
    }

    // Scrub rewrites a pristine image when anything was damaged.
    const ScrubResult scrub = db.scrubShard(0);
    EXPECT_TRUE(scrub.scanned);
    EXPECT_TRUE(scrub.lostIds.empty());
    EXPECT_EQ(scrub.lostUnnamed, 0u);

    std::vector<char> image;
    ASSERT_TRUE(readFile(db.shardPath(0), image));
    std::map<std::string, EnrollmentRecord> back;
    const ShardParseReport report = parseShardImage(image, back);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.bankUsed, 0);
    EXPECT_FALSE(report.fellBack);
    EXPECT_EQ(back.size(), 5u);
}

TEST(EnrollmentDbFaults, TruncationLosesTailNeverJunk)
{
    const std::string dir = freshDir("db_trunc");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.shards = 1;
    std::vector<std::string> ids;
    {
        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        for (int i = 0; i < 6; ++i) {
            ids.push_back("t" + std::to_string(i));
            ASSERT_TRUE(db.put(testRecord(ids.back(), i)));
        }
        ASSERT_TRUE(db.checkpoint());
    }

    // Chop the image down to 40%: bank B is gone, the tail of bank A
    // with it.
    const std::string shard =
        EnrollmentDb(cfg).shardPath(0);
    const int64_t size = fileSize(shard);
    ASSERT_GT(size, 0);
    ASSERT_TRUE(truncateFile(shard, static_cast<uint64_t>(
        0.4 * static_cast<double>(size))));

    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    std::size_t okCount = 0;
    for (const std::string &id : ids) {
        EnrollmentRecord out;
        const DbGetStatus st = db.get(id, out);
        if (st == DbGetStatus::Ok) {
            ++okCount;
            // Whatever survives must verify byte for byte.
            EXPECT_EQ(out.id, id);
            EXPECT_TRUE(out.fp.valid());
        } else {
            EXPECT_NE(st, DbGetStatus::Ok);
        }
    }
    EXPECT_LT(okCount, ids.size()); // something was genuinely lost

    // Scrub drops the lost records and reports them; the rewritten
    // image then reads strictly clean.
    const ScrubResult scrub = db.scrubShard(0);
    EXPECT_TRUE(scrub.scanned);
    EXPECT_EQ(scrub.lostIds.size() + scrub.lostUnnamed +
                  okCount,
              ids.size());

    std::vector<char> image;
    ASSERT_TRUE(readFile(shard, image));
    std::map<std::string, EnrollmentRecord> back;
    const ShardParseReport report = parseShardImage(image, back);
    EXPECT_TRUE(report.ok);
    EXPECT_FALSE(report.fellBack);
    EXPECT_EQ(back.size(), okCount);
}

TEST(EnrollmentDb, ScrubStepWalksShardsRoundRobin)
{
    const std::string dir = freshDir("db_scrubstep");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(db.put(testRecord("s" + std::to_string(i), i)));
    ASSERT_TRUE(db.checkpoint());
    for (unsigned s = 0; s < db.config().shards; ++s) {
        const ScrubResult r = db.scrubStep();
        EXPECT_TRUE(r.lostIds.empty());
    }
}

TEST(EnrollmentDb, ImportLegacyImage)
{
    // A v3 shard image imports through the same entry point.
    std::map<std::string, EnrollmentRecord> records;
    records["imp0"] = testRecord("imp0", 1);
    records["imp1"] = testRecord("imp1", 2);
    const std::vector<char> image = buildShardImage(records);

    const std::string dir = freshDir("db_import");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    EXPECT_EQ(db.importImage(image), 2u);
    EnrollmentRecord out;
    EXPECT_EQ(db.get("imp0", out), DbGetStatus::Ok);
    EXPECT_TRUE(sameRecord(records["imp0"], out));

    EXPECT_EQ(db.importImage(std::vector<char>(16, 'x')), 0u);
}

TEST(StoreCodec, RottedLengthFieldNeverOverflows)
{
    std::map<std::string, EnrollmentRecord> records;
    records["aa"] = testRecord("aa", 1);
    records["bb"] = testRecord("bb", 2);
    std::vector<char> image = buildShardImage(records);
    const std::size_t payloadLen =
        (image.size() - 2 * kBankHeaderSize) / 2;

    // Stuck-at-1 rot across bank A's first bodyLen field: the value
    // reads back near 2^64, where `body_len + 8` would wrap past the
    // frame bound. Bank B still serves every record.
    for (int i = 0; i < 8; ++i)
        image[kBankHeaderSize + 8 + i] = static_cast<char>(0xff);
    EnrollmentRecord out;
    EXPECT_EQ(findShardRecord(image, "aa", out), 1);
    EXPECT_TRUE(sameRecord(records["aa"], out));
    std::map<std::string, EnrollmentRecord> back;
    EXPECT_TRUE(parseShardImage(image, back).ok);
    EXPECT_EQ(back.size(), 2u);

    // Same rot in bank B's copy too: the lookup must fail cleanly as
    // damage (never walk past the buffer, never return junk).
    for (int i = 0; i < 8; ++i)
        image[kBankHeaderSize + payloadLen + 8 + i] =
            static_cast<char>(0xff);
    EXPECT_EQ(findShardRecord(image, "aa", out), -1);
    back.clear();
    const ShardParseReport report = parseShardImage(image, back);
    EXPECT_TRUE(back.empty());
    EXPECT_FALSE(report.unrecoverable.empty() && report.ok &&
                 report.records > 0);
}

TEST(EnrollmentDbFaults, RottedJournalLengthIsTornTail)
{
    const std::string dir = freshDir("db_rotlen");
    {
        EnrollmentDb db(smallConfig(dir));
        ASSERT_TRUE(db.open());
        ASSERT_TRUE(db.put(testRecord("keep.ch", 1.0)));
    }

    // Hand-append an entry whose length field rotted to all-ones
    // (0x4C414A44 is the journal frame magic). The huge length must
    // read as a torn tail, not wrap the bounds check and misalign the
    // rest of the walk.
    std::vector<char> evil;
    putU64(evil, (static_cast<uint64_t>(1) << 32) | 0x4C414A44u);
    putU64(evil, 1);     // seq
    putU64(evil, ~0ull); // rotted bodyLen
    evil.insert(evil.end(), 32, 'z');
    ASSERT_TRUE(appendFile(dir + "/journal.wal", evil));

    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    EXPECT_EQ(db.replayedEntries(), 1u);
    EnrollmentRecord out;
    EXPECT_EQ(db.get("keep.ch", out), DbGetStatus::Ok);
    // The rotted tail was truncated: appends frame cleanly again.
    EXPECT_TRUE(db.put(testRecord("new.ch", 2.0)));
    EnrollmentDb db2(smallConfig(dir));
    ASSERT_TRUE(db2.open());
    EXPECT_EQ(db2.get("keep.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(db2.get("new.ch", out), DbGetStatus::Ok);
}

TEST(EnrollmentDb, ScrubNeverWipesUnreadableShard)
{
    const std::string dir = freshDir("db_unreadable");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.shards = 1;
    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(db.put(testRecord("u" + std::to_string(i), i)));
    ASSERT_TRUE(db.checkpoint());

    // Wreck the whole image: nothing recoverable, and no way to even
    // count what was lost.
    std::vector<char> bytes;
    ASSERT_TRUE(readFile(db.shardPath(0), bytes));
    const std::vector<char> garbage(bytes.size(), 'x');
    ASSERT_TRUE(atomicWriteFile(db.shardPath(0), garbage));

    // Scrub must refuse the rewrite (it would silently wipe the
    // shard), flag the wholesale loss, and leave the bytes in place.
    const ScrubResult scrub = db.scrubShard(0);
    EXPECT_TRUE(scrub.scanned);
    EXPECT_TRUE(scrub.unreadable);
    EXPECT_FALSE(scrub.repaired);
    EXPECT_EQ(scrub.shard, 0u);
    std::vector<char> after;
    ASSERT_TRUE(readFile(db.shardPath(0), after));
    EXPECT_EQ(after, garbage);
    // Lookups report damage — never junk, never "provably absent".
    EnrollmentRecord out;
    EXPECT_EQ(db.get("u0", out), DbGetStatus::Unrecoverable);

    // An overlay flush over the unreadable image preserves the bytes
    // aside as .corrupt instead of destroying them.
    ASSERT_TRUE(db.put(testRecord("fresh", 9.0)));
    ASSERT_TRUE(db.checkpoint());
    std::vector<char> kept;
    ASSERT_TRUE(readFile(db.shardPath(0) + ".corrupt", kept));
    EXPECT_EQ(kept, garbage);
    EXPECT_EQ(db.get("fresh", out), DbGetStatus::Ok);
}

TEST(EnrollmentDbFaults, AfterCommitCrashStillCountsThePut)
{
    const std::string dir = freshDir("db_acct");
    Telemetry telemetry;
    FaultPlan plan;
    plan.storageCrash(0, StorageCrashPoint::AfterCommit);
    const FaultInjector injector(plan, Rng(3));
    EnrollmentDb db(smallConfig(dir));
    db.attachTelemetry(&telemetry);
    db.attachFaultInjector(&injector);
    ASSERT_TRUE(db.open());
    // The put is durable — it must land in store.puts even though the
    // handle dies at AfterCommit.
    EXPECT_TRUE(db.put(testRecord("acct.ch", 1.0)));
    EXPECT_FALSE(db.alive());

    const auto counters = telemetry.registry().counters();
    auto value = [&](const std::string &name) -> int64_t {
        for (const auto &c : counters)
            if (c.name == name)
                return static_cast<int64_t>(c.value);
        return -1;
    };
    EXPECT_EQ(value("store.puts"), 1);
    EXPECT_EQ(value("store.crashes"), 1);
}

TEST(EnrollmentDbGroupCommit, CrashBeforeCheckpointReplaysEverything)
{
    // Group commit defers the per-rename directory sync to the
    // checkpoint; the image data sync still runs on every rewrite. A
    // crash anywhere before that checkpoint must still
    // recover every acknowledged put: the journal is the covering
    // copy and replays over whatever image prefix survived.
    const std::string dir = freshDir("db_gc_crash");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.journalGroupCommit = true;
    std::vector<std::string> ids;
    {
        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        // Enough puts to force several deferred-sync shard flushes.
        for (int i = 0; i < 24; ++i) {
            ids.push_back("gc" + std::to_string(i));
            ASSERT_TRUE(db.put(testRecord(ids.back(), i)));
        }
        EXPECT_GT(fileSize(db.journalPath()), 0);
        // No checkpoint: the handle just dies (simulated power cut
        // with every deferred sync still pending).
    }
    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    EXPECT_GT(db.replayedEntries(), 0u);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        EnrollmentRecord out;
        EXPECT_EQ(db.get(ids[i], out), DbGetStatus::Ok) << ids[i];
        EXPECT_TRUE(sameRecord(out, testRecord(ids[i], double(i))));
    }
}

TEST(EnrollmentDbGroupCommit, ContentIdenticalToInlineSync)
{
    // The group-commit knob changes when durability is pinned, never
    // what lands on disk: the same mutation sequence must produce the
    // same readable database either way.
    auto drive = [](const std::string &dir, bool group) {
        EnrollmentDbConfig cfg;
        cfg.directory = dir;
        cfg.shards = 4;
        cfg.overlayFlushRecords = 4;
        cfg.journalGroupCommit = group;
        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        for (int i = 0; i < 16; ++i)
            ASSERT_TRUE(db.put(testRecord("c" + std::to_string(i), i)));
        ASSERT_TRUE(db.erase("c3"));
        ASSERT_TRUE(db.setFlags("c5", 2));
        ASSERT_TRUE(db.checkpoint());
        EXPECT_EQ(fileSize(db.journalPath()), 0);
    };
    const std::string inlineDir = freshDir("db_gc_inline");
    const std::string groupDir = freshDir("db_gc_group");
    drive(inlineDir, false);
    drive(groupDir, true);

    EnrollmentDbConfig a = smallConfig(inlineDir);
    EnrollmentDbConfig b = smallConfig(groupDir);
    EnrollmentDb dbA(a);
    EnrollmentDb dbB(b);
    ASSERT_TRUE(dbA.open());
    ASSERT_TRUE(dbB.open());
    EXPECT_EQ(dbA.ids(), dbB.ids());
    for (const std::string &id : dbA.ids()) {
        EnrollmentRecord ra;
        EnrollmentRecord rb;
        ASSERT_EQ(dbA.get(id, ra), DbGetStatus::Ok);
        ASSERT_EQ(dbB.get(id, rb), DbGetStatus::Ok);
        EXPECT_TRUE(sameRecord(ra, rb)) << id;
    }
    EnrollmentRecord out;
    EXPECT_EQ(dbA.get("c3", out), DbGetStatus::Missing);
    EXPECT_EQ(dbB.get("c3", out), DbGetStatus::Missing);
}

TEST(EnrollmentDbGroupCommit, TornJournalTailStillDiscardedCleanly)
{
    // The held-open journal handle must preserve the torn-tail model:
    // a torn append under group commit is discarded on replay exactly
    // like the open-per-append path.
    const std::string dir = freshDir("db_gc_torn");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.journalGroupCommit = true;
    FaultPlan plan;
    plan.storageTornWrite(2);
    const FaultInjector injector(plan, Rng(5));
    {
        EnrollmentDb db(cfg);
        db.attachFaultInjector(&injector);
        ASSERT_TRUE(db.open());
        ASSERT_TRUE(db.put(testRecord("a.ch", 1.0)));
        ASSERT_TRUE(db.put(testRecord("b.ch", 2.0)));
        EXPECT_FALSE(db.put(testRecord("c.ch", 3.0))); // torn mid-append
        EXPECT_FALSE(db.alive());
    }
    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    EnrollmentRecord out;
    EXPECT_EQ(db.get("a.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(db.get("b.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(db.get("c.ch", out), DbGetStatus::Missing);
    EXPECT_TRUE(db.put(testRecord("c.ch", 3.0)));
}

TEST(EnrollmentDb, TelemetryCountersAreStable)
{
    const std::string dir = freshDir("db_telemetry");
    Telemetry telemetry;
    EnrollmentDb db(smallConfig(dir));
    db.attachTelemetry(&telemetry);
    ASSERT_TRUE(db.open());
    ASSERT_TRUE(db.put(testRecord("tm.ch", 1.0)));
    EnrollmentRecord out;
    ASSERT_EQ(db.get("tm.ch", out), DbGetStatus::Ok);
    ASSERT_TRUE(db.checkpoint());

    const auto counters = telemetry.registry().counters();
    auto value = [&](const std::string &name) -> int64_t {
        for (const auto &c : counters)
            if (c.name == name)
                return static_cast<int64_t>(c.value);
        return -1;
    };
    EXPECT_EQ(value("store.puts"), 1);
    EXPECT_GE(value("store.gets"), 1);
    EXPECT_EQ(value("store.checkpoints"), 1);
    EXPECT_GE(value("store.journal.entries"), 1);
    EXPECT_EQ(value("store.crashes"), 0);
}


// --------------------------------------------------------------------
// v4 record index

/** Byte range [lo, hi) of `a` and `b` differs somewhere. */
bool
rangeDiffers(const std::vector<char> &a, const std::vector<char> &b,
             std::size_t lo, std::size_t hi)
{
    for (std::size_t i = lo; i < hi && i < a.size(); ++i) {
        if (a[i] != b[i])
            return true;
    }
    return false;
}

/**
 * The point read of a v4 image against the whole-image parse, for
 * every written id and a few never-written ones:
 *
 *  - a record the parse recovers is Ok with identical bytes;
 *  - Ok is only ever the original record under the requested id;
 *  - a written id is never Missing; a never-written id never Ok;
 *  - a record the parse names lost is Unrecoverable;
 *  - the one licensed disagreement: the index may serve a record the
 *    parse lost because both banks' salvage walks lost framing in
 *    front of it. Then, in each bank, the bytes that walk depends on
 *    (both bank headers, the locator, the count and the frames ahead
 *    of the record) or the record's own frame must have changed.
 */
class IndexedReadDifferential
{
  public:
    explicit IndexedReadDifferential(
        std::map<std::string, EnrollmentRecord> records)
        : records_(std::move(records)), pristine_(buildShardImage(records_))
    {
        payloadLen_ = (pristine_.size() - 2 * kBankHeaderSize) / 2;
        uint64_t offset = 8; // past the count field
        for (const auto &[id, rec] : records_) {
            const uint64_t len = encodeRecordBody(rec).size() + 16;
            frames_[id] = {offset, len};
            offset += len;
            ids_.push_back(id);
        }
        ids_.push_back("never.written");
        ids_.push_back("zz.ghost");
    }

    const std::vector<char> &pristine() const { return pristine_; }

    /** Check one damaged image; @return true when the parse salvaged. */
    bool
    check(const std::vector<char> &bad, const std::string &what)
    {
        std::map<std::string, EnrollmentRecord> parsed;
        const ShardParseReport report = parseShardImage(bad, parsed);
        std::set<std::string> namedLost;
        for (const RecordDamage &d : report.unrecoverable)
            namedLost.insert(d.id);
        const std::vector<RecordRead> reads =
            readShardRecords(ImageReader::of(bad), ids_);
        EXPECT_EQ(reads.size(), ids_.size()) << what;
        for (std::size_t i = 0; i < ids_.size() && i < reads.size(); ++i) {
            const std::string &id = ids_[i];
            const RecordRead &read = reads[i];
            const auto orig = records_.find(id);
            const auto got = parsed.find(id);
            if (orig == records_.end()) {
                EXPECT_NE(read.status, DbGetStatus::Ok) << what << id;
                continue;
            }
            EXPECT_NE(read.status, DbGetStatus::Missing) << what << id;
            if (read.status == DbGetStatus::Ok) {
                EXPECT_EQ(read.record.id, id) << what;
                EXPECT_TRUE(sameRecord(orig->second, read.record))
                    << what << id;
            }
            if (got != parsed.end()) {
                EXPECT_EQ(read.status, DbGetStatus::Ok) << what << id;
                EXPECT_TRUE(sameRecord(got->second, read.record))
                    << what << id;
                continue;
            }
            if (read.status == DbGetStatus::Ok) {
                EXPECT_TRUE(walksCannotReach(bad, id)) << what << id;
            } else if (namedLost.count(id) > 0) {
                EXPECT_EQ(read.status, DbGetStatus::Unrecoverable)
                    << what << id;
            }
        }
        return report.salvaged;
    }

  private:
    bool
    walksCannotReach(const std::vector<char> &bad,
                     const std::string &id) const
    {
        const auto [offset, len] = frames_.at(id);
        const std::size_t size = bad.size();
        const bool headers =
            rangeDiffers(bad, pristine_, 0, kBankHeaderSize) ||
            rangeDiffers(bad, pristine_, size - kBankHeaderSize, size);
        for (const std::size_t bank :
             {kBankHeaderSize, kBankHeaderSize + payloadLen_}) {
            const bool prefix =
                headers ||
                rangeDiffers(bad, pristine_, bank, bank + offset + 8) ||
                rangeDiffers(bad, pristine_,
                             bank + payloadLen_ - kIndexLocatorSize,
                             bank + payloadLen_);
            const bool frame = rangeDiffers(bad, pristine_, bank + offset,
                                            bank + offset + len);
            if (!prefix && !frame)
                return false;
        }
        return true;
    }

    std::map<std::string, EnrollmentRecord> records_;
    std::vector<char> pristine_;
    std::size_t payloadLen_ = 0;
    std::map<std::string, std::pair<uint64_t, uint64_t>> frames_;
    std::vector<std::string> ids_;
};

TEST(StoreCodecV4, PointReadAgreesWithParseUnderCorruption)
{
    std::map<std::string, EnrollmentRecord> records;
    std::vector<std::string> written;
    for (int i = 0; i < 12; ++i) {
        const std::string id = "dv" + std::string(i % 3 + 1, 'x') +
                               std::to_string(i);
        records[id] = testRecord(id, i + 0.5);
        written.push_back(id);
    }
    IndexedReadDifferential diff(records);
    const std::vector<char> &image = diff.pristine();

    // Clean image: every record Ok, ghosts Missing.
    const std::vector<RecordRead> clean = readShardRecords(
        ImageReader::of(image), {"dvx0", "ghost"});
    EXPECT_EQ(clean[0].status, DbGetStatus::Ok);
    EXPECT_EQ(clean[1].status, DbGetStatus::Missing);
    diff.check(image, "clean ");

    // Every sampled single-byte flip damages one bank at most.
    for (std::size_t pos = 0; pos < image.size();
         pos += std::max<std::size_t>(1, image.size() / 97)) {
        std::vector<char> bad = image;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x41);
        const std::string what = "flip " + std::to_string(pos) + " ";
        diff.check(bad, what);
        for (const RecordRead &read :
             readShardRecords(ImageReader::of(bad), written))
            EXPECT_EQ(read.status, DbGetStatus::Ok) << what;
    }

    // Seeded multi-byte rot, often across both banks.
    Rng rng(0x1D3Eu);
    int salvaged = 0;
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<char> bad = image;
        const unsigned flips = 2 + static_cast<unsigned>(rng.uniformInt(8));
        for (unsigned f = 0; f < flips; ++f) {
            const std::size_t pos =
                static_cast<std::size_t>(rng.uniformInt(bad.size()));
            bad[pos] = static_cast<char>(bad[pos] ^
                                         (1u << rng.uniformInt(8)));
        }
        if (diff.check(bad, "rot " + std::to_string(iter) + " "))
            ++salvaged;
    }
    // The sweep must reach the per-record salvage path, not only the
    // strict single-bank reads.
    EXPECT_GT(salvaged, 0);
}

TEST(StoreCodecV4, RottedLengthFieldsStillServeIndexedFrames)
{
    // Both banks lose framing at the first record: the salvage walk
    // recovers nothing, the index still locates every other frame.
    std::map<std::string, EnrollmentRecord> records;
    records["aa"] = testRecord("aa", 1);
    records["bb"] = testRecord("bb", 2);
    std::vector<char> image = buildShardImage(records);
    const std::size_t payloadLen =
        (image.size() - 2 * kBankHeaderSize) / 2;
    for (int i = 0; i < 8; ++i) {
        image[kBankHeaderSize + 8 + i] = static_cast<char>(0xff);
        image[kBankHeaderSize + payloadLen + 8 + i] =
            static_cast<char>(0xff);
    }
    const std::vector<RecordRead> reads =
        readShardRecords(ImageReader::of(image), {"aa", "bb", "cc"});
    EXPECT_EQ(reads[0].status, DbGetStatus::Unrecoverable);
    EXPECT_EQ(reads[1].status, DbGetStatus::Ok);
    EXPECT_TRUE(sameRecord(records["bb"], reads[1].record));
    EXPECT_EQ(reads[2].status, DbGetStatus::Missing);
}

TEST(StoreCodecV4, IndexPointingAtAnotherFrameNeverServesIt)
{
    // A forged index whose CRCs all verify but whose entries swap the
    // two frames: a frame is served only under the id it decodes to.
    std::map<std::string, EnrollmentRecord> records;
    records["aa"] = testRecord("aa", 1);
    records["bb"] = testRecord("bb", 2);
    std::vector<char> image = buildShardImage(records);
    const std::size_t payloadLen =
        (image.size() - 2 * kBankHeaderSize) / 2;
    std::vector<char> payload(image.begin() + kBankHeaderSize,
                              image.begin() + kBankHeaderSize + payloadLen);
    const std::size_t locator = payloadLen - kIndexLocatorSize;
    ByteReader loc(payload.data() + locator, kIndexLocatorSize);
    uint64_t indexOffset = 0, indexLen = 0;
    ASSERT_TRUE(loc.u64(indexOffset) && loc.u64(indexLen));
    // Entries: [n][8 "aa"][off][len][8 "bb"][off][len]; swap the
    // (off, len) pairs.
    const std::size_t first = indexOffset + 8 + 8 + 2;
    const std::size_t second = first + 16 + 8 + 2;
    std::swap_ranges(payload.begin() + first, payload.begin() + first + 16,
                     payload.begin() + second);
    std::vector<char> crc;
    putU64(crc, fnv1a(payload.data() + indexOffset, indexLen));
    std::copy(crc.begin(), crc.end(), payload.begin() + locator + 16);

    std::vector<char> forged;
    putU64(forged, (uint64_t{kShardVersion} << 32) | kStoreMagic);
    putU64(forged, payload.size());
    putU64(forged, fnv1a(payload));
    forged.insert(forged.end(), payload.begin(), payload.end());
    forged.insert(forged.end(), payload.begin(), payload.end());
    putU64(forged, fnv1a(payload));
    putU64(forged, payload.size());
    putU64(forged, (uint64_t{kShardVersion} << 32) | kStoreMagic);

    const std::vector<RecordRead> reads =
        readShardRecords(ImageReader::of(forged), {"aa", "bb"});
    EXPECT_EQ(reads[0].status, DbGetStatus::Unrecoverable);
    EXPECT_EQ(reads[1].status, DbGetStatus::Unrecoverable);
}

/** Ids of every record parseShardImage recovers from `path`. */
std::vector<std::string>
parsedIds(const std::string &path)
{
    std::vector<char> bytes;
    EXPECT_TRUE(readFile(path, bytes));
    std::map<std::string, EnrollmentRecord> records;
    parseShardImage(bytes, records);
    std::vector<std::string> ids;
    for (const auto &[id, rec] : records)
        ids.push_back(id);
    return ids;
}

TEST(EnrollmentDb, IdsFromIndexMatchFullParse)
{
    const std::string dir = freshDir("db_ids_index");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.shards = 1;
    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    for (int i = 0; i < 9; ++i)
        ASSERT_TRUE(db.put(testRecord("ix" + std::to_string(i), i)));
    ASSERT_TRUE(db.checkpoint());
    const std::string shard = db.shardPath(0);
    EXPECT_EQ(db.ids(), parsedIds(shard));
    EXPECT_EQ(db.ids().size(), 9u);

    std::vector<char> pristine;
    ASSERT_TRUE(readFile(shard, pristine));
    const std::size_t payloadLen =
        (pristine.size() - 2 * kBankHeaderSize) / 2;
    const std::size_t locatorA =
        kBankHeaderSize + payloadLen - kIndexLocatorSize;
    // Bank A's index, then a bank A frame, then bank B's index: one
    // bank damaged at a time.
    for (const std::size_t pos :
         {locatorA - 5, kBankHeaderSize + 40,
          locatorA + payloadLen - 5}) {
        std::vector<char> bad = pristine;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x24);
        ASSERT_TRUE(atomicWriteFile(shard, bad));
        EXPECT_EQ(db.ids(), parsedIds(shard)) << "byte " << pos;
        EXPECT_EQ(db.ids().size(), 9u) << "byte " << pos;
    }

    // Both indexes damaged: ids() parses the whole image instead.
    std::vector<char> bad = pristine;
    bad[locatorA - 5] = static_cast<char>(bad[locatorA - 5] ^ 0x24);
    bad[locatorA + payloadLen - 5] =
        static_cast<char>(bad[locatorA + payloadLen - 5] ^ 0x24);
    ASSERT_TRUE(atomicWriteFile(shard, bad));
    EXPECT_EQ(db.ids(), parsedIds(shard));
    EXPECT_EQ(db.ids().size(), 9u);
}

TEST(EnrollmentStore, SavedImageIsAShardImage)
{
    const std::string dir = freshDir("db_eprom");
    const std::string path = dir + "/eprom.bin";
    EnrollmentStore store;
    for (int i = 0; i < 3; ++i)
        store.enroll("eprom.ch" + std::to_string(i),
                     testFingerprint(i + 1.0));
    ASSERT_TRUE(store.saveToFile(path));
    std::vector<char> image;
    ASSERT_TRUE(readFile(path, image));

    std::map<std::string, EnrollmentRecord> parsed;
    const ShardParseReport report = parseShardImage(image, parsed);
    ASSERT_TRUE(report.ok);
    EXPECT_EQ(report.bankUsed, 0);
    EXPECT_FALSE(report.fellBack);
    ASSERT_EQ(parsed.size(), store.size());
    for (const auto &[id, rec] : parsed) {
        const auto fp = store.lookup(id);
        ASSERT_TRUE(fp.has_value()) << id;
        EXPECT_EQ(rec.fp.raw().samples(), fp->raw().samples()) << id;
        EXPECT_EQ(rec.fp.residual().samples(), fp->residual().samples())
            << id;
        EXPECT_EQ(rec.fp.label(), fp->label()) << id;
    }

    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    EXPECT_EQ(db.importImage(image), store.size());
    for (const auto &[id, rec] : parsed) {
        EnrollmentRecord out;
        ASSERT_EQ(db.get(id, out), DbGetStatus::Ok) << id;
        EXPECT_EQ(out.fp.raw().samples(), rec.fp.raw().samples()) << id;
    }

    // Damage record 1 in both banks (bank B mirrors bank A's payload
    // one payload length further on). Salvage recovers the other two
    // records, but the EPROM load accepts only a bank that verifies
    // whole, so it fails and keeps the in-memory store.
    const std::size_t payload_len =
        (image.size() - 2 * kBankHeaderSize) / 2;
    const std::size_t pos = std::string(image.begin(), image.end())
                                .find("eprom.ch1") + 30;
    ASSERT_LT(pos, kBankHeaderSize + payload_len);
    std::vector<char> bad = image;
    for (const std::size_t at : {pos, pos + payload_len})
        bad[at] = static_cast<char>(bad[at] ^ 0x11);
    ASSERT_TRUE(atomicWriteFile(path, bad));

    std::map<std::string, EnrollmentRecord> salvaged;
    const ShardParseReport salvage = parseShardImage(bad, salvaged);
    ASSERT_TRUE(salvage.ok);
    EXPECT_TRUE(salvage.salvaged);
    EXPECT_EQ(salvaged.size(), store.size() - 1);
    EXPECT_EQ(salvaged.count("eprom.ch1"), 0u);
    ASSERT_EQ(salvage.unrecoverable.size(), 1u);
    EXPECT_EQ(salvage.unrecoverable[0].id, "eprom.ch1");

    EnrollmentStore loaded;
    loaded.enroll("keep", testFingerprint(9.0));
    EXPECT_FALSE(loaded.loadFromFile(path));
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.contains("keep"));
    removeFile(path);
}

/** The records in tests/golden/shard_v3.bin (a 1-shard db). */
std::map<std::string, EnrollmentRecord>
v3FixtureRecords()
{
    std::map<std::string, EnrollmentRecord> records;
    for (int i = 0; i < 4; ++i) {
        const std::string id = "v3.ch" + std::to_string(i);
        records[id] = testRecord(id, i + 1.0);
    }
    records["v3.ch2"].flags = kRecordQuarantined;
    records["v3.ch2"].generation = 2;
    return records;
}

TEST(EnrollmentDb, V3ShardImageServedThenRewrittenAsV4)
{
    std::vector<char> fixture;
    ASSERT_TRUE(readFile(std::string(DIVOT_GOLDEN_DIR) + "/shard_v3.bin",
                         fixture));
    ASSERT_GE(fixture.size(), 2 * kBankHeaderSize);
    EXPECT_EQ(static_cast<unsigned char>(fixture[4]), kShardVersionV3);

    const std::string dir = freshDir("db_v3_fixture");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.shards = 1;
    EnrollmentDb db(cfg);
    ASSERT_TRUE(atomicWriteFile(db.shardPath(0), fixture));
    ASSERT_TRUE(db.open());

    const auto records = v3FixtureRecords();
    std::vector<std::string> ids;
    for (const auto &[id, rec] : records) {
        EnrollmentRecord out;
        ASSERT_EQ(db.get(id, out), DbGetStatus::Ok) << id;
        EXPECT_TRUE(sameRecord(rec, out)) << id;
        ids.push_back(id);
    }
    EnrollmentRecord out;
    EXPECT_EQ(db.get("v3.ghost", out), DbGetStatus::Missing);

    ids.push_back("v3.ghost");
    ThreadPool pool(1);
    const std::vector<RecordRead> reads =
        db.readRecords({ShardReadGroup{0, ids}}, pool).front().reads;
    ASSERT_EQ(reads.size(), ids.size());
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
        EXPECT_EQ(reads[i].status, DbGetStatus::Ok) << ids[i];
        EXPECT_TRUE(sameRecord(records.at(ids[i]), reads[i].record));
    }
    EXPECT_EQ(reads.back().status, DbGetStatus::Missing);
    ids.pop_back();
    EXPECT_EQ(db.ids(), ids);

    // A pristine v3 image needs no repair: scrub leaves it alone.
    const ScrubResult scrub = db.scrubShard(0);
    EXPECT_TRUE(scrub.scanned);
    EXPECT_FALSE(scrub.repaired);
    EXPECT_FALSE(scrub.unreadable);
    EXPECT_TRUE(scrub.lostIds.empty());
    std::vector<char> after;
    ASSERT_TRUE(readFile(db.shardPath(0), after));
    EXPECT_EQ(after, fixture);

    // The next overlay flush rewrites the shard as v4, every v3
    // record carried over unchanged.
    ASSERT_TRUE(db.put(testRecord("v4.new", 9.0)));
    ASSERT_TRUE(db.checkpoint());
    ASSERT_TRUE(readFile(db.shardPath(0), after));
    EXPECT_EQ(static_cast<unsigned char>(after[4]), kShardVersion);
    std::map<std::string, EnrollmentRecord> back;
    const ShardParseReport report = parseShardImage(after, back);
    EXPECT_TRUE(report.ok);
    EXPECT_FALSE(report.fellBack);
    ASSERT_EQ(back.size(), records.size() + 1);
    for (const auto &[id, rec] : records)
        EXPECT_TRUE(sameRecord(rec, back.at(id))) << id;
    std::vector<std::string> indexed;
    ASSERT_TRUE(readShardIndexIds(ImageReader::of(after), indexed));
    EXPECT_EQ(indexed.size(), records.size() + 1);
}

} // namespace
} // namespace divot::store
