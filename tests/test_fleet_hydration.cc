/**
 * @file
 * Tests for the store-backed fleet: lazy hydration must be invisible
 * in every fused verdict, LRU eviction must hold the resident-byte
 * budget, unrecoverable records must demote their channel to
 * PendingReenroll (fencing the wire, not the fleet), and the idle
 * scrub hook must run on spare instrument slots.
 *
 * FleetStoreDeterminism: store-backed runs — hydration churn, lost
 * records, storage bit rot, and a shard cache smaller than its
 * working set — must be bit-identical at every thread count, in the
 * ChannelScheduler's rounds and stable export and in the MegaFleet's
 * digests and cache state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "fleet/channel_scheduler.hh"
#include "fleet/megafleet.hh"
#include "service/request.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"

namespace divot {
namespace {

BusChannelConfig
quickChannel(std::size_t index)
{
    BusChannelConfig cfg;
    cfg.lineLength = 0.1; // keep tests fast
    cfg.enrollReps = 8;
    cfg.name = "wire" + std::to_string(index);
    return cfg;
}

std::string
freshDbDir(const std::string &name)
{
    const std::string dir = std::string(::testing::TempDir()) + name;
    store::ensureDir(dir);
    for (unsigned s = 0; s < 64; ++s) {
        const std::string shard =
            dir + "/shard-" + std::to_string(s) + ".bin";
        store::removeFile(shard);
        store::removeFile(shard + ".tmp");
    }
    store::removeFile(dir + "/journal.wal");
    return dir;
}

store::EnrollmentDbConfig
dbConfig(const std::string &dir)
{
    store::EnrollmentDbConfig cfg;
    cfg.directory = dir;
    cfg.shards = 4;
    cfg.overlayFlushRecords = 2;
    return cfg;
}

ChannelScheduler
makeFleet(std::size_t channels, std::size_t instruments,
          uint64_t seed = 42)
{
    FleetConfig cfg;
    cfg.instruments = instruments;
    cfg.policy = SchedulerPolicy::RoundRobin;
    cfg.threads = 1;
    ChannelScheduler fleet(cfg, Rng(seed));
    for (std::size_t c = 0; c < channels; ++c)
        fleet.addChannel(quickChannel(c));
    fleet.calibrateAll();
    return fleet;
}

TEST(FleetHydration, HydrationIsVerdictInvisible)
{
    // Reference: storeless fleet.
    ChannelScheduler plain = makeFleet(3, 2);
    // Candidate: same seed, backed by a store with a budget tiny
    // enough that every unpinned enrollment is evicted each tick and
    // must rehydrate before its next probe.
    ChannelScheduler backed = makeFleet(3, 2);
    const std::string dir = freshDbDir("hydr_invisible");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    backed.attachStore(&db, 1);

    for (int t = 0; t < 8; ++t) {
        const FleetRound a = plain.tick();
        const FleetRound b = backed.tick();
        ASSERT_EQ(a.probes.size(), b.probes.size()) << "tick " << t;
        for (std::size_t p = 0; p < a.probes.size(); ++p) {
            EXPECT_EQ(a.probes[p].channel, b.probes[p].channel);
            EXPECT_EQ(a.probes[p].verdict.similarity,
                      b.probes[p].verdict.similarity)
                << "tick " << t << " probe " << p;
        }
        EXPECT_EQ(a.fused.fusedSimilarity, b.fused.fusedSimilarity)
            << "tick " << t;
        EXPECT_EQ(a.fused.busTrusted, b.fused.busTrusted);
        EXPECT_EQ(b.fused.pendingReenrollWires, 0u);
    }
    // The tiny budget really did force eviction/rehydration churn.
    EXPECT_GT(backed.telemetry().registry().counterValue(
                  "store.evictions"), 0u);
    EXPECT_GT(backed.telemetry().registry().counterValue(
                  "store.hydrates"), 0u);
}

TEST(FleetHydration, ResidentBudgetHolds)
{
    ChannelScheduler fleet = makeFleet(4, 1);
    const std::string dir = freshDbDir("hydr_budget");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());

    // Budget: one enrollment plus headroom — the single probed
    // channel per tick is the pinned working set.
    const std::size_t oneChannel = fleet.channel(0).enrollmentBytes();
    ASSERT_GT(oneChannel, 0u);
    const std::size_t budget = oneChannel + oneChannel / 2;
    fleet.attachStore(&db, budget);

    for (int t = 0; t < 10; ++t) {
        fleet.tick();
        EXPECT_LE(fleet.residentEnrollmentBytes(), budget)
            << "tick " << t;
    }
}

TEST(FleetHydration, LostRecordDemotesToPendingReenroll)
{
    ChannelScheduler fleet = makeFleet(2, 1);
    const std::string dir = freshDbDir("hydr_demote");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 1); // evict everything unpinned

    // Tick 0 probes wire0 and evicts wire1's enrollment.
    fleet.tick();
    ASSERT_FALSE(fleet.channel(1).enrollmentResident());

    // The durable copy vanishes (models a record damaged in every
    // bank; erase gives the same Missing/unrecoverable hydration
    // outcome deterministically).
    ASSERT_TRUE(db.erase("wire1"));

    // Tick 1 selects wire1, fails hydration, and fences it — the
    // fleet keeps running on the surviving wire.
    const FleetRound round = fleet.tick();
    EXPECT_EQ(fleet.channel(1).state(), AuthState::PendingReenroll);
    EXPECT_EQ(round.fused.pendingReenrollWires, 1u);
    for (const ChannelProbe &probe : round.probes)
        EXPECT_NE(probe.channel, 1u);

    // Later rounds never select a fenced channel...
    for (int t = 0; t < 4; ++t) {
        const FleetRound r = fleet.tick();
        for (const ChannelProbe &probe : r.probes)
            EXPECT_NE(probe.channel, 1u);
        EXPECT_TRUE(r.fused.busAuthenticated);
    }
    EXPECT_GT(fleet.telemetry().registry().counterValue(
                  "store.pending_reenroll"), 0u);

    // ...until the operator re-calibrates it.
    ASSERT_TRUE(fleet.reenrollChannel(1));
    EXPECT_NE(fleet.channel(1).state(), AuthState::PendingReenroll);
    store::EnrollmentRecord rec;
    EXPECT_EQ(db.get("wire1", rec), store::DbGetStatus::Ok);
    bool probed1 = false;
    for (int t = 0; t < 4; ++t) {
        const FleetRound r = fleet.tick();
        EXPECT_EQ(r.fused.pendingReenrollWires, 0u);
        for (const ChannelProbe &probe : r.probes)
            probed1 = probed1 || probe.channel == 1u;
    }
    EXPECT_TRUE(probed1);
}

TEST(FleetHydration, IdleSlotsScrubTheStore)
{
    ChannelScheduler fleet = makeFleet(2, 2);
    const std::string dir = freshDbDir("hydr_scrub");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 0);

    // Fence one wire: every later tick has a spare instrument slot,
    // which the scheduler spends scrubbing the next shard.
    ASSERT_TRUE(db.erase("wire0"));
    fleet.channel(0).releaseEnrollment();
    for (int t = 0; t < 6; ++t)
        fleet.tick();
    EXPECT_EQ(fleet.channel(0).state(), AuthState::PendingReenroll);
    EXPECT_GT(fleet.telemetry().registry().counterValue(
                  "store.scrub.idle_ticks"), 0u);
}

TEST(FleetHydration, StoreCountersOnlyRegisterWithStore)
{
    ChannelScheduler plain = makeFleet(2, 1);
    plain.run(2);
    for (const auto &c : plain.telemetry().registry().counters())
        EXPECT_TRUE(c.name.rfind("store.", 0) != 0)
            << "storeless fleet registered " << c.name;

    ChannelScheduler backed = makeFleet(2, 1);
    const std::string dir = freshDbDir("hydr_counters");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    db.attachTelemetry(&backed.telemetry());
    backed.attachStore(&db, 1);
    backed.run(3);
    std::vector<std::string> names;
    for (const auto &c : backed.telemetry().registry().counters())
        if (c.name.rfind("store.", 0) == 0)
            names.push_back(c.name);
    EXPECT_TRUE(std::find(names.begin(), names.end(),
                          "store.hydrates") != names.end());
    EXPECT_TRUE(std::find(names.begin(), names.end(),
                          "store.puts") != names.end());
}

// --------------------------------------------------------------------
// FleetStoreDeterminism

/** One store-backed fleet run: per-tick rounds + stable export. */
struct StoreRun
{
    std::vector<FleetRound> rounds;
    std::string stableExport;
    int64_t queuePeak = 0;
};

StoreRun
runStoreFleet(const std::string &tag, unsigned threads, int ticks,
              const FaultInjector *injector = nullptr,
              const std::vector<std::string> &eraseFirst = {})
{
    FleetConfig cfg;
    cfg.instruments = 2;
    cfg.policy = SchedulerPolicy::RoundRobin;
    cfg.threads = threads;
    ChannelScheduler fleet(cfg, Rng(42));
    for (std::size_t c = 0; c < 6; ++c)
        fleet.addChannel(quickChannel(c));
    fleet.calibrateAll();

    const std::string dir =
        freshDbDir(tag + "_t" + std::to_string(threads));
    store::EnrollmentDb db(dbConfig(dir));
    if (injector != nullptr)
        db.attachFaultInjector(injector);
    EXPECT_TRUE(db.open());
    // Tiny budget: every unpinned enrollment evicts each tick, so
    // every tick drains a full hydration wave.
    fleet.attachStore(&db, 1);
    for (const std::string &id : eraseFirst) {
        EXPECT_TRUE(db.erase(id));
        // Drop the resident copy too so the loss surfaces as a failed
        // hydration, not a quiet in-memory hit.
        for (std::size_t c = 0; c < 6; ++c)
            if (fleet.channel(c).name() == id)
                fleet.channel(c).releaseEnrollment();
    }

    StoreRun run;
    for (int t = 0; t < ticks; ++t)
        run.rounds.push_back(fleet.tick());
    run.stableExport = fleet.telemetry().exportJson();
    run.queuePeak = fleet.telemetry().registry().gaugeValue(
        "fleet.reactor.queue.peak");
    return run;
}

void
expectSameRounds(const StoreRun &a, const StoreRun &b)
{
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t t = 0; t < a.rounds.size(); ++t) {
        const FleetRound &ra = a.rounds[t];
        const FleetRound &rb = b.rounds[t];
        ASSERT_EQ(ra.probes.size(), rb.probes.size()) << "tick " << t;
        for (std::size_t p = 0; p < ra.probes.size(); ++p) {
            EXPECT_EQ(ra.probes[p].channel, rb.probes[p].channel)
                << "tick " << t << " probe " << p;
            EXPECT_EQ(ra.probes[p].verdict.similarity,
                      rb.probes[p].verdict.similarity)
                << "tick " << t << " probe " << p;
        }
        EXPECT_EQ(ra.fused.fusedSimilarity, rb.fused.fusedSimilarity)
            << "tick " << t;
        EXPECT_EQ(ra.fused.busTrusted, rb.fused.busTrusted);
        EXPECT_EQ(ra.fused.pendingReenrollWires,
                  rb.fused.pendingReenrollWires);
    }
}

TEST(FleetStoreDeterminism, VerdictsInvariantAcrossThreadCounts)
{
    const StoreRun base = runStoreFleet("det_clean", 1, 8);
    for (unsigned threads : {2u, 4u}) {
        const StoreRun run = runStoreFleet("det_clean", threads, 8);
        expectSameRounds(base, run);
        EXPECT_EQ(base.stableExport, run.stableExport)
            << "threads " << threads;
    }
}

TEST(FleetStoreDeterminism, QueuePeakGaugeIsThreadInvariant)
{
    const StoreRun one = runStoreFleet("det_peak", 1, 6);
    EXPECT_GT(one.queuePeak, 0);
    for (unsigned threads : {2u, 4u})
        EXPECT_EQ(one.queuePeak,
                  runStoreFleet("det_peak", threads, 6).queuePeak)
            << "threads " << threads;
}

TEST(FleetStoreDeterminism, LostRecordDemotionOrderIsThreadInvariant)
{
    // Two wires lose their durable records before the first tick;
    // both demotions (and the "store.lost" fencing events they emit)
    // must land identically at every thread count.
    const std::vector<std::string> lost = {"wire1", "wire4"};
    const StoreRun base = runStoreFleet("det_lost", 1, 8, nullptr, lost);
    // pendingReenrollWires reports the currently-fenced population;
    // by the last round both losses have been discovered and fenced.
    EXPECT_EQ(base.rounds.back().fused.pendingReenrollWires,
              lost.size());
    for (unsigned threads : {2u, 4u}) {
        const StoreRun run =
            runStoreFleet("det_lost", threads, 8, nullptr, lost);
        expectSameRounds(base, run);
        EXPECT_EQ(base.stableExport, run.stableExport)
            << "threads " << threads;
    }
}

TEST(FleetStoreDeterminism, FaultedHydrationIsThreadInvariant)
{
    // Storage bit rot lands on shard images during enrollment; the
    // damaged-image salvage (or demotion) must match the serial run
    // bit for bit.
    FaultPlan plan;
    plan.storageBitRot(3, 4, 6.0).storageBitRot(9, 3, 4.0);
    const FaultInjector injector(plan, Rng(17));
    const StoreRun base = runStoreFleet("det_fault", 1, 8, &injector);
    for (unsigned threads : {2u, 4u}) {
        const StoreRun run =
            runStoreFleet("det_fault", threads, 8, &injector);
        expectSameRounds(base, run);
        EXPECT_EQ(base.stableExport, run.stableExport)
            << "threads " << threads;
    }
}

TEST(FleetStoreDeterminism, MegaFleetDigestIsThreadInvariant)
{
    auto digest = [](unsigned threads) {
        MegaFleetConfig cfg;
        cfg.channels = 96;
        cfg.fingerprintBins = 8;
        cfg.probesPerTick = 16;
        cfg.threads = threads;
        cfg.store.directory =
            freshDbDir("det_mega_t" + std::to_string(threads));
        cfg.store.shards = 8;
        cfg.store.overlayFlushRecords = 8;
        cfg.store.shardCacheBytes = 1u << 20;
        cfg.telemetry.enabled = false;
        MegaFleet fleet(cfg, Rng(21));
        EXPECT_EQ(fleet.enrollAll(), 96u);
        return fleet.run(8).verdictDigest;
    };
    const uint64_t one = digest(1);
    EXPECT_NE(one, 0u);
    for (unsigned threads : {2u, 4u, 8u})
        EXPECT_EQ(one, digest(threads)) << "threads " << threads;
}

TEST(FleetStoreDeterminism, ShardCacheStateIsThreadInvariant)
{
    // A 256 KiB cache against a larger decoded working set, with one
    // Reenroll per tick rewriting a shard image (write-through
    // admissions that must evict). Shard groups hydrate concurrently,
    // so every cache decision — and every counter — must come from
    // the serial replay of the batch's accesses, never from thread
    // timing.
    constexpr std::size_t kChannels = 1000;
    constexpr std::size_t kBudget = 256u << 10;
    struct Outcome
    {
        store::ShardCacheStats cache;
        std::size_t peakResident = 0;
        uint64_t verdicts = 0;
        uint64_t responses = 0;
    };
    auto drive = [&](unsigned threads) {
        MegaFleetConfig cfg;
        cfg.channels = kChannels;
        cfg.fingerprintBins = 32;
        cfg.probesPerTick = 128;
        cfg.threads = threads;
        cfg.store.directory =
            freshDbDir("det_cache_t" + std::to_string(threads));
        cfg.store.shards = 32;
        cfg.store.overlayFlushRecords = 1; // every put rewrites
        cfg.store.journalGroupCommit = true;
        cfg.store.shardCacheBytes = kBudget;
        cfg.telemetry.enabled = false;
        MegaFleet fleet(cfg, Rng(99));
        EXPECT_EQ(fleet.enrollAll(), kChannels);
        for (uint64_t t = 0; t < 16; ++t) {
            service::ServiceRequest rq;
            rq.id = t + 1;
            rq.kind = service::RequestKind::Reenroll;
            rq.channel = MegaFleet::channelId((t * 131) % kChannels);
            fleet.submit(rq);
            fleet.tick();
            fleet.drainResponses();
        }
        Outcome out;
        out.cache = fleet.db().cacheStats();
        out.peakResident = fleet.report().peakResidentBytes;
        out.verdicts = fleet.report().verdictDigest;
        out.responses = fleet.responseDigest();
        return out;
    };

    const Outcome base = drive(1);
    // The budget really is below the working set: lookups both hit
    // and miss, and admissions had to evict.
    EXPECT_GT(base.cache.hits, 0u);
    EXPECT_GT(base.cache.misses, 0u);
    EXPECT_GT(base.cache.evictions, 0u);
    EXPECT_LE(base.cache.peakBytes, kBudget);
    for (unsigned threads : {2u, 4u, 8u}) {
        const Outcome o = drive(threads);
        EXPECT_EQ(o.cache.hits, base.cache.hits) << threads;
        EXPECT_EQ(o.cache.misses, base.cache.misses) << threads;
        EXPECT_EQ(o.cache.admissions, base.cache.admissions) << threads;
        EXPECT_EQ(o.cache.rejections, base.cache.rejections) << threads;
        EXPECT_EQ(o.cache.evictions, base.cache.evictions) << threads;
        EXPECT_EQ(o.cache.updates, base.cache.updates) << threads;
        EXPECT_EQ(o.cache.invalidations, base.cache.invalidations)
            << threads;
        EXPECT_EQ(o.cache.bytes, base.cache.bytes) << threads;
        EXPECT_EQ(o.cache.peakBytes, base.cache.peakBytes) << threads;
        EXPECT_EQ(o.peakResident, base.peakResident) << threads;
        EXPECT_EQ(o.verdicts, base.verdicts) << threads;
        EXPECT_EQ(o.responses, base.responses) << threads;
    }
}

} // namespace
} // namespace divot
