/**
 * @file
 * Tests for MegaFleet, the bounded-memory fleet service over the
 * sharded EnrollmentDb: synthetic-channel determinism, thread-count
 * verdict identity (with and without storage faults), crash-reopen
 * enrollment, the no-junk guarantee when shard images are destroyed
 * under a running fleet, once-only accounting of a committed record
 * lost in both banks, a Reenroll that lifts a fence for good, record
 * generations that count on across a power cut after commit, pinned
 * request-schedule digests, and thread-count invariance of the
 * record-granular hydration reads over damaged images.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.hh"
#include "fleet/megafleet.hh"
#include "service/request.hh"
#include "store/io.hh"

namespace divot {
namespace {

std::string
freshDir(const char *name)
{
    const std::string dir = std::string(::testing::TempDir()) + name;
    store::ensureDir(dir);
    for (unsigned s = 0; s < 16; ++s) {
        const std::string shard =
            dir + "/shard-" + std::to_string(s) + ".bin";
        store::removeFile(shard);
        store::removeFile(shard + ".tmp");
    }
    store::removeFile(dir + "/journal.wal");
    return dir;
}

MegaFleetConfig
smallConfig(const std::string &dir, unsigned threads)
{
    MegaFleetConfig cfg;
    cfg.channels = 96;
    cfg.fingerprintBins = 8;
    cfg.probesPerTick = 16;
    cfg.threads = threads;
    cfg.store.directory = dir;
    cfg.store.shards = 8;
    cfg.store.overlayFlushRecords = 8;
    cfg.telemetry.enabled = false;
    return cfg;
}

TEST(MegaFleet, EnrollsAndMonitorsClean)
{
    const std::string dir = freshDir("mega_clean");
    MegaFleet fleet(smallConfig(dir, 1), Rng(7));
    EXPECT_EQ(fleet.enrollAll(), 96u);

    const MegaFleetReport report = fleet.run(6);
    EXPECT_EQ(report.ticks, 6u);
    EXPECT_EQ(report.probes, 6u * 16u);
    EXPECT_EQ(report.pendingReenroll, 0u);
    EXPECT_TRUE(report.lastTrusted);
    EXPECT_GE(report.lastFusedSimilarity, 0.99);
    EXPECT_GT(report.peakResidentBytes, 0u);

    // Bounded memory: the peak resident footprint covers one shard
    // image plus one probe batch, not the whole fleet.
    std::size_t allShards = 0;
    for (unsigned s = 0; s < 8; ++s) {
        const int64_t size = store::fileSize(fleet.db().shardPath(s));
        if (size > 0)
            allShards += static_cast<std::size_t>(size);
    }
    EXPECT_LT(report.peakResidentBytes, allShards);
}

TEST(MegaFleet, SyntheticEnrollmentIsAPureFunctionOfSeed)
{
    const std::string dirA = freshDir("mega_det_a");
    const std::string dirB = freshDir("mega_det_b");
    MegaFleet a(smallConfig(dirA, 1), Rng(11));
    MegaFleet b(smallConfig(dirB, 4), Rng(11));
    for (std::size_t i : {std::size_t(0), std::size_t(17),
                          std::size_t(95)})
        EXPECT_EQ(a.syntheticEnrollment(i), b.syntheticEnrollment(i));
    MegaFleet c(smallConfig(freshDir("mega_det_c"), 1), Rng(12));
    EXPECT_NE(a.syntheticEnrollment(0), c.syntheticEnrollment(0));
}

TEST(MegaFleet, VerdictDigestIsThreadInvariant)
{
    const std::string dirA = freshDir("mega_serial");
    const std::string dirB = freshDir("mega_pooled");
    MegaFleet serial(smallConfig(dirA, 1), Rng(21));
    MegaFleet pooled(smallConfig(dirB, 0), Rng(21));
    ASSERT_EQ(serial.enrollAll(), 96u);
    ASSERT_EQ(pooled.enrollAll(), 96u);
    const MegaFleetReport a = serial.run(8);
    const MegaFleetReport b = pooled.run(8);
    EXPECT_EQ(a.verdictDigest, b.verdictDigest);
    EXPECT_NE(a.verdictDigest, 0u);
}

TEST(MegaFleet, SurvivesPowerCutsDuringEnrollment)
{
    // Enrollment of 8 shards is 8 shard commits and a checkpoint:
    // events 0..8. Both cuts land mid-load; the recovery handle
    // continues the event count, so each fires once.
    FaultPlan plan;
    plan.storageCrash(2, StorageCrashPoint::AfterJournal)
        .storageCrash(5, StorageCrashPoint::BeforeCommit);
    const FaultInjector injector(plan, Rng(3));

    const std::string dirA = freshDir("mega_crash_serial");
    MegaFleet serial(smallConfig(dirA, 1), Rng(33));
    serial.attachFaultInjector(&injector);
    EXPECT_EQ(serial.enrollAll(), 96u);
    EXPECT_GE(serial.report().crashRecoveries, 2u);
    const MegaFleetReport a = serial.run(6);
    EXPECT_EQ(a.pendingReenroll, 0u); // every record recovered
    EXPECT_TRUE(a.lastTrusted);

    // The faulted run is thread-invariant too.
    const std::string dirB = freshDir("mega_crash_pooled");
    MegaFleet pooled(smallConfig(dirB, 0), Rng(33));
    pooled.attachFaultInjector(&injector);
    EXPECT_EQ(pooled.enrollAll(), 96u);
    const MegaFleetReport b = pooled.run(6);
    EXPECT_EQ(a.verdictDigest, b.verdictDigest);
}

TEST(MegaFleet, DestroyedShardFencesItsChannelsNeverJunk)
{
    const std::string dir = freshDir("mega_fence");
    MegaFleetConfig cfg = smallConfig(dir, 1);
    cfg.probesPerTick = 96; // every tick touches the whole fleet
    MegaFleet fleet(cfg, Rng(5));
    ASSERT_EQ(fleet.enrollAll(), 96u);

    // Obliterate one shard image: its channels are unrecoverable.
    const std::string shard0 = fleet.db().shardPath(0);
    ASSERT_GT(store::fileSize(shard0), 0);
    ASSERT_TRUE(store::truncateFile(shard0, 10));

    const MegaFleetVerdict first = fleet.tick();
    EXPECT_GT(first.pendingReenrollWires, 0u);
    EXPECT_LT(first.contributingWires, 96u);
    EXPECT_EQ(first.contributingWires + first.pendingReenrollWires,
              96u);
    // The surviving wires keep the bus authenticated; nothing junk
    // was fused in.
    EXPECT_TRUE(first.busAuthenticated);
    EXPECT_GE(first.fusedSimilarity, 0.99);

    // Fenced channels stay out of later rounds.
    const MegaFleetVerdict second = fleet.tick();
    EXPECT_EQ(second.pendingReenrollWires, 0u);
    EXPECT_EQ(second.contributingWires, first.contributingWires);
    EXPECT_TRUE(second.busAuthenticated);
}

TEST(MegaFleet, RecordLostAfterCommitIsCountedOnce)
{
    // A committed record destroyed in both banks is fenced at its
    // first hydration. It was enrolled, so it counts as lost after
    // enrollment: every channel is still counted exactly once.
    const std::string dir = freshDir("mega_lost_record");
    MegaFleetConfig cfg = smallConfig(dir, 1);
    cfg.probesPerTick = 96; // every tick touches the whole fleet
    MegaFleet fleet(cfg, Rng(9));
    ASSERT_EQ(fleet.enrollAll(), 96u);

    // Image layout: [header A][payload A][payload B][trailer B], the
    // banks byte-for-byte mirrors. Damaging the same payload byte in
    // both banks kills the one record frame holding it.
    const std::string shard = fleet.db().shardPath(3);
    std::vector<char> image;
    ASSERT_TRUE(store::readFile(shard, image));
    const std::size_t header = 24;
    const std::size_t len = (image.size() - 2 * header) / 2;
    image[header + len / 2] ^= 0x5a;
    image[header + len + len / 2] ^= 0x5a;
    ASSERT_TRUE(store::atomicWriteFile(shard, image));

    for (int t = 0; t < 3; ++t) {
        const MegaFleetVerdict v = fleet.tick();
        EXPECT_EQ(v.contributingWires + v.pendingReenrollWires,
                  t == 0 ? 96u : 95u);
        EXPECT_TRUE(v.busTrusted); // nothing junk was fused in
    }
    const MegaFleetReport &report = fleet.report();
    EXPECT_EQ(report.enrolled, 96u);
    EXPECT_EQ(report.fencedAtEnroll, 0u);
    EXPECT_EQ(report.lostAfterEnroll, 1u);
    EXPECT_EQ(report.pendingReenroll, 1u);
    EXPECT_EQ(fleet.fencedChannels(), 1u);
    // The bench_megafleet crash-recovery gate, both sums.
    EXPECT_EQ(report.enrolled + report.fencedAtEnroll, 96u);
    EXPECT_EQ(report.fencedAtEnroll + report.lostAfterEnroll,
              fleet.fencedChannels());
}

TEST(MegaFleet, ReenrollLiftsFenceForGood)
{
    // A durable Reenroll of a fenced channel lifts the fence: the
    // fresh record still sits in its shard's overlay at the next tick,
    // and hydration must read it there, not fence the channel again.
    const std::string dir = freshDir("mega_reenroll_fenced");
    MegaFleetConfig cfg = smallConfig(dir, 2);
    cfg.probesPerTick = 96; // every tick touches the whole fleet
    MegaFleet fleet(cfg, Rng(5));
    ASSERT_EQ(fleet.enrollAll(), 96u);
    ASSERT_TRUE(store::truncateFile(fleet.db().shardPath(0), 10));

    const MegaFleetVerdict first = fleet.tick();
    ASSERT_EQ(first.pendingReenrollWires, 12u);
    ASSERT_EQ(fleet.fencedChannels(), 12u);
    std::size_t fencedCh = 0;
    while (fleet.db().shardOf(MegaFleet::channelId(fencedCh)) != 0)
        ++fencedCh;
    const std::string ch = MegaFleet::channelId(fencedCh);

    uint64_t id = 1;
    auto send = [&](service::RequestKind kind, const std::string &name) {
        service::ServiceRequest rq;
        rq.id = id++;
        rq.kind = kind;
        rq.channel = name;
        ASSERT_TRUE(fleet.submit(rq));
    };
    send(service::RequestKind::Reenroll, ch);
    send(service::RequestKind::Verify, ch);
    send(service::RequestKind::FleetSummary, "");
    const MegaFleetVerdict second = fleet.tick();
    EXPECT_EQ(second.pendingReenrollWires, 0u);
    EXPECT_EQ(second.contributingWires, 96u - 11u);
    send(service::RequestKind::QuarantineStatus, ch);
    fleet.tick();

    const std::vector<service::ServiceResponse> responses =
        fleet.drainResponses();
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(responses[0].status, service::ResponseStatus::Ok);
    EXPECT_EQ(responses[0].generation, 1u); // the old record was lost
    EXPECT_EQ(responses[1].status, service::ResponseStatus::Ok);
    EXPECT_NE(responses[1].flags & service::kResponseAuthenticated, 0u);
    EXPECT_EQ(responses[2].fenced, 11u);
    EXPECT_EQ(responses[3].status, service::ResponseStatus::Ok);
    EXPECT_EQ(responses[3].state,
              static_cast<uint64_t>(AuthState::Monitoring));
    EXPECT_GE(responses[3].similarity, cfg.similarityThreshold);

    EXPECT_EQ(fleet.report().pendingReenroll, 12u); // cumulative
    EXPECT_EQ(fleet.fencedChannels(), 11u);
}

/** Response and verdict digests of the pinned mixed schedule. */
struct ScheduleDigests
{
    uint64_t responses = 0;
    uint64_t verdicts = 0;
};

/**
 * Drive the pinned mixed schedule: every request kind, both Busy
 * bounds, an Unknown name and a Fenced channel. With
 * `reenroll_fenced` it ends by re-enrolling the fenced channel and
 * verifying it in the same tick.
 */
ScheduleDigests
runPinnedSchedule(const char *name, bool reenroll_fenced)
{
    const std::string dir = freshDir(name);
    MegaFleetConfig cfg = smallConfig(dir, 2);
    cfg.channels = 2000;
    cfg.probesPerTick = 64;
    cfg.store.shards = 16;
    cfg.store.overlayFlushRecords = 64;
    cfg.requestQueueDepth = 12;
    cfg.requestChannelDepth = 3;
    MegaFleet fleet(cfg, Rng(2020));
    EXPECT_EQ(fleet.enrollAll(), 2000u);

    // Every channel of shard 0 loses its enrollment.
    std::size_t fencedCh = 0;
    while (fleet.db().shardOf(MegaFleet::channelId(fencedCh)) != 0)
        ++fencedCh;
    EXPECT_TRUE(store::truncateFile(fleet.db().shardPath(0), 10));

    uint64_t id = 100;
    std::size_t answered = 0;
    auto send = [&](service::RequestKind kind, const std::string &ch) {
        service::ServiceRequest rq;
        rq.id = id++;
        rq.kind = kind;
        rq.channel = ch;
        fleet.submit(rq);
    };
    std::size_t fencedAnswers = 0;
    auto tick = [&] {
        fleet.tick();
        for (const service::ServiceResponse &r : fleet.drainResponses()) {
            ++answered;
            if (r.status == service::ResponseStatus::Fenced)
                ++fencedAnswers;
        }
    };
    using service::RequestKind;
    const std::string fenced = MegaFleet::channelId(fencedCh);
    send(RequestKind::Verify, "ch1");
    send(RequestKind::Verify, fenced); // races the fence
    send(RequestKind::QuarantineStatus, "ch2");
    send(RequestKind::FleetSummary, "");
    send(RequestKind::Verify, "ch007"); // Unknown
    tick();
    send(RequestKind::Reenroll, "ch3");
    send(RequestKind::Verify, fenced); // Fenced at arrival
    for (int k = 0; k < 5; ++k)
        send(RequestKind::Verify, "ch4"); // per-channel Busy
    send(RequestKind::FleetSummary, "");
    tick();
    for (int k = 0; k < 16; ++k) // global Busy
        send(RequestKind::QuarantineStatus,
             MegaFleet::channelId(10 + k % 5));
    tick();
    if (reenroll_fenced) {
        send(RequestKind::Reenroll, fenced);
        send(RequestKind::Verify, fenced);
        send(RequestKind::Verify, "x"); // Unknown
    }
    for (int t = 0; t < 8 && fleet.pendingRequests() > 0; ++t)
        tick();

    EXPECT_EQ(fleet.pendingRequests(), 0u);
    EXPECT_EQ(answered, fleet.serviceStats().submitted);
    EXPECT_GT(fleet.serviceStats().rejectedBusy, 0u);
    EXPECT_EQ(fleet.serviceStats().rejectedUnknown,
              reenroll_fenced ? 2u : 1u);
    EXPECT_GE(fencedAnswers, reenroll_fenced ? 2u : 1u);
    return {fleet.responseDigest(), fleet.report().verdictDigest};
}

TEST(MegaFleet, GenerationSurvivesAfterCommitCut)
{
    // A power cut right after a Reenroll commits leaves the record
    // durable but the handle dead. The next Reenroll must still read
    // the durable generation and count on from it, never restart at 1.
    const std::string dir = freshDir("mega_gen_after_commit");
    MegaFleet fleet(smallConfig(dir, 1), Rng(7));
    ASSERT_EQ(fleet.enrollAll(), 96u);
    FaultPlan plan;
    plan.storageCrash(fleet.db().ioEvents(),
                      StorageCrashPoint::AfterCommit);
    const FaultInjector injector(plan, Rng(3));
    fleet.attachFaultInjector(&injector);

    const std::string ch = MegaFleet::channelId(5);
    for (uint64_t id = 1; id <= 2; ++id) {
        service::ServiceRequest rq;
        rq.id = id;
        rq.kind = service::RequestKind::Reenroll;
        rq.channel = ch;
        ASSERT_TRUE(fleet.submit(rq));
        fleet.tick();
    }
    const std::vector<service::ServiceResponse> responses =
        fleet.drainResponses();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].status, service::ResponseStatus::Ok);
    EXPECT_EQ(responses[0].generation, 2u);
    EXPECT_EQ(responses[1].status, service::ResponseStatus::Ok);
    EXPECT_EQ(responses[1].generation, 3u);
    EXPECT_EQ(fleet.report().crashRecoveries, 1u);
    store::EnrollmentRecord durable;
    ASSERT_EQ(fleet.db().get(ch, durable), store::DbGetStatus::Ok);
    EXPECT_EQ(durable.generation, 3u);
}

TEST(MegaFleet, PinnedMixedScheduleDigests)
{
    // Cross-build equality evidence for the request front end. The
    // schedule ends by re-enrolling the fenced channel and verifying
    // it in the same tick; hydration reads the fresh record from the
    // shard overlay, so that Verify authenticates.
    const ScheduleDigests d = runPinnedSchedule("mega_pinned", true);
    EXPECT_EQ(d.responses, 1783626100399510246ULL);
    EXPECT_EQ(d.verdicts, 8284833352834443557ULL);
}

TEST(MegaFleet, PinnedMixedSchedulePrefixDigests)
{
    // The same schedule without the closing re-enrollment of the
    // fenced channel: everything before it must reproduce across
    // refactors, fence lifting included.
    const ScheduleDigests d = runPinnedSchedule("mega_pinned_prefix", false);
    EXPECT_EQ(d.responses, 4429251171546733301ULL);
    EXPECT_EQ(d.verdicts, 13768763688903403467ULL);
}

TEST(MegaFleet, PointReadsAreLaneAndThreadInvariantUnderStorageFaults)
{
    // A 1 MiB cache against ~2.5 MB of decoded shards, so hydration
    // is mostly point reads. One Reenroll per tick lands bit rot and
    // truncations on live shard images: the faults start at the first
    // IO event after enrollment, which itself runs clean.
    constexpr std::size_t kChannels = 3000;
    auto config = [&](unsigned threads) {
        const std::string name = "mega_points_t" + std::to_string(threads);
        MegaFleetConfig cfg = smallConfig(freshDir(name.c_str()), threads);
        cfg.channels = kChannels;
        cfg.fingerprintBins = 32;
        cfg.probesPerTick = 256;
        cfg.store.shards = 16;
        cfg.store.overlayFlushRecords = 64;
        cfg.store.shardCacheBytes = 1u << 20;
        return cfg;
    };
    uint64_t firstTickEvent = 0;
    {
        MegaFleet clean(config(1), Rng(77));
        ASSERT_EQ(clean.enrollAll(), kChannels);
        firstTickEvent = clean.db().ioEvents();
    }
    FaultPlan plan;
    plan.storageBitRot(firstTickEvent, 24, 6.0)
        .storageTruncation(firstTickEvent + 6, 0.35)
        .storageTruncation(firstTickEvent + 14, 0.6);
    const FaultInjector injector(plan, Rng(41));

    struct Outcome
    {
        uint64_t verdicts = 0;
        uint64_t responses = 0;
        uint64_t pending = 0;
        uint64_t junk = 0; //!< contributing ticks not authenticated
    };
    auto drive = [&](unsigned threads) {
        MegaFleet fleet(config(threads), Rng(77));
        fleet.attachFaultInjector(&injector);
        EXPECT_EQ(fleet.enrollAll(), kChannels);
        Outcome out;
        for (uint64_t t = 0; t < 24; ++t) {
            service::ServiceRequest rq;
            rq.id = t + 1;
            rq.kind = service::RequestKind::Reenroll;
            rq.channel = MegaFleet::channelId((t * 389) % kChannels);
            fleet.submit(rq);
            const MegaFleetVerdict v = fleet.tick();
            if (v.contributingWires > 0 && !v.busAuthenticated)
                ++out.junk;
            fleet.drainResponses();
        }
        out.verdicts = fleet.report().verdictDigest;
        out.responses = fleet.responseDigest();
        out.pending = fleet.report().pendingReenroll;
        return out;
    };

    const Outcome base = drive(1);
    EXPECT_EQ(base.junk, 0u);
    EXPECT_GT(base.pending, 0u); // damage reached the hydration reads
    for (const unsigned threads : {2u, 4u, 8u}) {
        const Outcome o = drive(threads);
        EXPECT_EQ(o.verdicts, base.verdicts) << threads << " threads";
        EXPECT_EQ(o.responses, base.responses) << threads << " threads";
        EXPECT_EQ(o.pending, base.pending);
        EXPECT_EQ(o.junk, 0u);
    }
}

} // namespace
} // namespace divot
