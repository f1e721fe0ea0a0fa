/**
 * @file
 * FleetService conformance: bounded admission with explicit
 * Busy/Fenced/Unknown answers, request lifecycles riding the fleet
 * reactor (immediate kinds at arrival, Verify on its channel's next
 * verdict, FleetSummary on fusion), the Verify priority boost, framed
 * stream replay, and serial-vs-pooled bit identity of the response
 * digest and the telemetry export. MegaFleet answers the same
 * protocol through the same RequestLedger, so its admission bounds and
 * the cross-front-end response shape are checked here too.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "fleet/channel_scheduler.hh"
#include "fleet/megafleet.hh"
#include "service/fleet_service.hh"
#include "store/codec.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"

namespace divot {
namespace {

using service::FleetService;
using service::RequestKind;
using service::ResponseStatus;
using service::ServiceRequest;
using service::ServiceResponse;

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
freshDbDir(const char *name)
{
    const std::string dir = std::string(::testing::TempDir()) + name;
    store::ensureDir(dir);
    for (unsigned s = 0; s < 8; ++s) {
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
          unsigned threads = 1, uint64_t seed = 42)
{
    FleetConfig cfg;
    cfg.instruments = instruments;
    cfg.policy = SchedulerPolicy::RiskWeighted;
    cfg.threads = threads;
    ChannelScheduler fleet(cfg, Rng(seed));
    for (std::size_t c = 0; c < channels; ++c)
        fleet.addChannel(quickChannel(c));
    fleet.calibrateAll();
    return fleet;
}

ServiceRequest
makeRequest(uint64_t id, RequestKind kind, const std::string &channel)
{
    ServiceRequest rq;
    rq.id = id;
    rq.kind = kind;
    rq.channel = channel;
    return rq;
}

TEST(FleetService, UnknownChannelRejectsImmediately)
{
    ChannelScheduler fleet = makeFleet(2, 1);
    FleetService svc(fleet);
    EXPECT_FALSE(svc.submit(
        makeRequest(1, RequestKind::Verify, "no-such-wire")));
    const std::vector<ServiceResponse> got = svc.drainResponses();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, ResponseStatus::Unknown);
    EXPECT_EQ(got[0].id, 1u);
    EXPECT_EQ(svc.stats().rejectedUnknown, 1u);
    EXPECT_EQ(svc.pendingRequests(), 0u);
    EXPECT_EQ(fleet.telemetry().registry().counterValue(
                  "service.responses.unknown"),
              1u);
}

TEST(FleetService, PerChannelAndGlobalQueueBoundsRejectBusy)
{
    FleetConfig cfg;
    cfg.instruments = 1;
    cfg.policy = SchedulerPolicy::RiskWeighted;
    cfg.threads = 1;
    cfg.requestChannelDepth = 2;
    cfg.requestQueueDepth = 5;
    ChannelScheduler fleet(cfg, Rng(42));
    for (std::size_t c = 0; c < 4; ++c)
        fleet.addChannel(quickChannel(c));
    fleet.calibrateAll();
    FleetService svc(fleet);

    // Per-channel: depth 2 on wire0 — the third submit must bounce.
    EXPECT_TRUE(svc.submit(makeRequest(1, RequestKind::Verify,
                                       "wire0")));
    EXPECT_TRUE(svc.submit(makeRequest(2, RequestKind::Verify,
                                       "wire0")));
    EXPECT_FALSE(svc.submit(makeRequest(3, RequestKind::Verify,
                                        "wire0")));
    // Global: queue depth 5 across channels.
    EXPECT_TRUE(svc.submit(makeRequest(4, RequestKind::Verify,
                                       "wire1")));
    EXPECT_TRUE(svc.submit(makeRequest(5, RequestKind::Verify,
                                       "wire2")));
    EXPECT_TRUE(svc.submit(makeRequest(6, RequestKind::Verify,
                                       "wire3")));
    EXPECT_FALSE(svc.submit(
        makeRequest(7, RequestKind::FleetSummary, "")));

    const std::vector<ServiceResponse> got = svc.drainResponses();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].status, ResponseStatus::Busy);
    EXPECT_EQ(got[0].id, 3u);
    EXPECT_EQ(got[1].status, ResponseStatus::Busy);
    EXPECT_EQ(got[1].id, 7u);
    EXPECT_EQ(svc.stats().rejectedBusy, 2u);
    EXPECT_EQ(svc.pendingRequests(), 5u);

    // The parked requests all answer once ticks flow again.
    for (int t = 0; t < 6 && svc.pendingRequests() > 0; ++t)
        svc.tick();
    EXPECT_EQ(svc.pendingRequests(), 0u);
    EXPECT_EQ(svc.stats().responses, svc.stats().submitted);
}

TEST(FleetService, VerifyBoostWinsTheNextInstrumentSlot)
{
    // 4 wires, 1 instrument: rotation alone would take 4 ticks to
    // reach wire3; the request boost must put it in the very next
    // probe batch.
    ChannelScheduler fleet = makeFleet(4, 1);
    FleetService svc(fleet);
    ASSERT_TRUE(svc.submit(makeRequest(9, RequestKind::Verify,
                                       "wire3")));
    const FleetRound round = svc.tick();
    ASSERT_FALSE(round.probes.empty());
    EXPECT_EQ(round.probes[0].channel, 3u);

    const std::vector<ServiceResponse> got = svc.drainResponses();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, ResponseStatus::Ok);
    EXPECT_EQ(got[0].similarity, round.probes[0].verdict.similarity);
    EXPECT_NE(got[0].flags & service::kResponseAuthenticated, 0u);

    // The boost is consumed by the observed verdict: the next round
    // returns to normal staleness ordering (wire3 is now the
    // freshest, so it is NOT re-probed first).
    const FleetRound next = svc.tick();
    ASSERT_FALSE(next.probes.empty());
    EXPECT_NE(next.probes[0].channel, 3u);
}

TEST(FleetService, QuarantineStatusAndSummaryAnswerFromTheTick)
{
    ChannelScheduler fleet = makeFleet(2, 2);
    FleetService svc(fleet);
    ASSERT_TRUE(svc.submit(
        makeRequest(1, RequestKind::QuarantineStatus, "wire0")));
    ASSERT_TRUE(svc.submit(
        makeRequest(2, RequestKind::FleetSummary, "")));
    const FleetRound round = svc.tick();
    const std::vector<ServiceResponse> got = svc.drainResponses();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].kind, RequestKind::QuarantineStatus);
    EXPECT_EQ(got[0].status, ResponseStatus::Ok);
    EXPECT_EQ(got[0].state,
              static_cast<uint64_t>(AuthState::Monitoring));
    EXPECT_EQ(got[1].kind, RequestKind::FleetSummary);
    EXPECT_EQ(got[1].status, ResponseStatus::Ok);
    EXPECT_EQ(got[1].similarity, round.fused.fusedSimilarity);
    EXPECT_EQ(got[1].channels, round.fused.channels);
}

TEST(FleetService, FencedChannelAnswersFencedNotJunk)
{
    // Store-backed fleet; wire1's durable record vanishes while its
    // enrollment is evicted, so the next selection fences it. Every
    // request against the fenced wire must say Fenced — never an
    // authenticated verdict against a missing enrollment.
    ChannelScheduler fleet = makeFleet(2, 1);
    const std::string dir = freshDbDir("svc_fenced");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 1); // evict everything unpinned
    FleetService svc(fleet);

    svc.tick();
    ASSERT_TRUE(db.erase("wire1"));
    // A Verify parked on wire1 races the fence: hydration fails, the
    // demotion verdict answers it as Fenced.
    ASSERT_TRUE(svc.submit(makeRequest(1, RequestKind::Verify,
                                       "wire1")));
    svc.tick();
    ASSERT_EQ(fleet.channel(1).state(), AuthState::PendingReenroll);
    std::vector<ServiceResponse> got = svc.drainResponses();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, ResponseStatus::Fenced);
    EXPECT_EQ(got[0].state,
              static_cast<uint64_t>(AuthState::PendingReenroll));
    EXPECT_EQ(got[0].flags & service::kResponseAuthenticated, 0u);

    // Verify against an already-fenced wire answers Fenced at arrival
    // (no instrument burned); QuarantineStatus reports the fence; a
    // Reenroll lifts it and the wire serves verifies again.
    ASSERT_TRUE(svc.submit(makeRequest(2, RequestKind::Verify,
                                       "wire1")));
    ASSERT_TRUE(svc.submit(
        makeRequest(3, RequestKind::QuarantineStatus, "wire1")));
    svc.tick();
    got = svc.drainResponses();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].status, ResponseStatus::Fenced);
    EXPECT_EQ(got[1].status, ResponseStatus::Ok);
    EXPECT_EQ(got[1].state,
              static_cast<uint64_t>(AuthState::PendingReenroll));

    ASSERT_TRUE(svc.submit(makeRequest(4, RequestKind::Reenroll,
                                       "wire1")));
    svc.tick();
    got = svc.drainResponses();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, ResponseStatus::Ok);
    EXPECT_GT(got[0].generation, 0u);
    EXPECT_NE(fleet.channel(1).state(), AuthState::PendingReenroll);

    ASSERT_TRUE(svc.submit(makeRequest(5, RequestKind::Verify,
                                       "wire1")));
    svc.tick();
    got = svc.drainResponses();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, ResponseStatus::Ok);
}

TEST(FleetService, EnrollBumpsTheDurableGeneration)
{
    ChannelScheduler fleet = makeFleet(2, 1);
    const std::string dir = freshDbDir("svc_enroll");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, fleet.channel(0).enrollmentBytes() * 4);
    FleetService svc(fleet);

    ASSERT_TRUE(svc.submit(makeRequest(1, RequestKind::Enroll,
                                       "wire0")));
    svc.tick();
    std::vector<ServiceResponse> got = svc.drainResponses();
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].status, ResponseStatus::Ok);
    const uint64_t first = got[0].generation;
    EXPECT_GT(first, 0u);

    ASSERT_TRUE(svc.submit(makeRequest(2, RequestKind::Enroll,
                                       "wire0")));
    svc.tick();
    got = svc.drainResponses();
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].status, ResponseStatus::Ok);
    EXPECT_EQ(got[0].generation, first + 1);

    store::EnrollmentRecord rec;
    ASSERT_EQ(db.get("wire0", rec), store::DbGetStatus::Ok);
    EXPECT_EQ(rec.generation, first + 1);
}

TEST(FleetService, FramedStreamReplayStopsAtDamage)
{
    ChannelScheduler fleet = makeFleet(2, 2);
    FleetService svc(fleet);

    std::vector<char> bytes;
    service::appendRequestFrame(
        bytes, makeRequest(1, RequestKind::QuarantineStatus, "wire0"));
    service::appendRequestFrame(
        bytes, makeRequest(2, RequestKind::FleetSummary, ""));
    const std::size_t intact = bytes.size();
    service::appendRequestFrame(
        bytes, makeRequest(3, RequestKind::Verify, "wire1"));
    bytes[intact + service::kServiceFrameHeader + 2] ^= 0x10;

    const service::StreamDecode decode = svc.submitStream(bytes);
    EXPECT_FALSE(decode.ok());
    EXPECT_EQ(decode.frames, 2u);
    EXPECT_EQ(svc.stats().submitted, 2u);
    EXPECT_EQ(svc.stats().parseErrors, 1u);
    svc.tick();
    EXPECT_EQ(svc.drainResponses().size(), 2u);
}

/** Run a canonical mixed-traffic scenario and return (digest, export). */
std::pair<uint64_t, std::string>
runServiceScenario(unsigned threads, const char *tag)
{
    ChannelScheduler fleet = makeFleet(3, 2, threads);
    const std::string dir = freshDbDir(
        (std::string("svc_det_") + tag + "_" +
         std::to_string(threads))
            .c_str());
    store::EnrollmentDb db(dbConfig(dir));
    if (!db.open())
        return {0, "db open failed"};
    db.attachTelemetry(&fleet.telemetry());
    fleet.attachStore(&db, fleet.channel(0).enrollmentBytes() * 2);
    FleetService svc(fleet);

    uint64_t id = 1;
    for (int t = 0; t < 6; ++t) {
        svc.submit(makeRequest(id++, RequestKind::Verify,
                               "wire" + std::to_string(t % 3)));
        if (t % 2 == 0)
            svc.submit(makeRequest(
                id++, RequestKind::QuarantineStatus, "wire1"));
        if (t == 2)
            svc.submit(makeRequest(id++, RequestKind::Reenroll,
                                   "wire2"));
        if (t % 3 == 0)
            svc.submit(makeRequest(id++, RequestKind::FleetSummary,
                                   ""));
        svc.submit(makeRequest(id++, RequestKind::Verify, "ghost"));
        svc.tick();
    }
    for (int t = 0; t < 4 && svc.pendingRequests() > 0; ++t)
        svc.tick();
    return {svc.responseDigest(), fleet.telemetry().exportJson()};
}

TEST(FleetService, SerialVsPooledDigestAndExportAreBitIdentical)
{
    const auto serial = runServiceScenario(1, "a");
    const auto pooled = runServiceScenario(4, "b");
    EXPECT_EQ(serial.first, pooled.first);
    EXPECT_EQ(serial.second, pooled.second);
}

TEST(FleetService, PinnedMixedScheduleDigestAndExport)
{
    // Cross-build equality evidence: the literals below were taken
    // from the request front end before it moved onto the shared
    // RequestLedger, and every later refactor must reproduce them.
    // The schedule covers every kind, both Busy bounds, an Unknown
    // name and a Fenced channel.
    FleetConfig cfg;
    cfg.instruments = 1;
    cfg.policy = SchedulerPolicy::RiskWeighted;
    cfg.threads = 1;
    cfg.requestQueueDepth = 8;
    cfg.requestChannelDepth = 3;
    ChannelScheduler fleet(cfg, Rng(2020));
    for (std::size_t c = 0; c < 3; ++c)
        fleet.addChannel(quickChannel(c));
    fleet.calibrateAll();
    const std::string dir = freshDbDir("svc_pinned");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    db.attachTelemetry(&fleet.telemetry());
    fleet.attachStore(&db, 1); // evict everything unpinned
    FleetService svc(fleet);

    uint64_t id = 100;
    auto send = [&](RequestKind kind, const std::string &channel) {
        svc.submit(makeRequest(id++, kind, channel));
    };
    svc.tick();
    ASSERT_TRUE(db.erase("wire2"));
    send(RequestKind::Verify, "wire0");
    send(RequestKind::Verify, "wire2"); // races the fence
    send(RequestKind::QuarantineStatus, "wire1");
    send(RequestKind::FleetSummary, "");
    send(RequestKind::Verify, "ghost"); // Unknown
    svc.tick();
    send(RequestKind::Reenroll, "wire1");
    send(RequestKind::Verify, "wire2"); // Fenced at arrival
    for (int k = 0; k < 5; ++k)
        send(RequestKind::Verify, "wire0"); // per-channel Busy
    send(RequestKind::FleetSummary, "");
    svc.tick();
    for (int k = 0; k < 10; ++k) // global Busy
        send(RequestKind::QuarantineStatus,
             "wire" + std::to_string(k % 3));
    svc.tick();
    send(RequestKind::Reenroll, "wire2");
    send(RequestKind::Verify, "wire2");
    for (int t = 0; t < 6 && svc.pendingRequests() > 0; ++t)
        svc.tick();

    EXPECT_EQ(svc.pendingRequests(), 0u);
    EXPECT_EQ(svc.stats().responses, svc.stats().submitted);
    EXPECT_GT(svc.stats().rejectedBusy, 0u);
    EXPECT_EQ(svc.stats().rejectedUnknown, 1u);
    std::size_t fencedAnswers = 0;
    for (const ServiceResponse &r : svc.drainResponses())
        fencedAnswers += r.status == ResponseStatus::Fenced ? 1 : 0;
    EXPECT_EQ(fencedAnswers, 2u);
    const std::string json = fleet.telemetry().exportJson();
    EXPECT_EQ(svc.responseDigest(), 17865031556130104350ULL);
    EXPECT_EQ(store::fnv1a(json.data(), json.size()),
              10833335567163392816ULL);
}

TEST(FleetService, TelemetryCountsRequestsByKindAndStatus)
{
    ChannelScheduler fleet = makeFleet(2, 2);
    FleetService svc(fleet);
    svc.submit(makeRequest(1, RequestKind::Verify, "wire0"));
    svc.submit(makeRequest(2, RequestKind::QuarantineStatus, "wire1"));
    svc.submit(makeRequest(3, RequestKind::Verify, "ghost"));
    svc.tick();
    const Registry &reg = fleet.telemetry().registry();
    EXPECT_EQ(reg.counterValue("service.requests.verify"), 2u);
    EXPECT_EQ(reg.counterValue("service.requests.quarantine_status"),
              1u);
    EXPECT_EQ(reg.counterValue("service.admitted"), 2u);
    EXPECT_EQ(reg.counterValue("service.rejected"), 1u);
    EXPECT_EQ(reg.counterValue("service.responses.ok"), 2u);
    EXPECT_EQ(reg.counterValue("service.responses.unknown"), 1u);
}

/** A small MegaFleet over a fresh store (fast-sweep scale). */
MegaFleetConfig
megaConfig(const char *name)
{
    MegaFleetConfig cfg;
    cfg.channels = 64;
    cfg.fingerprintBins = 8;
    cfg.probesPerTick = 8;
    cfg.threads = 1;
    cfg.store = dbConfig(freshDbDir(name));
    return cfg;
}

TEST(MegaFleetAdmission, BoundsAndUnknownNamesAnswerExactlyOnce)
{
    MegaFleetConfig cfg = megaConfig("mega_admission");
    cfg.requestQueueDepth = 6;
    cfg.requestChannelDepth = 2;
    MegaFleet fleet(cfg, Rng(9));
    ASSERT_EQ(fleet.enrollAll(), 64u);

    uint64_t id = 1;
    auto send = [&](RequestKind kind, const std::string &channel) {
        return fleet.submit(makeRequest(id++, kind, channel));
    };
    // Per-channel bound: the third Verify on ch5 bounces.
    EXPECT_TRUE(send(RequestKind::Verify, "ch5"));
    EXPECT_TRUE(send(RequestKind::Verify, "ch5"));
    EXPECT_FALSE(send(RequestKind::Verify, "ch5"));
    // Names outside the canonical "ch<i>" space, i < channels.
    EXPECT_FALSE(send(RequestKind::Verify, "ch007"));
    EXPECT_FALSE(send(RequestKind::Verify, "ch64"));
    EXPECT_FALSE(send(RequestKind::QuarantineStatus, "x"));
    // Global bound: six in flight, the seventh bounces.
    for (const char *ch : {"ch10", "ch11", "ch12", "ch13"})
        EXPECT_TRUE(send(RequestKind::Verify, ch));
    EXPECT_FALSE(send(RequestKind::Verify, "ch14"));

    const service::ServiceStats &stats = fleet.serviceStats();
    EXPECT_EQ(stats.submitted, 11u);
    EXPECT_EQ(stats.admitted, 6u);
    EXPECT_EQ(stats.rejectedBusy, 2u);
    EXPECT_EQ(stats.rejectedUnknown, 3u);
    EXPECT_EQ(fleet.pendingRequests(), 6u);

    std::vector<ServiceResponse> got = fleet.drainResponses();
    ASSERT_EQ(got.size(), 5u);
    const ResponseStatus rejected[] = {
        ResponseStatus::Busy, ResponseStatus::Unknown,
        ResponseStatus::Unknown, ResponseStatus::Unknown,
        ResponseStatus::Busy};
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].status, rejected[i]) << "response " << i;

    for (int t = 0; t < 4 && fleet.pendingRequests() > 0; ++t) {
        fleet.tick();
        const std::vector<ServiceResponse> more = fleet.drainResponses();
        got.insert(got.end(), more.begin(), more.end());
    }
    EXPECT_EQ(fleet.pendingRequests(), 0u);
    std::map<uint64_t, int> answers;
    for (const ServiceResponse &r : got)
        ++answers[r.id];
    ASSERT_EQ(answers.size(), 11u);
    for (const auto &entry : answers)
        EXPECT_EQ(entry.second, 1) << "request " << entry.first;

    // Both front ends report through the one service.* family.
    const Registry &reg = fleet.telemetry().registry();
    EXPECT_EQ(reg.counterValue("service.requests.verify"), 10u);
    EXPECT_EQ(reg.counterValue("service.admitted"), 6u);
    EXPECT_EQ(reg.counterValue("service.rejected"), 5u);
    EXPECT_EQ(reg.counterValue("service.responses.ok"), 6u);
    EXPECT_EQ(reg.counterValue("service.responses.unknown"), 3u);
}

TEST(FrontEnds, FleetSummaryEchoesItsChannelOnBothFrontEnds)
{
    const ServiceRequest summary =
        makeRequest(7, RequestKind::FleetSummary, "ops-console");

    ChannelScheduler bus = makeFleet(2, 1);
    FleetService svc(bus);
    ASSERT_TRUE(svc.submit(summary));
    svc.tick();
    const std::vector<ServiceResponse> a = svc.drainResponses();

    MegaFleet mega(megaConfig("mega_summary_echo"), Rng(9));
    ASSERT_EQ(mega.enrollAll(), 64u);
    ASSERT_TRUE(mega.submit(summary));
    mega.tick();
    const std::vector<ServiceResponse> b = mega.drainResponses();

    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].status, ResponseStatus::Ok);
    EXPECT_EQ(b[0].status, ResponseStatus::Ok);
    EXPECT_EQ(a[0].channel, "ops-console");
    EXPECT_EQ(b[0].channel, "ops-console");
}

} // namespace
} // namespace divot
