/**
 * @file
 * Service soak (labelled `slow`): a long mixed request stream against
 * a MegaFleet whose store is under a full fault campaign — torn
 * writes, power cuts at both commit points, bit rot, shard
 * truncation. The fleet crash-reopens and replays its journal
 * mid-traffic; the request front end must keep every contract:
 *
 *  - zero junk: no Ok Verify whose authenticated flag disagrees with
 *    its similarity against the accept bar; damaged channels answer
 *    Fenced;
 *  - completeness: every submitted request answers exactly once;
 *  - determinism: serial and pooled runs of the same soak emit
 *    bit-identical response digests.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.hh"
#include "fleet/megafleet.hh"
#include "store/io.hh"
#include "util/rng.hh"

namespace divot {
namespace {

using service::RequestKind;
using service::ResponseStatus;
using service::ServiceRequest;
using service::ServiceResponse;

struct SoakResult
{
    uint64_t digest = 0;
    uint64_t submitted = 0;
    uint64_t responses = 0;
    uint64_t junk = 0;
    uint64_t crashRecoveries = 0;
    std::size_t stuck = 0;
};

SoakResult
runSoak(unsigned threads, const char *tag)
{
    MegaFleetConfig cfg;
    cfg.channels = 3000;
    cfg.fingerprintBins = 16;
    cfg.probesPerTick = 256;
    cfg.store.shards = 32;
    cfg.store.overlayFlushRecords = 64;
    cfg.store.directory = std::string(::testing::TempDir()) +
        "svc_soak_" + tag;
    cfg.threads = threads;
    cfg.telemetry.enabled = false;
    store::ensureDir(cfg.store.directory);
    for (unsigned s = 0; s < cfg.store.shards; ++s) {
        const std::string shard = cfg.store.directory + "/shard-" +
            std::to_string(s) + ".bin";
        store::removeFile(shard);
        store::removeFile(shard + ".tmp");
    }
    store::removeFile(cfg.store.directory + "/journal.wal");

    // The bench campaign, scaled to the soak fleet: faults land
    // during enrollment AND during the request stream's re-enrolls.
    FaultPlan plan;
    plan.storageTornWrite(cfg.channels / 8)
        .storageCrash(cfg.channels / 4, StorageCrashPoint::AfterJournal)
        .storageCrash(cfg.channels / 3, StorageCrashPoint::BeforeCommit)
        .storageBitRot(cfg.channels / 2, 1, 12.0)
        .storageTruncation((cfg.channels * 2) / 3, 0.55);
    const FaultInjector injector(plan, Rng(0x50AD5ULL));

    MegaFleet fleet(cfg, Rng(20260808));
    fleet.attachFaultInjector(&injector);
    fleet.enrollAll();

    SoakResult r;
    uint64_t id = 1;
    Rng stream(0x5EAD5ULL);
    const auto drain = [&]() {
        for (const ServiceResponse &resp : fleet.drainResponses()) {
            ++r.responses;
            if (resp.kind == RequestKind::Verify &&
                resp.status == ResponseStatus::Ok) {
                const bool flagged =
                    (resp.flags & service::kResponseAuthenticated)
                    != 0;
                if (flagged !=
                    (resp.similarity >= cfg.similarityThreshold))
                    ++r.junk;
            }
        }
    };
    const uint64_t soakTicks = 40;
    for (uint64_t t = 0; t < soakTicks; ++t) {
        ServiceRequest rq;
        for (int k = 0; k < 12; ++k) {
            rq.id = id++;
            rq.kind = service::RequestKind::Verify;
            rq.channel = MegaFleet::channelId(
                stream.uniformInt(cfg.channels));
            fleet.submit(rq);
        }
        rq.id = id++;
        rq.kind = RequestKind::QuarantineStatus;
        rq.channel =
            MegaFleet::channelId(stream.uniformInt(cfg.channels));
        fleet.submit(rq);
        rq.id = id++;
        rq.kind = RequestKind::FleetSummary;
        rq.channel.clear();
        fleet.submit(rq);
        if (t % 4 == 2) {
            // Re-enroll keeps hitting the faulted store mid-soak, so
            // crash-reopen-replay happens under live traffic.
            rq.id = id++;
            rq.kind = RequestKind::Reenroll;
            rq.channel =
                MegaFleet::channelId(stream.uniformInt(cfg.channels));
            fleet.submit(rq);
        }
        fleet.tick();
        drain();
    }
    for (int extra = 0; extra < 64 && fleet.pendingRequests() > 0;
         ++extra) {
        fleet.tick();
        drain();
    }
    r.stuck = fleet.pendingRequests();
    r.digest = fleet.responseDigest();
    r.submitted = fleet.serviceStats().submitted;
    r.crashRecoveries = fleet.report().crashRecoveries;
    return r;
}

TEST(ServiceSoak, FaultedRequestStreamConvergesWithZeroJunk)
{
    const SoakResult serial = runSoak(1, "serial");
    const SoakResult pooled = runSoak(0, "pooled");

    // The campaign actually fired: the store crash-reopened at least
    // once while traffic was flowing.
    EXPECT_GE(serial.crashRecoveries, 1u);

    EXPECT_EQ(serial.junk, 0u);
    EXPECT_EQ(pooled.junk, 0u);
    EXPECT_EQ(serial.stuck, 0u);
    EXPECT_EQ(pooled.stuck, 0u);
    EXPECT_EQ(serial.responses, serial.submitted);
    EXPECT_EQ(pooled.responses, pooled.submitted);
    EXPECT_EQ(serial.digest, pooled.digest);
}

} // namespace
} // namespace divot
