/**
 * @file
 * fleet-warm and fleet-cold: the MegaFleet store-backed fleet at 100k
 * channels under an open-loop Verify/Reenroll load. The two differ only
 * in the shard-image cache budget (96 MiB holds every decoded image;
 * 16 MiB is well under the ~129 MB of shard files) and the offered
 * rate, so the pair separates the cache-resident path from the store
 * read/parse/decode path.
 */

#include <cstdio>
#include <filesystem>
#include <memory>

#include "fleet/megafleet.hh"
#include "openloop.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using divot::MegaFleet;
using divot::MegaFleetConfig;

/** Verdict digest of the request-free prefix at the default seed, as
 *  bench_megafleet records it; the cache budget must never move it. */
constexpr uint64_t kGoldenPrefixDigest = 0xf9477c4f5b40262dULL;
constexpr int kPrefixTicks = 6;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

struct FleetSpec
{
    std::size_t cacheBytes = 0;
    double rate = 0.0;       //!< offered requests per second
    double limitMs = 0.0;    //!< latency limit
};

MegaFleetConfig
fleetConfig(const Options &opt, const FleetSpec &spec)
{
    // bench_megafleet's default scale and store tuning.
    MegaFleetConfig cfg;
    cfg.channels = 100000;
    cfg.store.shards = 512;
    cfg.probesPerTick = 4096;
    cfg.fingerprintBins = 32;
    cfg.noiseSigma = 1e-4;
    cfg.similarityThreshold = 0.35;
    cfg.tamperThreshold = 1e-6;
    cfg.tamperWireVotes = 3;
    cfg.residentBudgetBytes = 8u << 20;
    cfg.store.overlayFlushRecords = 64;
    cfg.store.journalCheckpointBytes = 64u << 20;
    cfg.store.journalGroupCommit = true;
    cfg.store.shardCacheBytes = spec.cacheBytes;
    cfg.store.directory = opt.dataDir + "/fleet";
    cfg.telemetry.enabled = false;
    cfg.threads = workerThreads();
    return cfg;
}

void
freshDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

Outcome
runFleet(const Options &opt, const FleetSpec &spec)
{
    Outcome out;
    Tracer tracer;
    const IoMeter io;
    const MegaFleetConfig cfg = fleetConfig(opt, spec);

    // --- set-up, several times: construction + enrollAll, then the
    //     request-free prefix whose verdict digest is checked ---------
    std::unique_ptr<MegaFleet> fleet;
    std::vector<double> setupS, enrollS;
    double tracedSetupS = 0.0;
    IoCounters enrollIo;
    uint64_t prefixDigest = 0;
    uint64_t untrustedTicks = 0;
    for (int r = 0; r < kSetups; ++r) {
        fleet.reset();
        freshDir(cfg.store.directory);
        const bool tracedSetup = opt.trace && r == kSetups - 1;
        tracer.setEnabled(tracedSetup);
        const IoCounters before = io.read();
        Span setup(tracer, "setup");
        {
            Span s(tracer, "fleet.construct");
            fleet = std::make_unique<MegaFleet>(cfg,
                                                divot::Rng(opt.seed));
        }
        uint64_t enrolled = 0;
        {
            Span s(tracer, "fleet.enroll_all");
            enrolled = fleet->enrollAll();
            enrollS.push_back(s.close());
        }
        const double dt = setup.close();
        enrollIo = io.delta(before, io.read());
        if (tracedSetup)
            tracedSetupS = dt;
        else
            setupS.push_back(dt);
        out.check(enrolled == cfg.channels,
                  "enrollAll enrolled " + std::to_string(enrolled) +
                      " of " + std::to_string(cfg.channels));

        Span prefix(tracer, "prefix");
        for (int t = 0; t < kPrefixTicks; ++t) {
            Span s(tracer, "fleet.prefix_tick");
            if (!fleet->tick().busTrusted)
                ++untrustedTicks;
        }
        const uint64_t digest = fleet->report().verdictDigest;
        if (r == 0)
            prefixDigest = digest;
        out.check(digest == prefixDigest,
                  "prefix verdict digest differs between set-ups");
    }
    tracer.setEnabled(false);
    char hex[64];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(prefixDigest));
    out.verdictDigest = hex;
    if (opt.seed == kDefaultSeed) {
        char golden[64];
        std::snprintf(golden, sizeof golden, "%016llx",
                      static_cast<unsigned long long>(kGoldenPrefixDigest));
        out.check(prefixDigest == kGoldenPrefixDigest,
                  std::string("prefix verdict digest ") + hex +
                      " != golden " + golden);
    }

    // --- timed open-loop phase ------------------------------------------
    LoadSpec load;
    load.rate = spec.rate;
    load.reenrollShare = 1.0 / 8.0; // 7 Verify : 1 Reenroll
    load.channels = cfg.channels;
    load.channelName = [](std::size_t i) {
        return MegaFleet::channelId(i);
    };
    const std::vector<Arrival> schedule =
        openLoopSchedule(opt.seed, opt.seconds, load);

    FrontEnd front;
    front.similarityBar = cfg.similarityThreshold;
    front.submit = [&](const divot::service::ServiceRequest &rq) {
        return fleet->submit(rq);
    };
    front.tick = [&]() -> uint64_t {
        const uint64_t before = fleet->report().probes;
        const divot::MegaFleetVerdict v = fleet->tick();
        if (!v.busTrusted)
            ++untrustedTicks;
        return fleet->report().probes - before;
    };
    front.drain = [&] { return fleet->drainResponses(); };
    front.pending = [&] { return fleet->pendingRequests(); };

    const divot::MegaFleetReport rep0 = fleet->report();
    const divot::store::ShardCacheStats cache0 = fleet->db().cacheStats();
    const uint64_t ioEvents0 = fleet->db().ioEvents();
    const double loopStart = now();
    const LoopResult res = runOpenLoop(schedule, opt.seconds,
                                       spec.limitMs, opt.trace, tracer,
                                       io, front);
    out.notes.push_back("timed phase " +
                        std::to_string(now() - loopStart) + " s");
    const divot::MegaFleetReport rep1 = fleet->report();
    const divot::store::ShardCacheStats cache1 = fleet->db().cacheStats();
    const uint64_t ioEvents1 = fleet->db().ioEvents();

    // --- correctness ----------------------------------------------------
    out.check(untrustedTicks == 0,
              std::to_string(untrustedTicks) +
                  " ticks distrusted a clean fleet");
    out.check(rep1.pendingReenroll == 0, "channels fell to PendingReenroll");
    out.check(rep1.peakResidentBytes <= cfg.residentBudgetBytes,
              "resident enrollment bytes exceeded the budget");
    checkRequests(res, out);

    // --- end-to-end (untraced window) -----------------------------------
    const Window &w0 = res.windows.front();
    out.set("setup_s", median(setupS), "s");
    reportRequestMetrics(w0, res, /*hasReenroll=*/true, out);
    out.set("peak_rss_mib", peakRssMib(), "MiB");

    // --- per-layer --------------------------------------------------------
    const Window &wt = res.windows.back();
    const LoopTotals tot = loopTotals(res);
    const uint64_t probes = tot.probes, reenrolls = tot.reenrollsOk;
    const IoCounters &tickIo = tot.io;
    const double perTick = tot.ticks > 0 ? 1.0 / tot.ticks : 0.0;
    out.set("store.read_bytes_per_probe",
            probes > 0 ? static_cast<double>(tickIo.rchar) / probes : 0.0,
            "B/probe");
    out.set("store.read_calls_per_tick", tickIo.syscr * perTick,
            "calls/tick");
    out.set("store.write_bytes_per_enroll",
            static_cast<double>(enrollIo.wchar) / cfg.channels, "B/enroll");
    out.set("store.write_calls_per_enroll",
            static_cast<double>(enrollIo.syscw) / cfg.channels,
            "calls/enroll");
    out.set("store.write_bytes_per_reenroll",
            reenrolls > 0 ? static_cast<double>(tickIo.wchar) / reenrolls
                          : 0.0,
            "B/reenroll");
    out.set("store.io_events", (ioEvents1 - ioEvents0) * perTick,
            "events/tick");
    const uint64_t hits = cache1.hits - cache0.hits;
    const uint64_t misses = cache1.misses - cache0.misses;
    out.set("store.cache.hit_ratio",
            hits + misses > 0
                ? static_cast<double>(hits) / (hits + misses)
                : 0.0,
            "ratio");
    out.set("store.cache.misses", misses * perTick, "1/tick");
    out.set("store.cache.evictions",
            (cache1.evictions - cache0.evictions) * perTick, "1/tick");
    out.set("fleet.enroll_all_s", median(enrollS), "s");
    out.set("fleet.tick_ms.p50", percentile(wt.tickMs, 50), "ms");
    out.set("fleet.tick_ms.p99", percentile(wt.tickMs, 99), "ms");
    out.set("fleet.tick.self_s", tracer.selfSeconds()["fleet.tick"], "s");
    out.set("fleet.hydrates_per_probe",
            rep1.probes > rep0.probes
                ? static_cast<double>(rep1.hydrates - rep0.hydrates) /
                      (rep1.probes - rep0.probes)
                : 0.0,
            "1/probe");
    out.set("fleet.peak_resident_bytes",
            static_cast<double>(rep1.peakResidentBytes), "B");
    out.set("fleet.instrument_utilization", rep1.instrumentUtilization,
            "ratio");
    reportServiceMetrics(wt, out);

    if (opt.trace) {
        Outcome traced;
        traced.set("setup_s", tracedSetupS, "s");
        reportRequestMetrics(wt, res, true, traced);
        finishTrace(opt, traced, tracer, out);
    }
    fleet.reset();
    std::filesystem::remove_all(cfg.store.directory);
    return out;
}

} // namespace

Outcome
runFleetWarm(const Options &opt)
{
    return runFleet(opt, FleetSpec{96u << 20, 1000.0, 50.0});
}

Outcome
runFleetCold(const Options &opt)
{
    return runFleet(opt, FleetSpec{16u << 20, 200.0, 1000.0});
}

} // namespace perfbench
