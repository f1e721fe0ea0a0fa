/**
 * @file
 * bus-service: the physical fleet stack — ChannelScheduler over 64
 * fabricated 25 cm wires sharing 8 iTDR instruments (RiskWeighted),
 * store-backed with a resident budget of a quarter of the enrollment
 * bytes so ticks hydrate and evict, fronted by service::FleetService.
 * A request-free prefix stages a wire tap and times its detection;
 * then Verify requests arrive open-loop at 200/s.
 */

#include <algorithm>
#include <filesystem>
#include <memory>

#include "fleet/channel_scheduler.hh"
#include "openloop.hh"
#include "service/fleet_service.hh"
#include "store/enrollment_db.hh"
#include "txline/tamper.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using divot::ChannelScheduler;

constexpr std::size_t kWires = 64;
constexpr std::size_t kInstruments = 8;
constexpr double kRate = 200.0;      //!< offered Verify requests/s
constexpr double kLimitMs = 50.0;    //!< latency limit
constexpr uint64_t kTapTick = 8;     //!< prefix tick the tap lands on
/** The tap is the same on every seed (wire, place, stub), so the work a
 *  tapped wire adds per tick does not vary from seed to seed; wire 37
 *  is mid-rotation when the tap lands, so detection takes 5 ticks. */
constexpr std::size_t kTapWire = 37;
constexpr double kTapPosition = 0.4;
constexpr double kTapStubOhms = 50.0;
constexpr uint64_t kMaxDetectTicks = 64;
constexpr int kSetups = 3;

std::string
wireName(std::size_t i)
{
    return "wire" + std::to_string(i);
}

/** One assembled bus: the store, the scheduler borrowing it, and the
 *  service fronting the scheduler (destroyed in reverse order). */
struct Bus
{
    std::unique_ptr<divot::store::EnrollmentDb> db;
    std::unique_ptr<ChannelScheduler> fleet;
    std::unique_ptr<divot::service::FleetService> svc;
    std::size_t budgetBytes = 0;
};

} // namespace

Outcome
runBusService(const Options &opt)
{
    Outcome out;
    Tracer tracer;
    const IoMeter io;
    const std::string dir = opt.dataDir + "/bus";

    divot::FleetConfig cfg;
    cfg.instruments = kInstruments;
    cfg.policy = divot::SchedulerPolicy::RiskWeighted;
    cfg.threads = workerThreads();
    const divot::BusChannelConfig channelBase;

    // --- set-up, several times: addChannel + calibrateAll +
    //     attachStore -------------------------------------------------
    Bus bus;
    std::vector<double> setupS, calibrateS;
    double tracedSetupS = 0.0;
    IoCounters enrollIo;
    for (int r = 0; r < kSetups; ++r) {
        bus.fleet.reset(); // before the db it borrows
        bus.db.reset();
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        const bool tracedSetup = opt.trace && r == kSetups - 1;
        tracer.setEnabled(tracedSetup);
        Span setup(tracer, "setup");
        {
            Span s(tracer, "fleet.add_channels");
            bus.fleet = std::make_unique<ChannelScheduler>(
                cfg, divot::Rng(opt.seed));
            for (std::size_t i = 0; i < kWires; ++i) {
                divot::BusChannelConfig c = channelBase;
                c.lineLength = 0.25;
                c.name = wireName(i);
                bus.fleet->addChannel(c);
            }
        }
        {
            Span s(tracer, "fleet.calibrate_all");
            bus.fleet->calibrateAll();
            calibrateS.push_back(s.close());
        }
        std::size_t enrollBytes = 0;
        for (std::size_t i = 0; i < kWires; ++i)
            enrollBytes += bus.fleet->channel(i).enrollmentBytes();
        bus.budgetBytes = enrollBytes / 4;
        const IoCounters before = io.read();
        {
            Span s(tracer, "fleet.attach_store");
            divot::store::EnrollmentDbConfig dbc;
            dbc.directory = dir;
            dbc.shards = 8;
            bus.db = std::make_unique<divot::store::EnrollmentDb>(dbc);
            out.check(bus.db->open(), "enrollment db failed to open");
            bus.fleet->attachStore(bus.db.get(), bus.budgetBytes);
            // As MegaFleet::enrollAll does: end with every record in a
            // shard image, so hydration reads the store, not overlays.
            out.check(bus.db->checkpoint(), "enrollment checkpoint failed");
        }
        enrollIo = io.delta(before, io.read());
        const double dt = setup.close();
        if (tracedSetup)
            tracedSetupS = dt;
        else
            setupS.push_back(dt);
    }
    tracer.setEnabled(false);
    ChannelScheduler &fleet = *bus.fleet;
    bus.svc = std::make_unique<divot::service::FleetService>(fleet);
    divot::service::FleetService &svc = *bus.svc;

    // --- request-free prefix: stage a wire tap, time its detection ----
    bool alarmBeforeTap = false;
    for (uint64_t t = 0; t < kTapTick; ++t) {
        if (svc.tick().fused.tamperAlarm)
            alarmBeforeTap = true;
    }
    fleet.channel(kTapWire).stageAttack(
        divot::WireTap(kTapPosition, kTapStubOhms));
    const double stagedAt = fleet.elapsedSeconds();
    uint64_t detectTicks = 0;
    bool detected = false;
    while (!detected && detectTicks < kMaxDetectTicks) {
        detected = svc.tick().fused.tamperAlarm;
        ++detectTicks;
    }
    const double detectSimMs = (fleet.elapsedSeconds() - stagedAt) * 1e3;
    out.check(!alarmBeforeTap, "tamper alarm raised before the tap");
    out.check(detected, "wire tap never raised a fused tamper alarm");

    // --- timed open-loop phase ------------------------------------------
    LoadSpec load;
    load.rate = kRate;
    load.channels = kWires;
    load.channelName = wireName;
    const std::vector<Arrival> schedule =
        openLoopSchedule(opt.seed, opt.seconds, load);

    const auto hydrates = [&] {
        return fleet.telemetry().registry().counterValue("store.hydrates");
    };
    std::size_t peakResident = fleet.residentEnrollmentBytes();
    std::vector<uint64_t> probeCounts0(kWires);
    for (std::size_t i = 0; i < kWires; ++i)
        probeCounts0[i] = fleet.probeCount(i);

    FrontEnd front;
    front.similarityBar = channelBase.auth.similarityThreshold;
    front.submit = [&](const divot::service::ServiceRequest &rq) {
        return svc.submit(rq);
    };
    front.tick = [&]() -> uint64_t {
        const divot::FleetRound round = svc.tick();
        peakResident =
            std::max(peakResident, fleet.residentEnrollmentBytes());
        return round.probes.size();
    };
    front.drain = [&] { return svc.drainResponses(); };
    front.pending = [&] { return svc.pendingRequests(); };

    const uint64_t hydrates0 = hydrates();
    const divot::FleetCacheStats trace0 = fleet.cacheStats();
    const uint64_t ioEvents0 = bus.db->ioEvents();
    const double sim0 = fleet.elapsedSeconds();
    const double host0 = now();
    const LoopResult res = runOpenLoop(schedule, opt.seconds, kLimitMs,
                                       opt.trace, tracer, io, front);
    const double hostSpan = now() - host0;
    const double simSpan = fleet.elapsedSeconds() - sim0;
    const divot::FleetCacheStats trace1 = fleet.cacheStats();

    checkRequests(res, out);

    // --- end-to-end (untraced window) -----------------------------------
    const Window &w0 = res.windows.front();
    out.set("setup_s", median(setupS), "s");
    reportRequestMetrics(w0, res, /*hasReenroll=*/false, out);
    out.set("peak_rss_mib", peakRssMib(), "MiB");
    out.set("detect_sim_ms", detectSimMs, "sim_ms");

    // --- per-layer --------------------------------------------------------
    const Window &wt = res.windows.back();
    const LoopTotals tot = loopTotals(res);
    const uint64_t probes = tot.probes;
    const IoCounters &tickIo = tot.io;
    const double perTick = tot.ticks > 0 ? 1.0 / tot.ticks : 0.0;
    out.set("store.read_bytes_per_probe",
            probes > 0 ? static_cast<double>(tickIo.rchar) / probes : 0.0,
            "B/probe");
    out.set("store.read_calls_per_tick", tickIo.syscr * perTick,
            "calls/tick");
    out.set("store.write_bytes_per_enroll",
            static_cast<double>(enrollIo.wchar) / kWires, "B/enroll");
    out.set("store.write_calls_per_enroll",
            static_cast<double>(enrollIo.syscw) / kWires, "calls/enroll");
    out.set("store.io_events", (bus.db->ioEvents() - ioEvents0) * perTick,
            "events/tick");
    out.set("fleet.calibrate_all_s", median(calibrateS), "s");
    out.set("fleet.tick_ms.p50", percentile(wt.tickMs, 50), "ms");
    out.set("fleet.tick_ms.p99", percentile(wt.tickMs, 99), "ms");
    out.set("fleet.tick.self_s", tracer.selfSeconds()["fleet.tick"], "s");
    out.set("fleet.hydrates_per_probe",
            probes > 0 ? static_cast<double>(hydrates() - hydrates0) /
                             probes
                       : 0.0,
            "1/probe");
    out.set("fleet.peak_resident_bytes", static_cast<double>(peakResident),
            "B");
    out.set("fleet.instrument_utilization", fleet.instrumentUtilization(),
            "ratio");
    out.set("fleet.queue_peak", static_cast<double>(fleet.queuePeak()),
            "events");
    out.set("fleet.sim_s_per_host_s",
            hostSpan > 0.0 ? simSpan / hostSpan : 0.0, "ratio");
    const uint64_t hits = trace1.totals.hits - trace0.totals.hits;
    const uint64_t misses = trace1.totals.misses - trace0.totals.misses;
    out.set("itdr.trace_cache.hit_ratio",
            hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                              : 0.0,
            "ratio");
    out.set("itdr.host_ms_per_probe",
            probes > 0 ? tot.tickSeconds * 1e3 / probes : 0.0, "ms");
    double cycles = 0.0;
    uint64_t probed = 0;
    for (std::size_t i = 0; i < kWires; ++i) {
        const uint64_t n = fleet.probeCount(i) - probeCounts0[i];
        cycles += static_cast<double>(n) * fleet.channel(i).roundCycles();
        probed += n;
    }
    out.set("itdr.bus_cycles_per_probe", probed > 0 ? cycles / probed : 0.0,
            "cycles");
    out.set("auth.detect_ticks", static_cast<double>(detectTicks), "ticks");
    out.set("auth.quarantined",
            static_cast<double>(fleet.lastVerdict().quarantinedWires),
            "wires");
    reportServiceMetrics(wt, out);

    if (opt.trace) {
        Outcome traced;
        traced.set("setup_s", tracedSetupS, "s");
        reportRequestMetrics(wt, res, false, traced);
        finishTrace(opt, traced, tracer, out);
    }
    bus.svc.reset();
    bus.fleet.reset();
    bus.db.reset();
    std::filesystem::remove_all(dir);
    return out;
}

} // namespace perfbench
