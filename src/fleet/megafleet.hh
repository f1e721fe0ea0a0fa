/**
 * @file
 * MegaFleet — a bounded-memory fleet service for very large channel
 * counts (10^5+), built directly on the sharded EnrollmentDb.
 *
 * The full BusChannel stack fabricates a transmission line, an
 * environment model, and an instrument per channel — megabytes and
 * milliseconds each, fine for dozens of wires, impossible for a
 * hundred thousand. MegaFleet keeps the *persistence and fusion*
 * semantics of the fleet layer while replacing the physics with a
 * deterministic synthetic channel model:
 *
 *  - enrollment fingerprint of channel i = a waveform drawn from
 *    `rng.forkStable(kTagMegaChannel + i)` — a pure function of the
 *    fleet seed and the index, never materialized fleet-wide;
 *  - a probe of channel i at tick t = that enrollment plus noise from
 *    `forkStable(mix(i, t))`, so any probe can be recomputed from
 *    scratch without holding anything resident.
 *
 * Memory contract: the per-channel registry holds only lifecycle
 * state and the latest fused score (O(10 bytes) per channel). All
 * fingerprints live in the EnrollmentDb; each tick hydrates exactly
 * the probed batch — grouped by shard so every shard file is read at
 * most once per tick, the groups read in parallel through one store
 * batch call — and releases it when the tick ends. Peak
 * resident enrollment bytes are reported so benches can assert the
 * budget held.
 *
 * Determinism contract: probes of one tick write disjoint slots and
 * draw only from forkStable streams; hydration reads shard groups in
 * parallel but merges them, and applies their cache accesses,
 * serially in ascending shard order; fusion and every EnrollmentDb
 * mutation run in serial sections (enrollment builds its shard images
 * in parallel but commits them in ascending shard order). Fused
 * verdicts are therefore bit-identical at any thread count, with or
 * without an active storage FaultPlan (the db's IO-event sequence is
 * thread-independent either way).
 *
 * Crash behavior: a simulated power cut (StorageCrash cell) kills the
 * db handle; MegaFleet reopens the directory — which replays the
 * journal — on a handle that continues the dead one's IO-event count,
 * then retries: enrollment rewrites the shards whose commit did not
 * land, a re-enrollment re-puts its record. Channels whose records
 * are damaged beyond every recovery path land in PendingReenroll and
 * stop contributing evidence; they never authenticate junk.
 */

#ifndef DIVOT_FLEET_MEGAFLEET_HH
#define DIVOT_FLEET_MEGAFLEET_HH

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fingerprint/fusion.hh"
#include "fleet/channel_scheduler.hh"
#include "fleet/reactor.hh"
#include "service/ledger.hh"
#include "service/request.hh"
#include "store/enrollment_db.hh"
#include "telemetry/telemetry.hh"
#include "util/rng.hh"

namespace divot {

/** MegaFleet tuning. */
struct MegaFleetConfig
{
    std::size_t channels = 100000;  //!< fleet size
    std::size_t fingerprintBins = 32; //!< samples per synthetic IIP
    double noiseSigma = 1e-4;       //!< probe noise, relative
    double similarityThreshold = 0.35; //!< fused-score accept bar
    double tamperThreshold = 1e-6;  //!< per-wire peak-error alarm bar
    unsigned tamperWireVotes = 3;   //!< M-of-N bus alarm quorum
    FusionConfig fusion;            //!< similarity fusion rule
    unsigned threads = 0;           //!< worker threads (0 = hardware)
    std::size_t probesPerTick = 4096; //!< wires probed per tick
    store::EnrollmentDbConfig store;  //!< shard directory + tunables
    std::size_t residentBudgetBytes = 32u << 20; //!< hydration budget
    TelemetryConfig telemetry;      //!< observability (on by default)
    std::size_t instruments = 8;    //!< modeled iTDR pool size for the
                                    //!< instrument-schedule accounting
    ReactorMode schedule = ReactorMode::Barrier; //!< instrument-pool
                                    //!< scheduling model: Barrier
                                    //!< stretches each wave of
                                    //!< `instruments` probes to its
                                    //!< slowest member; Pipelined
                                    //!< hands a freed instrument to
                                    //!< the next probe immediately.
                                    //!< Pure accounting — probe math
                                    //!< and verdict digests are
                                    //!< identical in both modes

    /** Global admission bound of the request front end (in-flight
     *  requests; beyond it submits reject Busy). */
    std::size_t requestQueueDepth = 1024;

    /** Per-channel admission bound (see FleetConfig). */
    std::size_t requestChannelDepth = 4;
};

/** Summary of a MegaFleet run. */
struct MegaFleetReport
{
    uint64_t enrolled = 0;       //!< records durably enrolled by
                                 //!< enrollAll
    uint64_t fencedAtEnroll = 0; //!< channels enrollAll fenced (their
                                 //!< shard commit never landed)
    uint64_t lostAfterEnroll = 0; //!< channels fenced later, when their
                                  //!< durable record turned out lost
                                  //!< in every bank
    uint64_t crashRecoveries = 0; //!< db reopen+replay cycles survived
    uint64_t ticks = 0;          //!< monitoring ticks executed
    uint64_t probes = 0;         //!< per-wire probes performed
    uint64_t hydrates = 0;       //!< records hydrated from shards
    uint64_t pendingReenroll = 0; //!< fences raised, either cause
                                  //!< (fencedAtEnroll +
                                  //!< lostAfterEnroll); cumulative —
                                  //!< a lifted fence stays counted
    bool lastTrusted = false;    //!< busTrusted after the final tick
    double lastFusedSimilarity = 0.0; //!< fused score, final tick
    uint64_t verdictDigest = 0;  //!< FNV-1a over every fused verdict
                                 //!< (bit-identity comparisons)
    std::size_t peakResidentBytes = 0; //!< max hydrated bytes held at
                                       //!< any instant
    double instrumentUtilization = 0.0; //!< busy / capacity of the
                                        //!< modeled instrument pool
                                        //!< under `config.schedule`
};

/** One fused bus verdict from a MegaFleet tick. */
struct MegaFleetVerdict
{
    uint64_t tick = 0;
    bool busAuthenticated = false;
    bool tamperAlarm = false;
    bool busTrusted = false;
    double fusedSimilarity = 0.0;
    std::size_t contributingWires = 0;
    std::size_t tamperedWires = 0;
    std::size_t pendingReenrollWires = 0;
};

/**
 * The bounded-memory fleet service.
 */
class MegaFleet
{
  public:
    MegaFleet(MegaFleetConfig config, Rng rng);
    ~MegaFleet();

    MegaFleet(const MegaFleet &) = delete;
    MegaFleet &operator=(const MegaFleet &) = delete;

    /**
     * Enroll every channel into the EnrollmentDb by bulk load: channels
     * are grouped by shard and each shard's image is built and written
     * once (`EnrollmentDb::writeShards`), at most two shards per worker
     * in flight. Survives simulated power cuts by reopening and
     * retrying only the shards whose commit did not land; a shard
     * whose commit fails four attempts fences its channels
     * (PendingReenroll). Finishes with a checkpoint, whose directory
     * sync pins every image before anything is reported enrolled.
     *
     * @return channels durably enrolled
     */
    uint64_t enrollAll();

    /** One monitoring tick over the next probe batch. */
    MegaFleetVerdict tick();

    /** Run `ticks` monitoring ticks. */
    MegaFleetReport run(uint64_t ticks);

    /** @return the running report (valid any time). */
    const MegaFleetReport &report() const { return report_; }

    /** @return channels fenced right now (PendingReenroll): every
     *  fence raises it, a durable (re)enrollment that lifts one lowers
     *  it. FleetSummary answers it. */
    std::size_t fencedChannels() const { return fenced_; }

    /** @return the backing database (open; may have been reopened). */
    store::EnrollmentDb &db() { return *db_; }

    /** @return the fleet-owned telemetry sink. */
    Telemetry &telemetry() { return *telemetry_; }

    /** Attach a fault injector to the db (campaign hook). */
    void attachFaultInjector(const FaultInjector *injector);

    /** @return the synthetic enrollment waveform of channel `index`
     *  (pure function of the fleet seed; test/verification hook). */
    std::vector<double> syntheticEnrollment(std::size_t index) const;

    /** @return derived id of channel `index` ("ch<index>"). */
    static std::string channelId(std::size_t index);

    /** @return modeled probe round duration of channel `index`,
     *  seconds — a pure function of the fleet seed and the index
     *  (heterogeneous, so scheduling modes actually differ). */
    double probeDuration(std::size_t index) const;

    /** @name Request front end (the same protocol and the same
     *  RequestLedger as FleetService — service/ledger.hh). */
    ///@{
    /**
     * Submit one request. Bounded admission, decided synchronously:
     * Busy/Unknown rejections emit their response immediately;
     * admitted requests answer during the next tick()s — immediately
     * for QuarantineStatus/Enroll/Reenroll, at the channel's next
     * probe for Verify (the request pulls the channel into the hot
     * set, ahead of the round-robin rotation), after fusion for
     * FleetSummary.
     *
     * @return true when admitted
     */
    bool submit(const service::ServiceRequest &request);

    /** Move out responses emitted so far, in emission order. */
    std::vector<service::ServiceResponse> drainResponses()
    {
        return ledger_.drainResponses();
    }

    /** @return chained FNV digest over every emitted response frame
     *  (the request-leg bit-identity currency). */
    uint64_t responseDigest() const { return ledger_.digest(); }

    /** @return admission/emission totals of the front end. */
    const service::ServiceStats &serviceStats() const
    {
        return ledger_.stats();
    }

    /** @return requests admitted but not yet answered. */
    std::size_t pendingRequests() const { return ledger_.pending(); }
    ///@}

  private:
    /** Per-channel registry entry — deliberately tiny. */
    struct ChannelSlot
    {
        float lastScore = -1.0f; //!< latest similarity (< 0 = none)
        uint8_t state = 0;       //!< 0 monitoring, 1 pending-reenroll
        bool tampered = false;   //!< latest probe tripped the wire bar
    };

    /** Sentinel channel for FleetSummary / unknown names. */
    static constexpr std::size_t kNoChannel =
        service::RequestLedger::kNoChannel;

    void reopenDb();
    /** Fold one tick's probe batch into the instrument-pool busy /
     *  capacity account under the configured scheduling model. */
    void accountInstrumentSchedule(
        const std::vector<std::size_t> &channels);
    /** Parse "ch<i>" into an index; kNoChannel when malformed or out
     *  of range. */
    std::size_t parseChannel(const std::string &name) const;
    /** Answer every verify ticket parked on `channel` as Fenced. */
    void answerFenced(std::size_t channel);
    /** Drain admitted requests into the tick: immediate kinds answer
     *  now, Verify parks on its (hot-set-boosted) channel, summaries
     *  wait for fusion. */
    void processArrivals();
    /** @return channel `index`'s generation-1 enrollment record. */
    store::EnrollmentRecord enrollmentRecord(std::size_t index) const;
    /** Durable put with the bounded crash-reopen-replay loop.
     *  @return durable */
    bool putWithRecovery(const store::EnrollmentRecord &record);

    MegaFleetConfig config_;
    Rng rng_;
    std::unique_ptr<Telemetry> telemetry_;
    std::unique_ptr<store::EnrollmentDb> db_;
    std::unique_ptr<class ThreadPool> pool_;
    const FaultInjector *injector_ = nullptr;
    std::vector<ChannelSlot> slots_;
    std::size_t fenced_ = 0; //!< slots in PendingReenroll right now
    std::size_t cursor_ = 0; //!< round-robin probe cursor
    uint64_t tick_ = 0;
    MegaFleetReport report_;
    double busySeconds_ = 0.0;     //!< Σ probe durations scheduled
    double capacitySeconds_ = 0.0; //!< Σ instruments x wave makespan

    /** @name Request front end + hot-set tier. */
    ///@{
    /**
     * Risk tier, probed ahead of the round-robin rotation: channels
     * whose last probe tripped the tamper bar or scored below the
     * similarity threshold, plus every channel named by a pending
     * Verify or a fresh (re)enrollment. Ascending order (std::set)
     * keeps selection deterministic; members are re-evaluated when
     * probed. O(hot + batch) per tick, never a fleet-wide sort.
     */
    std::set<std::size_t> hot_;
    service::RequestLedger ledger_;
    uint64_t arrived_ = 0; //!< tickets below this have entered a tick
    ///@}

    Counter tmTicks_;
    Counter tmProbes_;
    Counter tmHydrates_;
    Counter tmPending_;
    Counter tmCrashRecoveries_;
    Gauge tmUtilization_; //!< megafleet.instrument.utilization, ‰
};

} // namespace divot

#endif // DIVOT_FLEET_MEGAFLEET_HH
