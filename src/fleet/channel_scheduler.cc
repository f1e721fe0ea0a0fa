#include "fleet/channel_scheduler.hh"

#include <algorithm>

#include "util/completion_queue.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace divot {

namespace {

// Stable fork tag base for per-channel RNG lanes: channel i's lane is
// a pure function of the fleet seed and i, so the thread count and
// probe history cannot perturb fabrication or measurement draws.
constexpr uint64_t kTagFleetChannel = 0x7000ULL;

// Request-pressure boost: added to a channel's staleness x risk
// priority when a service request names it. Large enough to dominate
// any organic priority (staleness is bounded by the tick count of a
// run, risk by 8), so a requested channel wins the next dispatch.
constexpr uint64_t kRequestBoost = 1ull << 32;

// Slack for "does this round still fit in the epoch" comparisons:
// epoch boundaries are sums of per-round durations, so a fitting
// round can miss the boundary by an ulp of accumulated FP error.
constexpr double kEpochSlack = 1e-12;

// Risk weight of an authenticator state: how urgently the scheduler
// should spend a shared instrument on a channel in that state.
// Suspect channels are probed more often, not less — confirming or
// clearing an alarm is worth more than re-checking a healthy wire.
uint64_t
riskWeight(AuthState state)
{
    switch (state) {
    case AuthState::Unenrolled:
    case AuthState::Monitoring:
        return 1;
    case AuthState::Mismatch:
    case AuthState::Degraded:
        return 4;
    case AuthState::TamperAlert:
    case AuthState::Quarantine:
        return 8;
    case AuthState::PendingReenroll:
        return 0; // nothing to authenticate against: never selected
    }
    return 1;
}

} // namespace

const char *
schedulerPolicyName(SchedulerPolicy policy)
{
    switch (policy) {
    case SchedulerPolicy::RoundRobin:
        return "round-robin";
    case SchedulerPolicy::RiskWeighted:
        return "risk-weighted";
    }
    return "?";
}

ChannelScheduler::ChannelScheduler(FleetConfig config, Rng rng)
    : config_(config), rng_(rng),
      telemetry_(std::make_unique<Telemetry>(config.telemetry)),
      fleetAuth_(config.fusion, config.similarityThreshold,
                 config.tamperWireVotes),
      pool_(std::make_unique<ThreadPool>(config.threads)),
      cq_(std::make_unique<CompletionQueue>(*pool_)),
      reactor_(std::make_unique<Reactor>(config.reactor,
                                         config.instruments))
{
    if (config_.instruments == 0)
        divot_fatal("fleet needs at least one iTDR instrument");
    pool_->attachTelemetry(telemetry_.get(), "fleet.pool");
    cq_->attachTelemetry(telemetry_.get(), "fleet.cq");
    reactor_->attachTelemetry(telemetry_.get());
    Registry &reg = telemetry_->registry();
    tmTicks_ = reg.counter("fleet.ticks");
    tmProbes_ = reg.counter("fleet.probes");
    tmInstrumentSlots_ = reg.counter("fleet.slots.total");
    tmIdleSlots_ = reg.counter("fleet.slots.idle");
    tmTrusted_ = reg.counter("fleet.verdicts.trusted");
    tmUntrusted_ = reg.counter("fleet.verdicts.untrusted");
    tmAlarms_ = reg.counter("fleet.alarms");
    tmTrustFlips_ = reg.counter("fleet.trust_flips");
    tmStaleness_ = reg.histogram("fleet.staleness",
                                 {1, 2, 4, 8, 16, 32});
    tmRiskWeight_ = reg.histogram("fleet.risk_weight", {1, 4, 8});
    tmUtilization_ = reg.gauge("fleet.instrument.utilization");
    tmIdleSlotPermille_ = reg.gauge("fleet.reactor.idle_slot.permille");
    tmQueuePeak_ = reg.gauge("fleet.reactor.queue.peak");
    // Steady-state epoch: one hydrate + one completion per instrument
    // plus the epoch tail — pre-size the arena so ticks never grow it.
    reactor_->reserve(2 * config_.instruments + 4);
}

ChannelScheduler::~ChannelScheduler() = default;
ChannelScheduler::ChannelScheduler(ChannelScheduler &&) noexcept = default;
ChannelScheduler &
ChannelScheduler::operator=(ChannelScheduler &&) noexcept = default;

std::size_t
ChannelScheduler::addChannel(BusChannelConfig config)
{
    if (calibrated_)
        divot_fatal("cannot add channel '%s' after calibrateAll()",
                    config.name.c_str());
    const std::size_t index = channels_.size();
    channels_.push_back(std::make_unique<BusChannel>(
        std::move(config), rng_.forkStable(kTagFleetChannel + index)));
    channels_.back()->attachTelemetry(telemetry_.get());
    tmChannelProbes_.push_back(telemetry_->registry().counter(
        "fleet.channel." + channels_.back()->name() + ".probes"));
    lastProbeTick_.push_back(-1);
    probeCounts_.push_back(0);
    generations_.push_back(0);
    phase_.push_back(ChannelPhase::Idle);
    lastDispatchTick_.push_back(-1);
    channelSlot_.push_back(0);
    requestBoost_.push_back(0);
    nameIndex_.emplace(channels_.back()->name(), index);
    if (db_ != nullptr) {
        shardChannels_[db_->shardOf(channels_.back()->name())]
            .push_back(index);
    }
    fleetAuth_.setChannelCount(channels_.size());
    return index;
}

void
ChannelScheduler::rebuildShardRouting()
{
    shardChannels_.clear();
    if (db_ == nullptr)
        return;
    for (std::size_t i = 0; i < channels_.size(); ++i)
        shardChannels_[db_->shardOf(channels_[i]->name())].push_back(i);
}

void
ChannelScheduler::scheduleEvent(ReactorEventType type, double vtime,
                                std::size_t channel, uint64_t ticket)
{
    reactor_->schedule(type, vtime, channel, ticket);
    tmQueuePeak_.max(static_cast<int64_t>(reactor_->depth()));
}

void
ChannelScheduler::attachStore(store::EnrollmentDb *db,
                              std::size_t resident_budget_bytes)
{
    db_ = db;
    residentBudget_ = resident_budget_bytes;
    resident_ = 0;
    rebuildShardRouting();
    if (db_ == nullptr)
        return;
    Registry &reg = telemetry_->registry();
    tmHydrates_ = reg.counter("store.hydrates");
    tmEvictions_ = reg.counter("store.evictions");
    tmPendingReenroll_ = reg.counter("store.pending_reenroll");
    tmScrubTicks_ = reg.counter("store.scrub.idle_ticks");
    if (calibrated_) {
        persistAll();
        enforceResidentBudget(-1);
    }
}

bool
ChannelScheduler::persistChannel(std::size_t index)
{
    if (db_ == nullptr)
        return false;
    const BusChannel &ch = *channels_[index];
    if (!ch.enrollmentResident())
        return true; // evicted: the durable copy is already current
    store::EnrollmentRecord record;
    record.id = ch.name();
    record.fp = ch.authenticator().enrolled();
    record.nominal = ch.authenticator().nominal();
    if (ch.state() == AuthState::Quarantine)
        record.flags |= store::kRecordQuarantined;
    // The durable record carries the post-bump generation, so what
    // the service reports after an Enroll is exactly what a later
    // hydration (or audit) reads back.
    record.generation = generations_[index] + 1;
    if (!db_->put(record))
        return false;
    ++generations_[index];
    return true;
}

void
ChannelScheduler::persistAll()
{
    resident_ = 0;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        if (!persistChannel(i))
            divot_warn("fleet: failed to persist enrollment for "
                       "channel '%s'", channels_[i]->name().c_str());
        if (channels_[i]->enrollmentResident())
            resident_ += channels_[i]->enrollmentBytes();
    }
}

void
ChannelScheduler::demoteToPendingReenroll(std::size_t index,
                                          double wall)
{
    BusChannel &ch = *channels_[index];
    const std::size_t bytes =
        ch.enrollmentResident() ? ch.enrollmentBytes() : 0;
    const AuthVerdict verdict = ch.markPendingReenroll();
    resident_ -= std::min(resident_, bytes);
    phase_[index] = ChannelPhase::Fenced;
    tmPendingReenroll_.add();
    // The fused verdict must stop reusing this wire's stale score the
    // moment the loss is known, so the demotion is observed like a
    // probe even though no instrument ran.
    fleetAuth_.observe(index, verdict);
    requestBoost_[index] = 0;
    if (hook_ != nullptr)
        hook_->onProbeObserved(index, verdict, wall);
    TelemetryEvent event;
    event.time = wall;
    event.ordinal = tick_;
    event.kind = "store.lost";
    event.tag = ch.name();
    event.detail = "enrollment unrecoverable; pending re-enroll";
    telemetry_->events().record(std::move(event));
}

bool
ChannelScheduler::hydrateChannel(std::size_t index, double wall)
{
    BusChannel &ch = *channels_[index];
    if (ch.state() == AuthState::PendingReenroll)
        return false;
    if (db_ == nullptr || ch.enrollmentResident())
        return true;
    store::EnrollmentRecord record;
    if (db_->get(ch.name(), record) == store::DbGetStatus::Ok) {
        ch.restoreEnrollment(std::move(record.fp),
                             std::move(record.nominal));
        resident_ += ch.enrollmentBytes();
        tmHydrates_.add();
        return true;
    }
    // Missing or damaged in every bank: for an enrolled channel both
    // mean the calibration is gone. Fence the channel, keep the fleet.
    demoteToPendingReenroll(index, wall);
    return false;
}

void
ChannelScheduler::enforceResidentBudget(int64_t current_tick)
{
    if (db_ == nullptr || residentBudget_ == 0 ||
        resident_ <= residentBudget_) {
        return;
    }
    // LRU over (last probe tick, index): deterministic, and channels
    // probed this tick are pinned — the tick working set is the floor
    // below which the budget cannot squeeze.
    struct Candidate
    {
        int64_t lastProbe;
        std::size_t index;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        if (!channels_[i]->enrollmentResident())
            continue;
        if (generations_[i] == 0)
            continue; // never persisted: eviction would lose it
        if (lastProbeTick_[i] == current_tick)
            continue;
        candidates.push_back({lastProbeTick_[i], i});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.lastProbe != b.lastProbe)
                      return a.lastProbe < b.lastProbe;
                  return a.index < b.index;
              });
    for (const Candidate &cand : candidates) {
        if (resident_ <= residentBudget_)
            break;
        BusChannel &ch = *channels_[cand.index];
        const std::size_t bytes = ch.enrollmentBytes();
        ch.releaseEnrollment();
        resident_ -= std::min(resident_, bytes);
        tmEvictions_.add();
    }
}

bool
ChannelScheduler::reenrollChannel(std::size_t index)
{
    BusChannel &ch = channel(index);
    // Operator-initiated: consumed immediately (between epochs), but
    // still sequenced and counted so the event order stays a complete
    // record of everything that happened to the fleet.
    reactor_->dispatchImmediate(ReactorEventType::RecalibrateRequest,
                                elapsed_, index);
    const bool was_resident = ch.enrollmentResident();
    const std::size_t before = was_resident ? ch.enrollmentBytes() : 0;
    ch.calibrate();
    phase_[index] = ChannelPhase::Idle;
    if (db_ != nullptr) {
        resident_ -= std::min(resident_, before);
        resident_ += ch.enrollmentBytes();
        if (!persistChannel(index)) {
            reactor_->dispatchImmediate(ReactorEventType::FaultEvent,
                                        elapsed_, index);
            return false;
        }
        return true;
    }
    return true;
}

void
ChannelScheduler::calibrateAll()
{
    if (channels_.empty())
        divot_fatal("fleet has no channels to calibrate");
    pool_->parallelFor(channels_.size(), [&](std::size_t idx) {
        channels_[idx]->calibrate();
    });
    // One barrier slot spans the slowest channel's round so every
    // probe of a tick fits inside it regardless of which channels are
    // selected.
    slot_ = 0.0;
    for (const auto &channel : channels_)
        slot_ = std::max(slot_, channel->roundDuration());
    calibrated_ = true;
    if (db_ != nullptr) {
        persistAll();
        enforceResidentBudget(-1);
    }
    divot_inform("fleet calibrated: %zu channels, %zu instruments, "
                 "%s policy, %s reactor, tick %.3g s",
                 channels_.size(), config_.instruments,
                 schedulerPolicyName(config_.policy),
                 reactorModeName(config_.reactor.mode), tickDuration());
}

double
ChannelScheduler::tickDuration() const
{
    if (config_.reactor.mode == ReactorMode::Pipelined)
        return slot_ * static_cast<double>(config_.reactor.epochSlots);
    return slot_;
}

ChannelPhase
ChannelScheduler::channelPhase(std::size_t index) const
{
    if (index >= phase_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, phase_.size());
    return phase_[index];
}

double
ChannelScheduler::instrumentUtilization() const
{
    return reactor_->utilization(elapsed_);
}

uint64_t
ChannelScheduler::channelPriority(std::size_t index) const
{
    // Never-probed channels count staleness from before tick 0. Pure
    // function of fleet state: no RNG.
    const uint64_t staleness = static_cast<uint64_t>(
        static_cast<int64_t>(tick_) - lastProbeTick_[index]);
    uint64_t priority = staleness;
    if (config_.policy == SchedulerPolicy::RiskWeighted)
        priority *= riskWeight(channels_[index]->state());
    // Request pressure rides on top of the organic priority, so
    // requested channels outrank everything but each other (among
    // themselves: more requests, then staleness, then index).
    return priority + requestBoost_[index];
}

std::vector<std::size_t>
ChannelScheduler::selectChannels() const
{
    struct Ranked
    {
        uint64_t priority;
        std::size_t index;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(channels_.size());
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        // A PendingReenroll channel has no enrollment to probe
        // against; spending an instrument slot on it is pure waste
        // under either policy.
        if (channels_[i]->state() == AuthState::PendingReenroll)
            continue;
        ranked.push_back({channelPriority(i), i});
    }
    const std::size_t k =
        std::min(config_.instruments, ranked.size());
    std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                      [](const Ranked &a, const Ranked &b) {
                          if (a.priority != b.priority)
                              return a.priority > b.priority;
                          return a.index < b.index;
                      });
    std::vector<std::size_t> selected(k);
    for (std::size_t i = 0; i < k; ++i)
        selected[i] = ranked[i].index;
    std::sort(selected.begin(), selected.end());
    return selected;
}

bool
ChannelScheduler::tryDispatch(double vtime)
{
    // Pipelined ranking mirrors selectChannels(), restricted to
    // channels that are idle, not fenced, not yet dispatched this
    // epoch, and whose round still finishes inside the epoch. The
    // best fitting candidate wins (tie-break: lower index), so a
    // too-long round near the boundary doesn't idle an instrument a
    // shorter round could use.
    bool found = false;
    uint64_t bestPriority = 0;
    std::size_t best = 0;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        if (phase_[i] != ChannelPhase::Idle)
            continue;
        if (channels_[i]->state() == AuthState::PendingReenroll)
            continue;
        if (lastDispatchTick_[i] == static_cast<int64_t>(tick_))
            continue;
        if (vtime + channels_[i]->roundDuration() >
            epochEnd_ + kEpochSlack) {
            continue;
        }
        const uint64_t priority = channelPriority(i);
        if (!found || priority > bestPriority) {
            found = true;
            bestPriority = priority;
            best = i;
        }
    }
    if (!found)
        return false;
    lastDispatchTick_[best] = static_cast<int64_t>(tick_);
    phase_[best] = ChannelPhase::Hydrating;
    scheduleEvent(ReactorEventType::HydrateRequest, vtime, best);
    return true;
}

void
ChannelScheduler::handleEvent(const ReactorEvent &event)
{
    switch (event.type) {
    case ReactorEventType::HydrateRequest:
        onHydrateRequest(event);
        return;
    case ReactorEventType::ProbeComplete:
        onProbeComplete(event);
        return;
    case ReactorEventType::FuseEpoch:
        onFuseEpoch(event);
        return;
    case ReactorEventType::EvictPressure:
        onEvictPressure(event);
        return;
    case ReactorEventType::ScrubStep:
        onScrubStep(event);
        return;
    case ReactorEventType::RecalibrateRequest:
        // Operator path: consumed immediately in reenrollChannel(),
        // never queued.
        return;
    case ReactorEventType::FaultEvent:
        // Recovery already ran when the fault was detected (demotion
        // or failed persist); the event exists so fault manifestation
        // has a deterministic place in the order and in the
        // fleet.reactor.events.fault account.
        return;
    case ReactorEventType::RequestArrival:
        if (hook_ != nullptr)
            hook_->onRequestArrival(event);
        return;
    case ReactorEventType::RequestComplete:
        if (hook_ != nullptr)
            hook_->onRequestComplete(event);
        return;
    }
}

void
ChannelScheduler::onHydrateRequest(const ReactorEvent &event)
{
    const std::size_t c = event.channel;
    const bool pipelined =
        config_.reactor.mode == ReactorMode::Pipelined;
    if (!hydrateChannel(c, event.vtime)) {
        // Channel fenced (demotion already observed into the fused
        // verdict); record the manifestation and, pipelined, hand the
        // freed dispatch slot to the next ranked candidate.
        scheduleEvent(ReactorEventType::FaultEvent, event.vtime, c);
        if (pipelined)
            tryDispatch(event.vtime);
        return;
    }
    phase_[c] = ChannelPhase::Probing;
    if (!pipelined) {
        epochReady_.push_back(c);
        return;
    }
    recordDispatch(c);
    const double vtime = event.vtime;
    const std::size_t slot = pipeProbes_.size();
    ChannelProbe seed;
    seed.channel = c;
    pipeProbes_.push_back(seed);
    channelSlot_[c] = slot;
    ChannelProbe *out = &pipeProbes_.back();
    BusChannel *ch = channels_[c].get();
    // Physical computation on the pool; logical completion at the
    // ProbeComplete event, in deterministic (vtime, seq) order.
    const CompletionQueue::Ticket ticket = cq_->submit(
        [ch, out, vtime] { out->verdict = ch->monitorAt(vtime); });
    reactor_->acquireInstrument();
    scheduleEvent(ReactorEventType::ProbeComplete,
                  vtime + ch->roundDuration(), c, ticket);
}

void
ChannelScheduler::launchBarrierProbes()
{
    probesLaunched_ = true;
    const double wall = epochWall_;

    for (const std::size_t c : epochReady_)
        recordDispatch(c);

    round_.probes.resize(epochReady_.size());
    // Disjoint channels, disjoint result slots: bit-identical at any
    // thread count.
    pool_->parallelFor(epochReady_.size(), [&](std::size_t i) {
        const std::size_t c = epochReady_[i];
        round_.probes[i].channel = c;
        round_.probes[i].verdict = channels_[c]->monitorAt(wall);
    });

    // Completions land on the tick boundary, ascending channel order
    // (epochReady_ is ascending), followed by fusion and — with a
    // store attached — eviction pressure and, when slots idled, one
    // scrub step: exactly the pre-reactor operation order.
    for (std::size_t i = 0; i < epochReady_.size(); ++i) {
        reactor_->acquireInstrument();
        scheduleEvent(ReactorEventType::ProbeComplete,
                      epochEnd_, epochReady_[i], /*ticket=*/i);
    }
    scheduleEvent(ReactorEventType::FuseEpoch, epochEnd_);
    if (db_ != nullptr) {
        scheduleEvent(ReactorEventType::EvictPressure, epochEnd_);
        if (epochReady_.size() < config_.instruments)
            scheduleEvent(ReactorEventType::ScrubStep, epochEnd_);
    }
}

void
ChannelScheduler::scheduleEpochTail()
{
    scheduleEvent(ReactorEventType::FuseEpoch, epochEnd_);
    if (db_ != nullptr) {
        scheduleEvent(ReactorEventType::EvictPressure, epochEnd_);
        // Idle instrument time funds background maintenance, as idle
        // slots did under the barrier scheduler.
        const double capacity =
            static_cast<double>(config_.instruments) *
            (epochEnd_ - epochWall_);
        const double busy = reactor_->busySeconds() - epochBusyStart_;
        if (busy + kEpochSlack < capacity)
            scheduleEvent(ReactorEventType::ScrubStep, epochEnd_);
    }
}

void
ChannelScheduler::recordDispatch(std::size_t index)
{
    // Staleness and risk weight are exactly the quantities the ranking
    // used, captured before the probe updates them.
    tmStaleness_.record(static_cast<uint64_t>(
        static_cast<int64_t>(tick_) - lastProbeTick_[index]));
    tmRiskWeight_.record(riskWeight(channels_[index]->state()));
    tmChannelProbes_[index].add();
}

void
ChannelScheduler::observeProbe(std::size_t index, const ChannelProbe &probe,
                               double vtime)
{
    lastProbeTick_[index] = static_cast<int64_t>(tick_);
    ++probeCounts_[index];
    fleetAuth_.observe(index, probe.verdict);
    reactor_->releaseInstrument(channels_[index]->roundDuration());
    phase_[index] = ChannelPhase::Idle;
    requestBoost_[index] = 0;
    if (hook_ != nullptr)
        hook_->onProbeObserved(index, probe.verdict, vtime);
}

void
ChannelScheduler::onProbeComplete(const ReactorEvent &event)
{
    const std::size_t c = event.channel;
    if (config_.reactor.mode != ReactorMode::Pipelined) {
        observeProbe(c, round_.probes[event.ticket], event.vtime);
        return;
    }
    // Block until this probe's computation finished; every other
    // ordering decision was already fixed at dispatch.
    cq_->wait(event.ticket);
    const ChannelProbe &probe = pipeProbes_[channelSlot_[c]];
    round_.probes.push_back(probe);
    observeProbe(c, probe, event.vtime);
    // The freed instrument goes straight to the next ranked channel
    // whose round still fits — the saturation win over the barrier
    // scheduler.
    tryDispatch(event.vtime);
}

void
ChannelScheduler::onFuseEpoch(const ReactorEvent &event)
{
    round_.fused = fleetAuth_.evaluate(tick_);
    lastVerdict_ = round_.fused;
    epochFused_ = true;
    if (hook_ != nullptr)
        hook_->onEpochFused(round_.fused, event.vtime);
}

void
ChannelScheduler::onEvictPressure(const ReactorEvent &event)
{
    (void)event;
    enforceResidentBudget(static_cast<int64_t>(tick_));
}

void
ChannelScheduler::onScrubStep(const ReactorEvent &event)
{
    // One shard gets a scrub pass, repairing any single-bank damage
    // while the siblings are still healthy. Channels whose records
    // turn out damaged in both banks are fenced off right here rather
    // than at their next probe.
    const store::ScrubResult scrub = db_->scrubStep();
    tmScrubTicks_.add();
    for (const std::string &id : scrub.lostIds) {
        const auto it = nameIndex_.find(id);
        if (it == nameIndex_.end())
            continue;
        const std::size_t i = it->second;
        if (channels_[i]->state() == AuthState::PendingReenroll)
            continue;
        demoteToPendingReenroll(i, event.vtime);
        scheduleEvent(ReactorEventType::FaultEvent, event.vtime, i);
    }
    if (scrub.unreadable) {
        // The whole shard image yielded nothing recoverable, so
        // channels routed to it have lost their stored enrollment;
        // fence them now rather than letting each discover the damage
        // at its next probe. A record still pending in the
        // journal-backed overlay is not lost, so only channels the db
        // can no longer serve are demoted.
        const auto sit = shardChannels_.find(scrub.shard);
        if (sit == shardChannels_.end())
            return;
        for (const std::size_t i : sit->second) {
            if (channels_[i]->state() == AuthState::PendingReenroll)
                continue;
            store::EnrollmentRecord rec;
            if (db_->get(channels_[i]->name(), rec) !=
                store::DbGetStatus::Ok) {
                demoteToPendingReenroll(i, event.vtime);
                scheduleEvent(ReactorEventType::FaultEvent, event.vtime, i);
            }
        }
    }
}

FleetRound
ChannelScheduler::tick()
{
    if (!calibrated_)
        divot_fatal("fleet tick() before calibrateAll()");

    const bool pipelined =
        config_.reactor.mode == ReactorMode::Pipelined;
    const double epochLen = tickDuration();
    epochWall_ = epochLen * static_cast<double>(tick_);
    epochEnd_ = epochWall_ + epochLen;
    epochBusyStart_ = reactor_->busySeconds();
    round_ = FleetRound();
    round_.tick = tick_;
    epochFused_ = false;
    probesLaunched_ = false;
    epochReady_.clear();
    pipeProbes_.clear();
    epochSeeded_ = 0;

    SpanScope span = telemetry_->tracer().open("fleet.tick", "fleet",
                                               epochWall_, tick_);

    // Service requests admitted since the last epoch wait at the head
    // of the queue (the previous epoch drained everything else).
    // Consume them before ranking so their boosts steer this epoch's
    // dispatch; immediate kinds complete right here, because arrival
    // handlers schedule RequestComplete events this same loop drains.
    while (!reactor_->empty())
        handleEvent(reactor_->pop());

    if (pipelined) {
        SpanScope epochSpan = telemetry_->tracer().open(
            "fleet.reactor.epoch", "reactor", epochWall_, tick_);
        // Seed one dispatch chain per instrument; each chain keeps
        // its instrument busy until no ranked candidate fits in the
        // epoch anymore.
        for (std::size_t k = 0; k < config_.instruments; ++k) {
            if (!tryDispatch(epochWall_))
                break;
            ++epochSeeded_;
        }
        for (;;) {
            if (reactor_->empty()) {
                if (epochFused_)
                    break;
                scheduleEpochTail();
            }
            handleEvent(reactor_->pop());
        }
        epochSpan.close(epochEnd_, 0);
    } else {
        const std::vector<std::size_t> selected = selectChannels();
        epochSeeded_ = selected.size();
        for (const std::size_t c : selected) {
            phase_[c] = ChannelPhase::Hydrating;
            scheduleEvent(ReactorEventType::HydrateRequest, epochWall_, c);
        }
        // Hydrations consume in ascending channel order (equal vtime,
        // ascending seq); the queue then runs dry and the probe batch
        // + epoch tail launch in the pre-reactor operation order.
        for (;;) {
            if (reactor_->empty()) {
                if (epochFused_)
                    break;
                if (!probesLaunched_)
                    launchBarrierProbes();
                else
                    scheduleEpochTail();
            }
            handleEvent(reactor_->pop());
        }
    }

    tmTicks_.add();
    tmProbes_.add(round_.probes.size());
    tmInstrumentSlots_.add(config_.instruments);
    const std::size_t used =
        pipelined ? std::min(config_.instruments, epochSeeded_)
                  : round_.probes.size();
    tmIdleSlots_.add(config_.instruments - used);
    (round_.fused.busTrusted ? tmTrusted_ : tmUntrusted_).add();
    if (round_.fused.tamperAlarm)
        tmAlarms_.add();
    if (round_.fused.busTrusted != lastTrusted_) {
        tmTrustFlips_.add();
        TelemetryEvent event;
        event.time = epochWall_;
        event.ordinal = tick_;
        event.kind = "fleet.trust";
        event.tag = "fleet";
        event.detail = round_.fused.busTrusted
            ? "untrusted->trusted" : "trusted->untrusted";
        telemetry_->events().record(std::move(event));
    }
    lastTrusted_ = round_.fused.busTrusted;
    elapsed_ = epochEnd_;
    const int64_t util = reactor_->utilizationPerMille(elapsed_);
    tmUtilization_.set(util);
    tmIdleSlotPermille_.set(1000 - util);
    span.close(epochEnd_, 0);

    ++tick_;
    FleetRound result = std::move(round_);
    return result;
}

std::size_t
ChannelScheduler::findChannel(const std::string &name) const
{
    const auto it = nameIndex_.find(name);
    return it == nameIndex_.end() ? kNoChannel : it->second;
}

void
ChannelScheduler::scheduleRequestArrival(std::size_t channel,
                                         uint64_t ticket)
{
    scheduleEvent(ReactorEventType::RequestArrival, elapsed_, channel, ticket);
}

void
ChannelScheduler::scheduleRequestComplete(std::size_t channel,
                                          uint64_t ticket, double vtime)
{
    scheduleEvent(ReactorEventType::RequestComplete, vtime, channel, ticket);
}

void
ChannelScheduler::boostChannel(std::size_t index)
{
    if (index >= requestBoost_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, requestBoost_.size());
    requestBoost_[index] += kRequestBoost;
}

bool
ChannelScheduler::persistEnrollment(std::size_t index)
{
    if (db_ == nullptr)
        return false;
    if (!persistChannel(index)) {
        reactor_->dispatchImmediate(ReactorEventType::FaultEvent,
                                    elapsed_, index);
        return false;
    }
    return true;
}

uint64_t
ChannelScheduler::enrollmentGeneration(std::size_t index) const
{
    if (index >= generations_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, generations_.size());
    return generations_[index];
}

FleetRound
ChannelScheduler::run(std::size_t rounds)
{
    FleetRound last;
    for (std::size_t r = 0; r < rounds; ++r)
        last = tick();
    return last;
}

BusChannel &
ChannelScheduler::channel(std::size_t index)
{
    if (index >= channels_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, channels_.size());
    return *channels_[index];
}

const BusChannel &
ChannelScheduler::channel(std::size_t index) const
{
    if (index >= channels_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, channels_.size());
    return *channels_[index];
}

uint64_t
ChannelScheduler::probeCount(std::size_t index) const
{
    if (index >= probeCounts_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, probeCounts_.size());
    return probeCounts_[index];
}

FleetCacheStats
ChannelScheduler::cacheStats() const
{
    FleetCacheStats stats;
    stats.totals.name = "fleet";
    stats.perChannel.reserve(channels_.size());
    for (const auto &channel : channels_) {
        const TraceCache &cache = channel->traceCache();
        ChannelCacheStats cs;
        cs.name = channel->name();
        cs.hits = cache.hits();
        cs.misses = cache.misses();
        cs.evictions = cache.evictions();
        stats.totals.hits += cs.hits;
        stats.totals.misses += cs.misses;
        stats.totals.evictions += cs.evictions;
        stats.perChannel.push_back(std::move(cs));
    }
    return stats;
}

} // namespace divot
