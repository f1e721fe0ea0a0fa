#include "fleet/megafleet.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <unordered_set>
#include <utility>

#include "fingerprint/fingerprint.hh"
#include "store/io.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace divot {

namespace {

/** Domain-separation tags for the synthetic channel model. */
constexpr uint64_t kTagMegaChannel = 0x4D454741000000ULL; // "MEGA"
constexpr uint64_t kTagMegaProbe = 0x4D4550524F4245ULL;   // "MEPROBE"
constexpr uint64_t kTagMegaDuration = 0x4D454744555200ULL; // "MEGDUR"

/** Mix (channel, tick) into one forkStable tag. Multiplicative
 *  spreading keeps distinct pairs on distinct tags for any fleet and
 *  horizon this simulator can reach. */
uint64_t
probeTag(std::size_t channel, uint64_t tick)
{
    uint64_t h = kTagMegaProbe;
    h ^= (tick + 1) * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<uint64_t>(channel) + 1) * 0xc2b2ae3d27d4eb4fULL;
    return h;
}

/** Mean-removed, unit-L2 residual of a raw trace — the same
 *  normalization Fingerprint::fromMeasurement applies, reproduced
 *  here because synthetic channels have no iTDR measurement. */
Waveform
makeResidual(const std::vector<double> &raw)
{
    double mean = 0.0;
    for (double v : raw)
        mean += v;
    mean /= raw.empty() ? 1.0 : static_cast<double>(raw.size());
    std::vector<double> res(raw.size());
    double norm2 = 0.0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        res[i] = raw[i] - mean;
        norm2 += res[i] * res[i];
    }
    const double norm = std::sqrt(norm2);
    if (norm > 0.0)
        for (double &v : res)
            v /= norm;
    return Waveform(1.0, std::move(res));
}

Fingerprint
makeFingerprint(std::vector<double> raw, std::string label)
{
    Waveform residual = makeResidual(raw);
    return Fingerprint::fromParts(Waveform(1.0, std::move(raw)),
                                  std::move(residual),
                                  std::move(label));
}

} // namespace

std::string
MegaFleet::channelId(std::size_t index)
{
    return "ch" + std::to_string(index);
}

MegaFleet::MegaFleet(MegaFleetConfig config, Rng rng)
    : config_(std::move(config)),
      rng_(rng),
      telemetry_(new Telemetry(config_.telemetry)),
      pool_(new ThreadPool(config_.threads)),
      ledger_(*telemetry_, config_.requestQueueDepth,
              config_.requestChannelDepth,
              [this](const std::string &name) {
                  return parseChannel(name);
              })
{
    if (config_.channels == 0)
        config_.channels = 1;
    if (config_.fingerprintBins == 0)
        config_.fingerprintBins = 8;
    if (config_.probesPerTick == 0)
        config_.probesPerTick = 1;
    if (config_.instruments == 0)
        config_.instruments = 1;
    slots_.resize(config_.channels);

    store::ensureDir(config_.store.directory);
    db_.reset(new store::EnrollmentDb(config_.store));
    db_->attachTelemetry(telemetry_.get());
    if (!db_->open())
        divot_fatal("megafleet: cannot open enrollment db at '%s'",
                    config_.store.directory.c_str());

    Registry &reg = telemetry_->registry();
    tmTicks_ = reg.counter("megafleet.ticks");
    tmProbes_ = reg.counter("megafleet.probes");
    tmHydrates_ = reg.counter("megafleet.hydrates");
    tmPending_ = reg.counter("megafleet.pending_reenroll");
    tmCrashRecoveries_ = reg.counter("megafleet.crash_recoveries");
    tmUtilization_ = reg.gauge("megafleet.instrument.utilization");
}

MegaFleet::~MegaFleet() = default;

void
MegaFleet::attachFaultInjector(const FaultInjector *injector)
{
    injector_ = injector;
    db_->attachFaultInjector(injector_);
}

std::vector<double>
MegaFleet::syntheticEnrollment(std::size_t index) const
{
    Rng chan = rng_.forkStable(kTagMegaChannel + index);
    std::vector<double> raw(config_.fingerprintBins);
    for (double &v : raw)
        v = chan.uniform(0.25, 1.0);
    return raw;
}

double
MegaFleet::probeDuration(std::size_t index) const
{
    // Heterogeneous rounds (6x spread) keyed only by (seed, index):
    // short wires finish early, so the Pipelined schedule has real
    // slack to reclaim where Barrier waits for the wave's slowest.
    Rng lane = rng_.forkStable(kTagMegaDuration + index);
    return lane.uniform(0.2e-3, 1.2e-3);
}

void
MegaFleet::accountInstrumentSchedule(
    const std::vector<std::size_t> &channels)
{
    if (channels.empty())
        return;
    const std::size_t k = config_.instruments;
    double busy = 0.0;
    for (const std::size_t c : channels)
        busy += probeDuration(c);
    double span = 0.0;
    if (config_.schedule == ReactorMode::Barrier) {
        // Waves of k probes; each wave lasts as long as its slowest
        // member and every instrument is held for the full wave.
        for (std::size_t i = 0; i < channels.size(); i += k) {
            double waveMax = 0.0;
            const std::size_t hi = std::min(i + k, channels.size());
            for (std::size_t j = i; j < hi; ++j)
                waveMax = std::max(waveMax, probeDuration(channels[j]));
            span += waveMax;
        }
    } else {
        // Pipelined: a freed instrument immediately takes the next
        // probe in batch order; the tick lasts until the last one
        // finishes (greedy list schedule, earliest-free instrument,
        // tie-break lower index — deterministic).
        std::vector<double> freeAt(k, 0.0);
        for (const std::size_t c : channels) {
            std::size_t arg = 0;
            for (std::size_t i = 1; i < k; ++i)
                if (freeAt[i] < freeAt[arg])
                    arg = i;
            freeAt[arg] += probeDuration(c);
        }
        for (const double f : freeAt)
            span = std::max(span, f);
    }
    busySeconds_ += busy;
    capacitySeconds_ += static_cast<double>(k) * span;
    report_.instrumentUtilization =
        capacitySeconds_ > 0.0
            ? std::min(1.0, busySeconds_ / capacitySeconds_)
            : 0.0;
    tmUtilization_.set(static_cast<int64_t>(
        std::llround(report_.instrumentUtilization * 1000.0)));
}

void
MegaFleet::reopenDb()
{
    // The recovery handle continues the dead one's IO-event count, so
    // each scheduled storage fault fires once — a cut at the first
    // event of every handle would leave nothing survivable.
    const uint64_t events = db_->ioEvents();
    db_.reset(new store::EnrollmentDb(config_.store));
    db_->attachTelemetry(telemetry_.get());
    db_->attachFaultInjector(injector_);
    db_->resumeIoEvents(events);
    if (!db_->open())
        divot_fatal("megafleet: recovery open failed at '%s'",
                    config_.store.directory.c_str());
    ++report_.crashRecoveries;
    tmCrashRecoveries_.add();
}

store::EnrollmentRecord
MegaFleet::enrollmentRecord(std::size_t index) const
{
    store::EnrollmentRecord rec;
    rec.id = channelId(index);
    rec.fp = makeFingerprint(syntheticEnrollment(index), rec.id);
    rec.generation = 1;
    return rec;
}

uint64_t
MegaFleet::enrollAll()
{
    // Bulk load: group the fleet by shard, then per chunk of at most
    // two shards per worker generate the records in parallel and hand
    // them to writeShards, which builds and writes each image once.
    // Shard commits consume IO events one at a time in ascending shard
    // order and every retry resumes at the first unlanded shard, so the
    // IO-event sequence — and with it every injected storage fault and
    // every cache decision — is independent of the chunk size, hence
    // of the thread count.
    std::vector<std::vector<std::size_t>> members(db_->config().shards);
    for (std::size_t i = 0; i < config_.channels; ++i)
        members[db_->shardOf(channelId(i))].push_back(i);
    std::vector<unsigned> shards;
    for (unsigned s = 0; s < members.size(); ++s) {
        if (!members[s].empty())
            shards.push_back(s);
    }
    const std::size_t chunk = 2 * std::size_t{pool_->threadCount()};
    std::vector<int> failures(members.size(), 0);
    for (std::size_t first = 0; first < shards.size(); first += chunk) {
        std::vector<store::ShardWriteGroup> groups(
            std::min(chunk, shards.size() - first));
        pool_->parallelFor(groups.size(), [&](std::size_t g) {
            groups[g].shard = shards[first + g];
            for (const std::size_t i : members[groups[g].shard])
                groups[g].records.push_back(enrollmentRecord(i));
        });
        // A simulated power cut kills the handle mid-batch; the
        // reopened handle retries only the shards whose commit did not
        // land. A shard whose commit fails four attempts fences its
        // channels instead.
        while (!groups.empty()) {
            if (!db_->alive())
                reopenDb();
            const std::vector<store::ShardWriteStatus> status =
                db_->writeShards(groups, *pool_);
            std::vector<store::ShardWriteGroup> retry;
            for (std::size_t g = 0; g < groups.size(); ++g) {
                const unsigned shard = groups[g].shard;
                if (status[g] == store::ShardWriteStatus::Landed) {
                    report_.enrolled += groups[g].records.size();
                } else if (status[g] == store::ShardWriteStatus::Failed &&
                           ++failures[shard] == 4) {
                    for (const std::size_t i : members[shard])
                        slots_[i].state = 1;
                    fenced_ += members[shard].size();
                    report_.fencedAtEnroll += members[shard].size();
                    report_.pendingReenroll += members[shard].size();
                    tmPending_.add(members[shard].size());
                } else {
                    retry.push_back(std::move(groups[g]));
                }
            }
            groups = std::move(retry);
        }
    }
    // The closing checkpoint is the load's one directory sync: it pins
    // every rename before anything is reported enrolled.
    for (int attempt = 0; attempt < 4; ++attempt) {
        if (db_->alive() && db_->checkpoint())
            break;
        if (!db_->alive())
            reopenDb();
    }
    return report_.enrolled;
}

std::size_t
MegaFleet::parseChannel(const std::string &name) const
{
    if (name.size() < 3 || name[0] != 'c' || name[1] != 'h')
        return kNoChannel;
    std::size_t value = 0;
    for (std::size_t i = 2; i < name.size(); ++i) {
        const char c = name[i];
        if (c < '0' || c > '9')
            return kNoChannel;
        if (value > (config_.channels / 10) + 1)
            return kNoChannel; // overflow guard: already out of range
        value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    // Reject non-canonical spellings ("ch007"): every valid id is
    // exactly what channelId() prints, so the name space stays 1:1.
    if (name != channelId(value))
        return kNoChannel;
    return value < config_.channels ? value : kNoChannel;
}

bool
MegaFleet::submit(const service::ServiceRequest &request)
{
    // Reject events are stamped with the modeled instrument-pool
    // clock: the sum of every tick's probe makespan so far.
    const double seconds =
        capacitySeconds_ / static_cast<double>(config_.instruments);
    return ledger_.submit(request, tick_, seconds) != nullptr;
}

bool
MegaFleet::putWithRecovery(const store::EnrollmentRecord &record)
{
    // Bounded crash-reopen-replay loop: a simulated power cut kills
    // the handle, reopening replays the journal, and the interrupted
    // record is simply re-put. Bounded attempts guard against a fault
    // plan that cuts power on several consecutive IO events.
    for (int attempt = 0; attempt < 4; ++attempt) {
        if (db_->alive() && db_->put(record))
            return true;
        if (!db_->alive())
            reopenDb();
    }
    return false;
}

void
MegaFleet::answerFenced(std::size_t channel)
{
    for (const uint64_t ticket : ledger_.takeVerifies(channel)) {
        service::ServiceResponse &response = ledger_.at(ticket).response;
        response.status = service::ResponseStatus::Fenced;
        response.state =
            static_cast<uint64_t>(AuthState::PendingReenroll);
        response.phase = static_cast<uint64_t>(ChannelPhase::Fenced);
        ledger_.complete(ticket, tick_);
    }
    hot_.erase(channel);
}

void
MegaFleet::processArrivals()
{
    // Tickets are issued consecutively at admission, so every request
    // admitted since the last tick holds a ticket in
    // [arrived_, nextTicket()), in admission order.
    for (; arrived_ < ledger_.nextTicket(); ++arrived_) {
        const uint64_t ticket = arrived_;
        service::RequestLedger::Entry &entry = ledger_.at(ticket);
        const std::size_t c = entry.channel;
        service::ServiceResponse &response = entry.response;
        switch (response.kind) {
        case service::RequestKind::QuarantineStatus: {
            const ChannelSlot &slot = slots_[c];
            response.status = service::ResponseStatus::Ok;
            response.state = static_cast<uint64_t>(
                slot.state == 0 ? AuthState::Monitoring
                                : AuthState::PendingReenroll);
            response.phase = static_cast<uint64_t>(
                slot.state == 0 ? ChannelPhase::Idle
                                : ChannelPhase::Fenced);
            if (slot.tampered)
                response.flags |= service::kResponseTamper;
            if (slot.lastScore >= 0.0f)
                response.similarity =
                    static_cast<double>(slot.lastScore);
            ledger_.complete(ticket, tick_);
            break;
        }
        case service::RequestKind::Enroll:
        case service::RequestKind::Reenroll: {
            // A cut after the last commit leaves that record durable
            // but the handle dead: recover first, so the lookup sees
            // the durable generation.
            if (!db_->alive())
                reopenDb();
            store::EnrollmentRecord rec = enrollmentRecord(c);
            store::EnrollmentRecord old;
            if (db_->get(rec.id, old) == store::DbGetStatus::Ok)
                rec.generation = old.generation + 1;
            const bool durable = putWithRecovery(rec);
            response.status = durable
                                  ? service::ResponseStatus::Ok
                                  : service::ResponseStatus::Rejected;
            response.generation = rec.generation;
            if (durable) {
                // A fresh durable enrollment lifts any fence; the
                // channel joins the hot tier so its next probe — the
                // evidence the requester is really after — lands in
                // the very next tick.
                if (slots_[c].state != 0)
                    --fenced_;
                slots_[c].state = 0;
                slots_[c].lastScore = -1.0f;
                slots_[c].tampered = false;
                hot_.insert(c);
            }
            response.state = static_cast<uint64_t>(
                slots_[c].state == 0 ? AuthState::Monitoring
                                     : AuthState::PendingReenroll);
            ledger_.complete(ticket, tick_);
            break;
        }
        case service::RequestKind::Verify:
            if (slots_[c].state != 0) {
                response.status = service::ResponseStatus::Fenced;
                response.state = static_cast<uint64_t>(
                    AuthState::PendingReenroll);
                response.phase =
                    static_cast<uint64_t>(ChannelPhase::Fenced);
                ledger_.complete(ticket, tick_);
                break;
            }
            ledger_.parkVerify(c, ticket);
            hot_.insert(c);
            break;
        case service::RequestKind::FleetSummary:
            ledger_.parkSummary(ticket);
            break;
        }
    }
}

MegaFleetVerdict
MegaFleet::tick()
{
    // --- Requests enter the tick first: immediate kinds answer now,
    // Verify parks on its channel and pulls it into the hot tier. ----
    processArrivals();

    // --- Select: hierarchical. The hot tier (risky + requested
    // channels, ascending) is probed first; the remaining budget
    // backfills round-robin from the cursor — O(hot + batch), never a
    // fleet-wide sort. ----------------------------------------------
    std::vector<std::size_t> batch;
    batch.reserve(config_.probesPerTick);
    std::unordered_set<std::size_t> chosen;
    for (auto it = hot_.begin();
         it != hot_.end() && batch.size() < config_.probesPerTick;) {
        const std::size_t i = *it;
        if (slots_[i].state != 0) {
            it = hot_.erase(it);
            continue;
        }
        batch.push_back(i);
        chosen.insert(i);
        ++it;
    }
    for (std::size_t scanned = 0;
         scanned < config_.channels &&
         batch.size() < config_.probesPerTick;
         ++scanned) {
        const std::size_t i = cursor_;
        cursor_ = (cursor_ + 1) % config_.channels;
        if (slots_[i].state == 0 && chosen.find(i) == chosen.end())
            batch.push_back(i);
    }

    // --- Hydrate: group by shard so each shard's index is read at
    // most once per tick, then only the record frames that neither
    // the shard's pending overlay (a fresh re-enrollment) nor the
    // store's decoded-image cache holds. The store reads the groups
    // in parallel and applies their cache accesses serially; the
    // merge below walks the groups in ascending shard order, so the
    // fuseScores operand order and the digest do not depend on the
    // thread count. ---------------------------------------------------
    std::map<unsigned, std::vector<std::size_t>> byShard;
    for (std::size_t i : batch)
        byShard[db_->shardOf(channelId(i))].push_back(i);
    std::vector<store::ShardReadGroup> groups;
    groups.reserve(byShard.size());
    for (const auto &[shard, channels] : byShard) {
        store::ShardReadGroup &group = groups.emplace_back();
        group.shard = shard;
        group.ids.reserve(channels.size());
        for (std::size_t i : channels)
            group.ids.push_back(channelId(i));
    }
    std::vector<store::ShardRead> shardReads =
        db_->readRecords(groups, *pool_);

    struct Hydrated
    {
        std::size_t channel;
        store::EnrollmentRecord rec;
    };
    std::vector<Hydrated> live;
    live.reserve(batch.size());
    std::size_t residentBytes = 0;
    std::size_t pendingThisTick = 0;
    std::size_t g = 0;
    for (const auto &[shard, channels] : byShard) {
        store::ShardRead &shardRead = shardReads[g++];
        // Records this shard's point read decoded from disk, not
        // served from the overlay or the cache.
        std::size_t transientBytes = 0;
        for (std::size_t k = 0; k < channels.size(); ++k) {
            store::RecordRead &read = shardRead.reads[k];
            const std::size_t i = channels[k];
            const bool ok = read.status == store::DbGetStatus::Ok;
            if (ok && !shardRead.fromCache)
                transientBytes += read.record.residentBytes();
            if (ok && (read.record.flags &
                       store::kRecordPendingReenroll) == 0) {
                residentBytes += read.record.residentBytes();
                live.push_back(Hydrated{i, std::move(read.record)});
                ++report_.hydrates;
                tmHydrates_.add();
                continue;
            }
            // Missing or damaged in every bank: fence the channel
            // instead of authenticating junk.
            slots_[i].state = 1;
            ++fenced_;
            ++report_.lostAfterEnroll;
            ++report_.pendingReenroll;
            ++pendingThisTick;
            tmPending_.add();
            // Verifies parked on a channel that just lost its
            // enrollment answer Fenced — never an authenticated
            // verdict against a damaged record.
            answerFenced(i);
        }
        // Peak accounting charges only *transient* decode bytes — the
        // records this shard's point read decoded: a cache-resident
        // view is bounded by shardCacheBytes, which is budgeted
        // separately from the hydration budget.
        report_.peakResidentBytes =
            std::max(report_.peakResidentBytes,
                     residentBytes + transientBytes);
    }
    report_.peakResidentBytes =
        std::max(report_.peakResidentBytes, residentBytes);

    // --- Probe: parallel, disjoint slots, forkStable noise keyed by
    // (channel, tick) — bit-identical at any thread count. -----------
    std::vector<double> scores(live.size(), 0.0);
    std::vector<uint8_t> tampered(live.size(), 0);
    const uint64_t now = tick_;
    pool_->parallelFor(live.size(), [&](std::size_t j) {
        const Hydrated &h = live[j];
        Rng noise = rng_.forkStable(probeTag(h.channel, now));
        std::vector<double> raw(h.rec.fp.raw().samples());
        for (double &v : raw)
            v *= 1.0 + config_.noiseSigma * noise.gaussian();
        const Fingerprint probe =
            makeFingerprint(std::move(raw), channelId(h.channel));
        scores[j] = similarity(h.rec.fp, probe);
        tampered[j] =
            peakError(h.rec.fp, probe) > config_.tamperThreshold
            ? 1 : 0;
    });
    for (std::size_t j = 0; j < live.size(); ++j) {
        const std::size_t c = live[j].channel;
        slots_[c].lastScore = static_cast<float>(scores[j]);
        slots_[c].tampered = tampered[j] != 0;

        // Hot-tier maintenance: channels that look risky (tamper trip
        // or a below-threshold score) stay hot and get probed again
        // next tick; clean ones fall back to the round-robin tail.
        if (tampered[j] != 0 || scores[j] < config_.similarityThreshold)
            hot_.insert(c);
        else
            hot_.erase(c);

        // Answer every Verify parked on this channel with the fresh
        // verdict (serial, batch order — deterministic).
        for (const uint64_t ticket : ledger_.takeVerifies(c)) {
            service::ServiceResponse &response =
                ledger_.at(ticket).response;
            response.status = service::ResponseStatus::Ok;
            response.state =
                static_cast<uint64_t>(AuthState::Monitoring);
            response.phase = static_cast<uint64_t>(ChannelPhase::Idle);
            response.similarity = scores[j];
            if (scores[j] >= config_.similarityThreshold)
                response.flags |= service::kResponseAuthenticated;
            if (tampered[j] != 0)
                response.flags |= service::kResponseTamper;
            ledger_.complete(ticket, tick_);
        }
    }

    // --- Instrument-pool accounting (busy vs capacity under the
    // configured scheduling model; never touches the verdict). ------
    std::vector<std::size_t> probed(live.size());
    for (std::size_t j = 0; j < live.size(); ++j)
        probed[j] = live[j].channel;
    accountInstrumentSchedule(probed);

    // --- Fuse (serial). ---------------------------------------------
    MegaFleetVerdict v;
    v.tick = tick_;
    v.contributingWires = live.size();
    v.pendingReenrollWires = pendingThisTick;
    for (uint8_t t : tampered)
        v.tamperedWires += t;
    if (!live.empty()) {
        v.fusedSimilarity = fuseScores(config_.fusion, scores);
        v.busAuthenticated =
            v.fusedSimilarity >= config_.similarityThreshold;
    }
    const unsigned quorum =
        config_.tamperWireVotes == 0 ? 1 : config_.tamperWireVotes;
    v.tamperAlarm = v.tamperedWires >= quorum;
    v.busTrusted = v.busAuthenticated && !v.tamperAlarm;

    // Answer every FleetSummary parked on this epoch's fusion.
    for (const uint64_t ticket : ledger_.takeSummaries()) {
        service::ServiceResponse &response = ledger_.at(ticket).response;
        response.status = service::ResponseStatus::Ok;
        response.similarity = v.fusedSimilarity;
        response.channels = config_.channels;
        response.fenced = fenced_;
        if (v.busAuthenticated)
            response.flags |= service::kResponseAuthenticated;
        if (v.tamperAlarm)
            response.flags |= service::kResponseTamper;
        if (v.busTrusted)
            response.flags |= service::kResponseTrusted;
        ledger_.complete(ticket, tick_);
    }

    // Fold the verdict into the running FNV digest — the quantity the
    // 1-vs-N-thread and fault/no-fault identity checks compare.
    std::vector<char> buf;
    store::putU64(buf, report_.verdictDigest);
    store::putU64(buf, v.tick);
    store::putU64(buf, (v.busAuthenticated ? 1u : 0u) |
                           (v.tamperAlarm ? 2u : 0u) |
                           (v.busTrusted ? 4u : 0u));
    store::putF64(buf, v.fusedSimilarity);
    store::putU64(buf, v.contributingWires);
    store::putU64(buf, v.tamperedWires);
    store::putU64(buf, v.pendingReenrollWires);
    report_.verdictDigest = store::fnv1a(buf);

    ++tick_;
    ++report_.ticks;
    report_.probes += live.size();
    report_.lastTrusted = v.busTrusted;
    report_.lastFusedSimilarity = v.fusedSimilarity;
    tmTicks_.add();
    tmProbes_.add(live.size());
    return v;
}

MegaFleetReport
MegaFleet::run(uint64_t ticks)
{
    for (uint64_t t = 0; t < ticks; ++t)
        tick();
    return report_;
}

} // namespace divot
