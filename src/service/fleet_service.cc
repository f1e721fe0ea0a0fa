#include "service/fleet_service.hh"

namespace divot::service {

static_assert(RequestLedger::kNoChannel == ChannelScheduler::kNoChannel,
              "findChannel() must speak the ledger's sentinel");

FleetService::FleetService(ChannelScheduler &fleet)
    : fleet_(fleet),
      ledger_(fleet.telemetry(), fleet.config().requestQueueDepth,
              fleet.config().requestChannelDepth,
              [&fleet](const std::string &name) {
                  return fleet.findChannel(name);
              })
{
    fleet_.attachService(this);
}

FleetService::~FleetService()
{
    // Close abandoned request spans in ticket order (spans_ is an
    // ordered map): the span ring is part of the byte-stable export,
    // so even teardown must not leak hash-map iteration order into it.
    for (auto &entry : spans_)
        entry.second.close(fleet_.elapsedSeconds(), 0);
    fleet_.attachService(nullptr);
}

void
FleetService::fillChannelState(std::size_t channel,
                               ServiceResponse &response) const
{
    if (channel == ChannelScheduler::kNoChannel)
        return;
    const AuthState state = fleet_.channel(channel).state();
    response.state = static_cast<uint64_t>(state);
    response.phase =
        static_cast<uint64_t>(fleet_.channelPhase(channel));
    if (state == AuthState::TamperAlert ||
        state == AuthState::Quarantine) {
        response.flags |= kResponseTamper;
    }
}

bool
FleetService::submit(const ServiceRequest &request)
{
    const RequestLedger::Entry *entry = ledger_.submit(
        request, fleet_.ticks(), fleet_.elapsedSeconds());
    if (entry == nullptr)
        return false;
    fleet_.scheduleRequestArrival(
        entry->channel == ChannelScheduler::kNoChannel ? 0
                                                       : entry->channel,
        entry->ticket);
    return true;
}

StreamDecode
FleetService::submitStream(const std::vector<char> &bytes)
{
    std::vector<ServiceRequest> requests;
    const StreamDecode decode = decodeRequestStream(bytes, requests);
    for (const ServiceRequest &request : requests)
        submit(request);
    if (!decode.ok())
        ledger_.countParseError();
    return decode;
}

FleetRound
FleetService::tick()
{
    return fleet_.tick();
}

void
FleetService::onRequestArrival(const ReactorEvent &event)
{
    RequestLedger::Entry &entry = ledger_.at(event.ticket);
    const std::size_t channel = entry.channel;
    ServiceResponse &response = entry.response;
    spans_[event.ticket] = fleet_.telemetry().tracer().open(
        "service.request", requestKindName(response.kind), event.vtime,
        response.id);
    switch (response.kind) {
    case RequestKind::QuarantineStatus:
        fillChannelState(channel, response);
        response.status = ResponseStatus::Ok;
        fleet_.scheduleRequestComplete(channel, event.ticket,
                                       event.vtime);
        return;
    case RequestKind::Enroll:
    case RequestKind::Reenroll: {
        const bool ok = response.kind == RequestKind::Enroll
                            ? fleet_.persistEnrollment(channel)
                            : fleet_.reenrollChannel(channel);
        response.status =
            ok ? ResponseStatus::Ok : ResponseStatus::Rejected;
        fillChannelState(channel, response);
        response.generation = fleet_.enrollmentGeneration(channel);
        fleet_.scheduleRequestComplete(channel, event.ticket,
                                       event.vtime);
        return;
    }
    case RequestKind::Verify:
        if (fleet_.channel(channel).state() ==
            AuthState::PendingReenroll) {
            // No enrollment to probe against: answer Fenced without
            // burning an instrument slot.
            fillChannelState(channel, response);
            response.status = ResponseStatus::Fenced;
            fleet_.scheduleRequestComplete(channel, event.ticket,
                                           event.vtime);
            return;
        }
        // Request pressure is risk pressure: the boosted channel wins
        // the next dispatch and this ticket rides on its verdict.
        fleet_.boostChannel(channel);
        ledger_.parkVerify(channel, event.ticket);
        return;
    case RequestKind::FleetSummary:
        ledger_.parkSummary(event.ticket);
        return;
    }
}

void
FleetService::onProbeObserved(std::size_t channel,
                              const AuthVerdict &verdict, double vtime)
{
    for (const uint64_t ticket : ledger_.takeVerifies(channel)) {
        ServiceResponse &response = ledger_.at(ticket).response;
        response.similarity = verdict.similarity;
        response.state = static_cast<uint64_t>(verdict.stateAfter);
        response.phase =
            static_cast<uint64_t>(fleet_.channelPhase(channel));
        if (verdict.authenticated)
            response.flags |= kResponseAuthenticated;
        if (verdict.tamperAlarm)
            response.flags |= kResponseTamper;
        response.status =
            verdict.stateAfter == AuthState::PendingReenroll
                ? ResponseStatus::Fenced
                : ResponseStatus::Ok;
        fleet_.scheduleRequestComplete(channel, ticket, vtime);
    }
}

void
FleetService::onEpochFused(const FleetVerdict &fused, double vtime)
{
    for (const uint64_t ticket : ledger_.takeSummaries()) {
        ServiceResponse &response = ledger_.at(ticket).response;
        response.status = ResponseStatus::Ok;
        response.similarity = fused.fusedSimilarity;
        response.channels = fused.channels;
        response.fenced = fused.pendingReenrollWires;
        response.quarantined = fused.quarantinedWires;
        if (fused.busAuthenticated)
            response.flags |= kResponseAuthenticated;
        if (fused.tamperAlarm)
            response.flags |= kResponseTamper;
        if (fused.busTrusted)
            response.flags |= kResponseTrusted;
        fleet_.scheduleRequestComplete(0, ticket, vtime);
    }
}

void
FleetService::onRequestComplete(const ReactorEvent &event)
{
    spans_[event.ticket].close(event.vtime, 0);
    spans_.erase(event.ticket);
    ledger_.complete(event.ticket, fleet_.ticks());
}

} // namespace divot::service
