#include "service/ledger.hh"

#include <utility>

#include "util/logging.hh"

namespace divot::service {

RequestLedger::RequestLedger(Telemetry &telemetry,
                             std::size_t queueDepth,
                             std::size_t channelDepth, Resolver resolve)
    : telemetry_(telemetry),
      queueDepth_(queueDepth),
      channelDepth_(channelDepth),
      resolve_(std::move(resolve))
{
    Registry &reg = telemetry_.registry();
    for (std::size_t i = 0; i < kRequestKinds; ++i) {
        tmRequests_[i] = reg.counter(
            std::string("service.requests.") +
            requestKindName(static_cast<RequestKind>(i)));
    }
    for (std::size_t i = 0; i < kResponseStatuses; ++i) {
        tmResponses_[i] = reg.counter(
            std::string("service.responses.") +
            responseStatusName(static_cast<ResponseStatus>(i)));
    }
    tmAdmitted_ = reg.counter("service.admitted");
    tmRejected_ = reg.counter("service.rejected");
    tmQueuePeak_ = reg.gauge("service.queue.peak");
}

const RequestLedger::Entry *
RequestLedger::submit(const ServiceRequest &request, uint64_t tick,
                      double seconds)
{
    ++stats_.submitted;
    tmRequests_[static_cast<std::size_t>(request.kind)].add();
    std::size_t channel = kNoChannel;
    if (request.kind != RequestKind::FleetSummary) {
        channel = resolve_(request.channel);
        if (channel == kNoChannel) {
            ++stats_.rejectedUnknown;
            reject(request, ResponseStatus::Unknown, tick, seconds);
            return nullptr;
        }
    }
    const bool globalFull = inflight_.size() >= queueDepth_;
    bool channelFull = false;
    if (channel != kNoChannel) {
        const auto it = channelLoad_.find(channel);
        channelFull =
            it != channelLoad_.end() && it->second >= channelDepth_;
    }
    if (globalFull || channelFull) {
        ++stats_.rejectedBusy;
        reject(request, ResponseStatus::Busy, tick, seconds);
        return nullptr;
    }
    const uint64_t ticket = nextTicket_++;
    Entry &entry = inflight_[ticket];
    entry.ticket = ticket;
    entry.channel = channel;
    entry.response.id = request.id;
    entry.response.kind = request.kind;
    entry.response.channel = request.channel;
    if (channel != kNoChannel)
        ++channelLoad_[channel];
    ++stats_.admitted;
    tmAdmitted_.add();
    tmQueuePeak_.max(static_cast<int64_t>(inflight_.size()));
    return &entry;
}

RequestLedger::Entry &
RequestLedger::at(uint64_t ticket)
{
    const auto it = inflight_.find(ticket);
    if (it == inflight_.end())
        divot_fatal("service: no in-flight request for ticket %llu",
                    static_cast<unsigned long long>(ticket));
    return it->second;
}

void
RequestLedger::parkVerify(std::size_t channel, uint64_t ticket)
{
    verifies_[channel].push_back(ticket);
}

std::vector<uint64_t>
RequestLedger::takeVerifies(std::size_t channel)
{
    const auto it = verifies_.find(channel);
    if (it == verifies_.end())
        return {};
    std::vector<uint64_t> out = std::move(it->second);
    verifies_.erase(it);
    return out;
}

void
RequestLedger::parkSummary(uint64_t ticket)
{
    summaries_.push_back(ticket);
}

std::vector<uint64_t>
RequestLedger::takeSummaries()
{
    std::vector<uint64_t> out = std::move(summaries_);
    summaries_.clear();
    return out;
}

void
RequestLedger::complete(uint64_t ticket, uint64_t tick)
{
    Entry &entry = at(ticket);
    const auto load = channelLoad_.find(entry.channel);
    if (load != channelLoad_.end() && --load->second == 0)
        channelLoad_.erase(load);
    entry.response.tick = tick;
    emitResponse(std::move(entry.response));
    inflight_.erase(ticket);
}

std::vector<ServiceResponse>
RequestLedger::drainResponses()
{
    std::vector<ServiceResponse> out = std::move(emitted_);
    emitted_.clear();
    return out;
}

void
RequestLedger::reject(const ServiceRequest &request,
                      ResponseStatus status, uint64_t tick,
                      double seconds)
{
    ServiceResponse response;
    response.id = request.id;
    response.kind = request.kind;
    response.channel = request.channel;
    response.status = status;
    response.tick = tick;
    tmRejected_.add();
    TelemetryEvent event;
    event.time = seconds;
    event.ordinal = request.id;
    event.kind = "service.reject";
    event.tag = requestKindName(request.kind);
    event.detail = responseStatusName(status);
    telemetry_.events().record(std::move(event));
    emitResponse(std::move(response));
}

void
RequestLedger::emitResponse(ServiceResponse response)
{
    digest_ = foldResponseDigest(digest_, response);
    tmResponses_[static_cast<std::size_t>(response.status)].add();
    ++stats_.responses;
    emitted_.push_back(std::move(response));
}

} // namespace divot::service
