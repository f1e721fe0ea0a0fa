/**
 * @file
 * RequestLedger — the one admission and response path shared by both
 * request front ends (FleetService over a ChannelScheduler, and
 * MegaFleet).
 *
 * Everything about a request that is not channel physics lives here:
 *
 *  - admission: Unknown when the front end cannot resolve the name,
 *    then Busy on the global in-flight bound or the per-channel bound;
 *  - the ticketed in-flight table, whose responses are prefilled with
 *    the request's id/kind/channel at admission;
 *  - per-channel load, and the Verify tickets parked per channel and
 *    the FleetSummary tickets parked on the next fusion — all sparse,
 *    keyed only by channels with requests in flight, so a front end's
 *    per-channel footprint does not grow with fleet size;
 *  - completion: the chained FNV response digest, ServiceStats, the
 *    `service.*` counters and the queue-peak gauge.
 *
 * A front end decides *when* a ticket is answered and fills in the
 * payload; the ledger decides everything else, so two front ends fed
 * the same traffic and the same verdicts emit the same frames.
 */

#ifndef DIVOT_SERVICE_LEDGER_HH
#define DIVOT_SERVICE_LEDGER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/request.hh"
#include "telemetry/telemetry.hh"

namespace divot::service {

/** Admission, parking, completion and digest of a request front end. */
class RequestLedger
{
  public:
    /** Channel of a request that names none (FleetSummary), and the
     *  resolver's answer for a name it does not know. */
    static constexpr std::size_t kNoChannel =
        static_cast<std::size_t>(-1);

    /** Maps a channel name to its index, or kNoChannel. */
    using Resolver = std::function<std::size_t(const std::string &)>;

    /** One admitted request awaiting its answer. */
    struct Entry
    {
        uint64_t ticket = 0;
        std::size_t channel = kNoChannel; //!< resolved at admission
        ServiceResponse response; //!< prefilled with the request's
                                  //!< id/kind/channel
    };

    /**
     * @param telemetry   sink of the `service.*` counters and the
     *                    `service.reject` events (must outlive the
     *                    ledger)
     * @param queueDepth  global in-flight bound
     * @param channelDepth per-channel in-flight bound
     * @param resolve     the front end's channel-name resolution
     */
    RequestLedger(Telemetry &telemetry, std::size_t queueDepth,
                  std::size_t channelDepth, Resolver resolve);

    /**
     * Admit `request` or answer it at once with Unknown/Busy.
     *
     * @param tick    front-end tick stamped on a rejection
     * @param seconds simulated time of a `service.reject` event
     * @return the admitted entry, or nullptr when rejected
     */
    const Entry *submit(const ServiceRequest &request, uint64_t tick,
                        double seconds);

    /** @return the in-flight entry of `ticket` (fatal if absent). */
    Entry &at(uint64_t ticket);

    /** @return the ticket the next admission will get. Tickets are
     *  issued consecutively, so [first, nextTicket()) covers every
     *  admission since `first` was issued. */
    uint64_t nextTicket() const { return nextTicket_; }

    /** @name Parking: tickets waiting for a verdict or a fusion. */
    ///@{
    void parkVerify(std::size_t channel, uint64_t ticket);
    /** Remove and return the Verify tickets parked on `channel`, in
     *  parking order (empty when none). */
    std::vector<uint64_t> takeVerifies(std::size_t channel);
    void parkSummary(uint64_t ticket);
    /** Remove and return every parked FleetSummary ticket. */
    std::vector<uint64_t> takeSummaries();
    ///@}

    /** Emit the response of `ticket`, stamped with `tick`, and retire
     *  the ticket. */
    void complete(uint64_t ticket, uint64_t tick);

    /** Count a replayed frame that failed to parse. */
    void countParseError() { ++stats_.parseErrors; }

    /** Move out the responses emitted so far, in emission order. */
    std::vector<ServiceResponse> drainResponses();

    /** @return chained FNV digest over every emitted response frame
     *  (rejections included), regardless of drains. */
    uint64_t digest() const { return digest_; }

    /** @return admitted requests not yet answered. */
    std::size_t pending() const { return inflight_.size(); }

    /** @return admission/emission totals. */
    const ServiceStats &stats() const { return stats_; }

  private:
    Telemetry &telemetry_;
    std::size_t queueDepth_;
    std::size_t channelDepth_;
    Resolver resolve_;

    std::unordered_map<uint64_t, Entry> inflight_; //!< by ticket
    uint64_t nextTicket_ = 0;
    std::unordered_map<std::size_t, std::size_t> channelLoad_;
    std::unordered_map<std::size_t, std::vector<uint64_t>> verifies_;
    std::vector<uint64_t> summaries_;
    std::vector<ServiceResponse> emitted_;
    uint64_t digest_ = 0;
    ServiceStats stats_;

    Counter tmRequests_[kRequestKinds];      //!< service.requests.<k>
    Counter tmResponses_[kResponseStatuses]; //!< service.responses.<s>
    Counter tmAdmitted_;                     //!< service.admitted
    Counter tmRejected_;                     //!< service.rejected
    Gauge tmQueuePeak_;                      //!< service.queue.peak

    void reject(const ServiceRequest &request, ResponseStatus status,
                uint64_t tick, double seconds);
    void emitResponse(ServiceResponse response);
};

} // namespace divot::service

#endif // DIVOT_SERVICE_LEDGER_HH
