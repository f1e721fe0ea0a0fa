/**
 * @file
 * FleetService — the request front end of a store-backed fleet.
 *
 * External traffic consults the authentication authority through a
 * typed request stream (service/request.hh). Admission is bounded and
 * synchronous: submit() either admits the request into the fleet
 * reactor or answers immediately with an explicit rejection (Busy on
 * a full global/per-channel queue, Unknown for a name the fleet has
 * never seen). Admitted requests become first-class reactor events —
 * a RequestArrival consumed at the head of the next epoch, before
 * channel ranking, and a RequestComplete when the answer is due — so
 * admission, hydration, probing, and response emission are one
 * deterministic event order, a pure function of (seed, config) at any
 * thread count. A Verify boosts its channel's staleness x risk
 * priority (request pressure IS risk pressure), so the scheduler
 * spends the next instrument slot answering it.
 *
 * Per-request lifecycle:
 *  - Enroll / Reenroll / QuarantineStatus complete at their arrival
 *    instant (store persists happen inside the serial event loop).
 *  - Verify waits for its channel's next observed verdict — a real
 *    probe or a fence demotion — and answers Fenced without burning
 *    an instrument when the channel is already quarantined.
 *  - FleetSummary waits for the epoch's fusion.
 *
 * Admission, parking and emission go through the RequestLedger that
 * MegaFleet shares; this class is the bridge between the ledger and
 * the fleet reactor. Every response is folded into a chained FNV
 * digest of its encoded frame; two runs served the same traffic iff
 * digests match, which is what the serial-vs-pooled and lane gates
 * compare.
 */

#ifndef DIVOT_SERVICE_FLEET_SERVICE_HH
#define DIVOT_SERVICE_FLEET_SERVICE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "fleet/channel_scheduler.hh"
#include "service/ledger.hh"
#include "service/request.hh"

namespace divot::service {

/**
 * Request service over a ChannelScheduler. Borrowing: the fleet must
 * outlive the service; the service detaches its hook on destruction.
 */
class FleetService final : public ServiceHook
{
  public:
    explicit FleetService(ChannelScheduler &fleet);
    ~FleetService() override;

    FleetService(const FleetService &) = delete;
    FleetService &operator=(const FleetService &) = delete;

    /**
     * Submit one request. Admission is decided here, synchronously:
     * a rejection (Busy, Unknown) emits its response immediately;
     * an admitted request answers during a later tick().
     *
     * @return true when admitted
     */
    bool submit(const ServiceRequest &request);

    /**
     * Replay a framed request stream (e.g. a recorded file): decode
     * frames in order, submitting each. Stops at the first damaged
     * frame — replayed traffic is evidence, not best effort.
     *
     * @return the stream decode outcome (frames before the damage
     *         were submitted; their admission results are in stats())
     */
    StreamDecode submitStream(const std::vector<char> &bytes);

    /** Run one fleet tick: pending arrivals enter the epoch, boosted
     *  channels get probed, due responses are emitted. */
    FleetRound tick();

    /** Move out the responses emitted so far, in emission order. */
    std::vector<ServiceResponse> drainResponses()
    {
        return ledger_.drainResponses();
    }

    /** @return chained FNV digest over every emitted response frame
     *  (rejections included), regardless of drains. */
    uint64_t responseDigest() const { return ledger_.digest(); }

    /** @return admitted requests not yet answered. */
    std::size_t pendingRequests() const { return ledger_.pending(); }

    /** @return admission/emission totals. */
    const ServiceStats &stats() const { return ledger_.stats(); }

    /** @return the fleet this service fronts. */
    ChannelScheduler &fleet() { return fleet_; }

    /** @name ServiceHook (called from the fleet's event loop). */
    ///@{
    void onRequestArrival(const ReactorEvent &event) override;
    void onRequestComplete(const ReactorEvent &event) override;
    void onProbeObserved(std::size_t channel,
                         const AuthVerdict &verdict,
                         double vtime) override;
    void onEpochFused(const FleetVerdict &fused, double vtime) override;
    ///@}

  private:
    ChannelScheduler &fleet_;
    RequestLedger ledger_;
    std::map<uint64_t, SpanScope> spans_; //!< service.request spans
                                          //!< of arrived tickets

    /** Snapshot channel lifecycle fields into `response`. */
    void fillChannelState(std::size_t channel,
                          ServiceResponse &response) const;
};

} // namespace divot::service

#endif // DIVOT_SERVICE_FLEET_SERVICE_HH
