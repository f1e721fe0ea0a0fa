/**
 * @file
 * Open-loop request generator and the DIVQ transport between it and a
 * request front end (MegaFleet or FleetService).
 *
 * Arrival times and channels are a pure function of the seed: gaps are
 * exponential at the offered rate, channels uniform, kinds drawn by
 * the Verify:Reenroll ratio. The loop submits every request due before
 * each tick, so a request that falls due while a tick runs waits for
 * that tick, and each request is timed from its due time to the drain
 * that returns it. Requests travel as DIVQ frames
 * (appendRequestFrame -> decodeRequestStream) and responses back the
 * same way (appendResponseFrame -> decodeResponseStream), as they
 * would over a socket, so the codec layer is measured too.
 */

#ifndef PERFBENCH_OPENLOOP_HH
#define PERFBENCH_OPENLOOP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hh"
#include "service/request.hh"

namespace perfbench {

/** One generated request and the host time it falls due. */
struct Arrival
{
    double due = 0.0; //!< seconds after the timed phase starts
    divot::service::ServiceRequest request;
};

/** Offered load of one workload. */
struct LoadSpec
{
    double rate = 0.0;          //!< requests per second
    double reenrollShare = 0.0; //!< fraction of requests that Reenroll
    std::size_t channels = 0;   //!< channels drawn from (uniform)
    std::function<std::string(std::size_t)> channelName;
};

/** Draw the whole arrival schedule for [0, seconds). */
std::vector<Arrival> openLoopSchedule(uint64_t seed, double seconds,
                                      const LoadSpec &load);

/** The front end the loop drives. */
struct FrontEnd
{
    std::function<bool(const divot::service::ServiceRequest &)> submit;
    /** One fleet tick; @return per-wire probes it completed. */
    std::function<uint64_t()> tick;
    std::function<std::vector<divot::service::ServiceResponse>()> drain;
    std::function<std::size_t()> pending;
    double similarityBar = 0.35; //!< accept bar of Ok Verify answers
};

/** Everything measured over one window of the timed phase. */
struct Window
{
    double hostSeconds = 0.0;
    uint64_t ticks = 0;
    uint64_t probes = 0;
    double tickSeconds = 0.0;
    std::vector<double> tickMs;
    IoCounters io; //!< summed per-tick deltas

    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t busy = 0;       //!< refused Busy at admission
    uint64_t rejected = 0;   //!< admitted but the operation failed
    uint64_t late = 0;       //!< answered after the latency limit
    uint64_t reenrollsOk = 0;
    std::vector<double> verifyMs;
    std::vector<double> reenrollMs;
    std::vector<double> submitUs;
    std::vector<double> drainUs;
    std::vector<double> waitTicks;
    std::vector<double> genLateMs;
    double encodeSeconds = 0.0;
    double decodeSeconds = 0.0;
    uint64_t requestFrames = 0;
    uint64_t responseFrames = 0;
    uint64_t requestBytes = 0;
    uint64_t responseBytes = 0;
};

/** Result of a whole open-loop run. */
struct LoopResult
{
    std::vector<Window> windows; //!< [untraced] or [untraced, traced]
    uint64_t submitted = 0;
    uint64_t answered = 0;
    uint64_t unanswered = 0;    //!< still pending after the drain ticks
    uint64_t duplicates = 0;    //!< responses for an already-answered id
    uint64_t strays = 0;        //!< responses for an id never submitted
    uint64_t junk = 0;          //!< Ok Verify contradicting the bar or
                                //!< answered on a fenced channel
    uint64_t transportErrors = 0; //!< frames that failed to round-trip
};

/**
 * Drive `schedule` through `front` for `seconds`, then tick until every
 * admitted request is answered (bounded). With `traced`, the first half
 * of the timed phase runs untraced and the second half traced, one
 * Window each, so the traced-minus-untraced difference is the tracing
 * overhead.
 */
LoopResult runOpenLoop(const std::vector<Arrival> &schedule,
                       double seconds, double latencyLimitMs,
                       bool traced, Tracer &tracer, const IoMeter &io,
                       const FrontEnd &front);

/** Tick-side counters summed over every window of a run. */
struct LoopTotals
{
    uint64_t probes = 0;
    uint64_t ticks = 0;
    uint64_t reenrollsOk = 0;
    double tickSeconds = 0.0;
    IoCounters io;
};

LoopTotals loopTotals(const LoopResult &res);

/**
 * The request-path checks every request workload shares (each request
 * answered exactly once, no junk Verify, frames round-trip), plus its
 * attempted/failed counts: failed = Busy-refused + Rejected +
 * unanswered; late answers count only in req_fail_ratio.
 */
void checkRequests(const LoopResult &res, Outcome &out);

/** Add the end-to-end request metrics of `w` to `out`. */
void reportRequestMetrics(const Window &w, const LoopResult &all,
                          bool hasReenroll, Outcome &out);

/** Add the service-layer metrics of `w` to `out`. */
void reportServiceMetrics(const Window &w, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_OPENLOOP_HH
