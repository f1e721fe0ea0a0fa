#include "openloop.hh"

#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "util/rng.hh"

namespace perfbench {

using divot::service::RequestKind;
using divot::service::ResponseStatus;
using divot::service::ServiceRequest;
using divot::service::ServiceResponse;

namespace {

constexpr uint64_t kTagArrivals = 0x0A11C0DEULL;

/** Ticks the loop keeps running after the timed phase so every
 *  admitted request can be answered; what is left then is unanswered. */
constexpr int kDrainTicks = 64;

/** Book entry of one submitted request. */
struct InFlight
{
    double due = 0.0;
    uint64_t submitTick = 0;
    std::size_t window = 0;
    bool answered = false;
};

} // namespace

std::vector<Arrival>
openLoopSchedule(uint64_t seed, double seconds, const LoadSpec &load)
{
    std::vector<Arrival> out;
    divot::Rng rng(seed ^ kTagArrivals);
    double t = 0.0;
    uint64_t id = 1;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / load.rate;
        if (t >= seconds)
            break;
        Arrival a;
        a.due = t;
        a.request.id = id++;
        a.request.kind = rng.uniform() < load.reenrollShare
            ? RequestKind::Reenroll
            : RequestKind::Verify;
        a.request.channel =
            load.channelName(rng.uniformInt(load.channels));
        out.push_back(std::move(a));
    }
    return out;
}

LoopResult
runOpenLoop(const std::vector<Arrival> &schedule, double seconds,
            double latencyLimitMs, bool traced, Tracer &tracer,
            const IoMeter &io, const FrontEnd &front)
{
    LoopResult res;
    res.windows.resize(traced ? 2 : 1);
    std::unordered_map<uint64_t, InFlight> book;
    std::unordered_set<std::string> fenced;
    uint64_t ticks = 0;
    std::size_t next = 0;
    std::size_t w = 0;     // window now being measured
    bool accounting = true; // false once the timed phase is over

    const double t0 = now();
    double windowStart = t0;
    const auto windowOfDue = [&](double due) -> std::size_t {
        return traced && due >= 0.5 * seconds ? 1 : 0;
    };

    const auto submitDue = [&](double upTo) {
        std::size_t end = next;
        while (end < schedule.size() && schedule[end].due <= upTo)
            ++end;
        if (end == next)
            return;
        Window &win = res.windows[w];
        std::vector<char> wire;
        for (std::size_t k = next; k < end; ++k) {
            Span s(tracer, "service.codec.encode");
            tracer.link(schedule[k].request.id);
            divot::service::appendRequestFrame(wire,
                                               schedule[k].request);
            win.encodeSeconds += s.close();
        }
        win.requestFrames += end - next;
        win.requestBytes += wire.size();

        std::vector<ServiceRequest> decoded;
        {
            Span s(tracer, "service.codec.decode");
            for (std::size_t k = next; k < end; ++k)
                tracer.link(schedule[k].request.id);
            const divot::service::StreamDecode d =
                divot::service::decodeRequestStream(wire, decoded);
            win.decodeSeconds += s.close();
            if (!d.ok() || decoded.size() != end - next)
                ++res.transportErrors;
        }

        for (std::size_t k = 0; k < decoded.size(); ++k) {
            const ServiceRequest &rq = decoded[k];
            const double due = schedule[next + k].due;
            if (rq.id != schedule[next + k].request.id ||
                rq.channel != schedule[next + k].request.channel)
                ++res.transportErrors;
            Window &dueWin = res.windows[windowOfDue(due)];
            dueWin.genLateMs.push_back((now() - t0 - due) * 1e3);
            Span s(tracer, "service.submit");
            tracer.link(rq.id);
            const bool admitted = front.submit(rq);
            win.submitUs.push_back(s.close() * 1e6);
            InFlight f;
            f.due = due;
            f.submitTick = ticks;
            f.window = windowOfDue(due);
            book.emplace(rq.id, f);
            ++dueWin.submitted;
            ++res.submitted;
            if (admitted)
                ++dueWin.admitted;
        }
        next = end;
    };

    const auto tickOnce = [&]() -> int64_t {
        Window &win = res.windows[w];
        const IoCounters before = io.read();
        Span s(tracer, "fleet.tick");
        const uint64_t probes = front.tick();
        const double dt = s.close();
        const IoCounters d = io.delta(before, io.read());
        ++ticks;
        if (accounting) {
            ++win.ticks;
            win.probes += probes;
            win.tickSeconds += dt;
            win.tickMs.push_back(dt * 1e3);
            win.io.rchar += d.rchar;
            win.io.wchar += d.wchar;
            win.io.syscr += d.syscr;
            win.io.syscw += d.syscw;
        }
        return s.index();
    };

    const auto drainOnce = [&](int64_t tickSpan) {
        Window &win = res.windows[w];
        std::vector<ServiceResponse> got;
        int64_t drainSpan = -1;
        {
            Span s(tracer, "service.drain");
            got = front.drain();
            win.drainUs.push_back(s.close() * 1e6);
            drainSpan = s.index();
        }
        if (got.empty())
            return;

        std::vector<char> wire;
        for (const ServiceResponse &r : got) {
            Span s(tracer, "service.codec.encode");
            tracer.link(r.id);
            divot::service::appendResponseFrame(wire, r);
            win.encodeSeconds += s.close();
        }
        win.responseFrames += got.size();
        win.responseBytes += wire.size();
        std::vector<ServiceResponse> decoded;
        {
            Span s(tracer, "service.codec.decode");
            for (const ServiceResponse &r : got)
                tracer.link(r.id);
            const divot::service::StreamDecode d =
                divot::service::decodeResponseStream(wire, decoded);
            win.decodeSeconds += s.close();
            if (!d.ok() || decoded.size() != got.size())
                ++res.transportErrors;
        }

        const double at = now() - t0;
        for (const ServiceResponse &r : decoded) {
            tracer.linkTo(tickSpan, r.id);
            tracer.linkTo(drainSpan, r.id);
            const auto it = book.find(r.id);
            if (it == book.end()) {
                ++res.strays;
                continue;
            }
            InFlight &f = it->second;
            if (f.answered) {
                ++res.duplicates;
                continue;
            }
            f.answered = true;
            ++res.answered;
            Window &dueWin = res.windows[f.window];
            dueWin.waitTicks.push_back(
                static_cast<double>(ticks - f.submitTick));
            const double latencyMs = (at - f.due) * 1e3;
            if (r.status == ResponseStatus::Busy) {
                ++dueWin.busy;
                continue;
            }
            if (r.status == ResponseStatus::Rejected) {
                ++dueWin.rejected;
                continue;
            }
            if (latencyMs > latencyLimitMs)
                ++dueWin.late;
            if (r.status == ResponseStatus::Fenced)
                fenced.insert(r.channel);
            if (r.kind == RequestKind::Reenroll) {
                dueWin.reenrollMs.push_back(latencyMs);
                if (r.status == ResponseStatus::Ok) {
                    ++dueWin.reenrollsOk;
                    fenced.erase(r.channel);
                }
            } else if (r.kind == RequestKind::Verify) {
                dueWin.verifyMs.push_back(latencyMs);
                if (r.status == ResponseStatus::Ok) {
                    const bool flagged =
                        (r.flags &
                         divot::service::kResponseAuthenticated) != 0;
                    const bool above = r.similarity >= front.similarityBar;
                    if (flagged != above || fenced.count(r.channel) != 0)
                        ++res.junk;
                }
            }
        }
    };

    for (;;) {
        const double rel = now() - t0;
        if (rel >= seconds)
            break;
        if (traced && w == 0 && rel >= 0.5 * seconds) {
            res.windows[0].hostSeconds = now() - windowStart;
            w = 1;
            tracer.setEnabled(true);
            windowStart = now();
        }
        Span iteration(tracer, "loop");
        submitDue(rel);
        drainOnce(tickOnce());
    }
    res.windows[w].hostSeconds = now() - windowStart;
    accounting = false;

    // Arrivals due before the deadline but after the last submit pass,
    // then ticks until every admitted request is answered.
    submitDue(std::numeric_limits<double>::infinity());
    for (int extra = 0; extra < kDrainTicks && front.pending() > 0;
         ++extra) {
        Span iteration(tracer, "loop");
        drainOnce(tickOnce());
    }
    drainOnce(-1);

    for (const auto &[id, f] : book) {
        if (!f.answered)
            ++res.unanswered;
    }
    return res;
}

LoopTotals
loopTotals(const LoopResult &res)
{
    LoopTotals t;
    for (const Window &w : res.windows) {
        t.probes += w.probes;
        t.ticks += w.ticks;
        t.reenrollsOk += w.reenrollsOk;
        t.tickSeconds += w.tickSeconds;
        t.io.rchar += w.io.rchar;
        t.io.wchar += w.io.wchar;
        t.io.syscr += w.io.syscr;
        t.io.syscw += w.io.syscw;
    }
    return t;
}

void
checkRequests(const LoopResult &res, Outcome &out)
{
    out.check(res.answered == res.submitted && res.unanswered == 0,
              std::to_string(res.unanswered) + " of " +
                  std::to_string(res.submitted) + " requests unanswered");
    out.check(res.duplicates == 0 && res.strays == 0,
              "a request was answered more than once or never asked");
    out.check(res.junk == 0,
              std::to_string(res.junk) + " junk Verify responses");
    out.check(res.transportErrors == 0, "DIVQ frames failed to round-trip");
    out.attempted = res.submitted;
    out.failed = res.unanswered;
    for (const Window &w : res.windows)
        out.failed += w.busy + w.rejected;
}

void
reportRequestMetrics(const Window &w, const LoopResult &all,
                     bool hasReenroll, Outcome &out)
{
    out.set("probe_per_s",
            w.hostSeconds > 0.0 ? w.probes / w.hostSeconds : 0.0,
            "probes/s");
    out.set("verify_p50_ms", percentile(w.verifyMs, 50), "ms");
    out.set("verify_p99_ms", percentile(w.verifyMs, 99), "ms");
    out.set("verify.samples", static_cast<double>(w.verifyMs.size()),
            "count");
    if (hasReenroll) {
        out.set("reenroll_p50_ms", percentile(w.reenrollMs, 50), "ms");
        out.set("reenroll.samples",
                static_cast<double>(w.reenrollMs.size()), "count");
    }
    const uint64_t failed = w.busy + w.rejected + w.late + all.unanswered;
    out.set("req_fail_ratio",
            w.submitted > 0 ? static_cast<double>(failed) / w.submitted
                            : 0.0,
            "ratio");
}

void
reportServiceMetrics(const Window &w, Outcome &out)
{
    const uint64_t frames = w.requestFrames + w.responseFrames;
    out.set("service.submit_us.p50", percentile(w.submitUs, 50), "us");
    out.set("service.submit_us.p99", percentile(w.submitUs, 99), "us");
    out.set("service.drain_us.p50", percentile(w.drainUs, 50), "us");
    out.set("service.codec.encode_us_per_frame",
            frames > 0 ? w.encodeSeconds * 1e6 / frames : 0.0, "us");
    out.set("service.codec.decode_us_per_frame",
            frames > 0 ? w.decodeSeconds * 1e6 / frames : 0.0, "us");
    out.set("service.codec.bytes_per_request",
            w.requestFrames > 0
                ? static_cast<double>(w.requestBytes) / w.requestFrames
                : 0.0,
            "B");
    out.set("service.codec.bytes_per_response",
            w.responseFrames > 0
                ? static_cast<double>(w.responseBytes) / w.responseFrames
                : 0.0,
            "B");
    out.set("service.wait_ticks.p50", percentile(w.waitTicks, 50),
            "ticks");
    out.set("service.wait_ticks.p99", percentile(w.waitTicks, 99),
            "ticks");
    out.set("service.gen_late_ms.p99", percentile(w.genLateMs, 99),
            "ms");
    out.set("service.busy_rejects", static_cast<double>(w.busy),
            "count");
    out.set("service.admitted", static_cast<double>(w.admitted),
            "count");
}

} // namespace perfbench
