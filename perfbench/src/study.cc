/**
 * @file
 * paper-study: GenuineImpostorStudy on the Fig. 7 population (6 lines,
 * 170 genuine per line, 34 impostor per ordered pair) under the two
 * Section IV-C conditions the paper reports numbers for: a vibration
 * chirp of 1.1e-2 strain and 0.5e-3 V of EMI. Vibration reshapes every
 * line snapshot (trace-cache misses); EMI leaves the line alone (cache
 * hits) and spends its time strobing.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "fingerprint/study.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

struct Condition
{
    const char *key;    //!< metric suffix
    double vibration;   //!< peak strain
    double emi;         //!< coupled EMI amplitude, V
    double paperEer;    //!< the paper's reported EER
};

constexpr int kConstructRepeats = 5;
constexpr int kMinPasses = 3;

constexpr Condition kConditions[] = {
    {"vib", 1.1e-2, 0.0, 2.7e-3},
    {"emi", 0.0, 0.5e-3, 6e-4},
};

divot::StudyConfig
studyConfig(const Condition &c)
{
    divot::StudyConfig cfg;
    cfg.lines = 6;
    cfg.lineLength = 0.25;
    cfg.enrollReps = 16;
    cfg.genuinePerLine = 170;
    cfg.impostorPerPair = 34;
    cfg.environment.vibrationStrain = c.vibration;
    cfg.environment.emiAmplitude = c.emi;
    cfg.threads = workerThreads();
    return cfg;
}

std::size_t
measurementCount(const divot::StudyConfig &cfg)
{
    const std::size_t l = cfg.lines * cfg.wires;
    return l * cfg.enrollReps + cfg.lines * cfg.genuinePerLine * cfg.wires +
        cfg.lines * (cfg.lines - 1) * cfg.impostorPerPair * cfg.wires;
}

/** Per-condition accumulation over the passes of one window. */
struct CondStats
{
    std::vector<double> passS; //!< constructor + run() per pass
    std::vector<double> runS;
    uint64_t measurements = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheLookups = 0;
    uint64_t busCycles = 0;
};

/** One window: the untraced passes, or the traced ones. */
struct StudyWindow
{
    std::vector<double> setupS; //!< one construction each
    CondStats cond[2];
    uint64_t measurements = 0;
};

void
reportWindow(const StudyWindow &w, Outcome &out)
{
    out.set("setup_s", median(w.setupS), "s");
    // One pass of each condition at its median pass time: the median
    // keeps one disturbed pass from moving the rate.
    double measurements = 0.0, seconds = 0.0;
    for (const CondStats &c : w.cond) {
        measurements += static_cast<double>(c.measurements) /
            static_cast<double>(c.passS.size());
        seconds += median(c.passS);
    }
    out.set("probe_per_s", seconds > 0.0 ? measurements / seconds : 0.0,
            "probes/s");
}

} // namespace

Outcome
runPaperStudy(const Options &opt)
{
    Outcome out;
    Tracer tracer;
    std::vector<StudyWindow> windows(opt.trace ? 2 : 1);
    divot::StudyResult first[2];

    // Untimed warm-up: one small study per condition, so the first timed
    // run does not also pay the process's one-time costs (thread start,
    // allocator growth).
    for (const Condition &c : kConditions) {
        divot::StudyConfig cfg = studyConfig(c);
        cfg.genuinePerLine = 8;
        cfg.impostorPerPair = 2;
        divot::GenuineImpostorStudy(cfg, divot::Rng(opt.seed)).run();
    }

    for (std::size_t wi = 0; wi < windows.size(); ++wi) {
        tracer.setEnabled(wi == 1);
        StudyWindow &w = windows[wi];
        // Whole passes (every condition once) until the run time is
        // spent, and at least kMinPasses of them.
        const double start = now();
        for (int pass = 0;
             pass < kMinPasses || now() - start < opt.seconds; ++pass) {
            for (std::size_t k = 0; k < 2; ++k) {
                const Condition &c = kConditions[k];
                const divot::StudyConfig cfg = studyConfig(c);
                CondStats &cs = w.cond[k];
                Span span(tracer, "study.condition");
                // Construction (fabricating the population) is the
                // whole set-up and takes ~0.1 ms, so it is sampled a few
                // times before every run, spread over the whole run, and
                // setup_s is the median. The last instance runs.
                std::unique_ptr<divot::GenuineImpostorStudy> study;
                for (int r = 0; r < kConstructRepeats; ++r) {
                    Span s(tracer, "study.construct");
                    study = std::make_unique<divot::GenuineImpostorStudy>(
                        cfg, divot::Rng(opt.seed));
                    w.setupS.push_back(s.close());
                }
                const double constructS = w.setupS.back();
                divot::StudyResult res;
                {
                    Span s(tracer, "study.run");
                    res = study->run();
                    cs.runS.push_back(s.close());
                }
                span.close();
                cs.passS.push_back(constructS + cs.runS.back());

                const std::size_t expect = measurementCount(cfg);
                const std::string key = c.key;
                out.check(res.genuine.size() ==
                              cfg.lines * cfg.genuinePerLine,
                          key + ": genuine score count");
                out.check(res.impostor.size() == cfg.lines *
                              (cfg.lines - 1) * cfg.impostorPerPair,
                          key + ": impostor score count");
                out.check(res.cacheHits + res.cacheMisses == expect,
                          key + ": " +
                              std::to_string(res.cacheHits +
                                             res.cacheMisses) +
                              " measurements, configured " +
                              std::to_string(expect));
                out.check(std::isfinite(res.fittedEer) &&
                              res.fittedEer > 0.0,
                          key + ": fitted EER not positive");
                cs.measurements += expect;
                cs.cacheHits += res.cacheHits;
                cs.cacheLookups += res.cacheHits + res.cacheMisses;
                cs.busCycles += res.totalBusCycles;
                w.measurements += expect;
                // Every run of a condition must reproduce the first bit
                // for bit (same seed, any thread schedule).
                if (first[k].genuine.empty()) {
                    first[k] = res;
                } else {
                    out.check(res.genuine == first[k].genuine &&
                                  res.impostor == first[k].impostor &&
                                  res.totalBusCycles ==
                                      first[k].totalBusCycles,
                              key + ": repeated study differs from the "
                                    "first");
                }
            }
        }
    }
    tracer.setEnabled(false);

    // --- end-to-end (untraced window) -----------------------------------
    const StudyWindow &w0 = windows.front();
    out.attempted = w0.measurements;
    out.failed = 0;
    reportWindow(w0, out);
    out.set("peak_rss_mib", peakRssMib(), "MiB");
    for (std::size_t k = 0; k < 2; ++k) {
        const Condition &c = kConditions[k];
        const double eer = first[k].fittedEer;
        out.set(std::string("eer_fit_") + c.key, eer, "ratio");
        char line[160];
        std::snprintf(line, sizeof line,
                      "eer_fit_%s %.4g vs paper %.2g (ratio %.3g, "
                      "log10 error %+.2f)",
                      c.key, eer, c.paperEer, eer / c.paperEer,
                      std::log10(eer / c.paperEer));
        out.notes.push_back(line);
    }

    // --- per-layer --------------------------------------------------------
    const StudyWindow &wt = windows.back();
    uint64_t hits = 0, lookups = 0, cycles = 0, measurements = 0;
    for (std::size_t k = 0; k < 2; ++k) {
        const Condition &c = kConditions[k];
        const CondStats &cs = wt.cond[k];
        const std::string key = c.key;
        hits += cs.cacheHits;
        lookups += cs.cacheLookups;
        cycles += cs.busCycles;
        measurements += cs.measurements;
        out.set("itdr.trace_cache.hit_ratio." + key,
                cs.cacheLookups > 0
                    ? static_cast<double>(cs.cacheHits) / cs.cacheLookups
                    : 0.0,
                "ratio");
        double runTotal = 0.0;
        for (double s : cs.runS)
            runTotal += s;
        out.set("itdr.host_ms_per_probe." + key,
                cs.measurements > 0 ? runTotal * 1e3 / cs.measurements
                                    : 0.0,
                "ms");
        out.set("fingerprint.study_s." + key, median(cs.runS), "s");
        out.set("fingerprint.decidability." + key,
                first[k].decidability, "d-prime");
    }
    out.set("itdr.trace_cache.hit_ratio",
            lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
            "ratio");
    out.set("itdr.bus_cycles_per_probe",
            measurements > 0 ? static_cast<double>(cycles) / measurements
                             : 0.0,
            "cycles");

    if (opt.trace) {
        Outcome traced;
        reportWindow(wt, traced);
        finishTrace(opt, traced, tracer, out);
    }
    return out;
}

} // namespace perfbench
