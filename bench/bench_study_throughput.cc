/**
 * @file
 * PERF — end-to-end throughput of the genuine/impostor study driver,
 * the workload behind Fig. 7/8: measurements per second for the
 * serial path (threads = 1) versus the thread pool, the trace-cache
 * single-thread win against an uncached run, and the analytic
 * (exact-binomial) strobe engine against the sampled engine — including a
 * statistical-equivalence gate (EER deltas within tolerance) and a
 * multi-wire analytic run. Also re-checks the determinism contract:
 * parallel runs must reproduce the serial scores bit for bit, for
 * both strobe models.
 *
 * DIVOT_THREADS (or hardware concurrency) sets the parallel worker
 * count; --full runs the paper-scale Fig. 7 population; --quick the
 * smallest meaningful sizes (CI perf smoke).
 *
 * Cross-PR perf tracking: BENCH_study_throughput.json (relative to
 * the working directory — CI runs from the repo root where it is
 * checked in) holds a top-level ARRAY of run records, one per PR.
 * --json APPENDS this run as a new record (label from
 * DIVOT_BENCH_LABEL, which --json requires); --gate compares this run's
 * throughput rows against the LAST committed record and fails the
 * bench when any tracked row drops below 85% of it.
 */

#include <cctype>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fingerprint/study.hh"
#include "itdr/kernels/kernels.hh"
#include "telemetry/telemetry.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace divot {
namespace bench {
namespace {

struct Timed
{
    std::string name;
    StudyConfig cfg;
    StudyResult result;
    double seconds = 0.0;
    std::size_t measurements = 0;
};

std::size_t
measurementCount(const StudyConfig &cfg)
{
    const std::size_t lanes = cfg.lines * cfg.wires;
    return lanes * cfg.enrollReps + lanes * cfg.genuinePerLine +
        lanes * (cfg.lines - 1) * cfg.impostorPerPair;
}

Timed
timedRun(const char *name, const StudyConfig &cfg, uint64_t seed,
         Telemetry *telemetry = nullptr)
{
    Timed out;
    out.name = name;
    out.cfg = cfg;
    out.cfg.telemetry = telemetry;
    out.measurements = measurementCount(cfg);
    GenuineImpostorStudy study(out.cfg, Rng(seed));
    const auto t0 = std::chrono::steady_clock::now();
    out.result = study.run();
    const auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    return out;
}

bool
bitIdentical(const StudyResult &a, const StudyResult &b)
{
    if (a.genuine.size() != b.genuine.size() ||
        a.impostor.size() != b.impostor.size() ||
        a.totalBusCycles != b.totalBusCycles)
        return false;
    for (std::size_t i = 0; i < a.genuine.size(); ++i)
        if (a.genuine[i] != b.genuine[i])
            return false;
    for (std::size_t i = 0; i < a.impostor.size(); ++i)
        if (a.impostor[i] != b.impostor[i])
            return false;
    return a.roc.eer == b.roc.eer;
}

double
rate(const Timed &t)
{
    return static_cast<double>(t.measurements) /
        std::max(t.seconds, 1e-12);
}

double
cacheHitRate(const StudyResult &r)
{
    const uint64_t lookups = r.cacheHits + r.cacheMisses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(r.cacheHits) /
            static_cast<double>(lookups);
}

const char *
strobeModelName(StrobeModel model)
{
    return model == StrobeModel::Binomial ? "Binomial" : "Sampled";
}

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
}

std::string
readWholeFile(const char *path)
{
    std::FILE *f = std::fopen(path, "rb");
    if (f == nullptr)
        return {};
    std::string content;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        content.append(buf, got);
    std::fclose(f);
    return content;
}

/**
 * One run record, deliberately timestamp-free so re-running at the
 * same commit produces a reviewable (textually stable apart from the
 * timings) diff. The record carries the resolved dispatch target so
 * the perf trajectory distinguishes AVX2 hosts from scalar ones.
 */
std::string
buildRecord(const Options &opt, const std::string &label,
            unsigned workers,
            const std::vector<const Timed *> &rows, double legacy_rate,
            double eer_delta_serial, double eer_delta_multiwire,
            double eer_tolerance, bool equivalence_pass,
            bool determinism_pass)
{
    std::string r;
    appendf(r, "  {\n");
    appendf(r, "    \"label\": \"%s\",\n", label.c_str());
    appendf(r, "    \"bench\": \"study_throughput\",\n");
    appendf(r, "    \"seed\": %llu,\n",
            static_cast<unsigned long long>(opt.seed));
    appendf(r, "    \"scale\": \"%s\",\n",
            opt.full ? "full" : opt.quick ? "quick" : "default");
    appendf(r, "    \"workers\": %u,\n", workers);
    appendf(r, "    \"hostSimd\": \"%s\",\n",
            simdTargetName(resolveSimdTarget(SimdTarget::Auto)));
    appendf(r, "    \"engines\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Timed &t = *rows[i];
        appendf(r, "      {\n");
        appendf(r, "        \"name\": \"%s\",\n", t.name.c_str());
        appendf(r, "        \"strobeModel\": \"%s\",\n",
                strobeModelName(t.cfg.itdr.strobeModel));
        appendf(r, "        \"simd\": \"%s\",\n",
                simdTargetName(resolveSimdTarget(t.cfg.itdr.simd)));
        appendf(r, "        \"threads\": %u,\n", t.cfg.threads);
        appendf(r, "        \"wires\": %zu,\n", t.cfg.wires);
        appendf(r, "        \"traceCacheCapacity\": %zu,\n",
                t.cfg.itdr.traceCacheCapacity);
        appendf(r, "        \"measurements\": %zu,\n", t.measurements);
        appendf(r, "        \"seconds\": %.6f,\n", t.seconds);
        appendf(r, "        \"measPerSec\": %.3f,\n", rate(t));
        appendf(r, "        \"speedupVsLegacy\": %.3f,\n",
                rate(t) / legacy_rate);
        appendf(r, "        \"cacheHitRate\": %.4f,\n",
                cacheHitRate(t.result));
        appendf(r, "        \"eer\": %.6f\n", t.result.roc.eer);
        appendf(r, "      }%s\n", i + 1 < rows.size() ? "," : "");
    }
    appendf(r, "    ],\n");
    appendf(r, "    \"eerDeltaSerial\": %.6f,\n", eer_delta_serial);
    appendf(r, "    \"eerDeltaMultiwire\": %.6f,\n",
            eer_delta_multiwire);
    appendf(r, "    \"eerTolerance\": %.6f,\n", eer_tolerance);
    appendf(r, "    \"equivalencePass\": %s,\n",
            equivalence_pass ? "true" : "false");
    appendf(r, "    \"determinismPass\": %s\n",
            determinism_pass ? "true" : "false");
    appendf(r, "  }");
    return r;
}

/** Append `record` to the top-level array in `path` (creating the
 *  file as a one-record array when absent or unparseable). */
void
appendRecord(const char *path, const std::string &record)
{
    const std::string existing = readWholeFile(path);
    std::string out;
    const std::size_t close = existing.find_last_of(']');
    if (close == std::string::npos) {
        out = "[\n" + record + "\n]\n";
    } else {
        std::size_t end = close;
        while (end > 0 && std::isspace(
                              static_cast<unsigned char>(
                                  existing[end - 1])))
            --end;
        const bool empty_array = end > 0 && existing[end - 1] == '[';
        out = existing.substr(0, end) +
            (empty_array ? "\n" : ",\n") + record + "\n]\n";
    }
    std::FILE *f = std::fopen(path, "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("appended record to %s\n", path);
}

/**
 * Throughput rows of the last committed record of THIS bench at THIS
 * scale — the regression-gate baseline. The trajectory file is
 * shared with other benches (e.g. megafleet) and other scales, so
 * the baseline is the last shape-matched record, not whatever record
 * sits last in the file; the ("name", "measPerSec") scan is bounded
 * to that record's text so a later record of another bench can never
 * contribute rows. Engine names are unique within a record, so no
 * full JSON parse is needed.
 */
std::map<std::string, double>
lastCommittedRates(const char *path, const Options &opt)
{
    const std::vector<std::string> shape = {
        "\"bench\": \"study_throughput\"",
        std::string("\"scale\": \"") +
            (opt.full ? "full" : opt.quick ? "quick" : "default") +
            "\""};
    const std::string record =
        lastMatchingRecord(readWholeFile(path), shape);
    std::map<std::string, double> rates;
    std::size_t pos = 0;
    while (true) {
        pos = record.find("\"name\": \"", pos);
        if (pos == std::string::npos)
            break;
        pos += 9;
        const std::size_t name_end = record.find('"', pos);
        if (name_end == std::string::npos)
            break;
        const std::string name = record.substr(pos, name_end - pos);
        const std::size_t rate_key =
            record.find("\"measPerSec\": ", name_end);
        if (rate_key == std::string::npos)
            break;
        rates[name] =
            std::strtod(record.c_str() + rate_key + 14, nullptr);
        pos = rate_key;
    }
    return rates;
}

int
benchMain(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    const std::string label = benchLabel(opt);
    banner("PERF.study_throughput",
           "study driver measurements/second: serial vs pool vs "
           "uncached vs analytic strobe engine",
           opt);

    StudyConfig cfg;
    if (opt.quick) {
        // Smallest sizes at which throughput and EER deltas are still
        // meaningful — the CI perf-smoke scale.
        cfg.lines = 2;
        cfg.enrollReps = 2;
        cfg.genuinePerLine = 8;
        cfg.impostorPerPair = 4;
    } else if (!opt.full) {
        // Enough campaign measurements that steady-state throughput —
        // not one-time instrument setup — dominates the timing.
        cfg.lines = 3;
        cfg.enrollReps = 4;
        cfg.genuinePerLine = 24;
        cfg.impostorPerPair = 6;
    }

    // Uncached reference: serial, trace cache off.
    StudyConfig legacy = cfg;
    legacy.threads = 1;
    legacy.itdr.traceCacheCapacity = 0;

    StudyConfig serial = cfg;
    serial.threads = 1;

    StudyConfig parallel = cfg;
    parallel.threads = 0;  // DIVOT_THREADS / hardware concurrency
    const unsigned workers = ThreadPool::defaultThreadCount();

    // The analytic strobe engine: identical campaigns, binomial
    // hit-count sampling.
    StudyConfig serial_bin = serial;
    serial_bin.itdr.strobeModel = StrobeModel::Binomial;
    StudyConfig parallel_bin = parallel;
    parallel_bin.itdr.strobeModel = StrobeModel::Binomial;

    // The same analytic campaign pinned to the scalar kernel set: the
    // reference the SIMD speedup is measured against, and the row
    // that keeps the trajectory meaningful on hosts with no vector
    // unit (where it coincides with "serial binomial").
    StudyConfig serial_bin_scalar = serial_bin;
    serial_bin_scalar.itdr.simd = SimdTarget::Scalar;

    // Multi-wire end-to-end: both engines through the fusion path.
    StudyConfig multi = serial;
    multi.wires = 2;
    StudyConfig multi_bin = multi;
    multi_bin.itdr.strobeModel = StrobeModel::Binomial;

    // The serial and pooled sampled runs carry live telemetry: their
    // stable exports must match byte for byte (gate 3), and the
    // serial snapshot is embedded in the --json report.
    Telemetry tel_serial;
    Telemetry tel_parallel;

    const Timed t_legacy =
        timedRun("legacy (no cache)", legacy, opt.seed);
    const Timed t_serial =
        timedRun("serial sampled", serial, opt.seed, &tel_serial);
    const Timed t_parallel =
        timedRun("pooled sampled", parallel, opt.seed, &tel_parallel);
    const Timed t_serial_bin =
        timedRun("serial binomial", serial_bin, opt.seed);
    const Timed t_serial_bin_scalar = timedRun(
        "serial binomial scalar-kernel", serial_bin_scalar, opt.seed);
    const Timed t_parallel_bin =
        timedRun("pooled binomial", parallel_bin, opt.seed);
    const Timed t_multi =
        timedRun("multiwire(2) sampled", multi, opt.seed);
    const Timed t_multi_bin =
        timedRun("multiwire(2) binomial", multi_bin, opt.seed);

    const std::vector<const Timed *> rows = {
        &t_legacy,     &t_serial,    &t_parallel, &t_serial_bin,
        &t_serial_bin_scalar,
        &t_parallel_bin, &t_multi,   &t_multi_bin};

    Table table("study throughput (" +
                std::to_string(t_serial.measurements) +
                " measurements per single-wire run)");
    table.setHeader({"configuration", "threads", "seconds", "meas/s",
                     "speedup", "EER"});
    for (const Timed *t : rows) {
        table.addRow(
            {t->name,
             std::to_string(t->cfg.threads == 0 ? workers
                                                : t->cfg.threads),
             Table::num(t->seconds, 3), Table::num(rate(*t), 4),
             Table::num(rate(*t) / rate(t_legacy), 3) + "x",
             Table::num(t->result.roc.eer, 4)});
    }
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    // Trace-cache effectiveness: engines sharing per-lane caches must
    // agree; the legacy row runs uncached as the contrast.
    std::printf("\ntrace cache:\n");
    for (const Timed *t : rows) {
        std::printf("  %-24s %llu hits / %llu misses / %llu "
                    "evictions (%.1f%% hit rate)\n",
                    t->name.c_str(),
                    static_cast<unsigned long long>(
                        t->result.cacheHits),
                    static_cast<unsigned long long>(
                        t->result.cacheMisses),
                    static_cast<unsigned long long>(
                        t->result.cacheEvictions),
                    100.0 * cacheHitRate(t->result));
    }

    // Gate 1 — determinism: pooled == serial bit-identically, for
    // both strobe models.
    const bool det_sampled =
        bitIdentical(t_serial.result, t_parallel.result);
    const bool det_binomial =
        bitIdentical(t_serial_bin.result, t_parallel_bin.result);
    const std::string snap_serial = tel_serial.exportJson();
    const bool det_telemetry = snap_serial == tel_parallel.exportJson();
    const bool determinism_pass =
        det_sampled && det_binomial && det_telemetry;
    std::printf("\nparallel == serial (bit-identical scores): "
                "sampled %s, binomial %s\n",
                det_sampled ? "yes" : "NO — DETERMINISM VIOLATION",
                det_binomial ? "yes" : "NO — DETERMINISM VIOLATION");
    std::printf("parallel == serial (byte-identical telemetry "
                "snapshot): %s\n",
                det_telemetry ? "yes" : "NO — DETERMINISM VIOLATION");

    // Gate 2 — statistical equivalence: the analytic engine must
    // land within tolerance of the sampled engine's EER. The
    // tolerance is 0.5 pp plus, at reduced scales, the EER
    // quantization floor of the small score sets.
    const double quantum =
        1.0 / static_cast<double>(t_serial.result.genuine.size()) +
        1.0 / static_cast<double>(t_serial.result.impostor.size());
    const double eer_tolerance =
        opt.full ? 0.005 : std::max(0.005, 2.0 * quantum);
    const double eer_delta_serial = std::fabs(
        t_serial_bin.result.roc.eer - t_serial.result.roc.eer);
    const double eer_delta_multi = std::fabs(
        t_multi_bin.result.roc.eer - t_multi.result.roc.eer);
    const bool equivalence_pass = eer_delta_serial <= eer_tolerance &&
        eer_delta_multi <= eer_tolerance;
    std::printf("binomial vs sampled EER delta: single-wire %.4f, "
                "multiwire %.4f (tolerance %.4f): %s\n",
                eer_delta_serial, eer_delta_multi, eer_tolerance,
                equivalence_pass ? "PASS" : "FAIL");

    std::printf("binomial engine speedup (serial, vs sampled): "
                "%.2fx\n",
                rate(t_serial_bin) / rate(t_serial));
    std::printf("SIMD kernel speedup (serial binomial, vs scalar "
                "kernel): %.2fx\n",
                rate(t_serial_bin) / rate(t_serial_bin_scalar));
    std::printf("binomial engine speedup (multiwire, vs sampled): "
                "%.2fx\n",
                rate(t_multi_bin) / rate(t_multi));
    std::printf("serial vs pooled wall speedup: %.2fx on %u workers\n",
                t_serial.seconds / std::max(t_parallel.seconds, 1e-12),
                workers);

    const char *record_path = "BENCH_study_throughput.json";

    // Gate 3 (--gate) — throughput regression against the last
    // committed trajectory record. Compared BEFORE appending, so the
    // baseline is always the previous PR's record. 15% headroom
    // absorbs host jitter; real regressions (a kernel falling off its
    // vector path) are far larger.
    bool gate_pass = true;
    if (opt.gate) {
        const std::map<std::string, double> prev =
            lastCommittedRates(record_path, opt);
        const std::vector<const Timed *> tracked = {
            &t_serial, &t_serial_bin, &t_serial_bin_scalar};
        std::printf("\nperf gate (>= 85%% of last committed record):\n");
        if (prev.empty()) {
            std::printf("  no committed baseline in %s — skipping\n",
                        record_path);
        }
        for (const Timed *t : tracked) {
            const auto it = prev.find(t->name);
            if (it == prev.end() || it->second <= 0.0)
                continue;
            const double frac = rate(*t) / it->second;
            const bool ok = frac >= 0.85;
            std::printf("  %-32s %6.1f%% of %.1f meas/s: %s\n",
                        t->name.c_str(), 100.0 * frac, it->second,
                        ok ? "PASS" : "FAIL");
            gate_pass = gate_pass && ok;
        }
    }

    if (opt.json) {
        appendRecord(record_path,
                     buildRecord(opt, label, workers, rows,
                                 rate(t_legacy), eer_delta_serial,
                                 eer_delta_multi, eer_tolerance,
                                 equivalence_pass, determinism_pass));
    }
    return determinism_pass && equivalence_pass && gate_pass ? 0 : 1;
}

} // namespace
} // namespace bench
} // namespace divot

int
main(int argc, char **argv)
{
    return divot::bench::benchMain(argc, argv);
}
