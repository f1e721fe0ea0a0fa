/**
 * @file
 * perfbench workload runner: runs one named workload in this process,
 * prints a human-readable report, and writes every measured metric,
 * the correctness verdict and the request counts as one JSON object to
 * the --results file. perfbench/run.py builds this binary, runs each
 * workload in its own process and prints the metric subset
 * BENCHMARK.json names.
 *
 * Usage:
 *   perfbench_runner --workload <name> [--seed N] [--seconds S]
 *                    [--trace 0|1] --data-dir DIR --results FILE
 *                    [--trace-out FILE]
 * Exit status: 0 when every correctness check passed, 1 when one
 * failed, 2 on a usage error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/logging.hh"
#include "workloads.hh"

namespace perfbench {

void
finishTrace(const Options &opt, const Outcome &traced,
            const Tracer &tracer, Outcome &out)
{
    static const char *const kHostTimed[] = {
        "setup_s",       "probe_per_s",   "verify_p50_ms",
        "verify_p99_ms", "reenroll_p50_ms",
    };
    for (const char *name : kHostTimed) {
        const auto u = out.metrics.find(name);
        const auto t = traced.metrics.find(name);
        if (u == out.metrics.end() || t == traced.metrics.end())
            continue;
        const Metric overhead{t->second.value - u->second.value,
                              u->second.unit};
        out.metrics[std::string("trace.overhead.") + name] = overhead;
    }
    out.set("trace.spans", static_cast<double>(tracer.spanCount()),
            "count");
    if (!opt.traceOut.empty() && !tracer.write(opt.traceOut))
        out.notes.push_back("could not write " + opt.traceOut);
}

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload "
                 "{fleet-warm|fleet-cold|bus-service|paper-study} "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "--data-dir DIR --results FILE [--trace-out FILE]\n");
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

bool
writeResults(const std::string &path, const Options &opt,
             const Outcome &o)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
                 jsonString(opt.workload).c_str(),
                 static_cast<unsigned long long>(opt.seed));
    std::fprintf(f, "  \"trace\": %s,\n  \"correct\": %s,\n",
                 opt.trace ? "true" : "false",
                 o.checkFailures.empty() ? "true" : "false");
    std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
                 static_cast<unsigned long long>(o.attempted),
                 static_cast<unsigned long long>(o.failed));
    std::fprintf(f, "  \"verdict_digest\": %s,\n",
                 jsonString(o.verdictDigest).c_str());
    std::fprintf(f, "  \"check_failures\": [");
    for (std::size_t i = 0; i < o.checkFailures.size(); ++i)
        std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                     jsonString(o.checkFailures[i]).c_str());
    std::fprintf(f, "],\n  \"notes\": [");
    for (std::size_t i = 0; i < o.notes.size(); ++i)
        std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                     jsonString(o.notes[i]).c_str());
    std::fprintf(f, "],\n  \"metrics\": {");
    bool first = true;
    for (const auto &[name, m] : o.metrics) {
        // JSON has no NaN/Inf: write null, which the runner rejects.
        char value[64];
        if (std::isfinite(m.value))
            std::snprintf(value, sizeof value, "%.17g", m.value);
        else
            std::snprintf(value, sizeof value, "null");
        std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s}",
                     first ? "" : ",", jsonString(name).c_str(), value,
                     jsonString(m.unit).c_str());
        first = false;
    }
    std::fprintf(f, "\n  }\n}\n");
    return std::fclose(f) == 0;
}

void
printReport(const Options &opt, const Outcome &o)
{
    std::printf("== perfbench %s seed=%llu seconds=%g trace=%d ==\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    for (const auto &[name, m] : o.metrics)
        std::printf("  %-40s %16.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &n : o.notes)
        std::printf("  note: %s\n", n.c_str());
    if (!o.verdictDigest.empty())
        std::printf("  prefix verdict digest: %s\n",
                    o.verdictDigest.c_str());
    std::printf("  attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    for (const std::string &c : o.checkFailures)
        std::printf("  CHECK FAILED: %s\n", c.c_str());
    std::printf("  correctness: %s\n",
                o.checkFailures.empty() ? "PASS" : "FAIL");
    std::fflush(stdout);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    std::string results;
    for (int i = 1; i < argc; ++i) {
        const bool hasValue = i + 1 < argc;
        if (std::strcmp(argv[i], "--workload") == 0 && hasValue) {
            opt.workload = argv[++i];
        } else if (std::strcmp(argv[i], "--seed") == 0 && hasValue) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--seconds") == 0 && hasValue) {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--trace") == 0 && hasValue) {
            opt.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (std::strcmp(argv[i], "--data-dir") == 0 && hasValue) {
            opt.dataDir = argv[++i];
        } else if (std::strcmp(argv[i], "--results") == 0 && hasValue) {
            results = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-out") == 0 && hasValue) {
            opt.traceOut = argv[++i];
        } else {
            usage();
            return 2;
        }
    }
    if (opt.dataDir.empty() || results.empty() || !(opt.seconds > 0.0)) {
        usage();
        return 2;
    }
    divot::setLogQuiet(true);

    Outcome o;
    if (opt.workload == "fleet-warm") {
        o = runFleetWarm(opt);
    } else if (opt.workload == "fleet-cold") {
        o = runFleetCold(opt);
    } else if (opt.workload == "bus-service") {
        o = runBusService(opt);
    } else if (opt.workload == "paper-study") {
        o = runPaperStudy(opt);
    } else {
        usage();
        return 2;
    }
    printReport(opt, o);
    if (!writeResults(results, opt, o)) {
        std::fprintf(stderr, "cannot write %s\n", results.c_str());
        return 1;
    }
    return o.checkFailures.empty() ? 0 : 1;
}
