/**
 * @file
 * Shared plumbing for the figure-regeneration benches: flag parsing
 * (--full for paper-scale runs, --seed N, --csv) and a banner helper.
 * Every bench prints the series/rows of the paper artifact it
 * regenerates; EXPERIMENTS.md records paper-vs-measured.
 */

#ifndef DIVOT_BENCH_COMMON_HH
#define DIVOT_BENCH_COMMON_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace divot {
namespace bench {

/** Parsed command-line options common to all benches. */
struct Options
{
    bool full = false;     //!< paper-scale population sizes
    bool smoke = false;    //!< CI-scale quick pass (subset + short)
    bool quick = false;    //!< smallest meaningful sizes (CI gates)
    bool million = false;  //!< capacity leg: 10^6-channel mega-fleet
                           //!< (benches that support it)
    bool csv = false;      //!< CSV instead of aligned tables
    bool json = false;     //!< also write a machine-readable
                           //!< BENCH_<name>.json (benches that
                           //!< support it)
    bool gate = false;     //!< compare against the last committed
                           //!< BENCH_<name>.json record and fail on
                           //!< regression (benches that support it)
    uint64_t seed = 2020;  //!< master seed (ISCA 2020 vintage)
};

/** Parse argv; unknown flags abort with a usage message. */
inline Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            opt.full = true;
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            opt.smoke = true;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            opt.quick = true;
        } else if (std::strcmp(argv[i], "--million") == 0) {
            opt.million = true;
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            opt.csv = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            opt.json = true;
        } else if (std::strcmp(argv[i], "--gate") == 0) {
            opt.gate = true;
        } else if (std::strcmp(argv[i], "--seed") == 0 &&
                   i + 1 < argc) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--full] [--smoke] [--quick] "
                         "[--million] [--csv] [--json] [--gate] "
                         "[--seed N]\n",
                         argv[0]);
            std::exit(2);
        }
    }
    // Keep bench stdout clean: suppress info chatter.
    setLogQuiet(true);
    return opt;
}

/**
 * The label a --json run files its BENCH_study_throughput.json record
 * under, from DIVOT_BENCH_LABEL. An unlabelled record cannot be told
 * apart from any other run in the committed trajectory, so --json
 * without a label exits 2 before doing any work. Empty without --json.
 */
inline std::string
benchLabel(const Options &opt)
{
    if (!opt.json)
        return {};
    const char *label = std::getenv("DIVOT_BENCH_LABEL");
    if (label == nullptr || *label == '\0') {
        std::fprintf(stderr,
                     "--json appends a record to the committed perf "
                     "trajectory: set DIVOT_BENCH_LABEL to name it\n");
        std::exit(2);
    }
    return label;
}

/**
 * Re-indent a standalone Telemetry::exportJson() document so it nests
 * cleanly as a value inside a hand-written BENCH_<name>.json report.
 */
inline void
writeEmbeddedJson(std::FILE *f, const std::string &json,
                  const char *indent)
{
    std::fputs(indent, f);
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char ch = json[i];
        if (ch != '\n') {
            std::fputc(ch, f);
        } else if (i + 1 < json.size()) {
            std::fputc('\n', f);
            std::fputs(indent, f);
        }
    }
    std::fputc('\n', f);
}

/**
 * Last record in a committed BENCH_*.json trajectory whose text
 * contains every `shape` needle — the bench name plus the scale and
 * config fields that make two runs comparable. Records are the
 * depth-1 `{...}` blocks of the top-level array, found with a
 * string-aware brace scan (records embed nested objects and quoted
 * JSON), so the gate baseline is the last record of the SAME bench
 * at the SAME shape — not whatever record happens to sit last in the
 * shared trajectory file.
 *
 * @return the matching record's text, or "" when none matches
 */
inline std::string
lastMatchingRecord(const std::string &content,
                   const std::vector<std::string> &shape)
{
    std::string last;
    std::size_t depth = 0;
    std::size_t start = 0;
    bool in_string = false;
    bool escaped = false;
    for (std::size_t i = 0; i < content.size(); ++i) {
        const char ch = content[i];
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (ch == '\\')
                escaped = true;
            else if (ch == '"')
                in_string = false;
            continue;
        }
        if (ch == '"') {
            in_string = true;
        } else if (ch == '{') {
            if (depth++ == 0)
                start = i;
        } else if (ch == '}' && depth > 0 && --depth == 0) {
            const std::string record =
                content.substr(start, i + 1 - start);
            bool match = true;
            for (const std::string &needle : shape) {
                if (record.find(needle) == std::string::npos) {
                    match = false;
                    break;
                }
            }
            if (match)
                last = record;
        }
    }
    return last;
}

/** Extract top-level `"key": <number>` fields from a record. */
inline std::map<std::string, double>
recordRates(const std::string &record,
            const std::vector<const char *> &keys)
{
    std::map<std::string, double> rates;
    for (const char *key : keys) {
        const std::string needle = std::string("\"") + key + "\": ";
        const std::size_t at = record.find(needle);
        if (at != std::string::npos)
            rates[key] = std::strtod(
                record.c_str() + at + needle.size(), nullptr);
    }
    return rates;
}

/** Print the experiment banner. */
inline void
banner(const char *id, const char *what, const Options &opt)
{
    std::printf("### %s — %s\n", id, what);
    std::printf("### scale=%s seed=%llu\n\n",
                opt.full ? "paper(--full)" : "default",
                static_cast<unsigned long long>(opt.seed));
}

} // namespace bench
} // namespace divot

#endif // DIVOT_BENCH_COMMON_HH
