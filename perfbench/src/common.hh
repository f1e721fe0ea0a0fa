/**
 * @file
 * Shared pieces of the perfbench workloads: the host clock, sample
 * summaries, outside-in process counters (/proc/self/io, ru_maxrss),
 * the in-memory span tracer, and the metric sink every workload
 * reports into.
 *
 * Everything here measures the program from outside: it times calls
 * into the public entry points and reads counters the process or the
 * library already exposes. Nothing reaches into src/.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** @return host monotonic time, seconds. */
double now();

/** @return worker threads the workloads run with (online CPUs). */
unsigned workerThreads();

/** Order-statistic summary of a sample set (nearest-rank). */
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/** Cumulative IO accounting of this process (/proc/self/io). */
struct IoCounters
{
    uint64_t rchar = 0; //!< bytes passed to read-like syscalls
    uint64_t wchar = 0; //!< bytes passed to write-like syscalls
    uint64_t syscr = 0; //!< read-like syscalls
    uint64_t syscw = 0; //!< write-like syscalls
};

/**
 * Reads /proc/self/io. Each read itself costs one read syscall and a
 * few hundred bytes of rchar; `delta` subtracts that self-cost (taken
 * once, from two back-to-back reads) so a delta counts only the calls
 * made between its two snapshots.
 */
class IoMeter
{
  public:
    IoMeter();
    IoCounters read() const;
    IoCounters delta(const IoCounters &before,
                     const IoCounters &after) const;

  private:
    IoCounters self_;
};

/** @return peak resident set of this process, MiB (ru_maxrss). */
double peakRssMib();

/**
 * In-memory span recorder. A Span always measures its duration (the
 * untraced counters need it); only while the tracer is enabled does it
 * also record {name, start, end, parent} plus the request ids linked
 * to it. Spans are written out once, at exit, as a Chrome trace-event
 * file (viewable in Perfetto / chrome://tracing).
 */
class Tracer
{
  public:
    struct Record
    {
        const char *name = "";
        double start = 0.0;
        double end = 0.0;
        int64_t parent = -1; //!< index into records(), -1 = root
    };

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Attach request id `rid` to the innermost open span. */
    void link(uint64_t rid);

    /** Attach request id `rid` to span `span` (a Span::index()). */
    void linkTo(int64_t span, uint64_t rid);

    /** Σ self time per span name: a span's duration minus the part
     *  covered by its direct children. */
    std::map<std::string, double> selfSeconds() const;

    std::size_t spanCount() const { return records_.size(); }

    /** Write every span as a Chrome trace-event JSON file. */
    bool write(const std::string &path) const;

  private:
    friend class Span;
    int64_t open(const char *name, double start);
    void close(int64_t index, double end);

    bool enabled_ = false;
    std::vector<Record> records_;
    std::vector<std::pair<int64_t, uint64_t>> links_; //!< span, rid
    std::vector<int64_t> stack_;
};

/** RAII span; close() ends it early and returns its duration. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name);
    ~Span() { close(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span (idempotent). @return its duration, seconds. */
    double close();

    /** @return the recorded span's index, -1 when untraced. */
    int64_t index() const { return index_; }

  private:
    Tracer &tracer_;
    double start_;
    double duration_ = -1.0;
    int64_t index_ = -1;
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Name-ordered metric table a workload fills in. */
using Metrics = std::map<std::string, Metric>;

/** Outcome of one workload run. */
struct Outcome
{
    Metrics metrics;           //!< every metric the workload measured
    uint64_t attempted = 0;    //!< operations offered
    uint64_t failed = 0;       //!< operations that failed / were late
    std::vector<std::string> checkFailures; //!< empty = correct
    std::vector<std::string> notes;         //!< report-only lines
    std::string verdictDigest; //!< fleet prefix digest (hex), compared
                               //!< across workloads by the runner

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
    void check(bool ok, const std::string &what);
};

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 2020;
    double seconds = 10.0;
    bool trace = false;
    std::string dataDir;  //!< working directory for store files
    std::string traceOut; //!< span file path (traced runs)
};

/** The seed the golden digests were recorded at. */
constexpr uint64_t kDefaultSeed = 2020;

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
