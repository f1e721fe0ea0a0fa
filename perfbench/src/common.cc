#include "common.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

unsigned
workerThreads()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1u;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    // Nearest rank: the smallest value with at least p% of the samples
    // at or below it.
    const double rank = std::ceil(p / 100.0 * samples.size());
    const std::size_t idx = rank < 1.0
        ? 0
        : std::min(samples.size() - 1,
                   static_cast<std::size_t>(rank) - 1);
    return samples[idx];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

IoCounters
readProcIo()
{
    IoCounters io;
    std::FILE *f = std::fopen("/proc/self/io", "r");
    if (f == nullptr)
        return io;
    char key[64];
    unsigned long long value = 0;
    while (std::fscanf(f, "%63[^:]: %llu\n", key, &value) == 2) {
        if (std::strcmp(key, "rchar") == 0)
            io.rchar = value;
        else if (std::strcmp(key, "wchar") == 0)
            io.wchar = value;
        else if (std::strcmp(key, "syscr") == 0)
            io.syscr = value;
        else if (std::strcmp(key, "syscw") == 0)
            io.syscw = value;
    }
    std::fclose(f);
    return io;
}

uint64_t
minus(uint64_t a, uint64_t b, uint64_t self)
{
    const uint64_t d = a >= b ? a - b : 0;
    return d >= self ? d - self : 0;
}

} // namespace

IoMeter::IoMeter()
{
    // Two back-to-back reads: their difference is what one read of
    // /proc/self/io adds to the counters by itself.
    const IoCounters a = readProcIo();
    const IoCounters b = readProcIo();
    self_.rchar = b.rchar - a.rchar;
    self_.wchar = b.wchar - a.wchar;
    self_.syscr = b.syscr - a.syscr;
    self_.syscw = b.syscw - a.syscw;
}

IoCounters
IoMeter::read() const
{
    return readProcIo();
}

IoCounters
IoMeter::delta(const IoCounters &before, const IoCounters &after) const
{
    IoCounters d;
    d.rchar = minus(after.rchar, before.rchar, self_.rchar);
    d.wchar = minus(after.wchar, before.wchar, self_.wchar);
    d.syscr = minus(after.syscr, before.syscr, self_.syscr);
    d.syscw = minus(after.syscw, before.syscw, self_.syscw);
    return d;
}

double
peakRssMib()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

int64_t
Tracer::open(const char *name, double start)
{
    Record r;
    r.name = name;
    r.start = start;
    r.parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back(r);
    const int64_t index = static_cast<int64_t>(records_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
Tracer::close(int64_t index, double end)
{
    records_[static_cast<std::size_t>(index)].end = end;
    // Spans are strictly nested (one benchmark thread), so the span
    // being closed is the innermost open one.
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

void
Tracer::link(uint64_t rid)
{
    if (enabled_ && !stack_.empty())
        links_.emplace_back(stack_.back(), rid);
}

void
Tracer::linkTo(int64_t span, uint64_t rid)
{
    if (enabled_ && span >= 0)
        links_.emplace_back(span, rid);
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<double> covered(records_.size(), 0.0);
    for (const Record &r : records_) {
        if (r.parent >= 0)
            covered[static_cast<std::size_t>(r.parent)] +=
                r.end - r.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        out[r.name] += (r.end - r.start) - covered[i];
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::vector<std::vector<uint64_t>> rids(records_.size());
    for (const auto &[span, rid] : links_)
        rids[static_cast<std::size_t>(span)].push_back(rid);
    const double origin = records_.empty() ? 0.0 : records_[0].start;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %lld",
                     i == 0 ? "" : ",\n", r.name,
                     (r.start - origin) * 1e6, (r.end - r.start) * 1e6,
                     i, static_cast<long long>(r.parent));
        if (!rids[i].empty()) {
            std::fprintf(f, ", \"request_ids\": [");
            for (std::size_t k = 0; k < rids[i].size(); ++k)
                std::fprintf(f, "%s%llu", k == 0 ? "" : ",",
                             static_cast<unsigned long long>(
                                 rids[i][k]));
            std::fprintf(f, "]");
        }
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

Span::Span(Tracer &tracer, const char *name)
    : tracer_(tracer), start_(now())
{
    if (tracer_.enabled())
        index_ = tracer_.open(name, start_);
}

double
Span::close()
{
    if (duration_ < 0.0) {
        const double end = now();
        duration_ = end - start_;
        if (index_ >= 0)
            tracer_.close(index_, end);
    }
    return duration_;
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (!ok)
        checkFailures.push_back(what);
}

} // namespace perfbench
