#include "itdr/itdr.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "itdr/apc.hh"
#include "itdr/calibrate.hh"
#include "itdr/counter.hh"
#include "txline/born.hh"
#include "txline/lattice.hh"
#include "util/logging.hh"

namespace divot {

namespace {

/** Max fraction of bins at probability exactly 0 or 1 before a
 *  measurement is declared unhealthy. */
constexpr double kHealthSaturationLimit = 0.5;

/** Bus-cycle overrun factor vs the predicted budget before the 50 us
 *  envelope is declared blown. */
constexpr double kHealthBudgetTolerance = 1.5;

unsigned
roundUpToMultiple(unsigned value, unsigned base)
{
    if (base == 0)
        return value;
    const unsigned rem = value % base;
    return rem == 0 ? value : value + (base - rem);
}

/**
 * The first condition that keeps a measurement off both fast paths
 * (the Sampled block loop and the analytic sweep), or nullptr when
 * they can serve it. Both need a loop-invariant signal (no jitter, no
 * per-trigger interference), arithmetic trigger cycles (clock lane),
 * statistically independent strobes (no metastable band), and a
 * counter that cannot saturate mid-batch.
 */
const char *
fastPathBlocker(const ItdrConfig &config, unsigned trials,
                const NoiseSource *extra_noise)
{
    if (config.pll.jitterRms > 0.0)
        return "jitter";
    if (extra_noise != nullptr)
        return "extra-noise";
    if (config.triggerMode != TriggerMode::ClockLane)
        return "data-triggers";
    if (config.comparator.metastableBand != 0.0)
        return "metastable-band";
    if (trials >= (1ull << config.counterWidthBits))
        return "counter-saturation";
    return nullptr;
}

} // namespace

ITdr::ITdr(ItdrConfig config, Rng rng)
    : config_(config), rng_(rng),
      comparator_(config.comparator, rng_.fork(0x1001)),
      pll_(config.pll, rng_.fork(0x1002)),
      pdm_(config.pdm, config.pll.clockFrequency),
      coupler_(config.coupler),
      triggerGen_(config.triggerMode, rng_.fork(0x1003)),
      edge_(config.edgeAmplitude, config.edgeRiseTime, EdgeKind::Rising),
      trials_(roundUpToMultiple(std::max(config.trialsPerPhase, 1u),
                                pdm_.levelCount())),
      traceCache_(config.traceCacheCapacity),
      kernels_(&strobeKernels(config.simd))
{
    if (config.trialsPerPhase == 0)
        divot_fatal("iTDR trialsPerPhase must be >= 1");
    if (trials_ != config.trialsPerPhase) {
        // Warn once per instrument (not per process: a second iTDR
        // with a different rounding would otherwise be silently
        // inflated). Silent inflation made predictBudget and the
        // measured cost disagree until IipMeasurement started
        // carrying the effective count.
        divot_warn("iTDR trialsPerPhase %u rounded up to %u (a "
                   "multiple of the %u PDM reference levels); "
                   "IipMeasurement::trialsPerBin carries the "
                   "effective count",
                   config.trialsPerPhase, trials_, pdm_.levelCount());
    }
    if (config.selfCalibrate) {
        // Power-up self-calibration: estimate sigma and offset from
        // the real (noisy) comparator instead of trusting oracle
        // parameters.
        const double guess = config.comparator.noiseSigma > 0.0
            ? config.comparator.noiseSigma
            : 0.5e-3;
        NoiseCalibrator calibrator(guess, 50000);
        const NoiseCalibration result = calibrator.run(comparator_);
        if (result.valid) {
            calibratedSigma_ = result.sigma;
            offsetCorrection_ = result.offset;
        } else {
            divot_warn("iTDR self-calibration failed; falling back to "
                       "configured sigma");
        }
    }
}

double
ITdr::effectiveSigma() const
{
    return reconstructionSigma();
}

void
ITdr::attachTelemetry(Telemetry *telemetry, const std::string &prefix)
{
    if (telemetry == nullptr || !telemetry->enabled()) {
        telemetry_ = nullptr;
        return;
    }
    telemetry_ = telemetry;
    tmPrefix_ = prefix;
    Registry &reg = telemetry->registry();
    tmMeasurements_ = reg.counter(prefix + ".measurements");
    tmBins_ = reg.counter(prefix + ".bins");
    tmTriggers_ = reg.counter(prefix + ".triggers");
    tmEngineAnalytic_ = reg.counter(prefix + ".engine.analytic");
    tmEngineBatch_ = reg.counter(prefix + ".engine.batch");
    tmEngineScalar_ = reg.counter(prefix + ".engine.scalar");
    tmFallbacks_ = reg.counter(prefix + ".engine.fallbacks");
    tmKernelScalar_ = reg.counter(prefix + ".kernel.scalar");
    tmKernelAvx2_ = reg.counter(prefix + ".kernel.avx2");
    tmKernelNeon_ = reg.counter(prefix + ".kernel.neon");
    tmCacheHits_ = reg.counter(prefix + ".cache.hits");
    tmCacheMisses_ = reg.counter(prefix + ".cache.misses");
    tmCacheEvictions_ = reg.counter(prefix + ".cache.evictions");
    tmCacheLookups_ = reg.counter(prefix + ".cache.lookups");
    tmHealthFail_ = reg.counter(prefix + ".health.failed");
    tmSaturatedBins_ = reg.counter(prefix + ".health.saturated_bins");
    tmNonFiniteBins_ = reg.counter(prefix + ".health.nonfinite_bins");
    tmBudgetOverruns_ = reg.counter(prefix + ".health.budget_overruns");
    tmFaultsFired_ = reg.counter(prefix + ".faults.fired");
    tmCycles_ = reg.histogram(
        prefix + ".cycles",
        {8192, 16384, 32768, 65536, 131072, 262144});
    // Cache counters export deltas from this point on, so attaching
    // mid-life never double-counts history.
    tmCacheHitsSeen_ = traceCache_.hits();
    tmCacheMissesSeen_ = traceCache_.misses();
    tmCacheEvictionsSeen_ = traceCache_.evictions();
}

double
ITdr::reconstructionSigma() const
{
    return calibratedSigma_ > 0.0 ? calibratedSigma_
                                  : comparator_.noiseSigma();
}

void
ITdr::prepareBins(const TransmissionLine &line)
{
    if (bins_ != 0)
        return;  // bins are frozen after the first measurement so
                 // successive IIPs stay index-aligned
    window_ = config_.captureWindow > 0.0
        ? config_.captureWindow
        : 1.1 * line.roundTripDelay() + 3.0 * edge_.duration();
    bins_ = static_cast<unsigned>(
        std::ceil(window_ / pll_.phaseStep()));
    if (bins_ == 0)
        divot_fatal("iTDR capture window too short (%g s)", window_);

    rebuildIipLut();

    if (config_.strobeModel == StrobeModel::Binomial) {
        // The analytic engine's per-bin reference levels. Trigger
        // cycles only ever advance in whole measurements of
        // bins_ * trials_ clock-lane triggers, and trials_ is a
        // multiple of the Vernier period, so every bin always starts
        // at modulation phase 0: the level sequence seen at bin m is
        // measurement-invariant and can be frozen here with the bin
        // grid.
        const unsigned levels = pdm_.levelCount();
        const double t_clk = pll_.clockPeriod();
        analyticLevels_.resize(static_cast<std::size_t>(bins_) * levels);
        for (unsigned m = 0; m < bins_; ++m) {
            const double t0 = static_cast<double>(m) * pll_.phaseStep();
            for (unsigned j = 0; j < levels; ++j) {
                analyticLevels_[static_cast<std::size_t>(m) * levels +
                                j] =
                    pdm_.referenceAt(static_cast<double>(j) * t_clk +
                                     t0);
            }
        }
    }

    // Budget baseline for the health screen: expected cycles follow
    // from the trigger rate exactly as in predictBudget().
    const double trigger_rate =
        config_.triggerMode == TriggerMode::ClockLane ? 1.0 : 0.25;
    expectedCycles_ = static_cast<uint64_t>(std::ceil(
        static_cast<double>(bins_) * static_cast<double>(trials_) /
        trigger_rate));
}

bool
ITdr::recalibrate()
{
    const double guess = reconstructionSigma() > 0.0
        ? reconstructionSigma() : 0.5e-3;
    NoiseCalibrator calibrator(guess, 50000);
    const NoiseCalibration result = calibrator.run(comparator_);
    if (!result.valid) {
        divot_warn("iTDR recalibration failed to converge; keeping the "
                   "previous sigma/offset");
        return false;
    }
    calibratedSigma_ = result.sigma;
    offsetCorrection_ = result.offset;
    // The table bakes in sigma: rebuild it on the frozen bin grid so
    // reconstructions use the fresh estimate.
    if (bins_ != 0)
        rebuildIipLut();
    return true;
}

void
ITdr::rebuildIipLut()
{
    // One row per bin, one entry per possible hit count: the bin's
    // inverse mixture CDF at the probability the hit counter reports
    // for that count (including any width clamping). Each bin's
    // ApcInverseTable lives only while its row is filled.
    const std::size_t stride = static_cast<std::size_t>(trials_) + 1;
    iipLut_.resize(static_cast<std::size_t>(bins_) * stride);
    const double sigma = reconstructionSigma();
    HitCounter counter(config_.counterWidthBits);
    for (unsigned m = 0; m < bins_; ++m) {
        const double t0 = static_cast<double>(m) * pll_.phaseStep();
        const ApcInverseTable inverse(pdm_.levelsAt(t0), sigma);
        for (unsigned h = 0; h <= trials_; ++h) {
            counter.reset();
            counter.recordBatch(h, trials_);
            iipLut_[static_cast<std::size_t>(m) * stride + h] =
                inverse.reconstruct(counter.probability());
        }
    }
}

double
ITdr::captureSpanFor(const TransmissionLine &line) const
{
    return window_ > 0.0
        ? window_
        : 1.1 * line.roundTripDelay() + 3.0 * edge_.duration();
}

Waveform
ITdr::cleanDetectorTrace(const TransmissionLine &line) const
{
    return detectorTraceFor(line);
}

const Waveform &
ITdr::detectorTraceFor(const TransmissionLine &line) const
{
    const double span = captureSpanFor(line);
    if (config_.traceCacheCapacity == 0) {
        traceScratch_ = renderDetectorTrace(line, span);
        return traceScratch_;
    }
    // The key covers everything the render depends on that can change
    // between measurements: the line's electrical content (impedance
    // profile, terminations, velocity, loss — all rewritten by tamper
    // transforms and environment snapshots) plus the capture span.
    // Instrument-fixed parameters (edge, coupler, model) need no
    // keying because the cache lives inside this instrument.
    const TraceKey key = TraceKeyBuilder().add(line).add(span).key();
    if (const Waveform *hit = traceCache_.find(key))
        return *hit;
    return *traceCache_.insert(key, renderDetectorTrace(line, span));
}

Waveform
ITdr::renderDetectorTrace(const TransmissionLine &line, double span) const
{
    if (config_.model == ReflectionModel::Lattice) {
        LatticeSimulator sim(line);
        TdrTrace trace = sim.probe(edge_, span);
        return coupler_.detectorOutput(trace.reflection, trace.incident);
    }
    BornTdrModel born(line);
    Waveform refl = born.probe(edge_, 0.0, span);
    // Synthesize the incident wave the coupler leaks.
    const double launch_gain = line.impedanceAt(0) /
        (line.sourceImpedance() + line.impedanceAt(0));
    const double edge_center = 1.5 * edge_.duration();
    Waveform inc = Waveform::zeros(refl.dt(), refl.size());
    for (std::size_t i = 0; i < inc.size(); ++i) {
        inc[i] = launch_gain *
            edge_.deviationAt(inc.timeAt(i) - edge_center);
    }
    return coupler_.detectorOutput(refl, inc);
}

Waveform
ITdr::idealIip(const TransmissionLine &line)
{
    prepareBins(line);
    const Waveform &trace = detectorTraceFor(line);
    const double tau = pll_.phaseStep();
    Waveform out = Waveform::zeros(tau, bins_);
    for (unsigned m = 0; m < bins_; ++m)
        out[m] = trace.valueAt(static_cast<double>(m) * tau);
    return out;
}

IipMeasurement
ITdr::measure(const TransmissionLine &line, NoiseSource *extra_noise)
{
    prepareBins(line);
    const Waveform &trace = detectorTraceFor(line);

    const double tau = pll_.phaseStep();
    const double t_clk = pll_.clockPeriod();
    const uint64_t cycles_before = triggerGen_.cyclesElapsed();
    const uint64_t triggers_before = triggerGen_.triggersProduced();

    // One span per measurement, clocked by the instrument's own
    // trigger-cycle schedule (deterministic at any thread count).
    SpanScope span;
    uint64_t span_ordinal = 0;
    if (telemetry_ != nullptr) {
        span_ordinal = tmOrdinal_++;
        span = telemetry_->tracer().open(
            tmPrefix_ + ".measure", tmPrefix_,
            static_cast<double>(cycles_before) * t_clk, span_ordinal);
    }

    Waveform iip = Waveform::zeros(tau, bins_);

    // Resolve this measurement's fault frame (a pure function of the
    // injector's measurement index, so campaigns stay deterministic at
    // any thread count).
    FaultFrame fault;
    if (faultInjector_ != nullptr)
        fault = faultInjector_->nextFrame();

    // Decide every bin's instrument faults in one step, before any
    // strobe: a failed ETS phase step leaves the sampling instant
    // lagging the nominal grid (lags accumulate over the sweep), the
    // signal input carries the offset drift plus the EMI burst at the
    // bin's nominal time, and a register flip is chosen. The dropout
    // and then the flip draw per bin from the frame's dedicated
    // stream, which no strobe touches, so every engine sees the same
    // decisions.
    const double two_pi = 6.283185307179586;
    double phase_lag = 0.0;
    binFaults_.resize(bins_);
    for (unsigned m = 0; m < bins_; ++m) {
        const double t0 = static_cast<double>(m) * tau;
        BinFault &f = binFaults_[m];
        if (fault.pllDropoutRate > 0.0 &&
            fault.binRng.bernoulli(fault.pllDropoutRate)) {
            phase_lag += tau;
        }
        f.sampleTime = std::max(0.0, t0 - phase_lag);
        f.bias = fault.comparatorOffset;
        if (fault.emiAmplitude > 0.0) {
            f.bias += fault.emiAmplitude *
                std::sin(two_pi * fault.emiFrequency * t0 +
                         fault.emiPhase);
        }
        f.flipMask = 0;
        if (fault.counterFlipRate > 0.0 &&
            fault.binRng.bernoulli(fault.counterFlipRate)) {
            f.flipMask = 1u << static_cast<unsigned>(
                fault.binRng.uniformInt(config_.counterWidthBits));
        }
    }

    // Every engine finishes a bin the same way: the stuck comparator
    // output and the register flip corrupt the strobed count, then one
    // reconstruction-table load (hits never exceeds trials_).
    unsigned saturated_bins = 0;
    unsigned non_finite_bins = 0;
    auto finishBin = [&](unsigned m, unsigned hits) {
        if (fault.comparatorStuck >= 0)
            hits = fault.comparatorStuck == 1 ? trials_ : 0;
        hits = std::min(hits ^ binFaults_[m].flipMask, trials_);
        if (hits == 0 || hits >= trials_)
            ++saturated_bins;
        double v = binVoltage(m, hits);
        if (!std::isfinite(v)) {
            ++non_finite_bins;
            v = 0.0;
        }
        iip[m] = v;
    };

    const char *const blocker =
        fastPathBlocker(config_, trials_, extra_noise);
    const bool want_analytic =
        config_.strobeModel == StrobeModel::Binomial;
    if (want_analytic && blocker != nullptr) {
        if (telemetry_ != nullptr)
            tmFallbacks_.add();
        if (!analyticFallbackWarned_) {
            analyticFallbackWarned_ = true;
            divot_warn("iTDR analytic strobe engine unavailable for "
                       "this configuration (jitter, extra noise, "
                       "non-clock triggers, metastable band, or "
                       "counter saturation); falling back to sampled "
                       "strobes");
            if (telemetry_ != nullptr) {
                // One event per instrument naming the blocking
                // condition; the counter above tallies every
                // fallen-back measurement.
                TelemetryEvent event;
                event.time = static_cast<double>(cycles_before) * t_clk;
                event.ordinal = span_ordinal;
                event.kind = "itdr.fallback";
                event.tag = tmPrefix_;
                event.detail = blocker;
                telemetry_->events().record(std::move(event));
            }
        }
    }
    const bool analytic = want_analytic && blocker == nullptr;
    const bool batch = !want_analytic && blocker == nullptr;
    if (telemetry_ != nullptr) {
        (analytic ? tmEngineAnalytic_
                  : batch ? tmEngineBatch_ : tmEngineScalar_).add();
    }

    pll_.resetPhase();
    if (analytic) {
        // O(levels) analytic path: each bin's hit count is drawn as
        // sum_j Binomial(trials/levels, p_j) over the bin's frozen
        // Vernier levels — no per-trial work at all — in
        // whole-measurement stages (gather signal levels, one
        // probability-grid kernel, one binomial-lane kernel, reduce).
        // The trigger generator still advances arithmetically so
        // cycle accounting is identical to the sampled engine.
        const unsigned levels = pdm_.levelCount();
        soa_.resize(bins_, levels);
        for (unsigned m = 0; m < bins_; ++m) {
            triggerGen_.advanceClockTriggers(trials_);
            soa_.vSig[m] = trace.valueAt(binFaults_[m].sampleTime) +
                binFaults_[m].bias;
            pll_.stepPhase();
        }
        comparator_.strobeAnalyticSoA(*kernels_, analyticLevels_.data(),
                                      bins_, levels, trials_ / levels,
                                      soa_);
        // Every hit count is known up front, so the table loads are
        // independent: the prefetch keeps the sweep from serializing
        // on the 0.5 MB table's cache misses.
        const std::size_t stride = static_cast<std::size_t>(trials_) + 1;
        for (unsigned m = 0; m < bins_; ++m) {
            if (m + 8 < bins_) {
                __builtin_prefetch(
                    &iipLut_[static_cast<std::size_t>(m + 8) * stride +
                             soa_.hits[m + 8]]);
            }
            finishBin(m, soa_.hits[m]);
        }
        if (telemetry_ != nullptr) {
            (kernels_->target == SimdTarget::Avx2 ? tmKernelAvx2_
             : kernels_->target == SimdTarget::Neon ? tmKernelNeon_
                                                    : tmKernelScalar_)
                .add();
        }
    } else if (batch) {
        const unsigned levels = pdm_.levelCount();
        refScratch_.resize(trials_);
        periodScratch_.resize(levels);
        for (unsigned m = 0; m < bins_; ++m) {
            const double t0 = static_cast<double>(m) * tau;
            const uint64_t cycle0 =
                triggerGen_.advanceClockTriggers(trials_);
            // The Vernier reference sequence is periodic in the trial
            // index with period `levels` (trials_ is a multiple, so
            // every level weighs equally): evaluate the triangle wave
            // `levels` times instead of trials_ times.
            for (unsigned j = 0; j < levels; ++j) {
                periodScratch_[j] = pdm_.referenceAt(
                    static_cast<double>(cycle0 + j) * t_clk + t0);
            }
            // Bit-exact copies, so the sampled engine's byte-identity
            // contract survives any dispatch target.
            kernels_->tilePeriodic(periodScratch_.data(), levels,
                                   refScratch_.data(), trials_);
            const double v_sig = trace.valueAt(binFaults_[m].sampleTime) +
                binFaults_[m].bias;
            finishBin(m, comparator_.strobeBatch(
                             v_sig, refScratch_.data(), trials_));
            pll_.stepPhase();
        }
    } else {
        const bool no_jitter = config_.pll.jitterRms <= 0.0;
        for (unsigned m = 0; m < bins_; ++m) {
            const double t0 = static_cast<double>(m) * tau;
            const double t_sig0 = binFaults_[m].sampleTime;
            const double bias = binFaults_[m].bias;
            // Without jitter the signal lookup is loop-invariant
            // (the PDM reference still varies per trigger through
            // t_abs): hoist it out of the trial loop.
            const double v_fixed =
                no_jitter ? trace.valueAt(t_sig0) + bias : 0.0;
            HitCounter counter(config_.counterWidthBits);
            for (unsigned k = 0; k < trials_; ++k) {
                const uint64_t cycle = triggerGen_.nextTriggerCycle();
                // Strobe jitter shifts the sampling instant relative
                // to the probe edge.
                double jitter = 0.0;
                if (!no_jitter)
                    jitter = rng_.gaussian(0.0, config_.pll.jitterRms);
                const double t_abs =
                    static_cast<double>(cycle) * t_clk + t0 + jitter;
                double v_sig = no_jitter
                    ? v_fixed : trace.valueAt(t_sig0 + jitter) + bias;
                if (extra_noise != nullptr)
                    v_sig += extra_noise->sampleAt(t_abs);
                const double v_ref = pdm_.referenceAt(t_abs);
                counter.record(comparator_.strobe(v_sig, v_ref));
            }
            finishBin(m, static_cast<unsigned>(counter.hits()));
            pll_.stepPhase();
        }
    }

    IipMeasurement out;
    out.iip = std::move(iip);
    uint64_t cycles = triggerGen_.cyclesElapsed() - cycles_before;
    if (fault.cycleOverrunFactor != 1.0) {
        // The fault consumes real bus time (arbitration storms, retry
        // loops) without producing extra samples.
        cycles = static_cast<uint64_t>(std::llround(
            static_cast<double>(cycles) * fault.cycleOverrunFactor));
    }
    out.busCycles = cycles;
    out.triggers = triggerGen_.triggersProduced() - triggers_before;
    out.duration = static_cast<double>(out.busCycles) * t_clk;
    out.trialsPerBin = trials_;

    out.health.saturatedBinFraction =
        static_cast<double>(saturated_bins) /
        static_cast<double>(bins_);
    out.health.nonFiniteBins = non_finite_bins;
    out.health.budgetOverrun = expectedCycles_ > 0 &&
        static_cast<double>(out.busCycles) >
            kHealthBudgetTolerance *
            static_cast<double>(expectedCycles_);
    out.health.ok =
        out.health.saturatedBinFraction <= kHealthSaturationLimit &&
        out.health.nonFiniteBins == 0 && !out.health.budgetOverrun;

    if (telemetry_ != nullptr) {
        tmMeasurements_.add();
        tmBins_.add(bins_);
        tmTriggers_.add(out.triggers);
        tmCycles_.record(out.busCycles);
        // Cache stats arrive as deltas so several instruments sharing
        // one prefix still sum commutatively (hits + misses ==
        // lookups by construction, an invariant the property harness
        // checks).
        const uint64_t cache_hits = traceCache_.hits();
        const uint64_t cache_misses = traceCache_.misses();
        const uint64_t cache_evictions = traceCache_.evictions();
        tmCacheHits_.add(cache_hits - tmCacheHitsSeen_);
        tmCacheMisses_.add(cache_misses - tmCacheMissesSeen_);
        tmCacheEvictions_.add(cache_evictions - tmCacheEvictionsSeen_);
        tmCacheLookups_.add((cache_hits - tmCacheHitsSeen_) +
                            (cache_misses - tmCacheMissesSeen_));
        tmCacheHitsSeen_ = cache_hits;
        tmCacheMissesSeen_ = cache_misses;
        tmCacheEvictionsSeen_ = cache_evictions;
        if (fault.any())
            tmFaultsFired_.add();
        tmSaturatedBins_.add(saturated_bins);
        tmNonFiniteBins_.add(non_finite_bins);
        if (out.health.budgetOverrun)
            tmBudgetOverruns_.add();
        const double t_end =
            static_cast<double>(cycles_before) * t_clk + out.duration;
        if (!out.health.ok) {
            tmHealthFail_.add();
            char detail[96];
            std::snprintf(detail, sizeof(detail),
                          "saturatedBins=%u nonFiniteBins=%u "
                          "budgetOverrun=%d",
                          saturated_bins, non_finite_bins,
                          out.health.budgetOverrun ? 1 : 0);
            TelemetryEvent event;
            event.time = t_end;
            event.ordinal = span_ordinal;
            event.kind = "health";
            event.tag = tmPrefix_;
            event.detail = detail;
            telemetry_->events().record(std::move(event));
        }
        span.close(t_end, out.busCycles);
    }
    return out;
}

} // namespace divot
