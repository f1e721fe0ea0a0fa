/**
 * @file
 * Integration tests for the full iTDR: reconstruction convergence to
 * the physics ground truth, the (bin, hit count) reconstruction table
 * every strobe engine reads, bin-grid stability, cost accounting, and
 * the load-echo timing the memory-bus design depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "itdr/apc.hh"
#include "itdr/budget.hh"
#include "itdr/counter.hh"
#include "itdr/itdr.hh"
#include "itdr/pdm.hh"
#include "signal/noise.hh"
#include "txline/manufacturing.hh"

namespace divot {
namespace {

TransmissionLine
testLine(uint64_t seed = 1, double length = 0.1)
{
    ProcessParams params;
    ManufacturingProcess fab(params, Rng(seed));
    auto z = fab.drawImpedanceProfile(length, 0.5e-3);
    return TransmissionLine(std::move(z), 0.5e-3, params.velocity,
                            50.0, 50.4, params.lossNeperPerMeter, "t");
}

/** FNV-1a over the IEEE-754 bits of every IIP sample. */
uint64_t
iipDigest(const Waveform &iip, uint64_t h = 0xcbf29ce484222325ull)
{
    for (std::size_t i = 0; i < iip.size(); ++i) {
        const double v = iip[i];
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(ITdr, MeasurementConvergesToIdealIip)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 440;  // heavy averaging for convergence
    ITdr itdr(cfg, Rng(3));
    const auto line = testLine();
    const Waveform ideal = itdr.idealIip(line);
    const IipMeasurement m = itdr.measure(line);
    ASSERT_EQ(m.iip.size(), ideal.size());

    // RMS reconstruction error well below the per-trial noise sigma.
    double err = 0.0;
    for (std::size_t i = 0; i < ideal.size(); ++i)
        err += (m.iip[i] - ideal[i]) * (m.iip[i] - ideal[i]);
    err = std::sqrt(err / static_cast<double>(ideal.size()));
    EXPECT_LT(err, cfg.comparator.noiseSigma);

    // And the shape correlates strongly with the truth.
    EXPECT_GT(normalizedInnerProduct(m.iip, ideal), 0.97);
}

TEST(ITdr, MoreTrialsLessNoise)
{
    const auto line = testLine();
    auto rms_err = [&](unsigned trials, uint64_t seed) {
        ItdrConfig cfg;
        cfg.trialsPerPhase = trials;
        ITdr itdr(cfg, Rng(seed));
        const Waveform ideal = itdr.idealIip(line);
        const IipMeasurement m = itdr.measure(line);
        double err = 0.0;
        for (std::size_t i = 0; i < ideal.size(); ++i)
            err += (m.iip[i] - ideal[i]) * (m.iip[i] - ideal[i]);
        return std::sqrt(err / static_cast<double>(ideal.size()));
    };
    EXPECT_GT(rms_err(22, 5), rms_err(352, 6));
}

TEST(ITdr, BinsFrozenAcrossMeasurements)
{
    ItdrConfig cfg;
    ITdr itdr(cfg, Rng(7));
    const auto a = itdr.measure(testLine(1));
    const auto b = itdr.measure(testLine(2));
    EXPECT_EQ(a.iip.size(), b.iip.size());
    EXPECT_DOUBLE_EQ(a.iip.dt(), b.iip.dt());
}

TEST(ITdr, ClockLaneCycleAccounting)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 22;
    ITdr itdr(cfg, Rng(9));
    const auto line = testLine();
    const IipMeasurement m = itdr.measure(line);
    // Clock lane: one trigger per cycle.
    EXPECT_EQ(m.busCycles, m.triggers);
    EXPECT_EQ(m.triggers,
              static_cast<uint64_t>(itdr.phaseBins()) *
                  itdr.trialsPerPhase());
    EXPECT_NEAR(m.duration,
                static_cast<double>(m.busCycles) / 156.25e6, 1e-12);
}

TEST(ITdr, DataLaneCostsMoreCycles)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 22;
    cfg.triggerMode = TriggerMode::DataLane;
    ITdr itdr(cfg, Rng(11));
    const IipMeasurement m = itdr.measure(testLine());
    // Triggers arrive on ~1/4 of the cycles.
    EXPECT_GT(m.busCycles, 3 * m.triggers);
    EXPECT_LT(m.busCycles, 6 * m.triggers);
}

TEST(ITdr, TrialsRoundedUpToLevelMultiple)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 100;  // p = 11 => round to 110
    ITdr itdr(cfg, Rng(13));
    EXPECT_EQ(itdr.trialsPerPhase() % cfg.pdm.p, 0u);
    EXPECT_GE(itdr.trialsPerPhase(), 100u);
}

TEST(ITdr, BatchGateFallsBackForDataLaneAndJitter)
{
    // Configurations the batch path cannot serve must still measure
    // correctly through the scalar loop.
    const auto line = testLine();
    ItdrConfig jitter_cfg;
    jitter_cfg.trialsPerPhase = 44;
    jitter_cfg.pll.jitterRms = 2e-12;
    ITdr jitter(jitter_cfg, Rng(27));
    const IipMeasurement mj = jitter.measure(line);
    EXPECT_EQ(mj.iip.size(), jitter.phaseBins());

    ItdrConfig data_cfg;
    data_cfg.trialsPerPhase = 44;
    data_cfg.triggerMode = TriggerMode::DataLane;
    ITdr data(data_cfg, Rng(29));
    const IipMeasurement md = data.measure(line);
    EXPECT_GT(md.busCycles, md.triggers);
}

TEST(ITdr, EffectiveTrialsSurfacedAndMatchBudget)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 100;  // p = 17 => rounds to 102
    ITdr itdr(cfg, Rng(31));
    const auto line = testLine();
    const IipMeasurement m = itdr.measure(line);
    EXPECT_EQ(m.trialsPerBin, itdr.trialsPerPhase());
    EXPECT_EQ(m.trialsPerBin % cfg.pdm.p, 0u);
    const MeasurementBudget budget =
        predictBudget(cfg, line.roundTripDelay());
    EXPECT_EQ(m.trialsPerBin, budget.trialsPerBin);
    EXPECT_EQ(m.triggers,
              static_cast<uint64_t>(itdr.phaseBins()) * m.trialsPerBin);
}

TEST(ITdr, BinomialStrobeModelMatchesSampledStatistics)
{
    // The analytic engine samples the sufficient statistic instead of
    // the waveform; per-bin reconstruction means over repeated
    // measurements must agree with the sampled engine within
    // two-sample CI bounds on a known line, and the deterministic
    // accounting must be identical.
    const auto line = testLine(41);
    ItdrConfig sampled_cfg;
    sampled_cfg.trialsPerPhase = 170;
    ItdrConfig binomial_cfg = sampled_cfg;
    binomial_cfg.strobeModel = StrobeModel::Binomial;
    ITdr sampled(sampled_cfg, Rng(51));
    ITdr binomial(binomial_cfg, Rng(52));

    const int reps = 48;
    std::vector<double> mean_s, mean_b, m2_s, m2_b;
    for (int r = 0; r < reps; ++r) {
        const IipMeasurement ms = sampled.measure(line);
        const IipMeasurement mb = binomial.measure(line);
        ASSERT_EQ(ms.iip.size(), mb.iip.size());
        // Cost accounting and health screens are model-independent.
        ASSERT_EQ(ms.busCycles, mb.busCycles);
        ASSERT_EQ(ms.triggers, mb.triggers);
        ASSERT_EQ(ms.trialsPerBin, mb.trialsPerBin);
        ASSERT_EQ(ms.health.ok, mb.health.ok);
        ASSERT_EQ(ms.health.budgetOverrun, mb.health.budgetOverrun);
        ASSERT_EQ(ms.health.nonFiniteBins, mb.health.nonFiniteBins);
        ASSERT_NEAR(ms.health.saturatedBinFraction,
                    mb.health.saturatedBinFraction, 0.05);
        if (mean_s.empty()) {
            mean_s.assign(ms.iip.size(), 0.0);
            mean_b.assign(ms.iip.size(), 0.0);
            m2_s.assign(ms.iip.size(), 0.0);
            m2_b.assign(ms.iip.size(), 0.0);
        }
        for (std::size_t i = 0; i < ms.iip.size(); ++i) {
            mean_s[i] += ms.iip[i];
            mean_b[i] += mb.iip[i];
            m2_s[i] += ms.iip[i] * ms.iip[i];
            m2_b[i] += mb.iip[i] * mb.iip[i];
        }
    }
    const double n = static_cast<double>(reps);
    const double sigma = sampled_cfg.comparator.noiseSigma;
    const double trials =
        static_cast<double>(sampled.trialsPerPhase());
    for (std::size_t i = 0; i < mean_s.size(); ++i) {
        const double mu_s = mean_s[i] / n;
        const double mu_b = mean_b[i] / n;
        const double var_s = std::max(m2_s[i] / n - mu_s * mu_s, 0.0);
        const double var_b = std::max(m2_b[i] / n - mu_b * mu_b, 0.0);
        // 5-sigma two-sample bound on the difference of means, with a
        // 3*sigma/sqrt(trials) floor (one trial's worth of APC
        // resolution) so zero-variance saturated bins don't demand
        // exact equality.
        const double tol = 5.0 * std::sqrt((var_s + var_b) / n) +
            3.0 * sigma / std::sqrt(trials * n);
        EXPECT_NEAR(mu_s, mu_b, tol) << "bin " << i;
    }
}

TEST(ITdr, BinomialModelFallsBackWhenIneligible)
{
    // Jitter breaks the loop-invariant-signal premise: the analytic
    // request must degrade to the sampled scalar path, not crash or
    // mis-measure.
    const auto line = testLine();
    ItdrConfig cfg;
    cfg.trialsPerPhase = 44;
    cfg.strobeModel = StrobeModel::Binomial;
    cfg.pll.jitterRms = 2e-12;
    ITdr itdr(cfg, Rng(53));
    const IipMeasurement m = itdr.measure(line);
    EXPECT_EQ(m.iip.size(), itdr.phaseBins());
    EXPECT_EQ(m.triggers,
              static_cast<uint64_t>(itdr.phaseBins()) *
                  itdr.trialsPerPhase());

    // Same for an attached extra noise source at measure() time.
    ItdrConfig cfg2;
    cfg2.trialsPerPhase = 44;
    cfg2.strobeModel = StrobeModel::Binomial;
    ITdr itdr2(cfg2, Rng(54));
    GaussianNoise extra(0.2e-3, Rng(55));
    const IipMeasurement m2 = itdr2.measure(line, &extra);
    EXPECT_EQ(m2.iip.size(), itdr2.phaseBins());
}

TEST(ITdr, BinomialModelConvergesToIdealIip)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 440;
    cfg.strobeModel = StrobeModel::Binomial;
    ITdr itdr(cfg, Rng(57));
    const auto line = testLine();
    const Waveform ideal = itdr.idealIip(line);
    const IipMeasurement m = itdr.measure(line);
    ASSERT_EQ(m.iip.size(), ideal.size());
    double err = 0.0;
    for (std::size_t i = 0; i < ideal.size(); ++i)
        err += (m.iip[i] - ideal[i]) * (m.iip[i] - ideal[i]);
    err = std::sqrt(err / static_cast<double>(ideal.size()));
    EXPECT_LT(err, cfg.comparator.noiseSigma);
    EXPECT_GT(normalizedInnerProduct(m.iip, ideal), 0.97);
}

TEST(ITdr, LoadEchoVisibleAtRoundTripTime)
{
    // A strongly mismatched load must show up at the round-trip time
    // in the reconstruction — the feature Fig. 9(b) rides on.
    ItdrConfig cfg;
    cfg.trialsPerPhase = 220;
    ITdr itdr(cfg, Rng(15));
    auto line = testLine(21, 0.1);
    line.setLoadImpedance(70.0);
    const IipMeasurement m = itdr.measure(line);
    const std::size_t peak = m.iip.peakIndex();
    const double t_peak = m.iip.timeAt(peak);
    const double rt = line.roundTripDelay();
    EXPECT_NEAR(t_peak, rt + 1.5 * itdr.edge().duration(), 0.15 * rt);
}

TEST(ITdr, IdealIipMatchesCleanTraceSamples)
{
    ItdrConfig cfg;
    ITdr itdr(cfg, Rng(17));
    const auto line = testLine();
    const Waveform ideal = itdr.idealIip(line);
    const Waveform trace = itdr.cleanDetectorTrace(line);
    for (std::size_t i = 0; i < ideal.size(); i += 37)
        EXPECT_NEAR(ideal[i], trace.valueAt(ideal.timeAt(i)), 1e-12);
}

TEST(ITdr, LatticeBackendAgreesWithBorn)
{
    ItdrConfig born_cfg;
    ItdrConfig lat_cfg;
    lat_cfg.model = ReflectionModel::Lattice;
    ITdr born(born_cfg, Rng(19)), lattice(lat_cfg, Rng(19));
    const auto line = testLine(5);
    const Waveform a = born.idealIip(line);
    const Waveform b = lattice.idealIip(line);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(normalizedInnerProduct(a, b), 0.99);
}

TEST(ITdr, ReconstructionTableMatchesFreshInverseTables)
{
    // Every engine finishes a bin through one (bin, hit count) table.
    // Each entry must equal, bit for bit, a freshly built
    // ApcInverseTable evaluated at the hit counter's probability for
    // that count — for both strobe models, for a counter narrower
    // than log2(trials) (it saturates, so the probability clamps),
    // under fault frames that force counts the strobes never produce,
    // and again after recalibrate() rebuilds the table.
    const auto line = testLine();
    struct Case
    {
        StrobeModel model;
        unsigned widthBits;
    };
    for (const Case c : {Case{StrobeModel::Sampled, 12},
                         Case{StrobeModel::Binomial, 12},
                         Case{StrobeModel::Sampled, 7},
                         Case{StrobeModel::Binomial, 7}}) {
        SCOPED_TRACE(testing::Message()
                     << "binomial=" << (c.model == StrobeModel::Binomial)
                     << " width=" << c.widthBits);
        ItdrConfig cfg;
        cfg.trialsPerPhase = 170; // 7 bits saturate at 127 strobes
        cfg.strobeModel = c.model;
        cfg.counterWidthBits = c.widthBits;
        FaultPlan plan;
        plan.comparatorStuck(1, 1, true)
            .comparatorStuck(2, 1, false)
            .counterBitFlip(3, 1, 0.5);
        FaultInjector injector(plan, Rng(41));
        ITdr itdr(cfg, Rng(43));
        itdr.attachFaultInjector(&injector);

        const unsigned trials = itdr.trialsPerPhase();
        const Waveform ideal = itdr.idealIip(line);
        const PdmSchedule pdm(cfg.pdm, cfg.pll.clockFrequency);
        auto expected = [&] {
            std::vector<std::vector<double>> rows(ideal.size());
            HitCounter counter(c.widthBits);
            for (std::size_t m = 0; m < rows.size(); ++m) {
                const ApcInverseTable table(
                    pdm.levelsAt(static_cast<double>(m) * ideal.dt()),
                    itdr.effectiveSigma());
                for (unsigned h = 0; h <= trials; ++h) {
                    counter.reset();
                    counter.recordBatch(h, trials);
                    rows[m].push_back(
                        table.reconstruct(counter.probability()) -
                        itdr.offsetCorrection());
                }
            }
            return rows;
        };
        auto checkTable = [&](const std::vector<std::vector<double>> &rows) {
            for (unsigned m = 0; m < rows.size(); ++m) {
                for (unsigned h = 0; h <= trials; ++h) {
                    ASSERT_EQ(itdr.binVoltage(m, h), rows[m][h])
                        << "bin " << m << " hits " << h;
                }
            }
        };
        const std::vector<std::vector<double>> rows = expected();
        checkTable(rows);

        // Measurements 0..3: clean, stuck high, stuck low, counter
        // flips. Every bin lands exactly on an entry of its row.
        for (int k = 0; k < 4; ++k) {
            const IipMeasurement meas = itdr.measure(line);
            ASSERT_EQ(meas.iip.size(), rows.size());
            for (std::size_t m = 0; m < rows.size(); ++m) {
                if (k == 1) {
                    ASSERT_EQ(meas.iip[m], rows[m][trials]) << m;
                } else if (k == 2) {
                    ASSERT_EQ(meas.iip[m], rows[m][0]) << m;
                } else {
                    ASSERT_NE(std::find(rows[m].begin(), rows[m].end(),
                                        meas.iip[m]),
                              rows[m].end())
                        << "measurement " << k << " bin " << m;
                }
            }
        }

        ASSERT_TRUE(itdr.recalibrate());
        checkTable(expected());
    }
}

TEST(ITdr, PinnedSampledIipDigests)
{
    // Cross-build equality evidence for the Sampled block loop: the
    // literal was taken while each bin still kept its own inverse
    // CDF table, before every engine read the (bin, hit count) table.
    // Two measurements, the second from the trace cache.
    const auto line = testLine();
    ITdr batch(ItdrConfig{}, Rng(29));
    uint64_t batchDigest = iipDigest(batch.measure(line).iip);
    batchDigest = iipDigest(batch.measure(line).iip, batchDigest);
    EXPECT_EQ(batchDigest, 0xc762c9160431f1a0ull);
}

TEST(ITdr, PinnedEngineIipDigests)
{
    // Cross-build equality evidence for every strobe path of
    // measure(), taken while the analytic engine still kept a
    // per-bin loop for dropout+flip frames and each Sampled loop
    // applied its own fault hooks. Three measurements per config (the
    // later ones hit the trace cache), each instrument with its own
    // fault injector so the frames advance with its measurements.
    const auto line = testLine();
    const FaultPlan frame =
        FaultPlan{}.pllDropout(0, 0, 0.1).counterBitFlip(0, 0, 0.2);
    // The Binomial pins run the scalar kernel set on every build: the
    // environment wins over ItdrConfig::simd, so force it here too.
    const char *prevSimd = std::getenv("DIVOT_SIMD");
    const std::string savedSimd = prevSimd != nullptr ? prevSimd : "";
    setenv("DIVOT_SIMD", "scalar", 1);

    auto digest = [&](const ItdrConfig &cfg, bool faulted,
                      NoiseSource *extra = nullptr) {
        FaultInjector injector(frame, Rng(31));
        ITdr itdr(cfg, Rng(29));
        if (faulted)
            itdr.attachFaultInjector(&injector);
        uint64_t h = 0xcbf29ce484222325ull;
        for (int k = 0; k < 3; ++k)
            h = iipDigest(itdr.measure(line, extra).iip, h);
        return h;
    };
    struct Pin
    {
        const char *name;
        uint64_t got;
        uint64_t want;
    };
    std::vector<Pin> pins;

    ItdrConfig block;
    pins.push_back({"block+frame", digest(block, true),
                    0x251e56a288eee6afull});

    ItdrConfig jitter;
    jitter.pll.jitterRms = 2e-12;
    pins.push_back({"jitter", digest(jitter, false),
                    0xa638157d972b03e4ull});
    pins.push_back({"jitter+frame", digest(jitter, true),
                    0x5260ad08f999e97full});

    ItdrConfig data;
    data.triggerMode = TriggerMode::DataLane;
    pins.push_back({"data-lane", digest(data, false),
                    0xc38256851e557fbcull});

    ItdrConfig band;
    band.comparator.metastableBand = 0.2e-3;
    pins.push_back({"metastable", digest(band, false),
                    0x0b113542b9b8fd10ull});

    ItdrConfig narrow;
    narrow.counterWidthBits = 7;
    pins.push_back({"counter7+frame", digest(narrow, true),
                    0x2de172ab7d99da50ull});

    ItdrConfig plain;
    SinusoidalInterference emi(0.5e-3, 25e6, 0.3);
    pins.push_back({"emi+frame", digest(plain, true, &emi),
                    0x06eb7cbbab771df7ull});

    ItdrConfig binomial;
    binomial.strobeModel = StrobeModel::Binomial;
    binomial.simd = SimdTarget::Scalar;
    pins.push_back({"binomial", digest(binomial, false),
                    0x1a79c228e62ceffaull});
    pins.push_back({"binomial+frame", digest(binomial, true),
                    0x20a64f09db50638dull});

    if (prevSimd != nullptr)
        setenv("DIVOT_SIMD", savedSimd.c_str(), 1);
    else
        unsetenv("DIVOT_SIMD");

    for (const Pin &p : pins) {
        EXPECT_EQ(p.got, p.want)
            << p.name << " 0x" << std::hex << p.got;
    }
}

TEST(ITdr, ZeroTrialsRejected)
{
    ItdrConfig bad;
    bad.trialsPerPhase = 0;
    EXPECT_DEATH(ITdr(bad, Rng(21)), "trialsPerPhase");
}

} // namespace
} // namespace divot
