#include "itdr/apc.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/math.hh"

namespace divot {

double
apcMixtureCdf(double v_sig, const std::vector<double> &levels,
              double sigma)
{
    if (levels.empty())
        divot_panic("apcMixtureCdf: no reference levels");
    if (sigma <= 0.0)
        divot_panic("apcMixtureCdf: sigma must be positive (got %g)",
                    sigma);
    double acc = 0.0;
    for (double ref : levels)
        acc += normalCdf((v_sig - ref) / sigma);
    return acc / static_cast<double>(levels.size());
}

double
apcMixturePdf(double v_sig, const std::vector<double> &levels,
              double sigma)
{
    if (levels.empty())
        divot_panic("apcMixturePdf: no reference levels");
    if (sigma <= 0.0)
        divot_panic("apcMixturePdf: sigma must be positive (got %g)",
                    sigma);
    double acc = 0.0;
    for (double ref : levels)
        acc += normalPdf((v_sig - ref) / sigma) / sigma;
    return acc / static_cast<double>(levels.size());
}

double
apcReconstruct(double p, const std::vector<double> &levels,
               double sigma)
{
    if (levels.empty())
        divot_panic("apcReconstruct: no reference levels");
    if (sigma <= 0.0)
        divot_panic("apcReconstruct: sigma must be positive (got %g)",
                    sigma);

    if (levels.size() == 1) {
        // Closed form (Eq. 2).
        return levels[0] + sigma * normalInvCdf(p);
    }

    // Clamp to the invertible interior; a fully saturated counter can
    // only say "beyond the range".
    const double eps = 1e-9;
    p = clampTo(p, eps, 1.0 - eps);

    const auto [lo_it, hi_it] =
        std::minmax_element(levels.begin(), levels.end());
    const double lo = *lo_it - 8.0 * sigma;
    const double hi = *hi_it + 8.0 * sigma;
    return invertMonotone(
        [&](double v) { return apcMixtureCdf(v, levels, sigma); },
        p, lo, hi);
}

ApcInverseTable::ApcInverseTable(const std::vector<double> &levels,
                                 double sigma, std::size_t grid)
{
    if (levels.empty())
        divot_panic("ApcInverseTable: no reference levels");
    if (sigma <= 0.0)
        divot_panic("ApcInverseTable: sigma must be positive (got %g)",
                    sigma);
    if (grid < 2)
        divot_panic("ApcInverseTable: grid too small (%zu)", grid);
    const auto [lo_it, hi_it] =
        std::minmax_element(levels.begin(), levels.end());
    vLo_ = *lo_it - 6.0 * sigma;
    vHi_ = *hi_it + 6.0 * sigma;
    dv_ = (vHi_ - vLo_) / static_cast<double>(grid - 1);

    // Each level's Phi((v - ref)/sigma) saturates outside a +-7.5
    // sigma transition band: beyond it the term is 0 or 1 to within
    // 4e-14 — far below both the counter's probability resolution
    // (1/trials) and the reconstruction clamp epsilon. Evaluating the
    // erf only inside the band cuts the build cost by the ratio of
    // the level span to the band width; `tail` counts the levels
    // fully saturated at 1 below each grid index.
    cdf_.assign(grid, 0.0);
    std::vector<double> tail(grid + 1, 0.0);
    const double cut = 7.5 * sigma;
    for (double ref : levels) {
        const double lo_v = ref - cut;
        const double hi_v = ref + cut;
        const std::size_t i0 = lo_v <= vLo_
            ? 0
            : std::min(grid, static_cast<std::size_t>(
                                 std::ceil((lo_v - vLo_) / dv_)));
        const std::size_t i1 = hi_v >= vHi_
            ? grid
            : std::min(grid, static_cast<std::size_t>(
                                 std::floor((hi_v - vLo_) / dv_)) + 1);
        for (std::size_t i = i0; i < i1; ++i) {
            const double v = vLo_ + dv_ * static_cast<double>(i);
            cdf_[i] += normalCdf((v - ref) / sigma);
        }
        tail[i1] += 1.0;
    }
    const double inv_count = 1.0 / static_cast<double>(levels.size());
    double ones = 0.0;
    for (std::size_t i = 0; i < grid; ++i) {
        ones += tail[i];
        cdf_[i] = (cdf_[i] + ones) * inv_count;
    }
}

double
ApcInverseTable::reconstruct(double p) const
{
    if (p <= cdf_.front())
        return vLo_;
    if (p >= cdf_.back())
        return vHi_;
    // The CDF is monotone non-decreasing and cdf_.front() < p, so the
    // first entry >= p sits at index 1 or later.
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), p) - cdf_.begin());
    const std::size_t lo = hi - 1;
    const double span = cdf_[hi] - cdf_[lo];
    const double t = span > 0.0 ? (p - cdf_[lo]) / span : 0.5;
    return vLo_ + dv_ * (static_cast<double>(lo) + t);
}

double
apcLinearRegionWidth(const std::vector<double> &levels, double sigma,
                     double floor_frac)
{
    if (levels.empty())
        divot_panic("apcLinearRegionWidth: no reference levels");
    const auto [lo_it, hi_it] =
        std::minmax_element(levels.begin(), levels.end());
    const double lo = *lo_it - 6.0 * sigma;
    const double hi = *hi_it + 6.0 * sigma;

    // Scan the sensitivity on a fine grid.
    const std::size_t n = 2001;
    double peak = 0.0;
    std::vector<double> pdf(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double v = lo + (hi - lo) * static_cast<double>(i) /
            static_cast<double>(n - 1);
        pdf[i] = apcMixturePdf(v, levels, sigma);
        peak = std::max(peak, pdf[i]);
    }
    const double floor_v = floor_frac * peak;
    // Longest contiguous run above the floor.
    double best = 0.0, run_start = 0.0;
    bool in_run = false;
    const double step = (hi - lo) / static_cast<double>(n - 1);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = lo + step * static_cast<double>(i);
        if (pdf[i] >= floor_v) {
            if (!in_run) {
                in_run = true;
                run_start = x;
            }
        } else if (in_run) {
            best = std::max(best, x - run_start);
            in_run = false;
        }
    }
    if (in_run)
        best = std::max(best, hi - run_start);
    return best;
}

} // namespace divot
