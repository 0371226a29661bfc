#include "src/core/adaptive_threshold.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace csense::core {

namespace {
/// Log-domain damping gain in (0, 1]. 1 is the undamped Kim & Kim
/// update; smaller values trade iterations for robustness when <C_conc>
/// is steep in log D.
constexpr double damping_gain = 0.6;
/// Iteration cap before giving up.
constexpr int max_iterations = 80;
/// Convergence test: |log(D_{k+1}/D_k)| below this stops the loop.
constexpr double log_tolerance = 1e-7;
}  // namespace

fixed_point_result solve_threshold_fixed_point(
    const expectation_engine& engine, double rmax) {
    if (!(rmax > 0.0)) {
        throw std::domain_error("solve_threshold_fixed_point: rmax");
    }
    const double mux = engine.expected_multiplexing(rmax);

    // Extreme-long-range guard (footnote 11's CDMA-like regime): when
    // concurrency beats the fair TDMA share even with a collocated
    // interferer, the crossing does not exist and the iteration would
    // drive D to zero. Mirror optimal_threshold()'s detection.
    const double d_floor = 1e-3 * rmax;
    if (engine.expected_concurrent(rmax, d_floor) > mux) {
        fixed_point_result degenerate;
        degenerate.d_thresh = 0.0;
        degenerate.crossing_value = mux;
        degenerate.converged = false;
        return degenerate;
    }

    // Keep the iterate inside a sane bracket: below d_floor the guard
    // above already ruled the answer out, and far beyond Rmax the
    // concurrent capacity saturates so log steps stop carrying signal.
    const double d_ceiling = 1e3 * rmax;

    fixed_point_result result;
    double d = std::clamp(rmax, d_floor, d_ceiling);
    result.trajectory.push_back(d);
    for (int k = 0; k < max_iterations; ++k) {
        const double conc = engine.expected_concurrent(rmax, d);
        if (!(conc > 0.0)) {
            // A dead concurrent channel (possible only at pathological
            // parameters): step outward by the full damping instead of
            // taking log(inf).
            d = std::min(2.0 * d, d_ceiling);
            result.trajectory.push_back(d);
            ++result.iterations;
            continue;
        }
        const double step = damping_gain * std::log(mux / conc);
        const double next = std::clamp(d * std::exp(step), d_floor, d_ceiling);
        ++result.iterations;
        result.trajectory.push_back(next);
        const bool done = std::abs(std::log(next / d)) < log_tolerance;
        d = next;
        if (done) {
            result.converged = true;
            break;
        }
    }
    result.d_thresh = d;
    result.crossing_value = mux;
    return result;
}

}  // namespace csense::core
