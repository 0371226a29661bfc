// Iterative fixed-point solution of the optimal carrier-sense threshold,
// after Kim & Kim ("An Iterative Algorithm for Optimal Carrier Sensing
// Threshold in Random CSMA/CA Networks"): instead of root-finding the
// crossing <C_conc>(Rmax, D) = <C_mux>(Rmax) directly (see
// src/core/threshold.hpp), iterate the damped log-domain update
//
//   log D_{k+1} = log D_k + gain * log( <C_mux>(Rmax) / <C_conc>(Rmax, D_k) )
//
// whose unique fixed point is the same crossing. <C_conc> is monotone
// increasing in D, so the update is a contraction around the crossing
// for gains in (0, 1]; the trajectory is exposed so the online policy in
// src/mac/adaptive_cs.hpp (which runs the same balance condition against
// *measured* capacities) can be compared against the model step by step.
//
// The solver evaluates everything through an expectation_engine, so the
// memoized <C_single>/<C_conc> integrals (src/core/expected.hpp) are
// shared with any other threshold machinery on the same engine: an
// iteration that revisits a (rmax, d) pair, or a later Brent solve over
// the same engine, pays for each integral once.
#pragma once

#include <vector>

#include "src/core/expected.hpp"

namespace csense::core {

/// Outcome of one fixed-point solve.
struct fixed_point_result {
    /// The converged threshold distance (same units as Rmax).
    double d_thresh = 0.0;

    /// <C_mux>(Rmax) = <C_conc>(Rmax, d_thresh) at the fixed point.
    double crossing_value = 0.0;

    /// Iterations actually taken.
    int iterations = 0;

    /// False when the iteration hit its cap, or when the model is
    /// in the extreme-long-range regime (concurrency beats multiplexing
    /// even for collocated senders, so no finite crossing exists).
    bool converged = false;

    /// D_k per iteration, starting from the initial point. Lets callers
    /// plot or test the convergence path against the online controller.
    std::vector<double> trajectory;
};

/// Solve <C_conc>(Rmax, D) = <C_mux>(Rmax) by the damped fixed-point
/// iteration above, from D = Rmax (a threshold at the network edge).
/// Matches optimal_threshold()'s Brent root for every environment with a
/// crossing; in the extreme-long-range regime it returns d_thresh = 0
/// and converged = false (mirroring threshold_result::found). Throws
/// std::domain_error unless rmax > 0.
fixed_point_result solve_threshold_fixed_point(
    const expectation_engine& engine, double rmax);

}  // namespace csense::core
