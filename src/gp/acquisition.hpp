// Expected Improvement acquisition function with exploration parameter xi
// (paper Eqs. 5-7):
//
//   EI(x) = K Phi(Z) + sigma(x) phi(Z)   if sigma(x) > 0, else 0
//   K     = mu(x) - f(x+) - xi
//   Z     = K / sigma(x)                 if sigma(x) > 0, else 0
#pragma once

#include <span>

#include "exec/exec.hpp"
#include "gp/gp_regressor.hpp"

namespace autra::gp {

/// Expected improvement of a posterior prediction over the incumbent
/// `best_value`, with exploration bonus `xi` >= 0.
[[nodiscard]] double expected_improvement(const Prediction& p,
                                          double best_value,
                                          double xi = 0.01) noexcept;

/// Expected improvement under `gp` at each of the out.size() points of
/// `rows` (row-major, out.size() x gp.input_dim()). The points are scored
/// in fixed-size blocks through GpRegressor::predict_batch, the blocks
/// spread over `ctx`, each with its own workspace. A point's EI depends
/// only on that point, so `out` is the same at any thread count.
void expected_improvement(const GpRegressor& gp, std::span<const double> rows,
                          double best_value, double xi,
                          const exec::ExecContext& ctx, std::span<double> out);

}  // namespace autra::gp
