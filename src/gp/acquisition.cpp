#include "gp/acquisition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gp/normal.hpp"

namespace autra::gp {

namespace {

/// Most points in one predict_batch block: its workspace is this many
/// points by the training-set size, whatever the candidate count.
constexpr std::size_t kMaxBlockPoints = 64;
/// Fewest blocks a batch is cut into, so that a small candidate set still
/// gives every worker a share.
constexpr std::size_t kMinBlocks = 16;

}  // namespace

double expected_improvement(const Prediction& p, double best_value,
                            double xi) noexcept {
  const double sigma = p.stddev();
  if (sigma <= 0.0) return 0.0;
  const double k = p.mean - best_value - xi;
  const double z = k / sigma;
  const double ei = k * normal_cdf(z) + sigma * normal_pdf(z);
  return ei > 0.0 ? ei : 0.0;
}

void expected_improvement(const GpRegressor& gp, std::span<const double> rows,
                          double best_value, double xi,
                          const exec::ExecContext& ctx,
                          std::span<double> out) {
  if (!gp.is_fitted()) {
    throw std::logic_error("expected_improvement: model not fitted");
  }
  const std::size_t m = out.size();
  const std::size_t d = gp.input_dim();
  if (rows.size() != m * d) {
    throw std::invalid_argument("expected_improvement: dimension mismatch");
  }
  const std::size_t per_block = std::clamp<std::size_t>(
      (m + kMinBlocks - 1) / kMinBlocks, 1, kMaxBlockPoints);
  const std::size_t blocks = (m + per_block - 1) / per_block;
  exec::parallel_for(ctx, blocks, [&](std::size_t b) {
    const std::size_t begin = b * per_block;
    const std::size_t count = std::min(per_block, m - begin);
    Prediction p[kMaxBlockPoints];
    PredictWorkspace ws;
    gp.predict_batch(rows.subspan(begin * d, count * d), {p, count}, ws);
    for (std::size_t c = 0; c < count; ++c) {
      out[begin + c] = expected_improvement(p[c], best_value, xi);
    }
  });
}

}  // namespace autra::gp
