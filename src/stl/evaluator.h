// The System Throughput Loss estimator STL'(λ_loss, U) of Section 5.1,
// evaluated by dynamic programming as the paper prescribes.
//
// Model: while a transaction holds its locks for U time units it removes
// λ_loss of throughput. Lock grants elsewhere arrive at rate λ_A − λ_loss;
// each such grant belongs to a transaction whose other K−1 requests are
// each blocked with probability λ_loss/λ_A, so new blocking grants arrive
// at rate
//     λ_block = (λ_A − λ_loss)·(1 − (1 − λ_loss/λ_A)^{K−1}),
// and each one adds λ_new = λ_w + (1−Q_r)·λ_r of further loss. The loss
// over a window of length U then satisfies the renewal equation
//     STL'(l, U) = e^{−λ_block·U}·l·U
//                + ∫₀ᵁ λ_block·e^{−λ_block·x}·(l·x + STL'(l+λ_new, U−x)) dx,
// with STL'(l, U) = λ_A·U once l ≥ λ_A (the whole system is blocked).
//
// The DP discretizes U on a uniform grid and sweeps loss levels downward
// from the saturated level, computing each level's convolution against the
// level above it. Within a level the sweep runs over grid intervals j
// (outer) and grid points i > j (inner): interval j's geometric weights
// are built once, and every grid point still adds its terms in ascending
// j, so the result is bit-for-bit that of the point-outer formulation
// (tests/stl/stl_test.cc keeps it as the reference) while the independent
// per-point sums vectorize.
#ifndef UNICC_STL_EVALUATOR_H_
#define UNICC_STL_EVALUATOR_H_

#include <cstdint>
#include <vector>

namespace unicc {

// System-wide parameters feeding the STL model (rates per second).
struct SystemParams {
  double lambda_a = 100.0;  // total system throughput λ_A
  double lambda_r = 0.5;    // mean per-queue read throughput
  double lambda_w = 0.5;    // mean per-queue write throughput
  double q_r = 0.5;         // fraction of read requests
  double k_avg = 4.0;       // mean requests per transaction K
};

class StlEvaluator {
 public:
  // `grid_points` controls DP resolution (>= 2).
  explicit StlEvaluator(SystemParams params, int grid_points = 48);

  // STL'(λ_loss, U): expected throughput loss caused over a lock-hold of
  // `u_seconds` starting from initial loss `lambda_loss` (per-second rate).
  // Returns loss in units of (throughput · seconds), i.e. expected number
  // of lost grants.
  double Evaluate(double lambda_loss, double u_seconds) const;

  // λ_new = λ_w + (1 − Q_r)·λ_r (the expected extra loss per new block).
  double LambdaNew() const;

  // λ_block for a given current loss level.
  double LambdaBlock(double lambda_loss) const;

  const SystemParams& params() const { return params_; }

 private:
  SystemParams params_;
  int grid_points_;
};

}  // namespace unicc

#endif  // UNICC_STL_EVALUATOR_H_
