#include "stl/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace unicc {

StlEvaluator::StlEvaluator(SystemParams params, int grid_points)
    : params_(params), grid_points_(grid_points) {
  UNICC_CHECK(params_.lambda_a > 0);
  UNICC_CHECK(params_.lambda_r >= 0 && params_.lambda_w >= 0);
  UNICC_CHECK(params_.q_r >= 0 && params_.q_r <= 1);
  UNICC_CHECK(params_.k_avg >= 1);
  UNICC_CHECK(grid_points_ >= 2);
}

double StlEvaluator::LambdaNew() const {
  return params_.lambda_w + (1 - params_.q_r) * params_.lambda_r;
}

double StlEvaluator::LambdaBlock(double lambda_loss) const {
  const double la = params_.lambda_a;
  if (lambda_loss >= la) return 0;
  const double p_block = std::clamp(lambda_loss / la, 0.0, 1.0);
  return (la - lambda_loss) *
         (1 - std::pow(1 - p_block, params_.k_avg - 1));
}

double StlEvaluator::Evaluate(double lambda_loss, double u_seconds) const {
  UNICC_CHECK(u_seconds >= 0);
  if (u_seconds == 0) return 0;
  const double la = params_.lambda_a;
  if (lambda_loss >= la) return la * u_seconds;

  const double lnew = LambdaNew();
  // Number of loss levels until saturation; each new blocking grant adds
  // lnew of loss. With lnew == 0 no escalation happens.
  int levels = 0;
  if (lnew > 1e-12) {
    levels = static_cast<int>(std::ceil((la - lambda_loss) / lnew));
    levels = std::min(levels, 4096);
  }

  const int m = grid_points_;
  const double h = u_seconds / (m - 1);

  // S_top: saturated level.
  std::vector<double> above(m), cur(m);
  for (int i = 0; i < m; ++i) {
    above[i] = la * (static_cast<double>(i) * h);
  }
  // Sweep levels from (levels-1) down to 0; level n has loss l_n. The
  // convolution against the exponential first-block density is integrated
  // exactly per grid interval with the integrand g(x) = l*x + S_next(u-x)
  // interpolated linearly; this keeps the bound STL' <= lambda_a*U for any
  // lambda_block*h (a plain trapezoid rule does not).
  for (int n = levels - 1; n >= 0; --n) {
    const double l = std::min(lambda_loss + n * lnew, la);
    const double b = LambdaBlock(l);
    cur[0] = 0;
    // No-block branch.
    for (int i = 1; i < m; ++i) {
      const double u = static_cast<double>(i) * h;
      cur[i] = std::exp(-b * u) * l * u;
    }
    if (b > 1e-12) {
      const double ebh = std::exp(-b * h);
      // c = \int_0^h b*y*e^{-by} dy / h, normalized slope weight.
      const double c = (1 - ebh * (1 + b * h)) / (b * h);
      // Interval j contributes to every grid point i > j. Sweeping j in the
      // outer loop builds its weights once per level and adds each cur[i]'s
      // terms in ascending j, the same order as an i-outer sweep; the
      // independent cur[i] accumulators let the inner loop vectorize
      // without reassociating any sum.
      double ej = 1.0;  // e^{-b x_j}
      for (int j = 0; j + 1 < m; ++j) {
        const double x0 = static_cast<double>(j) * h;
        const double lx0 = l * x0;
        const double lx1 = l * (x0 + h);
        const double w0 = ej - ej * ebh;
        for (int i = j + 1; i < m; ++i) {
          const double g0 = lx0 + above[i - j];
          const double g1 = lx1 + above[i - j - 1];
          cur[i] += g0 * w0 + (g1 - g0) * ej * c;
        }
        ej *= ebh;
      }
    }
    above.swap(cur);
  }
  if (levels == 0) {
    // No escalation: pure deterministic loss.
    return lambda_loss * u_seconds;
  }
  return above[m - 1];
}

}  // namespace unicc
