#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

#include "stl/estimators.h"
#include "stl/evaluator.h"

namespace unicc {
namespace {

// --- Bit-identity references ---------------------------------------------
// Verbatim copies of the straightforward STL' kernel (grid point i outer,
// interval j inner, weights rebuilt per i) and of the mixtures that always
// evaluate both branches. The optimized StlEvaluator::Evaluate and
// Stl2pl / StlTo / StlPa must return the very same doubles, bit for bit,
// so that no min-STL decision can change.

double RefEvaluate(const StlEvaluator& ev, int grid_points,
                   double lambda_loss, double u_seconds) {
  if (u_seconds == 0) return 0;
  const double la = ev.params().lambda_a;
  if (lambda_loss >= la) return la * u_seconds;

  const double lnew = ev.LambdaNew();
  int levels = 0;
  if (lnew > 1e-12) {
    levels = static_cast<int>(std::ceil((la - lambda_loss) / lnew));
    levels = std::min(levels, 4096);
  }

  const int m = grid_points;
  const double h = u_seconds / (m - 1);

  std::vector<double> above(m), cur(m);
  for (int i = 0; i < m; ++i) {
    above[i] = la * (static_cast<double>(i) * h);
  }
  for (int n = levels - 1; n >= 0; --n) {
    const double l = std::min(lambda_loss + n * lnew, la);
    const double b = ev.LambdaBlock(l);
    cur[0] = 0;
    const double ebh = std::exp(-b * h);
    const double c =
        b > 1e-12 ? (1 - ebh * (1 + b * h)) / (b * h) : 0.0;
    for (int i = 1; i < m; ++i) {
      const double u = static_cast<double>(i) * h;
      double v = std::exp(-b * u) * l * u;
      if (b > 1e-12) {
        double ej = 1.0;
        for (int j = 0; j < i; ++j) {
          const double x0 = static_cast<double>(j) * h;
          const double g0 = l * x0 + above[i - j];
          const double g1 = l * (x0 + h) + above[i - j - 1];
          v += g0 * (ej - ej * ebh) + (g1 - g0) * ej * c;
          ej *= ebh;
        }
      }
      cur[i] = v;
    }
    above = cur;
  }
  if (levels == 0) {
    return lambda_loss * u_seconds;
  }
  return above[m - 1];
}

double RefClampProb(double p) { return std::clamp(p, 0.0, 0.95); }

double RefStl2pl(const StlEvaluator& ev, int grid, TxnShape shape,
                 const ProtocolParams& p) {
  const double lt = LambdaT(ev.params(), shape);
  const double pa = RefClampProb(p.p_abort);
  const double success = RefEvaluate(ev, grid, lt, p.u_lock);
  const double aborted = RefEvaluate(ev, grid, lt, p.u_lock_aborted);
  return ((1 - pa) * success + pa * aborted) / (1 - pa);
}

double RefStlTo(const StlEvaluator& ev, int grid, TxnShape shape,
                const ProtocolParams& p) {
  const SystemParams& sys = ev.params();
  const double lt = LambdaT(sys, shape);
  const double pr = RefClampProb(p.p_reject_read);
  const double pw = RefClampProb(p.p_reject_write);
  const double ps = std::pow(1 - pr, shape.m) * std::pow(1 - pw, shape.n);
  const double expected = shape.m * (1 - pr) * sys.lambda_w +
                          shape.n * (1 - pw) *
                              (sys.lambda_w + sys.lambda_r);
  double lt_star = lt;
  if (1 - ps > 1e-9) {
    lt_star = (expected - ps * lt) / (1 - ps);
    lt_star = std::clamp(lt_star, 0.0, sys.lambda_a);
  }
  const double ps_safe = std::max(ps, 0.05);
  const double success = RefEvaluate(ev, grid, lt, p.u_lock);
  const double rejected = RefEvaluate(ev, grid, lt_star, p.u_lock_aborted);
  return (ps_safe * success + (1 - ps_safe) * rejected) / ps_safe;
}

double RefStlPa(const StlEvaluator& ev, int grid, TxnShape shape,
                const ProtocolParams& p) {
  const SystemParams& sys = ev.params();
  const double lt = LambdaT(sys, shape);
  const double pb = RefClampProb(p.p_reject_read);
  const double pbw = RefClampProb(p.p_reject_write);
  const double ps = std::pow(1 - pb, shape.m) * std::pow(1 - pbw, shape.n);
  const double expected = shape.m * (1 - pb) * sys.lambda_w +
                          shape.n * (1 - pbw) *
                              (sys.lambda_w + sys.lambda_r);
  double lt_dag = lt;
  if (1 - ps > 1e-9) {
    lt_dag = (expected - ps * lt) / (1 - ps);
    lt_dag = std::clamp(lt_dag, 0.0, sys.lambda_a);
  }
  const double success = RefEvaluate(ev, grid, lt, p.u_lock);
  const double backed_off = RefEvaluate(ev, grid, lt_dag, p.u_lock_aborted);
  return ps * success + (1 - ps) * (backed_off + success);
}

SystemParams DefaultSys() {
  SystemParams s;
  s.lambda_a = 100;
  s.lambda_r = 0.4;
  s.lambda_w = 0.6;
  s.q_r = 0.5;
  s.k_avg = 4;
  return s;
}

TEST(StlEvaluatorTest, ZeroDurationZeroLoss) {
  StlEvaluator ev(DefaultSys());
  EXPECT_EQ(ev.Evaluate(5, 0), 0);
}

TEST(StlEvaluatorTest, SaturatedLossIsLambdaAU) {
  StlEvaluator ev(DefaultSys());
  EXPECT_DOUBLE_EQ(ev.Evaluate(100, 0.5), 100 * 0.5);
  EXPECT_DOUBLE_EQ(ev.Evaluate(150, 0.5), 100 * 0.5);
}

TEST(StlEvaluatorTest, BoundedByLambdaAU) {
  StlEvaluator ev(DefaultSys());
  for (double l : {0.5, 2.0, 10.0, 50.0}) {
    for (double u : {0.01, 0.1, 1.0}) {
      const double v = ev.Evaluate(l, u);
      EXPECT_LE(v, 100 * u * 1.0001) << "l=" << l << " u=" << u;
      EXPECT_GE(v, l * u * 0.9999) << "l=" << l << " u=" << u;
    }
  }
}

TEST(StlEvaluatorTest, MonotoneInInitialLoss) {
  StlEvaluator ev(DefaultSys());
  double prev = 0;
  for (double l : {1.0, 5.0, 20.0, 60.0, 90.0}) {
    const double v = ev.Evaluate(l, 0.2);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(StlEvaluatorTest, MonotoneInDuration) {
  StlEvaluator ev(DefaultSys());
  double prev = 0;
  for (double u : {0.05, 0.1, 0.2, 0.5, 1.0}) {
    const double v = ev.Evaluate(10, u);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(StlEvaluatorTest, NoEscalationWhenLambdaNewZero) {
  SystemParams s = DefaultSys();
  s.lambda_r = 0;
  s.lambda_w = 0;
  StlEvaluator ev(s);
  EXPECT_DOUBLE_EQ(ev.Evaluate(7, 0.3), 7 * 0.3);
}

TEST(StlEvaluatorTest, LambdaBlockEdgeCases) {
  StlEvaluator ev(DefaultSys());
  EXPECT_DOUBLE_EQ(ev.LambdaBlock(0), 0);    // no loss, nothing blocks
  EXPECT_DOUBLE_EQ(ev.LambdaBlock(100), 0);  // no free throughput left
  EXPECT_GT(ev.LambdaBlock(50), 0);
}

TEST(StlEvaluatorTest, LambdaNewFormula) {
  StlEvaluator ev(DefaultSys());
  // λ_w + (1 − Q_r)·λ_r = 0.6 + 0.5*0.4.
  EXPECT_DOUBLE_EQ(ev.LambdaNew(), 0.6 + 0.5 * 0.4);
}

TEST(StlEvaluatorTest, GridRefinementConverges) {
  StlEvaluator coarse(DefaultSys(), 24);
  StlEvaluator fine(DefaultSys(), 96);
  const double a = coarse.Evaluate(10, 0.2);
  const double b = fine.Evaluate(10, 0.2);
  EXPECT_NEAR(a, b, std::max(a, b) * 0.08);
}

TEST(StlEvaluatorTest, SingleRequestTransactionsNeverEscalate) {
  // K = 1: a granted request's transaction has no other requests to block.
  SystemParams s = DefaultSys();
  s.k_avg = 1;
  StlEvaluator ev(s);
  EXPECT_NEAR(ev.Evaluate(10, 0.3), 10 * 0.3, 1e-9);
}

TEST(EstimatorFormulaTest, LambdaT) {
  const SystemParams s = DefaultSys();
  // m=2 reads, n=3 writes: 2·λw + 3·(λw + λr).
  EXPECT_DOUBLE_EQ(LambdaT(s, {2, 3}), 2 * 0.6 + 3 * (0.6 + 0.4));
}

TEST(EstimatorFormulaTest, Stl2plNoAbortsEqualsPlainStl) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.p_abort = 0;
  const TxnShape shape{2, 2};
  EXPECT_DOUBLE_EQ(Stl2pl(ev, shape, p),
                   ev.Evaluate(LambdaT(ev.params(), shape), 0.05));
}

TEST(EstimatorFormulaTest, Stl2plIncreasesWithAbortProbability) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.03;
  const TxnShape shape{2, 2};
  double prev = 0;
  for (double pa : {0.0, 0.1, 0.3, 0.6}) {
    p.p_abort = pa;
    const double v = Stl2pl(ev, shape, p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(EstimatorFormulaTest, StlToIncreasesWithRejectProbability) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.03;
  const TxnShape shape{2, 2};
  double prev = 0;
  for (double pr : {0.0, 0.1, 0.3, 0.5}) {
    p.p_reject_read = pr;
    p.p_reject_write = pr;
    const double v = StlTo(ev, shape, p);
    EXPECT_GT(v, prev * 0.999);
    prev = v;
  }
}

TEST(EstimatorFormulaTest, StlPaAtMostOneBackoff) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.05;
  const TxnShape shape{2, 2};
  // Even with certain back-off, PA pays at most one extra STL' term.
  p.p_reject_read = 0.95;
  p.p_reject_write = 0.95;
  const double lt = LambdaT(ev.params(), shape);
  const double one = ev.Evaluate(lt, 0.05);
  const double v = StlPa(ev, shape, p);
  EXPECT_LE(v, 3.0 * one + 1e-9);
}

TEST(EstimatorFormulaTest, StlToVsPaWithSameProbabilities) {
  // With identical negative-response probabilities, T/O (geometric retry)
  // must cost at least as much as PA (single back-off).
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.05;
  p.p_reject_read = 0.4;
  p.p_reject_write = 0.4;
  EXPECT_GE(StlTo(ev, {3, 3}, p), StlPa(ev, {3, 3}, p));
}

TEST(EstimatorFormulaTest, MinimumMovesFrom2plToPaWithContention) {
  // The ranking that drives E5's selection: with few conflicts 2PL is
  // the cheapest protocol; as deadlock and negative-response
  // probabilities grow, PA's single back-off undercuts both 2PL's
  // deadlock restarts and T/O's geometric retries.
  struct Row {
    const char* name;
    double p_abort;     // 2PL deadlock probability
    double p_negative;  // T/O reject & PA back-off probability
    double u;           // lock time (s)
    bool pa_wins;
  };
  const Row rows[] = {
      {"idle (no conflicts)", 0.0, 0.0, 0.03, false},
      {"light", 0.01, 0.05, 0.04, false},
      {"moderate", 0.05, 0.15, 0.06, false},
      {"heavy", 0.25, 0.35, 0.10, true},
      {"extreme", 0.50, 0.50, 0.15, true},
  };
  StlEvaluator ev(DefaultSys(), 48);
  const TxnShape shape{2, 2};
  for (const Row& r : rows) {
    SCOPED_TRACE(r.name);
    ProtocolParams p2;
    p2.u_lock = r.u;
    p2.u_lock_aborted = r.u * 2;  // deadlocked locks are held long
    p2.p_abort = r.p_abort;
    ProtocolParams pto;
    pto.u_lock = r.u;
    pto.u_lock_aborted = r.u * 0.5;
    pto.p_reject_read = r.p_negative;
    pto.p_reject_write = r.p_negative;
    ProtocolParams ppa;
    ppa.u_lock = r.u * 1.2;  // negotiation lengthens holds slightly
    ppa.u_lock_aborted = r.u * 0.6;
    ppa.p_reject_read = r.p_negative;
    ppa.p_reject_write = r.p_negative;
    const double v2 = Stl2pl(ev, shape, p2);
    const double vt = StlTo(ev, shape, pto);
    const double vp = StlPa(ev, shape, ppa);
    if (r.pa_wins) {
      EXPECT_LT(vp, v2);
      EXPECT_LT(vp, vt);
    } else {
      EXPECT_LE(v2, vt);
      EXPECT_LE(v2, vp);
    }
  }
}

TEST(ParamEstimatorTest, SnapshotComputesRatesAndMix) {
  ParamEstimator est;
  for (int i = 0; i < 60; ++i) est.OnGrant(OpType::kRead);
  for (int i = 0; i < 40; ++i) est.OnGrant(OpType::kWrite);
  for (int i = 0; i < 30; ++i) {
    est.OnRequestSent(Protocol::kTwoPhaseLocking, OpType::kRead);
  }
  for (int i = 0; i < 10; ++i) {
    est.OnRequestSent(Protocol::kTwoPhaseLocking, OpType::kWrite);
  }
  TxnResult r;
  r.protocol = Protocol::kTwoPhaseLocking;
  r.num_requests = 5;
  r.attempts = 1;
  est.OnCommit(r);
  const SystemParams s = est.Snapshot(2 * kSecond, 10);
  EXPECT_DOUBLE_EQ(s.lambda_a, 50.0);      // 100 grants / 2s
  EXPECT_DOUBLE_EQ(s.lambda_r, 3.0);       // 60/2s/10 queues
  EXPECT_DOUBLE_EQ(s.lambda_w, 2.0);
  EXPECT_DOUBLE_EQ(s.q_r, 0.75);
  EXPECT_DOUBLE_EQ(s.k_avg, 5.0);
}

TEST(ParamEstimatorTest, RejectProbabilities) {
  ParamEstimator est;
  for (int i = 0; i < 100; ++i) {
    est.OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
  }
  for (int i = 0; i < 20; ++i) {
    est.OnReject(OpType::kRead, Protocol::kTimestampOrdering);
  }
  const ProtocolParams p = est.For(Protocol::kTimestampOrdering);
  EXPECT_DOUBLE_EQ(p.p_reject_read, 0.2);
  EXPECT_DOUBLE_EQ(p.p_reject_write, 0.0);
}

TEST(ParamEstimatorTest, LockHoldMeans) {
  ParamEstimator est;
  est.OnLockHold(Protocol::kPrecedenceAgreement, 100 * kMillisecond, false);
  est.OnLockHold(Protocol::kPrecedenceAgreement, 200 * kMillisecond, false);
  est.OnLockHold(Protocol::kPrecedenceAgreement, 50 * kMillisecond, true);
  const ProtocolParams p = est.For(Protocol::kPrecedenceAgreement);
  EXPECT_NEAR(p.u_lock, 0.15, 1e-9);
  EXPECT_NEAR(p.u_lock_aborted, 0.05, 1e-9);
}

TEST(ParamEstimatorTest, DecayWindowForgetsOldStatistics) {
  // Phase one: T/O rejects half its reads. Much later (many windows),
  // phase two rejects nothing. A windowed estimator re-converges to the
  // recent behaviour; the default run-total estimator stays anchored on
  // the blended average.
  ParamEstimator windowed, total;
  windowed.SetDecayWindow(1 * kSecond);
  for (ParamEstimator* est : {&windowed, &total}) {
    for (int i = 0; i < 100; ++i) {
      est->OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
    }
    for (int i = 0; i < 50; ++i) {
      est->OnReject(OpType::kRead, Protocol::kTimestampOrdering);
    }
    est->Snapshot(1 * kSecond, 1);  // advance the decay clock to t=1s
  }
  EXPECT_NEAR(windowed.For(Protocol::kTimestampOrdering).p_reject_read, 0.5,
              1e-9);
  // Phase two at t=10s: nine windows of silence decayed phase one to
  // e^-9; 100 clean requests now dominate the ratio.
  for (ParamEstimator* est : {&windowed, &total}) {
    est->Snapshot(10 * kSecond, 1);
    for (int i = 0; i < 100; ++i) {
      est->OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
    }
    est->Snapshot(10 * kSecond + 1, 1);
  }
  EXPECT_LT(windowed.For(Protocol::kTimestampOrdering).p_reject_read, 0.01);
  EXPECT_NEAR(total.For(Protocol::kTimestampOrdering).p_reject_read, 0.25,
              1e-9);
}

TEST(ParamEstimatorTest, DecayedRatesUseTheWindowedTimeBase) {
  // A constant 100 grants/s fed in 100ms batches: after several windows
  // the windowed rate estimate converges to the true rate instead of
  // being diluted by the run length.
  ParamEstimator est;
  est.SetDecayWindow(2 * kSecond);
  SystemParams s{};
  for (int tick = 1; tick <= 200; ++tick) {
    for (int i = 0; i < 10; ++i) est.OnGrant(OpType::kRead);
    s = est.Snapshot(static_cast<SimTime>(tick) * 100 * kMillisecond, 1);
  }
  EXPECT_NEAR(s.lambda_r, 100.0, 10.0);
  // Exact commit count is never decayed.
  EXPECT_EQ(est.total_commits(), 0u);
}

TEST(ParamEstimatorTest, ZeroWindowKeepsRunTotals) {
  ParamEstimator est;  // default: no decay
  for (int i = 0; i < 10; ++i) {
    est.OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
  }
  est.OnReject(OpType::kRead, Protocol::kTimestampOrdering);
  est.Snapshot(100 * kSecond, 1);
  est.Snapshot(200 * kSecond, 1);
  EXPECT_NEAR(est.For(Protocol::kTimestampOrdering).p_reject_read, 0.1,
              1e-12);
}

TEST(ParamEstimatorTest, TwoPlAbortProbability) {
  ParamEstimator est;
  for (int i = 0; i < 9; ++i) {
    TxnResult r;
    r.protocol = Protocol::kTwoPhaseLocking;
    r.attempts = 1;
    r.num_requests = 2;
    est.OnCommit(r);
  }
  est.OnRestart(Protocol::kTwoPhaseLocking,
                TxnOutcome::kRestartedByDeadlock);
  const ProtocolParams p = est.For(Protocol::kTwoPhaseLocking);
  EXPECT_NEAR(p.p_abort, 0.1, 1e-9);
}

// One seeded draw of the STL' inputs. Most draws are generic (1..450 loss
// levels, the selector's range); fixed residues force the edge cases.
struct StlDraw {
  SystemParams sys;
  int grid = 32;
  double lambda_loss = 0;
  double u = 0;
};

StlDraw RandomStlDraw(Rng& rng, int k) {
  StlDraw d;
  SystemParams& s = d.sys;
  s.lambda_a = 1 + 499 * rng.UniformDouble();
  // λ_new = λ_A / levels, split between λ_w and (1 − Q_r)·λ_r.
  const double levels = std::exp(rng.UniformDouble() * std::log(450.0));
  const double lnew = s.lambda_a / levels;
  const double w_share = rng.UniformDouble();
  s.q_r = 0.95 * rng.UniformDouble();
  s.lambda_w = lnew * w_share;
  s.lambda_r = lnew * (1 - w_share) / (1 - s.q_r);
  s.k_avg = 1 + 9 * rng.UniformDouble();
  d.grid = 2 + static_cast<int>(rng.UniformInt(63));  // 2..64
  d.lambda_loss = s.lambda_a * rng.UniformDouble();
  d.u = std::exp(std::log(1e-4) + rng.UniformDouble() * std::log(2e4));
  switch (k % 10) {
    case 0:  // zero-length hold
      d.u = 0;
      break;
    case 1:  // already saturated: λ_loss >= λ_A
      d.lambda_loss = s.lambda_a * (1 + rng.UniformDouble());
      break;
    case 2:  // λ_new == 0: zero loss levels
      s.lambda_w = 0;
      if (rng.Bernoulli(0.5)) {
        s.lambda_r = 0;
      } else {
        s.q_r = 1;
      }
      break;
    case 3:  // K == 1: λ_block == 0 at every level (b <= 1e-12 branch)
      s.k_avg = 1;
      break;
    case 4:  // no initial loss: λ_block == 0 at the bottom level
      d.lambda_loss = 0;
      break;
    case 5:  // the selector's grid
    case 6:
      d.grid = 32;
      break;
    default:
      break;
  }
  if (k % 50 == 7) {
    // More than 4096 levels: the level cap. A small grid keeps it cheap.
    d.lambda_loss = 0.5 * s.lambda_a * rng.UniformDouble();
    s.lambda_w = (s.lambda_a - d.lambda_loss) /
                 (4100 + 4000 * rng.UniformDouble());
    s.lambda_r = 0;
    d.grid = 2 + static_cast<int>(rng.UniformInt(11));
  }
  return d;
}

// Probabilities that are exactly zero a third of the time, else drawn from
// [0, 1) (above the 0.95 clamp included).
double MaybeZeroProb(Rng& rng) {
  return rng.UniformInt(3) == 0 ? 0.0 : rng.UniformDouble();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string Describe(const StlDraw& d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "la=%a lr=%a lw=%a qr=%a k=%a grid=%d loss=%a u=%a",
                d.sys.lambda_a, d.sys.lambda_r, d.sys.lambda_w, d.sys.q_r,
                d.sys.k_avg, d.grid, d.lambda_loss, d.u);
  return buf;
}

TEST(StlBitIdentityTest, EvaluateMatchesReferenceBitForBit) {
  Rng rng(20261017);
  int u_zero = 0, saturated = 0, zero_levels = 0, capped = 0, tiny_b = 0,
      grid32 = 0, escalating = 0;
  for (int k = 0; k < 2000; ++k) {
    const StlDraw d = RandomStlDraw(rng, k);
    const StlEvaluator ev(d.sys, d.grid);
    const double got = ev.Evaluate(d.lambda_loss, d.u);
    const double want = RefEvaluate(ev, d.grid, d.lambda_loss, d.u);
    ASSERT_TRUE(SameBits(got, want))
        << "draw " << k << ": " << Describe(d) << " got " << got
        << " want " << want;
    const double lnew = ev.LambdaNew();
    if (d.u == 0) {
      ++u_zero;
    } else if (d.lambda_loss >= d.sys.lambda_a) {
      ++saturated;
    } else if (lnew <= 1e-12) {
      ++zero_levels;
    } else {
      ++escalating;
      if ((d.sys.lambda_a - d.lambda_loss) / lnew > 4096) ++capped;
      if (ev.LambdaBlock(d.lambda_loss) <= 1e-12) ++tiny_b;
      if (d.grid == 32) ++grid32;
    }
  }
  // Every branch of the kernel was exercised, most draws escalate.
  EXPECT_GE(u_zero, 100);
  EXPECT_GE(saturated, 100);
  EXPECT_GE(zero_levels, 100);
  EXPECT_GE(capped, 20);
  EXPECT_GE(tiny_b, 200);
  EXPECT_GE(grid32, 200);
  EXPECT_GE(escalating, 1200);
}

TEST(StlBitIdentityTest, MixturesMatchReferenceBitForBit) {
  Rng rng(1);
  int pa_zero = 0, pa_nonzero = 0, to_ps_one = 0, to_ps_below = 0;
  for (int k = 0; k < 600; ++k) {
    const StlDraw d = RandomStlDraw(rng, k);
    const StlEvaluator ev(d.sys, d.grid);
    const TxnShape shape{static_cast<int>(rng.UniformInt(7)),
                         static_cast<int>(rng.UniformInt(7))};
    ProtocolParams p;
    p.u_lock = rng.UniformInt(10) == 0 ? 0.0 : 0.5 * rng.UniformDouble();
    p.u_lock_aborted =
        rng.UniformInt(10) == 0 ? 0.0 : 0.5 * rng.UniformDouble();
    p.p_abort = MaybeZeroProb(rng);
    p.p_reject_read = MaybeZeroProb(rng);
    p.p_reject_write = MaybeZeroProb(rng);
    const int g = d.grid;
    ASSERT_TRUE(SameBits(Stl2pl(ev, shape, p), RefStl2pl(ev, g, shape, p)))
        << "draw " << k << ": " << Describe(d);
    ASSERT_TRUE(SameBits(StlTo(ev, shape, p), RefStlTo(ev, g, shape, p)))
        << "draw " << k << ": " << Describe(d);
    ASSERT_TRUE(SameBits(StlPa(ev, shape, p), RefStlPa(ev, g, shape, p)))
        << "draw " << k << ": " << Describe(d);
    ++(p.p_abort == 0 ? pa_zero : pa_nonzero);
    const bool ps_one = (p.p_reject_read == 0 || shape.m == 0) &&
                        (p.p_reject_write == 0 || shape.n == 0);
    ++(ps_one ? to_ps_one : to_ps_below);
  }
  // Both sides of every zero-weight short-circuit were compared.
  EXPECT_GE(pa_zero, 100);
  EXPECT_GE(pa_nonzero, 100);
  EXPECT_GE(to_ps_one, 50);
  EXPECT_GE(to_ps_below, 100);
}

}  // namespace
}  // namespace unicc
