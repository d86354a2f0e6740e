// M1: google-benchmark microbenchmarks of the core data structures: event
// loop, precedence comparison, queue-manager grant path, WFG cycle
// detection, serializability checking, Zipf sampling, STL' evaluation and
// the per-protocol STL mixtures.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <variant>

#include "cc/precedence.h"
#include "cc/unified/queue_manager.h"
#include "common/rng.h"
#include "deadlock/wfg.h"
#include "serializability/conflict_graph.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "stl/estimators.h"
#include "stl/evaluator.h"
#include "storage/log.h"
#include "workload/zipf.h"

namespace unicc {
namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(static_cast<Duration>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(sim.RunToCompletion());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_PrecedenceCompare(benchmark::State& state) {
  Rng rng(1);
  std::vector<Precedence> precs;
  for (int i = 0; i < 1024; ++i) {
    precs.push_back(Precedence::ForTimestamped(
        rng.Next() % 1000, static_cast<SiteId>(rng.Next() % 16),
        rng.Next()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const bool lt = precs[i % 1024] < precs[(i + 1) % 1024];
    benchmark::DoNotOptimize(lt);
    ++i;
  }
}
BENCHMARK(BM_PrecedenceCompare);

void BM_UnifiedQmGrantReleaseCycle(benchmark::State& state) {
  Simulator sim;
  NetworkOptions net;
  net.base_delay = 1;
  net.local_delay = 1;
  SimTransport transport(&sim, net, Rng(2));
  ImplementationLog log;
  transport.RegisterSite(0, [](SiteId, const Message&) {});
  CcContext ctx{&sim, &transport, &log};
  UnifiedQueueManager qm(1, ctx, UnifiedQmOptions{});
  transport.RegisterSite(1, [](SiteId, const Message&) {});
  TxnId txn = 1;
  const CopyId copy{0, 1};
  for (auto _ : state) {
    msg::CcRequest req;
    req.txn = txn;
    req.attempt = 1;
    req.copy = copy;
    req.op = OpType::kWrite;
    req.proto = Protocol::kTwoPhaseLocking;
    req.reply_to = 0;
    qm.OnRequest(req);
    qm.OnRelease(msg::Release{txn, 1, copy, true, txn});
    sim.RunToCompletion();
    ++txn;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnifiedQmGrantReleaseCycle);

void BM_WfgCycleDetection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  WaitForGraph g;
  Rng rng(3);
  for (int i = 0; i < n; ++i) {
    g.AddEdge(rng.Next() % n, rng.Next() % n);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.FindCycle());
  }
}
BENCHMARK(BM_WfgCycleDetection)->Arg(64)->Arg(512)->Arg(4096);

// The conflict-graph checker against log size: a serial log of
// records / 2 committed transactions, each reading one of ~records / 8
// copies and writing another.
void BM_SerializabilityCheck(benchmark::State& state) {
  const std::uint64_t records = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t copies = std::max<std::uint64_t>(1, records / 8);
  ImplementationLog log;
  CommittedSet committed;
  for (TxnId t = 1; t <= records / 2; ++t) {
    log.Append(CopyId{static_cast<ItemId>((t * 7919) % copies), 1}, t, 1,
               OpType::kRead);
    log.Append(CopyId{static_cast<ItemId>(t % copies), 1}, t, 1,
               OpType::kWrite);
    committed.emplace_back(t, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConflictGraphChecker::Check(log, committed));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerializabilityCheck)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator zipf(100000, 0.8);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_StlEvaluate(benchmark::State& state) {
  SystemParams sys;
  sys.lambda_a = 100;
  sys.lambda_r = 0.4;
  sys.lambda_w = 0.6;
  sys.k_avg = 4;
  StlEvaluator ev(sys, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.Evaluate(10, 0.2));
  }
}
BENCHMARK(BM_StlEvaluate)->Arg(16)->Arg(32)->Arg(48)->Arg(128);

// A selector-shaped STL' input: the selector's 32-point grid, a lock hold
// of tens of milliseconds, and λ_new sized so that escalating from the
// transaction's own loss Λ_t = 20 to saturation takes `levels` levels (the
// min-STL benchmark workload averages ~150, at most ~450).
SystemParams SelectorShapedSys(int levels) {
  SystemParams sys;
  sys.lambda_a = 400;
  sys.q_r = 0.7;
  sys.k_avg = 6;
  const double lnew = (sys.lambda_a - 20) / (levels - 0.5);
  sys.lambda_w = 0.4 * lnew;
  sys.lambda_r = 0.6 * lnew / (1 - sys.q_r);
  return sys;
}

void BM_StlEvaluateSelectorShaped(benchmark::State& state) {
  const StlEvaluator ev(SelectorShapedSys(static_cast<int>(state.range(0))),
                        32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.Evaluate(20, 0.03));
  }
}
BENCHMARK(BM_StlEvaluateSelectorShaped)->Arg(150)->Arg(450);

// One selector refresh: the three protocol mixtures on one snapshot. With
// arg 0 every abort/reject probability is zero, so each mixture evaluates
// only its success branch; with arg 1 all six STL' evaluations run.
void BM_StlMixtures(benchmark::State& state) {
  const StlEvaluator ev(SelectorShapedSys(150), 32);
  const TxnShape shape{4, 2};
  ProtocolParams p;
  p.u_lock = 0.03;
  p.u_lock_aborted = 0.012;
  if (state.range(0) != 0) {
    p.p_abort = 0.02;
    p.p_reject_read = 0.01;
    p.p_reject_write = 0.03;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Stl2pl(ev, shape, p) + StlTo(ev, shape, p) +
                             StlPa(ev, shape, p));
  }
}
BENCHMARK(BM_StlMixtures)->Arg(0)->Arg(1);

}  // namespace
}  // namespace unicc

BENCHMARK_MAIN();
