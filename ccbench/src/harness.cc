#include "harness.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "selector/selector.h"
#include "stl/estimators.h"
#include "trace.h"

namespace ccbench {

using namespace unicc;

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kWorkloads = {
      {"ycsb_macro", "ccbench/workloads/ycsb_macro.ini", 8},
      {"minstl_shift", "ccbench/workloads/minstl_shift.ini", 200},
      {"overload_open", "ccbench/workloads/overload_open.ini", 8},
  };
  return kWorkloads;
}

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t SimSeed(std::uint64_t seed, std::uint32_t index) {
  // splitmix64 of (seed, index): distinct, well-mixed engine seeds.
  std::uint64_t z = seed * 0x100000001b3ull + index + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

constexpr MessageKind kCcKinds[] = {
    MessageKind::kCcRequest, MessageKind::kGrant,   MessageKind::kBackoff,
    MessageKind::kPaAccept,  MessageKind::kFinalTs, MessageKind::kReject,
    MessageKind::kRelease,   MessageKind::kSemiTransform,
    MessageKind::kAbortTxn};
constexpr MessageKind kWfgKinds[] = {MessageKind::kWfgSnapshotRequest,
                                     MessageKind::kWfgSnapshotReply,
                                     MessageKind::kVictim};

void Mix(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 0x100000001b3ull;
  }
}

// Times `f` into `*seconds`, inside a span when tracing.
template <typename F>
auto Timed(SpanRecorder* spans, const std::string& name, double* seconds,
           F&& f) {
  ScopedSpan span(spans, name);
  const Clock::time_point start = Clock::now();
  auto out = f();
  *seconds = SecondsSince(start);
  return out;
}

template <typename T>
T ValueOrThrow(StatusOr<T> s, const std::string& what) {
  if (!s.ok()) throw std::runtime_error(what + ": " + s.status().ToString());
  return std::move(s).value();
}

}  // namespace

SimOutcome Extract(Engine& engine, const ScenarioSpec& spec,
                   std::uint64_t offered) {
  SimOutcome o;
  const RunMetrics& m = engine.metrics();
  o.offered = offered;
  o.admitted = engine.admitted();
  o.committed = m.total_committed();
  o.goodput = m.goodput_committed();
  o.shed = m.shed();
  o.retried = m.retried();
  o.expired = m.expired();
  o.reject_restarts = m.reject_restarts();
  for (int p = 0; p < kNumProtocols; ++p) {
    const ProtocolStats& ps = m.ForProtocol(static_cast<Protocol>(p));
    o.committed_by_proto[p] = ps.committed;
    o.restarts += ps.restarts;
    o.backoff_rounds += ps.backoff_rounds;
  }
  o.deadlock_victims = engine.deadlock_victim_count();
  for (std::size_t k = 0; k < o.msgs_by_kind.size(); ++k) {
    o.msgs_by_kind[k] =
        engine.transport().MessagesOfKind(static_cast<MessageKind>(k));
  }
  o.events = engine.simulator().EventsRun();
  o.log_records = engine.log().TotalRecords();
  o.copies = static_cast<std::uint64_t>(spec.engine.num_items) *
             spec.engine.replication;
  if (spec.policy.kind == ScenarioPolicy::Kind::kMinStl) {
    o.selector_calls = o.admitted;  // the policy runs once per admission
  }
  o.system_times.reserve(m.results().size());
  for (const TxnResult& r : m.results()) {
    o.system_times.push_back(r.SystemTime());
    o.makespan = std::max(o.makespan, r.commit);
  }
  std::sort(o.system_times.begin(), o.system_times.end());
  return o;
}

namespace {

// Replays the layers the engine calls internally against the finished
// run: MinStlSelector::Choose over the run's specs with the run's final
// estimator, and StlEvaluator::Evaluate on that estimator's snapshot.
ReplayTimes Replay(runner::RunSession& session, const SimOutcome& o,
                   const std::vector<WorkloadGenerator::Arrival>& arrivals,
                   SpanRecorder* spans) {
  ReplayTimes out;
  Engine& engine = *session.engine();
  const ParamEstimator& est = session.estimator();
  {
    ScopedSpan span(spans, "selector.choose");
    MinStlSelector selector(&engine.simulator(), &est, o.copies);
    const Clock::time_point start = Clock::now();
    for (const WorkloadGenerator::Arrival& a : arrivals) {
      selector.Choose(a.spec);
    }
    out.choose_total_s = SecondsSince(start);
    out.choose_calls = arrivals.size();
  }
  {
    ScopedSpan span(spans, "stl.evaluate");
    double reads = 0;
    double writes = 0;
    for (const WorkloadGenerator::Arrival& a : arrivals) {
      reads += static_cast<double>(a.spec.read_set.size());
      writes += static_cast<double>(a.spec.write_set.size());
    }
    const double n = std::max<double>(1, static_cast<double>(arrivals.size()));
    const TxnShape shape{static_cast<int>(std::lround(reads / n)),
                         static_cast<int>(std::lround(writes / n))};
    const SystemParams sys =
        est.Snapshot(engine.simulator().Now(), o.copies);
    const StlEvaluator ev(sys, SelectorOptions{}.grid_points);
    const double lambda = LambdaT(sys, shape);
    std::vector<double> args;
    for (int p = 0; p < kNumProtocols; ++p) {
      const ProtocolParams pp = est.For(static_cast<Protocol>(p));
      args.push_back(pp.u_lock);
      args.push_back(pp.u_lock_aborted);
    }
    std::vector<double> per_call_us;
    double sink = 0;
    const Clock::time_point until_start = Clock::now();
    while (per_call_us.size() < 5 ||
           (per_call_us.size() < 2000 && SecondsSince(until_start) < 0.02)) {
      const Clock::time_point start = Clock::now();
      for (const double u : args) sink += ev.Evaluate(lambda, u);
      per_call_us.push_back(SecondsSince(start) * 1e6 /
                            static_cast<double>(args.size()));
    }
    if (std::isnan(sink)) throw std::logic_error("STL evaluation is NaN");
    out.evaluate_us = Median(per_call_us);
  }
  return out;
}

}  // namespace

std::uint64_t SimOutcome::Messages() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : msgs_by_kind) n += c;
  return n;
}

std::uint64_t SimOutcome::CcMessages() const {
  std::uint64_t n = 0;
  for (const MessageKind k : kCcKinds) {
    n += msgs_by_kind[static_cast<std::size_t>(k)];
  }
  return n;
}

std::uint64_t SimOutcome::WfgMessages() const {
  std::uint64_t n = 0;
  for (const MessageKind k : kWfgKinds) {
    n += msgs_by_kind[static_cast<std::size_t>(k)];
  }
  return n;
}

std::uint64_t Fingerprint(const SimOutcome& o) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t c : o.committed_by_proto) Mix(&h, c);
  Mix(&h, o.restarts);
  Mix(&h, o.reject_restarts);
  Mix(&h, o.backoff_rounds);
  Mix(&h, o.deadlock_victims);
  Mix(&h, o.shed);
  Mix(&h, o.retried);
  Mix(&h, o.expired);
  for (const std::uint64_t c : o.msgs_by_kind) Mix(&h, c);
  Mix(&h, o.makespan);
  for (const Duration d : o.system_times) Mix(&h, d);
  return h;
}

std::string CheckOracles(const runner::RunReport& report, bool serializable,
                         bool replicas_consistent, std::uint64_t offered) {
  std::string why;
  if (!serializable) why += " history not serializable;";
  if (!replicas_consistent) why += " replicas diverged;";
  const runner::RunStats& st = report.stats;
  const std::uint64_t accounted =
      st.committed + st.expired + (st.shed - st.retried);
  if (st.retried > st.shed || accounted != offered) {
    why += " accounting: committed " + std::to_string(st.committed) +
           " + expired " + std::to_string(st.expired) + " + (shed " +
           std::to_string(st.shed) + " - retried " +
           std::to_string(st.retried) + ") != offered " +
           std::to_string(offered) + ";";
  }
  if (!report.status.ok()) {
    why += " watchdog: " + report.status.ToString() + ";";
  }
  return why;
}

SimResult RunSimulation(const std::string& root, const WorkloadDef& wl,
                        std::uint64_t engine_seed, SpanRecorder* spans) {
  SimResult res;
  HostTimes& t = res.host;
  ScopedSpan sim_span(spans, "simulation");
  ScenarioSpec spec = Timed(spans, "scenario.load", &t.load_s, [&] {
    const std::string path = root + "/" + std::string(wl.file);
    return ValueOrThrow(ScenarioSpec::LoadFile(path), "loading " + path);
  });
  if (!spec.engine.keep_results) {
    throw std::runtime_error(std::string(wl.file) +
                             ": workloads must set [run] keep_results");
  }
  const bool streamed = spec.IsOpenSystem();
  if (streamed && (spec.engine.run.time_horizon != 0 ||
                   spec.engine.run.commit_target != 0)) {
    throw std::runtime_error(std::string(wl.file) +
                             ": a streamed workload must offer its whole "
                             "class (no horizon or commit target)");
  }
  spec.engine.seed = engine_seed;

  ScenarioSpec::Workload batch;
  const std::uint64_t offered = Timed(spans, "workload.gen", &t.gen_s, [&] {
    if (streamed) {
      // The run opens its own stream; this times the materialization a
      // streamed workload pays up front (O(classes)).
      if (spec.Open().stream == nullptr) throw std::logic_error("no stream");
      return spec.TotalTxns();
    }
    batch = spec.BuildWorkload();
    return static_cast<std::uint64_t>(batch.arrivals.size());
  });

  runner::RunRequest request;
  request.spec = &spec;
  if (!streamed) {
    request.arrivals = &batch.arrivals;
    request.forced = batch.forced;
  }
  std::unique_ptr<runner::RunSession> session =
      Timed(spans, "runner.create", &t.create_s, [&] {
        return ValueOrThrow(runner::RunSession::Create(std::move(request)),
                            "RunSession::Create");
      });
  const runner::RunReport report =
      Timed(spans, "runner.run", &t.run_s, [&] { return session->Run(); });
  Engine* engine = session->engine();
  if (engine == nullptr) throw std::logic_error("sharded runs unsupported");

  const bool serializable =
      Timed(spans, "serializability.check", &t.ser_check_s,
            [&] { return engine->CheckSerializability().serializable; });
  const bool consistent =
      Timed(spans, "engine.replica_check", &t.replica_check_s,
            [&] { return engine->ReplicasConsistent(); });

  res.outcome = Extract(*engine, spec, offered);
  res.outcome.oracle_failure =
      CheckOracles(report, serializable && report.stats.serializable,
                   consistent && report.stats.replicas_consistent, offered);

  // The selector and STL layers run only under a selector policy; on
  // fixed-protocol workloads they are absent and not replayed.
  if (spans != nullptr && res.outcome.selector_calls > 0) {
    res.replay = Replay(*session, res.outcome, batch.arrivals, spans);
  }
  return res;
}

std::optional<double> TailPercentileMs(const std::vector<Duration>& sorted,
                                       double p, std::size_t min_beyond) {
  const std::size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  const std::size_t r = std::clamp<std::size_t>(rank, 1, n);
  if (n - r < min_beyond) return std::nullopt;
  return static_cast<double>(sorted[r - 1]) / kMillisecond;
}

SimRow PoolSimulated(const std::vector<SimOutcome>& sims) {
  SimRow row;
  std::vector<Duration> all;
  std::uint64_t offered = 0;
  std::uint64_t goodput = 0;
  double makespan_s = 0;
  bool oracles_ok = true;
  for (const SimOutcome& o : sims) {
    all.insert(all.end(), o.system_times.begin(), o.system_times.end());
    offered += o.offered;
    goodput += o.goodput;
    makespan_s += static_cast<double>(o.makespan) / kSecond;
    oracles_ok = oracles_ok && o.oracle_failure.empty();
  }
  std::sort(all.begin(), all.end());
  row.samples = all.size();
  row.p50_ms = TailPercentileMs(all, 50, 0).value_or(0);
  row.p99_ms = TailPercentileMs(all, 99);
  row.goodput_tx_s = makespan_s > 0 ? static_cast<double>(goodput) / makespan_s
                                    : 0;
  row.failed_frac =
      !oracles_ok || offered == 0
          ? 1.0
          : static_cast<double>(offered - goodput) /
                static_cast<double>(offered);
  return row;
}

std::vector<Metric> EndToEndMetrics(const HostRow& host, const SimRow& sim) {
  std::vector<Metric> m = {
      {"setup_s", host.setup_s, "s"},
      {"host_txn_per_s", host.txn_per_s, "txn/s"},
      {"verify_s", host.verify_s, "s"},
      {"peak_rss_mb", host.peak_rss_mb, "MB"},
      {"sim_p50_ms", sim.p50_ms, "ms"},
  };
  if (sim.p99_ms.has_value()) m.push_back({"sim_p99_ms", *sim.p99_ms, "ms"});
  m.push_back({"goodput_tx_s", sim.goodput_tx_s, "txn/s"});
  m.push_back({"ontime_frac", 1.0 - sim.failed_frac, "ratio"});
  return m;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace ccbench
