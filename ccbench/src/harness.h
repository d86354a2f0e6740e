// The repo benchmark's measurement core: runs one benchmark workload
// through the public RunRequest -> RunSession entrypoint, reads the
// finished engine only through its public post-run inspection, checks the
// correctness oracles, and turns the outcome into typed result rows.
//
// Time bases: "host" is wall time of this process (steady_clock);
// "simulated" is the model's clock. System time S of a transaction counts
// from its arrival's due time (including time parked at the MPL cap) to
// its commit.
#ifndef CCBENCH_HARNESS_H_
#define CCBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/message.h"
#include "runner/runner.h"
#include "scenario/scenario.h"

namespace ccbench {

class SpanRecorder;

// One benchmark workload: a scenario file pinned under ccbench/workloads/.
struct WorkloadDef {
  std::string_view name;
  std::string_view file;  // relative to the checkout root
  // Simulations per repetition, each with its own engine seed derived
  // from the benchmark seed; simulated metrics pool all of them. More
  // than one where a single simulation's tail is too seed-dependent.
  std::uint32_t sims = 1;
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(std::string_view name);

// Engine seed of simulation `index` of a run with benchmark seed `seed`.
std::uint64_t SimSeed(std::uint64_t seed, std::uint32_t index);

// Host-time measurements of one simulation, in seconds.
struct HostTimes {
  double load_s = 0;    // ScenarioSpec::LoadFile (parse + validation)
  double gen_s = 0;     // BuildWorkload (batch) or Open (streamed)
  double create_s = 0;  // RunSession::Create
  double run_s = 0;     // RunSession::Run, in-run verification included
  double ser_check_s = 0;      // Engine::CheckSerializability, re-called
  double replica_check_s = 0;  // Engine::ReplicasConsistent, re-called
  double setup_s() const { return load_s + gen_s + create_s; }
  double verify_s() const { return ser_check_s + replica_check_s; }
};

// The simulated outcome of one simulation, read off the finished engine.
struct SimOutcome {
  std::uint64_t offered = 0;  // transactions the workload offered
  std::uint64_t admitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t goodput = 0;  // commits that met their deadline
  std::uint64_t shed = 0;
  std::uint64_t retried = 0;
  std::uint64_t expired = 0;
  std::uint64_t restarts = 0;  // extra attempts, all causes
  std::uint64_t reject_restarts = 0;
  std::uint64_t backoff_rounds = 0;
  std::uint64_t deadlock_victims = 0;
  std::array<std::uint64_t, unicc::kNumProtocols> committed_by_proto{};
  std::array<std::uint64_t,
             static_cast<std::size_t>(unicc::MessageKind::kNumKinds)>
      msgs_by_kind{};
  std::uint64_t events = 0;
  std::uint64_t log_records = 0;
  std::uint64_t copies = 0;  // physical copies (items x replication)
  std::uint64_t selector_calls = 0;  // in-run MinStlSelector::Choose calls
  unicc::SimTime makespan = 0;
  std::vector<unicc::Duration> system_times;  // sorted, one per commit
  // Empty when every oracle held; otherwise what failed.
  std::string oracle_failure;

  std::uint64_t Messages() const;
  std::uint64_t CcMessages() const;   // RunStats::cc_msgs_per_txn's kinds
  std::uint64_t WfgMessages() const;  // snapshot request/reply + victim
};

// Reads the outcome off a finished engine through its public post-run
// inspection. `offered` is the number of transactions the workload offered.
SimOutcome Extract(unicc::Engine& engine, const unicc::ScenarioSpec& spec,
                   std::uint64_t offered);

// Behaviour fingerprint: FNV-1a over commits per protocol, restarts,
// messages by kind, makespan and the sorted system times.
std::uint64_t Fingerprint(const SimOutcome& o);

// Checks the correctness oracles on a finished run and returns what
// failed (empty when all hold): serializable, replica-consistent,
// committed + expired + (shed - retried) == offered, and an OK watchdog.
std::string CheckOracles(const unicc::runner::RunReport& report,
                         bool serializable, bool replicas_consistent,
                         std::uint64_t offered);

// Per-layer costs the traced pass measures by replaying a layer's public
// calls against the finished run.
struct ReplayTimes {
  double choose_total_s = 0;  // MinStlSelector::Choose over the run's specs
  std::uint64_t choose_calls = 0;
  double evaluate_us = 0;  // StlEvaluator::Evaluate, median per call
};

// One simulation: set-up, run, verification re-call, extraction. With a
// recorder, every public call is wrapped in a span and the selector / STL
// replays run after the simulation.
struct SimResult {
  HostTimes host;
  SimOutcome outcome;
  // Traced runs of workloads whose policy calls the selector only.
  std::optional<ReplayTimes> replay;
};
SimResult RunSimulation(const std::string& root, const WorkloadDef& wl,
                        std::uint64_t engine_seed, SpanRecorder* spans);

// Exact nearest-rank percentile of sorted samples, in ms. Returns nullopt
// unless at least `min_beyond` samples lie strictly beyond the rank.
std::optional<double> TailPercentileMs(
    const std::vector<unicc::Duration>& sorted, double p,
    std::size_t min_beyond = 10);

// The simulated end-to-end row of a run, pooled over its simulations.
struct SimRow {
  std::uint64_t samples = 0;  // committed transactions (system times)
  double p50_ms = 0;
  std::optional<double> p99_ms;  // withheld below 10 samples beyond it
  double goodput_tx_s = 0;       // goodput per simulated second
  double failed_frac = 0;        // 1.0 when any oracle failed
};
SimRow PoolSimulated(const std::vector<SimOutcome>& sims);

// The host end-to-end row of a run: medians over its simulations.
struct HostRow {
  double setup_s = 0;
  double txn_per_s = 0;  // committed per host second of RunSession::Run
  double verify_s = 0;
  double peak_rss_mb = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Every end-to-end metric with its unit, in BENCHMARK.json order.
// sim_p99_ms is left out when the row withholds it; ontime_frac is
// 1 - failed_frac (a metric that is never 0 on a correct run).
std::vector<Metric> EndToEndMetrics(const HostRow& host, const SimRow& sim);

double Median(std::vector<double> v);

}  // namespace ccbench

#endif  // CCBENCH_HARNESS_H_
