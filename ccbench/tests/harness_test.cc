// Self-tests of the benchmark's measurement core: extraction agrees with
// the runner's own row data, the p99 withholding rule, the overload
// failure fraction, and the oracle-failure path.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"

namespace ccbench {
namespace {

using namespace unicc;

const char kSmallMixed[] = R"(
[scenario]
name = small
[engine]
user_sites = 3
data_sites = 3
items = 24
replication = 2
delay_ms = 2
jitter_ms = 1
seed = 5
[policy]
kind = minstl
[run]
keep_results = true
[class main]
txns = 300
rate = 200
size = 2..4
read_fraction = 0.5
)";

ScenarioSpec ParseOrDie(const std::string& text) {
  auto spec = ScenarioSpec::Parse(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

ScenarioSpec LoadWorkload(const std::string& name) {
  const WorkloadDef* wl = FindWorkload(name);
  EXPECT_NE(wl, nullptr);
  auto spec = ScenarioSpec::LoadFile(std::string(CCBENCH_ROOT) + "/" +
                                     std::string(wl->file));
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

TEST(ExtractTest, MatchesRunStatsOnASmallRun) {
  const ScenarioSpec spec = ParseOrDie(kSmallMixed);
  const ScenarioSpec::Workload wl = spec.BuildWorkload();
  runner::RunRequest request;
  request.spec = &spec;
  request.arrivals = &wl.arrivals;
  request.forced = wl.forced;
  auto session = runner::RunSession::Create(std::move(request));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const runner::RunReport report = (*session)->Run();
  const runner::RunStats& st = report.stats;

  const SimOutcome o =
      Extract(*(*session)->engine(), spec, wl.arrivals.size());
  EXPECT_EQ(o.committed, st.committed);
  EXPECT_EQ(o.admitted, st.admitted);
  EXPECT_EQ(o.goodput, st.goodput);
  EXPECT_EQ(o.shed, st.shed);
  EXPECT_EQ(o.expired, st.expired);
  EXPECT_EQ(o.retried, st.retried);
  EXPECT_EQ(o.deadlock_victims, st.deadlock_victims);
  EXPECT_EQ(o.reject_restarts, st.reject_restarts);
  EXPECT_EQ(o.backoff_rounds, st.backoff_rounds);
  EXPECT_EQ(o.log_records, st.log_records);
  EXPECT_EQ(o.makespan, st.makespan);
  EXPECT_EQ(o.Messages(), st.total_messages);
  EXPECT_EQ(o.events, report.events_run);
  for (int p = 0; p < kNumProtocols; ++p) {
    EXPECT_EQ(o.committed_by_proto[p], st.committed_by_proto[p]) << p;
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(o.CcMessages()) /
                       static_cast<double>(o.committed),
                   st.cc_msgs_per_txn);
  ASSERT_EQ(o.system_times.size(), st.committed);
  const double mean_ms =
      std::accumulate(o.system_times.begin(), o.system_times.end(), 0.0) /
      static_cast<double>(o.system_times.size()) / kMillisecond;
  EXPECT_NEAR(mean_ms, st.mean_s_ms, 1e-9 * mean_ms);
  EXPECT_EQ(o.selector_calls, st.admitted);  // min-STL: one per admission
  EXPECT_EQ(o.copies, 48u);

  const SimRow row = PoolSimulated({o});
  EXPECT_EQ(row.samples, st.committed);
  EXPECT_NEAR(row.goodput_tx_s, st.throughput, 1e-9 * st.throughput);
  EXPECT_EQ(row.failed_frac, 0.0);
}

std::vector<Duration> Ramp(std::size_t n) {
  std::vector<Duration> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = (i + 1) * kMillisecond;
  return v;
}

TEST(TailTest, P99WithheldBelowTenSamplesBeyond) {
  // 999 samples: the p99 rank is 990, leaving 9 beyond it.
  EXPECT_FALSE(TailPercentileMs(Ramp(999), 99).has_value());
  // 1000 samples: rank 990 leaves exactly 10 beyond it.
  ASSERT_TRUE(TailPercentileMs(Ramp(1000), 99).has_value());
  EXPECT_DOUBLE_EQ(*TailPercentileMs(Ramp(1000), 99), 990.0);
  EXPECT_DOUBLE_EQ(*TailPercentileMs(Ramp(1000), 50, 0), 500.0);

  SimOutcome small;
  small.system_times = Ramp(500);
  small.offered = small.committed = small.goodput = 500;
  small.makespan = 2 * kSecond;
  const SimRow row = PoolSimulated({small});
  EXPECT_FALSE(row.p99_ms.has_value());
  for (const Metric& m : EndToEndMetrics(HostRow{}, row)) {
    EXPECT_NE(m.name, "sim_p99_ms");
  }
  // Pooling two simulations reaches the 1,000 samples the p99 needs.
  SimOutcome other = small;
  other.system_times = Ramp(500);
  const SimRow pooled = PoolSimulated({small, other});
  EXPECT_EQ(pooled.samples, 1000u);
  EXPECT_TRUE(pooled.p99_ms.has_value());
  EXPECT_EQ(EndToEndMetrics(HostRow{}, pooled).size(), 8u);
}

TEST(OverloadTest, FailedFracIsOneMinusGoodputOverOffered) {
  ScenarioSpec spec = LoadWorkload("overload_open");
  ASSERT_TRUE(spec.IsOpenSystem());
  // A shorter run of the same workload keeps the test quick.
  spec.classes[0].txns = 4000;
  runner::RunRequest request;
  request.spec = &spec;
  auto session = runner::RunSession::Create(std::move(request));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const runner::RunReport report = (*session)->Run();
  const std::uint64_t offered = spec.TotalTxns();
  const RunMetrics& m = (*session)->metrics();

  const SimOutcome o = Extract(*(*session)->engine(), spec, offered);
  EXPECT_EQ(CheckOracles(report, true, true, offered), "");
  const SimRow row = PoolSimulated({o});
  EXPECT_GT(m.shed(), 0u);
  EXPECT_DOUBLE_EQ(row.failed_frac,
                   1.0 - static_cast<double>(m.goodput_committed()) /
                             static_cast<double>(offered));
  EXPECT_GT(row.failed_frac, 0.0);
  EXPECT_LT(row.failed_frac, 1.0);
}

TEST(OracleTest, FailurePathCountsEveryOfferedTransaction) {
  SimOutcome o;
  o.offered = o.committed = o.goodput = 1000;
  o.system_times = Ramp(1000);
  o.makespan = kSecond;
  EXPECT_EQ(PoolSimulated({o}).failed_frac, 0.0);

  o.oracle_failure = " history not serializable;";
  const SimRow row = PoolSimulated({o});
  EXPECT_EQ(row.failed_frac, 1.0);
  for (const Metric& m : EndToEndMetrics(HostRow{}, row)) {
    if (m.name == "ontime_frac") {
      EXPECT_EQ(m.value, 0.0);
    }
  }
}

TEST(OracleTest, EachOracleReportsItsFailure) {
  runner::RunReport report;
  report.stats.committed = 90;
  report.stats.expired = 4;
  report.stats.shed = 10;
  report.stats.retried = 4;
  EXPECT_EQ(CheckOracles(report, true, true, 100), "");
  EXPECT_NE(CheckOracles(report, false, true, 100).find("serializable"),
            std::string::npos);
  EXPECT_NE(CheckOracles(report, true, false, 100).find("replicas"),
            std::string::npos);
  EXPECT_NE(CheckOracles(report, true, true, 101).find("accounting"),
            std::string::npos);
  report.status = Status::FailedPrecondition("run stalled");
  EXPECT_NE(CheckOracles(report, true, true, 100).find("watchdog"),
            std::string::npos);
}

TEST(WorkloadTest, EveryWorkloadPassesItsOraclesAndRepeatsExactly) {
  for (const WorkloadDef& wl : Workloads()) {
    const SimResult a = RunSimulation(CCBENCH_ROOT, wl, SimSeed(7, 0), nullptr);
    const SimResult b = RunSimulation(CCBENCH_ROOT, wl, SimSeed(7, 0), nullptr);
    EXPECT_EQ(a.outcome.oracle_failure, "") << wl.name;
    EXPECT_EQ(Fingerprint(a.outcome), Fingerprint(b.outcome)) << wl.name;
    EXPECT_GT(a.outcome.committed, 0u) << wl.name;
    EXPECT_GT(a.host.setup_s(), 0.0) << wl.name;
  }
}

TEST(SeedTest, SimSeedsAreDistinct) {
  EXPECT_NE(SimSeed(1, 0), SimSeed(1, 1));
  EXPECT_NE(SimSeed(1, 0), SimSeed(2, 0));
  EXPECT_EQ(SimSeed(3, 4), SimSeed(3, 4));
}

}  // namespace
}  // namespace ccbench
