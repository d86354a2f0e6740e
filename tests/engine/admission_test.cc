// Overload control: the bounded admission gate and its engine wiring.
//
// The first half exercises AdmissionGate directly — shed-victim choice
// per policy, pop order, removal — since the gate is a pure data
// structure. The second half drives full scenario runs through the gate
// and checks the outcome accounting (every offered transaction ends
// exactly once as committed, expired or dropped), determinism of the
// shed/expire/retry paths, and the scenario-level validation of the new
// [run]/[class] keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/admission.h"
#include "engine/engine.h"
#include "runner/runner.h"
#include "scenario/scenario.h"
#include "test_util.h"
#include "workload/stream.h"

namespace unicc {
namespace {

using runner::RunReport;
using runner::RunRequest;
using runner::RunSession;

AdmissionGate::Entry E(std::uint64_t seq, std::uint32_t priority = 0,
                       SimTime deadline = 0) {
  AdmissionGate::Entry e;
  e.seq = seq;
  e.priority = priority;
  e.deadline = deadline;
  return e;
}

TEST(ShedPolicyTest, TokensRoundTrip) {
  for (ShedPolicy p : {ShedPolicy::kBlock, ShedPolicy::kDropNewest,
                       ShedPolicy::kDropOldest, ShedPolicy::kDeadline}) {
    ShedPolicy back = ShedPolicy::kBlock;
    ASSERT_TRUE(ParseShedPolicy(ShedPolicyToken(p), &back));
    EXPECT_EQ(back, p);
  }
  ShedPolicy out;
  EXPECT_FALSE(ParseShedPolicy("lifo", &out));
  EXPECT_FALSE(ParseShedPolicy("", &out));
}

TEST(AdmissionGateTest, PopsByPriorityThenFifo) {
  AdmissionGate gate(8, ShedPolicy::kDropNewest);
  AdmissionGate::Entry shed;
  ASSERT_TRUE(gate.Offer(E(1, 0), &shed));
  ASSERT_TRUE(gate.Offer(E(2, 2), &shed));
  ASSERT_TRUE(gate.Offer(E(3, 1), &shed));
  ASSERT_TRUE(gate.Offer(E(4, 2), &shed));
  EXPECT_EQ(gate.PopBest().seq, 2u);  // highest priority, oldest first
  EXPECT_EQ(gate.PopBest().seq, 4u);
  EXPECT_EQ(gate.PopBest().seq, 3u);
  EXPECT_EQ(gate.PopBest().seq, 1u);
  EXPECT_TRUE(gate.empty());
}

TEST(AdmissionGateTest, DropNewestShedsTheIncomingArrival) {
  AdmissionGate gate(2, ShedPolicy::kDropNewest);
  AdmissionGate::Entry shed;
  ASSERT_TRUE(gate.Offer(E(1), &shed));
  ASSERT_TRUE(gate.Offer(E(2), &shed));
  EXPECT_FALSE(gate.Offer(E(3, /*priority=*/9), &shed));
  EXPECT_EQ(shed.seq, 3u);  // even a high-priority arrival: newest loses
  EXPECT_EQ(gate.size(), 2u);
}

TEST(AdmissionGateTest, DropOldestEvictsOldestLowestPriority) {
  AdmissionGate gate(3, ShedPolicy::kDropOldest);
  AdmissionGate::Entry shed;
  ASSERT_TRUE(gate.Offer(E(1, 1), &shed));
  ASSERT_TRUE(gate.Offer(E(2, 0), &shed));
  ASSERT_TRUE(gate.Offer(E(3, 0), &shed));
  // Victim is seq 2: oldest among the lowest priority present (0), not
  // the globally oldest seq 1 (priority 1).
  EXPECT_FALSE(gate.Offer(E(4, 0), &shed));
  EXPECT_EQ(shed.seq, 2u);
  EXPECT_EQ(gate.size(), 3u);
  EXPECT_EQ(gate.PopBest().seq, 1u);
  EXPECT_EQ(gate.PopBest().seq, 3u);
  EXPECT_EQ(gate.PopBest().seq, 4u);  // the incoming arrival kept a slot
}

TEST(AdmissionGateTest, DeadlineShedsEarliestDeadline) {
  AdmissionGate gate(2, ShedPolicy::kDeadline);
  AdmissionGate::Entry shed;
  ASSERT_TRUE(gate.Offer(E(1, 0, /*deadline=*/100), &shed));
  ASSERT_TRUE(gate.Offer(E(2, 0, /*deadline=*/300), &shed));
  // The parked entry at 100 is the least likely to make it; the incoming
  // arrival (deadline 200) takes its slot.
  EXPECT_FALSE(gate.Offer(E(3, 0, /*deadline=*/200), &shed));
  EXPECT_EQ(shed.seq, 1u);
  // Now 200 (seq 3) and 300 (seq 2) are parked; an incoming arrival with
  // the earliest deadline sheds itself.
  EXPECT_FALSE(gate.Offer(E(4, 0, /*deadline=*/150), &shed));
  EXPECT_EQ(shed.seq, 4u);
}

TEST(AdmissionGateTest, DeadlineTreatsZeroAsInfinitelyPatient) {
  AdmissionGate gate(2, ShedPolicy::kDeadline);
  AdmissionGate::Entry shed;
  ASSERT_TRUE(gate.Offer(E(1, 0, /*deadline=*/0), &shed));
  ASSERT_TRUE(gate.Offer(E(2, 0, /*deadline=*/500), &shed));
  // A deadline-free entry is never chosen over a deadlined one: the
  // victim is the incoming arrival (400), not parked seq 1.
  EXPECT_FALSE(gate.Offer(E(3, 0, /*deadline=*/400), &shed));
  EXPECT_EQ(shed.seq, 3u);
  // All deadline-free: the oldest seq loses first.
  AdmissionGate patient(2, ShedPolicy::kDeadline);
  ASSERT_TRUE(patient.Offer(E(7), &shed));
  ASSERT_TRUE(patient.Offer(E(8), &shed));
  EXPECT_FALSE(patient.Offer(E(9), &shed));
  EXPECT_EQ(shed.seq, 7u);
}

TEST(AdmissionGateTest, RemoveBySequenceAndClear) {
  AdmissionGate gate(4, ShedPolicy::kDropNewest);
  AdmissionGate::Entry shed;
  ASSERT_TRUE(gate.Offer(E(1), &shed));
  ASSERT_TRUE(gate.Offer(E(2), &shed));
  ASSERT_TRUE(gate.Offer(E(3), &shed));
  AdmissionGate::Entry out;
  EXPECT_TRUE(gate.Remove(2, &out));
  EXPECT_EQ(out.seq, 2u);
  EXPECT_FALSE(gate.Remove(2, &out));  // already gone
  EXPECT_FALSE(gate.Remove(99, &out));
  EXPECT_EQ(gate.Clear(), 2u);
  EXPECT_TRUE(gate.empty());
}

// Model test: random Offer / PopBest / Remove / Clear sequences against a
// reference that keeps the parked entries in three ordered sets, one per
// pick rule (pop: highest priority then oldest; drop_oldest victim:
// lowest priority then oldest; deadline victim: earliest deadline, 0 last,
// then oldest). Every returned entry must be the one the rule names, with
// its payload intact (the gate stores keys and entries in parallel arrays
// and removes by swap-with-last, so a desync would show here).
struct GateModel {
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (rank, seq)
  std::map<std::uint64_t, AdmissionGate::Entry> parked;  // by seq
  std::set<Key> pop_order;     // (~priority, seq)
  std::set<Key> oldest_order;  // (priority, seq)
  std::set<Key> deadline_order;  // (deadline or ~0, seq)

  static std::uint64_t Patience(SimTime dl) { return dl == 0 ? ~SimTime{0} : dl; }
  void Add(const AdmissionGate::Entry& e) {
    parked[e.seq] = e;
    pop_order.insert({~std::uint64_t{e.priority}, e.seq});
    oldest_order.insert({e.priority, e.seq});
    deadline_order.insert({Patience(e.deadline), e.seq});
  }
  AdmissionGate::Entry Take(std::uint64_t seq) {
    const AdmissionGate::Entry e = parked.at(seq);
    parked.erase(seq);
    pop_order.erase({~std::uint64_t{e.priority}, e.seq});
    oldest_order.erase({e.priority, e.seq});
    deadline_order.erase({Patience(e.deadline), e.seq});
    return e;
  }
};

// The payload fields the gate never looks at, derived from seq so a
// returned entry can be checked whole.
AdmissionGate::Entry ModelEntry(std::uint64_t seq, Rng& rng) {
  AdmissionGate::Entry e =
      E(seq, static_cast<std::uint32_t>(rng.UniformInt(4)),
        rng.Bernoulli(0.2) ? 0 : 1 + rng.UniformInt(40));
  e.arrival.spec.id = seq * 3 + 1;
  e.arrival.spec.write_set = {static_cast<ItemId>(seq % 97)};
  e.resubmits = static_cast<std::uint32_t>(seq % 5);
  e.timer = seq * 7 + 2;
  return e;
}

void ExpectSameEntry(const AdmissionGate::Entry& got,
                     const AdmissionGate::Entry& want) {
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.priority, want.priority);
  EXPECT_EQ(got.deadline, want.deadline);
  EXPECT_EQ(got.resubmits, want.resubmits);
  EXPECT_EQ(got.timer, want.timer);
  EXPECT_EQ(got.arrival.spec.id, want.arrival.spec.id);
  EXPECT_EQ(got.arrival.spec.write_set, want.arrival.spec.write_set);
}

TEST(AdmissionGateTest, RandomOpsMatchReferenceModel) {
  for (ShedPolicy policy : {ShedPolicy::kDropNewest, ShedPolicy::kDropOldest,
                            ShedPolicy::kDeadline}) {
    SCOPED_TRACE(ShedPolicyToken(policy));
    constexpr std::uint32_t kLimit = 12;
    AdmissionGate gate(kLimit, policy);
    GateModel model;
    Rng rng(0x5eed + static_cast<std::uint64_t>(policy));
    std::uint64_t next_seq = 1;
    int sheds = 0;
    int incoming_shed = 0;
    for (int step = 0; step < 12000; ++step) {
      const std::uint64_t action = rng.UniformInt(100);
      if (action < 60) {
        const AdmissionGate::Entry e = ModelEntry(next_seq++, rng);
        AdmissionGate::Entry shed;
        const bool parked = gate.Offer(e, &shed);
        if (model.parked.size() < kLimit) {
          ASSERT_TRUE(parked);
          model.Add(e);
        } else {
          ASSERT_FALSE(parked);
          ++sheds;
          // The victim the policy names; the incoming entry competes only
          // under kDeadline and is the victim under kDropNewest.
          std::uint64_t victim = e.seq;
          if (policy == ShedPolicy::kDropOldest) {
            victim = model.oldest_order.begin()->second;
          } else if (policy == ShedPolicy::kDeadline) {
            const GateModel::Key in{GateModel::Patience(e.deadline), e.seq};
            if (*model.deadline_order.begin() < in) {
              victim = model.deadline_order.begin()->second;
            }
          }
          if (victim == e.seq) {
            ++incoming_shed;
            ExpectSameEntry(shed, e);
          } else {
            ExpectSameEntry(shed, model.Take(victim));
            model.Add(e);
          }
        }
      } else if (action < 80) {
        if (model.parked.empty()) continue;
        ExpectSameEntry(gate.PopBest(),
                        model.Take(model.pop_order.begin()->second));
      } else if (action < 98) {
        // A parked seq, or one that left already / never existed.
        std::uint64_t seq = 1 + rng.UniformInt(next_seq + 2);
        if (!model.parked.empty() && rng.Bernoulli(0.7)) {
          auto it = model.parked.begin();
          std::advance(it, static_cast<long>(rng.UniformInt(model.parked.size())));
          seq = it->first;
        }
        AdmissionGate::Entry out;
        const bool found = gate.Remove(seq, &out);
        ASSERT_EQ(found, model.parked.count(seq) == 1) << "seq " << seq;
        if (found) ExpectSameEntry(out, model.Take(seq));
      } else {
        ASSERT_EQ(gate.Clear(), model.parked.size());
        while (!model.parked.empty()) model.Take(model.parked.begin()->first);
      }
      ASSERT_EQ(gate.size(), model.parked.size()) << "step " << step;
      ASSERT_EQ(gate.empty(), model.parked.empty());
      std::vector<std::uint64_t> held;
      for (const AdmissionGate::Entry& e : gate.entries()) held.push_back(e.seq);
      std::sort(held.begin(), held.end());
      std::vector<std::uint64_t> want;
      for (const auto& [seq, e] : model.parked) want.push_back(seq);
      ASSERT_EQ(held, want) << "step " << step;
    }
    EXPECT_GT(sheds, 1000);
    // Both outcomes of a full gate are exercised where the policy has both.
    if (policy == ShedPolicy::kDropNewest) {
      EXPECT_EQ(incoming_shed, sheds);
    } else if (policy == ShedPolicy::kDropOldest) {
      EXPECT_EQ(incoming_shed, 0);
    } else {
      EXPECT_GT(incoming_shed, 100);
      EXPECT_LT(incoming_shed, sheds - 100);
    }
  }
}

// ---------------------------------------------------------------------
// Gate expiry timers in a live engine.

// Arrivals A, B, C one microsecond apart into a gate with one MPL slot and
// one parking place: A is admitted, B parks, C finds the gate full and the
// policy sheds B or C. The survivor is admitted when A commits. Every
// deadline is 10 s away, far past the few milliseconds the run needs, so
// no expiry should ever fire: once each entry has left the gate (admitted
// or shed) its expiry timer must no longer be pending, and the queue is
// empty long before the deadlines.
TEST(GateTimerTest, LeavingTheGateCancelsTheExpiryTimer) {
  for (ShedPolicy policy : {ShedPolicy::kDropNewest, ShedPolicy::kDropOldest,
                            ShedPolicy::kDeadline}) {
    SCOPED_TRACE(ShedPolicyToken(policy));
    EngineOptions eo = test::SmallEngine();
    eo.detector = DetectorKind::kNone;
    eo.run.max_inflight = 1;
    eo.run.queue_limit = 1;
    eo.run.shed_policy = policy;
    Engine engine(eo);
    std::vector<Arrival> arrivals;
    for (TxnId id = 1; id <= 3; ++id) {
      Arrival a;
      a.when = static_cast<SimTime>(id - 1);
      a.spec.id = id;
      a.spec.home = 0;
      a.spec.write_set = {static_cast<ItemId>(id)};
      a.spec.compute_time = kMillisecond;
      a.spec.deadline = 10 * kSecond;
      arrivals.push_back(std::move(a));
    }
    engine.SetArrivalStream(MakeVectorStream(std::move(arrivals)));
    Simulator& sim = engine.simulator();
    sim.RunUntil(2);  // all three offered; the survivor's timer is armed
    ASSERT_EQ(engine.admitted(), 1u);
    ASSERT_GT(sim.PendingEvents(), 0u);
    sim.RunUntil(1 * kSecond);
    EXPECT_EQ(engine.committed_count(), 2u);
    EXPECT_EQ(sim.PendingEvents(), 0u);
    EXPECT_EQ(sim.NextEventTime(), Simulator::kNoPending);
    const RunSummary s = engine.Run();
    EXPECT_EQ(s.committed, 2u);
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.expired, 0u);
  }
}

// ---------------------------------------------------------------------
// Scenario-driven engine runs through the gate.

// A 2x2 cluster whose offered load far exceeds the MPL-capped service
// capacity, so the gate is exercised hard. [run] is appended per test.
constexpr char kOverloadBase[] = R"(
[scenario]
name = overload-unit

[engine]
user_sites = 2
data_sites = 2
items = 32
delay_ms = 2
jitter_ms = 1
seed = 11

[policy]
kind = fixed
protocol = 2pl

[class main]
txns = 400
rate = 2000
size = 2..3
read_fraction = 0.5
compute_ms = 2
deadline_ms = 80
)";

ScenarioSpec OverloadSpec(const std::string& run_section) {
  auto spec = ScenarioSpec::Parse(std::string(kOverloadBase) + run_section);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(*spec);
}

RunReport RunSpec(const ScenarioSpec& spec) {
  RunRequest request;
  request.spec = &spec;
  auto session = RunSession::Create(std::move(request));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return RunReport{};
  return (*session)->Run();
}

// Every transaction offered to an overloaded run ends exactly once:
// committed, expired, or shed without a retry budget left (each retried
// shed re-enters, so it is not terminal).
void ExpectAccountsFor(const runner::RunStats& st, std::uint64_t txns) {
  EXPECT_EQ(st.committed + st.expired + (st.shed - st.retried), txns)
      << "committed=" << st.committed << " expired=" << st.expired
      << " shed=" << st.shed << " retried=" << st.retried;
}

TEST(OverloadRunTest, DropNewestShedsAndStaysSafe) {
  const ScenarioSpec spec = OverloadSpec(
      "\n[run]\nmax_inflight = 4\nqueue_limit = 8\n"
      "shed_policy = drop_newest\n");
  const RunReport r = RunSpec(spec);
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(r.stats.shed, 0u);
  EXPECT_GT(r.stats.committed, 0u);
  EXPECT_EQ(r.stats.retried, 0u);  // no retry budget configured
  EXPECT_TRUE(r.stats.serializable);
  EXPECT_TRUE(r.stats.replicas_consistent);
  ExpectAccountsFor(r.stats, 400);
}

TEST(OverloadRunTest, DeadlinePolicyExpiresLateWork) {
  // A budget tight enough that contended work cannot always make it even
  // once admitted, so the in-flight/parked expiry paths fire (with the
  // 80 ms default, the bounded queue keeps waits short and nothing
  // expires — that is the plateau the gate is for).
  std::string base(kOverloadBase);
  const std::size_t at = base.find("deadline_ms = 80");
  ASSERT_NE(at, std::string::npos);
  base.replace(at, std::string("deadline_ms = 80").size(),
               "deadline_ms = 25");
  auto parsed = ScenarioSpec::Parse(
      base +
      "\n[run]\nmax_inflight = 4\nqueue_limit = 8\n"
      "shed_policy = deadline\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ScenarioSpec spec = std::move(*parsed);
  const RunReport r = RunSpec(spec);
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(r.stats.shed, 0u);
  EXPECT_GT(r.stats.expired, 0u);  // the 80 ms budget bites under 5x load
  EXPECT_LE(r.stats.goodput, r.stats.committed);
  EXPECT_TRUE(r.stats.serializable);
  ExpectAccountsFor(r.stats, 400);
}

TEST(OverloadRunTest, RetriesReenterWithBackoff) {
  const ScenarioSpec spec = OverloadSpec(
      "\n[run]\nmax_inflight = 4\nqueue_limit = 8\n"
      "shed_policy = drop_oldest\nretry_limit = 2\n"
      "retry_ms = 5\nretry_max_ms = 20\n");
  const RunReport r = RunSpec(spec);
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(r.stats.shed, 0u);
  EXPECT_GT(r.stats.retried, 0u);
  EXPECT_LE(r.stats.retried, r.stats.shed);
  EXPECT_TRUE(r.stats.serializable);
  ExpectAccountsFor(r.stats, 400);
}

TEST(OverloadRunTest, ShedAndExpiryPathsAreDeterministic) {
  for (const char* policy : {"drop_newest", "drop_oldest", "deadline"}) {
    const std::string run =
        "\n[run]\nmax_inflight = 4\nqueue_limit = 8\nshed_policy = " +
        std::string(policy) +
        "\nretry_limit = 1\nretry_ms = 5\nretry_max_ms = 20\n";
    const ScenarioSpec spec = OverloadSpec(run);
    const RunReport a = RunSpec(spec);
    const RunReport b = RunSpec(spec);
    EXPECT_EQ(a.stats.committed, b.stats.committed) << policy;
    EXPECT_EQ(a.stats.shed, b.stats.shed) << policy;
    EXPECT_EQ(a.stats.expired, b.stats.expired) << policy;
    EXPECT_EQ(a.stats.retried, b.stats.retried) << policy;
    EXPECT_EQ(a.stats.goodput, b.stats.goodput) << policy;
    EXPECT_EQ(a.stats.makespan, b.stats.makespan) << policy;
    EXPECT_EQ(a.stats.total_messages, b.stats.total_messages) << policy;
  }
}

TEST(OverloadRunTest, BlockModeIsUntouchedByOverloadMachinery) {
  // Without a shed policy the gate never engages: the run is the exact
  // pre-overload-control MPL behavior — everything eventually commits.
  const ScenarioSpec spec = OverloadSpec("\n[run]\nmax_inflight = 4\n");
  const RunReport r = RunSpec(spec);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.stats.committed, 400u);
  EXPECT_EQ(r.stats.shed, 0u);
  EXPECT_EQ(r.stats.expired, 0u);
  EXPECT_EQ(r.stats.retried, 0u);
  EXPECT_TRUE(r.stats.serializable);
}

// ---------------------------------------------------------------------
// Validation of the new scenario keys.

TEST(OverloadConfigTest, ClassKeysParse) {
  auto spec = ScenarioSpec::Parse(std::string(kOverloadBase) +
                                  "priority = 3\n[run]\nmax_inflight = 4\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->classes.size(), 1u);
  EXPECT_EQ(spec->classes[0].priority, 3u);
  EXPECT_EQ(spec->classes[0].deadline, 80 * kMillisecond);
}

TEST(OverloadConfigTest, RejectsUnknownShedPolicyToken) {
  auto spec = ScenarioSpec::Parse(
      std::string(kOverloadBase) +
      "\n[run]\nmax_inflight = 4\nqueue_limit = 8\nshed_policy = lifo\n");
  EXPECT_FALSE(spec.ok());
}

TEST(OverloadConfigTest, DeadlinePolicyNeedsADeadlinedClass) {
  // Same scenario minus the class deadline: shedding by deadline has
  // nothing to order by.
  std::string base(kOverloadBase);
  const std::size_t at = base.find("deadline_ms = 80\n");
  ASSERT_NE(at, std::string::npos);
  base.erase(at, std::string("deadline_ms = 80\n").size());
  auto spec = ScenarioSpec::Parse(
      base + "\n[run]\nmax_inflight = 4\nqueue_limit = 8\n"
             "shed_policy = deadline\n");
  EXPECT_FALSE(spec.ok());
}

TEST(OverloadConfigTest, GateKnobsRequireAnEngagedGate) {
  // queue_limit without a shed policy is dead configuration; so is a
  // retry budget. Both are rejected rather than silently ignored.
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nmax_inflight = 4\n"
                                   "queue_limit = 8\n")
                   .ok());
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nmax_inflight = 4\n"
                                   "retry_limit = 1\nretry_ms = 5\n")
                   .ok());
  // A shed policy without a queue (or without an MPL cap) is equally
  // meaningless.
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nmax_inflight = 4\n"
                                   "shed_policy = drop_newest\n")
                   .ok());
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nqueue_limit = 8\n"
                                   "shed_policy = drop_newest\n")
                   .ok());
}

TEST(OverloadConfigTest, RetryKnobsValidate) {
  // retry_limit without a base delay, and a cap below the base delay.
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nmax_inflight = 4\n"
                                   "queue_limit = 8\n"
                                   "shed_policy = drop_newest\n"
                                   "retry_limit = 1\n")
                   .ok());
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nmax_inflight = 4\n"
                                   "queue_limit = 8\n"
                                   "shed_policy = drop_newest\n"
                                   "retry_limit = 1\nretry_ms = 10\n"
                                   "retry_max_ms = 5\n")
                   .ok());
}

}  // namespace
}  // namespace unicc
