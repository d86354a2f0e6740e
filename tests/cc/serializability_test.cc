#include "serializability/conflict_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace unicc {
namespace {

const CopyId kX{0, 0};
const CopyId kY{1, 0};

TEST(SerializabilityTest, EmptyLogSerializable) {
  ImplementationLog log;
  const auto report = ConflictGraphChecker::Check(log, {});
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_txns, 0u);
}

TEST(SerializabilityTest, SimpleSerialOrder) {
  ImplementationLog log;
  log.Append(kX, 1, 1, OpType::kWrite);
  log.Append(kX, 2, 1, OpType::kRead);
  const auto report =
      ConflictGraphChecker::Check(log, {{1, 1}, {2, 1}});
  ASSERT_TRUE(report.serializable);
  // t1 writes before t2 reads: order must put 1 before 2.
  auto p1 = std::find(report.order.begin(), report.order.end(), 1u);
  auto p2 = std::find(report.order.begin(), report.order.end(), 2u);
  EXPECT_LT(p1, p2);
}

TEST(SerializabilityTest, ReadsDoNotConflict) {
  ImplementationLog log;
  log.Append(kX, 1, 1, OpType::kRead);
  log.Append(kX, 2, 1, OpType::kRead);
  const auto report =
      ConflictGraphChecker::Check(log, {{1, 1}, {2, 1}});
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_edges, 0u);
}

TEST(SerializabilityTest, ClassicCycleDetected) {
  // t1 then t2 on x; t2 then t1 on y -> non-serializable.
  ImplementationLog log;
  log.Append(kX, 1, 1, OpType::kWrite);
  log.Append(kX, 2, 1, OpType::kWrite);
  log.Append(kY, 2, 1, OpType::kWrite);
  log.Append(kY, 1, 1, OpType::kWrite);
  const auto report =
      ConflictGraphChecker::Check(log, {{1, 1}, {2, 1}});
  EXPECT_FALSE(report.serializable);
  // Start at 1, step to its smallest remaining predecessor 2, back to 1.
  EXPECT_EQ(report.cycle, (std::vector<TxnId>{2, 1}));
}

TEST(SerializabilityTest, UncommittedIncarnationsIgnored) {
  ImplementationLog log;
  // Attempt 1 of txn 1 conflicts badly, but only attempt 2 committed.
  log.Append(kX, 1, 1, OpType::kWrite);
  log.Append(kX, 2, 1, OpType::kWrite);
  log.Append(kY, 2, 1, OpType::kWrite);
  log.Append(kY, 1, 1, OpType::kWrite);
  log.Append(kX, 1, 2, OpType::kWrite);  // committed incarnation
  const auto report =
      ConflictGraphChecker::Check(log, {{1, 2}, {2, 1}});
  EXPECT_TRUE(report.serializable);
}

TEST(SerializabilityTest, ThreeTxnCycle) {
  const CopyId kZ{2, 0};
  ImplementationLog log;
  log.Append(kX, 1, 1, OpType::kRead);   // r1(x)
  log.Append(kX, 3, 1, OpType::kWrite);  // w3(x): 1 -> 3
  log.Append(kY, 2, 1, OpType::kRead);   // r2(y)
  log.Append(kY, 1, 1, OpType::kWrite);  // w1(y): 2 -> 1
  log.Append(kZ, 3, 1, OpType::kRead);   // r3(z)
  log.Append(kZ, 2, 1, OpType::kWrite);  // w2(z): 3 -> 2
  const auto report =
      ConflictGraphChecker::Check(log, {{1, 1}, {2, 1}, {3, 1}});
  EXPECT_FALSE(report.serializable);
  // Walk 1 <- 2 <- 3 <- 1, reported in edge order: 3 -> 2 -> 1 -> 3.
  EXPECT_EQ(report.cycle, (std::vector<TxnId>{3, 2, 1}));
}

// Two cycles share txn 3 (3 -> 6 -> 3 and 3 -> 5 -> 4 -> 3), and txn 1 sits
// downstream of them (6 -> 1). The walk starts at the smallest remaining
// txn 1 and steps to the smallest remaining predecessor each time:
// 1 <- 6 <- 3 <- 4 (not 6) <- 5 <- 3. Appending the copies in either order
// must give the same report.
TEST(SerializabilityTest, CycleIndependentOfCopyOrder) {
  const std::vector<std::pair<TxnId, TxnId>> edges = {
      {6, 1}, {3, 6}, {6, 3}, {4, 3}, {5, 4}, {3, 5}};
  const CommittedSet committed = {{1, 1}, {2, 1}, {3, 1},
                                  {4, 1}, {5, 1}, {6, 1}};
  auto build = [&](bool reversed) {
    ImplementationLog log;
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const std::size_t e = reversed ? edges.size() - 1 - k : k;
      const CopyId copy{static_cast<ItemId>(10 + e), 0};
      log.Append(copy, edges[e].first, 1, OpType::kWrite);
      log.Append(copy, edges[e].second, 1, OpType::kWrite);
    }
    return ConflictGraphChecker::Check(log, committed);
  };
  const SerializabilityReport forward = build(false);
  const SerializabilityReport backward = build(true);
  EXPECT_FALSE(forward.serializable);
  EXPECT_EQ(forward.cycle, (std::vector<TxnId>{5, 4, 3}));
  EXPECT_EQ(forward.num_txns, 5u);  // txn 2 committed without records
  EXPECT_EQ(forward.num_edges, edges.size());
  EXPECT_EQ(backward.serializable, forward.serializable);
  EXPECT_EQ(backward.cycle, forward.cycle);
  EXPECT_EQ(backward.order, forward.order);
  EXPECT_EQ(backward.num_txns, forward.num_txns);
  EXPECT_EQ(backward.num_edges, forward.num_edges);
}

TEST(SerializabilityTest, WitnessOrderRespectsAllEdges) {
  ImplementationLog log;
  log.Append(kX, 3, 1, OpType::kWrite);
  log.Append(kX, 1, 1, OpType::kWrite);
  log.Append(kY, 3, 1, OpType::kWrite);
  log.Append(kY, 2, 1, OpType::kRead);
  const auto report =
      ConflictGraphChecker::Check(log, {{1, 1}, {2, 1}, {3, 1}});
  ASSERT_TRUE(report.serializable);
  auto idx = [&](TxnId t) {
    return std::find(report.order.begin(), report.order.end(), t) -
           report.order.begin();
  };
  EXPECT_LT(idx(3), idx(1));
  EXPECT_LT(idx(3), idx(2));
}

// A transaction commits at most once; a committed set that names one twice
// (two incarnations, say) is a bookkeeping bug, not a history to judge.
TEST(SerializabilityDeathTest, RepeatedCommittedTxnAborts) {
  ImplementationLog log;
  log.Append(kX, 1, 1, OpType::kWrite);
  log.Append(kX, 2, 1, OpType::kWrite);
  const CommittedSet committed = {{2, 1}, {1, 1}, {2, 2}};
  EXPECT_DEATH(ConflictGraphChecker::Check(log, committed), "appears twice");
}

// A forged log of `txns` committed transactions in serial order t = 1, 2,
// ...: each reads one copy and writes another, appended in t order, so
// every conflict edge points from a lower t to a higher one.
ImplementationLog ForgeSerialLog(TxnId txns, CommittedSet* committed) {
  ImplementationLog log;
  for (TxnId t = 1; t <= txns; ++t) {
    log.Append(CopyId{static_cast<ItemId>((t * 7) % 997), 1}, t, 1,
               OpType::kRead);
    log.Append(CopyId{static_cast<ItemId>(t % 1000), 2}, t, 1,
               OpType::kWrite);
    committed->emplace_back(t, 1);
  }
  return log;
}

TEST(SerializabilityTest, BuriedTwoCycleFoundInLargeLog) {
  constexpr TxnId kTxns = 12000;
  constexpr TxnId kA = 4001;
  constexpr TxnId kB = 8002;
  const CopyId kP{5000, 3};
  const CopyId kQ{5001, 3};

  CommittedSet committed;
  ImplementationLog log = ForgeSerialLog(kTxns, &committed);
  log.Append(kP, kA, 1, OpType::kWrite);  // a before b on P
  log.Append(kP, kB, 1, OpType::kWrite);
  const auto clean = ConflictGraphChecker::Check(log, committed);
  EXPECT_TRUE(clean.serializable);
  EXPECT_EQ(clean.num_txns, kTxns);

  log.Append(kQ, kB, 1, OpType::kWrite);  // b before a on Q
  log.Append(kQ, kA, 1, OpType::kWrite);
  const auto report = ConflictGraphChecker::Check(log, committed);
  EXPECT_FALSE(report.serializable);
  EXPECT_EQ(report.num_txns, kTxns);
  EXPECT_TRUE(report.order.empty());
  // b -> a is the log's only backward edge, so every cycle crosses it.
  ASSERT_GE(report.cycle.size(), 2u);
  EXPECT_NE(std::find(report.cycle.begin(), report.cycle.end(), kA),
            report.cycle.end());
  EXPECT_NE(std::find(report.cycle.begin(), report.cycle.end(), kB),
            report.cycle.end());
}

// ---------------------------------------------------------------------------
// Randomized equivalence with the hash-map checker the CSR checker replaced.
// ---------------------------------------------------------------------------

using RefGraph = std::unordered_map<TxnId, std::unordered_set<TxnId>>;
// The committed set as the hash map (txn -> attempt) the reference
// checker, and the history generator below, look transactions up in.
using CommittedMap = std::unordered_map<TxnId, std::uint32_t>;

// The checker's input: the map's (txn, attempt) pairs in hash order, so
// the checker must not rely on any order of its committed set.
CommittedSet Flat(const CommittedMap& committed) {
  return CommittedSet(committed.begin(), committed.end());
}

// The previous ConflictGraphChecker::Check, verbatim except that it also
// hands out its adjacency (`graph`) so a reported cycle can be checked
// against it.
SerializabilityReport ReferenceCheck(const ImplementationLog& log,
                                     const CommittedMap& committed,
                                     RefGraph* graph) {
  SerializabilityReport report;

  // adjacency + indegree over committed transactions.
  std::unordered_map<TxnId, std::unordered_set<TxnId>> adj;
  std::unordered_set<TxnId> nodes;

  // Scratch reused across copies: the last writer plus every reader since
  // that write. Recording only those edges (instead of all conflicting
  // pairs, which is quadratic in the log length) builds a graph with the
  // same transitive closure: an earlier writer reaches a later op through
  // the chain of intermediate writers. Acyclicity — and the minimal
  // witness order Kahn's algorithm extracts below — depend only on that
  // closure, so the report is unchanged.
  std::vector<TxnId> readers;
  for (const CopyId& copy : log.Copies()) {
    readers.clear();
    TxnId writer = 0;
    bool has_writer = false;
    // Logs are appended in implementation order (seq is assigned at append
    // time), so the committed filter below keeps them sorted.
    UNICC_CHECK(std::is_sorted(
        log.LogOf(copy).begin(), log.LogOf(copy).end(),
        [](const LogRecord& a, const LogRecord& b) { return a.seq < b.seq; }));
    for (const LogRecord& r : log.LogOf(copy)) {
      auto it = committed.find(r.txn);
      if (it == committed.end() || it->second != r.attempt) continue;
      nodes.insert(r.txn);
      if (r.op == OpType::kRead) {
        if (has_writer && writer != r.txn) adj[writer].insert(r.txn);
        readers.push_back(r.txn);
      } else {
        if (has_writer && writer != r.txn) adj[writer].insert(r.txn);
        for (TxnId t : readers) {
          if (t != r.txn) adj[t].insert(r.txn);
        }
        readers.clear();
        writer = r.txn;
        has_writer = true;
      }
    }
  }
  *graph = adj;

  report.num_txns = nodes.size();
  for (const auto& [n, outs] : adj) report.num_edges += outs.size();

  // Kahn's algorithm; leftover nodes are on (or downstream of) a cycle.
  std::unordered_map<TxnId, std::size_t> indeg;
  for (TxnId n : nodes) indeg[n] = 0;
  for (const auto& [n, outs] : adj) {
    for (TxnId m : outs) ++indeg[m];
  }
  // Min-heap for a deterministic witness order.
  std::priority_queue<TxnId, std::vector<TxnId>, std::greater<TxnId>> ready;
  for (const auto& [n, d] : indeg) {
    if (d == 0) ready.push(n);
  }
  while (!ready.empty()) {
    const TxnId n = ready.top();
    ready.pop();
    report.order.push_back(n);
    auto it = adj.find(n);
    if (it == adj.end()) continue;
    for (TxnId m : it->second) {
      if (--indeg[m] == 0) ready.push(m);
    }
  }
  if (report.order.size() == nodes.size()) {
    report.serializable = true;
    return report;
  }
  report.serializable = false;
  report.order.clear();

  // Extract one cycle among the remaining nodes. In the leftover subgraph
  // every node keeps indegree >= 1, so walking predecessors never dead-ends
  // and must revisit a node; that revisit closes a cycle.
  std::unordered_set<TxnId> remaining;
  for (const auto& [n, d] : indeg) {
    if (d > 0) remaining.insert(n);
  }
  std::unordered_map<TxnId, TxnId> pred;  // one in-edge per remaining node
  for (const auto& [n, outs] : adj) {
    if (!remaining.contains(n)) continue;
    for (TxnId m : outs) {
      if (remaining.contains(m)) pred[m] = n;
    }
  }
  TxnId cur = *remaining.begin();
  std::vector<TxnId> path;
  std::unordered_map<TxnId, std::size_t> pos;
  for (;;) {
    auto seen = pos.find(cur);
    if (seen != pos.end()) {
      report.cycle.assign(path.begin() + static_cast<std::ptrdiff_t>(
                                              seen->second),
                          path.end());
      std::reverse(report.cycle.begin(), report.cycle.end());
      break;
    }
    pos[cur] = path.size();
    path.push_back(cur);
    auto p = pred.find(cur);
    if (p == pred.end()) break;  // defensive: should not happen
    cur = p->second;
  }
  return report;
}

// The cycle rule spelled out over the reference graph with ordered
// containers: peel off every node Kahn's algorithm can order, start at the
// smallest remaining TxnId, and step to the smallest remaining predecessor
// until a node repeats.
std::vector<TxnId> SmallestPredecessorCycle(const RefGraph& graph) {
  std::map<TxnId, std::set<TxnId>> preds;
  for (const auto& [u, outs] : graph) {
    preds[u];
    for (TxnId v : outs) preds[v].insert(u);
  }
  std::set<TxnId> remaining;
  for (const auto& [v, in] : preds) remaining.insert(v);
  for (bool peeled = true; peeled;) {
    peeled = false;
    for (auto it = remaining.begin(); it != remaining.end();) {
      bool has_pred = false;
      for (TxnId u : preds[*it]) has_pred = has_pred || remaining.contains(u);
      if (has_pred) {
        ++it;
      } else {
        it = remaining.erase(it);
        peeled = true;
      }
    }
  }
  if (remaining.empty()) return {};
  std::vector<TxnId> path;
  TxnId cur = *remaining.begin();
  while (std::find(path.begin(), path.end(), cur) == path.end()) {
    path.push_back(cur);
    for (TxnId u : preds[cur]) {
      if (remaining.contains(u)) {
        cur = u;
        break;
      }
    }
  }
  const auto start = std::find(path.begin(), path.end(), cur);
  return std::vector<TxnId>(path.rbegin(), std::make_reverse_iterator(start));
}

struct RandomHistory {
  ImplementationLog log;
  CommittedMap committed;
  bool sparse_ids = false;
};

// A random history over up to 24 transactions and 1..6 copies. Half the
// draws use small dense ids, half sparse ids around 2^63 (plus 0 and
// 2^64 - 1 now and then). Serial draws run the committed incarnations one
// after another (acyclic); interleaved draws shuffle them (often cyclic).
// Both mix in records of aborted incarnations and of uncommitted
// transactions, and some committed ids get no records at all.
RandomHistory DrawHistory(Rng& rng) {
  RandomHistory h;
  const std::size_t txns = 1 + rng.UniformInt(24);
  h.sparse_ids = rng.Bernoulli(0.5);
  std::vector<TxnId> ids;
  std::set<TxnId> used;
  while (ids.size() < txns) {
    TxnId id = 1 + ids.size();
    if (h.sparse_ids) {
      const std::uint64_t pick = rng.UniformInt(20);
      id = pick == 0   ? 0
           : pick == 1 ? ~TxnId{0}
                       : (TxnId{1} << 63) - (TxnId{1} << 31) +
                             rng.UniformInt(TxnId{1} << 32);
    }
    if (used.insert(id).second) ids.push_back(id);
  }
  const std::size_t copies = 1 + rng.UniformInt(6);
  const bool serial = rng.Bernoulli(0.5);

  // Each transaction's committed-incarnation operations, in program order.
  struct Op {
    TxnId txn;
    std::uint32_t attempt;
    CopyId copy;
    OpType op;
  };
  std::vector<std::vector<Op>> programs;
  for (TxnId id : ids) {
    const std::uint32_t attempt =
        1 + static_cast<std::uint32_t>(rng.UniformInt(3));
    const bool commits = rng.Bernoulli(0.85);
    if (commits) h.committed[id] = attempt;
    std::vector<Op> ops;
    // A few committed transactions keep no records at all.
    const std::size_t n = commits && rng.Bernoulli(0.05)
                              ? 0
                              : 1 + rng.UniformInt(4);
    for (std::size_t k = 0; k < n; ++k) {
      const CopyId copy{static_cast<ItemId>(rng.UniformInt(copies)),
                        static_cast<SiteId>(rng.UniformInt(2))};
      if (rng.Bernoulli(0.2)) {  // read-modify-write of one copy
        ops.push_back({id, attempt, copy, OpType::kRead});
        ops.push_back({id, attempt, copy, OpType::kWrite});
      } else {
        ops.push_back({id, attempt, copy,
                       rng.Bernoulli(0.5) ? OpType::kWrite : OpType::kRead});
      }
    }
    programs.push_back(std::move(ops));
  }
  std::vector<Op> history;
  std::vector<std::size_t> order(programs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }
  if (serial) {
    for (std::size_t i : order) {
      history.insert(history.end(), programs[i].begin(), programs[i].end());
    }
  } else {
    // Interleave: repeatedly emit the next op of a random unfinished txn.
    std::vector<std::size_t> next(programs.size(), 0);
    std::vector<std::size_t> live;
    for (std::size_t i : order) {
      if (!programs[i].empty()) live.push_back(i);
    }
    while (!live.empty()) {
      const std::size_t k = rng.UniformInt(live.size());
      const std::size_t i = live[k];
      history.push_back(programs[i][next[i]]);
      if (++next[i] == programs[i].size()) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }
  }
  // Records of aborted incarnations (another attempt of the same txn) land
  // anywhere; the checker must ignore them.
  const std::size_t noise = rng.UniformInt(6);
  for (std::size_t k = 0; k < noise; ++k) {
    const TxnId id = ids[rng.UniformInt(ids.size())];
    auto it = h.committed.find(id);
    const std::uint32_t attempt =
        it == h.committed.end() ? 1 : it->second + 1 + rng.UniformInt(2);
    const Op op{id, attempt,
                CopyId{static_cast<ItemId>(rng.UniformInt(copies)), 0},
                rng.Bernoulli(0.5) ? OpType::kWrite : OpType::kRead};
    history.insert(history.begin() + static_cast<std::ptrdiff_t>(
                                         rng.UniformInt(history.size() + 1)),
                   op);
  }
  for (const Op& op : history) {
    h.log.Append(op.copy, op.txn, op.attempt, op.op);
  }
  return h;
}

bool Committed(const CommittedMap& committed, const LogRecord& r) {
  auto it = committed.find(r.txn);
  return it != committed.end() && it->second == r.attempt;
}

TEST(SerializabilityEquivalenceTest, MatchesReferenceOnRandomHistories) {
  Rng rng(20261020);
  int cyclic = 0, acyclic = 0, aborted_records = 0, read_then_write = 0,
      multi_copy_pair = 0, idle_committed = 0, sparse = 0;
  for (int k = 0; k < 2400; ++k) {
    const RandomHistory h = DrawHistory(rng);
    RefGraph graph;
    const SerializabilityReport want =
        ReferenceCheck(h.log, h.committed, &graph);
    const SerializabilityReport got =
        ConflictGraphChecker::Check(h.log, Flat(h.committed));
    ASSERT_EQ(got.serializable, want.serializable) << "draw " << k;
    ASSERT_EQ(got.num_txns, want.num_txns) << "draw " << k;
    ASSERT_EQ(got.num_edges, want.num_edges) << "draw " << k;
    if (want.serializable) {
      ++acyclic;
      ASSERT_EQ(got.order, want.order) << "draw " << k;
      ASSERT_TRUE(got.cycle.empty()) << "draw " << k;
    } else {
      ++cyclic;
      ASSERT_TRUE(got.order.empty()) << "draw " << k;
      // A real cycle of the reference graph: distinct nodes, every step
      // (and the closing step) an edge.
      ASSERT_GE(got.cycle.size(), 2u) << "draw " << k;
      const std::set<TxnId> distinct(got.cycle.begin(), got.cycle.end());
      ASSERT_EQ(distinct.size(), got.cycle.size()) << "draw " << k;
      for (std::size_t i = 0; i < got.cycle.size(); ++i) {
        const TxnId u = got.cycle[i];
        const TxnId v = got.cycle[(i + 1) % got.cycle.size()];
        ASSERT_TRUE(graph.contains(u) && graph.at(u).contains(v))
            << "draw " << k << ": no edge " << u << " -> " << v;
      }
      // ... and exactly the one the smallest-predecessor rule picks.
      ASSERT_EQ(got.cycle, SmallestPredecessorCycle(graph)) << "draw " << k;
    }

    // Coverage of the inputs the two checkers must agree on.
    std::map<std::pair<TxnId, TxnId>, std::set<CopyId>> conflict_copies;
    std::set<TxnId> logged;
    bool saw_aborted = false, saw_rmw = false;
    for (const CopyId& copy : h.log.Copies()) {
      const std::vector<LogRecord>& records = h.log.LogOf(copy);
      for (std::size_t i = 0; i < records.size(); ++i) {
        const LogRecord& a = records[i];
        if (!Committed(h.committed, a)) {
          saw_aborted = saw_aborted || h.committed.contains(a.txn);
          continue;
        }
        logged.insert(a.txn);
        for (std::size_t j = i + 1; j < records.size(); ++j) {
          const LogRecord& b = records[j];
          if (!Committed(h.committed, b)) continue;
          if (a.txn == b.txn) {
            saw_rmw = saw_rmw || (a.op == OpType::kRead &&
                                  b.op == OpType::kWrite);
          } else if (a.op == OpType::kWrite || b.op == OpType::kWrite) {
            conflict_copies[{a.txn, b.txn}].insert(copy);
          }
        }
      }
    }
    aborted_records += saw_aborted;
    read_then_write += saw_rmw;
    bool multi = false;
    for (const auto& [pair, on] : conflict_copies) {
      multi = multi || on.size() >= 2;
    }
    multi_copy_pair += multi;
    idle_committed += logged.size() < h.committed.size();
    sparse += h.sparse_ids;
  }
  EXPECT_GE(cyclic, 400);
  EXPECT_GE(acyclic, 400);
  EXPECT_GE(aborted_records, 400);
  EXPECT_GE(read_then_write, 400);
  EXPECT_GE(multi_copy_pair, 400);
  EXPECT_GE(idle_committed, 200);
  EXPECT_GE(sparse, 400);
}

}  // namespace
}  // namespace unicc
