#include "serializability/conflict_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

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
  log.Append(kX, 1, 1, OpType::kWrite, 0);
  log.Append(kX, 2, 1, OpType::kRead, 1);
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
  log.Append(kX, 1, 1, OpType::kRead, 0);
  log.Append(kX, 2, 1, OpType::kRead, 1);
  const auto report =
      ConflictGraphChecker::Check(log, {{1, 1}, {2, 1}});
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_edges, 0u);
}

TEST(SerializabilityTest, ClassicCycleDetected) {
  // t1 then t2 on x; t2 then t1 on y -> non-serializable.
  ImplementationLog log;
  log.Append(kX, 1, 1, OpType::kWrite, 0);
  log.Append(kX, 2, 1, OpType::kWrite, 1);
  log.Append(kY, 2, 1, OpType::kWrite, 2);
  log.Append(kY, 1, 1, OpType::kWrite, 3);
  const auto report =
      ConflictGraphChecker::Check(log, {{1, 1}, {2, 1}});
  EXPECT_FALSE(report.serializable);
  ASSERT_GE(report.cycle.size(), 2u);
  for (TxnId t : report.cycle) {
    EXPECT_TRUE(t == 1u || t == 2u);
  }
}

TEST(SerializabilityTest, UncommittedIncarnationsIgnored) {
  ImplementationLog log;
  // Attempt 1 of txn 1 conflicts badly, but only attempt 2 committed.
  log.Append(kX, 1, 1, OpType::kWrite, 0);
  log.Append(kX, 2, 1, OpType::kWrite, 1);
  log.Append(kY, 2, 1, OpType::kWrite, 2);
  log.Append(kY, 1, 1, OpType::kWrite, 3);
  log.Append(kX, 1, 2, OpType::kWrite, 4);  // committed incarnation
  const auto report =
      ConflictGraphChecker::Check(log, {{1, 2}, {2, 1}});
  EXPECT_TRUE(report.serializable);
}

TEST(SerializabilityTest, ThreeTxnCycle) {
  const CopyId kZ{2, 0};
  ImplementationLog log;
  log.Append(kX, 1, 1, OpType::kRead, 0);   // r1(x)
  log.Append(kX, 3, 1, OpType::kWrite, 1);  // w3(x): 1 -> 3
  log.Append(kY, 2, 1, OpType::kRead, 2);   // r2(y)
  log.Append(kY, 1, 1, OpType::kWrite, 3);  // w1(y): 2 -> 1
  log.Append(kZ, 3, 1, OpType::kRead, 4);   // r3(z)
  log.Append(kZ, 2, 1, OpType::kWrite, 5);  // w2(z): 3 -> 2
  const auto report =
      ConflictGraphChecker::Check(log, {{1, 1}, {2, 1}, {3, 1}});
  EXPECT_FALSE(report.serializable);
  EXPECT_EQ(report.cycle.size(), 3u);
}

TEST(SerializabilityTest, WitnessOrderRespectsAllEdges) {
  ImplementationLog log;
  log.Append(kX, 3, 1, OpType::kWrite, 0);
  log.Append(kX, 1, 1, OpType::kWrite, 1);
  log.Append(kY, 3, 1, OpType::kWrite, 2);
  log.Append(kY, 2, 1, OpType::kRead, 3);
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

// A forged log of `txns` committed transactions in serial order t = 1, 2,
// ...: each reads one copy and writes another, appended in t order, so
// every conflict edge points from a lower t to a higher one.
ImplementationLog ForgeSerialLog(TxnId txns, CommittedSet* committed) {
  ImplementationLog log;
  for (TxnId t = 1; t <= txns; ++t) {
    log.Append(CopyId{static_cast<ItemId>((t * 7) % 997), 1}, t, 1,
               OpType::kRead, t);
    log.Append(CopyId{static_cast<ItemId>(t % 1000), 2}, t, 1,
               OpType::kWrite, t);
    (*committed)[t] = 1;
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
  log.Append(kP, kA, 1, OpType::kWrite, kTxns + 1);  // a before b on P
  log.Append(kP, kB, 1, OpType::kWrite, kTxns + 2);
  const auto clean = ConflictGraphChecker::Check(log, committed);
  EXPECT_TRUE(clean.serializable);
  EXPECT_EQ(clean.num_txns, kTxns);

  log.Append(kQ, kB, 1, OpType::kWrite, kTxns + 3);  // b before a on Q
  log.Append(kQ, kA, 1, OpType::kWrite, kTxns + 4);
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

}  // namespace
}  // namespace unicc
