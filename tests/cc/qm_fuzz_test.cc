// Randomized invariant testing of the unified queue manager: drive one
// queue with random request/release/abort/transform traffic across all
// three protocols and check the queue-level invariants of Section 4.2 after
// every step:
//
//   I1: entries are sorted by precedence.
//   I2: at most one outstanding WL (exclusive writes).
//   I3: no WL coexists with an RL (full conflict exclusion for normal
//       locks); SRL/SWL coexistence is allowed only per rules (iii)/(iv).
//   I4: the set of granted entries is a prefix of the precedence order
//       (HD discipline): no waiting entry precedes a granted entry that
//       was granted after it arrived... (weaker check: every non-granted
//       accepted entry has no conflicting grant with larger precedence
//       granted later).
//   I5: every grant respects the rules: a granted 2PL/PA read never
//       coexists with an earlier-granted unreleased WL/SWL, etc. (spot
//       checks via the conflict matrix).
//   I6: the manager's occupied-queue set (what the deadlock detector
//       walks) holds the queue iff the queue has entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "cc/unified/queue_manager.h"
#include "common/rng.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "storage/log.h"
#include "txn/timestamp.h"

namespace unicc {
namespace {

constexpr SiteId kUserSite = 0;
constexpr SiteId kDataSite = 1;
const CopyId kX{0, kDataSite};

// Shared queue-level invariant block (I1-I5 of the header comment), used
// by both fuzz suites after every step.
void CheckQueueInvariants(const UnifiedQueueManager& qm, const char* step) {
  const auto& q = qm.QueueOf(kX);
  // I1: sorted by precedence.
  for (std::size_t i = 1; i < q.size(); ++i) {
    ASSERT_TRUE(q[i - 1].prec < q[i].prec || !(q[i].prec < q[i - 1].prec))
        << step << ": queue not sorted at " << i;
    ASSERT_TRUE(!(q[i].prec < q[i - 1].prec))
        << step << ": queue not sorted at " << i;
  }
  // I2/I3: outstanding lock compatibility.
  int outstanding_wl = 0;
  bool has_rl = false;
  for (const auto& e : q) {
    if (!e.granted) continue;
    switch (e.lock) {
      case LockKind::kWriteLock:
        ++outstanding_wl;
        break;
      case LockKind::kReadLock:
        has_rl = true;
        break;
      case LockKind::kSemiReadLock:
      case LockKind::kSemiWriteLock:
        break;  // legal combinations under semi-locks
    }
  }
  ASSERT_LE(outstanding_wl, 1) << step << ": two write locks";
  ASSERT_FALSE(outstanding_wl > 0 && has_rl)
      << step << ": WL coexists with RL";
  // I4 (E1 preservation): a waiting entry may precede a granted entry in
  // precedence order only if the two do not conflict — otherwise the
  // grant jumped the precedence order.
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (q[i].granted) continue;
    for (std::size_t j = i + 1; j < q.size(); ++j) {
      if (!q[j].granted) continue;
      ASSERT_FALSE(q[i].op == OpType::kWrite || q[j].op == OpType::kWrite)
          << step << ": conflicting grant after a waiting entry";
    }
  }
  // I6: occupancy tracking follows every insert and erase.
  ASSERT_EQ(qm.occupied_queues(), q.empty() ? 0u : 1u)
      << step << ": occupied-queue set out of sync";
}

class QmFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QmFuzzTest, InvariantsHoldUnderRandomTraffic) {
  Simulator sim;
  NetworkOptions net;
  net.base_delay = 1;
  net.local_delay = 1;
  SimTransport transport(&sim, net, Rng(1));
  ImplementationLog log;
  transport.RegisterSite(kUserSite, [](SiteId, const Message&) {});
  CcContext ctx{&sim, &transport, &log};
  UnifiedQueueManager qm(kDataSite, ctx, UnifiedQmOptions{});
  transport.RegisterSite(kDataSite, [](SiteId, const Message&) {});

  Rng rng(GetParam() * 7919 + 13);
  TimestampGenerator tsgen;

  struct Live {
    Attempt attempt = 1;
    Protocol proto;
    OpType op;
    bool transformed = false;
  };
  std::map<TxnId, Live> live;
  TxnId next_txn = 1;

  auto check_invariants = [&](const char* step) {
    CheckQueueInvariants(qm, step);
  };

  for (int step = 0; step < 2000; ++step) {
    const int action = static_cast<int>(rng.UniformInt(10));
    if (action < 5 || live.empty()) {
      // New request.
      const TxnId txn = next_txn++;
      Live l;
      l.proto = static_cast<Protocol>(rng.UniformInt(3));
      l.op = rng.Bernoulli(0.5) ? OpType::kRead : OpType::kWrite;
      msg::CcRequest m;
      m.txn = txn;
      m.attempt = 1;
      m.copy = kX;
      m.op = l.op;
      m.proto = l.proto;
      m.ts = tsgen.Next(sim.Now()) + rng.UniformInt(2000);
      m.backoff_interval = 1 + rng.UniformInt(64);
      m.txn_requests = 1;  // single queue in this fuzz: eager PA path
      m.reply_to = kUserSite;
      qm.OnRequest(m);
      live.emplace(txn, l);
    } else {
      // Pick a random live transaction and advance it.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(live.size())));
      const TxnId txn = it->first;
      Live& l = it->second;
      const auto& q = qm.QueueOf(kX);
      const auto entry = std::find_if(
          q.begin(), q.end(),
          [&](const QueueEntry& e) { return e.txn == txn; });
      if (entry == q.end()) {
        live.erase(it);
        continue;
      }
      if (action < 7 && entry->granted) {
        // Release (with a write value for writes).
        qm.OnRelease(msg::Release{txn, l.attempt, kX,
                                  l.op == OpType::kWrite, txn});
        live.erase(it);
      } else if (action == 7 && entry->granted &&
                 l.proto == Protocol::kTimestampOrdering &&
                 !l.transformed) {
        qm.OnSemiTransform(msg::SemiTransform{
            txn, l.attempt, kX, l.op == OpType::kWrite, txn});
        l.transformed = true;
      } else if (action >= 8) {
        qm.OnAbort(msg::AbortTxn{txn, l.attempt, kX});
        live.erase(it);
      }
    }
    sim.RunToCompletion();
    check_invariants("step");
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Drain: release everything still granted, abort the rest.
  for (auto& [txn, l] : live) {
    const auto& q = qm.QueueOf(kX);
    const auto entry = std::find_if(
        q.begin(), q.end(),
        [&](const QueueEntry& e) { return e.txn == txn; });
    if (entry == q.end()) continue;
    if (entry->granted) {
      qm.OnRelease(
          msg::Release{txn, l.attempt, kX, l.op == OpType::kWrite, txn});
    } else {
      qm.OnAbort(msg::AbortTxn{txn, l.attempt, kX});
    }
    sim.RunToCompletion();
    check_invariants("drain");
  }
  EXPECT_TRUE(qm.QueueOf(kX).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QmFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// Second suite: randomized cancel / back-off / restart interleavings. On
// top of the basic traffic above this drives the paths an issuer exercises
// under contention: multi-request PA negotiations (PaAccept + FinalTs
// confirmation rounds), blocked back-off entries that are finalized or
// aborted before their final timestamp lands, T/O rejects answered by a
// restarted incarnation with a fresh timestamp, and aborts that cancel
// waiting, blocked and granted entries alike. 10k steps per seed; the
// seeded corpus runs under ASan in CI.
class QmRestartFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QmRestartFuzzTest, CancelBackoffRestartInterleavings) {
  Simulator sim;
  NetworkOptions net;
  net.base_delay = 1;
  net.local_delay = 1;
  SimTransport transport(&sim, net, Rng(1));
  ImplementationLog log;
  transport.RegisterSite(kUserSite, [](SiteId, const Message&) {});
  CcContext ctx{&sim, &transport, &log};
  UnifiedQueueManager qm(kDataSite, ctx, UnifiedQmOptions{});
  transport.RegisterSite(kDataSite, [](SiteId, const Message&) {});

  Rng rng(GetParam() * 104729 + 7);
  TimestampGenerator tsgen;

  struct Live {
    Attempt attempt = 1;
    Protocol proto = Protocol::kTwoPhaseLocking;
    OpType op = OpType::kRead;
    bool transformed = false;
    bool multi = false;      // PA with txn_requests > 1: needs FinalTs
    bool finalized = false;  // FinalTs already sent
  };
  std::map<TxnId, Live> live;
  TxnId next_txn = 1;
  std::uint64_t restarts = 0;
  std::uint64_t finalizations = 0;

  auto find_entry = [&](TxnId txn) {
    const auto& q = qm.QueueOf(kX);
    return std::find_if(q.begin(), q.end(), [&](const QueueEntry& e) {
      return e.txn == txn;
    });
  };

  auto send_request = [&](TxnId txn, Live& l) {
    msg::CcRequest m;
    m.txn = txn;
    m.attempt = l.attempt;
    m.copy = kX;
    m.op = l.op;
    m.proto = l.proto;
    m.ts = tsgen.Next(sim.Now()) + rng.UniformInt(3000);
    m.backoff_interval = 1 + rng.UniformInt(64);
    m.txn_requests = l.multi ? 2 : 1;
    m.reply_to = kUserSite;
    qm.OnRequest(m);
  };

  for (int step = 0; step < 10000; ++step) {
    const bool overloaded = live.size() > 48;
    const int action = overloaded ? 5 + static_cast<int>(rng.UniformInt(7))
                                  : static_cast<int>(rng.UniformInt(12));
    if (action < 5 || live.empty()) {
      // New transaction. T/O requests may be rejected outright (their
      // timestamp is below the copy's read/write marks); a rejected
      // incarnation restarts with a fresh, larger timestamp, like the
      // issuer's reject handler.
      const TxnId txn = next_txn++;
      Live l;
      l.proto = static_cast<Protocol>(rng.UniformInt(3));
      l.op = rng.Bernoulli(0.5) ? OpType::kRead : OpType::kWrite;
      l.multi =
          l.proto == Protocol::kPrecedenceAgreement && rng.Bernoulli(0.5);
      send_request(txn, l);
      for (int attempt = 0; attempt < 4 && find_entry(txn) ==
                                               qm.QueueOf(kX).end();
           ++attempt) {
        // Rejected: restart the incarnation (fresh timestamp, bumped
        // attempt), as the issuer would.
        ++l.attempt;
        ++restarts;
        send_request(txn, l);
      }
      if (find_entry(txn) != qm.QueueOf(kX).end()) live.emplace(txn, l);
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(live.size())));
      const TxnId txn = it->first;
      Live& l = it->second;
      const auto& q = qm.QueueOf(kX);
      const auto entry = find_entry(txn);
      if (entry == q.end()) {
        live.erase(it);
        continue;
      }
      const bool blocked = entry->mark == EntryMark::kBlocked;
      const bool needs_final = blocked || !entry->confirmed;
      if (action < 8 && entry->granted) {
        qm.OnRelease(msg::Release{txn, l.attempt, kX,
                                  l.op == OpType::kWrite, txn});
        live.erase(it);
      } else if (action == 8 && entry->granted &&
                 l.proto == Protocol::kTimestampOrdering && !l.transformed) {
        qm.OnSemiTransform(msg::SemiTransform{
            txn, l.attempt, kX, l.op == OpType::kWrite, txn});
        l.transformed = true;
      } else if (action == 9 && needs_final && !l.finalized) {
        // The negotiation round completes: confirm at (or above) the
        // entry's current precedence, unblocking back-off entries and
        // making multi-request PA entries grantable.
        qm.OnFinalTs(msg::FinalTs{txn, l.attempt, kX,
                                  entry->prec.ts + rng.UniformInt(40)});
        l.finalized = true;
        ++finalizations;
      } else if (action >= 10) {
        // Cancel: the abort may hit a waiting, blocked, unconfirmed or
        // granted entry.
        qm.OnAbort(msg::AbortTxn{txn, l.attempt, kX});
        if (rng.Bernoulli(0.3)) {
          // Deadlock-victim style restart of the same transaction.
          ++l.attempt;
          l.transformed = false;
          l.finalized = false;
          ++restarts;
          send_request(txn, l);
          if (find_entry(txn) == q.end()) live.erase(it);
        } else {
          live.erase(it);
        }
      }
    }
    sim.RunToCompletion();
    CheckQueueInvariants(qm, "step");
    if (::testing::Test::HasFatalFailure()) return;
  }

  // The interleavings must actually have exercised the paths under test.
  EXPECT_GT(restarts, 0u);
  EXPECT_GT(finalizations, 0u);
  EXPECT_GT(qm.backoffs_sent(), 0u);
  EXPECT_GT(qm.rejects_sent(), 0u);

  // Drain: finalize what still needs it, release grants, abort the rest.
  for (auto& [txn, l] : live) {
    const auto entry = find_entry(txn);
    if (entry == qm.QueueOf(kX).end()) continue;
    if (entry->granted) {
      qm.OnRelease(msg::Release{txn, l.attempt, kX,
                                l.op == OpType::kWrite, txn});
    } else {
      qm.OnAbort(msg::AbortTxn{txn, l.attempt, kX});
    }
    sim.RunToCompletion();
    CheckQueueInvariants(qm, "drain");
  }
  EXPECT_TRUE(qm.QueueOf(kX).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QmRestartFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 5));

}  // namespace
}  // namespace unicc
