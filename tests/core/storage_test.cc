#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "storage/catalog.h"
#include "storage/log.h"
#include "storage/replica_check.h"
#include "storage/store.h"

namespace unicc {
namespace {

TEST(CatalogTest, RejectsBadArguments) {
  EXPECT_FALSE(Catalog::Make(0, {1}, 1).ok());
  EXPECT_FALSE(Catalog::Make(10, {}, 1).ok());
  EXPECT_FALSE(Catalog::Make(10, {1, 2}, 3).ok());
  EXPECT_FALSE(Catalog::Make(10, {1, 2}, 0).ok());
  EXPECT_TRUE(Catalog::Make(10, {1, 2}, 2).ok());
}

TEST(CatalogTest, ReplicationPlacesDistinctSites) {
  auto c = Catalog::Make(20, {4, 5, 6}, 3).value();
  for (ItemId i = 0; i < 20; ++i) {
    auto copies = c.CopiesOf(i);
    ASSERT_EQ(copies.size(), 3u);
    std::set<SiteId> sites;
    for (const auto& copy : copies) {
      EXPECT_EQ(copy.item, i);
      sites.insert(copy.site);
    }
    EXPECT_EQ(sites.size(), 3u);
  }
}

TEST(CatalogTest, ReadCopyIsOneOfTheCopies) {
  auto c = Catalog::Make(8, {2, 3}, 2).value();
  for (ItemId i = 0; i < 8; ++i) {
    auto copies = c.CopiesOf(i);
    for (std::uint64_t pref = 0; pref < 5; ++pref) {
      const CopyId rc = c.ReadCopy(i, pref);
      EXPECT_NE(std::find(copies.begin(), copies.end(), rc), copies.end());
    }
  }
}

TEST(CatalogTest, SingleReplicaReadsAlwaysSameCopy) {
  auto c = Catalog::Make(8, {2, 3}, 1).value();
  EXPECT_EQ(c.ReadCopy(4, 0), c.ReadCopy(4, 99));
}

TEST(CatalogTest, CopiesAtPartitionsAllCopies) {
  auto c = Catalog::Make(10, {7, 8, 9}, 2).value();
  std::size_t total = 0;
  for (SiteId s : {7u, 8u, 9u}) total += c.CopiesAt(s).size();
  EXPECT_EQ(total, 10u * 2u);
}

TEST(StoreTest, ReadsZeroWhenUnwritten) {
  Store s;
  EXPECT_EQ(s.Read(CopyId{1, 2}), 0u);
}

TEST(StoreTest, WriteThenRead) {
  Store s;
  s.Write(CopyId{1, 2}, 77);
  EXPECT_EQ(s.Read(CopyId{1, 2}), 77u);
  s.Write(CopyId{1, 2}, 78);
  EXPECT_EQ(s.Read(CopyId{1, 2}), 78u);
  EXPECT_EQ(s.WrittenCopies(), 1u);
}

TEST(CatalogTest, CopyOfMatchesCopiesOf) {
  auto c = Catalog::Make(24, {4, 5, 6, 7}, 3).value();
  for (ItemId i = 0; i < 24; ++i) {
    const auto copies = c.CopiesOf(i);
    for (std::uint32_t k = 0; k < c.replication(); ++k) {
      EXPECT_EQ(c.CopyOf(i, k), copies[k]);
    }
    for (std::uint64_t pref = 0; pref < 7; ++pref) {
      EXPECT_EQ(c.ReadCopy(i, pref), c.CopyOf(i, pref % c.replication()));
    }
  }
}

TEST(StoreTest, MatchesReferenceMapOnRandomOps) {
  // Drive the open-addressing table and a reference unordered_map with
  // the same randomized op sequence; they must agree on every read.
  Store store;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(51);
  const auto key_of = [](const CopyId& c) {
    return (static_cast<std::uint64_t>(c.item) << 32) | c.site;
  };
  for (int op = 0; op < 20000; ++op) {
    const CopyId copy{static_cast<ItemId>(rng.UniformInt(700)),
                      static_cast<SiteId>(rng.UniformInt(5))};
    if (rng.Bernoulli(0.5)) {
      const std::uint64_t v = rng.UniformRange(1, 1000000);
      store.Write(copy, v);
      ref[key_of(copy)] = v;
    } else {
      const auto it = ref.find(key_of(copy));
      EXPECT_EQ(store.Read(copy), it == ref.end() ? 0u : it->second);
    }
  }
  EXPECT_EQ(store.WrittenCopies(), ref.size());
  for (const auto& [key, value] : ref) {
    const CopyId copy{static_cast<ItemId>(key >> 32),
                      static_cast<SiteId>(key & 0xffffffffu)};
    EXPECT_EQ(store.Read(copy), value);
  }
}

TEST(StoreTest, SentinelCopyIdRoundTrips) {
  // {0xffffffff, 0xffffffff} packs to the table's empty-slot marker and
  // takes the dedicated escape path.
  Store s;
  const CopyId sentinel{0xffffffffu, 0xffffffffu};
  EXPECT_EQ(s.Read(sentinel), 0u);
  s.Write(sentinel, 42);
  EXPECT_EQ(s.Read(sentinel), 42u);
  EXPECT_EQ(s.WrittenCopies(), 1u);
  s.Write(sentinel, 43);
  EXPECT_EQ(s.Read(sentinel), 43u);
  EXPECT_EQ(s.WrittenCopies(), 1u);
  s.Write(CopyId{1, 1}, 7);
  EXPECT_EQ(s.WrittenCopies(), 2u);
  EXPECT_EQ(s.Read(sentinel), 43u);
}

TEST(StoreTest, GrowsPastInitialCapacity) {
  Store s;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    s.Write(CopyId{i, i % 13}, i + 1);
  }
  EXPECT_EQ(s.WrittenCopies(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(s.Read(CopyId{i, i % 13}), i + 1);
  }
}

TEST(StoreTest, ForEachWrittenVisitsEveryWrittenCopyOnce) {
  Store s;
  std::map<std::pair<ItemId, SiteId>, std::uint64_t> want;
  for (std::uint32_t i = 0; i < 300; ++i) {
    s.Write(CopyId{i, i % 7}, i);
    want[{i, i % 7}] = i;
  }
  s.Write(CopyId{0xffffffffu, 0xffffffffu}, 5);  // escape slot
  want[{0xffffffffu, 0xffffffffu}] = 5;
  std::map<std::pair<ItemId, SiteId>, std::uint64_t> seen;
  EXPECT_TRUE(s.ForEachWritten([&](const CopyId& c, std::uint64_t v) {
    EXPECT_TRUE(seen.emplace(std::make_pair(c.item, c.site), v).second);
    return true;
  }));
  EXPECT_EQ(seen, want);

  int visits = 0;
  EXPECT_FALSE(s.ForEachWritten([&](const CopyId&, std::uint64_t) {
    return ++visits < 3;
  }));
  EXPECT_EQ(visits, 3);
}

// Hand-built data sites for the replica oracle: one Store per site of the
// catalog (plus any extra site a test writes to).
class ReplicaFixture {
 public:
  ReplicaFixture(ItemId items, std::vector<SiteId> sites,
                 std::uint32_t replication)
      : catalog_(Catalog::Make(items, std::move(sites), replication).value()) {
    for (SiteId s : catalog_.data_sites()) stores_[s];
  }

  const Catalog& catalog() const { return catalog_; }
  Store& at(SiteId site) { return stores_[site]; }

  // Writes `value` to every replica of `item`, as a committed write does.
  void WriteAll(ItemId item, std::uint64_t value) {
    for (std::uint32_t k = 0; k < catalog_.replication(); ++k) {
      const CopyId c = catalog_.CopyOf(item, k);
      stores_[c.site].Write(c, value);
    }
  }

  Status Check() const {
    return CheckReplicas(catalog_, [this](SiteId s) -> const Store* {
      const auto it = stores_.find(s);
      return it == stores_.end() ? nullptr : &it->second;
    });
  }

  // The full-keyspace loop the oracle replaces: every replica of every
  // item must read the same value.
  bool ReferenceConsistent() const {
    for (ItemId i = 0; i < catalog_.num_items(); ++i) {
      const CopyId first = catalog_.CopyOf(i, 0);
      const std::uint64_t v = stores_.at(first.site).Read(first);
      for (std::uint32_t k = 1; k < catalog_.replication(); ++k) {
        const CopyId c = catalog_.CopyOf(i, k);
        if (stores_.at(c.site).Read(c) != v) return false;
      }
    }
    return true;
  }

 private:
  Catalog catalog_;
  std::map<SiteId, Store> stores_;
};

TEST(ReplicaCheckTest, UnwrittenAndFullyReplicatedWritesPass) {
  ReplicaFixture f(12, {4, 5, 6}, 2);
  EXPECT_TRUE(f.Check().ok());
  for (ItemId i = 0; i < 12; i += 3) f.WriteAll(i, 100 + i);
  f.WriteAll(7, 0);  // a written 0 equals the unwritten default
  EXPECT_TRUE(f.Check().ok()) << f.Check().ToString();
}

TEST(ReplicaCheckTest, DivergentReplicasFail) {
  ReplicaFixture f(12, {4, 5, 6}, 2);
  f.WriteAll(3, 8);
  const CopyId c = f.catalog().CopyOf(3, 1);
  f.at(c.site).Write(c, 9);
  const Status st = f.Check();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("copy(3@"), std::string::npos) << st.message();
}

TEST(ReplicaCheckTest, ItemWrittenOnOneCopyFails) {
  for (std::uint32_t k = 0; k < 3; ++k) {
    ReplicaFixture f(12, {4, 5, 6, 7}, 3);
    f.WriteAll(2, 1);
    const CopyId c = f.catalog().CopyOf(5, k);
    f.at(c.site).Write(c, 42);
    EXPECT_FALSE(f.Check().ok()) << "copy " << k;
  }
}

TEST(ReplicaCheckTest, WriteOutsidePlacementFails) {
  // Item 0's two replicas live at sites 4 and 5; site 6 holds none.
  ReplicaFixture f(12, {4, 5, 6}, 2);
  f.WriteAll(0, 3);
  f.at(6).Write(CopyId{0, 6}, 3);
  EXPECT_FALSE(f.Check().ok());
}

TEST(ReplicaCheckTest, CopyFiledUnderAnotherSiteFails) {
  ReplicaFixture f(12, {4, 5, 6}, 2);
  f.WriteAll(0, 3);
  // Site 4's copy of item 0, in the store of site 5 (which holds the
  // item's other replica): placement and values alike look right.
  f.at(5).Write(CopyId{0, 4}, 3);
  EXPECT_FALSE(f.Check().ok());
}

TEST(ReplicaCheckTest, OutOfRangeItemFails) {
  ReplicaFixture f(12, {4, 5, 6}, 2);
  // Item 12 is one past the keyspace; its would-be replicas agree, so
  // only the range check can catch it.
  for (std::uint32_t k = 0; k < 2; ++k) {
    const CopyId c{12, f.catalog().data_sites()[(12 + k) % 3]};
    f.at(c.site).Write(c, 6);
  }
  EXPECT_FALSE(f.Check().ok());

  ReplicaFixture g(12, {4, 5, 6}, 2);
  g.at(4).Write(CopyId{0xffffffffu, 0xffffffffu}, 6);  // escape slot
  EXPECT_FALSE(g.Check().ok());
}

TEST(ReplicaCheckTest, MatchesFullKeyspaceLoopOnRandomWriteSets) {
  Rng rng(20261017);
  int consistent = 0;
  int divergent = 0;
  for (int draw = 0; draw < 400; ++draw) {
    const ItemId items = static_cast<ItemId>(rng.UniformRange(1, 40));
    const std::uint32_t num_sites =
        static_cast<std::uint32_t>(rng.UniformRange(1, 5));
    const std::uint32_t replication =
        static_cast<std::uint32_t>(rng.UniformRange(1, num_sites));
    std::vector<SiteId> sites;
    for (std::uint32_t s = 0; s < num_sites; ++s) sites.push_back(3 + 2 * s);
    ReplicaFixture f(items, sites, replication);
    const int writes = static_cast<int>(rng.UniformInt(12));
    for (int w = 0; w < writes; ++w) {
      const ItemId item = static_cast<ItemId>(rng.UniformInt(items));
      const std::uint64_t value = rng.UniformInt(3);  // collisions likely
      if (rng.Bernoulli(0.7)) {
        f.WriteAll(item, value);
      } else {
        const CopyId c = f.catalog().CopyOf(
            item, static_cast<std::uint32_t>(rng.UniformInt(replication)));
        f.at(c.site).Write(c, value);
      }
    }
    const bool want = f.ReferenceConsistent();
    ASSERT_EQ(f.Check().ok(), want) << "draw " << draw;
    (want ? consistent : divergent)++;
  }
  // Both outcomes must be exercised for the agreement to mean anything.
  EXPECT_GT(consistent, 50);
  EXPECT_GT(divergent, 50);
}

TEST(LogTest, AppendsInSequenceOrder) {
  ImplementationLog log;
  const CopyId c{3, 1};
  log.Append(c, 10, 1, OpType::kRead);
  log.Append(c, 11, 1, OpType::kWrite);
  const auto& records = log.LogOf(c);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].txn, 10u);
  EXPECT_EQ(records[1].txn, 11u);
  EXPECT_LT(records[0].seq, records[1].seq);
  EXPECT_EQ(log.TotalRecords(), 2u);
}

// The log is retained for the whole run and dominates peak memory on long
// ones, so its record stays at three words.
TEST(LogTest, RecordIsThreeWords) { EXPECT_EQ(sizeof(LogRecord), 24u); }

TEST(LogTest, SeparateCopiesSeparateLogs) {
  ImplementationLog log;
  log.Append(CopyId{1, 0}, 1, 1, OpType::kRead);
  log.Append(CopyId{2, 0}, 2, 1, OpType::kRead);
  EXPECT_EQ(log.LogOf(CopyId{1, 0}).size(), 1u);
  EXPECT_EQ(log.LogOf(CopyId{2, 0}).size(), 1u);
  EXPECT_EQ(log.LogOf(CopyId{3, 0}).size(), 0u);
  EXPECT_EQ(log.Copies().size(), 2u);
}

TEST(LogTest, ClearResets) {
  ImplementationLog log;
  log.Append(CopyId{1, 0}, 1, 1, OpType::kRead);
  log.Clear();
  EXPECT_EQ(log.TotalRecords(), 0u);
  EXPECT_TRUE(log.Copies().empty());
}

}  // namespace
}  // namespace unicc
