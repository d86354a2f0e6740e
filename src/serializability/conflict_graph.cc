#include "serializability/conflict_graph.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "common/check.h"

namespace unicc {
namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

// Open-addressing index from a committed TxnId to its dense rank and
// committed attempt. Sized by the committed set only: trace ids are
// arbitrary 64-bit values, so nothing may be indexed by the id itself.
class DenseIndex {
 public:
  struct Slot {
    TxnId id = 0;
    std::uint32_t dense = kNone;
    std::uint32_t attempt = 0;
  };

  // `ranked` is sorted by id; entry i gets dense rank i.
  explicit DenseIndex(
      const std::vector<std::pair<TxnId, std::uint32_t>>& ranked)
      : slots_(std::bit_ceil(std::max<std::size_t>(2, 2 * ranked.size()))),
        shift_(64 - std::countr_zero(slots_.size())) {
    for (std::size_t d = 0; d < ranked.size(); ++d) {
      std::size_t i = Home(ranked[d].first);
      while (slots_[i].dense != kNone) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = Slot{ranked[d].first, static_cast<std::uint32_t>(d),
                       ranked[d].second};
    }
  }

  // The slot of `id`, or an empty slot (dense == kNone) if not committed.
  const Slot& Find(TxnId id) const {
    std::size_t i = Home(id);
    while (slots_[i].dense != kNone && slots_[i].id != id) {
      i = (i + 1) & (slots_.size() - 1);
    }
    return slots_[i];
  }

 private:
  std::size_t Home(TxnId id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::vector<Slot> slots_;
  int shift_;
};

// Min-priority set over dense ranks [0, n): a bitmap plus one summary
// level per 64-fold fan-out, so push and pop-min cost O(log64 n) word
// operations (a binary heap's sifts cost ~12% more verify time on the
// overload benchmark).
class RankQueue {
 public:
  explicit RankQueue(std::uint32_t n) {
    std::size_t words = n;
    do {
      words = std::max<std::size_t>(1, (words + 63) / 64);
      levels_.emplace_back(words, 0);
    } while (words > 1);
  }

  bool Empty() const { return levels_.back()[0] == 0; }

  void Push(std::uint32_t x) {
    for (std::vector<std::uint64_t>& level : levels_) {
      level[x >> 6] |= std::uint64_t{1} << (x & 63);
      x >>= 6;
    }
  }

  std::uint32_t PopMin() {
    std::uint32_t x = 0;
    for (std::size_t l = levels_.size(); l-- > 0;) {
      x = x << 6 | static_cast<std::uint32_t>(std::countr_zero(levels_[l][x]));
    }
    const std::uint32_t min = x;
    for (std::vector<std::uint64_t>& level : levels_) {
      level[x >> 6] &= ~(std::uint64_t{1} << (x & 63));
      if (level[x >> 6] != 0) break;
      x >>= 6;
    }
    return min;
  }

 private:
  // levels_[0] holds one bit per rank; bit i of levels_[l + 1] says that
  // word i of levels_[l] is non-zero.
  std::vector<std::vector<std::uint64_t>> levels_;
};

}  // namespace

SerializabilityReport ConflictGraphChecker::Check(
    const ImplementationLog& log, const CommittedSet& committed) {
  SerializabilityReport report;

  // Dense ids: rank the committed transactions by TxnId, so dense order is
  // TxnId order and every per-node array below is sized by the committed
  // set.
  std::vector<std::pair<TxnId, std::uint32_t>> ranked(committed.begin(),
                                                      committed.end());
  std::sort(ranked.begin(), ranked.end());
  UNICC_CHECK_MSG(std::adjacent_find(ranked.begin(), ranked.end(),
                                     [](const auto& a, const auto& b) {
                                       return a.first == b.first;
                                     }) == ranked.end(),
                  "a transaction appears twice in the committed set");
  UNICC_CHECK(ranked.size() < kNone);
  const std::uint32_t n = static_cast<std::uint32_t>(ranked.size());
  const DenseIndex index(ranked);
  std::vector<std::uint8_t> present(n, 0);

  // Edges as packed (u << 32 | v) pairs. Per copy, only the last writer
  // plus every reader since that write gets an edge to the next operation
  // (instead of all conflicting pairs, which is quadratic in the log
  // length). The graph has the same transitive closure: an earlier writer
  // reaches a later op through the chain of intermediate writers.
  // Acyclicity — and the minimal witness order Kahn's algorithm extracts
  // below — depend only on that closure. Each read feeds at most two
  // edges, so there are O(records) of them.
  std::vector<std::uint64_t> edges;
  edges.reserve(log.TotalRecords());
  auto add_edge = [&edges](std::uint32_t u, std::uint32_t v) {
    edges.push_back(std::uint64_t{u} << 32 | v);
  };
  std::vector<std::uint32_t> readers;
  for (const CopyId& copy : log.Copies()) {
    const std::vector<LogRecord>& records = log.LogOf(copy);
    // Logs are appended in implementation order (seq is assigned at append
    // time), so the committed filter below keeps them sorted.
    UNICC_CHECK(std::is_sorted(
        records.begin(), records.end(),
        [](const LogRecord& a, const LogRecord& b) { return a.seq < b.seq; }));
    readers.clear();
    std::uint32_t writer = kNone;
    for (const LogRecord& r : records) {
      const DenseIndex::Slot& slot = index.Find(r.txn);
      if (slot.dense == kNone || slot.attempt != r.attempt) continue;
      const std::uint32_t t = slot.dense;
      present[t] = 1;
      if (writer != kNone && writer != t) add_edge(writer, t);
      if (r.op == OpType::kRead) {
        readers.push_back(t);
      } else {
        for (std::uint32_t reader : readers) {
          if (reader != t) add_edge(reader, t);
        }
        readers.clear();
        writer = t;
      }
    }
  }
  for (std::uint8_t p : present) report.num_txns += p;

  // CSR adjacency by counting sort on the source, then in-place duplicate
  // removal per source: stamp[v] == u + 1 marks v as already kept for u.
  std::vector<std::uint32_t> offset(std::size_t{n} + 1, 0);
  for (std::uint64_t e : edges) ++offset[(e >> 32) + 1];
  for (std::uint32_t u = 0; u < n; ++u) offset[u + 1] += offset[u];
  UNICC_CHECK(edges.size() < kNone);
  std::vector<std::uint32_t> target(edges.size());
  {
    std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (std::uint64_t e : edges) {
      target[cursor[e >> 32]++] = static_cast<std::uint32_t>(e);
    }
  }
  edges = {};
  std::vector<std::uint32_t> stamp(n, 0);
  std::uint32_t kept = 0;
  for (std::uint32_t u = 0, begin = 0; u < n; ++u) {
    const std::uint32_t end = offset[u + 1];
    offset[u] = kept;
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t v = target[i];
      if (stamp[v] == u + 1) continue;
      stamp[v] = u + 1;
      target[kept++] = v;
    }
    begin = end;
  }
  offset[n] = kept;
  report.num_edges = kept;

  // Kahn's algorithm; leftover nodes are on (or downstream of) a cycle.
  std::vector<std::uint32_t>& indeg = stamp;
  std::fill(indeg.begin(), indeg.end(), 0);
  for (std::uint32_t i = 0; i < kept; ++i) ++indeg[target[i]];
  // Always taking the smallest ready rank, i.e. the smallest ready TxnId,
  // gives the deterministic witness (the lexicographically least order).
  RankQueue ready(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    if (present[u] && indeg[u] == 0) ready.Push(u);
  }
  report.order.reserve(report.num_txns);
  while (!ready.Empty()) {
    const std::uint32_t u = ready.PopMin();
    report.order.push_back(ranked[u].first);
    for (std::uint32_t i = offset[u]; i < offset[u + 1]; ++i) {
      if (--indeg[target[i]] == 0) ready.Push(target[i]);
    }
  }
  if (report.order.size() == report.num_txns) {
    report.serializable = true;
    return report;
  }
  report.serializable = false;
  report.order.clear();

  // Extract one cycle among the remaining nodes (indegree still > 0).
  // Every remaining node keeps a remaining predecessor, so walking
  // predecessors never dead-ends and must revisit a node; that revisit
  // closes a cycle. The walk starts at the smallest remaining TxnId and
  // always steps to the smallest remaining predecessor, so the cycle
  // depends only on the graph. Sources are scanned in ascending rank, so
  // the first remaining source seen for v is its smallest predecessor.
  std::vector<std::uint32_t> min_pred(n, kNone);
  for (std::uint32_t u = 0; u < n; ++u) {
    if (indeg[u] == 0) continue;
    for (std::uint32_t i = offset[u]; i < offset[u + 1]; ++i) {
      const std::uint32_t v = target[i];
      if (indeg[v] != 0 && min_pred[v] == kNone) min_pred[v] = u;
    }
  }
  std::uint32_t cur = 0;
  while (indeg[cur] == 0) ++cur;
  std::vector<std::uint32_t> pos(n, kNone);  // path index per node
  std::vector<std::uint32_t> path;
  while (pos[cur] == kNone) {
    pos[cur] = static_cast<std::uint32_t>(path.size());
    path.push_back(cur);
    cur = min_pred[cur];
  }
  // path[i + 1] -> path[i] is an edge; report the cycle in edge order.
  for (std::size_t i = path.size(); i-- > pos[cur];) {
    report.cycle.push_back(ranked[path[i]].first);
  }
  return report;
}

}  // namespace unicc
