// Conflict-serializability checking (paper, Theorem 1 / Section 4.3): build
// the conflict graph <s over committed transactions from the per-copy
// implementation logs and test it for acyclicity. When acyclic, a
// serialization order (topological sort) is produced as a witness.
#ifndef UNICC_SERIALIZABILITY_CONFLICT_GRAPH_H_
#define UNICC_SERIALIZABILITY_CONFLICT_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "storage/log.h"

namespace unicc {

struct SerializabilityReport {
  bool serializable = false;
  // Witness serialization order (committed transactions, topologically
  // sorted) when serializable.
  std::vector<TxnId> order;
  // A cycle in the conflict graph when not serializable.
  std::vector<TxnId> cycle;
  std::size_t num_txns = 0;
  std::size_t num_edges = 0;
};

// The committed incarnation of each transaction as (txn, attempt) pairs,
// in any order (the engine appends one at each commit). A transaction
// commits at most once, so no txn repeats. Log records from other
// incarnations are ignored.
using CommittedSet = std::vector<std::pair<TxnId, std::uint32_t>>;

class ConflictGraphChecker {
 public:
  // Builds the conflict graph of the committed set from `log` and checks
  // acyclicity. Aborts if `committed` names a transaction twice.
  static SerializabilityReport Check(const ImplementationLog& log,
                                     const CommittedSet& committed);
};

}  // namespace unicc

#endif  // UNICC_SERIALIZABILITY_CONFLICT_GRAPH_H_
