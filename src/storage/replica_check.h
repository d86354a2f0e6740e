// The replica-consistency oracle. Under read-one/write-all replication
// every copy of an item must hold the same value once a run is quiescent.
//
// The check visits written copies only. A copy that no site wrote reads 0
// (Store::Read), so an item none of whose copies was written cannot
// diverge, and every divergent item has at least one written copy. For
// each written copy, all replicas of its item are read through
// Store::Read and compared. Cost: O(written copies x replication), not
// O(num_items x replication).
//
// A written copy is also checked against the placement: it must sit in
// the store of its own site, its item must be < num_items, and its site
// must hold one of the item's replicas (Catalog::CopyOf).
#ifndef UNICC_STORAGE_REPLICA_CHECK_H_
#define UNICC_STORAGE_REPLICA_CHECK_H_

#include <functional>

#include "common/status.h"
#include "common/types.h"
#include "storage/catalog.h"
#include "storage/store.h"

namespace unicc {

// The store of one data site. Called once per catalog data site; must
// return non-null for each of them.
using StoreLookup = std::function<const Store*(SiteId)>;

// OK when every item's replicas agree and every written copy is placed as
// the catalog says; otherwise FailedPrecondition naming the first
// offending copy.
Status CheckReplicas(const Catalog& catalog, const StoreLookup& store_at);

}  // namespace unicc

#endif  // UNICC_STORAGE_REPLICA_CHECK_H_
