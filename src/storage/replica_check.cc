#include "storage/replica_check.h"

#include <string>
#include <vector>

#include "common/check.h"

namespace unicc {

namespace {

std::string CopyName(const CopyId& c) {
  return "copy(" + std::to_string(c.item) + "@" + std::to_string(c.site) +
         ")";
}

}  // namespace

Status CheckReplicas(const Catalog& catalog, const StoreLookup& store_at) {
  const std::vector<SiteId>& sites = catalog.data_sites();
  const std::size_t n = sites.size();
  // Copy k of item i lives at sites[(i + k) % n], so a site's position in
  // the catalog indexes its store directly.
  std::vector<const Store*> stores(n);
  for (std::size_t j = 0; j < n; ++j) {
    stores[j] = store_at(sites[j]);
    UNICC_CHECK_MSG(stores[j] != nullptr, "no store for a data site");
  }

  Status result;
  for (std::size_t j = 0; j < n && result.ok(); ++j) {
    stores[j]->ForEachWritten([&](const CopyId& copy, std::uint64_t value) {
      if (copy.site != sites[j]) {
        result = Status::FailedPrecondition(
            CopyName(copy) + " is stored at site " +
            std::to_string(sites[j]));
        return false;
      }
      if (copy.item >= catalog.num_items()) {
        result = Status::FailedPrecondition(
            CopyName(copy) + ": item out of range (num_items " +
            std::to_string(catalog.num_items()) + ")");
        return false;
      }
      const std::size_t first = copy.item % n;  // position of copy 0
      const std::size_t k = (j + n - first) % n;
      if (k >= catalog.replication()) {
        result = Status::FailedPrecondition(
            CopyName(copy) + ": site holds no replica of the item");
        return false;
      }
      for (std::uint32_t r = 0; r < catalog.replication(); ++r) {
        const CopyId replica = catalog.CopyOf(copy.item, r);
        const std::uint64_t v = stores[(first + r) % n]->Read(replica);
        if (v != value) {
          result = Status::FailedPrecondition(
              CopyName(copy) + " holds " + std::to_string(value) + " but " +
              CopyName(replica) + " holds " + std::to_string(v));
          return false;
        }
      }
      return true;
    });
  }
  return result;
}

}  // namespace unicc
