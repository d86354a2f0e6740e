#include "storage/log.h"

#include <algorithm>

namespace unicc {

const std::vector<LogRecord> ImplementationLog::kEmpty;

void ImplementationLog::Append(const CopyId& copy, TxnId txn,
                               std::uint32_t attempt, OpType op) {
  logs_[copy].push_back(LogRecord{txn, attempt, op, next_seq_++});
}

const std::vector<LogRecord>& ImplementationLog::LogOf(
    const CopyId& copy) const {
  auto it = logs_.find(copy);
  return it == logs_.end() ? kEmpty : it->second;
}

std::vector<CopyId> ImplementationLog::Copies() const {
  std::vector<CopyId> out;
  out.reserve(logs_.size());
  for (const auto& [copy, log] : logs_) out.push_back(copy);
  return out;
}

void ImplementationLog::MergeFrom(const ImplementationLog& other) {
  const std::uint64_t base = next_seq_;
  std::vector<CopyId> copies = other.Copies();
  std::sort(copies.begin(), copies.end());
  for (const CopyId& copy : copies) {
    std::vector<LogRecord>& dst = logs_[copy];
    for (LogRecord rec : other.LogOf(copy)) {
      rec.seq += base;
      dst.push_back(rec);
    }
  }
  next_seq_ += other.next_seq_;
}

void ImplementationLog::Clear() {
  logs_.clear();
  next_seq_ = 0;
}

}  // namespace unicc
