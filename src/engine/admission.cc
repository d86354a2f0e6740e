#include "engine/admission.h"

namespace unicc {

const char* ShedPolicyToken(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kBlock:
      return "block";
    case ShedPolicy::kDropNewest:
      return "drop_newest";
    case ShedPolicy::kDropOldest:
      return "drop_oldest";
    case ShedPolicy::kDeadline:
      return "deadline";
  }
  return "?";
}

bool ParseShedPolicy(const std::string& token, ShedPolicy* out) {
  if (token == "block") {
    *out = ShedPolicy::kBlock;
  } else if (token == "drop_newest") {
    *out = ShedPolicy::kDropNewest;
  } else if (token == "drop_oldest") {
    *out = ShedPolicy::kDropOldest;
  } else if (token == "deadline") {
    *out = ShedPolicy::kDeadline;
  } else {
    return false;
  }
  return true;
}

bool AdmissionGate::Offer(Entry e, Entry* shed) {
  if (entries_.size() < limit_) {
    keys_.push_back(KeyOf(e));
    entries_.push_back(std::move(e));
    return true;
  }
  std::size_t victim = entries_.size();  // sentinel: the incoming entry
  switch (policy_) {
    case ShedPolicy::kBlock:
      // The gate is never engaged under kBlock; treat a misuse as
      // drop-newest so behavior stays defined.
    case ShedPolicy::kDropNewest:
      break;
    case ShedPolicy::kDropOldest: {
      // Evict the oldest entry among the lowest priority present; the
      // incoming arrival takes its place (even if it is itself low
      // priority — newest information wins within a class).
      victim = 0;
      for (std::size_t i = 1; i < keys_.size(); ++i) {
        const Key& v = keys_[victim];
        const Key& c = keys_[i];
        if (c.priority < v.priority ||
            (c.priority == v.priority && c.seq < v.seq)) {
          victim = i;
        }
      }
      break;
    }
    case ShedPolicy::kDeadline: {
      // Shed the entry with the earliest absolute deadline — the work
      // least likely to commit in time. Deadline-free entries (deadline
      // 0) are treated as "infinitely patient" and never chosen over a
      // deadlined one; among equals the lower seq (older) loses first,
      // and the incoming arrival competes on the same terms.
      auto patience = [](SimTime dl) { return dl == 0 ? ~SimTime(0) : dl; };
      SimTime best_dl = patience(e.deadline);
      std::uint64_t best_seq = e.seq;
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        const SimTime dl = patience(keys_[i].deadline);
        if (dl < best_dl || (dl == best_dl && keys_[i].seq < best_seq)) {
          victim = i;
          best_dl = dl;
          best_seq = keys_[i].seq;
        }
      }
      break;
    }
  }
  if (victim == entries_.size()) {
    *shed = std::move(e);
    return false;
  }
  *shed = std::move(entries_[victim]);
  keys_[victim] = KeyOf(e);
  entries_[victim] = std::move(e);
  return false;
}

std::size_t AdmissionGate::BestIndex() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < keys_.size(); ++i) {
    const Key& b = keys_[best];
    const Key& c = keys_[i];
    if (c.priority > b.priority ||
        (c.priority == b.priority && c.seq < b.seq)) {
      best = i;
    }
  }
  return best;
}

void AdmissionGate::TakeAt(std::size_t i, Entry* out) {
  *out = std::move(entries_[i]);
  if (i + 1 != entries_.size()) {
    keys_[i] = keys_.back();
    entries_[i] = std::move(entries_.back());
  }
  keys_.pop_back();
  entries_.pop_back();
}

AdmissionGate::Entry AdmissionGate::PopBest() {
  Entry out;
  TakeAt(BestIndex(), &out);
  return out;
}

bool AdmissionGate::Remove(std::uint64_t seq, Entry* out) {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i].seq == seq) {
      TakeAt(i, out);
      return true;
    }
  }
  return false;
}

std::size_t AdmissionGate::Clear() {
  const std::size_t n = entries_.size();
  keys_.clear();
  entries_.clear();
  return n;
}

}  // namespace unicc
