// In-memory span recording for the benchmark's traced pass, plus the small
// JSON helpers the benchmark's outputs share. Spans are recorded from the
// benchmark's own files around each call into a layer's public functions;
// layers reached only from inside the engine get derived spans (marked as
// such) computed from the measured ones.
#ifndef CCBENCH_TRACE_H_
#define CCBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ccbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the recorder was created
  std::int64_t end_ns = 0;
  int parent = -1;            // index into spans(), -1 for a root
  std::uint32_t sim = 0;      // simulation index within the run
  bool derived = false;       // computed, not measured around a call
};

class SpanRecorder {
 public:
  SpanRecorder(std::string workload, std::uint64_t seed);

  // Opens a span under the innermost open one; returns its index.
  int Begin(const std::string& name);
  // Closes the span `id`, which must be the innermost open one.
  void End(int id);
  // Adds a closed, derived span under `parent`.
  int AddDerived(const std::string& name, int parent, std::int64_t start_ns,
                 std::int64_t end_ns);
  void set_sim(std::uint32_t sim) { sim_ = sim; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& workload() const { return workload_; }
  std::uint64_t seed() const { return seed_; }

  // Duration minus the part covered by direct children, summed per name.
  std::map<std::string, double> SelfSeconds() const;

 private:
  std::int64_t NowNs() const;

  std::string workload_;
  std::uint64_t seed_;
  Clock::time_point origin_;
  std::uint32_t sim_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

// JSON number with every significant digit (non-finite values as null).
std::string JsonNumber(double v);
// JSON string literal (escapes quotes, backslashes and control bytes).
std::string JsonString(const std::string& s);

}  // namespace ccbench

#endif  // CCBENCH_TRACE_H_
