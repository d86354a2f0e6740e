// Conservative parallel runner: N Engine shards, each with its own
// Simulator and the sites the ShardPlan assigns to it, advanced in
// lock-step windows by worker threads. The lookahead bound is the
// transport's minimum inter-site delay (base_delay): every event executed
// in a window [start, end) has timestamp >= the global minimum next-event
// time, so any message it sends cannot be due before end, and parking
// cross-shard messages on the ShardBus until the barrier never delays a
// delivery past its timestamp.
//
// Determinism: shard threads interact only through the bus and the shard
// directory, both drained/merged single-threaded at barriers in stable
// shard order, with envelope order fixed by (delivery time, source shard,
// source sequence). For a fixed shard count the run is therefore
// bit-reproducible regardless of thread scheduling, and with shards = 1
// the window loop replays exactly the classic engine's event sequence.
//
// Batch admission only: arrival streams require a global admission gate,
// which would serialize the shards (ScenarioSpec validation rejects
// shards > 1 for open-system scenarios).
#ifndef UNICC_ENGINE_SHARDED_ENGINE_H_
#define UNICC_ENGINE_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/engine.h"
#include "engine/shard.h"
#include "net/shard_bus.h"
#include "serializability/conflict_graph.h"

namespace unicc {

class ShardedEngine {
 public:
  // Builds per-shard EngineCallbacks; shard-local observers (e.g. the STL
  // parameter estimator) must not be shared across shard threads.
  using CallbacksFactory = std::function<EngineCallbacks(std::uint32_t)>;

  explicit ShardedEngine(EngineOptions options,
                         CallbacksFactory callbacks = {});
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::uint32_t shards() const { return plan_.shards; }
  const ShardPlan& plan() const { return plan_; }
  // The shard engines, e.g. for installing per-shard protocol policies.
  Engine& shard(std::uint32_t i) { return *engines_[i]; }

  // Routes by spec.home to the owning shard.
  Status AddTransaction(SimTime when, TxnSpec spec);
  Status AddWorkload(const std::vector<WorkloadGenerator::Arrival>& arrivals);
  // Stages the compute function on every shard (home unknown until
  // admission).
  void SetCompute(TxnId txn, ComputeFn fn);

  // Runs the window loop to completion on shards() worker threads and
  // returns the merged summary. Call once.
  RunSummary Run();

  // --- post-run merged views (valid after Run) -------------------------
  const RunMetrics& metrics() const { return merged_metrics_; }
  const TimelineRecorder* timeline() const { return merged_timeline_.get(); }
  const ImplementationLog& log() const { return merged_log_; }
  SerializabilityReport CheckSerializability() const;
  std::vector<std::uint64_t> ReadReplicas(ItemId item) const;
  // The replica-consistency oracle (CheckReplicas) over every shard's
  // data sites.
  bool ReplicasConsistent() const;
  std::uint64_t MessagesOfKind(MessageKind k) const;
  std::uint64_t TotalEventsRun() const;
  std::uint64_t BusCrossings() const { return bus_.drained(); }
  const EngineOptions& options() const { return options_; }
  std::uint64_t deadlock_victim_count() const;

 private:
  // The store of data site `site`, read from the shard that owns it.
  const Store* StoreAt(SiteId site) const;

  // One barrier generation: workers run their shard up to window_end_.
  void WorkerLoop(std::uint32_t shard);
  void MergeResults();

  EngineOptions options_;
  ShardPlan plan_;
  ShardBus bus_;
  ShardDirectory directory_;
  Duration lookahead_ = 0;
  bool global_stop_ = false;  // written at barriers only
  SimTime window_end_ = 0;    // written at barriers only
  bool quit_ = false;         // written at barriers only
  std::vector<std::unique_ptr<Engine>> engines_;
  bool ran_ = false;

  // Merged post-run state.
  RunMetrics merged_metrics_;
  std::unique_ptr<TimelineRecorder> merged_timeline_;
  ImplementationLog merged_log_;
  CommittedSet merged_committed_;

  // Type-erased std::barrier pair (start/done), so <barrier> stays out of
  // this header.
  struct Sync;
  std::unique_ptr<Sync> sync_;
};

}  // namespace unicc

#endif  // UNICC_ENGINE_SHARDED_ENGINE_H_
