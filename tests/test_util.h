// Shared helpers for unicc tests.
#ifndef UNICC_TESTS_TEST_UTIL_H_
#define UNICC_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "workload/generator.h"

namespace unicc::test {

// Engine options sized for fast deterministic tests.
inline EngineOptions SmallEngine(std::uint64_t seed = 7) {
  EngineOptions o;
  o.num_user_sites = 3;
  o.num_data_sites = 3;
  o.num_items = 32;
  o.replication = 1;
  o.network.base_delay = 5 * kMillisecond;
  o.network.jitter_mean = 0;
  o.seed = seed;
  return o;
}

inline WorkloadOptions SmallWorkload(std::uint64_t num_txns = 100) {
  WorkloadOptions w;
  w.arrival_rate_per_sec = 40;
  w.num_txns = num_txns;
  w.size_min = 2;
  w.size_max = 4;
  w.read_fraction = 0.5;
  w.compute_time = 2 * kMillisecond;
  return w;
}

// An engine plus the summary of its completed run.
struct WorkloadRun {
  std::unique_ptr<Engine> engine;
  RunSummary summary;
};

// Runs a generated workload to completion.
inline WorkloadRun RunWorkload(const EngineOptions& eo,
                               const WorkloadOptions& wo,
                               ProtocolPolicy policy) {
  WorkloadRun run;
  run.engine = std::make_unique<Engine>(eo);
  WorkloadGenerator gen(wo, eo.num_items, eo.num_user_sites,
                        Rng(eo.seed ^ 0x9e3779b9));
  run.engine->SetProtocolPolicy(std::move(policy));
  UNICC_CHECK(run.engine->AddWorkload(gen.Generate()).ok());
  run.summary = run.engine->Run();
  return run;
}

// Field-by-field equality of two arrival schedules: every field a trace
// records (time, id, home, protocol, compute, backoff, access sets).
inline void ExpectArrivalsEqual(const std::vector<Arrival>& a,
                                const std::vector<Arrival>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("arrival " + std::to_string(i));
    EXPECT_EQ(a[i].when, b[i].when);
    EXPECT_EQ(a[i].spec.id, b[i].spec.id);
    EXPECT_EQ(a[i].spec.home, b[i].spec.home);
    EXPECT_EQ(a[i].spec.protocol, b[i].spec.protocol);
    EXPECT_EQ(a[i].spec.compute_time, b[i].spec.compute_time);
    EXPECT_EQ(a[i].spec.backoff_interval, b[i].spec.backoff_interval);
    EXPECT_EQ(a[i].spec.read_set, b[i].spec.read_set);
    EXPECT_EQ(a[i].spec.write_set, b[i].spec.write_set);
  }
}

}  // namespace unicc::test

#endif  // UNICC_TESTS_TEST_UTIL_H_
