// ccbench: the repo benchmark binary. One process, one thread, one
// workload per invocation:
//
//   ccbench --workload=NAME --seed=N --seconds=S --trace=0|1 [--root=DIR]
//
// Repeats the workload's simulations (each set up, run and verified
// through the public entrypoint) for S seconds of host time, checks the
// correctness oracles on every simulation plus run-to-run determinism,
// and prints the end-to-end metrics as the last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace=1 it then makes one traced pass, writes its spans and
// counts to DIR/.bench_out/trace-NAME-seedN.json, prints a self-time
// table, and reports the per-layer metrics instead.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "trace.h"

namespace {

using namespace ccbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string root = ".";
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string value;
    if (const auto eq = a.find('='); eq != std::string::npos) {
      value = a.substr(eq + 1);
      a = a.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    try {
      if (a == "--workload") {
        out->workload = value;
      } else if (a == "--seed") {
        out->seed = std::stoull(value);
      } else if (a == "--seconds") {
        out->seconds = std::stod(value);
      } else if (a == "--trace") {
        out->trace = std::stoi(value) != 0;
      } else if (a == "--root") {
        out->root = value;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", a.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for %s: %s\n", a.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += JsonString(metrics[i].name) + ": {\"value\": " +
         JsonNumber(metrics[i].value) + ", \"unit\": " +
         JsonString(metrics[i].unit) + "}";
  }
  return s + "}";
}

double PerTxn(double n, std::uint64_t committed) {
  return committed == 0 ? 0 : n / static_cast<double>(committed);
}

// The untraced measurement: whole repetitions of the workload's
// simulations while another one fits in `seconds` of host time (at least
// one). Every repetition after the first must reproduce the first's
// fingerprints; a single-repetition run re-runs simulation 0 to check.
struct UntracedRun {
  std::vector<SimOutcome> first;            // repetition 0, per simulation
  std::vector<std::uint64_t> fingerprints;  // per simulation
  std::vector<double> setup_s, txn_per_s, verify_s;
  std::vector<std::vector<double>> run_s;   // per simulation index
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t peak_rss_kb = 0;
  std::uint32_t reps = 0;
};

void Record(const WorkloadDef& wl, std::uint32_t i, SimResult r,
            UntracedRun* u) {
  ++u->attempted;
  std::string failure = r.outcome.oracle_failure;
  const std::uint64_t fp = Fingerprint(r.outcome);
  if (u->fingerprints.size() <= i) {
    u->fingerprints.push_back(fp);
  } else if (fp != u->fingerprints[i]) {
    failure += " nondeterministic: a repeated simulation differs;";
  }
  if (!failure.empty()) {
    ++u->failed;
    std::fprintf(stderr, "oracle failure (%s sim %u):%s\n",
                 std::string(wl.name).c_str(), i, failure.c_str());
  }
  u->setup_s.push_back(r.host.setup_s());
  u->verify_s.push_back(r.host.verify_s());
  u->txn_per_s.push_back(static_cast<double>(r.outcome.committed) /
                         r.host.run_s);
  u->run_s[i].push_back(r.host.run_s);
  if (u->first.size() <= i) {
    u->first.push_back(std::move(r.outcome));
  } else {
    u->first[i].oracle_failure += failure;
  }
}

UntracedRun MeasureUntraced(const Args& args, const WorkloadDef& wl) {
  UntracedRun u;
  u.run_s.resize(wl.sims);
  const Clock::time_point start = Clock::now();
  double per_rep_s = 0;
  do {
    for (std::uint32_t i = 0; i < wl.sims; ++i) {
      Record(wl, i,
             RunSimulation(args.root, wl, SimSeed(args.seed, i), nullptr),
             &u);
    }
    ++u.reps;
    per_rep_s = SecondsSince(start) / u.reps;
  } while (SecondsSince(start) + per_rep_s <= args.seconds);
  u.peak_rss_kb = unicc::runner::PeakRssKb();
  if (u.reps == 1) {
    Record(wl, 0, RunSimulation(args.root, wl, SimSeed(args.seed, 0), nullptr),
           &u);
  }
  return u;
}

std::uint64_t RunDigest(const std::vector<std::uint64_t>& fingerprints) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t fp : fingerprints) {
    h ^= fp;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<Metric> EndToEnd(const UntracedRun& u, const SimRow& row) {
  HostRow host;
  host.setup_s = Median(u.setup_s);
  host.txn_per_s = Median(u.txn_per_s);
  host.verify_s = Median(u.verify_s);
  host.peak_rss_mb = static_cast<double>(u.peak_rss_kb) / 1024.0;
  return EndToEndMetrics(host, row);
}

// --- traced pass ---------------------------------------------------------

// The traced pass covers at most this many of a run's simulations.
constexpr std::uint32_t kMaxTracedSims = 16;

struct TracedRun {
  std::vector<SimResult> sims;
  SpanRecorder spans;
};

// Adds the in-engine layers as derived children of each runner.run span:
// in-run verification (the same calls, re-timed after the run) and the
// selector (replayed Choose time, scaled to the in-run call count). The
// run span's remaining self time is the event loop: sim, net, cc and
// deadlock detection together.
void AddDerivedSpans(TracedRun* t) {
  std::vector<int> run_spans;
  for (std::size_t i = 0; i < t->spans.spans().size(); ++i) {
    if (t->spans.spans()[i].name == "runner.run") {
      run_spans.push_back(static_cast<int>(i));
    }
  }
  for (std::size_t s = 0; s < run_spans.size(); ++s) {
    const Span run = t->spans.spans()[run_spans[s]];
    const SimResult& r = t->sims[s];
    t->spans.set_sim(static_cast<std::uint32_t>(s));
    std::int64_t cursor = run.start_ns;
    if (r.replay.has_value() && r.replay->choose_calls > 0) {
      const double sel_s = r.replay->choose_total_s *
                           static_cast<double>(r.outcome.selector_calls) /
                           static_cast<double>(r.replay->choose_calls);
      const auto ns = static_cast<std::int64_t>(sel_s * 1e9);
      t->spans.AddDerived("selector.in_run", run_spans[s], cursor,
                          cursor + ns);
      cursor += ns;
    }
    const auto ser_ns = static_cast<std::int64_t>(r.host.ser_check_s * 1e9);
    const auto rep_ns =
        static_cast<std::int64_t>(r.host.replica_check_s * 1e9);
    std::int64_t tail = std::max(cursor, run.end_ns - ser_ns - rep_ns);
    t->spans.AddDerived("serializability.in_run", run_spans[s], tail,
                        tail + ser_ns);
    t->spans.AddDerived("engine.replica_check.in_run", run_spans[s],
                        tail + ser_ns, tail + ser_ns + rep_ns);
  }
}

void Accumulate(const SimOutcome& o, SimOutcome* sum) {
  sum->offered += o.offered;
  sum->committed += o.committed;
  sum->shed += o.shed;
  sum->retried += o.retried;
  sum->expired += o.expired;
  sum->restarts += o.restarts;
  sum->reject_restarts += o.reject_restarts;
  sum->backoff_rounds += o.backoff_rounds;
  sum->deadlock_victims += o.deadlock_victims;
  sum->events += o.events;
  sum->log_records += o.log_records;
  sum->copies += o.copies;
  sum->selector_calls += o.selector_calls;
  for (std::size_t k = 0; k < o.msgs_by_kind.size(); ++k) {
    sum->msgs_by_kind[k] += o.msgs_by_kind[k];
  }
  for (int p = 0; p < unicc::kNumProtocols; ++p) {
    sum->committed_by_proto[p] += o.committed_by_proto[p];
  }
}

// Work counts come from every simulation of the run (they are exact);
// host times from the traced ones.
std::vector<Metric> PerLayer(const TracedRun& t, const UntracedRun& u,
                             std::map<std::string, double>* self_s) {
  SimOutcome sum;
  for (const SimOutcome& o : u.first) Accumulate(o, &sum);
  SimOutcome traced;
  std::vector<double> load, gen, create, ser, rep, choose_us, eval_us;
  double run_s = 0;
  double in_run_verify_s = 0;
  double ser_s = 0;
  double rep_s = 0;
  double untraced_run_s = 0;
  for (std::size_t i = 0; i < t.sims.size(); ++i) {
    const SimResult& r = t.sims[i];
    load.push_back(r.host.load_s);
    gen.push_back(r.host.gen_s);
    create.push_back(r.host.create_s);
    ser.push_back(r.host.ser_check_s);
    rep.push_back(r.host.replica_check_s);
    if (r.replay.has_value() && r.replay->choose_calls > 0) {
      choose_us.push_back(r.replay->choose_total_s * 1e6 /
                          static_cast<double>(r.replay->choose_calls));
      eval_us.push_back(r.replay->evaluate_us);
    }
    run_s += r.host.run_s;
    in_run_verify_s += r.host.verify_s();
    ser_s += r.host.ser_check_s;
    rep_s += r.host.replica_check_s;
    untraced_run_s += Median(u.run_s[i]);
    Accumulate(r.outcome, &traced);
  }
  const std::uint64_t c = sum.committed;
  const double offered =
      static_cast<double>(std::max<std::uint64_t>(1, sum.offered));
  std::vector<Metric> m = {
      {"scenario.load_s", Median(load), "s"},
      {"workload.gen_s", Median(gen), "s"},
      {"runner.create_s", Median(create), "s"},
      {"sim.events_per_txn", PerTxn(static_cast<double>(sum.events), c),
       "1/txn"},
      {"sim.ns_per_event",
       (run_s - in_run_verify_s) * 1e9 /
           static_cast<double>(std::max<std::uint64_t>(1, traced.events)),
       "ns"},
      {"net.msgs_per_txn", PerTxn(static_cast<double>(sum.Messages()), c),
       "1/txn"},
      {"net.cc_msgs_per_txn", PerTxn(static_cast<double>(sum.CcMessages()), c),
       "1/txn"},
  };
  for (std::size_t k = 0; k < sum.msgs_by_kind.size(); ++k) {
    m.push_back({"net." +
                     std::string(unicc::MessageKindName(
                         static_cast<unicc::MessageKind>(k))) +
                     "_per_txn",
                 PerTxn(static_cast<double>(sum.msgs_by_kind[k]), c),
                 "1/txn"});
  }
  const double restarts = static_cast<double>(sum.restarts);
  m.push_back({"cc.restarts_per_txn", PerTxn(restarts, c), "1/txn"});
  m.push_back({"cc.reject_restarts_per_txn",
               PerTxn(static_cast<double>(sum.reject_restarts), c), "1/txn"});
  m.push_back({"cc.backoff_rounds_per_txn",
               PerTxn(static_cast<double>(sum.backoff_rounds), c), "1/txn"});
  m.push_back({"cc.useful_ratio",
               c == 0 ? 0
                      : static_cast<double>(c) /
                            (static_cast<double>(c) + restarts),
               "ratio"});
  const char* proto_names[] = {"2pl", "to", "pa"};
  for (int p = 0; p < unicc::kNumProtocols; ++p) {
    m.push_back({std::string("cc.commit_share.") + proto_names[p],
                 PerTxn(static_cast<double>(sum.committed_by_proto[p]), c),
                 "ratio"});
  }
  m.push_back({"deadlock.victims_per_ktxn",
               1000 * PerTxn(static_cast<double>(sum.deadlock_victims), c),
               "1/ktxn"});
  m.push_back({"deadlock.wfg_msgs_per_txn",
               PerTxn(static_cast<double>(sum.WfgMessages()), c), "1/txn"});
  m.push_back({"selector.calls_per_txn",
               PerTxn(static_cast<double>(sum.selector_calls), c), "1/txn"});
  // 0 where the workload's policy never calls the selector (absent).
  m.push_back({"selector.choose_us", Median(choose_us), "us"});
  m.push_back({"stl.evaluate_us", Median(eval_us), "us"});
  m.push_back({"engine.shed_frac", static_cast<double>(sum.shed) / offered,
               "ratio"});
  m.push_back({"engine.retried_frac",
               static_cast<double>(sum.retried) / offered, "ratio"});
  m.push_back({"engine.expired_frac",
               static_cast<double>(sum.expired) / offered, "ratio"});
  m.push_back({"serializability.check_s", Median(ser), "s"});
  m.push_back({"serializability.ns_per_log_record",
               ser_s * 1e9 /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, traced.log_records)),
               "ns"});
  m.push_back({"engine.replica_check_s", Median(rep), "s"});
  m.push_back({"engine.ns_per_copy",
               rep_s * 1e9 /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, traced.copies)),
               "ns"});
  m.push_back({"storage.log_records_per_txn",
               PerTxn(static_cast<double>(sum.log_records), c), "1/txn"});

  *self_s = t.spans.SelfSeconds();
  const double selector_s = (*self_s)["selector.in_run"];
  const double loop_s = (*self_s)["runner.run"];
  m.push_back({"run_share.selector", selector_s / run_s, "ratio"});
  m.push_back({"run_share.verify", in_run_verify_s / run_s, "ratio"});
  m.push_back({"run_share.replica_check", rep_s / run_s, "ratio"});
  m.push_back({"run_share.serializability", ser_s / run_s, "ratio"});
  m.push_back({"run_share.event_loop", loop_s / run_s, "ratio"});
  m.push_back({"trace.run_vs_untraced", run_s / untraced_run_s, "ratio"});
  return m;
}

std::string ArtifactJson(const TracedRun& t, const std::vector<Metric>& layer,
                         const std::vector<Metric>& e2e,
                         const std::map<std::string, double>& self_s,
                         std::uint64_t digest) {
  const std::string wl = JsonString(t.spans.workload());
  const std::string seed = std::to_string(t.spans.seed());
  std::string s = "{\"schema\": \"ccbench.trace.v1\", \"workload\": " + wl +
                  ", \"seed\": " + seed + ",\n \"fingerprint\": \"";
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  s += hex;
  s += "\",\n \"end_to_end\": " + MetricsJson(e2e) +
       ",\n \"per_layer\": " + MetricsJson(layer) + ",\n \"self_time_s\": {";
  bool first = true;
  for (const auto& [name, secs] : self_s) {
    s += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(secs);
    first = false;
  }
  s += "},\n \"counts\": [";
  for (std::size_t i = 0; i < t.sims.size(); ++i) {
    const SimOutcome& o = t.sims[i].outcome;
    s += std::string(i == 0 ? "\n  " : ",\n  ") + "{\"sim\": " +
         std::to_string(i) + ", \"offered\": " + std::to_string(o.offered) +
         ", \"committed\": " + std::to_string(o.committed) +
         ", \"goodput\": " + std::to_string(o.goodput) +
         ", \"events\": " + std::to_string(o.events) +
         ", \"messages\": " + std::to_string(o.Messages()) +
         ", \"log_records\": " + std::to_string(o.log_records) +
         ", \"copies\": " + std::to_string(o.copies) +
         ", \"restarts\": " + std::to_string(o.restarts) +
         ", \"deadlock_victims\": " + std::to_string(o.deadlock_victims) +
         ", \"selector_calls\": " + std::to_string(o.selector_calls) + "}";
  }
  s += "],\n \"spans\": [";
  const std::vector<Span>& spans = t.spans.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    s += std::string(i == 0 ? "\n  " : ",\n  ") + "{\"id\": " +
         std::to_string(i) + ", \"name\": " + JsonString(sp.name) +
         ", \"parent\": " + std::to_string(sp.parent) +
         ", \"start_ns\": " + std::to_string(sp.start_ns) +
         ", \"end_ns\": " + std::to_string(sp.end_ns) +
         ", \"sim\": " + std::to_string(sp.sim) +
         ", \"derived\": " + (sp.derived ? "true" : "false") +
         ", \"workload\": " + wl + ", \"seed\": " + seed + "}";
  }
  return s + "]}\n";
}

void PrintSelfTable(const std::string& workload,
                    const std::map<std::string, double>& self_s) {
  double total = 0;
  for (const auto& [name, secs] : self_s) total += secs;
  std::printf("self time by layer (%s, traced pass)\n", workload.c_str());
  std::printf("  %-30s %12s %8s\n", "span", "self_s", "share");
  for (const auto& [name, secs] : self_s) {
    const std::string label =
        name == "runner.run" ? "runner.run (event loop)" : name;
    std::printf("  %-30s %12.6f %7.2f%%\n", label.c_str(), secs,
                total > 0 ? 100 * secs / total : 0.0);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const WorkloadDef* wl = FindWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'; one of:",
                 args.workload.c_str());
    for (const WorkloadDef& w : Workloads()) {
      std::fprintf(stderr, " %s", std::string(w.name).c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  const UntracedRun u = MeasureUntraced(args, *wl);
  const SimRow row = PoolSimulated(u.first);
  const std::uint64_t digest = RunDigest(u.fingerprints);
  const std::vector<Metric> e2e = EndToEnd(u, row);
  std::printf("fingerprint workload=%s seed=%llu digest=%016llx "
              "sims=%u reps=%u samples=%llu\n",
              std::string(wl->name).c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(digest), wl->sims, u.reps,
              static_cast<unsigned long long>(row.samples));
  std::printf("failed_frac=%.6f (offered that missed their deadline or "
              "failed an oracle)\n",
              row.failed_frac);

  std::vector<Metric> out = e2e;
  std::uint64_t attempted = u.attempted;
  std::uint64_t failed = u.failed;
  if (args.trace) {
    TracedRun t{{}, SpanRecorder(std::string(wl->name), args.seed)};
    for (std::uint32_t i = 0; i < std::min(wl->sims, kMaxTracedSims); ++i) {
      t.spans.set_sim(i);
      SimResult r = RunSimulation(args.root, *wl, SimSeed(args.seed, i),
                                  &t.spans);
      ++attempted;
      if (!r.outcome.oracle_failure.empty() ||
          Fingerprint(r.outcome) != u.fingerprints[i]) {
        ++failed;
        std::fprintf(stderr, "traced sim %u diverged or failed:%s\n", i,
                     r.outcome.oracle_failure.c_str());
      }
      t.sims.push_back(std::move(r));
    }
    AddDerivedSpans(&t);
    std::map<std::string, double> self_s;
    out = PerLayer(t, u, &self_s);
    PrintSelfTable(std::string(wl->name), self_s);
    const std::filesystem::path dir =
        std::filesystem::path(args.root) / ".bench_out";
    std::filesystem::create_directories(dir);
    const std::filesystem::path file =
        dir / ("trace-" + std::string(wl->name) + "-seed" +
               std::to_string(args.seed) + ".json");
    std::ofstream artifact(file);
    artifact << ArtifactJson(t, out, e2e, self_s, digest);
    artifact.close();
    if (!artifact) throw std::runtime_error("cannot write " + file.string());
    std::printf("trace artifact: %s\n", file.string().c_str());
  }

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccbench: %s\n", e.what());
    return 2;
  }
}
