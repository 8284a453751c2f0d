// Shared scaffolding for the experiment harnesses in bench/. Each binary
// regenerates one table or figure of the paper (see DESIGN.md's
// per-experiment index) and prints the same rows/series.
#ifndef CAPD_BENCH_BENCH_COMMON_H_
#define CAPD_BENCH_BENCH_COMMON_H_

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_report.h"
#include "common/math_util.h"
#include "engine/advisor_engine.h"
#include "index/index_builder.h"
#include "workloads/registry.h"
#include "workloads/sales.h"
#include "workloads/tpch.h"

namespace capd {
namespace bench {

// Everything a bench's Run() receives: the resolved uniform flags (rows /
// seed defaults already applied) plus the report collecting its metrics.
struct BenchContext {
  BenchFlags flags;
  BenchReport report;
};

inline double Millis(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Shared main() for every bench binary: parses the uniform
// --rows/--seed/--threads/--json flag set, applies the bench's default
// scale, runs it, and writes the JSON report when requested. Under
// "--json -" the human-readable tables move to stderr so stdout carries
// pure JSON (pipeable into jq / python3 -m json.tool). Exit codes: 0 ok,
// 1 report I/O failure, 2 bad flags.
inline int BenchMain(int argc, char* const* argv, const char* bench_name,
                     uint64_t default_rows, uint64_t default_seed,
                     void (*run)(BenchContext&)) {
  BenchFlags flags;
  std::string error;
  if (!ParseBenchFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "%s\nusage: %s\n", error.c_str(),
                 BenchUsage(argv[0]).c_str());
    return 2;
  }
  if (flags.help) {
    std::printf("usage: %s\n", BenchUsage(argv[0]).c_str());
    return 0;
  }
  if (flags.rows == 0) flags.rows = default_rows;
  if (flags.seed == 0) flags.seed = default_seed;
  const bool json_to_stdout = flags.json_path == "-";
  int saved_stdout = -1;
  if (json_to_stdout) {
    std::fflush(stdout);
    saved_stdout = dup(STDOUT_FILENO);
    dup2(STDERR_FILENO, STDOUT_FILENO);
  }
  BenchContext ctx{flags, BenchReport(bench_name)};
  ctx.report.set_rows(flags.rows);
  ctx.report.set_seed(flags.seed);
  ctx.report.set_threads(flags.threads);
  run(ctx);
  if (json_to_stdout) {
    std::fflush(stdout);
    dup2(saved_stdout, STDOUT_FILENO);
    close(saved_stdout);
  }
  if (!flags.json_path.empty() &&
      !ctx.report.WriteJsonFile(flags.json_path, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  return 0;
}

// Compact deterministic rendering of a double for use inside metric names
// ("%g": 0.03, 0.005, 1).
inline std::string FracLabel(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Everything a tuning experiment needs: the dataset plus an AdvisorEngine
// owning the collaborator stack (samples, MVs, optimizer). Variant knobs
// reach the engine through TuneWithOptions, which honors the caller's
// AdvisorOptions verbatim, the estimation pool included — the ablation
// escape hatch the request/strategy API deliberately does not expose.
struct Stack {
  std::unique_ptr<Database> db;
  std::unique_ptr<AdvisorEngine> engine;
  Workload workload;

  MVRegistry* mvs() { return engine->mvs(); }
  const WhatIfOptimizer& optimizer() const { return engine->optimizer(); }

  AdvisorResult Tune(const AdvisorOptions& options, double budget_frac,
                     const Workload& w) {
    return engine->TuneWithOptions(
        w, budget_frac * static_cast<double>(db->BaseDataBytes()), options);
  }
};

inline Stack MakeStack(workloads::WorkloadSpec spec) {
  workloads::BuiltWorkload built;
  std::string error;
  if (!workloads::Build(spec, &built, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::abort();
  }
  Stack s;
  s.db = std::move(built.db);
  s.workload = std::move(built.workload);
  EngineOptions options;
  // The seed the hand-wired bench stacks always used for sampling.
  options.sample_seed = built.seed ^ 0xabcd;
  s.engine = std::make_unique<AdvisorEngine>(*s.db, options);
  return s;
}

inline Stack MakeTpchStack(uint64_t lineitem_rows, double skew_z = 0.0,
                           uint64_t seed = 20110829) {
  workloads::WorkloadSpec spec;
  spec.name = "tpch";
  spec.rows = lineitem_rows;
  spec.seed = seed;
  spec.skew_z = skew_z;
  return MakeStack(std::move(spec));
}

inline Stack MakeSalesStack(uint64_t fact_rows, uint64_t seed = 424242) {
  workloads::WorkloadSpec spec;
  spec.name = "sales";
  spec.rows = fact_rows;
  spec.seed = seed;
  return MakeStack(std::move(spec));
}

// A spread of index shapes over a table's columns: singletons, pairs and
// triples with a width cap — the "hundreds of indexes on various datasets"
// of Appendix C, scaled down.
inline std::vector<IndexDef> IndexZoo(const std::string& table,
                                      const std::vector<std::string>& cols,
                                      CompressionKind kind,
                                      size_t max_indexes) {
  std::vector<IndexDef> out;
  auto add = [&](std::vector<std::string> keys) {
    if (out.size() >= max_indexes) return;
    IndexDef def;
    def.object = table;
    def.key_columns = std::move(keys);
    def.compression = kind;
    out.push_back(std::move(def));
  };
  for (size_t i = 0; i < cols.size(); ++i) add({cols[i]});
  for (size_t i = 0; i < cols.size(); ++i) {
    for (size_t j = 0; j < cols.size(); ++j) {
      if (i != j) add({cols[i], cols[j]});
    }
  }
  for (size_t i = 0; i + 2 < cols.size(); ++i) {
    add({cols[i], cols[i + 1], cols[i + 2]});
  }
  return out;
}

// Ground-truth sizes cached across repeated calls (full index builds are
// the expensive part of the error benches).
class TruthCache {
 public:
  explicit TruthCache(const Database& db) : db_(&db) {}

  double FineBytes(const IndexDef& def) {
    const std::string sig = def.Signature();
    const auto it = cache_.find(sig);
    if (it != cache_.end()) return it->second;
    IndexBuilder builder(db_->table(def.object));
    const double truth = static_cast<double>(builder.Build(def).fine_bytes());
    cache_[sig] = truth;
    return truth;
  }

 private:
  const Database* db_;
  std::map<std::string, double> cache_;
};

// Relative size-estimation errors (est/true - 1) of SampleCF over a zoo of
// indexes at sampling fraction f, across `trials` sample seeds.
inline std::vector<double> SampleCfErrors(const Database& db,
                                          const std::vector<IndexDef>& zoo,
                                          double f, int trials,
                                          uint64_t seed_base,
                                          TruthCache* truths) {
  std::vector<double> errors;
  for (int t = 0; t < trials; ++t) {
    SampleManager samples(seed_base + static_cast<uint64_t>(t) * 7919);
    TableSampleSource source(db, &samples);
    SampleCfEstimator estimator(db, &source);
    for (const IndexDef& def : zoo) {
      const double truth = truths->FineBytes(def);
      const double est = estimator.Estimate(def, f).est_bytes;
      errors.push_back(est / truth - 1.0);
    }
  }
  return errors;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Runs a set of advisor variants across storage budgets (fractions of the
// base data size) and prints an improvement-% table — the shared shape of
// Figures 12-17. Each (variant, budget) cell records its improvement (a
// deterministic value), the what-if / statement-costing counters, and its
// tuning wall time into ctx's report.
struct Variant {
  std::string name;
  AdvisorOptions options;
};

inline void RunImprovementTable(BenchContext* ctx, Stack* s, const Workload& w,
                                const std::vector<double>& budget_fracs,
                                const std::vector<Variant>& variants) {
  std::printf("%-12s", "Budget");
  for (const Variant& v : variants) std::printf(" %12s", v.name.c_str());
  std::printf("\n");
  for (double frac : budget_fracs) {
    const double kb =
        frac * static_cast<double>(s->db->BaseDataBytes()) / 1024.0;
    std::printf("%3.0f%% (%4.0fKB)", frac * 100, kb);
    for (const Variant& v : variants) {
      const auto t0 = std::chrono::steady_clock::now();
      const AdvisorResult r = s->Tune(v.options, frac, w);
      const double ms = Millis(t0, std::chrono::steady_clock::now());
      std::printf(" %11.1f%%", r.improvement_percent());
      const std::string key =
          "[" + v.name + ",budget=" + FracLabel(frac) + "]";
      ctx->report.AddValue("improvement_pct" + key, r.improvement_percent());
      ctx->report.AddCounter("what_if_calls" + key, r.what_if_calls);
      ctx->report.AddCounter("stmt_costs_computed" + key,
                             r.stmt_costs_computed);
      ctx->report.AddCounter("stmt_costs_cached" + key, r.stmt_costs_cached);
      ctx->report.AddTimeMs("tune_ms" + key, ms);
    }
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace capd

#endif  // CAPD_BENCH_BENCH_COMMON_H_
