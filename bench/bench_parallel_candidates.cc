// Benchmark for the candidate-selection phase: full DTAc tuning runs over
// the TPC-H workload, cost cache off and on, with a per-phase wall-time
// breakdown — size estimation / per-query candidate selection /
// enumeration — plus the stmt_costs_{computed,cached} counters showing the
// selection-phase costings warming (and hitting) the StatementCostCache.
// The cached run is checked bit-identical to the uncached one.
#include <cstring>

#include "bench/bench_common.h"

namespace capd {
namespace bench {
namespace {

bool SameRecommendation(const AdvisorResult& a, const AdvisorResult& b) {
  if (std::memcmp(&a.final_cost, &b.final_cost, sizeof(double)) != 0) {
    return false;
  }
  if (a.config.size() != b.config.size()) return false;
  for (size_t i = 0; i < a.config.indexes().size(); ++i) {
    if (a.config.indexes()[i].def.Signature() !=
        b.config.indexes()[i].def.Signature()) {
      return false;
    }
  }
  return true;
}

void PrintRow(const char* label, const AdvisorResult& r, bool identical) {
  std::printf("%-10s %10.1f %10.1f %10.1f %10.1f %10zu %10zu %10s\n", label,
              r.estimation_ms, r.selection_ms, r.enumeration_ms,
              r.estimation_ms + r.selection_ms + r.enumeration_ms,
              r.stmt_costs_computed, r.stmt_costs_cached,
              identical ? "yes" : "NO");
}

void PrintPhaseHeader() {
  std::printf("%-10s %10s %10s %10s %10s %10s %10s %10s\n", "run", "est-ms",
              "sel-ms", "enum-ms", "total-ms", "computed", "cached",
              "identical");
}

void RecordRow(BenchContext* ctx, const std::string& key,
               const AdvisorResult& r, bool identical) {
  ctx->report.AddTimeMs("estimation_ms" + key, r.estimation_ms);
  ctx->report.AddTimeMs("selection_ms" + key, r.selection_ms);
  ctx->report.AddTimeMs("enumeration_ms" + key, r.enumeration_ms);
  ctx->report.AddCounter("stmt_costs_computed" + key, r.stmt_costs_computed);
  ctx->report.AddCounter("stmt_costs_cached" + key, r.stmt_costs_cached);
  ctx->report.AddCounter("identical" + key, identical ? 1 : 0);
}

void Run(BenchContext& ctx) {
  Stack s = MakeTpchStack(ctx.flags.rows, 0.0, ctx.flags.seed);
  const Workload w = s.workload.WithInsertWeight(0.2);
  const double budget = 0.20;

  AdvisorOptions base = AdvisorOptions::DTAcBoth();
  // One shared estimation cache: the pool is priced on the first run and
  // every later run hits it, so the timed phases are selection +
  // enumeration, not sampling.
  base.size_options.cache = std::make_shared<EstimationCache>();
  s.Tune(base, budget, w);  // warm samples + estimation cache

  PrintHeader(
      "Per-phase breakdown: selection costings warm the cost cache");
  PrintPhaseHeader();
  AdvisorResult serial;
  for (bool use_cache : {false, true}) {
    AdvisorOptions options = base;
    options.cost_cache = use_cache;
    const AdvisorResult r = s.Tune(options, budget, w);
    if (!use_cache) serial = r;
    const bool identical = SameRecommendation(serial, r);
    PrintRow(use_cache ? "cache-on" : "cache-off", r, identical);
    RecordRow(&ctx, std::string("[cache=") + (use_cache ? "on" : "off") + "]",
              r, identical);
  }
}

}  // namespace
}  // namespace bench
}  // namespace capd

int main(int argc, char** argv) {
  return capd::bench::BenchMain(argc, argv, "parallel_candidates",
                                /*default_rows=*/24000,
                                /*default_seed=*/20110829, capd::bench::Run);
}
