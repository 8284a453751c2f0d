// Figure 11: cost of compressed-index size estimation inside the full tool
// (all features: table, partial and MV indexes), with and without the
// deduction methods. The paper reports wall-clock on SQL Server; the
// machine-independent metric here is the framework's own cost unit (sample
// pages indexed, Section 5.1), plus measured wall time for reference.
// Paper shape: deduction turns size estimation from the dominating cost
// into a modest one (~3x less estimation work).
#include "bench/bench_common.h"

namespace capd {
namespace bench {
namespace {

struct RunStats {
  double table_cost = 0, partial_cost = 0, mv_cost = 0;
  double table_ms = 0, partial_ms = 0, mv_ms = 0;
  double other_ms = 0;
  size_t sampled = 0, deduced = 0;
};

RunStats RunOnce(bool use_deduction, const BenchContext& ctx) {
  Stack s = MakeTpchStack(ctx.flags.rows, 0.0, ctx.flags.seed);
  AdvisorOptions options = AdvisorOptions::DTAcBoth();
  options.enable_partial = true;
  options.enable_mv = true;
  ThreadPool pool(ctx.flags.threads);
  options.size_options.pool = &pool;
  options.size_options.use_deduction = use_deduction;
  // Tighter accuracy than the defaults so the choice of method matters
  // (with e very loose, a 1%-sample SampleCF passes everywhere and both
  // modes coincide at laptop scale).
  options.size_options.e = 0.25;
  options.size_options.q = 0.95;

  // Generate the full candidate set the tool would consider.
  CandidateGenerator generator(*s.db, s.optimizer(), s.mvs(), options);
  const std::vector<IndexDef> candidates =
      generator.GenerateForWorkload(s.workload);

  std::vector<IndexDef> table_idx, partial_idx, mv_idx;
  for (const IndexDef& def : candidates) {
    if (def.compression == CompressionKind::kNone) continue;
    if (!s.db->HasTable(def.object)) {
      mv_idx.push_back(def);
    } else if (def.filter.has_value()) {
      partial_idx.push_back(def);
    } else {
      table_idx.push_back(def);
    }
  }

  SizeEstimator estimator(*s.db, s.mvs(), ErrorModel(), options.size_options);
  RunStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  auto batch = estimator.EstimateAll(table_idx);
  stats.table_cost = batch.total_cost_pages;
  stats.sampled += batch.num_sampled;
  stats.deduced += batch.num_deduced;
  const auto t1 = std::chrono::steady_clock::now();
  batch = estimator.EstimateAll(partial_idx);
  stats.partial_cost = batch.total_cost_pages;
  stats.sampled += batch.num_sampled;
  stats.deduced += batch.num_deduced;
  const auto t2 = std::chrono::steady_clock::now();
  batch = estimator.EstimateAll(mv_idx);
  stats.mv_cost = batch.total_cost_pages;
  stats.sampled += batch.num_sampled;
  stats.deduced += batch.num_deduced;
  const auto t3 = std::chrono::steady_clock::now();

  // "Other": the rest of the tuning pipeline at this configuration.
  s.engine->TuneWithOptions(
      s.workload, 0.5 * static_cast<double>(s.db->BaseDataBytes()), options);
  const auto t4 = std::chrono::steady_clock::now();

  stats.table_ms = Millis(t0, t1);
  stats.partial_ms = Millis(t1, t2);
  stats.mv_ms = Millis(t2, t3);
  stats.other_ms = Millis(t3, t4);
  return stats;
}

void Record(BenchContext& ctx, const char* mode, const RunStats& s) {
  const std::string key = std::string("[deduction=") + mode + "]";
  ctx.report.AddValue("table_est_pages" + key, s.table_cost);
  ctx.report.AddValue("partial_est_pages" + key, s.partial_cost);
  ctx.report.AddValue("mv_est_pages" + key, s.mv_cost);
  ctx.report.AddValue("total_est_pages" + key,
                      s.table_cost + s.partial_cost + s.mv_cost);
  ctx.report.AddCounter("num_sampled" + key, s.sampled);
  ctx.report.AddCounter("num_deduced" + key, s.deduced);
  ctx.report.AddTimeMs("estimation_ms" + key,
                       s.table_ms + s.partial_ms + s.mv_ms);
  ctx.report.AddTimeMs("other_ms" + key, s.other_ms);
}

void Run(BenchContext& ctx) {
  PrintHeader("Figure 11: size-estimation cost with/without deduction");
  std::printf("%-18s %14s %14s\n", "component", "w/o deduction",
              "with deduction");
  const RunStats without = RunOnce(false, ctx);
  const RunStats with = RunOnce(true, ctx);
  std::printf("%-18s %11.0f pg %11.0f pg\n", "Table-Estimate",
              without.table_cost, with.table_cost);
  std::printf("%-18s %11.0f pg %11.0f pg\n", "Partial-Estimate",
              without.partial_cost, with.partial_cost);
  std::printf("%-18s %11.0f pg %11.0f pg\n", "MV-Estimate", without.mv_cost,
              with.mv_cost);
  const double wo_total =
      without.table_cost + without.partial_cost + without.mv_cost;
  const double w_total = with.table_cost + with.partial_cost + with.mv_cost;
  std::printf("%-18s %11.0f pg %11.0f pg   (%.1fx less estimation work)\n",
              "TOTAL estimation", wo_total, w_total,
              w_total > 0 ? wo_total / w_total : 0.0);
  std::printf("%-18s %11.1f ms %11.1f ms\n", "estimation time",
              without.table_ms + without.partial_ms + without.mv_ms,
              with.table_ms + with.partial_ms + with.mv_ms);
  std::printf("%-18s %11.1f ms %11.1f ms\n", "Other (tuning)",
              without.other_ms, with.other_ms);
  std::printf("%-18s %8zu/%zu  %10zu/%zu  (sampled/deduced)\n", "methods",
              without.sampled, without.deduced, with.sampled, with.deduced);
  Record(ctx, "off", without);
  Record(ctx, "on", with);
  ctx.report.AddValue("estimation_work_ratio",
                      w_total > 0 ? wo_total / w_total : 0.0);
  std::printf("\nPaper shape: deduction drops estimation from dominating "
              "(700s vs 500s other) to modest (200s), ~3x less.\n");
}

}  // namespace
}  // namespace bench
}  // namespace capd

int main(int argc, char** argv) {
  return capd::bench::BenchMain(argc, argv, "fig11_estimation_cost",
                                /*default_rows=*/24000,
                                /*default_seed=*/20110829, capd::bench::Run);
}
