// perfbench driver: drives AdvisorEngine::Tune and TuningService from
// outside the library on one benchmark workload and prints the raw
// measurements as one JSON object on stdout. perfbench/run.py builds this
// binary, runs it and turns the raw records into the benchmark's metrics;
// all aggregation (medians, percentiles, shares, ratios, self times) lives
// there, so this file only times calls, reads counters and checks
// responses.
//
//   capd_perfbench --workload scale-cold|tpch-warm|sales-write-service
//                  --seed N --seconds S --trace 0|1
//
// Untraced runs (--trace 0) time requests with no hook installed. Traced
// runs install a progress hook, record spans (name, start, end, parent,
// request id) in memory, read the engine's counters around the request
// loop, and then replay single layers (sampling, SampleCF, graph planning
// and execution, index build, codec measurement, what-if costing) on the
// workload's own candidates. The spans go out with the raw record when
// the run ends.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/candidates.h"
#include "compress/codec_factory.h"
#include "compress/flat_page.h"
#include "engine/advisor_engine.h"
#include "engine/strategy_registry.h"
#include "estimator/estimation_graph.h"
#include "estimator/sample_cf.h"
#include "index/index_builder.h"
#include "mv/mv_registry.h"
#include "service/tuning_service.h"
#include "stats/sampler.h"
#include "workloads/registry.h"

namespace capd {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// How a workload sends its requests.
enum class Mode {
  kColdDirect,  // a fresh AdvisorEngine per request, one client
  kWarmDirect,  // one warmed engine, one closed-loop client
  kService,     // one TuningService, a closed loop of several clients
};

struct WorkloadConfig {
  const char* name;
  const char* generator;  // workloads::Build name
  uint64_t rows;          // fact-table rows
  const char* strategy;
  double insert_weight;  // 1.0 = the generator's own weights
  bool mv_and_partial;   // MV and partial-index candidates on
  Mode mode;
  int estimation_threads;
  int search_threads;
  int service_workers;  // kService only
  int clients;          // closed-loop clients
  int min_requests;     // measured requests, even past --seconds
};

constexpr WorkloadConfig kWorkloads[] = {
    {"scale-cold", "scale", 1000000, "dtac-bitmap", 1.0, false,
     Mode::kColdDirect, 2, 1, 0, 1, 3},
    {"tpch-warm", "tpch", 24000, "dtac-both", 1.0, false, Mode::kWarmDirect,
     1, 1, 0, 1, 20},
    {"sales-write-service", "sales", 32000, "dtac-both", 3.0, true,
     Mode::kService, 1, 1, 2, 4, 8},
};

constexpr double kBudgetFraction = 0.15;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 4;
// Share of --seconds a traced run spends on requests; the rest replays
// single layers.
constexpr double kTracedRequestShare = 0.5;
// Repetitions of one replay at most, so cheap layers do not flood the
// span list.
constexpr size_t kMaxReplays = 20;

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "capd_perfbench: %s\n"
               "usage: capd_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n",
               why.c_str());
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (arg == "--workload") {
      flags.workload = value;
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      flags.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(flags.seconds > 0.0)) {
        Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      flags.trace = value[0] == '1';
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (flags.workload.empty() || !have_seed || flags.seconds <= 0.0) {
    Usage("--workload, --seed and --seconds are required");
  }
  return flags;
}

// ---------------------------------------------------------------------------
// Minimal JSON output.

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

// Builds one JSON object field by field.
class Obj {
 public:
  Obj& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + json;
    return *this;
  }
  Obj& Add(const std::string& key, double v) { return Raw(key, Num(v)); }
  Obj& Flag(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string Str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Spans, kept in memory and emitted when the run ends.

struct Span {
  std::string name;
  double start_ms = 0.0;  // since the run's epoch
  double end_ms = 0.0;
  int parent = -1;       // index into the span list; -1 = root
  uint64_t request = 0;  // 0 = outside any request (set-up, replay)
};

// The run's clock, and the span store when tracing is on. Thread-safe:
// service clients record spans concurrently.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  double Now() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
        .count();
  }

  // Records a finished span; returns its index (-1 when tracing is off).
  int Add(const std::string& name, double start_ms, double end_ms, int parent,
          uint64_t request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_ms, end_ms, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Closes a span recorded with a provisional end.
  void End(int index, double end_ms) {
    if (index < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[index].end_ms = end_ms;
  }

  std::string Json() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += Obj()
                 .Raw("name", Quote(s.name))
                 .Add("start_ms", s.start_ms)
                 .Add("end_ms", s.end_ms)
                 .Add("parent", s.parent)
                 .Add("request", static_cast<double>(s.request))
                 .Str();
    }
    return out + "]";
  }

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Times one call as a span under `parent` and returns its duration in ms.
template <typename Fn>
double Timed(Tracer* tracer, const std::string& name, int parent, Fn&& fn) {
  const double start = tracer->Now();
  fn();
  const double end = tracer->Now();
  tracer->Add(name, start, end, parent, 0);
  return end - start;
}

// Phase-boundary timestamps of one request, appended by the progress hook
// on the tuning thread and read after the response arrives.
struct PhaseMarks {
  std::vector<std::pair<std::string, double>> marks;
};

// ---------------------------------------------------------------------------
// Requests and their checks.

struct RequestRecord {
  double latency_ms = 0.0;
  std::string status;
  bool within_budget = false;
  bool matches_reference = false;
  double improvement_pct = 0.0;
  // Advisor counters of the request (deterministic per request).
  double sampled = 0, deduced = 0, cost_pages = 0, candidates = 0;
  double what_if_calls = 0, stmt_costs_computed = 0, stmt_costs_cached = 0;
  // Wait before the engine run, the run itself, and attempts made.
  double queue_ms = 0.0, run_ms = 0.0, attempts = 0.0;

  std::string Json() const {
    return Obj()
        .Add("latency_ms", latency_ms)
        .Raw("status", Quote(status))
        .Flag("within_budget", within_budget)
        .Flag("matches_reference", matches_reference)
        .Add("improvement_pct", improvement_pct)
        .Add("sampled", sampled)
        .Add("deduced", deduced)
        .Add("cost_pages", cost_pages)
        .Add("candidates", candidates)
        .Add("what_if_calls", what_if_calls)
        .Add("stmt_costs_computed", stmt_costs_computed)
        .Add("stmt_costs_cached", stmt_costs_cached)
        .Add("queue_ms", queue_ms)
        .Add("run_ms", run_ms)
        .Add("attempts", attempts)
        .Str();
  }
};

const char* StatusName(TuningResponse::Status status) {
  switch (status) {
    case TuningResponse::Status::kOk:
      return "ok";
    case TuningResponse::Status::kCancelled:
      return "cancelled";
    case TuningResponse::Status::kError:
      return "error";
  }
  return "unknown";
}

// Fills the record's status, checks and counters from an engine response,
// comparing its JSON report with the run's reference report.
RequestRecord CheckResponse(const TuningResponse& response,
                            const std::string& reference) {
  RequestRecord record;
  record.status = StatusName(response.status);
  const AdvisorResult& r = response.result;
  record.within_budget = r.charged_bytes <= response.budget_bytes;
  record.matches_reference = !reference.empty() && response.json == reference;
  record.improvement_pct = r.improvement_percent();
  record.sampled = static_cast<double>(r.num_sampled);
  record.deduced = static_cast<double>(r.num_deduced);
  record.cost_pages = r.estimation_cost_pages;
  record.candidates = static_cast<double>(r.num_candidates);
  record.what_if_calls = static_cast<double>(r.what_if_calls);
  record.stmt_costs_computed = static_cast<double>(r.stmt_costs_computed);
  record.stmt_costs_cached = static_cast<double>(r.stmt_costs_cached);
  return record;
}

// Engine counters, summed over the measured request loop.
struct EngineCounters {
  double rows_scanned = 0, est_cache_hits = 0, est_cache_misses = 0;

  static EngineCounters Read(AdvisorEngine* engine) {
    EngineCounters c;
    c.rows_scanned = static_cast<double>(engine->samples()->rows_scanned());
    if (engine->estimation_cache() != nullptr) {
      c.est_cache_hits =
          static_cast<double>(engine->estimation_cache()->hits());
      c.est_cache_misses =
          static_cast<double>(engine->estimation_cache()->misses());
    }
    return c;
  }
  void AddDelta(const EngineCounters& before, const EngineCounters& after) {
    rows_scanned += after.rows_scanned - before.rows_scanned;
    est_cache_hits += after.est_cache_hits - before.est_cache_hits;
    est_cache_misses += after.est_cache_misses - before.est_cache_misses;
  }
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// The benchmark run.

class Bench {
 public:
  Bench(const WorkloadConfig& config, const Flags& flags)
      : config_(config), flags_(flags), tracer_(flags.trace) {}

  std::string Run();

 private:
  // What a set-up builds. Members are destroyed in reverse order: the
  // service before the engine before the database.
  struct Stack {
    workloads::BuiltWorkload built;
    std::unique_ptr<AdvisorEngine> engine;   // warm and service modes
    std::unique_ptr<TuningService> service;  // service mode
  };

  EngineOptions MakeEngineOptions() const;
  TuningRequest MakeRequest(const Workload& workload) const;
  // Installs the phase-timestamp hook on traced runs (untraced requests
  // carry no hook at all).
  std::shared_ptr<PhaseMarks> Instrument(TuningRequest* request);
  // Records one request's spans: the request root, the service queue wait
  // (service mode), the engine run, and one child per advisor phase
  // bounded by the progress-hook timestamps. Returns the root's index.
  int AddRequestSpans(uint64_t id, double submit_ms, double done_ms,
                       double run_start_ms, double run_end_ms, bool queued,
                       const PhaseMarks& phases);
  // True while a loop that started at `start_ms` may begin another call
  // expected to take `next_ms`.
  bool TimeLeft(double start_ms, double budget_ms, double next_ms) const {
    return tracer_.Now() - start_ms + 0.5 * next_ms < budget_ms;
  }
  double RequestBudgetMs() const {
    return flags_.seconds * 1000.0 *
           (tracer_.enabled() ? kTracedRequestShare : 1.0);
  }

  // Builds the workload and, per mode, the engine, the service and the
  // warm-up request.
  void SetUp(Stack* stack);
  void RunDirect(Stack* stack);
  void RunService(Stack* stack);
  void Replay(const Stack& stack);

  const WorkloadConfig& config_;
  const Flags& flags_;
  Tracer tracer_;

  std::vector<double> setup_s_, build_ms_, warmup_ms_;
  std::vector<RequestRecord> warmups_;  // one per set-up (warm modes)
  std::vector<std::string> warmup_json_;
  std::string reference_;  // the run's reference JSON report
  Obj checks_;             // named pass/fail checks beside the requests
  std::mutex requests_mu_;
  std::vector<RequestRecord> requests_;
  double window_ms_ = 0.0;  // wall time of the measured request loop
  EngineCounters counters_;
  double service_rejected_ = 0.0, service_degraded_ = 0.0;
  Configuration recommended_;  // the first measured request's design
  double chosen_f_ = 0.0;
  Obj replay_;
};

EngineOptions Bench::MakeEngineOptions() const {
  EngineOptions options;
  options.estimation_threads = config_.estimation_threads;
  options.search_threads = config_.search_threads;
  return options;
}

TuningRequest Bench::MakeRequest(const Workload& workload) const {
  TuningRequest request;
  request.workload = workload;
  request.strategy = config_.strategy;
  request.budget = TuningBudget::Fraction(kBudgetFraction);
  if (config_.mv_and_partial) {
    request.enable_mv = 1;
    request.enable_partial = 1;
  }
  return request;
}

std::shared_ptr<PhaseMarks> Bench::Instrument(TuningRequest* request) {
  auto phases = std::make_shared<PhaseMarks>();
  if (tracer_.enabled()) {
    const Tracer* tracer = &tracer_;
    request->progress = [phases, tracer](const std::string& phase) {
      phases->marks.emplace_back(phase, tracer->Now());
    };
  }
  return phases;
}

int Bench::AddRequestSpans(uint64_t id, double submit_ms, double done_ms,
                           double run_start_ms, double run_end_ms,
                           bool queued, const PhaseMarks& phases) {
  if (!tracer_.enabled()) return -1;
  const int root = tracer_.Add("request", submit_ms, done_ms, -1, id);
  if (queued) tracer_.Add("service.queue", submit_ms, run_start_ms, root, id);
  const int run =
      tracer_.Add("engine.tune", run_start_ms, run_end_ms, root, id);
  double prev = run_start_ms;
  for (const auto& [phase, at] : phases.marks) {
    tracer_.Add("advisor." + phase, prev, at, run, id);
    prev = at;
  }
  return root;
}

void Bench::SetUp(Stack* stack) {
  const double t0 = tracer_.Now();
  workloads::WorkloadSpec spec;
  spec.name = config_.generator;
  spec.rows = config_.rows;
  spec.seed = flags_.seed;
  std::string error;
  if (!workloads::Build(spec, &stack->built, &error)) {
    std::fprintf(stderr, "workload build failed: %s\n", error.c_str());
    std::exit(1);
  }
  if (config_.insert_weight != 1.0) {
    stack->built.workload =
        stack->built.workload.WithInsertWeight(config_.insert_weight);
  }
  const double t_built = tracer_.Now();

  // Warm-up: engine (and service) construction plus one request.
  if (config_.mode != Mode::kColdDirect) {
    stack->engine = std::make_unique<AdvisorEngine>(*stack->built.db,
                                                    MakeEngineOptions());
    TuningResponse warm;
    if (config_.mode == Mode::kWarmDirect) {
      warm = stack->engine->Tune(MakeRequest(stack->built.workload));
    } else {
      ServiceOptions options;
      options.num_workers = config_.service_workers;
      stack->service =
          std::make_unique<TuningService>(stack->engine.get(), options);
      ServiceRequest request;
      request.tuning = MakeRequest(stack->built.workload);
      const ServiceResponse response = stack->service->Tune(request);
      warm = response.tuning;
      if (!response.ok()) warm.status = TuningResponse::Status::kError;
    }
    warmups_.push_back(CheckResponse(warm, ""));
    warmup_json_.push_back(warm.json);
  }
  const double t_end = tracer_.Now();

  const int root = tracer_.Add("setup", t0, t_end, -1, 0);
  tracer_.Add("workloads.build", t0, t_built, root, 0);
  tracer_.Add("engine.warmup", t_built, t_end, root, 0);
  build_ms_.push_back(t_built - t0);
  warmup_ms_.push_back(t_end - t_built);
  setup_s_.push_back((t_end - t0) / 1000.0);
}

// Cold and warm direct modes: one client calls Tune back to back, on a
// fresh engine per request (cold) or on the set-up's warmed engine.
void Bench::RunDirect(Stack* stack) {
  const bool cold = config_.mode == Mode::kColdDirect;
  const Database& db = *stack->built.db;
  const double start = tracer_.Now();
  const double budget_ms = RequestBudgetMs();
  EngineCounters before;
  if (!cold) before = EngineCounters::Read(stack->engine.get());
  double last_ms = 0.0;
  for (uint64_t id = 1;
       id <= static_cast<uint64_t>(config_.min_requests) ||
       TimeLeft(start, budget_ms, last_ms);
       ++id) {
    TuningRequest request = MakeRequest(stack->built.workload);
    const std::shared_ptr<PhaseMarks> phases = Instrument(&request);
    const double t0 = tracer_.Now();
    std::unique_ptr<AdvisorEngine> fresh;
    if (cold) {
      fresh = std::make_unique<AdvisorEngine>(db, MakeEngineOptions());
    }
    AdvisorEngine* engine = cold ? fresh.get() : stack->engine.get();
    const double t1 = tracer_.Now();
    const TuningResponse response = engine->Tune(request);
    const double t2 = tracer_.Now();
    if (cold) {
      counters_.AddDelta(EngineCounters(), EngineCounters::Read(engine));
    }
    // A cold run has no warm-up; its first response is the reference.
    if (reference_.empty() && response.ok()) reference_ = response.json;
    if (id == 1) {
      recommended_ = response.result.config;
      chosen_f_ = response.result.chosen_f;
    }
    RequestRecord record = CheckResponse(response, reference_);
    record.latency_ms = t2 - t0;
    // Without a service the wait before the run is the engine wiring
    // (a fresh engine's construction on cold runs), and every request is
    // one attempt.
    record.queue_ms = t1 - t0;
    record.run_ms = t2 - t1;
    record.attempts = 1;
    requests_.push_back(record);
    const int root =
        AddRequestSpans(id, t0, t2, t1, t2, /*queued=*/false, *phases);
    if (cold) tracer_.Add("engine.construct", t0, t1, root, id);
    last_ms = t2 - t0;
  }
  window_ms_ = tracer_.Now() - start;
  if (!cold) {
    counters_.AddDelta(before, EngineCounters::Read(stack->engine.get()));
  }
}

// Service mode: a closed loop of `clients` threads, each submitting its
// next request when the previous one resolves, so requests queue in the
// service whenever clients outnumber its workers.
void Bench::RunService(Stack* stack) {
  TuningService* service = stack->service.get();
  const double start = tracer_.Now();
  const double budget_ms = RequestBudgetMs();
  const EngineCounters before = EngineCounters::Read(stack->engine.get());
  const ServiceStats stats_before = service->stats();
  std::mutex ids_mu;
  uint64_t next_id = 1;

  // Each client stops once its next request would likely end past the
  // budget, so the loop ends near --seconds instead of a latency later.
  auto client = [&]() {
    double last_ms = 0.0;
    while (true) {
      uint64_t id = 0;
      {
        std::lock_guard<std::mutex> lock(ids_mu);
        if (next_id > static_cast<uint64_t>(config_.min_requests) &&
            !TimeLeft(start, budget_ms, 2.0 * last_ms)) {
          return;
        }
        id = next_id++;
      }
      ServiceRequest request;
      request.tuning = MakeRequest(stack->built.workload);
      const std::shared_ptr<PhaseMarks> phases = Instrument(&request.tuning);
      const double submit = tracer_.Now();
      const ServiceResponse response = service->Tune(request);
      const double done = tracer_.Now();

      RequestRecord record = CheckResponse(response.tuning, reference_);
      if (!response.ok()) {
        record.status = std::string("service:") +
                        ServiceStatusName(response.status);
      }
      record.latency_ms = done - submit;
      last_ms = record.latency_ms;
      record.queue_ms = response.queue_ms;
      record.run_ms = response.run_ms;
      record.attempts = response.attempts;
      const double run_start = submit + response.queue_ms;
      AddRequestSpans(id, submit, done, run_start,
                      run_start + response.run_ms, /*queued=*/true, *phases);
      std::lock_guard<std::mutex> lock(requests_mu_);
      if (id == 1) {
        recommended_ = response.tuning.result.config;
        chosen_f_ = response.tuning.result.chosen_f;
      }
      requests_.push_back(record);
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < config_.clients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();

  window_ms_ = tracer_.Now() - start;
  counters_.AddDelta(before, EngineCounters::Read(stack->engine.get()));
  const ServiceStats stats = service->stats();
  service_rejected_ =
      static_cast<double>(stats.rejected - stats_before.rejected);
  service_degraded_ =
      static_cast<double>(stats.degraded - stats_before.degraded);
}

// Replays single layers on the workload's own candidates at the sampling
// fraction the first measured request chose, each within a slice of the
// run's remaining time (every replay runs at least once).
void Bench::Replay(const Stack& stack) {
  const Database& db = *stack.built.db;
  const Workload& workload = stack.built.workload;
  const double f = chosen_f_ > 0.0 ? chosen_f_ : 0.01;
  const double start = tracer_.Now();
  const double total_ms =
      std::max(flags_.seconds * 1000.0 - start, flags_.seconds * 250.0);
  const int root = tracer_.Add("replay", start, start, -1, 0);

  // The strategy's options with the request's overlays, on a private
  // sample manager / MV registry / optimizer wired as the engine wires a
  // request's.
  AdvisorOptions options =
      StrategyRegistry::Global().Find(config_.strategy)->MakeOptions();
  if (config_.mv_and_partial) {
    options.enable_mv = true;
    options.enable_partial = true;
  }
  SampleManager samples(EngineOptions().sample_seed);
  MVRegistry mvs(db, &samples);
  WhatIfOptimizer optimizer(db, CostModelParams{});
  optimizer.set_mv_matcher(&mvs);
  std::vector<IndexDef> candidates;
  Timed(&tracer_, "advisor.generate", root, [&] {
    candidates = CandidateGenerator(db, optimizer, &mvs, options)
                     .GenerateForWorkload(workload);
  });
  std::vector<IndexDef> compressed;
  std::map<std::string, std::vector<IndexDef>> structures;  // table targets
  std::map<std::string, const Table*> tables;
  for (const IndexDef& def : candidates) {
    if (def.compression == CompressionKind::kNone) continue;
    compressed.push_back(def);
    if (db.HasTable(def.object)) {
      structures[def.StructureSignature()].push_back(def);
      tables[def.object] = &db.table(def.object);
    }
  }

  // stats: drawing every table sample at f on a fresh manager.
  std::vector<double> sample_ms;
  const double stats_start = tracer_.Now();
  do {
    SampleManager fresh(EngineOptions().sample_seed);
    sample_ms.push_back(Timed(&tracer_, "stats.sample", root, [&] {
      for (const auto& entry : tables) fresh.GetSample(*entry.second, f);
    }));
  } while (sample_ms.size() < kMaxReplays &&
           TimeLeft(stats_start, 0.10 * total_ms, sample_ms.back()));

  // estimator: SampleCF per compressed candidate on warm samples, then the
  // whole batch planned (AddTargets + Greedy) and executed on one graph.
  SampleCfEstimator samplecf(db, &mvs);
  for (const IndexDef& def : compressed) mvs.Sample(def.object, f);
  std::vector<double> samplecf_ms;
  const double cf_start = tracer_.Now();
  for (const IndexDef& def : compressed) {
    samplecf_ms.push_back(Timed(&tracer_, "estimator.samplecf", root,
                                [&] { samplecf.Estimate(def, f); }));
    if (!TimeLeft(cf_start, 0.20 * total_ms, samplecf_ms.back())) break;
  }
  std::vector<double> plan_ms, execute_ms;
  const double graph_start = tracer_.Now();
  do {
    EstimationGraph graph(db, &mvs, ErrorModel());
    graph.set_enable_sort_order(
        options.size_options.enable_sort_order_deduction);
    plan_ms.push_back(Timed(&tracer_, "estimator.plan", root, [&] {
      graph.AddTargets(compressed);
      graph.Greedy(f, options.size_options.e, options.size_options.q);
    }));
    execute_ms.push_back(Timed(&tracer_, "estimator.execute", root,
                               [&] { graph.Execute(f); }));
  } while (plan_ms.size() < kMaxReplays &&
           TimeLeft(graph_start, 0.25 * total_ms,
                    plan_ms.back() + execute_ms.back()));

  // index + compress: per structure, materialize its sample rows, pack
  // every candidate variant, and measure every codec over page-sized
  // spans of one flat rendering of the rows.
  const std::vector<std::pair<const char*, CompressionKind>> kinds = {
      {"none", CompressionKind::kNone},     {"row", CompressionKind::kRow},
      {"page", CompressionKind::kPage},     {"rle", CompressionKind::kRle},
      {"global_dict", CompressionKind::kGlobalDict},
      {"bitmap", CompressionKind::kBitmap},
  };
  std::map<std::string, double> measure_ns, measure_rows;
  std::vector<double> materialize_ms, pack_ms;
  uint64_t checksum = 0;
  const double index_start = tracer_.Now();
  for (const auto& entry : structures) {
    const std::vector<IndexDef>& variants = entry.second;
    const double structure_start = tracer_.Now();
    const Table& sample = samples.GetSample(db.table(variants[0].object), f);
    const IndexBuilder builder(sample);
    std::vector<Row> rows;
    materialize_ms.push_back(Timed(&tracer_, "index.materialize", root, [&] {
      rows = builder.MaterializeRows(variants[0]);
    }));
    for (const IndexDef& def : variants) {
      pack_ms.push_back(Timed(&tracer_, "index.pack", root, [&] {
        checksum += builder.Pack(def, rows).payload_bytes;
      }));
    }
    const Schema schema = builder.StoredSchema(variants[0]);
    const std::vector<uint32_t> widths = ColumnWidths(schema);
    uint64_t row_width = 0;
    bool bitmap_ok = true;
    for (uint32_t w : widths) {
      row_width += w;
      bitmap_ok = bitmap_ok && w <= 255;  // BitmapCodec's field limit
    }
    const size_t span_rows =
        std::max<size_t>(1, kPageCapacity / std::max<uint64_t>(row_width, 1));
    const FlatPage page = FlatPage::FromRows(rows, schema, 0, rows.size());
    for (const auto& [kind_name, kind] : kinds) {
      if (rows.empty() || (kind == CompressionKind::kBitmap && !bitmap_ok)) {
        continue;
      }
      const std::unique_ptr<Codec> codec = MakeCodec(kind, schema, rows);
      const std::string layer =
          kind == CompressionKind::kBitmap ? "succinct.measure"
                                           : "compress.measure";
      measure_ns[kind_name] +=
          1e6 * Timed(&tracer_, layer + "." + kind_name, root, [&] {
            for (size_t b = 0; b < rows.size(); b += span_rows) {
              const size_t e = std::min(rows.size(), b + span_rows);
              checksum += codec->MeasurePage(page.span(b, e));
            }
          });
      measure_rows[kind_name] += static_cast<double>(rows.size());
    }
    if (!TimeLeft(index_start, 0.30 * total_ms,
                  tracer_.Now() - structure_start)) {
      break;
    }
  }

  // optimizer: every statement costed under the empty configuration and
  // under the recommended design.
  const std::vector<Configuration> configs = {Configuration(), recommended_};
  std::vector<double> cost_us;
  const double cost_start = tracer_.Now();
  do {
    double calls = 0.0;
    const double ms = Timed(&tracer_, "optimizer.cost", root, [&] {
      for (const Configuration& config : configs) {
        for (const Statement& stmt : workload.statements) {
          checksum += static_cast<uint64_t>(optimizer.Cost(stmt, config));
          calls += 1.0;
        }
      }
    });
    cost_us.push_back(1000.0 * ms / std::max(calls, 1.0));
  } while (cost_us.size() < kMaxReplays &&
           TimeLeft(cost_start, 0.05 * total_ms, 0.0));

  tracer_.End(root, tracer_.Now());

  Obj ns, rows;
  for (const auto& [name, v] : measure_ns) ns.Add(name, v);
  for (const auto& [name, v] : measure_rows) rows.Add(name, v);
  replay_.Add("sampling_fraction", f)
      .Add("candidates", static_cast<double>(candidates.size()))
      .Add("compressed", static_cast<double>(compressed.size()))
      .Raw("sample_ms", NumList(sample_ms))
      .Raw("samplecf_ms", NumList(samplecf_ms))
      .Raw("plan_ms", NumList(plan_ms))
      .Raw("execute_ms", NumList(execute_ms))
      .Raw("materialize_ms", NumList(materialize_ms))
      .Raw("pack_ms", NumList(pack_ms))
      .Raw("measure_ns", ns.Str())
      .Raw("measure_rows", rows.Str())
      .Raw("cost_us", NumList(cost_us))
      .Add("checksum", static_cast<double>(checksum % 1000003));
}

std::string Bench::Run() {
  // An untraced run sets up kSetups times, each torn down before the next:
  // half before the measured loop (the last of these serves it) and half
  // after it, so the median spans the run's time instead of one moment of
  // a machine whose speed drifts.
  const int setups_before = tracer_.enabled() ? 1 : kSetups / 2;
  auto stack = std::make_unique<Stack>();
  for (int i = 0; i < setups_before; ++i) {
    if (i > 0) stack = std::make_unique<Stack>();
    SetUp(stack.get());
  }

  // Service responses must equal the same request run directly on a fresh
  // engine (the engine's determinism contract): that direct run is a
  // service run's reference. A warm run's reference is the first warm-up
  // response.
  if (config_.mode == Mode::kService) {
    AdvisorEngine fresh(*stack->built.db, MakeEngineOptions());
    const TuningResponse direct =
        fresh.Tune(MakeRequest(stack->built.workload));
    checks_.Flag("fresh_engine_ok", direct.ok());
    if (direct.ok()) reference_ = direct.json;
  } else if (config_.mode == Mode::kWarmDirect && warmups_[0].status == "ok") {
    reference_ = warmup_json_[0];
  }

  if (config_.mode == Mode::kService) {
    RunService(stack.get());
  } else {
    RunDirect(stack.get());
  }
  if (tracer_.enabled()) Replay(*stack);
  for (int i = setups_before; i < (tracer_.enabled() ? 1 : kSetups); ++i) {
    stack = std::make_unique<Stack>();
    SetUp(stack.get());
  }
  stack.reset();

  // Every warm-up must be kOk, fit the budget and reproduce the reference.
  for (size_t i = 0; i < warmups_.size(); ++i) {
    checks_.Flag("warmup_" + std::to_string(i) + "_ok",
                 warmups_[i].status == "ok" && warmups_[i].within_budget &&
                     !reference_.empty() && warmup_json_[i] == reference_);
  }

  std::string requests = "[";
  for (size_t i = 0; i < requests_.size(); ++i) {
    requests += (i > 0 ? ",\n" : "") + requests_[i].Json();
  }
  Obj out;
  out.Raw("workload", Quote(config_.name))
      .Add("seed", static_cast<double>(flags_.seed))
      .Flag("trace", flags_.trace)
      .Add("clients", config_.clients)
      .Raw("setup_s", NumList(setup_s_))
      .Raw("build_ms", NumList(build_ms_))
      .Raw("warmup_ms", NumList(warmup_ms_))
      .Add("window_ms", window_ms_)
      .Add("peak_rss_mb", PeakRssMb())
      .Raw("checks", checks_.Str())
      .Add("rows_scanned", counters_.rows_scanned)
      .Add("est_cache_hits", counters_.est_cache_hits)
      .Add("est_cache_misses", counters_.est_cache_misses)
      .Add("service_rejected", service_rejected_)
      .Add("service_degraded", service_degraded_)
      .Raw("requests", requests + "]");
  if (tracer_.enabled()) {
    out.Raw("replay", replay_.Str()).Raw("spans", tracer_.Json());
  }
  return out.Str();
}

}  // namespace
}  // namespace perfbench
}  // namespace capd

int main(int argc, char** argv) {
  using capd::perfbench::kWorkloads;
  const capd::perfbench::Flags flags = capd::perfbench::ParseFlags(argc, argv);
  const capd::perfbench::WorkloadConfig* config = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (flags.workload == candidate.name) config = &candidate;
  }
  if (config == nullptr) {
    capd::perfbench::Usage("unknown workload '" + flags.workload + "'");
  }
  capd::perfbench::Bench bench(*config, flags);
  const std::string out = bench.Run();
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}
