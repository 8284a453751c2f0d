// capd_tune: the command-line physical design tool over the built-in
// workloads, driving the AdvisorEngine service API — the closest thing in
// this repo to running DTA from a shell.
//
//   capd_tune [--workload tpch|sales|tpcds-lite] [--rows N] [--seed N]
//             [--strategy NAME] [--budget 15% | --budget BYTES]
//             [--budget-frac F] [--threads N] [--insert-weight W]
//             [--timeout-ms MS] [--priority P]
//             [--mv] [--partial] [--json] [--trace] [--list]
//
// --json prints the versioned JSON report (report_json.h) and nothing
// else, so the output pipes straight into `python3 -m json.tool`, jq, etc.
// Bad flags, unknown workloads and unknown strategies exit 2 with a usage
// message.
//
// --timeout-ms / --priority route the request through the TuningService
// (deadline enforcement, priority scheduling): a deadline that fires
// mid-tune still prints the best-so-far design, but the process exits 3 —
// as it does on kOverloaded — so scripts can tell a degraded answer from a
// complete one.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "engine/advisor_engine.h"
#include "service/tuning_service.h"
#include "workloads/registry.h"

using namespace capd;

namespace {

// --threads ceiling: the engine's estimation pool starts this many workers
// at most.
constexpr uint64_t kMaxThreads = 256;

void Usage() {
  std::fprintf(
      stderr,
      "usage: capd_tune [--workload tpch|sales|tpcds-lite] [--rows N]\n"
      "                 [--seed N] [--strategy NAME] [--budget 15%% | BYTES]\n"
      "                 [--budget-frac F] [--threads N] [--insert-weight W]\n"
      "                 [--timeout-ms MS] [--priority P]\n"
      "                 [--mv] [--partial] [--json] [--trace] [--list]\n"
      "\n"
      "  --budget accepts a percentage of the base data size (\"15%%\") or\n"
      "  an absolute byte count (\"1048576\"); --budget-frac takes the\n"
      "  fraction as a float. --threads sizes the estimation pool (0 =\n"
      "  hardware concurrency, at most 256); the search runs serially.\n"
      "  --mv/--partial add MV and partial-index candidates on top of the\n"
      "  chosen strategy.\n"
      "  --timeout-ms/--priority run through the TuningService: a deadline\n"
      "  that fires mid-tune prints the best-so-far design and exits 3\n"
      "  (as does an overloaded rejection).\n"
      "  --list prints the registered strategies and workloads and exits.\n");
}

// Strict numeric parsers: the whole value must parse, or we exit 2 — a
// silently truncated \"10k\" must not become 10 (or 0 = workload default).
uint64_t ParseUint64Flag(const char* flag, const char* text,
                         uint64_t min_value = 0) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || value < min_value) {
    std::fprintf(stderr, "bad %s value '%s'\n", flag, text);
    Usage();
    std::exit(2);
  }
  return value;
}

double ParseDoubleFlag(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "bad %s value '%s'\n", flag, text);
    Usage();
    std::exit(2);
  }
  return value;
}

// Strict signed integer (priorities may be negative); same exit-2 contract.
int64_t ParseInt64Flag(const char* flag, const char* text) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "bad %s value '%s'\n", flag, text);
    Usage();
    std::exit(2);
  }
  return value;
}

// "15%" -> fraction, plain number -> absolute bytes. False on junk.
bool ParseBudget(const std::string& text, TuningBudget* budget) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || value < 0.0) return false;
  if (*end == '%' && *(end + 1) == '\0') {
    *budget = TuningBudget::Fraction(value / 100.0);
    return true;
  }
  if (*end != '\0') return false;
  *budget = TuningBudget::Bytes(value);
  return true;
}

void ListRegistries() {
  std::printf("strategies:\n");
  for (const std::string& name : StrategyRegistry::Global().Names()) {
    std::printf("  %-16s %s\n", name.c_str(),
                StrategyRegistry::Global().Find(name)->description().c_str());
  }
  std::printf("workloads:\n");
  for (const std::string& name : workloads::Names()) {
    std::printf("  %s\n", name.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  workloads::WorkloadSpec spec;
  spec.name = "tpch";
  spec.rows = 8000;
  TuningBudget budget = TuningBudget::Fraction(0.2);
  std::string strategy = "dtac-both";
  double insert_weight = 1.0;
  int threads = 1;
  double timeout_ms = 0.0;
  int priority = 0;
  bool use_service = false;
  bool enable_mv = false;
  bool enable_partial = false;
  bool json = false;
  bool trace = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      spec.name = next();
    } else if (arg == "--rows") {
      spec.rows = ParseUint64Flag("--rows", next(), 1);
    } else if (arg == "--seed") {
      spec.seed = ParseUint64Flag("--seed", next());
    } else if (arg == "--strategy") {
      strategy = next();
    } else if (arg == "--budget") {
      if (!ParseBudget(next(), &budget)) {
        std::fprintf(stderr, "bad --budget value (want \"15%%\" or bytes)\n");
        Usage();
        return 2;
      }
    } else if (arg == "--budget-frac") {
      budget = TuningBudget::Fraction(ParseDoubleFlag("--budget-frac", next()));
    } else if (arg == "--threads") {
      const uint64_t value = ParseUint64Flag("--threads", next());
      if (value > kMaxThreads) {
        std::fprintf(stderr, "bad --threads value: must be <= %llu\n",
                     static_cast<unsigned long long>(kMaxThreads));
        Usage();
        return 2;
      }
      threads = static_cast<int>(value);
    } else if (arg == "--insert-weight") {
      insert_weight = ParseDoubleFlag("--insert-weight", next());
    } else if (arg == "--timeout-ms") {
      timeout_ms = ParseDoubleFlag("--timeout-ms", next());
      if (timeout_ms <= 0.0) {
        std::fprintf(stderr, "bad --timeout-ms value: must be > 0\n");
        Usage();
        return 2;
      }
      use_service = true;
    } else if (arg == "--priority") {
      priority = static_cast<int>(ParseInt64Flag("--priority", next()));
      use_service = true;
    } else if (arg == "--mv") {
      enable_mv = true;
    } else if (arg == "--partial") {
      enable_partial = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--list") {
      ListRegistries();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  // Fail on a bad strategy name before spending time building the dataset.
  if (StrategyRegistry::Global().Find(strategy) == nullptr) {
    std::fprintf(
        stderr, "%s\n",
        StrategyRegistry::Global().UnknownStrategyMessage(strategy).c_str());
    Usage();
    return 2;
  }

  workloads::BuiltWorkload built;
  std::string error;
  if (!workloads::Build(spec, &built, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    Usage();
    return 2;
  }

  EngineOptions engine_options;
  engine_options.estimation_threads = threads;
  AdvisorEngine engine(*built.db, engine_options);

  TuningRequest request;
  request.workload = built.workload.WithInsertWeight(insert_weight);
  request.strategy = strategy;
  request.budget = budget;
  request.enable_mv = enable_mv ? 1 : -1;
  request.enable_partial = enable_partial ? 1 : -1;
  request.trace = trace;
  if (trace && !json) {
    request.progress = [](const std::string& phase) {
      std::fprintf(stderr, "[capd_tune] phase done: %s\n", phase.c_str());
    };
  }

  TuningResponse response;
  int exit_code = 0;
  if (use_service) {
    // The service path: deadline enforcement and priority scheduling on
    // top of the same engine. One-shot, so admission never rejects here —
    // but the status mapping (exit 3) matches a shared long-lived service.
    TuningService service(&engine, ServiceOptions{});
    ServiceRequest service_request;
    service_request.tuning = request;
    service_request.priority = priority;
    service_request.timeout_ms = timeout_ms;
    const ServiceResponse service_response = service.Tune(service_request);
    if (service_response.status == ServiceStatus::kOverloaded) {
      std::fprintf(stderr, "rejected: %s\n", service_response.error.c_str());
      return 3;
    }
    if (service_response.status == ServiceStatus::kDeadlineExceeded) {
      std::fprintf(stderr,
                   "deadline of %.0f ms exceeded — printing the best-so-far "
                   "design, exiting 3\n",
                   timeout_ms);
      exit_code = 3;
    }
    response = service_response.tuning;
  } else {
    response = engine.Tune(request);
  }
  if (exit_code == 0 && response.status == TuningResponse::Status::kError) {
    std::fprintf(stderr, "%s\n", response.error.c_str());
    Usage();
    return 2;
  }

  if (json) {
    std::fputs(response.json.c_str(), stdout);
    return exit_code;
  }

  const double base_kb =
      static_cast<double>(built.db->BaseDataBytes()) / 1024.0;
  std::printf("workload=%s strategy=%s budget=%.0f KB (base data %.0f KB)\n",
              spec.name.c_str(), strategy.c_str(),
              response.budget_bytes / 1024.0, base_kb);
  const AdvisorResult& result = response.result;
  std::printf("candidates considered: %zu   what-if calls: %zu\n",
              result.num_candidates, result.what_if_calls);
  std::printf("size estimation: f=%.1f%%, cost=%.0f sample pages, "
              "%zu sampled / %zu deduced\n",
              result.chosen_f * 100, result.estimation_cost_pages,
              result.num_sampled, result.num_deduced);
  std::printf("workload cost: %.1f -> %.1f  (improvement %.1f%%)\n",
              result.initial_cost, result.final_cost,
              result.improvement_percent());
  std::printf("charged bytes: %.0f KB\n\n%s", result.charged_bytes / 1024.0,
              response.report.c_str());
  return exit_code;
}
