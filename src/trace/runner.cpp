#include "trace/runner.hpp"

#include <cstdio>

#include "trace/export.hpp"
#include "util/thread_pool.hpp"

namespace spider::trace {

ScenarioRunner::ScenarioRunner(RunnerOptions options)
    : options_(options), tracing_(options.tracing || options.sinks.any()) {}

std::shared_ptr<obs::Tracer> ScenarioRunner::make_tracer(
    std::uint64_t seed) const {
  if (!tracing_) return nullptr;
  obs::TracerConfig tc = options_.tracer;
  tc.seed = seed;
  return std::make_shared<obs::Tracer>(tc);
}

std::vector<ScenarioResult> ScenarioRunner::execute(
    const std::vector<ScenarioConfig>& expanded, const AppFactory& app) const {
  return util::parallel_map(options_.jobs, expanded.size(), [&](std::size_t i) {
    // A tripped token skips runs that have not started yet — the sweep
    // returns promptly with every remaining slot marked incomplete
    // instead of grinding through the backlog after a ^C.
    if (options_.cancel != nullptr && options_.cancel->should_stop()) {
      ScenarioResult skipped;
      skipped.completed = false;
      return skipped;
    }
    return detail::execute_scenario(expanded[i], make_tracer(expanded[i].seed),
                                    options_.cancel, app, i);
  });
}

RunOutcome ScenarioRunner::run_bounded(const ScenarioConfig& config,
                                       sim::CancelToken* cancel) const {
  RunOutcome outcome;
  const std::vector<ConfigIssue> issues = config.validate();
  if (!issues.empty()) {
    outcome.error =
        RunError{RunErrorKind::kInvalidConfig, join_issues(issues)};
    return outcome;
  }
  sim::CancelToken* token = cancel != nullptr ? cancel : options_.cancel;
  try {
    ScenarioResult result =
        detail::execute_scenario(config, make_tracer(config.seed), token);
    const bool completed = result.completed;
    outcome.result = std::move(result);
    if (!completed) {
      const sim::CancelReason reason =
          token != nullptr ? token->reason() : sim::CancelReason::kCancelled;
      outcome.error = RunError{
          reason == sim::CancelReason::kDeadlineExceeded
              ? RunErrorKind::kDeadlineExceeded
              : RunErrorKind::kCancelled,
          std::string("run interrupted (") + sim::to_string(reason) +
              ") at sim time " +
              std::to_string(outcome.result->perf.sim_seconds) + " s"};
    }
  } catch (const std::exception& e) {
    outcome.result.reset();
    outcome.error = RunError{RunErrorKind::kInternal, e.what()};
  } catch (...) {
    outcome.result.reset();
    outcome.error =
        RunError{RunErrorKind::kInternal, "unknown exception in runner"};
  }
  return outcome;
}

void ScenarioRunner::write_sinks(
    const std::vector<ScenarioResult>& results) const {
  const auto emit = [&](const std::string& path, bool ok) {
    if (!path.empty() && !ok) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
  };
  if (!options_.sinks.jsonl_path.empty()) {
    emit(options_.sinks.jsonl_path,
         write_trace_jsonl(options_.sinks.jsonl_path, results));
  }
  if (!options_.sinks.chrome_path.empty()) {
    emit(options_.sinks.chrome_path,
         write_trace_chrome(options_.sinks.chrome_path, results));
  }
  if (!options_.sinks.metrics_path.empty()) {
    emit(options_.sinks.metrics_path,
         write_metrics_csv(options_.sinks.metrics_path, results));
  }
}

ScenarioResult ScenarioRunner::run_one(const ScenarioConfig& config) const {
  std::vector<ScenarioResult> results = execute({config});
  write_sinks(results);
  return std::move(results.front());
}

std::vector<ScenarioResult> ScenarioRunner::run_many(
    const std::vector<ScenarioConfig>& configs, const AppFactory& app) const {
  std::vector<ScenarioResult> results = execute(configs, app);
  write_sinks(results);
  return results;
}

std::vector<ScenarioResult> ScenarioRunner::run_many_averaged(
    const std::vector<ScenarioConfig>& configs, int runs) const {
  runs = runs < 1 ? 1 : runs;
  std::vector<ScenarioConfig> expanded;
  expanded.reserve(configs.size() * static_cast<std::size_t>(runs));
  for (const ScenarioConfig& config : configs) {
    for (int r = 0; r < runs; ++r) {
      expanded.push_back(config);
      expanded.back().seed = config.seed + static_cast<std::uint64_t>(r);
    }
  }
  const std::vector<ScenarioResult> flat = execute(expanded);

  std::vector<ScenarioResult> pooled;
  pooled.reserve(configs.size());
  for (std::size_t g = 0; g < configs.size(); ++g) {
    const auto first = flat.begin() + static_cast<std::ptrdiff_t>(
                                          g * static_cast<std::size_t>(runs));
    pooled.push_back(pool_results(std::vector<ScenarioResult>(
        first, first + static_cast<std::ptrdiff_t>(runs))));
  }
  write_sinks(pooled);
  return pooled;
}

}  // namespace spider::trace
