#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/tracer.hpp"
#include "sim/cancel.hpp"
#include "trace/error.hpp"
#include "trace/experiment.hpp"

namespace spider::trace {

/// File destinations for a traced run's artefacts. An empty path disables
/// that sink; with all paths empty (and tracing off) a runner does no
/// observer work at all.
struct SinkOptions {
  std::string jsonl_path;    ///< one JSON object per trace event
  std::string chrome_path;   ///< Chrome trace-event JSON (Perfetto-loadable)
  std::string metrics_path;  ///< merged metric,kind,value CSV

  bool any() const {
    return !jsonl_path.empty() || !chrome_path.empty() || !metrics_path.empty();
  }
};

/// How many workers a runner uses and which observers ride along.
struct RunnerOptions {
  /// Worker threads. 0 defers to SPIDER_JOBS / hardware_concurrency (see
  /// util::ThreadPool::default_jobs); 1 runs inline on the caller.
  std::size_t jobs = 1;
  /// Record a flight recorder per run. Implied by any sink path being set.
  bool tracing = false;
  /// Ring sizing for each run's recorder (seed is stamped per run).
  obs::TracerConfig tracer;
  SinkOptions sinks;
  /// Optional cooperative stop token observed by every run this runner
  /// executes: runs in flight are interrupted at the next poll, runs not
  /// yet started are skipped (completed == false either way). Benches wire
  /// their SIGINT/SIGTERM handler here; the scenario server arms a token
  /// per request. Not owned; must outlive the runner's calls.
  sim::CancelToken* cancel = nullptr;
};

/// Outcome of a bounded run: either a completed result, or a structured
/// error — possibly still carrying the partial result harvested at the
/// interruption point (deadline/cancel), so callers can flush partial
/// output instead of losing the run entirely.
struct RunOutcome {
  std::optional<ScenarioResult> result;
  std::optional<RunError> error;

  bool ok() const { return !error.has_value(); }
};

/// The one way to run a scenario. Every run inherits the same determinism
/// contract (DESIGN.md §7): each run owns its Simulator and RNG streams,
/// results are indexed by submission order, and output is byte-identical
/// for any worker count.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(RunnerOptions options = {});

  /// A single run of `config`.
  ScenarioResult run_one(const ScenarioConfig& config) const;

  /// The robust entry point (DESIGN.md §11): validates `config` up front
  /// (kInvalidConfig instead of asserting downstream), runs it under the
  /// cancel/deadline token (the per-call `cancel` if given, else the
  /// runner-wide RunnerOptions::cancel), maps an interruption to
  /// kDeadlineExceeded/kCancelled with the partial result attached, and
  /// converts escaped exceptions to kInternal. A completed run is
  /// byte-identical to run_one() with no token installed.
  RunOutcome run_bounded(const ScenarioConfig& config,
                         sim::CancelToken* cancel = nullptr) const;

  /// One result per config, results[i] from configs[i], computed with
  /// `jobs` workers. When `app` is set, run i carries the ScenarioApp
  /// `app(i, testbed)` builds.
  std::vector<ScenarioResult> run_many(
      const std::vector<ScenarioConfig>& configs,
      const AppFactory& app = {}) const;

  /// Per config: `runs` seeded runs (seed, seed+1, ...) pooled into one
  /// result by pool_results; `runs` < 1 behaves as 1. The expansion is
  /// flattened across configs × runs so the runs of different configs
  /// overlap on the pool instead of serialising per config.
  std::vector<ScenarioResult> run_many_averaged(
      const std::vector<ScenarioConfig>& configs, int runs) const;

 private:
  /// A fresh flight recorder for one run of `seed`, or null when untraced.
  std::shared_ptr<obs::Tracer> make_tracer(std::uint64_t seed) const;
  std::vector<ScenarioResult> execute(
      const std::vector<ScenarioConfig>& expanded,
      const AppFactory& app = {}) const;
  void write_sinks(const std::vector<ScenarioResult>& results) const;

  RunnerOptions options_;
  bool tracing_;
};

}  // namespace spider::trace
