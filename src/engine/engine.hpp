// engine.hpp — the parallel evaluation engine.
//
// One EvalEngine per process (the web app owns one): a thread-pool
// executor that spreads lane blocks of sweep points over its workers,
// a memoized Play cache so an unchanged design — a reloaded page, a
// second user opening a shared design — costs a hash instead of a
// fixed-point evaluation, and a plan cache of compiled EvalPlans
// (sheet/plan.hpp) keyed by structural fingerprint so the compile cost
// is paid once per design *shape*, not per edit.
//
// Every sweep — 1-D global, row parameter, grid, and the arbitrary
// point sets behind the explore workloads — runs on one driver: the
// points partition into lane blocks of BatchPlanInstance::kLaneWidth
// by point index, each worker binds the swept slots of its blocks in a
// BatchPlanInstance over the shared plan, and the metrics land in
// PointColumns.  No design clone per point, no per-point PlayResult,
// no per-point memo.  Results are bit-identical to the serial loops in
// sheet/sweep.hpp at any thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/cache.hpp"
#include "engine/executor.hpp"
#include "engine/fingerprint.hpp"
#include "sheet/batch.hpp"
#include "sheet/plan.hpp"
#include "sheet/sweep.hpp"

namespace powerplay::engine {

struct EngineOptions {
  ExecutorOptions executor;
  std::size_t cache_capacity = 4096;
  /// Compiled plans are small but designs have few shapes; a modest
  /// LRU keeps every actively edited design's plan resident.
  std::size_t plan_cache_capacity = 256;
};

/// Compiled evaluation plans, keyed by structure_fingerprint().
using PlanCache = LruCache<sheet::EvalPlan>;

/// Process-lifetime counters for the lane-batched sweep driver (served
/// on /healthz).  `scalar_fallback_points` counts points a lane block
/// evaluated through the whole-point scalar path (intermodel plans,
/// blocks of width 1, blocks degraded by an error); `lane_replays`
/// counts programs the batch interpreter had to replay lane-by-lane
/// (divergent conditionals, would-throw conditions).
struct BatchCounters {
  std::uint64_t points = 0;
  std::uint64_t blocks = 0;
  std::uint64_t scalar_fallback_points = 0;
  std::uint64_t lane_replays = 0;
  /// Row-blocks served by the captured-terms fast path (one model
  /// evaluate per block, per-lane operating-point arithmetic only).
  std::uint64_t term_capture_rows = 0;
};

/// The slot of a name the caller already validated
/// (sheet::require_global(s) / require_row_param).  Only Design::play's
/// working copies ever get a parent scope, so every validated name is
/// slot-addressable; a miss is an internal error (std::logic_error),
/// never a second evaluation path.
[[nodiscard]] expr::SlotId validated_slot(std::optional<expr::SlotId> slot,
                                          const std::string& name);

class EvalEngine {
 public:
  explicit EvalEngine(EngineOptions options = {});

  [[nodiscard]] Executor& executor() { return executor_; }
  [[nodiscard]] PlayCache& cache() { return cache_; }
  [[nodiscard]] PlanCache& plans() { return plans_; }

  /// Compiled plan for `design`, from the plan cache when a
  /// structurally identical design was compiled before.
  [[nodiscard]] std::shared_ptr<const sheet::EvalPlan> plan_for(
      const sheet::Design& design);

  /// Memoized Play: fingerprint, probe the cache, run the compiled
  /// plan on miss.  The returned result is shared and immutable.  The
  /// sweeps below never touch this cache.
  [[nodiscard]] std::shared_ptr<const sheet::PlayResult> play(
      const sheet::Design& design);
  /// The same, for a caller that already holds fingerprint(design).
  [[nodiscard]] std::shared_ptr<const sheet::PlayResult> play(
      const sheet::Design& design, std::uint64_t fingerprint);

  /// 1-D sweep of global `param`: column i is the Play at values[i].
  /// Same validation, errors and values as sheet::sweep_global.
  [[nodiscard]] sheet::PointColumns sweep_global(
      const sheet::Design& design, const std::string& param,
      const std::vector<double>& values,
      const sheet::SweepProgress& progress = {});

  /// 1-D sweep of a row-local parameter.  When the row does not bind
  /// `param` itself, one clone per sweep materializes the binding so
  /// the plan has a slot for it.  Same validation, errors and values as
  /// sheet::sweep_row_param.
  [[nodiscard]] sheet::PointColumns sweep_row_param(
      const sheet::Design& design, const std::string& row,
      const std::string& param, const std::vector<double>& values,
      const sheet::SweepProgress& progress = {});

  /// Grid sweep: point (i, j) is column i * ys.size() + j.  Same
  /// validation, errors and values as sheet::sweep_grid.
  [[nodiscard]] sheet::ColumnarGrid sweep_grid_columnar(
      const sheet::Design& design, const std::string& x_param,
      const std::vector<double>& xs, const std::string& y_param,
      const std::vector<double>& ys,
      const sheet::SweepProgress& progress = {});

  /// Arbitrary-dimension point evaluation — the substrate of the
  /// exploration workloads (Monte Carlo, Pareto search, surrogate
  /// training, inverse probes): column i is the Play with params[j] =
  /// points[i][j] for every j.  Unknown parameters are all reported in
  /// one ExprError (sheet::require_globals).
  [[nodiscard]] sheet::PointColumns play_points_columnar(
      const sheet::Design& design, const std::vector<std::string>& params,
      const std::vector<std::vector<double>>& points,
      const sheet::SweepProgress& progress = {});

  /// Snapshot of the process-lifetime batch counters.
  [[nodiscard]] BatchCounters batch_counters() const;

 private:
  /// Lane blocks per worker task: enough to keep every worker busy,
  /// few enough that one BatchPlanInstance amortizes over many blocks.
  [[nodiscard]] std::size_t chunk_count(std::size_t blocks) const;

  /// The sweep driver: partition `total` points into lane blocks by
  /// point index, run them over the executor on `plan`, accumulate the
  /// batch counters.  `fill_lanes(base, width, lanes)` loads the slot
  /// lane values of the block starting at point `base`.  `progress`
  /// fires once per block, which is also where a job's cancellation and
  /// deadline take effect.
  template <typename FillLanes>
  [[nodiscard]] sheet::PointColumns run_columnar(
      const std::shared_ptr<const sheet::EvalPlan>& plan,
      const sheet::Design& design, const std::vector<expr::SlotId>& slots,
      std::size_t total, const sheet::SweepProgress& progress,
      FillLanes&& fill_lanes);

  Executor executor_;
  PlayCache cache_;
  PlanCache plans_;

  std::atomic<std::uint64_t> batch_points_{0};
  std::atomic<std::uint64_t> batch_blocks_{0};
  std::atomic<std::uint64_t> batch_fallback_points_{0};
  std::atomic<std::uint64_t> batch_lane_replays_{0};
  std::atomic<std::uint64_t> batch_term_capture_rows_{0};
};

}  // namespace powerplay::engine
