// Unit tests of the parallel evaluation engine: executor, fingerprint,
// Play cache, engine sweeps (columnar, bit-identical to the serial
// reference loops), and the async job manager.
#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "engine/job.hpp"
#include "model/user_model.hpp"
#include "models/berkeley_library.hpp"
#include "studies/vq.hpp"

namespace powerplay::engine {
namespace {

const model::ModelRegistry& lib() {
  static const model::ModelRegistry registry = models::berkeley_library();
  return registry;
}

sheet::Design adder_design() {
  sheet::Design d("adders");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  auto& a = d.add_row("A", lib().find_shared("ripple_adder"));
  a.params.set("bitwidth", 16.0);
  auto& b = d.add_row("B", lib().find_shared("ripple_adder"));
  b.params.set("bitwidth", 32.0);
  return d;
}

// --- Executor ---------------------------------------------------------------

TEST(Executor, RunsEverySubmittedTask) {
  Executor ex({4, 16});
  std::atomic<int> sum{0};
  TaskGroup group(ex);
  for (int i = 1; i <= 100; ++i) {
    group.run([&sum, i] { sum += i; });
  }
  group.wait();
  EXPECT_EQ(sum.load(), 5050);
  const ExecutorStats s = ex.stats();
  EXPECT_EQ(s.submitted, 100u);
  EXPECT_EQ(s.executed, 100u);
  EXPECT_EQ(s.thread_count, 4u);
}

TEST(Executor, BoundedQueueAppliesBackPressure) {
  // One slow worker + capacity 2: submitting 10 quick tasks must block
  // rather than grow the queue past its bound.  We can only observe the
  // invariant indirectly: queue depth never exceeds capacity.
  Executor ex({1, 2});
  std::atomic<std::size_t> max_depth{0};
  TaskGroup group(ex);
  for (int i = 0; i < 10; ++i) {
    group.run([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const std::size_t depth = ex.stats().queue_depth;
      std::size_t seen = max_depth.load();
      while (depth > seen && !max_depth.compare_exchange_weak(seen, depth)) {
      }
    });
  }
  group.wait();
  EXPECT_LE(max_depth.load(), 2u);
}

TEST(Executor, TaskGroupPropagatesFirstException) {
  Executor ex({2, 8});
  TaskGroup group(ex);
  group.run([] { throw std::runtime_error("boom"); });
  group.run([] {});
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(Executor, ParallelForCoversAllIndices) {
  Executor ex({3, 8});
  std::vector<std::atomic<int>> hits(64);
  parallel_for(ex, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- Fingerprint ------------------------------------------------------------

TEST(Fingerprint, StableAcrossIdenticalDesigns) {
  EXPECT_EQ(fingerprint(adder_design()), fingerprint(adder_design()));
}

TEST(Fingerprint, SensitiveToEverythingPlayReads) {
  const std::uint64_t base = fingerprint(adder_design());

  sheet::Design g = adder_design();
  g.globals().set("vdd", 1.8);
  EXPECT_NE(fingerprint(g), base);

  sheet::Design p = adder_design();
  p.find_row("A")->params.set("bitwidth", 24.0);
  EXPECT_NE(fingerprint(p), base);

  sheet::Design e = adder_design();
  e.find_row("B")->enabled = false;
  EXPECT_NE(fingerprint(e), base);

  sheet::Design f = adder_design();
  f.globals().set_formula("derived", "vdd * 2");
  EXPECT_NE(fingerprint(f), base);

  sheet::Design r = adder_design();
  r.remove_row("B");
  EXPECT_NE(fingerprint(r), base);
}

TEST(Fingerprint, RedefinedModelOfTheSameNameIsANewKey) {
  model::UserModelDefinition def;
  def.name = "m";
  def.params = {{"bits", "width", 8, "bits", 1, 64, true}};
  def.c_fullswing = "bits * 1e-12";
  const auto design_with = [](model::ModelPtr m) {
    sheet::Design d("d");
    d.globals().set("vdd", 1.0);
    d.globals().set("f", 1e6);
    d.add_row("r", std::move(m));
    return d;
  };
  const sheet::Design before =
      design_with(std::make_shared<model::UserModel>(def));
  def.c_fullswing = "bits * 5e-12";
  const sheet::Design after =
      design_with(std::make_shared<model::UserModel>(def));
  EXPECT_NE(fingerprint(before), fingerprint(after));
  EXPECT_NE(structure_fingerprint(before), structure_fingerprint(after));

  // Neither the plan cache nor the Play memo hands the old model's
  // numbers to the redefinition.
  EvalEngine engine;
  const double old_power = engine.play(before)->total.total_power().si();
  EXPECT_NE(engine.plan_for(after), engine.plan_for(before));
  const double new_power = engine.play(after)->total.total_power().si();
  EXPECT_EQ(new_power, after.play().total.total_power().si());
  EXPECT_NE(new_power, old_power);
}

TEST(Fingerprint, HexRendering) {
  EXPECT_EQ(fingerprint_hex(0), "0000000000000000");
  EXPECT_EQ(fingerprint_hex(0xdeadbeefull), "00000000deadbeef");
}

// --- PlayCache --------------------------------------------------------------

TEST(PlayCache, HitMissAndLruEviction) {
  PlayCache cache(2);
  auto result = [](const char* name) {
    auto r = std::make_shared<sheet::PlayResult>();
    r->design_name = name;
    return std::shared_ptr<const sheet::PlayResult>(r);
  };
  EXPECT_EQ(cache.find(1), nullptr);  // miss
  cache.insert(1, result("one"));
  cache.insert(2, result("two"));
  EXPECT_NE(cache.find(1), nullptr);  // hit, promotes 1 over 2
  cache.insert(3, result("three"));   // evicts 2 (LRU)
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_NE(cache.find(3), nullptr);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(EvalEngine, RepeatedPlayOfUnchangedDesignIsACacheHit) {
  EvalEngine engine;
  const sheet::Design d = adder_design();
  const auto first = engine.play(d);
  const auto second = engine.play(d);
  EXPECT_EQ(first.get(), second.get());  // same shared result object
  const CacheStats s = engine.cache().stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);

  // Any edit changes the fingerprint and misses.
  sheet::Design edited = adder_design();
  edited.globals().set("vdd", 3.3);
  (void)engine.play(edited);
  EXPECT_EQ(engine.cache().stats().misses, 2u);
}

// --- Engine sweeps (columnar, against the serial reference) ---------------

/// Bit-for-bit column comparison (vector == on doubles would let +0 and
/// -0 pass as equal).
void expect_bit_identical(const sheet::PointColumns& want,
                          const sheet::PointColumns& got) {
  ASSERT_EQ(want.size(), got.size());
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out(v.size());
    std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
    return out;
  };
  EXPECT_EQ(bits(want.power_w), bits(got.power_w));
  EXPECT_EQ(bits(want.energy_j), bits(got.energy_j));
  EXPECT_EQ(bits(want.area_m2), bits(got.area_m2));
  EXPECT_EQ(bits(want.delay_s), bits(got.delay_s));
}

TEST(EngineSweep, GlobalSweepBitIdenticalToSerial) {
  EvalEngine engine({{4, 64}, 1024});
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const std::vector<double> vdds = sheet::linspace(1.0, 3.0, 9);
  expect_bit_identical(sheet::to_columns(sheet::sweep_global(d, "vdd", vdds)),
                       engine.sweep_global(d, "vdd", vdds));
}

TEST(EngineSweep, GridSweepBitIdenticalToSerial) {
  EvalEngine engine({{4, 64}, 1024});
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const auto vdds = sheet::linspace(1.0, 3.0, 8);
  const auto rates = sheet::linspace(1e6, 4e6, 8);
  const sheet::ColumnarGrid serial = sheet::to_columnar(
      sheet::sweep_grid(d, "vdd", vdds, "pixel_rate", rates));
  const sheet::ColumnarGrid grid =
      engine.sweep_grid_columnar(d, "vdd", vdds, "pixel_rate", rates);
  expect_bit_identical(serial.cols, grid.cols);
  EXPECT_EQ(sheet::grid_csv(serial), sheet::grid_csv(grid));
}

TEST(EngineSweep, RowParamSweepMatchesSerial) {
  EvalEngine engine;
  const sheet::Design d = adder_design();
  const std::vector<double> widths = {8, 16, 24, 32};
  const auto serial = sheet::sweep_row_param(d, "A", "bitwidth", widths);
  const sheet::PointColumns cols =
      engine.sweep_row_param(d, "A", "bitwidth", widths);
  expect_bit_identical(sheet::to_columns(serial), cols);
  // The columnar renderers emit the serial renderers' bytes.
  EXPECT_EQ(sheet::sweep_csv("bitwidth", serial),
            sheet::sweep_csv("bitwidth", widths, cols));
  EXPECT_EQ(sheet::sweep_table("bitwidth", serial),
            sheet::sweep_table("bitwidth", widths, cols));
}

// --- Sweep validation (the silent-create bugfix) ----------------------------

TEST(SweepValidation, UnknownGlobalThrowsInsteadOfCreating) {
  const sheet::Design d = adder_design();
  EXPECT_THROW(sheet::sweep_global(d, "vdd_typo", {1, 2}), expr::ExprError);
  EXPECT_THROW(sheet::sweep_grid(d, "vdd", {1}, "freq_typo", {1e6}),
               expr::ExprError);
  EvalEngine engine;
  EXPECT_THROW((void)engine.sweep_global(d, "vdd_typo", {1, 2}),
               expr::ExprError);
  EXPECT_THROW(
      (void)engine.sweep_grid_columnar(d, "vdd", {1}, "freq_typo", {1e6}),
      expr::ExprError);
}

TEST(SweepValidation, UnknownRowParamThrows) {
  const sheet::Design d = adder_design();
  EXPECT_THROW(sheet::sweep_row_param(d, "A", "bitwidht", {8}),
               expr::ExprError);
  EvalEngine engine;
  EXPECT_THROW((void)engine.sweep_row_param(d, "A", "bitwidht", {8}),
               expr::ExprError);
  // Model-declared parameters are sweepable even when not yet bound.
  const auto points = sheet::sweep_row_param(d, "A", "alpha", {0.5, 1.0});
  EXPECT_EQ(points.size(), 2u);
  expect_bit_identical(sheet::to_columns(points),
                       engine.sweep_row_param(d, "A", "alpha", {0.5, 1.0}));
}

// --- grid_csv ---------------------------------------------------------------

TEST(GridCsv, LongFormMachineReadable) {
  const sheet::Design d = adder_design();
  const auto grid = sheet::sweep_grid(d, "vdd", {1.0, 2.0}, "f", {1e6});
  const std::string csv = sheet::grid_csv(grid);
  EXPECT_NE(csv.find("vdd,f,total_power_w,energy_per_op_j\n"),
            std::string::npos);
  // 2x1 grid -> header + 2 data lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  // P = C vdd^2 f quadruples from vdd=1 to vdd=2.
  const auto p00 = grid.results[0][0].total.total_power().si();
  const auto p10 = grid.results[1][0].total.total_power().si();
  EXPECT_NEAR(p10 / p00, 4.0, 1e-9);
}

// --- JobManager -------------------------------------------------------------

TEST(JobManager, LifecycleAndSnapshot) {
  JobManager jobs(1, 16);
  const std::uint64_t id = jobs.submit(
      "dl", "demo", [](const JobManager::Progress& progress) {
        progress(3, 3);
        return JobResult{"table-text", "csv-text"};
      });
  jobs.wait_idle();
  const auto snap = jobs.get(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kDone);
  EXPECT_EQ(snap->done, 3u);
  EXPECT_EQ(snap->total, 3u);
  EXPECT_EQ(snap->result.table, "table-text");
  EXPECT_EQ(snap->result.csv, "csv-text");
  EXPECT_EQ(snap->user, "dl");

  const auto listed = jobs.list("dl");
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].id, id);
  EXPECT_TRUE(jobs.list("nobody").empty());
  EXPECT_FALSE(jobs.get(id + 999).has_value());
}

TEST(JobManager, FailedJobCarriesError) {
  JobManager jobs;
  const std::uint64_t id =
      jobs.submit("dl", "bad", [](const JobManager::Progress&) -> JobResult {
        throw std::runtime_error("sweep exploded");
      });
  jobs.wait_idle();
  const auto snap = jobs.get(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kFailed);
  EXPECT_EQ(snap->error, "sweep exploded");
  EXPECT_EQ(jobs.stats().failed, 1u);
}

TEST(JobManager, CancelQueuedJobNeverRuns) {
  JobManager jobs(1, 16);
  std::atomic<bool> release{false};
  std::atomic<bool> victim_ran{false};
  jobs.submit("dl", "blocker", [&](const JobManager::Progress&) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return JobResult{};
  });
  const std::uint64_t victim =
      jobs.submit("dl", "victim", [&](const JobManager::Progress&) {
        victim_ran = true;
        return JobResult{};
      });
  EXPECT_EQ(jobs.cancel(victim), CancelOutcome::kCancelled);
  release = true;
  jobs.wait_idle();
  const auto snap = jobs.get(victim);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kCancelled);
  EXPECT_FALSE(victim_ran.load());
  EXPECT_EQ(jobs.stats().cancelled_total, 1u);
  // Cancelling a finished job is a no-op.
  EXPECT_EQ(jobs.cancel(victim), CancelOutcome::kAlreadyFinished);
  EXPECT_EQ(jobs.cancel(9999), CancelOutcome::kNoSuchJob);
}

TEST(JobManager, CancelRunningJobStopsAtNextProgressPoint) {
  JobManager jobs(1, 16);
  std::atomic<bool> started{false};
  const std::uint64_t id =
      jobs.submit("dl", "long", [&](const JobManager::Progress& progress) {
        for (std::size_t i = 0;; ++i) {
          started = true;
          progress(i, 0);  // throws JobCancelled once the flag is up
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return JobResult{};
      });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(jobs.cancel(id), CancelOutcome::kRequested);
  jobs.wait_idle();  // returns promptly: the runner was freed
  const auto snap = jobs.get(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kCancelled);
  EXPECT_EQ(snap->error, "job cancelled");
  EXPECT_EQ(jobs.stats().cancelled_total, 1u);
}

TEST(JobManager, DeadlineExpiryFailsTheJob) {
  JobOptions options;
  options.runner_count = 1;
  options.deadline = std::chrono::milliseconds(30);
  JobManager jobs(options);
  const std::uint64_t id =
      jobs.submit("dl", "runaway", [](const JobManager::Progress& progress) {
        for (std::size_t i = 0;; ++i) {
          progress(i, 0);  // throws JobDeadlineExceeded past the budget
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return JobResult{};
      });
  jobs.wait_idle();
  const auto snap = jobs.get(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kFailed);
  EXPECT_EQ(snap->error, "deadline exceeded");
  EXPECT_EQ(jobs.stats().deadline_expired_total, 1u);
}

TEST(JobManager, DrainCancelsEverythingAndRejectsNewWork) {
  JobManager jobs(1, 16);
  std::atomic<bool> started{false};
  const std::uint64_t running =
      jobs.submit("dl", "running", [&](const JobManager::Progress& progress) {
        for (std::size_t i = 0;; ++i) {
          started = true;
          progress(i, 0);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return JobResult{};
      });
  const std::uint64_t queued = jobs.submit(
      "dl", "queued", [](const JobManager::Progress&) { return JobResult{}; });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  jobs.drain();
  EXPECT_EQ(jobs.get(running)->status, JobStatus::kCancelled);
  EXPECT_EQ(jobs.get(queued)->status, JobStatus::kCancelled);
  // Post-drain submissions are admitted but immediately cancelled.
  const std::uint64_t late = jobs.submit(
      "dl", "late", [](const JobManager::Progress&) { return JobResult{}; });
  const auto snap = jobs.get(late);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kCancelled);
  EXPECT_EQ(jobs.stats().cancelled_total, 3u);
}

TEST(JobManager, CancelledSweepFreesItsRunner) {
  // End-to-end through the engine: the Progress wrapper's exception has
  // to propagate out of parallel_for / TaskGroup and stop the sweep
  // within one lane block's granularity.
  EvalEngine engine({{2, 64}, 1024});
  JobManager jobs(1, 16);
  const sheet::Design d = adder_design();
  std::atomic<bool> started{false};
  std::atomic<bool> cancel_sent{false};
  const std::uint64_t id = jobs.submit(
      "dl", "sweep", [&](const JobManager::Progress& progress) {
        // Progress fires once per 64-point block, so a 400-point sweep
        // is only seven calls: hold each block until the cancel is in,
        // or the sweep could finish first.
        (void)engine.sweep_global(
            d, "vdd", sheet::linspace(1.0, 3.0, 400),
            [&](std::size_t done, std::size_t total) {
              started = true;
              while (!cancel_sent.load()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
              progress(done, total);
            });
        return JobResult{"done", "done"};
      });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  jobs.cancel(id);
  cancel_sent = true;
  jobs.wait_idle();
  const auto snap = jobs.get(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kCancelled);
  // The freed runner picks up new work.
  const std::uint64_t next = jobs.submit(
      "dl", "after", [](const JobManager::Progress&) { return JobResult{}; });
  jobs.wait_idle();
  EXPECT_EQ(jobs.get(next)->status, JobStatus::kDone);
}

TEST(JobManager, RetainedHistoryIsBounded) {
  JobManager jobs(1, 4);
  for (int i = 0; i < 10; ++i) {
    jobs.submit("dl", "j" + std::to_string(i),
                [](const JobManager::Progress&) { return JobResult{}; });
  }
  jobs.wait_idle();
  // Submission trims finished records down to the retention bound; the
  // last submit may still have been running at its own trim point, so
  // allow the bound itself.
  EXPECT_LE(jobs.list("dl").size(), 4u);
  // The newest job is always still visible.
  const auto listed = jobs.list("dl");
  ASSERT_FALSE(listed.empty());
  EXPECT_EQ(listed.front().description, "j9");
}

}  // namespace
}  // namespace powerplay::engine
