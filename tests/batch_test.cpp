// Differential tests of the lane-batched columnar sweep driver
// (sheet/batch.hpp behind every EvalEngine sweep: sweep_global,
// sweep_row_param, sweep_grid_columnar, play_points_columnar) against
// the serial reference loops of sheet/sweep.hpp: grids, 1-D sweeps and
// point sets must come back bit-identical, lane-divergent conditionals
// must replay without changing a bit, intermodel plans must fall back
// to the per-point scalar fixed point, degenerate batches must skip the
// lane machinery, and the driver must stay byte-deterministic across
// thread counts (the web_tsan and sanitize_asan targets run this file
// under the sanitizers).
#include "sheet/batch.hpp"

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "explore/dist.hpp"
#include "models/berkeley_library.hpp"
#include "sheet/sweep.hpp"
#include "studies/vq.hpp"

namespace powerplay::engine {
namespace {

const model::ModelRegistry& lib() {
  static const model::ModelRegistry registry = models::berkeley_library();
  return registry;
}

// Conditional + custom-function formulas over two swept globals: the
// ternaries lower to kJumpIfZero, so blocks whose lanes straddle the
// thresholds exercise the lane-replay path.
sheet::Design branchy_design() {
  sheet::Design d("branchy");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  d.add_function("boost",
                 [](const std::vector<expr::Value>& args) {
                   return std::get<double>(args.at(0)) * 1.25;
                 });
  auto& reg = d.add_row("reg", lib().find_shared("register"));
  reg.params.set_formula("bits", "vdd < 1.5 ? 8 : 16");
  auto& add = d.add_row("add", lib().find_shared("ripple_adder"));
  add.params.set_formula("bitwidth", "f > 2e6 ? boost(16) : 16");
  return d;
}

// Intermodel fixed point (converter fed by rowpower) with the load
// riding on a swept global, so every columnar point must take the
// scalar fallback.
sheet::Design converter_design() {
  sheet::Design d("conv");
  d.globals().set("vdd", 6.0);
  d.globals().set("p_base", 1.0);
  auto& load = d.add_row("Load", lib().find_shared("datasheet_component"));
  load.params.set_formula("p_typical", "p_base");
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.8);
  conv.params.set_formula("p_load", "rowpower(\"Load\")");
  return d;
}

/// Serial reference for a point set: clone, set the globals, Play
/// through the interpreter — what sheet::sweep_global does per point.
sheet::PointColumns serial_points(
    const sheet::Design& design, const std::vector<std::string>& params,
    const std::vector<std::vector<double>>& points) {
  sheet::PointColumns cols;
  cols.resize(points.size());
  sheet::Design work = design;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < params.size(); ++j) {
      work.globals().set(params[j], points[i][j]);
    }
    cols.set(i, work.play());
  }
  return cols;
}

void expect_same_columns(const sheet::PointColumns& want,
                         const sheet::PointColumns& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want.power_w[i], got.power_w[i]) << i;
    EXPECT_EQ(want.energy_j[i], got.energy_j[i]) << i;
    EXPECT_EQ(want.area_m2[i], got.area_m2[i]) << i;
    EXPECT_EQ(want.delay_s[i], got.delay_s[i]) << i;
  }
}

/// The error message `fn` throws as an ExprError ("" when it does not).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const expr::ExprError& e) {
    return e.what();
  }
  return {};
}

/// Counter-RNG values of one parameter, `n` of them in [lo, hi).
std::vector<double> sampled(double lo, double hi, std::size_t n,
                            std::uint64_t seed) {
  const auto dists = explore::parse_dist_params(
      "x=uniform(" + std::to_string(lo) + "," + std::to_string(hi) + ")");
  std::vector<double> out;
  for (const auto& p : explore::sample_points(dists, n, seed)) {
    out.push_back(p[0]);
  }
  return out;
}

/// The same, floored: widths are whole bits.
std::vector<double> sampled_widths(double lo, double hi, std::size_t n,
                                   std::uint64_t seed) {
  std::vector<double> out = sampled(lo, hi, n, seed);
  for (double& v : out) v = std::floor(v);
  return out;
}

// --- grids -------------------------------------------------------------------

TEST(BatchGrid, ColumnarGridBitIdenticalToSerialSweep) {
  EvalEngine engine;
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const auto vdds = sheet::linspace(1.0, 3.0, 16);
  const auto rates = sheet::linspace(1e6, 4e6, 16);

  const sheet::GridSweep scalar =
      sheet::sweep_grid(d, "vdd", vdds, "pixel_rate", rates);
  const sheet::ColumnarGrid batched =
      engine.sweep_grid_columnar(d, "vdd", vdds, "pixel_rate", rates);
  expect_same_columns(sheet::to_columnar(scalar).cols, batched.cols);

  // Given bit-identical values the columnar renderers emit the same
  // bytes as the PlayResult-based ones.
  EXPECT_EQ(sheet::grid_table(batched), sheet::grid_table(scalar));
  EXPECT_EQ(sheet::grid_csv(batched), sheet::grid_csv(scalar));
  EXPECT_FALSE(sheet::grid_json(batched).empty());

  const BatchCounters c = engine.batch_counters();
  EXPECT_EQ(c.points, vdds.size() * rates.size());
  EXPECT_GT(c.blocks, 0u);
  EXPECT_EQ(c.scalar_fallback_points, 0u);
  // The luminance rows are all operating-point-only models with
  // lane-invariant structural parameters, so the dense sweep must run
  // on the captured-terms fast path (the bench's >= 5x depends on it).
  EXPECT_GT(c.term_capture_rows, 0u);
}

TEST(BatchGrid, ValidationMatchesSerialSweep) {
  EvalEngine engine;
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const auto values = sheet::linspace(1.0, 2.0, 4);
  EXPECT_THROW(
      (void)engine.sweep_grid_columnar(d, "vdd", values, "vdd", values),
      expr::ExprError);
  EXPECT_THROW(
      (void)engine.sweep_grid_columnar(d, "vdd", values, "nope", values),
      expr::ExprError);
}

// --- point batches and 1-D sweeps ------------------------------------------

TEST(BatchPoints, ColumnarMatchesSerialOnBranchyFormulas) {
  EvalEngine engine;
  const sheet::Design d = branchy_design();
  std::vector<std::vector<double>> points;
  for (double vdd = 1.0; vdd <= 2.0; vdd += 0.04) {
    for (double f = 5e5; f <= 4e6; f += 2.5e5) {
      points.push_back({vdd, f});
    }
  }
  expect_same_columns(serial_points(d, {"vdd", "f"}, points),
                      engine.play_points_columnar(d, {"vdd", "f"}, points));
}

TEST(BatchPoints, DifferentialFuzzTenThousandRandomPoints) {
  // >= 10k counter-RNG points across both branch thresholds; every
  // point must come back bit-equal to the serial reference.  The same
  // values drive 1-D global sweeps over each threshold and a row sweep
  // whose formula-bound parameter is overridden per point.
  EvalEngine engine;
  const sheet::Design d = branchy_design();
  const auto dists =
      explore::parse_dist_params("vdd=uniform(1.0,2.0);f=uniform(5e5,4e6)");
  const auto points = explore::sample_points(dists, 10240, 99);
  expect_same_columns(serial_points(d, {"vdd", "f"}, points),
                      engine.play_points_columnar(d, {"vdd", "f"}, points));

  const std::vector<double> vdds = sampled(1.0, 2.0, 10240, 7);
  const std::vector<double> fs = sampled(5e5, 4e6, 10240, 8);
  expect_same_columns(sheet::to_columns(sheet::sweep_global(d, "vdd", vdds)),
                      engine.sweep_global(d, "vdd", vdds));
  expect_same_columns(sheet::to_columns(sheet::sweep_global(d, "f", fs)),
                      engine.sweep_global(d, "f", fs));
  const std::vector<double> bits = sampled_widths(4, 64, 10240, 9);
  expect_same_columns(
      sheet::to_columns(sheet::sweep_row_param(d, "reg", "bits", bits)),
      engine.sweep_row_param(d, "reg", "bits", bits));
}

TEST(BatchPoints, LaneDivergentConditionalReplaysWithoutDrift) {
  // One 64-lane block whose lanes straddle the `vdd < 1.5` threshold:
  // the batch interpreter must detect the divergent branch, replay
  // lane-by-lane, and still reproduce the serial doubles.
  EvalEngine engine;
  const sheet::Design d = branchy_design();
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < 64; ++i) {
    points.push_back({i % 2 == 0 ? 1.2 : 1.8, 1e6});
  }
  expect_same_columns(serial_points(d, {"vdd", "f"}, points),
                      engine.play_points_columnar(d, {"vdd", "f"}, points));
  const BatchCounters c = engine.batch_counters();
  EXPECT_GT(c.lane_replays, 0u);
  EXPECT_EQ(c.scalar_fallback_points, 0u);
}

TEST(BatchPoints, IntermodelPlansFallBackToScalarFixedPoint) {
  // The converter design needs the per-point fixed point (rowpower):
  // every columnar call — point sets, 1-D global and row sweeps — must
  // answer bit-identically via the scalar fallback and count every
  // point as a fallback.
  EvalEngine engine;
  const sheet::Design d = converter_design();
  std::vector<std::vector<double>> points;
  std::vector<double> bases;
  std::vector<double> efficiencies;
  for (std::size_t i = 0; i < 100; ++i) {
    points.push_back({5.0 + 0.02 * static_cast<double>(i),
                      0.5 + 0.01 * static_cast<double>(i)});
    bases.push_back(points.back()[1]);
    efficiencies.push_back(0.5 + 0.004 * static_cast<double>(i));
  }
  expect_same_columns(
      serial_points(d, {"vdd", "p_base"}, points),
      engine.play_points_columnar(d, {"vdd", "p_base"}, points));
  expect_same_columns(
      sheet::to_columns(sheet::sweep_global(d, "p_base", bases)),
      engine.sweep_global(d, "p_base", bases));
  expect_same_columns(
      sheet::to_columns(
          sheet::sweep_row_param(d, "Conv", "efficiency", efficiencies)),
      engine.sweep_row_param(d, "Conv", "efficiency", efficiencies));
  const BatchCounters c = engine.batch_counters();
  EXPECT_EQ(c.scalar_fallback_points, 300u);
  EXPECT_EQ(c.blocks, 0u);
}

TEST(BatchPoints, ErrorsMatchTheSerialPath) {
  // A block where some lanes divide by zero: the batch path degrades
  // the block to the scalar loop, so the error that escapes is exactly
  // the serial sweep's (message included) — for point sets, 1-D global
  // sweeps and row sweeps alike.
  EvalEngine engine;
  sheet::Design d("divzero");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  d.globals().set("denom", 1.0);
  d.add_row("reg", lib().find_shared("register"))
      .params.set_formula("bits", "16 / denom");
  std::vector<std::vector<double>> points;
  std::vector<double> denoms;
  for (std::size_t i = 0; i < 64; ++i) {
    points.push_back({static_cast<double>(i % 4)});
    denoms.push_back(points.back()[0]);
  }
  const std::string serial_error =
      error_of([&] { (void)sheet::sweep_global(d, "denom", denoms); });
  ASSERT_FALSE(serial_error.empty());
  EXPECT_EQ(error_of([&] {
              (void)engine.play_points_columnar(d, {"denom"}, points);
            }),
            serial_error);
  EXPECT_EQ(error_of([&] { (void)engine.sweep_global(d, "denom", denoms); }),
            serial_error);

  // Row sweep: a row parameter the divisor reads, swept through zero.
  sheet::Design row_design = d;
  row_design.find_row("reg")->params.set_formula("bits", "16 / alpha");
  const std::string serial_row_error = error_of([&] {
    (void)sheet::sweep_row_param(row_design, "reg", "alpha", denoms);
  });
  ASSERT_FALSE(serial_row_error.empty());
  EXPECT_EQ(error_of([&] {
              (void)engine.sweep_row_param(row_design, "reg", "alpha", denoms);
            }),
            serial_row_error);
}

// --- degenerate batches ------------------------------------------------------

TEST(BatchPoints, EmptyAndSinglePointBatchesTakeTheScalarPath) {
  EvalEngine engine;
  const sheet::Design d = branchy_design();

  EXPECT_EQ(engine.play_points_columnar(d, {"vdd", "f"}, {}).size(), 0u);
  EXPECT_EQ(engine.sweep_global(d, "vdd", {}).size(), 0u);
  EXPECT_EQ(engine.sweep_row_param(d, "reg", "bits", {}).size(), 0u);

  const std::vector<std::vector<double>> one{{1.4, 2e6}};
  expect_same_columns(serial_points(d, {"vdd", "f"}, one),
                      engine.play_points_columnar(d, {"vdd", "f"}, one));

  // A 1x1 grid is a single point too.
  const sheet::ColumnarGrid grid =
      engine.sweep_grid_columnar(d, "vdd", {1.5}, "f", {1e6});
  expect_same_columns(
      sheet::to_columnar(sheet::sweep_grid(d, "vdd", {1.5}, "f", {1e6})).cols,
      grid.cols);

  // Degenerate batches never ran a lane block; they are all fallbacks.
  const BatchCounters c = engine.batch_counters();
  EXPECT_EQ(c.blocks, 0u);
  EXPECT_EQ(c.points, 2u);
  EXPECT_EQ(c.scalar_fallback_points, 2u);
}

TEST(BatchGrid, EmptyAxesProduceEmptyColumns) {
  EvalEngine engine;
  const sheet::Design d = branchy_design();
  const sheet::ColumnarGrid grid =
      engine.sweep_grid_columnar(d, "vdd", {}, "f", {1e6, 2e6});
  EXPECT_EQ(grid.cols.size(), 0u);
  EXPECT_EQ(sheet::grid_csv(grid), "vdd,f,total_power_w,energy_per_op_j\n");
}

// --- progress at batch granularity ------------------------------------------

TEST(BatchGrid, ProgressReportsOncePerLaneBlock) {
  // Every sweep kind reports (and so checks job cancellation and
  // deadlines) once per 64-lane block, never per point.
  constexpr std::size_t kW = sheet::BatchPlanInstance::kLaneWidth;
  EvalEngine engine;
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const auto vdds = sheet::linspace(1.0, 3.0, 16);
  const auto rates = sheet::linspace(1e6, 4e6, 16);
  const auto words = sheet::linspace(256, 456, 201);
  const auto counted = [](std::size_t want_total, auto&& sweep) {
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> reported{0};
    sweep([&](std::size_t done, std::size_t total) {
      calls.fetch_add(1);
      EXPECT_EQ(total, want_total);
      if (done == total) reported.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), (want_total + kW - 1) / kW);
    EXPECT_EQ(reported.load(), 1u);
  };
  counted(vdds.size() * rates.size(), [&](const sheet::SweepProgress& p) {
    (void)engine.sweep_grid_columnar(d, "vdd", vdds, "pixel_rate", rates, p);
  });
  const auto line = sheet::linspace(1e6, 4e6, 160);
  counted(line.size(), [&](const sheet::SweepProgress& p) {
    (void)engine.sweep_global(d, "pixel_rate", line, p);
  });
  counted(words.size(), [&](const sheet::SweepProgress& p) {
    (void)engine.sweep_row_param(d, "Read Bank", "words", words, p);
  });
  counted(words.size(), [&](const sheet::SweepProgress& p) {
    std::vector<std::vector<double>> points;
    for (double w : words) points.push_back({w / 256.0 + 0.5});
    (void)engine.play_points_columnar(d, {"vdd"}, points, p);
  });
}

// --- thread-count determinism ------------------------------------------------

TEST(BatchPoints, BatchedPointsBitIdenticalAcrossThreadCounts) {
  // Lane blocks partition by point index, never by worker, so every
  // sweep kind returns the same bytes at 1 and 8 threads — and the
  // serial reference's bytes.
  EngineOptions one;
  one.executor.thread_count = 1;
  EngineOptions eight;
  eight.executor.thread_count = 8;
  EvalEngine e1(one);
  EvalEngine e8(eight);
  const sheet::Design d = branchy_design();
  const auto dists =
      explore::parse_dist_params("vdd=uniform(1.0,2.0);f=choice(1e6,2e6,4e6)");
  const auto points = explore::sample_points(dists, 1000, 11);
  const auto a = e1.play_points_columnar(d, {"vdd", "f"}, points);
  expect_same_columns(a, e8.play_points_columnar(d, {"vdd", "f"}, points));
  expect_same_columns(serial_points(d, {"vdd", "f"}, points), a);

  const std::vector<double> vdds = sampled(1.0, 2.0, 1000, 12);
  const auto g = e1.sweep_global(d, "vdd", vdds);
  expect_same_columns(g, e8.sweep_global(d, "vdd", vdds));
  expect_same_columns(sheet::to_columns(sheet::sweep_global(d, "vdd", vdds)),
                      g);

  const std::vector<double> bits = sampled_widths(4, 64, 1000, 13);
  const auto r = e1.sweep_row_param(d, "add", "bitwidth", bits);
  expect_same_columns(r, e8.sweep_row_param(d, "add", "bitwidth", bits));
  expect_same_columns(
      sheet::to_columns(sheet::sweep_row_param(d, "add", "bitwidth", bits)),
      r);

  const sheet::Design conv = converter_design();
  const std::vector<double> bases = sampled(0.5, 1.5, 300, 14);
  const auto c = e1.sweep_global(conv, "p_base", bases);
  expect_same_columns(c, e8.sweep_global(conv, "p_base", bases));
  expect_same_columns(
      sheet::to_columns(sheet::sweep_global(conv, "p_base", bases)), c);
}

}  // namespace
}  // namespace powerplay::engine
