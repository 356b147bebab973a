// Differential tests of compiled evaluation plans against the
// interpreter, the engine's plan-backed Play and columnar sweeps
// against the serial clone-per-point loops, plan-cache keying, and
// concurrent PlanInstances sharing one plan (the web_tsan target runs
// this file under ThreadSanitizer).
#include "sheet/plan.hpp"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "models/berkeley_library.hpp"
#include "sheet/sweep.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"

namespace powerplay::sheet {
namespace {

const model::ModelRegistry& lib() {
  static const model::ModelRegistry registry = models::berkeley_library();
  return registry;
}

void expect_same_estimate(const model::Estimate& a, const model::Estimate& b) {
  EXPECT_EQ(a.switched_capacitance.si(), b.switched_capacitance.si());
  EXPECT_EQ(a.energy_per_op.si(), b.energy_per_op.si());
  EXPECT_EQ(a.dynamic_power.si(), b.dynamic_power.si());
  EXPECT_EQ(a.static_power.si(), b.static_power.si());
  EXPECT_EQ(a.area.si(), b.area.si());
  EXPECT_EQ(a.delay.si(), b.delay.si());
}

void expect_same_result(const PlayResult& a, const PlayResult& b) {
  EXPECT_EQ(a.design_name, b.design_name);
  EXPECT_EQ(a.iterations, b.iterations);
  expect_same_estimate(a.total, b.total);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].name, b.rows[i].name);
    EXPECT_EQ(a.rows[i].model_name, b.rows[i].model_name);
    expect_same_estimate(a.rows[i].estimate, b.rows[i].estimate);
    ASSERT_EQ(a.rows[i].shown_params, b.rows[i].shown_params);
    ASSERT_EQ(a.rows[i].sub_result != nullptr,
              b.rows[i].sub_result != nullptr);
    if (a.rows[i].sub_result != nullptr) {
      expect_same_result(*a.rows[i].sub_result, *b.rows[i].sub_result);
    }
  }
}

void expect_plan_matches_interpreter(const Design& d) {
  PlanInstance inst(EvalPlan::compile(d));
  inst.bind_from(d);
  expect_same_result(d.play(), inst.play());
}

std::string play_error(const Design& d) {
  try {
    (void)d.play();
  } catch (const expr::ExprError& e) {
    return e.what();
  }
  return {};
}

std::string plan_error(const Design& d) {
  try {
    PlanInstance inst(EvalPlan::compile(d));
    inst.bind_from(d);
    (void)inst.play();
  } catch (const expr::ExprError& e) {
    return e.what();
  }
  return {};
}

// --- differential over the paper's study designs ----------------------------

TEST(PlanDifferential, VqLuminanceImplementations) {
  expect_plan_matches_interpreter(studies::make_luminance_impl1(lib()));
  expect_plan_matches_interpreter(studies::make_luminance_impl2(lib()));
}

TEST(PlanDifferential, InfopadSystemWithNestedMacros) {
  // Three levels of macro nesting, shared sub-designs, intermodel rows.
  expect_plan_matches_interpreter(studies::make_custom_chipset(lib()));
  expect_plan_matches_interpreter(studies::make_processor_subsystem(lib()));
  expect_plan_matches_interpreter(studies::make_infopad(lib()));
}

TEST(PlanDifferential, CustomFunctionsAndGlobalFormulas) {
  Design d("custom");
  d.globals().set("vdd", 1.5);
  d.globals().set_formula("f", "base_rate() * 2");
  d.add_function("base_rate", [](const std::vector<expr::Value>&) {
    return 5e5;
  });
  auto& row = d.add_row("r", lib().find_shared("register"));
  row.params.set_formula("bits", "max(4, min(16, vdd * 8))");
  expect_plan_matches_interpreter(d);
}

// --- error-message equality -------------------------------------------------

TEST(PlanDifferential, ErrorMessagesMatchTheInterpreter) {
  // Global formula calling an intermodel function (poisoned design).
  Design poisoned("p");
  poisoned.globals().set("vdd", 1.5);
  poisoned.globals().set("f", 1e6);
  poisoned.globals().set_formula("x", "totalpower()");
  poisoned.add_row("r", lib().find_shared("register"));

  // Circular parameter definitions.
  Design circular("c");
  circular.globals().set("vdd", 1.5);
  circular.globals().set_formula("a", "b * 2");
  circular.globals().set_formula("b", "a + 1");
  auto& crow = circular.add_row("r", lib().find_shared("register"));
  crow.params.set_formula("bits", "a");

  // Unbound parameter.
  Design unbound("u");
  unbound.globals().set("vdd", 1.5);
  unbound.globals().set("f", 1e6);
  unbound.add_row("r", lib().find_shared("register"))
      .params.set_formula("bits", "no_such_param");

  // rowpower with a numeric argument (arity/shape error).
  Design badcall("b");
  badcall.globals().set("vdd", 6.0);
  badcall.add_row("Conv", lib().find_shared("dcdc_converter"))
      .params.set_formula("p_load", "rowpower(3)");

  // rowpower of a missing row.
  Design missing("m");
  missing.globals().set("vdd", 6.0);
  missing.add_row("Conv", lib().find_shared("dcdc_converter"))
      .params.set_formula("p_load", "rowpower(\"Nope\")");

  // totalpower with arguments.
  Design args("a");
  args.globals().set("vdd", 6.0);
  args.add_row("Conv", lib().find_shared("dcdc_converter"))
      .params.set_formula("p_load", "totalpower(1)");

  for (const Design* d :
       {&poisoned, &circular, &unbound, &badcall, &missing, &args}) {
    const std::string expect = play_error(*d);
    ASSERT_FALSE(expect.empty()) << d->name();
    EXPECT_EQ(expect, plan_error(*d)) << d->name();
  }
}

// --- engine: plan-backed play and clone-free sweeps -------------------------

TEST(PlanEngine, PlayMatchesInterpreter) {
  engine::EvalEngine engine;
  const Design d = studies::make_luminance_impl2(lib());
  expect_same_result(d.play(), *engine.play(d));
}

TEST(PlanEngine, PlanCacheHitsOnStructurallyIdenticalDesigns) {
  engine::EvalEngine engine;
  Design d = studies::make_luminance_impl2(lib());
  (void)engine.play(d);
  EXPECT_EQ(engine.plans().stats().misses, 1u);

  // A literal edit keeps the structure: same plan, fresh Play.
  d.globals().set("vdd", 2.2);
  expect_same_result(d.play(), *engine.play(d));
  EXPECT_EQ(engine.plans().stats().misses, 1u);
  EXPECT_EQ(engine.plans().stats().hits, 1u);

  // A structural edit (new binding) compiles a new plan.
  d.globals().set("extra", 1.0);
  (void)engine.play(d);
  EXPECT_EQ(engine.plans().stats().misses, 2u);
}

/// Engine sweeps return columns; the serial reference returns
/// PlayResults.  Every metric must agree bit for bit.
void expect_same_columns(const PointColumns& want, const PointColumns& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want.power_w[i], got.power_w[i]) << i;
    EXPECT_EQ(want.energy_j[i], got.energy_j[i]) << i;
    EXPECT_EQ(want.area_m2[i], got.area_m2[i]) << i;
    EXPECT_EQ(want.delay_s[i], got.delay_s[i]) << i;
  }
}

TEST(PlanEngine, SweepGlobalMatchesSerial) {
  engine::EvalEngine engine;
  const Design d = studies::make_luminance_impl2(lib());
  const auto values = linspace(1.0, 3.0, 7);
  expect_same_columns(to_columns(sweep_global(d, "vdd", values)),
                      engine.sweep_global(d, "vdd", values));
  EXPECT_THROW((void)engine.sweep_global(d, "no_such", values),
               expr::ExprError);
}

TEST(PlanEngine, SweepRowParamMatchesSerial) {
  engine::EvalEngine engine;
  Design d("adders");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  d.add_row("A", lib().find_shared("ripple_adder"))
      .params.set("bitwidth", 16.0);
  d.add_row("B", lib().find_shared("ripple_adder"))
      .params.set("bitwidth", 32.0);
  const std::vector<double> widths = {8, 16, 24, 32};

  // Locally bound parameter: pure slot re-binding.
  expect_same_columns(to_columns(sweep_row_param(d, "A", "bitwidth", widths)),
                      engine.sweep_row_param(d, "A", "bitwidth", widths));

  // Model-declared parameter the row does not bind: the engine clones
  // once per sweep to materialize the binding, results still match.
  Design def("defaults");
  def.globals().set("vdd", 1.5);
  def.globals().set("f", 1e6);
  def.add_row("r", lib().find_shared("register"));
  expect_same_columns(to_columns(sweep_row_param(def, "r", "bits", {4, 8, 12})),
                      engine.sweep_row_param(def, "r", "bits", {4, 8, 12}));

  EXPECT_THROW((void)engine.sweep_row_param(d, "missing", "x", {1}),
               expr::ExprError);
  EXPECT_THROW((void)engine.sweep_row_param(d, "A", "no_such", {1}),
               expr::ExprError);
}

TEST(PlanEngine, SweepRowParamOfMacroRowMatchesSerial) {
  // A macro row's parameter rides on the sub-design's global until the
  // sweep binds it on the row (one materializing clone per sweep).
  engine::EvalEngine engine;
  auto sub = std::make_shared<Design>("regmacro");
  sub->globals().set("vdd", 1.5);
  sub->globals().set("f", 1e6);
  sub->add_row("reg", lib().find_shared("register")).params.set("bits", 8.0);
  Design top("top");
  top.globals().set("vdd", 1.5);
  top.add_macro("M", sub);
  const std::vector<double> rates = linspace(5e5, 4e6, 70);
  expect_same_columns(to_columns(sweep_row_param(top, "M", "f", rates)),
                      engine.sweep_row_param(top, "M", "f", rates));
}

TEST(PlanEngine, SweepGridMatchesSerial) {
  engine::EvalEngine engine;
  const Design d = studies::make_luminance_impl2(lib());
  const auto vdds = linspace(1.0, 3.0, 4);
  const auto rates = linspace(1e6, 4e6, 4);
  const ColumnarGrid serial =
      to_columnar(sweep_grid(d, "vdd", vdds, "pixel_rate", rates));
  const ColumnarGrid compiled =
      engine.sweep_grid_columnar(d, "vdd", vdds, "pixel_rate", rates);
  expect_same_columns(serial.cols, compiled.cols);
  // Repeating the sweep recomputes the same bits.
  expect_same_columns(
      compiled.cols,
      engine.sweep_grid_columnar(d, "vdd", vdds, "pixel_rate", rates).cols);
}

// --- concurrency: one plan, many instances ----------------------------------

TEST(PlanConcurrency, InstancesShareOnePlanAcrossThreads) {
  const Design d = studies::make_luminance_impl2(lib());
  const auto plan = EvalPlan::compile(d);
  const PlayResult reference = d.play();
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      PlanInstance inst(plan);
      inst.bind_from(d);
      for (int i = 0; i < 25; ++i) {
        const PlayResult r = inst.play();
        if (r.total.total_power().si() != reference.total.total_power().si() ||
            r.iterations != reference.iterations) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(PlanConcurrency, EngineSweepsRunConcurrentlyOverSharedPlan) {
  engine::EvalEngine engine;
  const Design d = studies::make_luminance_impl2(lib());
  const auto vdds = linspace(1.0, 3.0, 8);
  const auto rates = linspace(1e6, 4e6, 8);
  const auto grid =
      engine.sweep_grid_columnar(d, "vdd", vdds, "pixel_rate", rates);
  ASSERT_EQ(grid.cols.size(), 64u);
  // Spot-check separability of the CMOS power law on the compiled path.
  EXPECT_GT(grid.cols.power_w[0], 0.0);
}

}  // namespace
}  // namespace powerplay::sheet
