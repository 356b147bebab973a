// bench_parallel_sweep — the serial interpreter loop and a compiled
// one-PlanInstance loop against the engine's lane-batched sweep driver
// on the VQ luminance chip (impl 2): an 8x8 vdd x pixel_rate grid, a
// 256-point 1-D vdd sweep, an inverse query (largest vdd under a power
// budget), and a dense 64x64 grid.  Emits BENCH_engine.json (argv[1]
// overrides the output path) with the timings and speedups, and
// asserts every engine answer is bit-identical to the serial reference
// (the dense grid: to the compiled loop, itself bit-identical to the
// interpreter).
//
// `--smoke [path]` runs only the dense section with small rep counts
// for ctest: gated on batch-vs-compiled bit-identity and a >= 3x
// batch-vs-compiled-loop speedup, not wall clock.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "engine/engine.hpp"
#include "explore/inverse.hpp"
#include "models/berkeley_library.hpp"
#include "sheet/batch.hpp"
#include "sheet/plan.hpp"
#include "sheet/sweep.hpp"
#include "studies/vq.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace sheet = powerplay::sheet;

/// Time one invocation of `fn`, folding it into the best-of accumulator.
template <typename Fn>
void timed_min(double& best, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const std::chrono::duration<double> dt = Clock::now() - t0;
  if (dt.count() < best) best = dt.count();
}

/// Every power/energy double of `got` must equal `want` bit for bit.
bool columns_identical(const sheet::PointColumns& want,
                       const sheet::PointColumns& got) {
  return want.power_w == got.power_w && want.energy_j == got.energy_j;
}

/// The bench's own compiled baseline: one PlanInstance over the plan,
/// the two swept slots re-bound per point, one full Play per point — no
/// threads, no lanes, no cache.
sheet::PointColumns compiled_grid(const sheet::Design& design,
                                  const std::vector<double>& vdds,
                                  const std::vector<double>& rates) {
  const auto plan = sheet::EvalPlan::compile(design);
  const auto vdd_slot = *plan->global_slot("vdd");
  const auto rate_slot = *plan->global_slot("pixel_rate");
  sheet::PlanInstance inst(plan);
  inst.bind_from(design);
  sheet::PointColumns out;
  out.resize(vdds.size() * rates.size());
  for (std::size_t i = 0; i < vdds.size(); ++i) {
    inst.bind(vdd_slot, vdds[i]);
    for (std::size_t j = 0; j < rates.size(); ++j) {
      inst.bind(rate_slot, rates[j]);
      out.set(i * rates.size() + j, inst.play());
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace powerplay;
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::string out_path =
      smoke ? (argc > 2 ? argv[2] : std::string("BENCH_engine_smoke.json"))
            : (argc > 1 ? argv[1] : std::string("BENCH_engine.json"));

  constexpr int kGrid = 8;
  constexpr int kLine = 256;
  constexpr int kDense = 64;
  const int kReps = smoke ? 2 : 5;
  // Size the pool to the machine: oversubscribing a small host charges
  // context switches to the engine rows that no deployment would pay.
  const std::size_t kThreads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  const auto lib = models::berkeley_library();
  const sheet::Design design = studies::make_luminance_impl2(lib);
  const std::vector<double> vdds = sheet::linspace(1.0, 3.0, kGrid);
  const std::vector<double> rates = sheet::linspace(1e6, 4e6, kGrid);
  const std::vector<double> line = sheet::linspace(0.9, 3.3, kLine);

  std::printf("bench_parallel_sweep: %dx%d grid (vdd x pixel_rate), "
              "%d-point vdd line, %zu engine threads, best of %d%s\n\n",
              kGrid, kGrid, kLine, kThreads, kReps, smoke ? " [smoke]" : "");

  // The paths are measured round-robin inside each repetition, not as
  // back-to-back phases: on a shared host the clock drifts over the run,
  // and a phase measured a second later than the baseline would absorb
  // (or dodge) that drift.  Interleaving lands any slow spell on every
  // row equally, and best-of-reps then discards it.  The engine is a
  // standing one (the web app keeps one for the process lifetime), so
  // its plan cache is warm after the first rep.
  engine::EvalEngine engine({{kThreads, 256}, 4096});
  explore::InverseSpec inverse;
  inverse.param = "vdd";
  inverse.lo = 0.9;
  inverse.hi = 3.3;
  inverse.limit =
      sheet::sweep_global(design, "vdd", {2.0}).front().result.total
          .total_power().si();
  sheet::PointColumns serial_grid, compiled, batch_grid;
  sheet::PointColumns serial_line, batch_line;
  explore::InverseResult answer;
  double t_serial = 1e300, t_compiled = 1e300, t_batch = 1e300;
  double t_line_serial = 1e300, t_line_batch = 1e300, t_inverse = 1e300;
  bool identical = true;
  if (!smoke) {
    for (int rep = 0; rep < kReps; ++rep) {
      // Serial baseline: the reference interpreter, clone per point.
      timed_min(t_serial, [&] {
        serial_grid = sheet::to_columnar(
                          sheet::sweep_grid(design, "vdd", vdds,
                                            "pixel_rate", rates))
                          .cols;
      });
      // Compiled plan, serial: the interpreter-vs-bytecode comparison
      // with no threading or lanes in the way.
      timed_min(t_compiled, [&] { compiled = compiled_grid(design, vdds, rates); });
      // The engine's sweep driver: lane blocks over the executor.
      timed_min(t_batch, [&] {
        batch_grid =
            engine.sweep_grid_columnar(design, "vdd", vdds, "pixel_rate",
                                       rates)
                .cols;
      });
      timed_min(t_line_serial, [&] {
        serial_line =
            sheet::to_columns(sheet::sweep_global(design, "vdd", line));
      });
      timed_min(t_line_batch, [&] {
        batch_line = engine.sweep_global(design, "vdd", line);
      });
      // Inverse query: one lane batch of probes, then a bisection on one
      // PlanInstance.
      timed_min(t_inverse, [&] {
        answer = explore::solve_inverse(engine, design, inverse);
      });
    }
    const double answer_serial =
        sheet::sweep_global(design, "vdd", {answer.param_value})
            .front()
            .result.total.total_power()
            .si();
    identical = columns_identical(serial_grid, compiled) &&
                columns_identical(serial_grid, batch_grid) &&
                columns_identical(serial_line, batch_line) &&
                answer.feasible && answer.metric_value == answer_serial;
  }

  // Dense 64x64 section: the lane-batched driver against the compiled
  // one-PlanInstance loop, which is what every point would cost without
  // lanes (full PlayResult per point).  Interleaved per rep like above.
  const std::vector<double> dvdds = sheet::linspace(1.0, 3.0, kDense);
  const std::vector<double> drates = sheet::linspace(1e6, 4e6, kDense);
  engine::EvalEngine dense_engine({{kThreads, 256}, 4096});
  sheet::PointColumns dense_compiled, batch_cold, batch_warm;
  double t_dense_compiled = 1e300;
  double t_batch_cold = 1e300;
  double t_batch_warm = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    timed_min(t_dense_compiled,
              [&] { dense_compiled = compiled_grid(design, dvdds, drates); });

    // Batch, cold plan: the plan cache is cleared so the rep pays one
    // plan compile before its lane blocks — the first-request cost.
    dense_engine.plans().clear();
    timed_min(t_batch_cold, [&] {
      batch_cold = dense_engine
                       .sweep_grid_columnar(design, "vdd", dvdds,
                                            "pixel_rate", drates)
                       .cols;
    });

    // Batch, warm plan: the steady-state sweep.
    timed_min(t_batch_warm, [&] {
      batch_warm = dense_engine
                       .sweep_grid_columnar(design, "vdd", dvdds,
                                            "pixel_rate", drates)
                       .cols;
    });
  }
  const bool batch_identical = columns_identical(dense_compiled, batch_cold) &&
                               columns_identical(dense_compiled, batch_warm);
  const double speedup_batch = t_dense_compiled / t_batch_warm;

  if (!smoke) {
    std::printf("%dx%d grid:\n", kGrid, kGrid);
    std::printf("serial interpreter: %9.3f ms\n", t_serial * 1e3);
    std::printf("compiled (serial) : %9.3f ms   speedup %.2fx\n",
                t_compiled * 1e3, t_serial / t_compiled);
    std::printf("engine (batch)    : %9.3f ms   speedup %.2fx\n",
                t_batch * 1e3, t_serial / t_batch);
    std::printf("%d-point line:\n", kLine);
    std::printf("serial interpreter: %9.3f ms\n", t_line_serial * 1e3);
    std::printf("engine (batch)    : %9.3f ms   speedup %.2fx\n",
                t_line_batch * 1e3, t_line_serial / t_line_batch);
    std::printf("inverse query     : %9.3f ms   (%zu evaluations, "
                "vdd %.9g)\n",
                t_inverse * 1e3, answer.evaluations, answer.param_value);
    std::printf("bit-identical     : %s\n\n", identical ? "yes" : "NO");
  }
  std::printf("dense %dx%d grid:\n", kDense, kDense);
  std::printf("compiled (serial) : %9.3f ms\n", t_dense_compiled * 1e3);
  std::printf("batch (cold plan) : %9.3f ms   vs compiled %.2fx\n",
              t_batch_cold * 1e3, t_dense_compiled / t_batch_cold);
  std::printf("batch (warm plan) : %9.3f ms   vs compiled %.2fx\n",
              t_batch_warm * 1e3, speedup_batch);
  std::printf("batch identical   : %s\n", batch_identical ? "yes" : "NO");

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"parallel_sweep\",\n"
       << "  \"design\": \"" << design.name() << "\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"engine_threads\": " << kThreads << ",\n"
       << "  \"repetitions\": " << kReps << ",\n";
  if (!smoke) {
    json << "  \"grid\": [" << kGrid << ", " << kGrid << "],\n"
         << "  \"axes\": [\"vdd\", \"pixel_rate\"],\n"
         << "  \"serial_ms\": " << t_serial * 1e3 << ",\n"
         << "  \"compiled_serial_ms\": " << t_compiled * 1e3 << ",\n"
         << "  \"engine_batch_ms\": " << t_batch * 1e3 << ",\n"
         << "  \"speedup_compiled\": " << t_serial / t_compiled << ",\n"
         << "  \"speedup_batch\": " << t_serial / t_batch << ",\n"
         << "  \"line_points\": " << kLine << ",\n"
         << "  \"line_serial_ms\": " << t_line_serial * 1e3 << ",\n"
         << "  \"line_batch_ms\": " << t_line_batch * 1e3 << ",\n"
         << "  \"speedup_line\": " << t_line_serial / t_line_batch << ",\n"
         << "  \"inverse_ms\": " << t_inverse * 1e3 << ",\n"
         << "  \"inverse_evaluations\": " << answer.evaluations << ",\n"
         << "  \"bit_identical\": " << (identical ? "true" : "false")
         << ",\n";
  }
  json << "  \"dense_grid\": [" << kDense << ", " << kDense << "],\n"
       << "  \"dense_compiled_ms\": " << t_dense_compiled * 1e3 << ",\n"
       << "  \"batch_cold_ms\": " << t_batch_cold * 1e3 << ",\n"
       << "  \"batch_warm_ms\": " << t_batch_warm * 1e3 << ",\n"
       << "  \"batch_lane_width\": "
       << sheet::BatchPlanInstance::kLaneWidth << ",\n"
       << "  \"speedup_batch_vs_compiled\": " << speedup_batch << ",\n"
       << "  \"batch_bit_identical\": "
       << (batch_identical ? "true" : "false") << "\n"
       << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  std::printf("\nwrote %s\n", out_path.c_str());

  bool ok = identical && batch_identical;
  if (smoke && speedup_batch < 3.0) {
    std::printf("SMOKE FAIL: batch %.2fx vs compiled loop (< 3x)\n",
                speedup_batch);
    ok = false;
  }
  return ok ? 0 : 1;
}
