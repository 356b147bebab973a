// sweep — asynchronous sweep and exploration jobs.
//
// A closed loop of two connections.  Each submits a job drawn from a
// seeded pool of shapes — 1-D global sweeps of 256 points, row-parameter
// sweeps of 128 points, 32x32 grids, Monte Carlo explores of 1024
// samples and inverse explores — polls it until done, fetches its CSV,
// then fetches it again (the repeat view, which must be byte-identical).
// Global, row-parameter and inverse jobs take the engine's scalar
// per-point path; grids and Monte Carlo take the columnar lane path.
// The pools hold far more scalar points than the engine's Play cache,
// so resubmitted shapes mostly miss it.
//
// Every distinct shape's CSV is checked after the load against a serial
// reference: sheet::sweep_global / sweep_row_param / sweep_grid for the
// sweeps, and the explore functions on a one-thread engine for Monte
// Carlo and inverse jobs.
#include <cstdio>
#include <map>

#include "explore/dist.hpp"
#include "explore/inverse.hpp"
#include "explore/mc.hpp"
#include "sheet/batch.hpp"
#include "sheet/sweep.hpp"
#include "studies/vq.hpp"
#include "workload.hpp"

namespace powerbench {

namespace {

constexpr Pools kPools{4, 2, 2};
constexpr std::size_t kConnections = 2;
constexpr auto kPollInterval = std::chrono::microseconds(500);

namespace sheet = powerplay::sheet;
namespace explore = powerplay::explore;

const char* const kDesigns[] = {"Luminance_1", "Luminance_2"};
const char* const kRows[] = {"Read Bank", "Write Bank", "Look Up Table"};

enum class Kind { kGlobal, kRow, kGrid, kMc, kInverse };
constexpr std::size_t kKinds = 5;
/// Shapes per kind in the pool, and points per job.
constexpr std::size_t kPoolSize[kKinds] = {64, 64, 4, 8, 32};
constexpr int kGlobalPoints = 256;
constexpr int kRowPoints = 128;
/// 32x32 rather than 64x64: a 64x64 grid's 4096-row CSV made the mix's
/// p90 the time to render and fetch one large body, which swung 1.7x
/// with the shared host's state while the other kinds moved 1.3x.
/// 1024 points still run as sixteen lane blocks on the columnar path.
constexpr int kGridSide = 32;
constexpr std::size_t kMcSamples = 1024;

/// One job shape: the form the benchmark POSTs and what the reference
/// needs to recompute it.
struct Shape {
  Kind kind = Kind::kGlobal;
  std::size_t design = 0;
  std::string path;
  web::Params form;
  double points = 0;  ///< design points the job evaluates (inverse: 0)
  std::string row;
  std::vector<double> xs, ys;
  std::string dist;  ///< Monte Carlo parameter distributions
  std::uint64_t mc_seed = 0;
  double budget = 0;
  explore::InverseSpec inverse;
};

std::vector<Shape> make_pool(SplitMix64 rng, const std::vector<double>& power_lo,
                             const std::vector<double>& power_hi) {
  std::vector<Shape> pool;
  for (std::size_t k = 0; k < kKinds; ++k) {
    for (std::size_t i = 0; i < kPoolSize[k]; ++i) {
      Shape s;
      s.kind = static_cast<Kind>(k);
      s.design = rng.below(2);
      s.form = {{"user", "sweeper"}, {"name", kDesigns[s.design]}};
      const auto axis = [&s](const char* prefix, const std::string& param, double from,
                             double to, int n) {
        s.form[std::string(prefix) + "_param"] = param;
        s.form[std::string(prefix) + "_from"] = exact(from);
        s.form[std::string(prefix) + "_to"] = exact(to);
        s.form[std::string(prefix) + "_points"] = std::to_string(n);
        return sheet::linspace(from, to, n);
      };
      switch (s.kind) {
        case Kind::kGlobal: {
          s.path = "/design/sweep";
          const double from = rng.uniform(0.9, 1.5);
          s.xs = axis("x", "vdd", from, from + rng.uniform(0.5, 1.8), kGlobalPoints);
          s.points = kGlobalPoints;
          break;
        }
        case Kind::kRow: {
          s.path = "/design/sweep";
          s.row = kRows[rng.below(3)];
          s.form["row"] = s.row;
          // Memory sizes are whole words: an integer start and step.
          const double from = static_cast<double>(256 + rng.below(769));
          const double step = static_cast<double>(1 + rng.below(48));
          s.xs = axis("x", "words", from, from + step * (kRowPoints - 1), kRowPoints);
          s.points = kRowPoints;
          break;
        }
        case Kind::kGrid: {
          s.path = "/design/sweep";
          const double v0 = rng.uniform(0.9, 1.5);
          const double f0 = rng.uniform(0.5e6, 2e6);
          s.xs = axis("x", "vdd", v0, v0 + rng.uniform(0.5, 1.8), kGridSide);
          s.ys = axis("y", "pixel_rate", f0, f0 * rng.uniform(2, 8), kGridSide);
          s.points = kGridSide * kGridSide;
          break;
        }
        case Kind::kMc: {
          s.path = "/design/explore";
          const double v0 = rng.uniform(1.1, 1.6);
          s.dist = "vdd=uniform(" + exact(v0) + "," + exact(v0 * 1.1) +
                   ");pixel_rate=choice(1e6,2e6,4e6)";
          s.mc_seed = 1 + rng.below(1u << 30);
          s.budget = rng.uniform(power_lo[s.design], power_hi[s.design]);
          s.form["mode"] = "mc";
          s.form["params"] = s.dist;
          s.form["samples"] = std::to_string(kMcSamples);
          s.form["seed"] = std::to_string(s.mc_seed);
          s.form["budget"] = exact(s.budget);
          s.points = kMcSamples;
          break;
        }
        case Kind::kInverse: {
          s.path = "/design/explore";
          s.inverse.param = "vdd";
          s.inverse.lo = 0.9;
          s.inverse.hi = 3.3;
          s.inverse.limit = rng.uniform(power_lo[s.design], power_hi[s.design]);
          s.form["mode"] = "inverse";
          s.form["param"] = "vdd";
          s.form["lo"] = exact(s.inverse.lo);
          s.form["hi"] = exact(s.inverse.hi);
          s.form["metric"] = "power";
          s.form["limit"] = exact(s.inverse.limit);
          break;
        }
      }
      pool.push_back(std::move(s));
    }
  }
  return pool;
}

/// The serial reference CSV of one shape.
std::string reference_csv(const Shape& s, const sheet::Design& d, engine::EvalEngine& serial) {
  switch (s.kind) {
    case Kind::kGlobal:
      return sheet::sweep_csv("vdd", sheet::sweep_global(d, "vdd", s.xs));
    case Kind::kRow:
      return sheet::sweep_csv("words", sheet::sweep_row_param(d, s.row, "words", s.xs));
    case Kind::kGrid:
      return sheet::grid_csv(sheet::sweep_grid(d, "vdd", s.xs, "pixel_rate", s.ys));
    case Kind::kMc: {
      explore::McSpec spec;
      spec.params = explore::parse_dist_params(s.dist);
      spec.samples = kMcSamples;
      spec.seed = s.mc_seed;
      spec.budget_w = s.budget;
      return explore::mc_csv(explore::run_monte_carlo(serial, d, spec));
    }
    case Kind::kInverse:
      return explore::inverse_csv(s.inverse, explore::solve_inverse(serial, d, s.inverse));
  }
  return {};
}

/// Per-thread job bookkeeping beyond the Tally.
struct JobTally {
  std::vector<double> queue_wait_ms;
  std::vector<double> polls;
  double points = 0;
  double seconds = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> seen;  ///< (shape, csv hash)
  std::vector<double> by_kind[kKinds];  ///< job latency, ms

  void merge(const JobTally& o) {
    queue_wait_ms.insert(queue_wait_ms.end(), o.queue_wait_ms.begin(), o.queue_wait_ms.end());
    polls.insert(polls.end(), o.polls.begin(), o.polls.end());
    points += o.points;
    seconds += o.seconds;
    seen.insert(seen.end(), o.seen.begin(), o.seen.end());
    for (std::size_t k = 0; k < kKinds; ++k) {
      by_kind[k].insert(by_kind[k].end(), o.by_kind[k].begin(), o.by_kind[k].end());
    }
  }
};

std::string field(const std::string& body, const std::string& key) {
  const std::size_t at = body.find(key + ": ");
  if (at == std::string::npos) return {};
  const std::size_t from = at + key.size() + 2;
  return body.substr(from, body.find('\n', from) - from);
}

/// Submit, poll to done, fetch the CSV, fetch it again.
void job_op(Client& client, const std::vector<Shape>& pool, std::size_t shape_index, Tally& tally,
            JobTally& jobs) {
  const Shape& shape = pool[shape_index];
  const Reply submit = client.post(shape.path, shape.form);
  if (!tally.expect(submit)) return;
  const std::string id = field(submit.response.body, "id");
  bool started = false;
  int polls = 0;
  for (;;) {
    std::this_thread::sleep_for(kPollInterval);
    const Reply poll = client.get("/job?id=" + id);
    if (!tally.expect(poll)) return;
    ++polls;
    tally.read.add(poll.recv_ns, poll.ms());
    const std::string status = field(poll.response.body, "status");
    if (!started && status != "queued") {
      started = true;
      jobs.queue_wait_ms.push_back(ns_to_ms(poll.recv_ns - submit.send_ns));
    }
    if (status == "done") break;
    if (status != "queued" && status != "running") {
      report_mismatch("job " + id + " " + shape.path, poll.response.body);
      tally.check(false);
      return;
    }
  }
  const std::string target = "/job?id=" + id + "&format=csv";
  const Reply fetch = client.get(target);
  if (!tally.expect(fetch)) return;
  const double ms = ns_to_ms(fetch.recv_ns - submit.send_ns);
  const Reply again = client.get(target);
  if (!tally.expect(again)) return;
  const bool same = again.response.body == fetch.response.body;
  if (!same) report_mismatch("repeat fetch of job " + id, again.response.body);
  tally.check(same);
  if (!same) return;
  tally.primary.add(fetch.recv_ns, ms);
  tally.repeat.add(again.recv_ns, again.ms());
  ++tally.ops;
  jobs.polls.push_back(polls);
  jobs.points += shape.points;
  jobs.seconds += ms / 1e3;
  jobs.seen.emplace_back(shape_index, fnv1a(fetch.response.body));
  jobs.by_kind[static_cast<std::size_t>(shape.kind)].push_back(ms);
}

Phase run_phase(std::vector<std::unique_ptr<Client>>& clients, const std::vector<Shape>& pool,
                SplitMix64 rng, double seconds, JobTally& jobs_out) {
  std::vector<JobTally> jobs(clients.size());
  // Kinds in rotation, so every run holds the same mix of the kinds'
  // very different job times; the shape within a kind is seeded.
  std::vector<std::size_t> kind(clients.size());
  for (std::size_t t = 0; t < clients.size(); ++t) kind[t] = t % kKinds;
  Phase out = closed_loop(clients.size(), rng, seconds,
                          [&](std::size_t t, SplitMix64& r, Tally& tally) {
                            const std::size_t k = kind[t];
                            kind[t] = (k + 1) % kKinds;
                            std::size_t base = 0;
                            for (std::size_t i = 0; i < k; ++i) base += kPoolSize[i];
                            job_op(*clients[t], pool, base + r.below(kPoolSize[k]), tally, jobs[t]);
                          });
  for (const JobTally& j : jobs) jobs_out.merge(j);
  return out;
}

/// Replay a few shapes of each engine-driven kind on a private engine
/// sized like the app's, timing each EvalEngine call as a span.
void replay_engine_calls(const std::vector<Shape>& pool, const sheet::Design* designs,
                         Tracer& tracer) {
  engine::EngineOptions options;
  options.executor.thread_count = kPools.engine_threads;
  engine::EvalEngine probe(options);
  const auto span = [&tracer](const char* name, const Shape& s, std::int64_t t0) {
    tracer.add({name, kDesigns[s.design], tracer.next_id(), 0, 0, t0, now_ns(), s.points});
  };
  std::size_t replayed[kKinds] = {};
  for (const Shape& s : pool) {
    if (replayed[static_cast<std::size_t>(s.kind)]++ >= 4) continue;
    const sheet::Design& d = designs[s.design];
    const std::int64_t t0 = now_ns();
    switch (s.kind) {
      case Kind::kGlobal:
        (void)probe.sweep_global(d, "vdd", s.xs);
        span("engine.sweep_global", s, t0);
        break;
      case Kind::kRow:
        (void)probe.sweep_row_param(d, s.row, "words", s.xs);
        span("engine.sweep_row_param", s, t0);
        break;
      case Kind::kGrid:
        (void)probe.sweep_grid_columnar(d, "vdd", s.xs, "pixel_rate", s.ys);
        span("engine.sweep_grid_columnar", s, t0);
        break;
      case Kind::kMc: {
        const auto params = explore::parse_dist_params(s.dist);
        std::vector<std::string> names;
        for (const auto& p : params) names.push_back(p.name);
        const auto points = explore::sample_points(params, kMcSamples, s.mc_seed);
        const std::int64_t c0 = now_ns();
        (void)probe.play_points_columnar(d, names, points);
        span("engine.play_points_columnar", s, c0);
        break;
      }
      case Kind::kInverse:
        break;
    }
  }
}

}  // namespace

Report run_sweep(const RunOptions& o) {
  Tracer tracer;
  const auto registry = builtin_registry();
  const sheet::Design designs[] = {powerplay::studies::make_luminance_impl1(registry),
                                   powerplay::studies::make_luminance_impl2(registry)};
  // Power at the ends of the vdd range bounds the seeded budgets/limits.
  std::vector<double> power_lo, power_hi;
  for (const auto& d : designs) {
    const auto at = [&d](double vdd) {
      sheet::Design copy = d;
      copy.globals().set("vdd", vdd);
      return copy.play().total.total_power().si();
    };
    power_lo.push_back(at(1.0));
    power_hi.push_back(at(3.0));
  }
  SplitMix64 rng(o.seed);
  const std::vector<Shape> pool = make_pool(rng.fork(1), power_lo, power_hi);

  const fs::path seed = o.data / "seed";
  seed_store(seed, [&designs](library::LibraryStore& store, const auto&) {
    for (const auto& d : designs) store.save_design(d);
    store.ensure_user("sweeper");
  });
  SetUp su = set_up(seed, o.data, kPools, tracer);
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<Client>(su.site->port(), tracer));
  }

  Tally all;
  JobTally all_jobs, last_jobs;
  const auto run = [&](double seconds, std::uint64_t tag) {
    last_jobs = {};
    Phase out = run_phase(clients, pool, rng.fork(tag), seconds, last_jobs);
    all.merge(out.tally);
    all_jobs.merge(last_jobs);
    return out;
  };
  const auto replay = [&](LayerInputs& in) {
    in.job_queue_wait_ms = last_jobs.queue_wait_ms;
    in.job_polls = last_jobs.polls;
    in.job_points = last_jobs.points;
    in.job_seconds = last_jobs.seconds;
    replay_engine_calls(pool, designs, tracer);
  };
  Metrics metrics = measure(o, su, tracer, clients, run, replay);

  const char* const kind_names[kKinds] = {"global", "row_param", "grid", "mc", "inverse"};
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::fprintf(stderr, "powerbench: sweep %-9s jobs %6zu  p50 %7.3f ms  p99 %7.3f ms\n",
                 kind_names[k], all_jobs.by_kind[k].size(), quantile(all_jobs.by_kind[k], 0.5),
                 quantile(all_jobs.by_kind[k], 0.99));
  }

  // Every distinct shape served, against its serial reference.
  engine::EngineOptions serial_options;
  serial_options.executor.thread_count = 1;
  engine::EvalEngine serial(serial_options);
  std::map<std::size_t, std::uint64_t> want;
  for (const auto& [shape, hash] : all_jobs.seen) {
    auto it = want.find(shape);
    if (it == want.end()) {
      const Shape& s = pool[shape];
      it = want.emplace(shape, fnv1a(reference_csv(s, designs[s.design], serial))).first;
    }
    if (hash != it->second) {
      report_mismatch("job csv of " + pool[shape].path + "?" + web::to_query(pool[shape].form),
                      "differs from the serial reference");
      all.check(false);
    }
  }
  return verdict(std::move(metrics), all);
}

}  // namespace powerbench
