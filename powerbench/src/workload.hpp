// workload.hpp — what every workload shares: run options, per-thread
// tallies, the report, and the end-to-end / per-layer metric sets.
//
// Every workload prints the same metric names (README.md says what each
// one times on each workload), so a comparison can read any metric on
// any workload.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "site.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace powerbench {

struct RunOptions {
  fs::path data;       ///< scratch directory for stores, removed afterwards
  fs::path spans_out;  ///< where the traced run writes its spans
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Latency samples stamped with the time each completed.  Statistics
/// are taken per time window and the median across windows reported, so
/// a stall of the shared machine in one window moves the figure less
/// than it would move a quantile over the whole phase.  A window holds
/// at least kWindowSamples samples, so its p99 has ten beyond it.
struct Latencies {
  static constexpr std::size_t kWindowSamples = 1000;
  static constexpr std::size_t kMaxWindows = 40;

  std::vector<std::int64_t> at_ns;
  std::vector<double> ms;

  void add(std::int64_t at, double value) {
    at_ns.push_back(at);
    ms.push_back(value);
  }
  void append(const Latencies& other);
  /// Median over equal slices of the sampled time span of each slice's
  /// q-quantile; 0 with no samples.
  [[nodiscard]] double windowed(double q) const;
};

/// What client threads measured in one phase.  Each thread fills its
/// own and they are merged after the join.
struct Tally {
  Latencies primary;  ///< the workload's primary operation
  Latencies repeat;   ///< a user's repeat of an earlier read
  Latencies read;     ///< the workload's plain reads
  std::uint64_t attempted = 0;     ///< requests sent
  std::uint64_t failed = 0;        ///< bad status, transport error or mismatch
  std::uint64_t mismatched = 0;    ///< bodies that failed their check
  std::uint64_t ops = 0;           ///< primary operations completed
  std::uint64_t fed_ops = 0;       ///< of those, federated calls
  /// Open loop only: how late client threads woke for due requests, us.
  std::vector<double> lateness_us;

  void merge(const Tally& other);
  /// Count one request; false (and counted failed) unless it came back
  /// with `want` status.
  bool expect(const Reply& reply, int want = 200);
  /// Record a body check; a mismatch fails the request.
  void check(bool ok);
};

struct Report {
  bool correct = true;
  std::string invalid;  ///< non-empty: the run measured nothing valid
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

/// One measured phase: what its clients tallied and how long it ran.
struct Phase {
  Tally tally;
  double seconds = 0;
};
/// Runs one phase of a workload for `seconds`; `tag` seeds its inputs.
using RunPhase = std::function<Phase(double seconds, std::uint64_t tag)>;

/// Run `body(thread_index)` on `n` threads and join them.
template <typename Body>
void run_threads(std::size_t n, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back([&body, i] { body(i); });
  for (std::thread& t : threads) t.join();
}

/// A closed loop: thread t calls `op(t, rng, tally)` back to back until
/// `seconds` pass, drawing from its own fork of `rng`.
template <typename Op>
Phase closed_loop(std::size_t threads, SplitMix64 rng, double seconds, Op op) {
  std::vector<Tally> tallies(threads);
  std::vector<SplitMix64> rngs;
  for (std::size_t i = 0; i < threads; ++i) rngs.push_back(rng.fork(i));
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  run_threads(threads, [&](std::size_t t) {
    while (now_ns() < end) op(t, rngs[t], tallies[t]);
  });
  Phase out;
  out.seconds = static_cast<double>(now_ns() - start) / 1e9;
  for (const Tally& t : tallies) out.tally.merge(t);
  return out;
}

/// The end-to-end metric set, from an untraced phase.
Metrics end_to_end(double setup_s, const Tally& tally, double seconds);

/// Samples the engine executor's queue depth while a traced phase runs.
class QueueSampler {
 public:
  explicit QueueSampler(engine::EvalEngine& engine);
  ~QueueSampler();
  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;
  [[nodiscard]] std::size_t max_depth() const { return max_.load(); }

 private:
  engine::EvalEngine& engine_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> max_{0};
  std::thread thread_;  // declared last: it reads the members above
};

/// Inputs of the per-layer metric set, all from the traced phases.
struct LayerInputs {
  std::vector<Span> spans;
  Counters before;
  Counters after;
  std::uint64_t ops = 0;       ///< primary operations completed
  std::uint64_t fed_ops = 0;   ///< of those, federated calls
  /// Connections the load clients opened over the whole run; with the
  /// server's lifetime connections_reused it gives the reuse ratio.
  std::uint64_t connects = 0;
  double open_s = 0;           ///< LibraryStore open, median of the restarts
  std::size_t executor_queue_depth_max = 0;
  std::vector<double> job_queue_wait_ms;  ///< submit -> first poll past queued
  std::vector<double> job_polls;          ///< status polls per job
  double job_points = 0;                  ///< points evaluated by finished jobs
  double job_seconds = 0;                 ///< sum of submit -> result-fetched
  std::vector<double> lateness_us;        ///< open-loop generator wake lateness
  /// Traced (probe off) minus untraced latency_p50_ms.
  double overhead_ms = 0;
  /// The untraced phase's p99 latency: too unsteady on a shared host to
  /// bound as an end-to-end metric, still worth seeing.
  double untraced_p99_ms = 0;
};

Metrics layer_metrics(const LayerInputs& in);

/// Warm up for one second, then measure.  --trace 0 runs one untraced
/// phase of o.seconds and returns the end-to-end set.  --trace 1 runs
/// three phases of o.seconds / 3 and returns the per-layer set: untraced,
/// traced with the site's probe off (their latency_p50_ms difference is
/// the tracing overhead), and traced with the probe on.  The spans of
/// both traced phases go to o.spans_out; `replay(in)`, when set, runs
/// after them with tracing still on, for layer calls timed outside the
/// load, and adds the workload's own figures.
Metrics measure(const RunOptions& o, const SetUp& su, Tracer& tracer,
                const std::vector<std::unique_ptr<Client>>& clients, const RunPhase& run,
                const std::function<void(LayerInputs&)>& replay = {});

/// The run's verdict from everything its phases tallied.
Report verdict(Metrics metrics, const Tally& all);

/// GET /design for `design` as `user`, with the user name replaced by
/// {user}: the page first views are compared against.  Throws unless it
/// comes back 200.
std::string page_template(Client& client, const std::string& design, const std::string& user);

/// Fail the run, not just the request: print why on stderr.
void report_mismatch(const std::string& what, const std::string& detail);

Report run_browse(const RunOptions& options);
Report run_sweep(const RunOptions& options);

}  // namespace powerbench
