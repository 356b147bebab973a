// trace.hpp — in-memory spans for the traced run.
//
// Spans are recorded only by the benchmark's own code, around calls it
// makes into each module's public functions (the client round trip, the
// server's handler callback, PowerPlayApp::handle, and the layer calls
// it replays).  They stay in memory while the load runs and are written
// out as JSON lines when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace powerbench {

struct Span {
  std::string name;    ///< "<layer>.<call>", e.g. "library.load_design"
  std::string tag;     ///< route or design name the span is about
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t request = 0; ///< request id shared by one request's spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double work = 0;  ///< units of work done: points swept, Play iterations

  [[nodiscard]] double us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
  /// The layer is the span name up to its first dot.
  [[nodiscard]] std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on); }

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void add(Span span);

  /// Everything recorded so far (the tracer keeps its copy).
  [[nodiscard]] std::vector<Span> spans() const;

  /// One JSON object per line.
  void write(const std::filesystem::path& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// A span's self time is its duration minus its children's durations.
/// Returns self microseconds by span id.
std::map<std::uint64_t, double> self_times_us(const std::vector<Span>& spans);

}  // namespace powerbench
