// site.hpp — one PowerPlay site under test and the client that drives it.
//
// A Site is a LibraryStore + PowerPlayApp behind a real HttpServer on
// loopback, with the benchmark's handler wrapper in between: untraced it
// only forwards to PowerPlayApp::handle; traced it records the
// server.handler and app.handle spans and runs the workload's replay
// probe (see ProbeHook).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "library/store.hpp"
#include "model/registry.hpp"
#include "trace.hpp"
#include "util.hpp"
#include "web/app.hpp"
#include "web/client.hpp"
#include "web/server.hpp"

namespace powerbench {

namespace fs = std::filesystem;
namespace web = powerplay::web;
namespace engine = powerplay::engine;
namespace library = powerplay::library;

/// The pool sizes a workload runs with.  They are part of the workload's
/// definition, fixed here so both commits of a comparison schedule the
/// same number of threads on the same cores.
struct Pools {
  std::size_t server_workers;  ///< ServerOptions::worker_count
  std::size_t engine_threads;  ///< EngineOptions executor thread_count
  std::size_t job_runners;     ///< JobOptions::runner_count
};

/// Where a probe hangs its replayed layer calls.
struct ProbeContext {
  std::uint64_t handler_span = 0;  ///< the request's server.handler span
  std::uint64_t request = 0;
};

/// Runs in the traced handler wrapper, before PowerPlayApp::handle, for
/// requests the client marked with x-bench-probe while probing is on.
/// It calls the public layer functions the handler is about to call
/// (store load and save, interpreter Play, CSV render, federated search
/// and fetch) on private copies of the same state, so no cache of the
/// program under test is touched, and records them under
/// server.handler, beside app.handle; subtracting them from app.handle
/// attributes the handler's time to layers without tracing inside the
/// program.
using ProbeHook = std::function<void(Tracer&, const web::Request&, const ProbeContext&)>;

/// Route label for spans and per-route metrics.
std::string route_of(const web::Request& request);

/// The registry a fresh app starts from, for seeding and references.
powerplay::model::ModelRegistry builtin_registry();

class Site {
 public:
  /// Open the store at `dir` (timed as open_s), build the app, start the
  /// server on an ephemeral port.  Non-empty `peers` turns federation on
  /// over those loopback ports, with background sync left off.
  Site(const fs::path& dir, const Pools& pools, Tracer& tracer,
       ProbeHook probe = {}, const std::vector<std::uint16_t>& peers = {});
  ~Site();
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  [[nodiscard]] web::PowerPlayApp& app() { return *app_; }
  [[nodiscard]] web::HttpServer& server() { return *server_; }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] double open_s() const { return open_s_; }
  /// Run the probe for marked requests (traced phases only).
  void set_probing(bool on) { probing_.store(on); }

 private:
  web::Response serve(const web::Request& request);

  Tracer& tracer_;
  ProbeHook probe_;
  std::atomic<bool> probing_{false};
  double open_s_ = 0;
  std::unique_ptr<web::PowerPlayApp> app_;
  std::unique_ptr<web::HttpServer> server_;
};

/// Seed a store at `dir` through the public API and close it without a
/// flush, so its journal holds every seeded record for the next open to
/// replay.
void seed_store(const fs::path& dir,
                const std::function<void(library::LibraryStore&,
                                         const powerplay::model::ModelRegistry&)>& fill);

/// What set-up measured: the serving site plus the median of several
/// restarts.
struct SetUp {
  std::unique_ptr<Site> site;
  double setup_s = 0;  ///< store open (replay) -> app -> server -> first 200
  double open_s = 0;   ///< the LibraryStore open alone
};

/// Restart several times from copies of `seed_dir` under `run_dir`,
/// timing each from store open to the first 200 on GET /api/designs;
/// keeps the last site serving.
SetUp set_up(const fs::path& seed_dir, const fs::path& run_dir, const Pools& pools,
             Tracer& tracer, ProbeHook probe = {},
             const std::vector<std::uint16_t>& peers = {});

/// One exchange as the client saw it.
struct Reply {
  web::Response response;
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  bool transport_ok = false;  ///< false: refused, reset or timed out

  [[nodiscard]] double ms() const { return ns_to_ms(recv_ns - send_ns); }
};

/// One keep-alive connection.  Traced, it tags each request with an
/// x-bench-id header (the client span's id) and records client.request.
class Client {
 public:
  Client(std::uint16_t port, Tracer& tracer);

  Reply send(web::Request request, bool probe = false);
  Reply get(const std::string& target, bool probe = false);
  Reply post(const std::string& path, const web::Params& form, bool probe = false);

  /// Connections this client opened (1 + reconnects).
  [[nodiscard]] std::uint64_t connects() const { return connects_; }

 private:
  web::HttpConnection conn_;
  Tracer& tracer_;
  std::uint64_t connects_ = 0;
};

/// Layer counters read through public accessors, for before/after
/// deltas.  Response-cache counters have no accessor and come from
/// /healthz; a line missing there stays missing in `healthz`.
struct Counters {
  web::ServerStats server;
  engine::CacheStats play_cache;
  engine::CacheStats plan_cache;
  engine::BatchCounters batch;
  library::DurabilityStats durability;
  std::map<std::string, double> healthz;
  std::vector<web::FedHostStats> fed_hosts;
};
Counters read_counters(Site& site, Client& client);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// "%.17g": a double that parses back to the same bits.
std::string exact(double v);

}  // namespace powerbench
