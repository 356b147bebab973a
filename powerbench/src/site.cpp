#include "site.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "models/berkeley_library.hpp"

namespace powerbench {

namespace {

/// Server knobs shared by every workload: a queue deep enough that the
/// configured load is never shed, and keep-alive limits far above what a
/// run sends, so connections live for the whole run.
web::ServerOptions server_options(const Pools& pools) {
  web::ServerOptions o;
  o.worker_count = pools.server_workers;
  o.queue_capacity = 256;
  o.io_timeout = std::chrono::milliseconds(10000);
  o.max_keepalive_requests = 1u << 30;
  o.keepalive_idle_timeout = std::chrono::milliseconds(60000);
  return o;
}

/// Restarts timed per set-up; their median is reported, since one
/// restart takes a few milliseconds and the host's hiccups are as long.
constexpr int kRestarts = 21;

std::uint64_t header_u64(const web::Request& r, const char* name) {
  const auto it = r.headers.find(name);
  return it == r.headers.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

}  // namespace

std::string route_of(const web::Request& request) {
  const web::Target t = request.parsed_target();
  if (t.path == "/design") return "design";
  if (t.path == "/design/csv") return "design_csv";
  if (t.path == "/design/play") return "design_play";
  if (t.path == "/design/sweep" || t.path == "/design/explore") return "sweep_submit";
  if (t.path == "/job") {
    return web::get_or(t.query, "format").empty() ? "job_poll" : "job_fetch";
  }
  if (t.path.rfind("/fed/", 0) == 0) return "fed";
  return "other";
}

powerplay::model::ModelRegistry builtin_registry() {
  powerplay::model::ModelRegistry registry;
  powerplay::models::add_berkeley_models(registry);
  return registry;
}

Site::Site(const fs::path& dir, const Pools& pools, Tracer& tracer, ProbeHook probe,
           const std::vector<std::uint16_t>& peers)
    : tracer_(tracer), probe_(std::move(probe)) {
  const std::int64_t t0 = now_ns();
  library::LibraryStore store(dir);
  open_s_ = static_cast<double>(now_ns() - t0) / 1e9;

  engine::EngineOptions engine_options;
  engine_options.executor.thread_count = pools.engine_threads;
  engine::JobOptions job_options;
  job_options.runner_count = pools.job_runners;
  app_ = std::make_unique<web::PowerPlayApp>(std::move(store), engine_options,
                                             job_options);
  if (!peers.empty()) {
    web::FederationOptions fed;
    fed.sync_interval = std::chrono::hours(1);
    web::FederatedLibrary& federation = app_->enable_federation(fed);
    for (const std::uint16_t port : peers) federation.add_host(port);
  }
  server_ = std::make_unique<web::HttpServer>(
      0, [this](const web::Request& r) { return serve(r); }, server_options(pools));
  app_->set_stats_source([this] { return server_->stats(); });
  server_->start();
}

Site::~Site() {
  server_->stop();
  app_->shutdown();
}

web::Response Site::serve(const web::Request& request) {
  if (!tracer_.enabled()) return app_->handle(request);
  const std::int64_t t0 = now_ns();
  ProbeContext ctx;
  ctx.request = header_u64(request, "x-bench-id");
  ctx.handler_span = tracer_.next_id();
  const std::string route = route_of(request);
  if (probe_ && probing_.load() && request.headers.count("x-bench-probe") != 0) {
    probe_(tracer_, request, ctx);
  }
  const std::int64_t a0 = now_ns();
  web::Response response = app_->handle(request);
  const std::int64_t a1 = now_ns();
  tracer_.add({"app.handle", route, tracer_.next_id(), ctx.handler_span, ctx.request, a0, a1});
  tracer_.add({"server.handler", route, ctx.handler_span, ctx.request, ctx.request, t0,
               now_ns()});
  return response;
}

void seed_store(const fs::path& dir,
                const std::function<void(library::LibraryStore&,
                                         const powerplay::model::ModelRegistry&)>& fill) {
  const powerplay::model::ModelRegistry registry = builtin_registry();
  library::LibraryStore store(dir);
  fill(store, registry);
}

SetUp set_up(const fs::path& seed_dir, const fs::path& run_dir, const Pools& pools,
             Tracer& tracer, ProbeHook probe, const std::vector<std::uint16_t>& peers) {
  std::vector<double> setup_s;
  std::vector<double> open_s;
  SetUp out;
  for (int rep = 0; rep < kRestarts; ++rep) {
    out.site.reset();
    const fs::path dir = run_dir / ("site" + std::to_string(rep));
    fs::remove_all(dir);
    fs::copy(seed_dir, dir, fs::copy_options::recursive);

    const std::int64_t t0 = now_ns();
    out.site = std::make_unique<Site>(dir, pools, tracer, probe, peers);
    web::HttpConnection conn(out.site->port());
    if (conn.get("/api/designs").status != 200) {
      throw std::runtime_error("restarted site did not answer 200");
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    open_s.push_back(out.site->open_s());
  }
  out.setup_s = quantile(setup_s, 0.5);
  out.open_s = quantile(open_s, 0.5);
  return out;
}

Client::Client(std::uint16_t port, Tracer& tracer)
    : conn_(port, web::SocketOptions{std::chrono::milliseconds(5000),
                                     std::chrono::milliseconds(10000)}),
      tracer_(tracer) {}

Reply Client::send(web::Request request, bool probe) {
  const bool traced = tracer_.enabled();
  std::uint64_t id = 0;
  if (traced) {
    id = tracer_.next_id();
    request.headers["x-bench-id"] = std::to_string(id);
    if (probe) request.headers.emplace("x-bench-probe", "1");
  }
  if (!conn_.connected()) ++connects_;
  Reply reply;
  reply.send_ns = now_ns();
  try {
    reply.response = conn_.roundtrip(request);
    reply.transport_ok = true;
  } catch (const web::HttpError&) {
    conn_.close();
  }
  reply.recv_ns = now_ns();
  if (traced) {
    tracer_.add({"client.request", route_of(request), id, 0, id, reply.send_ns,
                 reply.recv_ns});
  }
  return reply;
}

Reply Client::get(const std::string& target, bool probe) {
  web::Request r;
  r.target = target;
  return send(std::move(r), probe);
}

Reply Client::post(const std::string& path, const web::Params& form, bool probe) {
  web::Request r;
  r.method = "POST";
  r.target = path;
  r.headers["content-type"] = "application/x-www-form-urlencoded";
  r.body = web::to_query(form);
  return send(std::move(r), probe);
}

Counters read_counters(Site& site, Client& client) {
  Counters c;
  web::PowerPlayApp& app = site.app();
  c.server = site.server().stats();
  c.play_cache = app.engine().cache().stats();
  c.plan_cache = app.engine().plans().stats();
  c.batch = app.engine().batch_counters();
  c.durability = app.store().durability();
  if (web::FederatedLibrary* fed = app.federation()) c.fed_hosts = fed->hosts();
  const Reply health = client.get("/healthz");
  if (health.transport_ok && health.response.status == 200) {
    const std::string& body = health.response.body;
    std::size_t pos = 0;
    while (pos < body.size()) {
      std::size_t end = body.find('\n', pos);
      if (end == std::string::npos) end = body.size();
      const std::string line = body.substr(pos, end - pos);
      pos = end + 1;
      const std::size_t colon = line.find(": ");
      if (line.rfind("response_cache_", 0) != 0 || colon == std::string::npos) continue;
      c.healthz[line.substr(0, colon)] = std::strtod(line.c_str() + colon + 2, nullptr);
    }
  }
  return c;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace powerbench
