// bench_http_load — what the HTTP fast path buys, end to end over real
// sockets.  Three serving modes over the same preloaded library:
//
//   cold       — connection per request (HTTP/1.0 style), response
//                cache disabled: every hit pays connect + parse +
//                re-render
//   keepalive  — one persistent HTTP/1.1 connection, cache disabled:
//                connect cost amortized, render cost still paid
//   cached     — persistent connection + fingerprint-keyed response
//                cache: warm hits serve memoized bytes
//
// The bench verifies in-process that all three modes return
// byte-identical bodies (Date/ETag live in headers, so bodies must
// match exactly), then reports requests/s and p50/p99 latency per mode
// and emits BENCH_http.json.
//
// A fourth section, first_view, times the server side of a visitor's
// first look at a design: /design and /design/csv through
// PowerPlayApp::handle in-process (no sockets), each request from a
// user no earlier request used.  Two paths per design: shared_render,
// the response-cache-on site, where new visitors share one render per
// design state and /design splices the user in; and full_render, the
// cache-off site, where every view pays store load, fingerprint, memo
// Play and render.  Reported as p50/p99; never gated.
//
//   ./bench_http_load [out.json]   full run (defaults to BENCH_http.json)
//   ./bench_http_load --smoke      tiny run, correctness checks only
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "library/store.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"
#include "web/app.hpp"
#include "web/client.hpp"
#include "web/server.hpp"

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using namespace powerplay;

namespace {

struct ModeResult {
  std::string name;
  std::size_t requests = 0;
  double seconds = 0;
  double p50_us = 0;
  double p99_us = 0;

  [[nodiscard]] double per_second() const {
    return seconds > 0 ? requests / seconds : 0;
  }
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const auto idx = static_cast<std::size_t>(p * (sorted_us.size() - 1));
  return sorted_us[idx];
}

const std::vector<std::string> kDesigns = {"Luminance_1", "Luminance_2",
                                           "InfoPad_System"};

sheet::Design make_design(const std::string& name,
                          const model::ModelRegistry& lib) {
  if (name == "Luminance_1") return studies::make_luminance_impl1(lib);
  if (name == "Luminance_2") return studies::make_luminance_impl2(lib);
  return studies::make_infopad(lib);
}

/// Serve the bench library on an ephemeral port.
struct Site {
  fs::path dir;
  std::unique_ptr<web::PowerPlayApp> app;
  std::unique_ptr<web::HttpServer> server;

  explicit Site(bool response_cache) {
    static int counter = 0;
    dir = fs::temp_directory_path() /
          ("pp_bench_http_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++));
    fs::create_directories(dir);
    web::AppOptions app_options;
    app_options.response_cache = response_cache;
    app = std::make_unique<web::PowerPlayApp>(
        library::LibraryStore(dir), engine::EngineOptions{},
        engine::JobOptions{}, app_options);
    for (const std::string& name : kDesigns) {
      app->store().save_design(make_design(name, app->registry()));
    }
    web::ServerOptions options;
    options.worker_count = 4;
    server = std::make_unique<web::HttpServer>(
        0, [this](const web::Request& r) { return app->handle(r); },
        options);
    server->start();
  }

  ~Site() {
    server->stop();
    app->shutdown();
    fs::remove_all(dir);
  }
};

ModeResult time_mode(const std::string& name, int iterations,
                     const std::vector<std::string>& targets,
                     const std::function<web::Response(const std::string&)>&
                         roundtrip) {
  ModeResult result;
  result.name = name;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(iterations) * targets.size());
  const auto t0 = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    for (const std::string& target : targets) {
      const auto r0 = Clock::now();
      const web::Response resp = roundtrip(target);
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - r0)
              .count());
      if (resp.status != 200) {
        std::fprintf(stderr, "%s: %s answered %d\n", name.c_str(),
                     target.c_str(), resp.status);
        std::exit(1);
      }
      result.requests += 1;
    }
  }
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  std::sort(latencies_us.begin(), latencies_us.end());
  result.p50_us = percentile(latencies_us, 0.50);
  result.p99_us = percentile(latencies_us, 0.99);
  return result;
}

struct FirstView {
  double page_p50_us = 0;
  double page_p99_us = 0;
  double csv_p50_us = 0;
  double csv_p99_us = 0;
};

/// First views of `design`, in-process: every request comes from a user
/// no earlier request used.
FirstView time_first_views(web::PowerPlayApp& app, const std::string& design,
                           int iterations) {
  static int next_user = 0;
  FirstView out;
  std::vector<double> page_us;
  std::vector<double> csv_us;
  for (int i = 0; i < iterations; ++i) {
    for (const auto& [route, samples] :
         {std::pair{"/design", &page_us}, std::pair{"/design/csv", &csv_us}}) {
      web::Request request;
      request.target = std::string(route) + "?user=fv" +
                       std::to_string(next_user++) + "&name=" + design;
      const auto t0 = Clock::now();
      const web::Response resp = app.handle(request);
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count();
      if (resp.status != 200) {
        std::fprintf(stderr, "first_view: %s answered %d\n",
                     request.target.c_str(), resp.status);
        std::exit(1);
      }
      samples->push_back(us);
    }
  }
  std::sort(page_us.begin(), page_us.end());
  std::sort(csv_us.begin(), csv_us.end());
  out.page_p50_us = percentile(page_us, 0.50);
  out.page_p99_us = percentile(page_us, 0.99);
  out.csv_p50_us = percentile(csv_us, 0.50);
  out.csv_p99_us = percentile(csv_us, 0.99);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_http.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const int iterations = smoke ? 3 : 60;

  // The GET mix a browsing session produces: spreadsheet render (the
  // expensive Play), CSV export, library page, remote API.
  const std::vector<std::string> targets = {
      "/design?user=bench&name=Luminance_1",
      "/design/csv?user=bench&name=Luminance_1",
      "/design?user=bench&name=InfoPad_System",
      "/library?user=bench",
      "/api/models",
  };

  Site cold_site(/*response_cache=*/false);
  Site cached_site(/*response_cache=*/true);

  // Byte-identity check first: every mode must serve the same body for
  // the same target (Date and ETag differ, but they live in headers).
  web::HttpConnection cached_conn(cached_site.server->port());
  for (const std::string& target : targets) {
    const std::string cold =
        web::http_get(cold_site.server->port(), target).body;
    const std::string first = cached_conn.get(target).body;   // fills cache
    const std::string warm = cached_conn.get(target).body;    // serves it
    if (cold != first || first != warm) {
      std::fprintf(stderr, "body mismatch between modes for %s\n",
                   target.c_str());
      return 1;
    }
  }
  std::printf("bodies byte-identical across modes for %zu targets\n",
              targets.size());

  // cold: fresh connection per request, no response cache.
  const ModeResult cold = time_mode(
      "cold", iterations, targets, [&](const std::string& target) {
        return web::http_get(cold_site.server->port(), target);
      });

  // keepalive: one persistent connection, still no response cache.
  web::HttpConnection keepalive_conn(cold_site.server->port());
  const ModeResult keepalive = time_mode(
      "keepalive", iterations, targets, [&](const std::string& target) {
        return keepalive_conn.get(target);
      });

  // cached: persistent connection + warm response cache.
  const ModeResult cached = time_mode(
      "cached", iterations, targets, [&](const std::string& target) {
        return cached_conn.get(target);
      });

  // first_view: the shared render (the response-cache-on site, as
  // served by default) and the full render (the cache-off site).
  struct DesignFirstViews {
    std::string design;
    FirstView shared;
    FirstView full;
  };
  std::vector<DesignFirstViews> first_views;
  for (const std::string& design : kDesigns) {
    const int n = smoke ? 3 : 300;
    first_views.push_back({design,
                           time_first_views(*cached_site.app, design, n),
                           time_first_views(*cold_site.app, design, n)});
  }

  const double speedup_keepalive = keepalive.per_second() / cold.per_second();
  const double speedup_cached = cached.per_second() / cold.per_second();
  const web::ServerStats cache_stats = cached_site.server->stats();

  for (const ModeResult* m : {&cold, &keepalive, &cached}) {
    std::printf("%-9s : %6zu req in %7.3f s  = %9.0f req/s   "
                "p50 %7.1f us  p99 %7.1f us\n",
                m->name.c_str(), m->requests, m->seconds, m->per_second(),
                m->p50_us, m->p99_us);
  }
  for (const DesignFirstViews& d : first_views) {
    for (const auto& [label, fv] :
         {std::pair{"shared", &d.shared}, std::pair{"full", &d.full}}) {
      std::printf("first view %-15s %-6s: /design p50 %7.1f us  p99 %7.1f us"
                  "   /design/csv p50 %7.1f us  p99 %7.1f us\n",
                  d.design.c_str(), label, fv->page_p50_us, fv->page_p99_us,
                  fv->csv_p50_us, fv->csv_p99_us);
    }
  }
  std::printf("keepalive vs cold : %.2fx\n", speedup_keepalive);
  std::printf("cached    vs cold : %.2fx\n", speedup_cached);
  std::printf("connections_reused: %llu, parser_resumes: %llu\n",
              static_cast<unsigned long long>(cache_stats.connections_reused),
              static_cast<unsigned long long>(cache_stats.parser_resumes));

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"http_load\",\n"
       << "  \"targets\": " << targets.size() << ",\n"
       << "  \"iterations\": " << iterations << ",\n"
       << "  \"bodies_byte_identical\": true,\n"
       << "  \"cold_requests_per_s\": " << cold.per_second() << ",\n"
       << "  \"cold_p50_us\": " << cold.p50_us << ",\n"
       << "  \"cold_p99_us\": " << cold.p99_us << ",\n"
       << "  \"keepalive_requests_per_s\": " << keepalive.per_second()
       << ",\n"
       << "  \"keepalive_p50_us\": " << keepalive.p50_us << ",\n"
       << "  \"keepalive_p99_us\": " << keepalive.p99_us << ",\n"
       << "  \"cached_requests_per_s\": " << cached.per_second() << ",\n"
       << "  \"cached_p50_us\": " << cached.p50_us << ",\n"
       << "  \"cached_p99_us\": " << cached.p99_us << ",\n"
       << "  \"speedup_keepalive_vs_cold\": " << speedup_keepalive << ",\n"
       << "  \"speedup_cached_vs_cold\": " << speedup_cached << ",\n"
       << "  \"first_view\": {\n";
  const auto first_view_json = [&json](const FirstView& fv) {
    json << "{\"design_p50_us\": " << fv.page_p50_us
         << ", \"design_p99_us\": " << fv.page_p99_us
         << ", \"design_csv_p50_us\": " << fv.csv_p50_us
         << ", \"design_csv_p99_us\": " << fv.csv_p99_us << "}";
  };
  for (std::size_t i = 0; i < first_views.size(); ++i) {
    json << "    \"" << first_views[i].design << "\": {\n"
         << "      \"shared_render\": ";
    first_view_json(first_views[i].shared);
    json << ",\n      \"full_render\": ";
    first_view_json(first_views[i].full);
    json << "\n    }" << (i + 1 < first_views.size() ? ",\n" : "\n");
  }
  json << "  }\n"
       << "}\n";
  std::ofstream out(out_path);
  out << json.str();
  std::printf("wrote %s\n", out_path.c_str());

  if (smoke) {
    // Correctness only: caching must not change bytes, keep-alive must
    // actually reuse connections.  Timing thresholds are for full runs.
    return cached_site.server->connections_reused() >= 1 ? 0 : 1;
  }
  return speedup_cached >= 1.0 ? 0 : 1;
}
