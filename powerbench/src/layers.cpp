// layers.cpp — the metric sets: end-to-end figures from an untraced
// phase, per-layer figures from spans and counter deltas of the traced
// phases.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "workload.hpp"

namespace powerbench {

void Latencies::append(const Latencies& other) {
  at_ns.insert(at_ns.end(), other.at_ns.begin(), other.at_ns.end());
  ms.insert(ms.end(), other.ms.begin(), other.ms.end());
}

double Latencies::windowed(double q) const {
  if (ms.empty()) return 0;
  const std::size_t windows = std::clamp<std::size_t>(ms.size() / kWindowSamples, 1, kMaxWindows);
  const auto [lo, hi] = std::minmax_element(at_ns.begin(), at_ns.end());
  const double span = static_cast<double>(*hi - *lo) + 1;
  std::vector<std::vector<double>> slices(windows);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(static_cast<double>(at_ns[i] - *lo) / span *
                                            static_cast<double>(windows));
    slices[w].push_back(ms[i]);
  }
  std::vector<double> per_window;
  for (const auto& slice : slices) {
    if (!slice.empty()) per_window.push_back(quantile(slice, q));
  }
  return quantile(per_window, 0.5);
}

void Tally::merge(const Tally& o) {
  primary.append(o.primary);
  repeat.append(o.repeat);
  read.append(o.read);
  attempted += o.attempted;
  failed += o.failed;
  mismatched += o.mismatched;
  ops += o.ops;
  fed_ops += o.fed_ops;
  lateness_us.insert(lateness_us.end(), o.lateness_us.begin(), o.lateness_us.end());
}

bool Tally::expect(const Reply& reply, int want) {
  ++attempted;
  if (reply.transport_ok && reply.response.status == want) return true;
  ++failed;
  static std::atomic<int> printed{0};
  if (printed.fetch_add(1) < 5) {
    if (reply.transport_ok) {
      std::fprintf(stderr, "powerbench: request failed: status %d: %.200s\n",
                   reply.response.status, reply.response.body.c_str());
    } else {
      std::fprintf(stderr, "powerbench: request failed: no response\n");
    }
  }
  return false;
}

void Tally::check(bool ok) {
  if (ok) return;
  ++mismatched;
  ++failed;
}

void report_mismatch(const std::string& what, const std::string& detail) {
  static std::atomic<int> printed{0};
  if (printed.fetch_add(1) < 5) {
    std::fprintf(stderr, "powerbench: mismatch: %s: %.300s\n", what.c_str(),
                 detail.c_str());
  }
}

Metrics end_to_end(double setup_s, const Tally& t, double seconds) {
  return {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", t.primary.windowed(0.50), "ms"},
      {"latency_p90_ms", t.primary.windowed(0.90), "ms"},
      {"repeat_p50_ms", t.repeat.windowed(0.50), "ms"},
      {"read_p50_ms", t.read.windowed(0.50), "ms"},
      {"ops_per_s", ratio(static_cast<double>(t.ops), seconds), "1/s"},
      {"success_ratio",
       1.0 - ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

QueueSampler::QueueSampler(engine::EvalEngine& engine)
    : engine_(engine), thread_([this] {
        while (!stop_.load()) {
          const std::size_t depth = engine_.executor().stats().queue_depth;
          if (depth > max_.load()) max_.store(depth);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }) {}

QueueSampler::~QueueSampler() {
  stop_.store(true);
  thread_.join();
}

namespace {

/// The study designs per-design layer metrics are reported for.
const char* const kDesigns[] = {"Luminance_1", "Luminance_2", "InfoPad_System"};
/// Routes app.handle is reported for.
const char* const kRoutes[] = {"design",       "design_csv", "design_play",
                               "sweep_submit", "job_poll",   "job_fetch",
                               "fed"};
/// Layers self time is reported for.
const char* const kLayers[] = {"client", "server", "app", "library",
                               "sheet",  "engine", "fed"};

double hit_ratio(const engine::CacheStats& before, const engine::CacheStats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  return ratio(hits, hits + misses);
}

}  // namespace

Metrics layer_metrics(const LayerInputs& in) {
  Metrics m;
  const auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  const Counters& b = in.before;
  const Counters& a = in.after;
  const double ops = static_cast<double>(in.ops);

  // Index the spans once.  Replayed layer calls (library.load_design,
  // sheet.play) hang under the server.handler span of their request;
  // layer_us_by_request sums them per request.
  std::unordered_map<std::uint64_t, const Span*> by_id;
  std::unordered_map<std::uint64_t, double> layer_us_by_request;
  for (const Span& s : in.spans) {
    by_id[s.id] = &s;
    if (s.name == "library.load_design" || s.name == "sheet.play") {
      layer_us_by_request[s.request] += s.us();
    }
  }
  const std::map<std::uint64_t, double> self = self_times_us(in.spans);
  std::map<std::string, std::vector<double>> us_by;    // name[.tag] -> durations
  std::map<std::string, double> work_by, total_us_by;  // name -> sums
  std::vector<double> inbound, outbound, render;
  std::map<std::string, double> self_by_layer;
  for (const Span& s : in.spans) {
    us_by[s.name].push_back(s.us());
    us_by[s.name + "." + s.tag].push_back(s.us());
    work_by[s.name] += s.work;
    total_us_by[s.name] += s.us();
    self_by_layer[s.layer()] += self.at(s.id);
    if (s.name == "server.handler") {
      const auto it = by_id.find(s.parent);
      if (it != by_id.end()) {
        inbound.push_back(ns_to_us(s.start_ns - it->second->start_ns));
        outbound.push_back(ns_to_us(it->second->end_ns - s.end_ns));
      }
    }
    // app.render_us: a design page's handler time less the store load
    // and interpreter Play replayed for the same request.
    if (s.name == "app.handle" && s.tag == "design") {
      const auto it = layer_us_by_request.find(s.request);
      if (it != layer_us_by_request.end()) render.push_back(self.at(s.id) - it->second);
    }
  }
  const auto p = [&us_by](const std::string& key, double q) {
    const auto it = us_by.find(key);
    return it == us_by.end() ? 0.0 : quantile(it->second, q);
  };

  // server
  add("server.inbound_us", quantile(inbound, 0.5), "us");
  add("server.outbound_us", quantile(outbound, 0.5), "us");
  add("server.requests_shed",
      static_cast<double>(a.server.requests_shed - b.server.requests_shed), "count");
  add("server.connections_reused_ratio",
      ratio(static_cast<double>(a.server.connections_reused), static_cast<double>(in.connects)),
      "ratio");

  // app
  for (const char* route : kRoutes) {
    add(std::string("app.handle_us.") + route + ".p50", p(std::string("app.handle.") + route, 0.5), "us");
    add(std::string("app.handle_us.") + route + ".p99", p(std::string("app.handle.") + route, 0.99), "us");
  }
  add("app.render_us", quantile(render, 0.5), "us");
  // Response-cache counters come from /healthz; absent lines stay absent.
  const auto delta = [&](const char* key) -> std::optional<double> {
    const auto ia = a.healthz.find(key);
    const auto ib = b.healthz.find(key);
    if (ia == a.healthz.end() || ib == b.healthz.end()) return std::nullopt;
    return ia->second - ib->second;
  };
  const auto hits = delta("response_cache_hits");
  const auto misses = delta("response_cache_misses");
  if (hits && misses) add("app.response_cache_hit_ratio", ratio(*hits, *hits + *misses), "ratio");
  if (const auto v = delta("response_cache_evictions")) add("app.response_cache_evictions", *v, "count");
  if (const auto v = delta("response_cache_revalidations")) {
    add("app.response_cache_revalidations", *v, "count");
  }

  // library
  for (const char* d : kDesigns) {
    add(std::string("library.load_design_us.") + d, p(std::string("library.load_design.") + d, 0.5), "us");
  }
  add("library.save_design_us", p("library.save_design", 0.5), "us");
  add("library.journal_appends_per_op",
      ratio(static_cast<double>(a.durability.journal_appends - b.durability.journal_appends), ops),
      "count");
  add("library.snapshot_writes_per_op",
      ratio(static_cast<double>(a.durability.snapshot_writes - b.durability.snapshot_writes), ops),
      "count");
  add("library.open_s", in.open_s, "s");

  // sheet
  for (const char* d : kDesigns) {
    add(std::string("sheet.play_us.") + d, p(std::string("sheet.play.") + d, 0.5), "us");
  }
  add("sheet.to_csv_us", p("sheet.to_csv", 0.5), "us");
  add("sheet.play_iterations",
      ratio(work_by["sheet.play"], static_cast<double>(us_by["sheet.play"].size())), "count");

  // engine
  add("engine.play_us", p("engine.play", 0.5), "us");
  add("engine.play_cache_hit_ratio", hit_ratio(b.play_cache, a.play_cache), "ratio");
  add("engine.plan_cache_hit_ratio", hit_ratio(b.plan_cache, a.plan_cache), "ratio");
  const std::pair<const char*, const char*> kinds[] = {
      {"global", "engine.sweep_global"},
      {"row_param", "engine.sweep_row_param"},
      {"grid", "engine.sweep_grid_columnar"},
      {"points", "engine.play_points_columnar"}};
  for (const auto& [kind, span] : kinds) {
    add(std::string("engine.us_per_point.") + kind, ratio(total_us_by[span], work_by[span]), "us");
  }
  const double batch_points = static_cast<double>(a.batch.points - b.batch.points);
  add("engine.scalar_fallback_ratio",
      ratio(static_cast<double>(a.batch.scalar_fallback_points - b.batch.scalar_fallback_points),
            batch_points),
      "ratio");
  add("engine.lane_replays", static_cast<double>(a.batch.lane_replays - b.batch.lane_replays),
      "count");
  add("engine.term_capture_rows",
      static_cast<double>(a.batch.term_capture_rows - b.batch.term_capture_rows), "count");
  add("engine.executor_queue_depth_max", static_cast<double>(in.executor_queue_depth_max),
      "count");

  // jobs
  add("jobs.queue_wait_ms", quantile(in.job_queue_wait_ms, 0.5), "ms");
  add("jobs.polls_per_job", mean(in.job_polls), "count");
  add("jobs.points_per_s", ratio(in.job_points, in.job_seconds), "1/s");

  // federation: host counters summed over hosts (matched by key)
  double host_requests = 0, hedges = 0, host_failures = 0;
  for (const web::FedHostStats& h : a.fed_hosts) {
    double req0 = 0, hedge0 = 0, fail0 = 0;
    for (const web::FedHostStats& h0 : b.fed_hosts) {
      if (h0.key != h.key) continue;
      req0 = static_cast<double>(h0.requests);
      hedge0 = static_cast<double>(h0.hedges);
      fail0 = static_cast<double>(h0.failures);
    }
    host_requests += static_cast<double>(h.requests) - req0;
    hedges += static_cast<double>(h.hedges) - hedge0;
    host_failures += static_cast<double>(h.failures) - fail0;
  }
  add("fed.search_us", p("fed.search", 0.5), "us");
  add("fed.fetch_us", p("fed.fetch_model", 0.5), "us");
  const double fed_ops = static_cast<double>(in.fed_ops);
  add("fed.host_requests_per_op", ratio(host_requests, fed_ops), "count");
  add("fed.hedge_ratio", ratio(hedges, fed_ops), "ratio");
  add("fed.host_failures", host_failures, "count");

  // generator health, self time per layer, tracing cost
  add("client.lateness_p99_us", quantile(in.lateness_us, 0.99), "us");
  add("client.lateness_max_us", quantile(in.lateness_us, 1.0), "us");
  for (const char* layer : kLayers) {
    add(std::string("self_ms.") + layer, self_by_layer[layer] / 1e3, "ms");
  }
  add("trace.overhead_ms", in.overhead_ms, "ms");
  add("client.latency_p99_ms", in.untraced_p99_ms, "ms");
  return m;
}

Metrics measure(const RunOptions& o, const SetUp& su, Tracer& tracer,
                const std::vector<std::unique_ptr<Client>>& clients, const RunPhase& run,
                const std::function<void(LayerInputs&)>& replay) {
  run(1.0, 1);  // warm-up: caches fill, lazy set-up finishes
  if (!o.trace) {
    const Phase out = run(o.seconds, 2);
    return end_to_end(su.setup_s, out.tally, out.seconds);
  }
  const double third = o.seconds / 3;
  const Phase plain = run(third, 3);
  LayerInputs in;
  in.before = read_counters(*su.site, *clients[0]);
  tracer.set_enabled(true);
  Phase quiet, probed;
  {
    QueueSampler sampler(su.site->app().engine());
    quiet = run(third, 4);
    su.site->set_probing(true);
    probed = run(third, 5);
    su.site->set_probing(false);
    in.executor_queue_depth_max = sampler.max_depth();
  }
  tracer.set_enabled(false);
  in.after = read_counters(*su.site, *clients[0]);
  if (replay) {
    tracer.set_enabled(true);
    replay(in);
    tracer.set_enabled(false);
  }
  in.spans = tracer.spans();
  in.ops = quiet.tally.ops + probed.tally.ops;
  in.fed_ops = quiet.tally.fed_ops + probed.tally.fed_ops;
  for (const auto& c : clients) in.connects += c->connects();
  in.open_s = su.open_s;
  in.lateness_us = quiet.tally.lateness_us;
  in.lateness_us.insert(in.lateness_us.end(), probed.tally.lateness_us.begin(),
                        probed.tally.lateness_us.end());
  in.overhead_ms = quiet.tally.primary.windowed(0.5) - plain.tally.primary.windowed(0.5);
  in.untraced_p99_ms = plain.tally.primary.windowed(0.99);
  tracer.write(o.spans_out);
  return layer_metrics(in);
}

Report verdict(Metrics metrics, const Tally& all) {
  Report r;
  r.correct = all.mismatched == 0;
  r.attempted = all.attempted;
  r.failed = all.failed;
  r.metrics = std::move(metrics);
  return r;
}

std::string page_template(Client& client, const std::string& design, const std::string& user) {
  const Reply r = client.get("/design?user=" + user + "&name=" + design);
  if (!r.transport_ok || r.response.status != 200) {
    throw std::runtime_error("reference page of " + design + " did not come back 200");
  }
  return replace_all(r.response.body, user, "{user}");
}

}  // namespace powerbench
