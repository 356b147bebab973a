// browse — the site as its users meet it: visitors reading study
// designs, searching the model network, and designers pressing Play.
//
// An open loop of three seeded Poisson streams merged into one schedule:
//
// - Visitors.  Each is a new user who opens one design's spreadsheet
//   page and its CSV (in a seeded order), then revisits one of the two.
//   Every first view misses the response cache (its key includes the
//   user), so it pays store load, interpreter Play and render; the
//   revisit comes a few milliseconds later and is served by the cache.
// - Federated calls: /fed/models?q= searches and /fed/model?name=
//   fetches, which the front site fans out over two peer sites
//   (fed.hpp).  Background mirror sync stays off, so every call goes
//   over the federation's socket loop.
// - Designer Plays: POST /design/play with seeded vdd and pixel_rate
//   edits to one of a designer's copies of Luminance_1 and Luminance_2,
//   then that copy's CSV read back.  Each Play is an fsync'd journal
//   commit under the exclusive library lock, which readers wait out.
//
// Four keep-alive connections carry the load; a request waits for a
// free connection if all four are busy, and its latency runs from the
// time it was due, so a stall shows in every request it delays.
#include <array>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <shared_mutex>

#include "fed.hpp"
#include "library/serialize.hpp"
#include "sheet/report.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"
#include "web/federation.hpp"
#include "workload.hpp"

namespace powerbench {

namespace {

constexpr Pools kPools{4, 2, 1};
constexpr std::size_t kConnections = 4;
/// Three page requests each: 1200 requests a second, a fifth of what the
/// seed saturates at on a quiet 4-core host.  With the federated calls
/// the offered load stays below capacity when the shared host runs two
/// to three times slower; an open loop past capacity builds a backlog
/// that swamps every figure (at 1500 views, 100 federated calls and 4
/// Plays a second, two runs in ten read a 15-22 ms median).
constexpr double kVisitorsPerSecond = 400;
constexpr double kThinkMeanMs = 10;  ///< gap between a visitor's pages
/// Half searches, half fetches.  Every host request is a new loopback
/// connection that lingers a minute in TIME_WAIT; at this rate (about
/// 75 a second) back-to-back runs stay far below the port range.
constexpr double kFedCallsPerSecond = 50;
/// Each Play holds the exclusive library lock over an fsync'd commit,
/// which every reader waits out, so the rate stays low: a stall of the
/// shared disk then delays a few windows, not the run.
constexpr double kPlaysPerSecond = 1;
constexpr std::size_t kCopies = 8;  ///< designer copies, alternating Luminance_1 / _2
/// Generator health: a run whose client threads woke this late for a
/// due request (p99) measured the generator, not the server.  Plain
/// sleeps on the shared host already overshoot by 2 ms at p99 when it is
/// busy, so the limit sits well above that.
constexpr double kMaxLatenessP99Us = 20000;
constexpr auto kProbeBudget = std::chrono::milliseconds(2000);

const char* const kDesigns[] = {"Luminance_1", "Luminance_2", "InfoPad_System"};
const char* const kPaths[] = {"/design", "/design/csv"};
const char* const kDesigner = "bdesigner";

std::string copy_name(std::size_t c) {
  return "bd" + std::to_string(c) + "_" + kDesigns[c % 2];
}

/// `design` under another name, through the library's own text form.
powerplay::sheet::Design renamed(const powerplay::sheet::Design& design, const std::string& name,
                                 const powerplay::model::ModelRegistry& registry) {
  std::string text = powerplay::library::to_text(design);
  const std::string quoted = "\"" + design.name() + "\"";
  text.replace(text.find(quoted), quoted.size(), "\"" + name + "\"");
  return powerplay::library::parse_design(text, registry, nullptr);
}

enum class Kind : std::uint8_t { kView, kSearch, kFetch, kPlay };

struct Planned {
  std::int64_t due_ns = 0;  ///< from the start of the phase
  Kind kind = Kind::kView;
  std::uint32_t subject = 0;  ///< view: visitor; search: query; fetch: model; play: copy
  std::uint8_t design = 0;    ///< view: index into kDesigns
  std::uint8_t page = 0;      ///< view: index into kPaths
  std::int64_t first = -1;    ///< revisit: plan index of the view repeated
  double vdd = 0;             ///< play: the edit
  double pixel_rate = 0;
};

/// Visitors of different phases (tags) are different users.
std::string user_name(std::uint64_t tag, std::uint32_t visitor) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "b%lluv%ux", static_cast<unsigned long long>(tag), visitor);
  return buf;
}

std::string view_target(const Planned& p, std::uint64_t tag) {
  return std::string(kPaths[p.page]) + "?user=" + user_name(tag, p.subject) +
         "&name=" + kDesigns[p.design];
}

/// The arrival schedule, sorted by due time: visitors (two first views
/// and one revisit each), federated calls and designer Plays, each from
/// its own stream.
std::vector<Planned> make_plan(SplitMix64 rng, double seconds, std::size_t models) {
  const double end_ns = seconds * 1e9;
  std::vector<Planned> items;
  SplitMix64 vr = rng.fork(1);
  double t = 0;
  for (std::uint32_t v = 0;; ++v) {
    t += vr.exponential(1e9 / kVisitorsPerSecond);
    if (t >= end_ns) break;
    Planned p;
    p.subject = v;
    p.design = static_cast<std::uint8_t>(vr.below(3));
    const auto first_page = static_cast<std::uint8_t>(vr.below(2));
    const double t2 = t + vr.exponential(kThinkMeanMs * 1e6);
    const double t3 = t2 + vr.exponential(kThinkMeanMs * 1e6);
    const auto again = static_cast<std::int64_t>(vr.below(2));
    const auto base = static_cast<std::int64_t>(items.size());
    p.due_ns = static_cast<std::int64_t>(t);
    p.page = first_page;
    items.push_back(p);
    p.due_ns = static_cast<std::int64_t>(t2);
    p.page = static_cast<std::uint8_t>(1 - first_page);
    items.push_back(p);
    p.due_ns = static_cast<std::int64_t>(t3);
    p.page = items[static_cast<std::size_t>(base + again)].page;
    p.first = base + again;
    items.push_back(p);
  }
  SplitMix64 fr = rng.fork(2);
  for (t = fr.exponential(1e9 / kFedCallsPerSecond); t < end_ns;
       t += fr.exponential(1e9 / kFedCallsPerSecond)) {
    Planned p;
    p.due_ns = static_cast<std::int64_t>(t);
    const bool search = fr.below(2) == 0;
    p.kind = search ? Kind::kSearch : Kind::kFetch;
    p.subject = static_cast<std::uint32_t>(fr.below(search ? std::size(kFedQueries) : models));
    items.push_back(p);
  }
  SplitMix64 pr = rng.fork(3);
  for (t = pr.exponential(1e9 / kPlaysPerSecond); t < end_ns;
       t += pr.exponential(1e9 / kPlaysPerSecond)) {
    Planned p;
    p.due_ns = static_cast<std::int64_t>(t);
    p.kind = Kind::kPlay;
    p.subject = static_cast<std::uint32_t>(pr.below(kCopies));
    p.vdd = pr.uniform(1.0, 3.3);
    p.pixel_rate = pr.uniform(0.5e6, 8e6);
    items.push_back(p);
  }

  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&items](std::size_t a, std::size_t b) { return items[a].due_ns < items[b].due_ns; });
  std::vector<std::int64_t> index_of(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) index_of[order[i]] = static_cast<std::int64_t>(i);
  std::vector<Planned> plan;
  plan.reserve(items.size());
  for (const std::size_t i : order) {
    Planned p = items[i];
    if (p.first >= 0) p.first = index_of[static_cast<std::size_t>(p.first)];
    plan.push_back(p);
  }
  return plan;
}

struct Expected {
  std::string csv[3];   ///< to_csv of reference-interpreter Play
  std::string html[3];  ///< first-view page with the user name as {user}
  std::vector<powerplay::sheet::Design> copies;  ///< designer copies as seeded
  const FedPeers* fed = nullptr;
};

/// The traced run's replay of the layer calls a probed request makes,
/// on private copies of the state it reads: a store opened from a copy
/// of the seeded store, a registry, an engine (pages do not route
/// through the memoized engine yet; its Play is timed here for when
/// they do) and a FederatedLibrary over the same peers.
class Probe {
 public:
  Probe(const fs::path& store_dir, const std::vector<std::uint16_t>& peers)
      : registry_(builtin_registry()), store_(store_dir), engine_(engine_options()) {
    for (const std::uint16_t port : peers) fed_.add_host(port);
  }

  void operator()(Tracer& tracer, const web::Request& request, const ProbeContext& ctx) {
    const auto span = [&](const char* name, const std::string& tag, std::int64_t t0,
                          double work = 0) {
      tracer.add({name, tag, tracer.next_id(), ctx.handler_span, ctx.request, t0, now_ns(), work});
    };
    const web::Target t = request.parsed_target();
    std::int64_t t0 = now_ns();
    if (t.path == "/fed/models") {
      const std::string q = web::get_or(t.query, "q");
      (void)fed_.search(q, web::Deadline::after(kProbeBudget));
      span("fed.search", q, t0);
      return;
    }
    if (t.path == "/fed/model") {
      const std::string name = web::get_or(t.query, "name");
      (void)fed_.fetch_model(name, web::Deadline::after(kProbeBudget));
      span("fed.fetch_model", name, t0);
      return;
    }
    const web::Params q = request.all_params();
    const std::string name = web::get_or(q, "name");
    if (t.path == "/design/play") {
      // Like the app: a write takes the store exclusively.
      std::unique_lock lock(mutex_);
      powerplay::sheet::Design design(*store_.load_design(name, registry_));
      span("library.load_design", name, t0);
      for (const auto& [key, value] : q) {
        if (key.rfind("g_", 0) == 0) design.globals().set(key.substr(2), std::stod(value));
      }
      t0 = now_ns();
      store_.save_design(design);
      span("library.save_design", name, t0);
      t0 = now_ns();
      const powerplay::sheet::PlayResult result = design.play();
      span("sheet.play", name, t0, static_cast<double>(result.iterations));
      return;
    }
    std::shared_lock lock(mutex_);
    const auto design = store_.load_design(name, registry_);
    span("library.load_design", name, t0);
    t0 = now_ns();
    const powerplay::sheet::PlayResult result = design->play();
    span("sheet.play", name, t0, static_cast<double>(result.iterations));
    if (t.path == "/design/csv") {
      t0 = now_ns();
      const std::string csv = powerplay::sheet::to_csv(result);
      span("sheet.to_csv", name, t0, static_cast<double>(csv.size()));
    }
    t0 = now_ns();
    (void)engine_.play(*design);
    span("engine.play", name, t0);
  }

 private:
  static engine::EngineOptions engine_options() {
    engine::EngineOptions o;
    o.executor.thread_count = 1;
    return o;
  }

  powerplay::model::ModelRegistry registry_;
  std::shared_mutex mutex_;  ///< guards store_: shared for loads, exclusive for writes
  library::LibraryStore store_;
  engine::EvalEngine engine_;
  web::FederatedLibrary fed_;
};

/// One visitor page; false when it failed.
bool view(Client& client, const Planned& p, std::uint64_t tag, std::int64_t due,
          const Expected& e, Tally& tally, std::uint64_t& hash) {
  const bool first_view = p.first < 0;
  const std::string target = view_target(p, tag);
  const Reply reply = client.get(target, first_view);
  if (!tally.expect(reply)) return false;
  const std::string& body = reply.response.body;
  bool ok = true;
  if (p.page == 1) {
    ok = body == e.csv[p.design];
  } else if (first_view) {
    ok = replace_all(body, user_name(tag, p.subject), "{user}") == e.html[p.design];
  }
  if (!ok) report_mismatch(target, body);
  tally.check(ok);
  if (!ok) return false;
  hash = fnv1a(body);
  const double ms = ns_to_ms(reply.recv_ns - due);
  tally.primary.add(reply.recv_ns, ms);
  (first_view ? tally.read : tally.repeat).add(reply.recv_ns, ms);
  return true;
}

/// One federated search or fetch; false when it failed.
bool fed_call(Client& client, const Planned& p, std::int64_t due, const Expected& e,
              Tally& tally) {
  const bool search = p.kind == Kind::kSearch;
  const std::string& arg = search ? std::string(kFedQueries[p.subject]) : e.fed->names()[p.subject];
  const std::string target = (search ? "/fed/models?q=" : "/fed/model?name=") + arg;
  const Reply reply = client.get(target, true);
  if (!tally.expect(reply)) return false;
  const std::string& body = reply.response.body;
  const bool ok = search ? e.fed->search_ok(body, arg) : e.fed->fetch_ok(body, arg);
  if (!ok) report_mismatch(target, body);
  tally.check(ok);
  if (!ok) return false;
  tally.primary.add(reply.recv_ns, ns_to_ms(reply.recv_ns - due));
  ++tally.fed_ops;
  return true;
}

/// One designer Play and the CSV read back; false when either failed.
/// The caller holds the copy's lock, so the copy's state is the edit's.
bool play(Client& client, const Planned& p, std::int64_t due, const Expected& e, Tally& tally) {
  const std::string name = copy_name(p.subject);
  const Reply reply = client.post("/design/play",
                                  {{"user", kDesigner},
                                   {"name", name},
                                   {"g_vdd", exact(p.vdd)},
                                   {"g_pixel_rate", exact(p.pixel_rate)}},
                                  true);
  if (!tally.expect(reply)) return false;
  const bool played = reply.response.body.find("[recomputed]") != std::string::npos;
  if (!played) report_mismatch("play " + name, reply.response.body);
  tally.check(played);
  if (!played) return false;
  tally.primary.add(reply.recv_ns, ns_to_ms(reply.recv_ns - due));

  powerplay::sheet::Design edited = e.copies[p.subject];
  edited.globals().set("vdd", p.vdd);
  edited.globals().set("pixel_rate", p.pixel_rate);
  const std::string want = powerplay::sheet::to_csv(edited.play());
  const Reply csv = client.get("/design/csv?user=" + std::string(kDesigner) + "&name=" + name);
  if (!tally.expect(csv)) return false;
  const bool ok = csv.response.body == want;
  if (!ok) report_mismatch("csv after play " + name, csv.response.body);
  tally.check(ok);
  return ok;
}

Phase run_phase(std::vector<std::unique_ptr<Client>>& clients, const std::vector<Planned>& plan,
                std::uint64_t tag, const Expected& expected) {
  std::atomic<std::size_t> next{0};
  std::vector<std::uint64_t> hashes(plan.size(), 0);
  std::array<std::mutex, kCopies> copy_locks;
  std::vector<Tally> tallies(clients.size());
  const std::int64_t start = now_ns() + 2'000'000;

  run_threads(clients.size(), [&](std::size_t t) {
    Client& client = *clients[t];
    Tally& tally = tallies[t];
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= plan.size()) break;
      const Planned& p = plan[i];
      const std::int64_t due = start + p.due_ns;
      if (now_ns() < due) {
        std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
        tally.lateness_us.push_back(ns_to_us(now_ns() - due));
      }
      bool ok = false;
      switch (p.kind) {
        case Kind::kView:
          ok = view(client, p, tag, due, expected, tally, hashes[i]);
          break;
        case Kind::kSearch:
        case Kind::kFetch:
          ok = fed_call(client, p, due, expected, tally);
          break;
        case Kind::kPlay: {
          std::lock_guard lock(copy_locks[p.subject]);
          ok = play(client, p, due, expected, tally);
          break;
        }
      }
      if (ok) ++tally.ops;
    }
  });

  Phase out;
  out.seconds = static_cast<double>(now_ns() - start) / 1e9;
  for (const Tally& t : tallies) out.tally.merge(t);
  // A revisit must return the bytes of the view it repeats.
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::int64_t f = plan[i].first;
    if (f < 0 || hashes[i] == 0 || hashes[static_cast<std::size_t>(f)] == 0) continue;
    if (hashes[i] != hashes[static_cast<std::size_t>(f)]) {
      report_mismatch("revisit " + view_target(plan[i], tag), "body differs from first view");
      out.tally.check(false);
    }
  }
  return out;
}

}  // namespace

Report run_browse(const RunOptions& o) {
  Tracer tracer;
  SplitMix64 rng(o.seed);
  const FedPeers peers(o.data / "fed", rng.fork(0));

  const auto registry = builtin_registry();
  const powerplay::sheet::Design designs[] = {
      powerplay::studies::make_luminance_impl1(registry),
      powerplay::studies::make_luminance_impl2(registry),
      powerplay::studies::make_infopad(registry)};
  Expected expected;
  expected.fed = &peers;
  for (std::size_t c = 0; c < kCopies; ++c) {
    expected.copies.push_back(renamed(designs[c % 2], copy_name(c), registry));
  }
  const fs::path seed = o.data / "seed";
  seed_store(seed, [&](library::LibraryStore& store, const auto&) {
    for (const auto& d : designs) store.save_design(d);
    store.ensure_user(kDesigner);
    for (const auto& copy : expected.copies) store.save_design(copy);
  });
  fs::copy(seed, o.data / "probe", fs::copy_options::recursive);
  Probe probe(o.data / "probe", peers.ports());

  SetUp su = set_up(
      seed, o.data, kPools, tracer,
      [&probe](Tracer& t, const web::Request& r, const ProbeContext& c) { probe(t, r, c); },
      peers.ports());
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<Client>(su.site->port(), tracer));
  }
  for (int d = 0; d < 3; ++d) {
    expected.csv[d] = powerplay::sheet::to_csv(designs[d].play());
    // From a user no visitor shares.
    expected.html[d] = page_template(*clients[0], kDesigns[d], "bref" + std::to_string(d) + "x");
  }

  Tally all;
  const auto run = [&](double seconds, std::uint64_t tag) {
    Phase out = run_phase(clients, make_plan(rng.fork(tag), seconds, peers.names().size()), tag,
                          expected);
    all.merge(out.tally);
    return out;
  };
  Report report = verdict(measure(o, su, tracer, clients, run), all);

  const double late_p99 = quantile(all.lateness_us, 0.99);
  std::fprintf(stderr, "powerbench: browse generator lateness p99 %.0f us, max %.0f us\n", late_p99,
               quantile(all.lateness_us, 1.0));
  if (late_p99 > kMaxLatenessP99Us) {
    report.invalid = "open-loop generator fell behind its schedule";
  }
  return report;
}

}  // namespace powerbench
