// Journal-shipping replication, end to end: a follower bootstraps from
// a primary's snapshot, streams its journal, serves byte-identical
// reads, redirects writes, and survives a chaos-injected primary crash
// with zero acknowledged-write loss.  Everything is deterministic: the
// fault schedule comes from a seeded PRNG and the "network" is either
// loopback TCP or an in-process FunctionTransport.
#include "web/app.hpp"
#include "web/client.hpp"
#include "web/fault.hpp"
#include "web/repl.hpp"
#include "web/server.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace powerplay::web {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("pp_repl_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

model::UserModelDefinition tiny_model(const std::string& name,
                                      double scale = 1.0) {
  model::UserModelDefinition def;
  def.name = name;
  def.category = model::Category::kComputation;
  def.documentation = "replication test model";
  def.params = {{"k", "scale", scale, "", 0, 1e6, false}};
  def.c_fullswing = "k * 42e-15";
  return def;
}

Request get(const std::string& target) {
  Request r;
  r.method = "GET";
  r.target = target;
  return r;
}

/// Fast follower tuning for tests: short polls, millisecond backoff.
ReplicationOptions fast_options() {
  ReplicationOptions o;
  o.poll_wait = 50ms;
  o.retry.base_backoff = 1ms;
  o.retry.max_backoff = 10ms;
  o.breaker.failure_threshold = 1000;  // breaker studied in web_fault_test
  o.breaker.cooldown = 5ms;
  return o;
}

// ---------------------------------------------------------------------------
// Bootstrap + streaming over real loopback sockets
// ---------------------------------------------------------------------------

TEST(Replication, FollowerBootstrapsAndStreamsOverTcp) {
  TempDir primary_dir;
  TempDir follower_dir;
  PowerPlayApp primary{library::LibraryStore(primary_dir.path)};
  primary.store().save_model(tiny_model("before_snapshot"));
  HttpServer server(0, [&](const Request& r) { return primary.handle(r); });
  server.start();

  PowerPlayApp follower_app{library::LibraryStore(follower_dir.path)};
  follower_app.set_role(PowerPlayApp::ReplRole::kFollower,
                        "http://127.0.0.1:" + std::to_string(server.port()));
  ReplicationFollower follower(
      follower_app.store(), std::make_shared<TcpTransport>(server.port()),
      fast_options());
  follower_app.set_repl_stats_source([&] { return follower.stats(); });
  follower.start();

  // Snapshot bootstrap delivers the pre-existing state...
  ASSERT_TRUE(follower.wait_for_seq(primary.store().last_seq(), 5s));
  // ...and a commit made *after* the follower attached streams over.
  primary.store().save_model(tiny_model("after_snapshot"));
  ASSERT_TRUE(follower.wait_for_seq(primary.store().last_seq(), 5s));

  // Reads on the follower are byte-identical to the primary's, through
  // the follower's own response cache.
  for (const char* target :
       {"/api/models", "/api/model?name=before_snapshot",
        "/api/model?name=after_snapshot"}) {
    const Response from_primary = primary.handle(get(target));
    const Response from_follower = follower_app.handle(get(target));
    EXPECT_EQ(from_primary.status, 200) << target;
    EXPECT_EQ(from_follower.status, 200) << target;
    EXPECT_EQ(from_primary.body, from_follower.body) << target;
  }

  // The follower's health page reports role and replication position.
  const Response health = follower_app.handle(get("/healthz"));
  EXPECT_NE(health.body.find("repl_role: follower"), std::string::npos);
  EXPECT_NE(health.body.find("repl_synced: 1"), std::string::npos);
  EXPECT_NE(health.body.find("repl_lag_records: 0"), std::string::npos);
  EXPECT_NE(health.body.find("repl_resyncs_total: 1"), std::string::npos);

  follower.stop();
  server.stop();
}

TEST(Replication, FollowerRedirectsWritesToPrimary) {
  TempDir dir;
  PowerPlayApp app{library::LibraryStore(dir.path)};
  app.set_role(PowerPlayApp::ReplRole::kFollower, "http://primary.test:8080");

  Request post;
  post.method = "POST";
  post.target = "/newmodel?user=alice";
  const Response r = app.handle(post);
  EXPECT_EQ(r.status, 307);  // method-preserving, unlike 302
  EXPECT_EQ(r.headers.at("location"),
            "http://primary.test:8080/newmodel?user=alice");

  // Reads — including pages for a user the follower has never seen —
  // stay local and must not commit a profile to the mirrored store.
  const Response menu = app.handle(get("/menu?user=stranger"));
  EXPECT_EQ(menu.status, 200);
  EXPECT_FALSE(app.store().load_user("stranger").has_value());
}

TEST(Replication, JournalFeedLongPollAnswersOnCommit) {
  TempDir dir;
  PowerPlayApp primary{library::LibraryStore(dir.path)};
  primary.store().save_model(tiny_model("first"));
  const std::uint64_t epoch = primary.store().epoch();
  const std::uint64_t after = primary.store().last_seq();

  // Park a long-poll past the current tail, then commit from another
  // thread: the poll must return the new record well before its 5 s
  // window, not at its expiry.
  std::thread committer([&] {
    std::this_thread::sleep_for(30ms);
    primary.store().save_model(tiny_model("second"));
  });
  const auto start = std::chrono::steady_clock::now();
  const Response r = primary.handle(
      get("/repl/journal?epoch=" + std::to_string(epoch) +
          "&after=" + std::to_string(after) + "&wait_ms=5000"));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  committer.join();

  EXPECT_EQ(r.status, 200);
  EXPECT_LT(elapsed, 2500ms);
  const auto parsed = library::Journal::parse(r.body);
  EXPECT_TRUE(parsed.header_ok);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].name, "second");
  EXPECT_EQ(parsed.records[0].seq, after + 1);
  EXPECT_EQ(r.headers.at("x-repl-last-seq"), std::to_string(after + 1));
}

TEST(Replication, PromoteEndpointFlipsRoleWithFreshEpoch) {
  TempDir primary_dir;
  TempDir follower_dir;
  PowerPlayApp primary{library::LibraryStore(primary_dir.path)};
  primary.store().save_model(tiny_model("m"));

  PowerPlayApp follower_app{library::LibraryStore(follower_dir.path)};
  follower_app.set_role(PowerPlayApp::ReplRole::kFollower, "http://x");
  auto transport = std::make_shared<FunctionTransport>(
      [&](const Request& r) { return primary.handle(r); });
  ReplicationFollower follower(follower_app.store(), transport,
                               fast_options());
  follower_app.set_promote_hook([&] {
    const std::uint64_t fresh = follower.promote();
    follower_app.set_role(PowerPlayApp::ReplRole::kPrimary);
    return fresh;
  });
  follower.start();
  ASSERT_TRUE(follower.wait_for_seq(primary.store().last_seq(), 5s));

  Request post;
  post.method = "POST";
  post.target = "/repl/promote";
  const Response r = follower_app.handle(post);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(follower_app.role(), PowerPlayApp::ReplRole::kPrimary);
  EXPECT_FALSE(follower.running());
  EXPECT_GT(follower_app.store().epoch(), primary.store().epoch());

  // The promoted node accepts writes locally now (no 307).
  follower_app.store().save_model(tiny_model("written_after_promote"));
  EXPECT_EQ(follower_app.handle(get("/api/model?name=written_after_promote"))
                .status,
            200);
  // Idempotent on an already-primary node.
  EXPECT_EQ(follower_app.handle(post).status, 200);
}

TEST(Replication, WaitForSeqReturnsOnlyAfterStatsArePublished) {
  // wait_for_seq must not return before the apply thread publishes the
  // position it waited for: a stats() read right after it, under a
  // steady stream of commits, always sees a synced cursor at or past
  // the awaited seq and the records applied to reach it.
  TempDir primary_dir;
  TempDir follower_dir;
  PowerPlayApp primary{library::LibraryStore(primary_dir.path)};
  PowerPlayApp follower_app{library::LibraryStore(follower_dir.path)};
  follower_app.set_role(PowerPlayApp::ReplRole::kFollower, "http://x");
  auto transport = std::make_shared<FunctionTransport>(
      [&](const Request& r) { return primary.handle(r); });
  ReplicationFollower follower(follower_app.store(), transport,
                               fast_options());
  follower.start();
  primary.store().save_model(tiny_model("seed"));
  ASSERT_TRUE(follower.wait_for_seq(primary.store().last_seq(), 5s));
  const ReplicationStats base = follower.stats();

  constexpr int kCommits = 200;
  std::atomic<bool> done{false};
  std::thread committer([&] {
    for (int i = 0; i < kCommits; ++i) {
      primary.store().save_model(tiny_model("load_" + std::to_string(i)));
    }
    done.store(true);
  });
  while (!done.load()) {
    const std::uint64_t seq = primary.store().last_seq();
    ASSERT_TRUE(follower.wait_for_seq(seq, 10s));
    const ReplicationStats now = follower.stats();
    EXPECT_TRUE(now.synced);
    EXPECT_GE(now.cursor_seq, seq);
    EXPECT_GE(base.records_applied + (now.cursor_seq - base.cursor_seq),
              now.records_applied);
    EXPECT_GE(now.records_applied, base.records_applied +
                                       (seq - base.cursor_seq));
  }
  committer.join();
  const std::uint64_t last = primary.store().last_seq();
  ASSERT_TRUE(follower.wait_for_seq(last, 10s));
  const ReplicationStats end = follower.stats();
  follower.stop();
  EXPECT_EQ(end.cursor_seq, last);
  EXPECT_EQ(end.records_applied, base.records_applied + kCommits);
  EXPECT_EQ(end.gaps_detected, 0u);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: seeded chaos, primary killed mid-storm.
// ---------------------------------------------------------------------------

/// A primary that can "crash" (be destroyed without shutdown) and come
/// back on the same data directory while a follower keeps polling.
struct CrashablePrimary {
  TempDir dir;
  std::mutex mutex;  // serializes transport calls vs. crash/restart
  std::unique_ptr<PowerPlayApp> app;

  CrashablePrimary() { open(); }
  void open() {
    app = std::make_unique<PowerPlayApp>(library::LibraryStore(dir.path));
  }
  void crash() {
    std::lock_guard lock(mutex);
    app.reset();  // no shutdown(): jobs dropped, journal left as-is
  }
  void restart() {
    std::lock_guard lock(mutex);
    open();
  }
  Response roundtrip(const Request& r) {
    std::lock_guard lock(mutex);
    if (app == nullptr) throw HttpError("connection refused: primary down");
    return app->handle(r);
  }
};

TEST(Replication, ChaosFailoverLosesNoAcknowledgedWrite) {
  CrashablePrimary primary;
  TempDir follower_dir;
  PowerPlayApp follower_app{library::LibraryStore(follower_dir.path)};
  follower_app.set_role(PowerPlayApp::ReplRole::kFollower, "http://x");

  // The wire: drops, injected 500s, truncated bodies and duplicate
  // batch deliveries, all from one seeded schedule.
  FaultSpec spec;
  spec.drop_rate = 0.15;
  spec.error_rate = 0.10;
  spec.truncate_rate = 0.10;
  spec.duplicate_rate = 0.10;
  spec.seed = 20260809;
  auto chaos = std::make_shared<FaultTransport>(
      std::make_shared<FunctionTransport>(
          [&](const Request& r) { return primary.roundtrip(r); }),
      spec);

  ReplicationFollower follower(follower_app.store(), chaos, fast_options());
  follower.start();

  // Write storm: every save_model that returns is an acknowledged,
  // journaled commit.  Kill the primary a third of the way through,
  // bring it back (crash recovery opens a fresh epoch), keep writing.
  std::vector<std::string> acked;
  for (int i = 0; i < 30; ++i) {
    if (i == 10) {
      primary.crash();
      primary.restart();
    }
    const std::string name = "storm_" + std::to_string(i);
    primary.app->store().save_model(tiny_model(name, 1.0 + i));
    acked.push_back(name);
  }

  // Through drops, 500s, truncations, duplicates, and one crash-epoch
  // change, the follower converges on the full acknowledged history.
  ASSERT_TRUE(
      follower.wait_for_seq(primary.app->store().last_seq(), 30s))
      << "follower never caught up; stats: applied="
      << follower.stats().records_applied
      << " resyncs=" << follower.stats().resyncs_total
      << " errors=" << follower.stats().transport_errors;
  const ReplicationStats stats = follower.stats();
  EXPECT_GE(stats.resyncs_total, 2u);  // initial bootstrap + post-crash 409

  // Failover: promote the follower; it must hold every acknowledged
  // write, byte-identical to the restarted primary's copy.
  const std::uint64_t fresh = follower.promote();
  follower_app.set_role(PowerPlayApp::ReplRole::kPrimary);
  EXPECT_GT(fresh, primary.app->store().epoch());
  for (const std::string& name : acked) {
    const Response from_primary =
        primary.app->handle(get("/api/model?name=" + name));
    const Response from_follower =
        follower_app.handle(get("/api/model?name=" + name));
    ASSERT_EQ(from_primary.status, 200) << name;
    ASSERT_EQ(from_follower.status, 200) << name;
    EXPECT_EQ(from_primary.body, from_follower.body) << name;
  }
  // And the promoted store takes writes on its fresh epoch.
  follower_app.store().save_model(tiny_model("after_failover"));
  EXPECT_TRUE(follower_app.store().load_model("after_failover").has_value());
}

// ---------------------------------------------------------------------------
// TSan coverage: cached reads racing the apply path.
// ---------------------------------------------------------------------------

TEST(Replication, ConcurrentCachedReadsDuringApply) {
  TempDir primary_dir;
  TempDir follower_dir;
  PowerPlayApp primary{library::LibraryStore(primary_dir.path)};
  PowerPlayApp follower_app{library::LibraryStore(follower_dir.path)};
  follower_app.set_role(PowerPlayApp::ReplRole::kFollower, "http://x");

  auto transport = std::make_shared<FunctionTransport>(
      [&](const Request& r) { return primary.handle(r); });
  ReplicationFollower follower(follower_app.store(), transport,
                               fast_options());
  follower_app.set_repl_stats_source([&] { return follower.stats(); });
  follower.start();

  // Readers hammer cacheable routes on the follower while the apply
  // thread installs records and bumps the store revision under them.
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        EXPECT_EQ(follower_app.handle(get("/api/models")).status, 200);
        EXPECT_EQ(follower_app.handle(get("/healthz")).status, 200);
      }
    });
  }
  for (int i = 0; i < 40; ++i) {
    primary.store().save_model(tiny_model("race_" + std::to_string(i)));
  }
  EXPECT_TRUE(follower.wait_for_seq(primary.store().last_seq(), 30s));
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  follower.stop();

  const Response all = follower_app.handle(get("/api/models"));
  for (int i = 0; i < 40; ++i) {
    EXPECT_NE(all.body.find("race_" + std::to_string(i)), std::string::npos);
  }
}

}  // namespace
}  // namespace powerplay::web
