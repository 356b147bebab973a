// Fault-injection tests for the durability layer: checksum footers,
// journal framing, and crash recovery.  The strategy throughout is to
// build a store, mutilate its files the way a crash or bit rot would
// (truncate at every interesting boundary, flip bytes), reopen, and
// assert the store comes back holding exactly the acknowledged state.
#include "library/durable.hpp"
#include "library/journal.hpp"
#include "library/replica.hpp"
#include "library/store.hpp"
#include "library/textio.hpp"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "models/berkeley_library.hpp"

namespace powerplay::library {
namespace {

namespace fs = std::filesystem;

/// Unique temp directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("pp_recovery_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spew(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

model::UserModelDefinition tiny_model(const std::string& name) {
  model::UserModelDefinition def;
  def.name = name;
  def.category = model::Category::kStorage;
  def.documentation = "recovery test model";
  def.params = {{"words", "entries", 256, "", 1, 65536, true}};
  def.c_fullswing = "words * 1e-15";
  return def;
}

std::vector<fs::path> files_in(const fs::path& dir) {
  std::vector<fs::path> out;
  if (!fs::exists(dir)) return out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) out.push_back(entry.path());
  }
  return out;
}

// --- checksum footer primitives -------------------------------------------

TEST(Durable, Crc32KnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Durable, Crc32MatchesTheBytewiseDefinition) {
  // The reference: one table lookup per byte, the textbook reflected
  // CRC-32 (polynomial 0xEDB88320).
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  const auto bytewise = [&](const std::string& data, std::uint32_t seed) {
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (const char ch : data) {
      c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::uint64_t state = 99;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  for (std::size_t size = 0; size < 300; ++size) {
    std::string data(size, '\0');
    for (char& ch : data) ch = static_cast<char>(next());
    const std::uint32_t seed = size % 3 == 0 ? 0 : next();
    // Every alignment of the 8-byte stride, too.
    for (std::size_t skip = 0; skip <= std::min<std::size_t>(size, 7);
         ++skip) {
      ASSERT_EQ(crc32(data.data() + skip, size - skip, seed),
                bytewise(data.substr(skip), seed))
          << "size " << size << " skip " << skip;
    }
  }
}

TEST(Durable, FooterRoundTrip) {
  const std::string payload = "model \"m\" {\n}\n";
  const std::string raw = with_checksum_footer(payload);
  std::string back;
  EXPECT_EQ(verify_snapshot(raw, &back), SnapshotState::kOk);
  EXPECT_EQ(back, payload);
}

TEST(Durable, FooterDetectsTruncationAtEveryLength) {
  const std::string raw = with_checksum_footer("model \"m\" {\n  a 1\n}\n");
  for (std::size_t keep = 0; keep < raw.size(); ++keep) {
    EXPECT_NE(verify_snapshot(raw.substr(0, keep), nullptr),
              SnapshotState::kOk)
        << "truncation to " << keep << " bytes went undetected";
  }
}

TEST(Durable, FooterDetectsEveryBitFlip) {
  const std::string raw = with_checksum_footer("design \"d\" {\n}\n");
  for (std::size_t i = 0; i < raw.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = raw;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      EXPECT_NE(verify_snapshot(bad, nullptr), SnapshotState::kOk)
          << "flip of bit " << bit << " at byte " << i << " went undetected";
    }
  }
}

TEST(Durable, MissingFooterIsNotOk) {
  // A file written by older code (or truncated clean at a line break)
  // has no footer; it must not verify.
  EXPECT_EQ(verify_snapshot("model \"m\" {\n}\n", nullptr),
            SnapshotState::kMissingFooter);
  EXPECT_EQ(verify_snapshot("", nullptr), SnapshotState::kMissingFooter);
}

TEST(Durable, AtomicWriteLeavesNoTemp) {
  TempDir tmp;
  const fs::path target = tmp.path / "out.txt";
  atomic_write_file(target, "hello\n");
  EXPECT_EQ(slurp(target), "hello\n");
  ASSERT_EQ(files_in(tmp.path).size(), 1u);
}

// --- journal framing -------------------------------------------------------

TEST(Journal, AppendAndReadBack) {
  TempDir tmp;
  const fs::path jpath = tmp.path / "journal.ppwal";
  {
    Journal j(jpath);
    EXPECT_TRUE(j.header_valid());
    EXPECT_EQ(j.tail_bytes(), 0u);
    j.append({JournalRecord::Op::kPut, "model", "m one", "contents\n"});
    j.append({JournalRecord::Op::kDelete, "design", "d", ""});
    EXPECT_GT(j.tail_bytes(), 0u);
  }
  Journal j(jpath);
  const auto r = j.read_all();
  EXPECT_TRUE(r.header_ok);
  EXPECT_FALSE(r.torn);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].op, JournalRecord::Op::kPut);
  EXPECT_EQ(r.records[0].kind, "model");
  EXPECT_EQ(r.records[0].name, "m one");  // quoted names survive spaces
  EXPECT_EQ(r.records[0].contents, "contents\n");
  EXPECT_EQ(r.records[1].op, JournalRecord::Op::kDelete);
  EXPECT_EQ(r.records[1].name, "d");
}

TEST(Journal, TruncationAtEveryByteYieldsPrefix) {
  TempDir tmp;
  const fs::path jpath = tmp.path / "journal.ppwal";
  std::vector<std::uint64_t> boundaries;  // bytes after header, per record
  {
    Journal j(jpath);
    for (int i = 0; i < 3; ++i) {
      j.append({JournalRecord::Op::kPut, "model", "m" + std::to_string(i),
                "body " + std::to_string(i) + "\n"});
      boundaries.push_back(j.tail_bytes());
    }
  }
  const std::string bytes = slurp(jpath);
  for (std::size_t keep = 0; keep <= bytes.size(); ++keep) {
    const auto r = Journal::parse(bytes.substr(0, keep));
    if (keep < Journal::kHeaderSize) {
      // Torn inside the header (or its position stamp): no record —
      // and no cursor — can be trusted.
      EXPECT_FALSE(r.header_ok) << keep;
      continue;
    }
    // Count how many whole records fit in `keep` bytes.
    std::size_t expected = 0;
    for (const std::uint64_t b : boundaries) {
      if (keep >= Journal::kHeaderSize + b) ++expected;
    }
    EXPECT_EQ(r.records.size(), expected) << "at " << keep << " bytes";
    // Torn exactly when some trailing bytes form no complete record.
    const bool at_boundary =
        expected == 0
            ? keep == Journal::kHeaderSize
            : keep == Journal::kHeaderSize + boundaries[expected - 1];
    EXPECT_EQ(r.torn, !at_boundary) << "at " << keep << " bytes";
  }
}

TEST(Journal, BitFlipStopsReplayAtFlippedRecord) {
  TempDir tmp;
  const fs::path jpath = tmp.path / "journal.ppwal";
  std::uint64_t first_end = 0;
  {
    Journal j(jpath);
    j.append({JournalRecord::Op::kPut, "model", "a", "aaa\n"});
    first_end = Journal::kHeaderSize + j.tail_bytes();
    j.append({JournalRecord::Op::kPut, "model", "b", "bbb\n"});
  }
  const std::string bytes = slurp(jpath);
  // Flip one bit in every byte of the second record; the first must
  // still replay, the second never.
  for (std::size_t i = first_end; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    const auto r = Journal::parse(bad);
    EXPECT_TRUE(r.torn) << "flip at " << i;
    ASSERT_EQ(r.records.size(), 1u) << "flip at " << i;
    EXPECT_EQ(r.records[0].name, "a");
  }
}

TEST(Journal, FailedAppendDoesNotOrphanLaterRecords) {
  // A write that dies mid-frame (ENOSPC/EIO) must not leave torn bytes
  // in place: the O_APPEND descriptor would put later acknowledged
  // records after them, where replay — which stops at the first torn
  // frame — could never reach them.
  TempDir tmp;
  Journal j(tmp.path / "journal.ppwal");
  std::vector<std::string> expected;
  int seq = 0;
  for (const std::uint64_t cut : {0u, 1u, 4u, 8u, 13u}) {
    j.fail_next_write_for_testing(cut);
    EXPECT_THROW(
        j.append({JournalRecord::Op::kPut, "model", "torn", "torn\n"}),
        FormatError)
        << "cut at " << cut;
    // The torn bytes were truncated away; the next append is reachable.
    const std::string name = "ok" + std::to_string(seq++);
    j.append({JournalRecord::Op::kPut, "model", name, "body\n"});
    expected.push_back(name);
    const auto r = j.read_all();
    EXPECT_TRUE(r.header_ok) << "cut at " << cut;
    EXPECT_FALSE(r.torn) << "cut at " << cut;
    ASSERT_EQ(r.records.size(), expected.size()) << "cut at " << cut;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(r.records[i].name, expected[i]);
    }
  }
}

TEST(Journal, RotateEmptiesAndStaysAppendable) {
  TempDir tmp;
  Journal j(tmp.path / "journal.ppwal");
  j.append({JournalRecord::Op::kPut, "model", "x", "x\n"});
  j.rotate();
  EXPECT_EQ(j.tail_bytes(), 0u);
  j.append({JournalRecord::Op::kPut, "model", "y", "y\n"});
  const auto r = j.read_all();
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].name, "y");
}

// --- store crash recovery --------------------------------------------------

TEST(StoreRecovery, CorruptSnapshotRecoveredFromJournal) {
  TempDir tmp;
  {
    LibraryStore store(tmp.path);
    store.save_model(tiny_model("precious"));
  }
  // Bit rot / torn write on the materialized file.
  const fs::path victim = tmp.path / "models" / "precious.ppmodel";
  std::string bytes = slurp(victim);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  spew(victim, bytes);

  LibraryStore store(tmp.path);
  const auto loaded = store.load_model("precious");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->c_fullswing, tiny_model("precious").c_fullswing);
  const DurabilityStats stats = store.durability();
  EXPECT_GE(stats.journal_replayed, 1u);
  EXPECT_GE(stats.quarantined_files, 1u);
  EXPECT_FALSE(files_in(tmp.path / "quarantine").empty());
}

TEST(StoreRecovery, MissingSnapshotsRebuiltFromJournal) {
  TempDir tmp;
  UserProfile profile;
  profile.username = "alice";
  profile.defaults = {{"vdd", 3.3}};
  {
    LibraryStore store(tmp.path);
    store.save_model(tiny_model("m1"));
    store.save_model(tiny_model("m2"));
    store.save_user(profile);
  }
  // Worst case: every materialized file vanished; only the journal is
  // left.
  for (const char* dir : {"models", "users"}) {
    for (const fs::path& f : files_in(tmp.path / dir)) fs::remove(f);
  }

  LibraryStore store(tmp.path);
  EXPECT_EQ(store.list_models(), (std::vector<std::string>{"m1", "m2"}));
  const auto alice = store.load_user("alice");
  ASSERT_TRUE(alice.has_value());
  EXPECT_DOUBLE_EQ(alice->defaults.at("vdd"), 3.3);
  EXPECT_EQ(store.durability().journal_replayed, 3u);
}

TEST(StoreRecovery, TornJournalTailSweepRecoversAcknowledgedPrefix) {
  TempDir tmp;
  const int kModels = 3;
  {
    LibraryStore store(tmp.path);
    for (int i = 0; i < kModels; ++i) {
      store.save_model(tiny_model("m" + std::to_string(i)));
    }
  }
  const std::string journal_bytes = slurp(tmp.path / "journal.ppwal");

  // Crash-simulate: at every truncation point of the journal (with all
  // snapshots gone), recovery must yield exactly the models whose
  // records frame-complete before the cut — the acknowledged prefix.
  // Every byte of the final 80 (covering the last record's frame and
  // both of its boundaries), every 7th byte before that.
  const auto full = Journal::parse(journal_bytes);
  ASSERT_EQ(full.records.size(), static_cast<std::size_t>(kModels));
  ASSERT_FALSE(full.torn);
  std::vector<std::size_t> cuts;
  const std::size_t tail_start =
      journal_bytes.size() > 80 ? journal_bytes.size() - 80
                                : Journal::kMagicSize;
  for (std::size_t keep = Journal::kMagicSize; keep < tail_start; keep += 7) {
    cuts.push_back(keep);
  }
  for (std::size_t keep = tail_start; keep <= journal_bytes.size(); ++keep) {
    cuts.push_back(keep);
  }

  for (const std::size_t keep : cuts) {
    const std::string cut = journal_bytes.substr(0, keep);
    const auto expected = Journal::parse(cut);
    std::set<std::string> expected_names;
    for (const auto& rec : expected.records) expected_names.insert(rec.name);

    TempDir crash;
    spew(crash.path / "journal.ppwal", cut);
    {
      LibraryStore store(crash.path);
      const auto names = store.list_models();
      EXPECT_EQ(std::set<std::string>(names.begin(), names.end()),
                expected_names)
          << "journal truncated to " << keep << " bytes";
      for (const std::string& name : expected_names) {
        EXPECT_TRUE(store.load_model(name).has_value()) << name;
      }
      EXPECT_EQ(store.durability().journal_replayed,
                expected.records.size());
    }
    // Recovery compacted the journal: a second open replays nothing
    // and still sees every acknowledged model.
    LibraryStore again(crash.path);
    EXPECT_EQ(again.durability().journal_replayed, 0u);
    EXPECT_EQ(again.list_models().size(), expected_names.size());
  }
}

TEST(StoreRecovery, DeleteOpsReplayCorrectly) {
  TempDir tmp;
  {
    LibraryStore store(tmp.path);
    store.save_model(tiny_model("doomed"));
    store.save_model(tiny_model("kept"));
    EXPECT_TRUE(store.remove_model("doomed"));
    EXPECT_FALSE(store.remove_model("doomed"));  // already gone
  }
  // Wipe the materialized tree; replay must re-create "kept" and
  // re-delete "doomed".
  for (const fs::path& f : files_in(tmp.path / "models")) fs::remove(f);
  LibraryStore store(tmp.path);
  EXPECT_EQ(store.list_models(), (std::vector<std::string>{"kept"}));
}

TEST(StoreRecovery, StaleTempFilesSweptAtOpen) {
  TempDir tmp;
  { LibraryStore store(tmp.path); }
  const fs::path stale = tmp.path / "models" / "half.ppmodel.tmp999.0";
  spew(stale, "partial write that never committed");
  LibraryStore store(tmp.path);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(store.list_models().empty());
}

TEST(StoreRecovery, DottedTmpNamesAreNotSweptAsTempFiles) {
  // Store names may contain ".tmp" (dots are legal); the recovery
  // sweep must only unlink the exact "<ext>.tmp<pid>.<seq>" temp shape,
  // never a materialized entry.  flush() first so the journal is empty
  // and replay could not mask an over-eager sweep.
  TempDir tmp;
  {
    LibraryStore store(tmp.path);
    store.save_model(tiny_model("rev.tmp"));
    store.save_model(tiny_model("v2.tmp31.7"));
    store.flush();
  }
  LibraryStore store(tmp.path);
  EXPECT_TRUE(store.load_model("rev.tmp").has_value());
  EXPECT_TRUE(store.load_model("v2.tmp31.7").has_value());
  EXPECT_EQ(store.durability().quarantined_files, 0u);
  const FsckReport report = fsck_store(tmp.path);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.files_checked, 2u);  // fsck verifies them too
}

TEST(StoreRecovery, ConcurrentCommitsWithRotationLoseNothing) {
  // Distinct users' writes hit commit() concurrently; aggressive
  // rotation must never truncate a record another thread has appended
  // (acknowledged) but not yet applied.
  TempDir tmp;
  StoreOptions aggressive;
  aggressive.journal_rotate_bytes = 1;  // rotate after every commit
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  {
    LibraryStore store(tmp.path, aggressive);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&store, t] {
        for (int i = 0; i < kPerThread; ++i) {
          UserProfile p;
          p.username =
              "u" + std::to_string(t) + "_" + std::to_string(i);
          p.defaults = {{"vdd", 1.0 + t}};
          store.save_user(p);
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  LibraryStore store(tmp.path);
  EXPECT_EQ(store.list_users().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(
          store.load_user("u" + std::to_string(t) + "_" +
                          std::to_string(i))
              .has_value());
    }
  }
}

TEST(StoreRecovery, QuarantinePreservesCorruptBytes) {
  TempDir tmp;
  {
    LibraryStore store(tmp.path);
    store.save_model(tiny_model("m"));
  }
  const std::string garbage = "!! not a model at all !!";
  spew(tmp.path / "models" / "m.ppmodel", garbage);
  LibraryStore store(tmp.path);
  // The corrupt bytes live on in quarantine/ — never silently deleted.
  bool found = false;
  for (const fs::path& f : files_in(tmp.path / "quarantine")) {
    if (slurp(f) == garbage) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(store.durability().quarantined_files, 1u);
}

TEST(StoreRecovery, ForeignJournalQuarantinedNotDeleted) {
  TempDir tmp;
  { LibraryStore store(tmp.path); }
  spew(tmp.path / "journal.ppwal", "this is no journal");
  LibraryStore store(tmp.path);
  EXPECT_GE(store.durability().quarantined_files, 1u);
  // And the journal works again.
  store.save_model(tiny_model("after"));
  EXPECT_TRUE(store.load_model("after").has_value());
}

TEST(StoreRecovery, RotationBoundsJournalAndSurvivesReopen) {
  TempDir tmp;
  StoreOptions tiny;
  tiny.journal_rotate_bytes = 1;  // rotate after every commit
  {
    LibraryStore store(tmp.path, tiny);
    store.save_model(tiny_model("a"));
    store.save_model(tiny_model("b"));
    EXPECT_GE(store.durability().journal_rotations, 2u);
  }
  LibraryStore store(tmp.path);
  // Nothing left to replay — the snapshots carry the state.
  EXPECT_EQ(store.durability().journal_replayed, 0u);
  EXPECT_TRUE(store.load_model("a").has_value());
  EXPECT_TRUE(store.load_model("b").has_value());
}

TEST(StoreRecovery, FlushCompactsJournal) {
  TempDir tmp;
  {
    LibraryStore store(tmp.path);
    store.save_model(tiny_model("m"));
    store.flush();
  }
  // Header-only (magic + position stamp), no record tail left behind.
  EXPECT_EQ(slurp(tmp.path / "journal.ppwal").size(), Journal::kHeaderSize);
  {
    Journal j(tmp.path / "journal.ppwal");
    EXPECT_EQ(j.tail_bytes(), 0u);
  }
  LibraryStore store(tmp.path);
  EXPECT_EQ(store.durability().journal_replayed, 0u);
  EXPECT_TRUE(store.load_model("m").has_value());
}

TEST(StoreRecovery, CorruptUserReportedAbsent) {
  TempDir tmp;
  {
    LibraryStore store(tmp.path);
    UserProfile p;
    p.username = "bob";
    store.save_user(p);
    store.flush();  // discard journal so recovery cannot resurrect bob
  }
  spew(tmp.path / "users" / "bob.ppuser", "user \"bob\" {}\n");  // no footer
  LibraryStore store(tmp.path);
  EXPECT_FALSE(store.load_user("bob").has_value());
  EXPECT_GE(store.durability().quarantined_files, 1u);
}

TEST(StoreRecovery, NoTempFilesVisibleAfterSaves) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  for (int i = 0; i < 8; ++i) {
    store.save_model(tiny_model("m" + std::to_string(i)));
  }
  for (const char* dir : {"models", "designs", "users"}) {
    for (const fs::path& f : files_in(tmp.path / dir)) {
      EXPECT_EQ(f.filename().string().find(".tmp"), std::string::npos)
          << f;
    }
  }
}

// --- replication framing and shipped replay --------------------------------

JournalRecord put_record(const std::string& name) {
  JournalRecord r;
  r.op = JournalRecord::Op::kPut;
  r.kind = "model";
  r.name = name;
  r.contents = to_text(tiny_model(name));
  return r;
}

TEST(Journal, StampsEpochAndContiguousSeqsAcrossRotation) {
  TempDir tmp;
  Journal j(tmp.path / "j.ppwal");
  EXPECT_EQ(j.epoch(), 1u);
  EXPECT_EQ(j.base_seq(), 1u);
  EXPECT_EQ(j.append(put_record("a")), 1u);
  EXPECT_EQ(j.append(put_record("b")), 2u);
  // Rotation opens a new epoch but sequence numbers keep counting: a
  // follower's position is never reused for different bytes.
  j.rotate();
  EXPECT_EQ(j.epoch(), 2u);
  EXPECT_EQ(j.base_seq(), 3u);
  EXPECT_EQ(j.append(put_record("c")), 3u);

  const Journal::ReadResult r = j.read_all();
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_EQ(r.base_seq, 3u);
  EXPECT_EQ(r.records[0].epoch, 2u);
  EXPECT_EQ(r.records[0].seq, 3u);
}

TEST(Journal, RotateToEpochEnforcesFloorAndMinSeq) {
  TempDir tmp;
  Journal j(tmp.path / "j.ppwal");
  j.append(put_record("a"));
  j.rotate_to_epoch(7, 42);
  EXPECT_EQ(j.epoch(), 7u);
  EXPECT_EQ(j.base_seq(), 42u);
  EXPECT_EQ(j.append(put_record("b")), 42u);
  // Position survives a reopen.
  Journal again(tmp.path / "j.ppwal");
  EXPECT_EQ(again.epoch(), 7u);
  EXPECT_EQ(again.last_seq(), 42u);
}

TEST(Journal, LegacyV1FileParsesAndRecoveryUpgradesIt) {
  TempDir tmp;
  // Hand-craft a v1 journal: magic + one frame of
  // u32 len | u32 crc32(payload) | payload.
  const std::string payload =
      "put model \"legacy\"\n" + to_text(tiny_model("legacy"));
  std::string bytes = "ppwal v1\n";
  put_u32le(bytes, static_cast<std::uint32_t>(payload.size()));
  put_u32le(bytes, crc32(payload.data(), payload.size()));
  bytes += payload;
  spew(tmp.path / "journal.ppwal", bytes);

  const Journal::ReadResult parsed = Journal::parse(bytes);
  EXPECT_TRUE(parsed.header_ok);
  EXPECT_EQ(parsed.version, 1);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].name, "legacy");
  EXPECT_EQ(parsed.records[0].epoch, 0u);  // v1 predates epochs
  EXPECT_EQ(parsed.records[0].seq, 1u);    // synthesized position

  // Opening the store replays the record and rotates the file up to v2.
  LibraryStore store(tmp.path);
  EXPECT_TRUE(store.load_model("legacy").has_value());
  Journal upgraded(tmp.path / "journal.ppwal");
  EXPECT_EQ(upgraded.version(), 2);
  EXPECT_GE(upgraded.epoch(), 1u);
  store.save_model(tiny_model("post_upgrade"));  // appendable again
}

/// Build a primary with `n` committed models and a follower bootstrapped
/// from its snapshot; returns the records shipped since the snapshot.
struct ReplPair {
  TempDir primary_dir;
  TempDir follower_dir;
  LibraryStore primary;
  LibraryStore follower;
  ReplPair() : primary(primary_dir.path), follower(follower_dir.path) {}

  void bootstrap() {
    follower.install_replication_snapshot(
        primary.export_replication_snapshot());
  }
  std::vector<JournalRecord> ship() {
    const ReplCursor cursor = follower.replication_cursor();
    return primary
        .read_replication_feed(cursor.epoch, cursor.seq, 64u << 20)
        .records;
  }
};

TEST(Replication, SnapshotBootstrapThenIncrementalApply) {
  ReplPair pair;
  pair.primary.save_model(tiny_model("base"));
  pair.bootstrap();
  EXPECT_TRUE(pair.follower.load_model("base").has_value());
  ASSERT_TRUE(pair.follower.replication_cursor().valid);

  pair.primary.save_model(tiny_model("after"));
  const auto records = pair.ship();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(pair.follower.apply_replicated(records[0]),
            LibraryStore::ReplApply::kApplied);
  pair.follower.flush_replication_cursor();
  EXPECT_TRUE(pair.follower.load_model("after").has_value());
  EXPECT_EQ(pair.follower.replication_cursor().seq,
            pair.primary.last_seq());
}

TEST(Replication, DuplicateFramesAreIdempotentlySkipped) {
  ReplPair pair;
  pair.bootstrap();
  pair.primary.save_model(tiny_model("m"));
  const auto records = pair.ship();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(pair.follower.apply_replicated(records[0]),
            LibraryStore::ReplApply::kApplied);
  // A retransmitted batch re-delivers the same frame: recognized by
  // position, not re-applied.
  EXPECT_EQ(pair.follower.apply_replicated(records[0]),
            LibraryStore::ReplApply::kDuplicate);
  EXPECT_EQ(pair.follower.replication_cursor().seq, records[0].seq);
}

TEST(Replication, GapRefusedAndResolvedByResync) {
  ReplPair pair;
  pair.bootstrap();
  pair.primary.save_model(tiny_model("m1"));
  pair.primary.save_model(tiny_model("m2"));
  auto records = pair.ship();
  ASSERT_EQ(records.size(), 2u);
  // Deliver the second record without the first: a hole the follower
  // must not paper over.
  EXPECT_EQ(pair.follower.apply_replicated(records[1]),
            LibraryStore::ReplApply::kGap);
  EXPECT_FALSE(pair.follower.load_model("m2").has_value());
  // The recovery protocol: drop the cursor, take a fresh snapshot.
  pair.follower.invalidate_replication_cursor();
  EXPECT_FALSE(pair.follower.replication_cursor().valid);
  pair.bootstrap();
  EXPECT_TRUE(pair.follower.load_model("m1").has_value());
  EXPECT_TRUE(pair.follower.load_model("m2").has_value());
}

TEST(Replication, EpochMismatchForcesRebootstrap) {
  ReplPair pair;
  pair.bootstrap();
  pair.primary.save_model(tiny_model("m"));
  auto records = pair.ship();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(pair.follower.apply_replicated(records[0]),
            LibraryStore::ReplApply::kApplied);
  // The primary compacts: new epoch, same seqs continue.
  pair.primary.flush();
  pair.primary.save_model(tiny_model("post_rotate"));
  const ReplCursor cursor = pair.follower.replication_cursor();
  const auto feed = pair.primary.read_replication_feed(
      cursor.epoch, cursor.seq, 64u << 20);
  EXPECT_FALSE(feed.epoch_ok);  // 409 on the wire
  // Shipping a post-rotation record anyway is refused by epoch.
  auto post = pair.primary
                  .read_replication_feed(pair.primary.epoch(),
                                         cursor.seq, 64u << 20)
                  .records;
  ASSERT_FALSE(post.empty());
  EXPECT_EQ(pair.follower.apply_replicated(post.back()),
            LibraryStore::ReplApply::kEpochMismatch);
  // Snapshot re-bootstrap converges.
  pair.bootstrap();
  EXPECT_TRUE(pair.follower.load_model("post_rotate").has_value());
  EXPECT_EQ(pair.follower.replication_cursor().epoch,
            pair.primary.epoch());
}

TEST(Replication, TornFeedPrefixAppliesRemainderRefetched) {
  ReplPair pair;
  pair.bootstrap();
  pair.primary.save_model(tiny_model("m1"));
  pair.primary.save_model(tiny_model("m2"));
  const ReplCursor cursor = pair.follower.replication_cursor();
  const auto feed = pair.primary.read_replication_feed(
      cursor.epoch, cursor.seq, 64u << 20);
  ASSERT_EQ(feed.records.size(), 2u);
  std::string wire = Journal::encode_stream(feed.epoch, cursor.seq + 1,
                                            feed.records);
  // The connection dies mid-body: the tail of the second frame is gone.
  const Journal::ReadResult torn =
      Journal::parse(wire.substr(0, wire.size() - 5));
  EXPECT_TRUE(torn.header_ok);
  EXPECT_TRUE(torn.torn);
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_EQ(pair.follower.apply_replicated(torn.records[0]),
            LibraryStore::ReplApply::kApplied);
  // Next poll re-fetches from the advanced cursor and completes.
  for (const JournalRecord& record : pair.ship()) {
    EXPECT_EQ(pair.follower.apply_replicated(record),
              LibraryStore::ReplApply::kApplied);
  }
  EXPECT_TRUE(pair.follower.load_model("m2").has_value());
}

TEST(Replication, PromoteOpensFreshEpochAboveEverything) {
  ReplPair pair;
  pair.primary.save_model(tiny_model("m"));
  pair.bootstrap();
  const std::uint64_t primary_epoch = pair.primary.epoch();
  const std::uint64_t primary_seq = pair.primary.last_seq();
  const std::uint64_t fresh = pair.follower.promote();
  EXPECT_GT(fresh, primary_epoch);
  EXPECT_FALSE(pair.follower.replication_cursor().valid);
  // The promoted store is writable and its seqs continue, never reuse.
  pair.follower.save_model(tiny_model("written_after_failover"));
  EXPECT_GT(pair.follower.last_seq(), primary_seq);
  EXPECT_TRUE(pair.follower.load_model("m").has_value());
}

// --- fsck -------------------------------------------------------------------

TEST(Fsck, CleanStoreIsClean) {
  TempDir tmp;
  {
    LibraryStore store(tmp.path);
    store.save_model(tiny_model("m"));
  }
  const FsckReport report = fsck_store(tmp.path);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.files_checked, 1u);
  EXPECT_TRUE(report.journal_present);
  EXPECT_EQ(report.journal_records, 1u);
}

TEST(Fsck, DetectsCorruptionWithoutMutating) {
  TempDir tmp;
  {
    LibraryStore store(tmp.path);
    store.save_model(tiny_model("m"));
  }
  const fs::path victim = tmp.path / "models" / "m.ppmodel";
  std::string bytes = slurp(victim);
  bytes[0] = static_cast<char>(bytes[0] ^ 1);
  spew(victim, bytes);
  // Torn journal tail too.
  const std::string journal = slurp(tmp.path / "journal.ppwal");
  spew(tmp.path / "journal.ppwal",
       journal.substr(0, journal.size() - 3));

  const FsckReport report = fsck_store(tmp.path);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.corrupt, 1u);
  EXPECT_TRUE(report.journal_torn);
  EXPECT_FALSE(report.problems.empty());
  // Read-only: the corrupt file is still at its original path and
  // nothing was quarantined.
  EXPECT_TRUE(fs::exists(victim));
  EXPECT_TRUE(files_in(tmp.path / "quarantine").empty());
}

TEST(Fsck, ReportsReplicationFramingAndContinuity) {
  TempDir tmp;
  {
    LibraryStore store(tmp.path);
    store.save_model(tiny_model("m1"));
    store.save_model(tiny_model("m2"));
  }
  const FsckReport report = fsck_store(tmp.path);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.journal_version, 2);
  EXPECT_EQ(report.journal_epoch, 1u);
  EXPECT_EQ(report.journal_base_seq, 1u);
  EXPECT_EQ(report.journal_last_seq, 2u);
  EXPECT_TRUE(report.journal_sequence_ok);
  EXPECT_FALSE(report.cursor_present);
}

TEST(Fsck, DetectsSequenceDiscontinuity) {
  TempDir tmp;
  Journal j(tmp.path / "journal.ppwal");
  j.append(put_record("a"));
  // Splice a frame whose stamp skips a position: encode a record at
  // seq 3 after a file ending at seq 1 (encode_stream emits a header
  // plus frames; keep only the frame).
  JournalRecord skipped = put_record("b");
  skipped.epoch = 1;
  skipped.seq = 3;
  const std::string encoded = Journal::encode_stream(1, 3, {skipped});
  std::string bytes = slurp(tmp.path / "journal.ppwal");
  bytes += encoded.substr(Journal::kHeaderSize);
  spew(tmp.path / "journal.ppwal", bytes);

  const FsckReport report = fsck_store(tmp.path);
  EXPECT_FALSE(report.journal_sequence_ok);
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.problems.empty());
}

TEST(Fsck, ReportsFollowerCursor) {
  TempDir primary_dir;
  TempDir follower_dir;
  {
    LibraryStore primary(primary_dir.path);
    primary.save_model(tiny_model("m"));
    LibraryStore follower(follower_dir.path);
    follower.install_replication_snapshot(
        primary.export_replication_snapshot());
  }
  const FsckReport report = fsck_store(follower_dir.path);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.cursor_present);
  EXPECT_TRUE(report.cursor_ok);
  EXPECT_EQ(report.cursor_epoch, 1u);
  EXPECT_EQ(report.cursor_seq, 1u);

  // A scribbled cursor file is corruption, not silence.
  spew(follower_dir.path / "repl.cursor", "not a cursor\n");
  const FsckReport bad = fsck_store(follower_dir.path);
  EXPECT_FALSE(bad.cursor_ok);
  EXPECT_FALSE(bad.clean());
}

// --- parsed-design cache vs. durability ------------------------------------
//
// load_design caches parses, but every load still reads and verifies
// the file; these cases check that nothing the durability layer does
// to a design file can be masked by a cached parse.

const model::ModelRegistry& registry() {
  static const model::ModelRegistry lib = models::berkeley_library();
  return lib;
}

sheet::Design one_row_design(const std::string& name, double vdd) {
  sheet::Design d(name);
  d.globals().set("vdd", vdd);
  d.globals().set("f", 1e6);
  d.add_row("r", registry().find_shared("register"));
  return d;
}

double loaded_vdd(const LibraryStore& store, const std::string& name) {
  const auto design = store.load_design(name, registry());
  return std::get<double>(*design->globals().lookup("vdd")->binding);
}

TEST(ParsedCache, CorruptionAfterACachedLoadStillQuarantines) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_design(one_row_design("d", 1.5));
  ASSERT_EQ(loaded_vdd(store, "d"), 1.5);  // parsed and cached

  const fs::path file = tmp.path / "designs" / "d.ppdesign";
  std::string bytes = slurp(file);
  bytes[bytes.find("1.5")] = '7';  // bit rot inside the checksummed body
  spew(file, bytes);

  EXPECT_THROW((void)store.load_design("d", registry()), FormatError);
  EXPECT_EQ(store.durability().quarantined_files, 1u);
  EXPECT_FALSE(fs::exists(file));
  bool preserved = false;
  for (const fs::path& f : files_in(tmp.path / "quarantine")) {
    if (slurp(f) == bytes) preserved = true;
  }
  EXPECT_TRUE(preserved);
  EXPECT_THROW((void)store.load_design("d", registry()), FormatError);

  store.save_design(one_row_design("d", 1.2));
  EXPECT_EQ(loaded_vdd(store, "d"), 1.2);
}

TEST(ParsedCache, RemovedDesignIsGoneAndReSavedOneIsNew) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_design(one_row_design("d", 1.5));
  ASSERT_EQ(loaded_vdd(store, "d"), 1.5);
  ASSERT_TRUE(store.remove_design("d"));
  EXPECT_THROW((void)store.load_design("d", registry()), FormatError);
  store.save_design(one_row_design("d", 0.9));
  EXPECT_EQ(loaded_vdd(store, "d"), 0.9);
}

TEST(ParsedCache, FollowerSeesReplicatedRecordsAndSnapshotInstalls) {
  ReplPair pair;
  pair.primary.save_design(one_row_design("d", 1.5));
  pair.primary.save_design(one_row_design("gone", 1.5));
  pair.bootstrap();
  ASSERT_EQ(loaded_vdd(pair.follower, "d"), 1.5);
  ASSERT_EQ(loaded_vdd(pair.follower, "gone"), 1.5);

  // A shipped commit rewrites the follower's file.
  pair.primary.save_design(one_row_design("d", 2.0));
  for (const JournalRecord& record : pair.ship()) {
    ASSERT_EQ(pair.follower.apply_replicated(record),
              LibraryStore::ReplApply::kApplied);
  }
  EXPECT_EQ(loaded_vdd(pair.follower, "d"), 2.0);

  // A snapshot install replaces the whole tree: changed designs reload,
  // designs absent from the snapshot are gone.
  pair.primary.save_design(one_row_design("d", 3.0));
  ASSERT_TRUE(pair.primary.remove_design("gone"));
  pair.bootstrap();
  EXPECT_EQ(loaded_vdd(pair.follower, "d"), 3.0);
  EXPECT_THROW((void)pair.follower.load_design("gone", registry()),
               FormatError);
}

}  // namespace
}  // namespace powerplay::library
