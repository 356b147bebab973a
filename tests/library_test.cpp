// Tests for the persistence layer: tokenizer, serialization round trips,
// the on-disk store, and user profiles.
#include "library/serialize.hpp"
#include "library/store.hpp"
#include "library/textio.hpp"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <limits>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "model/user_model.hpp"
#include "models/berkeley_library.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"

namespace powerplay::library {
namespace {

namespace fs = std::filesystem;

const model::ModelRegistry& lib() {
  static const model::ModelRegistry registry = models::berkeley_library();
  return registry;
}

/// Unique temp directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("pp_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

// --- textio -------------------------------------------------------------------

TEST(TextIo, TokenizesAllKinds) {
  const auto toks = tokenize_document("model \"x\" { n 1.5e-3 } # comment");
  ASSERT_EQ(toks.size(), 7u);  // incl. kEnd
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[1].kind, TokKind::kString);
  EXPECT_EQ(toks[2].kind, TokKind::kLBrace);
  EXPECT_EQ(toks[4].kind, TokKind::kNumber);
  EXPECT_DOUBLE_EQ(toks[4].number, 1.5e-3);
  EXPECT_EQ(toks[5].kind, TokKind::kRBrace);
}

TEST(TextIo, NegativeNumbersAndLineTracking) {
  const auto toks = tokenize_document("a\n-2.5\nb");
  EXPECT_DOUBLE_EQ(toks[1].number, -2.5);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
}

TEST(TextIo, StringEscapes) {
  const auto toks = tokenize_document(R"("say \"hi\" \\ there")");
  EXPECT_EQ(toks[0].text, "say \"hi\" \\ there");
}

TEST(TextIo, Errors) {
  EXPECT_THROW(tokenize_document("\"unterminated"), FormatError);
  EXPECT_THROW(tokenize_document("@"), FormatError);
}

TEST(TextIo, QuotedRoundTrip) {
  const std::string nasty = "a \"b\" \\c";
  const auto toks = tokenize_document(quoted(nasty));
  EXPECT_EQ(toks[0].text, nasty);
}

TEST(TextIo, NumberTextRoundTrips) {
  for (double v : {1.0, 0.1, 253e-15, 1.0 / 3.0, -2.5e6, 1e300}) {
    EXPECT_DOUBLE_EQ(std::stod(number_text(v)), v) << v;
  }
}

// --- number rendering differential -------------------------------------------

/// SplitMix64: a seeded, dependency-free stream for the corpus below.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

/// Over a million doubles: raw bit patterns (every class, NaN payloads
/// and subnormals included), short decimals as a user would type them,
/// ratios of small integers, and the special values and powers of two.
const std::vector<double>& number_corpus() {
  static const std::vector<double> corpus = [] {
    std::vector<double> out;
    SplitMix64 rng{20240613};
    for (int i = 0; i < 50000; ++i) {
      const std::uint64_t bits = rng.next();
      double v;
      std::memcpy(&v, &bits, sizeof v);
      out.push_back(v);
    }
    for (int i = 0; i < 2000; ++i) {  // subnormals: exponent field zero
      const std::uint64_t bits = rng.next() & 0x800fffffffffffffull;
      double v;
      std::memcpy(&v, &bits, sizeof v);
      out.push_back(v);
    }
    char text[64];
    for (int i = 0; i < 850000; ++i) {
      const int digits = 1 + static_cast<int>(rng.next() % 17);
      std::uint64_t mantissa = rng.next() % 100000000000000000ull;
      for (int d = digits; d < 17; ++d) mantissa /= 10;
      const int exponent = static_cast<int>(rng.next() % 80) - 40;
      std::snprintf(text, sizeof text, "%s%llue%d",
                    rng.next() % 2 ? "-" : "",
                    static_cast<unsigned long long>(mantissa), exponent);
      out.push_back(std::strtod(text, nullptr));
    }
    for (int i = 0; i < 100000; ++i) {
      out.push_back(static_cast<double>(rng.next() % 100000) /
                    static_cast<double>(1 + rng.next() % 1000));
    }
    using limits = std::numeric_limits<double>;
    for (double v : {0.0, -0.0, limits::infinity(), -limits::infinity(),
                     limits::quiet_NaN(), -limits::quiet_NaN(),
                     limits::denorm_min(), -limits::denorm_min(),
                     limits::min(), limits::max(), limits::lowest(),
                     limits::epsilon()}) {
      out.push_back(v);
    }
    for (int e = -1074; e <= 1023; ++e) {
      out.push_back(std::ldexp(1.0, e));
      out.push_back(-std::ldexp(1.0, e));
    }
    return out;
  }();
  return corpus;
}

/// number_text as it was first written: try every precision from 1.
std::string number_text_full_search(double v) {
  char buf[48];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(NumberFormat, NumberTextMatchesFullPrecisionSearch) {
  const auto& corpus = number_corpus();
  ASSERT_GE(corpus.size(), 1000000u);
  // The full search costs up to 17 printf/strtod rounds per value, so
  // the corpus is split over a few threads; each keeps its first
  // mismatch for the report.
  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::string> first(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < corpus.size(); i += kThreads) {
        const double v = corpus[i];
        const std::string want = number_text_full_search(v);
        const std::string got = number_text(v);
        if (got == want) continue;
        mismatches.fetch_add(1);
        if (first[t].empty()) {
          std::ostringstream os;
          os << std::hexfloat << v << ": " << got << " vs " << want;
          first[t] = os.str();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  for (const std::string& m : first) {
    if (!m.empty()) ADD_FAILURE() << m;
  }
}

// The CSV and parameter renderers (sheet/report.cpp) write numbers with
// std::to_chars(general, precision) in place of an ostream carrying
// setprecision(precision); the two must agree digit for digit.
TEST(NumberFormat, ToCharsGeneralMatchesOstreamPrecision) {
  std::ostringstream os;
  std::size_t mismatches = 0;
  char buf[64];
  for (double v : number_corpus()) {
    for (int precision : {9, 6}) {
      os.str("");
      os << std::setprecision(precision) << v;
      const auto end = std::to_chars(buf, buf + sizeof buf, v,
                                     std::chars_format::general, precision);
      const std::string got(buf, end.ptr);
      if (got != os.str() && ++mismatches <= 5) {
        ADD_FAILURE() << std::hexfloat << v << " at " << precision << ": "
                      << got << " vs " << os.str();
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(TextIo, CursorTypedAccess) {
  TokCursor cur(tokenize_document("model \"m\" { }"));
  cur.expect_ident("model");
  EXPECT_EQ(cur.take_string(), "m");
  cur.expect(TokKind::kLBrace);
  cur.expect(TokKind::kRBrace);
  EXPECT_TRUE(cur.at_end());
}

TEST(TextIo, CursorErrorsCarryLine) {
  TokCursor cur(tokenize_document("\n\nwrong"));
  try {
    cur.expect_ident("model");
    FAIL();
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// --- model serialization -------------------------------------------------------

model::UserModelDefinition sample_model() {
  model::UserModelDefinition def;
  def.name = "vq_lut";
  def.category = model::Category::kStorage;
  def.documentation = "grouped \"codebook\" model";
  def.params = {{"words", "entries", 1024, "", 1, 65536, true},
                {"bits", "word width", 24, "bits", 1, 64, true}};
  def.c_fullswing = "5e-12 + words*20e-15 + bits*500e-15 + words*bits*2.6e-15";
  def.area = "words * bits * 0.15e-9";
  return def;
}

TEST(Serialize, UserModelRoundTrip) {
  const auto def = sample_model();
  const auto back = parse_user_model(to_text(def));
  EXPECT_EQ(back.name, def.name);
  EXPECT_EQ(back.category, def.category);
  EXPECT_EQ(back.documentation, def.documentation);
  ASSERT_EQ(back.params.size(), 2u);
  EXPECT_EQ(back.params[0].name, "words");
  EXPECT_TRUE(back.params[0].integer);
  EXPECT_DOUBLE_EQ(back.params[1].default_value, 24);
  EXPECT_EQ(back.c_fullswing, def.c_fullswing);
  EXPECT_EQ(back.area, def.area);
  // And the round-tripped definition still evaluates identically.
  model::UserModel m1(def), m2(back);
  model::MapParamReader p({{"vdd", 1.5}, {"f", 5e5}, {"words", 1024.0},
                           {"bits", 24.0}});
  EXPECT_DOUBLE_EQ(m1.evaluate(p).total_power().si(),
                   m2.evaluate(p).total_power().si());
}

TEST(Serialize, PartialSwingFieldsRoundTrip) {
  model::UserModelDefinition def;
  def.name = "rs";
  def.c_partialswing = "10e-12";
  def.v_swing = "0.3";
  def.static_current = "1e-6";
  def.power_direct = "0.25";
  def.delay = "5e-9";
  const auto back = parse_user_model(to_text(def));
  EXPECT_EQ(back.c_partialswing, "10e-12");
  EXPECT_EQ(back.v_swing, "0.3");
  EXPECT_EQ(back.static_current, "1e-6");
  EXPECT_EQ(back.power_direct, "0.25");
  EXPECT_EQ(back.delay, "5e-9");
}

TEST(Serialize, ModelParseErrors) {
  EXPECT_THROW(parse_user_model("design \"x\" {}"), FormatError);
  EXPECT_THROW(parse_user_model("model \"x\" { bogus 1 }"), FormatError);
  EXPECT_THROW(parse_user_model("model \"x\" { category \"nope\" }"),
               FormatError);
  EXPECT_THROW(parse_user_model("model \"x\" {"), FormatError);
}

// --- design serialization --------------------------------------------------------

TEST(Serialize, DesignRoundTripPreservesPlayResult) {
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const std::string text = to_text(d);
  const sheet::Design back = parse_design(text, lib(), nullptr);
  EXPECT_EQ(back.name(), d.name());
  EXPECT_EQ(back.rows().size(), d.rows().size());
  EXPECT_NEAR(back.play().total.total_power().si(),
              d.play().total.total_power().si(), 1e-18);
}

TEST(Serialize, DesignFormulasSurviveRoundTrip) {
  const sheet::Design d = studies::make_luminance_impl1(lib());
  const sheet::Design back = parse_design(to_text(d), lib(), nullptr);
  const auto r = back.play();
  for (const auto& [name, value] : r.find_row("Read Bank")->shown_params) {
    if (name == "f") {
      EXPECT_DOUBLE_EQ(value, 125e3);
    }
  }
}

TEST(Serialize, DesignWithMacroNeedsResolver) {
  sheet::Design top("top");
  top.globals().set("vdd", 1.5);
  auto sub = std::make_shared<sheet::Design>("sub");
  sub->globals().set("f", 1e6);
  sub->add_row("r", lib().find_shared("register"));
  top.add_macro("M", sub);
  const std::string text = to_text(top);
  EXPECT_NE(text.find("macro \"sub\""), std::string::npos);
  EXPECT_THROW(parse_design(text, lib(), nullptr), FormatError);
  const sheet::Design back = parse_design(
      text, lib(), [&](const std::string& name) {
        EXPECT_EQ(name, "sub");
        return sub;
      });
  EXPECT_TRUE(back.rows()[0].is_macro());
}

TEST(Serialize, DisabledFlagAndNoteRoundTrip) {
  sheet::Design d("toggles");
  d.globals().set("vdd", 1.5);
  auto& a = d.add_row("A", lib().find_shared("register"));
  a.note = "kept alternative";
  a.enabled = false;
  d.add_row("B", lib().find_shared("register"));
  const std::string text = to_text(d);
  EXPECT_NE(text.find("disabled 1"), std::string::npos);
  EXPECT_NE(text.find("note \"kept alternative\""), std::string::npos);
  const sheet::Design back = parse_design(text, lib(), nullptr);
  EXPECT_FALSE(back.find_row("A")->enabled);
  EXPECT_TRUE(back.find_row("B")->enabled);
  EXPECT_EQ(back.find_row("A")->note, "kept alternative");
}

TEST(Serialize, UnknownModelNameRejected) {
  const std::string text =
      "design \"d\" { row \"r\" { model \"not_a_model\" } }";
  EXPECT_THROW(parse_design(text, lib(), nullptr), FormatError);
}

// --- store ---------------------------------------------------------------------

TEST(Store, ModelSaveLoadList) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  EXPECT_TRUE(store.list_models().empty());
  store.save_model(sample_model());
  EXPECT_EQ(store.list_models(), (std::vector<std::string>{"vq_lut"}));
  auto loaded = store.load_model("vq_lut");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->c_fullswing, sample_model().c_fullswing);
  EXPECT_FALSE(store.load_model("missing").has_value());
}

TEST(Store, ProprietaryFlagPersisted) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_model(sample_model(), /*proprietary=*/true);
  EXPECT_TRUE(store.is_proprietary("vq_lut"));
  auto other = sample_model();
  other.name = "open_model";
  store.save_model(other);
  EXPECT_FALSE(store.is_proprietary("open_model"));
  // Proprietary models still load locally (firewall-internal use).
  EXPECT_TRUE(store.load_model("vq_lut").has_value());
}

TEST(Store, LoadAllModelsIntoRegistry) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_model(sample_model());
  model::ModelRegistry reg;
  store.load_all_models(reg);
  EXPECT_TRUE(reg.contains("vq_lut"));
}

TEST(Store, DesignSaveLoadRecursesMacros) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  sheet::Design top("top_design");
  top.globals().set("vdd", 1.5);
  auto sub = std::make_shared<sheet::Design>("sub_design");
  sub->globals().set("f", 1e6);
  sub->add_row("r", lib().find_shared("register"));
  top.add_macro("M", sub);
  store.save_design(top);
  // The macro was saved implicitly.
  EXPECT_TRUE(store.has_design("sub_design"));
  auto back = store.load_design("top_design", lib());
  EXPECT_TRUE(back->rows()[0].is_macro());
  EXPECT_NEAR(back->play().total.total_power().si(),
              top.play().total.total_power().si(), 1e-18);
}

TEST(Store, MissingDesignThrows) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  EXPECT_THROW(store.load_design("ghost", lib()), FormatError);
}

TEST(Store, NameValidation) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  EXPECT_THROW(validate_store_name(""), FormatError);
  EXPECT_THROW(validate_store_name("../etc/passwd"), FormatError);
  EXPECT_THROW(validate_store_name("a/b"), FormatError);
  EXPECT_THROW(validate_store_name(".hidden"), FormatError);
  EXPECT_NO_THROW(validate_store_name("Luminance_1"));
}

TEST(Store, UserProfileRoundTrip) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  UserProfile p;
  p.username = "dlidsky";
  p.defaults = {{"vdd", 1.1}, {"f", 2e6}};
  p.designs = {"Luminance_1", "Luminance_2"};
  store.save_user(p);
  auto back = store.load_user("dlidsky");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->defaults, p.defaults);
  EXPECT_EQ(back->designs, p.designs);
  EXPECT_EQ(store.list_users(), (std::vector<std::string>{"dlidsky"}));
}

TEST(Store, PasswordHashing) {
  UserProfile p;
  p.username = "u";
  EXPECT_FALSE(p.has_password());
  EXPECT_TRUE(p.check_password(""));
  EXPECT_TRUE(p.check_password("anything"));  // open access
  p.set_password("hunter2");
  EXPECT_TRUE(p.has_password());
  EXPECT_TRUE(p.check_password("hunter2"));
  EXPECT_FALSE(p.check_password("hunter3"));
  // Hash is deterministic and not the plaintext.
  EXPECT_EQ(p.password_hash, password_digest("hunter2"));
  EXPECT_NE(p.password_hash, "hunter2");
  p.set_password("");
  EXPECT_FALSE(p.has_password());
}

TEST(Store, PasswordSurvivesRoundTrip) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  UserProfile p;
  p.username = "locked";
  p.set_password("pw");
  store.save_user(p);
  auto back = store.load_user("locked");
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->check_password("pw"));
  EXPECT_FALSE(back->check_password("nope"));
}

TEST(Store, EnsureUserCreatesDefaults) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  const UserProfile fresh = store.ensure_user("newbie");
  EXPECT_EQ(fresh.username, "newbie");
  EXPECT_TRUE(fresh.defaults.contains("vdd"));
  // Second call loads the same profile rather than resetting it.
  UserProfile changed = fresh;
  changed.defaults["vdd"] = 9.0;
  store.save_user(changed);
  EXPECT_DOUBLE_EQ(store.ensure_user("newbie").defaults["vdd"], 9.0);
}

TEST(Store, StudyDesignsRoundTripThroughStore) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  const sheet::Design pad = studies::make_infopad(lib());
  store.save_design(pad);
  EXPECT_TRUE(store.has_design("Custom_Chipset"));
  EXPECT_TRUE(store.has_design("Luminance_2"));
  auto back = store.load_design("InfoPad_System", lib());
  EXPECT_NEAR(back->play().total.total_power().si(),
              pad.play().total.total_power().si(), 1e-9);
}

// --- parsed-design cache --------------------------------------------------------

/// A one-row design over `lib`'s register model.
sheet::Design register_design(const std::string& name,
                              const model::ModelRegistry& registry,
                              double bits) {
  sheet::Design d(name);
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  d.add_row("r", registry.find_shared("register")).params.set("bits", bits);
  return d;
}

TEST(ParsedCache, UnchangedDesignLoadsToTheSamePointer) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_design(studies::make_infopad(lib()));
  const auto first = store.load_design("InfoPad_System", lib());
  const auto again = store.load_design("InfoPad_System", lib());
  EXPECT_EQ(first, again);
  // An unrelated commit changes nothing this design was parsed from.
  store.save_design(register_design("other", lib(), 4));
  EXPECT_EQ(store.load_design("InfoPad_System", lib()), first);
}

TEST(ParsedCache, ResavingAMacroInvalidatesItsParent) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  auto sub = std::make_shared<sheet::Design>(
      register_design("sub_design", lib(), 8));
  sheet::Design top("top_design");
  top.globals().set("vdd", 1.5);
  top.add_macro("M", sub);
  store.save_design(top);
  const auto before = store.load_design("top_design", lib());

  store.save_design(register_design("sub_design", lib(), 32));
  const auto after = store.load_design("top_design", lib());
  ASSERT_NE(after, before);
  EXPECT_EQ(after->rows()[0].macro, store.load_design("sub_design", lib()));
  const auto bits = after->rows()[0].macro->rows()[0].params.lookup("bits");
  ASSERT_TRUE(bits.has_value());
  EXPECT_EQ(std::get<double>(*bits->binding), 32.0);
  EXPECT_GT(after->play().total.total_power().si(),
            before->play().total.total_power().si());
  // Re-saving identical bytes keeps every parse.
  store.save_design(register_design("sub_design", lib(), 32));
  EXPECT_EQ(store.load_design("top_design", lib()), after);
}

TEST(ParsedCache, RegistryChangesInvalidate) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  model::ModelRegistry registry = models::berkeley_library();
  const auto define = [&](const std::string& c_fullswing) {
    model::UserModelDefinition def;
    def.name = "mymod";
    def.params = {{"bits", "width", 8, "bits", 1, 64, true}};
    def.c_fullswing = c_fullswing;
    registry.add_or_replace(std::make_shared<model::UserModel>(def));
  };
  define("bits * 1e-12");
  sheet::Design d("uses_mymod");
  d.globals().set("vdd", 1.0);
  d.globals().set("f", 1e6);
  d.add_row("m", registry.find_shared("mymod"));
  store.save_design(d);
  const auto first = store.load_design("uses_mymod", registry);
  EXPECT_EQ(store.load_design("uses_mymod", registry), first);

  define("bits * 5e-12");
  const auto redefined = store.load_design("uses_mymod", registry);
  ASSERT_NE(redefined, first);
  EXPECT_EQ(redefined->rows()[0].model, registry.find_shared("mymod"));
  EXPECT_DOUBLE_EQ(redefined->play().total.total_power().si(),
                   5 * first->play().total.total_power().si());

  // Another registry never shares a parse, even with equal contents.
  const model::ModelRegistry copy = registry;
  EXPECT_NE(store.load_design("uses_mymod", copy), redefined);
}

TEST(ParsedCache, EditingACopyNeverLeaksIntoTheNextLoad) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_design(studies::make_luminance_impl2(lib()));
  const auto loaded = store.load_design("Luminance_2", lib());
  const std::string text = to_text(*loaded);
  const double power = loaded->play().total.total_power().si();

  sheet::Design copy(*loaded);
  copy.globals().set("vdd", 3.3);
  copy.globals().set_formula("pixel_rate", "vdd * 1e6");
  copy.rows()[0].params.set("bits", 64.0);
  copy.rows()[1].enabled = false;
  copy.remove_row("Word Mux");
  copy.add_row("Extra", lib().find_shared("register"));

  const auto next = store.load_design("Luminance_2", lib());
  EXPECT_EQ(next, loaded);
  EXPECT_EQ(to_text(*next), text);
  EXPECT_EQ(next->play().total.total_power().si(), power);
}

TEST(ParsedCache, ConcurrentLoadsShareOnePointer) {
  TempDir tmp;
  LibraryStore store(tmp.path);
  store.save_design(studies::make_infopad(lib()));
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const sheet::Design>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      got[static_cast<std::size_t>(t)] =
          store.load_design("InfoPad_System", lib());
    });
  }
  for (std::thread& th : threads) th.join();
  for (const auto& design : got) EXPECT_EQ(design, got[0]);
  EXPECT_EQ(store.load_design("InfoPad_System", lib()), got[0]);
}

}  // namespace
}  // namespace powerplay::library
