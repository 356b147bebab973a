// End-to-end tests of the PowerPlay web application: the paper's
// login -> menu -> library -> model form -> spreadsheet -> Play loop,
// plus the model-creation form and the export API.
#include "web/app.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "expr/ast.hpp"
#include "library/textio.hpp"
#include "models/berkeley_library.hpp"
#include "sheet/report.hpp"
#include "sheet/sweep.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"
#include "web/client.hpp"
#include "web/html.hpp"
#include "web/server.hpp"

namespace powerplay::web {
namespace {

namespace fs = std::filesystem;

struct AppFixture : ::testing::Test {
  fs::path dir;
  std::unique_ptr<PowerPlayApp> app;
  std::unique_ptr<HttpServer> server;

  void SetUp() override {
    static int counter = 0;
    dir = fs::temp_directory_path() /
          ("pp_app_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++));
    fs::create_directories(dir);
    app = std::make_unique<PowerPlayApp>(library::LibraryStore(dir));
    server = std::make_unique<HttpServer>(
        0, [this](const Request& r) { return app->handle(r); });
    server->start();
  }

  void TearDown() override {
    server->stop();
    fs::remove_all(dir);
  }

  [[nodiscard]] Response get(const std::string& target) const {
    return http_get(server->port(), target);
  }
  [[nodiscard]] Response post(const std::string& path,
                              const Params& form) const {
    return http_post_form(server->port(), path, form);
  }
};

TEST_F(AppFixture, RootShowsIdentificationForm) {
  const Response r = get("/");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("identify"), std::string::npos);
  EXPECT_NE(r.body.find("name=\"user\""), std::string::npos);
}

TEST_F(AppFixture, MenuCreatesProfileAndShowsDefaults) {
  const Response r = get("/menu?user=dlidsky");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("dlidsky"), std::string::npos);
  EXPECT_NE(r.body.find("vdd"), std::string::npos);
  // Profile persisted.
  EXPECT_TRUE(app->store().load_user("dlidsky").has_value());
}

TEST_F(AppFixture, MenuWithoutUserIsBadRequest) {
  EXPECT_EQ(get("/menu").status, 400);
}

TEST_F(AppFixture, LibraryListsModelsByCategory) {
  const Response r = get("/library?user=dl");
  EXPECT_EQ(r.status, 200);
  for (const char* expect :
       {"computation", "storage", "controller", "array_multiplier", "sram",
        "dcdc_converter"}) {
    EXPECT_NE(r.body.find(expect), std::string::npos) << expect;
  }
}

TEST_F(AppFixture, ModelFormShowsParameters) {
  const Response r = get("/model?user=dl&name=array_multiplier");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("bitwidthA"), std::string::npos);
  EXPECT_NE(r.body.find("253"), std::string::npos);  // EQ 20 doc text
}

TEST_F(AppFixture, ModelFormComputesOnSubmit) {
  // Figure 4's loop: set bit-widths, get the result excerpt instantly.
  const Response r = get(
      "/model?user=dl&name=array_multiplier&p_bitwidthA=16&p_bitwidthB=16"
      "&p_correlated=0&p_alpha=1&p_vdd=1.5&p_f=1000000");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("Result"), std::string::npos);
  // C_T = 256 * 253 fF = 64.77 nF? no: 64.77 pF... check printed value.
  EXPECT_NE(r.body.find("64.77 pF"), std::string::npos);
  EXPECT_NE(r.body.find("Add to design"), std::string::npos);
}

TEST_F(AppFixture, UnknownModelIs400WithMessage) {
  const Response r = get("/model?user=dl&name=warp_core");
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("warp_core"), std::string::npos);
}

TEST_F(AppFixture, AddToDesignThenPlayFlow) {
  // Add an SRAM row.
  Response r = post("/design/add",
                    {{"user", "dl"},
                     {"model", "sram"},
                     {"design", "MyChip"},
                     {"row", "Buffer"},
                     {"p_words", "2048"},
                     {"p_bits", "8"},
                     {"p_f", "125000"}});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("Buffer"), std::string::npos);
  EXPECT_NE(r.body.find("TOTAL"), std::string::npos);

  // It persisted and is listed for the user.
  EXPECT_TRUE(app->store().has_design("MyChip"));
  const Response menu = get("/menu?user=dl");
  EXPECT_NE(menu.body.find("MyChip"), std::string::npos);

  // Add a second row and re-Play with a new supply voltage.
  post("/design/add", {{"user", "dl"},
                       {"model", "register"},
                       {"design", "MyChip"},
                       {"row", "OutReg"},
                       {"p_bits", "6"},
                       {"p_f", "2000000"}});
  r = post("/design/play",
           {{"user", "dl"}, {"name", "MyChip"}, {"g_vdd", "3.0"}});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("recomputed"), std::string::npos);
  EXPECT_NE(r.body.find("OutReg"), std::string::npos);

  // The voltage change persisted into the stored design.
  const auto design = app->store().load_design("MyChip", app->registry());
  auto found = design->globals().lookup("vdd");
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(std::get<double>(*found->binding), 3.0);
}

TEST_F(AppFixture, PlayAcceptsFormulasForGlobals) {
  post("/design/add", {{"user", "dl"},
                       {"model", "register"},
                       {"design", "F"},
                       {"row", "R"},
                       {"p_f", "1000000"}});
  const Response r = post(
      "/design/play",
      {{"user", "dl"}, {"name", "F"}, {"g_derived", "vdd * 2"}});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("derived"), std::string::npos);
}

TEST_F(AppFixture, SetRowParameterRecomputes) {
  post("/design/add", {{"user", "dl"},
                       {"model", "sram"},
                       {"design", "S"},
                       {"row", "Mem"},
                       {"p_words", "1024"},
                       {"p_bits", "8"},
                       {"p_f", "1000000"}});
  const Response r = post("/design/setrow", {{"user", "dl"},
                                             {"name", "S"},
                                             {"row", "Mem"},
                                             {"param", "words"},
                                             {"value", "4096"}});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("words=4096"), std::string::npos);
}

TEST_F(AppFixture, EmptyDesignPageInvitesAdding) {
  const Response r = get("/design?user=dl&name=Fresh");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("No rows yet"), std::string::npos);
}

TEST_F(AppFixture, NewModelFormCreatesWorkingModel) {
  const Response created = post("/newmodel",
                                {{"user", "dl"},
                                 {"name", "my_dsp"},
                                 {"category", "computation"},
                                 {"doc", "homebrew DSP slice"},
                                 {"params", "bitwidth=16 taps=8"},
                                 {"c_fullswing", "bitwidth*taps*40e-15"},
                                 {"proprietary", "0"}});
  EXPECT_EQ(created.status, 200);
  EXPECT_NE(created.body.find("my_dsp"), std::string::npos);

  // The model is immediately usable through its form.
  const Response r = get(
      "/model?user=dl&name=my_dsp&p_bitwidth=16&p_taps=8");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("Result"), std::string::npos);
  // And persisted for the next session.
  EXPECT_TRUE(app->store().load_model("my_dsp").has_value());
}

TEST_F(AppFixture, NewModelValidationErrorsSurface) {
  const Response r = post("/newmodel", {{"user", "dl"},
                                        {"name", "bad"},
                                        {"params", "k=1"},
                                        {"c_fullswing", "undeclared * 2"}});
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("undeclared"), std::string::npos);
}

TEST_F(AppFixture, DocPageShowsEquationProvenance) {
  const Response r = get("/doc?user=dl&name=rom_controller");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("EQ 10"), std::string::npos);
  EXPECT_NE(r.body.find("n_inputs"), std::string::npos);
}

TEST_F(AppFixture, MacroDrillDownRenderedInline) {
  // Store a design with a macro through the store API, then view it.
  auto& reg = app->registry();
  sheet::Design sub("SubBlock");
  sub.globals().set("f", 1e6);
  sub.add_row("reg", reg.find_shared("register"));
  sheet::Design top("TopChip");
  top.globals().set("vdd", 1.5);
  top.add_macro("Block", std::make_shared<const sheet::Design>(sub));
  app->store().save_design(top);

  const Response r = get("/design?user=dl&name=TopChip");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("macro drill-down"), std::string::npos);
  EXPECT_NE(r.body.find("reg"), std::string::npos);
}

TEST_F(AppFixture, NotFoundRoute) {
  EXPECT_EQ(get("/nonsense").status, 404);
}

TEST_F(AppFixture, ApiListsAndExportsModels) {
  post("/newmodel", {{"user", "dl"},
                     {"name", "shared_amp"},
                     {"category", "analog"},
                     {"params", "i=0.001"},
                     {"static_current", "i"}});
  post("/newmodel", {{"user", "dl"},
                     {"name", "secret_amp"},
                     {"category", "analog"},
                     {"params", "i=0.001"},
                     {"static_current", "i"},
                     {"proprietary", "1"}});
  const Response list = get("/api/models");
  EXPECT_NE(list.body.find("shared_amp"), std::string::npos);
  EXPECT_EQ(list.body.find("secret_amp"), std::string::npos);

  const Response exported = get("/api/model?name=shared_amp");
  EXPECT_EQ(exported.status, 200);
  EXPECT_NE(exported.body.find("model \"shared_amp\""), std::string::npos);

  // Proprietary models are withheld from the network.
  EXPECT_EQ(get("/api/model?name=secret_amp").status, 403);
  EXPECT_EQ(get("/api/model?name=ghost").status, 404);
}

TEST_F(AppFixture, ApiExportsDesigns) {
  post("/design/add", {{"user", "dl"},
                       {"model", "register"},
                       {"design", "Exportable"},
                       {"row", "R"}});
  const Response list = get("/api/designs");
  EXPECT_NE(list.body.find("Exportable"), std::string::npos);
  const Response d = get("/api/design?name=Exportable");
  EXPECT_EQ(d.status, 200);
  EXPECT_NE(d.body.find("design \"Exportable\""), std::string::npos);
  EXPECT_EQ(get("/api/design?name=ghost").status, 404);
}

TEST_F(AppFixture, AgentPageShowsContextFlows) {
  const Response r = get("/agent?user=dl");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("sketch"), std::string::npos);
  EXPECT_NE(r.body.find("layout"), std::string::npos);
  EXPECT_NE(r.body.find("sram_quick -&gt; swing_refine -&gt; static_refine"),
            std::string::npos);
}

TEST_F(AppFixture, ToolBackedModelUsableThroughForm) {
  // The "paths to estimation tools in lieu of an equation" claim: the
  // agent-backed SRAM entry answers the same form as an equation model,
  // and raising the context refines the estimate downward.
  const Response sketch = get(
      "/model?user=dl&name=sram_toolflow&p_words=4096&p_bits=16"
      "&p_vswing=0.3&p_bitline_fraction=0.6&p_i_static=0&p_alpha=1"
      "&p_vdd=1.5&p_f=1000000&p_context=0");
  EXPECT_EQ(sketch.status, 200);
  EXPECT_NE(sketch.body.find("Result"), std::string::npos);
  const Response circuit = get(
      "/model?user=dl&name=sram_toolflow&p_words=4096&p_bits=16"
      "&p_vswing=0.3&p_bitline_fraction=0.6&p_i_static=0&p_alpha=1"
      "&p_vdd=1.5&p_f=1000000&p_context=1");
  EXPECT_EQ(circuit.status, 200);
  // Sketch (full swing) reports 597.0 uW, circuit (EQ 8) 310.4 uW.
  EXPECT_NE(sketch.body.find("597.0 uW"), std::string::npos);
  EXPECT_NE(circuit.body.find("310.4 uW"), std::string::npos);
}

TEST_F(AppFixture, HelpPageLinkedFromMenu) {
  const Response menu = get("/menu?user=dl");
  EXPECT_NE(menu.body.find("/help?user=dl"), std::string::npos);
  const Response help = get("/help?user=dl");
  EXPECT_EQ(help.status, 200);
  EXPECT_NE(help.body.find("PLAY"), std::string::npos);
  EXPECT_NE(help.body.find("rowpower"), std::string::npos);
  EXPECT_NE(help.body.find("/agent"), std::string::npos);
}

TEST_F(AppFixture, DesignCsvExport) {
  post("/design/add", {{"user", "dl"},
                       {"model", "register"},
                       {"design", "CsvChip"},
                       {"row", "R"},
                       {"p_f", "1000000"}});
  const Response r = get("/design/csv?user=dl&name=CsvChip");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "text/csv");
  EXPECT_NE(r.body.find("row,model,power_w"), std::string::npos);
  EXPECT_NE(r.body.find("\"R\",\"register\""), std::string::npos);
  EXPECT_EQ(get("/design/csv?user=dl&name=Ghost").status, 404);
}

TEST_F(AppFixture, PasswordRestrictedAccess) {
  // "PowerPlay can provide password-restricted access."
  // Open access initially...
  EXPECT_EQ(get("/menu?user=secure").status, 200);
  // ...set a password (requires the current, absent one)...
  EXPECT_EQ(post("/setpw", {{"user", "secure"}, {"newpw", "s3cret"}}).status,
            200);
  // ...now the menu and mutating routes demand it.
  EXPECT_EQ(get("/menu?user=secure").status, 403);
  EXPECT_EQ(get("/menu?user=secure&pw=wrong").status, 403);
  EXPECT_EQ(get("/menu?user=secure&pw=s3cret").status, 200);
  EXPECT_EQ(post("/design/add", {{"user", "secure"},
                                 {"model", "register"},
                                 {"design", "Priv"},
                                 {"row", "R"}})
                .status,
            403);
  EXPECT_EQ(post("/design/add", {{"user", "secure"},
                                 {"pw", "s3cret"},
                                 {"model", "register"},
                                 {"design", "Priv"},
                                 {"row", "R"}})
                .status,
            200);
  // Other users are unaffected.
  EXPECT_EQ(get("/menu?user=open_user").status, 200);
  // Changing the password requires the old one; removing it reopens.
  EXPECT_EQ(post("/setpw", {{"user", "secure"}, {"newpw", "x"}}).status, 403);
  EXPECT_EQ(
      post("/setpw", {{"user", "secure"}, {"pw", "s3cret"}, {"newpw", ""}})
          .status,
      200);
  EXPECT_EQ(get("/menu?user=secure").status, 200);
}

TEST_F(AppFixture, PathTraversalRejected) {
  EXPECT_NE(get("/api/model?name=..%2F..%2Fetc%2Fpasswd").status, 200);
  EXPECT_NE(get("/design?user=dl&name=..%2Fx").status, 200);
}

// Redefining a model must reach every evaluation path: the compiled
// plan behind sweep jobs and the memoized Play behind pages are keyed
// by design fingerprints, and a redefinition leaves the design text
// (and so the model *name* it hashes) unchanged.
TEST_F(AppFixture, ModelRedefinitionReachesSweepsAndPages) {
  const auto define = [&](const std::string& c_fullswing) {
    return post("/newmodel", {{"user", "dl"},
                              {"name", "mymod"},
                              {"category", "computation"},
                              {"params", "bits=8"},
                              {"c_fullswing", c_fullswing}});
  };
  const auto sweep_csv = [&] {
    const Response submit = post("/design/sweep", {{"user", "dl"},
                                                   {"name", "d"},
                                                   {"x_param", "vdd"},
                                                   {"x_from", "1"},
                                                   {"x_to", "2"},
                                                   {"x_points", "3"}});
    EXPECT_EQ(submit.status, 200) << submit.body;
    const std::string id = submit.body.substr(4, submit.body.find('\n') - 4);
    for (int i = 0; i < 500; ++i) {
      if (get("/job?id=" + id).body.find("status: done") !=
          std::string::npos) {
        return get("/job?id=" + id + "&format=csv").body;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "sweep job " << id << " never finished";
    return std::string();
  };
  // The reference: a registry built from scratch, so the load below
  // shares no parse, plan or memo with the app.
  const auto fresh_design = [&] {
    auto lib = std::make_shared<model::ModelRegistry>(
        models::berkeley_library());
    app->store().load_all_models(*lib);
    return std::make_pair(lib, app->store().load_design("d", *lib));
  };

  ASSERT_EQ(define("bits*1e-12").status, 200);
  ASSERT_EQ(post("/design/add", {{"user", "dl"},
                                 {"model", "mymod"},
                                 {"design", "d"},
                                 {"row", "m"},
                                 {"p_f", "1000000"}})
                .status,
            200);
  const std::string old_sweep = sweep_csv();
  const std::string old_page = get("/design/csv?user=dl&name=d").body;

  ASSERT_EQ(define("bits*5e-12").status, 200);
  const auto [lib, fresh] = fresh_design();
  const std::vector<double> values = sheet::linspace(1, 2, 3);
  const std::string new_sweep = sweep_csv();
  const std::string new_page = get("/design/csv?user=dl&name=d").body;
  EXPECT_EQ(new_sweep,
            sheet::sweep_csv("vdd", sheet::sweep_global(*fresh, "vdd", values)));
  EXPECT_EQ(new_page, sheet::to_csv(fresh->play()));
  EXPECT_NE(new_sweep, old_sweep);
  EXPECT_NE(new_page, old_page);
}

// Served /design and /design/csv bodies, byte for byte, against
// renderings committed under tests/golden/.  The HTML page names its
// user in links and form fields; the goldens hold "{user}" there.
// Setting POWERPLAY_WRITE_GOLDENS=1 rewrites the files from this build
// instead of comparing (do that only on a build whose output is
// trusted, then review the diff).
std::vector<sheet::Design> golden_designs(const model::ModelRegistry& lib) {
  std::vector<sheet::Design> out;
  out.push_back(studies::make_luminance_impl1(lib));
  out.push_back(studies::make_luminance_impl2(lib));
  out.push_back(studies::make_infopad(lib));

  sheet::Design formula("Golden_Formula", "globals bound to formulas");
  formula.globals().set("vdd", 1.3);
  formula.globals().set("frame_rate", 30.0);
  formula.globals().set_formula("pixel_rate", "frame_rate * 640 * 480");
  auto& frame = formula.add_row("Frame Buffer", lib.find_shared("sram"));
  frame.params.set("words", 19200.0);
  frame.params.set("bits", 16.0);
  frame.params.set_formula("f", "pixel_rate / 16");
  auto& out_reg = formula.add_row("Out", lib.find_shared("register"));
  out_reg.params.set("bits", 7.0);
  out_reg.params.set_formula("f", "pixel_rate");
  out.push_back(std::move(formula));

  // Values with long shortest forms (1/3, 0.1-style binary fractions)
  // exercise every digit count of the number renderers.
  sheet::Design params("Golden_RowParams", "non-default row parameters");
  params.globals().set("vdd", 1.1);
  auto& mem = params.add_row("Mem", lib.find_shared("sram"));
  mem.params.set("words", 3000.0);
  mem.params.set("bits", 12.0);
  mem.params.set("f", 1e6 / 3.0);
  auto& low = params.add_row("Low Reg", lib.find_shared("register"));
  low.params.set("bits", 5.0);
  low.params.set("vdd", 0.9);
  low.params.set("f", 2.5e7);
  auto& mux = params.add_row("Mux", lib.find_shared("multiplexer"));
  mux.params.set("bits", 3.0);
  mux.params.set("inputs", 7.0);
  mux.params.set("f", 123456.789);
  out.push_back(std::move(params));
  return out;
}

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

TEST_F(AppFixture, DesignPagesMatchGoldens) {
  const fs::path golden_dir = POWERPLAY_GOLDEN_DIR;
  const bool write = std::getenv("POWERPLAY_WRITE_GOLDENS") != nullptr;
  for (const sheet::Design& d : golden_designs(app->registry())) {
    app->store().save_design(d);
  }
  for (const sheet::Design& d : golden_designs(app->registry())) {
    const std::string& name = d.name();
    // Two users: the first view parses and Plays, the second reuses
    // whatever the first left behind; both must serve the same bytes.
    for (const std::string user : {"golden_user", "golden_again"}) {
      const Response page = get("/design?user=" + user + "&name=" + name);
      const Response csv = get("/design/csv?user=" + user + "&name=" + name);
      ASSERT_EQ(page.status, 200) << name;
      ASSERT_EQ(csv.status, 200) << name;
      const std::string html = replace_all(page.body, user, "{user}");
      const fs::path html_path = golden_dir / (name + ".html");
      const fs::path csv_path = golden_dir / (name + ".csv");
      if (write) {
        std::ofstream(html_path, std::ios::binary) << html;
        std::ofstream(csv_path, std::ios::binary) << csv.body;
        continue;
      }
      const auto slurp = [](const fs::path& path) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << "missing golden " << path;
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
      };
      EXPECT_EQ(html, slurp(html_path)) << name << " as " << user;
      EXPECT_EQ(csv.body, slurp(csv_path)) << name << " as " << user;
    }
  }
}

// ---------------------------------------------------------------------------
// Shared design pages: one render per design state, the user spliced in
// ---------------------------------------------------------------------------

// The per-user /design renderer from before pages were shared templates,
// kept as the byte-identity oracle: a spliced page must equal what this
// writes for the same user.
void oracle_spreadsheet(const sheet::PlayResult& result,
                        const std::string& user, std::string& out,
                        int depth = 0) {
  // HtmlTable's markup, with the model cell left unescaped when it holds
  // the documentation link.
  const auto row_html = [](const std::vector<std::string>& cells,
                           std::size_t raw_cell, const char* tag) {
    std::string html = "<tr>";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      html += std::string("<") + tag + ">" +
              (i == raw_cell ? cells[i] : html_escape(cells[i])) + "</" +
              tag + ">";
    }
    return html + "</tr>\n";
  };
  const auto energy = [](const model::Estimate& e) {
    return e.energy_per_op.si() > 0 ? units::format_si(e.energy_per_op.si(), "J")
                                    : std::string("-");
  };
  constexpr std::size_t kNone = ~std::size_t{0};
  std::string rows = row_html(
      {"Row", "Model", "Parameters", "Energy/op", "Power"}, kNone, "th");
  for (const sheet::RowResult& row : result.rows) {
    std::string params;
    for (const auto& [name, value] : row.shown_params) {
      if (!params.empty()) params += ", ";
      params += name + "=" + library::number_text(value);
    }
    const bool linked = row.sub_result == nullptr;
    const std::string model_cell =
        linked ? link("/doc", {{"name", row.model_name}, {"user", user}},
                      row.model_name)
               : row.model_name;
    rows += row_html({row.name, model_cell, params, energy(row.estimate),
                      units::format_si(row.estimate.total_power().si(), "W")},
                     linked ? 1 : kNone, "td");
  }
  rows += row_html({"TOTAL", "", "", energy(result.total),
                    units::format_si(result.total.total_power().si(), "W")},
                   kNone, "td");
  out += "<table border=\"1\">\n" + rows + "</table>\n";
  for (const sheet::RowResult& row : result.rows) {
    if (row.sub_result != nullptr && depth < 8) {
      out += "<h3>" + html_escape(row.name) + " (macro drill-down)</h3>\n";
      oracle_spreadsheet(*row.sub_result, user, out, depth + 1);
    }
  }
}

/// The oracle page for a stored design, Played by the reference
/// interpreter.
std::string oracle_design_page(const sheet::Design& design,
                               const std::string& user,
                               const std::string& message = {}) {
  const sheet::PlayResult result = design.play();
  HtmlPage page(design.name() + " summary");
  if (!message.empty()) page.paragraph("[" + message + "]");
  if (!design.description().empty()) page.paragraph(design.description());
  HtmlForm play("/design/play", "POST");
  play.hidden("user", user);
  play.hidden("name", design.name());
  for (const std::string& nm : design.globals().local_names()) {
    auto found = design.globals().lookup(nm);
    if (const double* literal = std::get_if<double>(found->binding)) {
      play.text_field(nm, "g_" + nm, library::number_text(*literal));
    } else {
      const auto& f = std::get<expr::ExprPtr>(*found->binding);
      play.text_field(nm + " (formula)", "g_" + nm, expr::to_source(*f));
    }
  }
  play.submit("PLAY");
  page.raw(play.str());
  std::string sheet_html;
  oracle_spreadsheet(result, user, sheet_html);
  page.raw(sheet_html);
  page.paragraph("Computed in " + std::to_string(result.iterations) +
                 " sweep(s).");
  page.raw(link("/menu", {{"user", user}}, "Back to menu"));
  return page.str();
}

/// The oracle page for a design that is not stored.
std::string oracle_missing_page(const std::string& name,
                                const std::string& user) {
  HtmlPage page("Design: " + name);
  page.paragraph("No rows yet — add instances from the model library.");
  page.raw(link("/library", {{"user", user}}, "Model library"));
  return page.str();
}

/// Users whose names need every encoding the page uses.
const std::vector<std::string> kAdversarialUsers = {
    "a b&c<d>\"e%f+g", "Zo\xc3\xab \xe6\x97\xa5\xe6\x9c\xac", "user",
    "Adv&user=x", "a%20b"};

/// Designs whose user-controlled text holds what a marker search would
/// trip on: the users' own names, their URL-encoded forms, "&user=" and
/// "%".
std::vector<sheet::Design> adversarial_designs(
    const model::ModelRegistry& lib) {
  std::vector<sheet::Design> out;
  std::string description = "&user= % %25 {user}";
  for (const std::string& user : kAdversarialUsers) {
    description += " " + user + " " + url_encode(user) + " " +
                   html_escape(url_encode(user));
  }
  sheet::Design adv("Adv&user=x", description);
  adv.globals().set("vdd", 1.2);
  int i = 0;
  for (const std::string& user : kAdversarialUsers) {
    auto& row = adv.add_row(user, lib.find_shared("register"));
    row.params.set("bits", 4.0 + i++);
    adv.add_row(url_encode(user) + " &user=" + url_encode(user) + "%",
                lib.find_shared("sram"));
  }
  out.push_back(std::move(adv));
  out.push_back(studies::make_luminance_impl2(lib));
  out.push_back(studies::make_infopad(lib));
  return out;
}

/// GET `target` from `app` in-process.
Response get_from(PowerPlayApp& app, const std::string& target,
                  const std::string& if_none_match = {}) {
  Request request;
  request.target = target;
  if (!if_none_match.empty()) request.headers["if-none-match"] = if_none_match;
  return app.handle(request);
}

std::string design_target(const std::string& route, const std::string& user,
                          const std::string& name) {
  return route + "?" + to_query({{"user", user}, {"name", name}});
}

// Every user sees exactly the oracle's page, first view and revisit,
// whether the page came from the shared cache entry or (cache off) a
// fresh render — including users and designs built to break a splice
// that searched the page text.
TEST_F(AppFixture, SplicedDesignPagesMatchPerUserOracle) {
  AppOptions uncached;
  uncached.response_cache = false;
  PowerPlayApp cold(library::LibraryStore(dir / "cold"),
                    engine::EngineOptions{}, engine::JobOptions{}, uncached);
  for (PowerPlayApp* site : {app.get(), &cold}) {
    for (const sheet::Design& d : adversarial_designs(site->registry())) {
      site->store().save_design(d);
    }
  }
  for (PowerPlayApp* site : {app.get(), &cold}) {
    for (const sheet::Design& d : adversarial_designs(site->registry())) {
      const auto stored = site->store().load_design(d.name(), site->registry());
      std::vector<std::string> users = kAdversarialUsers;
      users.push_back(d.name());
      for (const std::string& user : users) {
        const std::string expected = oracle_design_page(*stored, user);
        for (int visit = 0; visit < 2; ++visit) {
          const Response r =
              get_from(*site, design_target("/design", user, d.name()));
          ASSERT_EQ(r.status, 200) << d.name();
          EXPECT_EQ(r.body, expected)
              << d.name() << " as " << user << " visit " << visit;
        }
      }
    }
    for (const std::string& user : kAdversarialUsers) {
      const Response missing =
          get_from(*site, design_target("/design", user, "Ghost<&>"));
      ASSERT_EQ(missing.status, 200);
      EXPECT_EQ(missing.body, oracle_missing_page("Ghost<&>", user)) << user;
    }
  }
  // The pages re-rendered after a mutation use the same template.
  const Response played = post(
      "/design/play",
      {{"user", kAdversarialUsers[0]}, {"name", "Adv&user=x"}, {"g_vdd", "1.4"}});
  ASSERT_EQ(played.status, 200) << played.body;
  EXPECT_EQ(played.body,
            oracle_design_page(*app->store().load_design("Adv&user=x",
                                                         app->registry()),
                               kAdversarialUsers[0], "recomputed"));
  // Missing user: 400 from the cached and the uncached path alike.
  for (PowerPlayApp* site : {app.get(), &cold}) {
    EXPECT_EQ(get_from(*site, "/design?name=Luminance_2").status, 400);
  }
  cold.shutdown();
}

// The shared goldens hold for revisits too, and with the response cache
// off, where every view renders afresh.
TEST_F(AppFixture, DesignPagesMatchGoldensOnRevisitAndCacheOff) {
  const fs::path golden_dir = POWERPLAY_GOLDEN_DIR;
  const auto slurp = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  AppOptions uncached;
  uncached.response_cache = false;
  PowerPlayApp cold(library::LibraryStore(dir / "cold"),
                    engine::EngineOptions{}, engine::JobOptions{}, uncached);
  for (PowerPlayApp* site : {app.get(), &cold}) {
    for (const sheet::Design& d : golden_designs(site->registry())) {
      site->store().save_design(d);
    }
    for (const sheet::Design& d : golden_designs(site->registry())) {
      const std::string& name = d.name();
      const std::string html = slurp(golden_dir / (name + ".html"));
      const std::string csv = slurp(golden_dir / (name + ".csv"));
      for (const std::string user : {"golden_user", "golden_again"}) {
        for (int visit = 0; visit < 2; ++visit) {
          const Response page =
              get_from(*site, design_target("/design", user, name));
          const Response sheet =
              get_from(*site, design_target("/design/csv", user, name));
          EXPECT_EQ(replace_all(page.body, user, "{user}"), html)
              << name << " as " << user << " visit " << visit;
          EXPECT_EQ(sheet.body, csv) << name << " as " << user;
        }
      }
    }
  }
  cold.shutdown();
}

// Each spliced page has its own strong ETag: user A's tag revalidates
// A's page and no one else's.  The CSV names no user, so its tag is
// everyone's.
TEST_F(AppFixture, SplicedPageEtagsArePerUser) {
  app->store().save_design(studies::make_luminance_impl2(app->registry()));
  const Response a = get_from(*app, design_target("/design", "alice", "Luminance_2"));
  const Response b = get_from(*app, design_target("/design", "bob", "Luminance_2"));
  const std::string tag_a = a.headers.at("etag");
  const std::string tag_b = b.headers.at("etag");
  EXPECT_NE(tag_a, tag_b);
  const Response a_again =
      get_from(*app, design_target("/design", "alice", "Luminance_2"));
  EXPECT_EQ(a_again.headers.at("etag"), tag_a);
  EXPECT_EQ(a_again.body, a.body);

  const Response a_304 = get_from(
      *app, design_target("/design", "alice", "Luminance_2"), tag_a);
  EXPECT_EQ(a_304.status, 304);
  EXPECT_TRUE(a_304.body.empty());
  const Response b_200 = get_from(
      *app, design_target("/design", "bob", "Luminance_2"), tag_a);
  EXPECT_EQ(b_200.status, 200);
  EXPECT_EQ(b_200.body, b.body);
  EXPECT_EQ(b_200.headers.at("etag"), tag_b);

  const Response csv_a =
      get_from(*app, design_target("/design/csv", "alice", "Luminance_2"));
  const Response csv_b = get_from(
      *app, design_target("/design/csv", "bob", "Luminance_2"),
      csv_a.headers.at("etag"));
  EXPECT_EQ(csv_b.status, 304);
}

// A shared render never outlives the design state it shows: a visitor
// who has never been to the page sees the new numbers after a Play and
// after a model redefinition.
TEST_F(AppFixture, NewVisitorsSeeFreshNumbersAfterPlayAndRedefinition) {
  const auto view = [&](const std::string& user) {
    return get("/design?" + to_query({{"user", user}, {"name", "d"}})).body;
  };
  const auto expected = [&](const std::string& user) {
    // A registry built from scratch: no parse, plan or memo is shared.
    auto lib = std::make_shared<model::ModelRegistry>(
        models::berkeley_library());
    app->store().load_all_models(*lib);
    return oracle_design_page(*app->store().load_design("d", *lib), user);
  };
  const auto define = [&](const std::string& c_fullswing) {
    return post("/newmodel", {{"user", "dl"},
                              {"name", "mymod"},
                              {"category", "computation"},
                              {"params", "bits=8"},
                              {"c_fullswing", c_fullswing}});
  };
  ASSERT_EQ(define("bits*1e-12").status, 200);
  ASSERT_EQ(post("/design/add", {{"user", "dl"},
                                 {"model", "mymod"},
                                 {"design", "d"},
                                 {"row", "m"},
                                 {"p_f", "1000000"}})
                .status,
            200);
  const std::string first = view("v1");
  EXPECT_EQ(first, expected("v1"));

  ASSERT_EQ(post("/design/play", {{"user", "dl"}, {"name", "d"}, {"g_vdd", "2.5"}})
                .status,
            200);
  const std::string after_play = view("v2");
  EXPECT_EQ(after_play, expected("v2"));
  EXPECT_NE(replace_all(after_play, "v2", "{user}"),
            replace_all(first, "v1", "{user}"));

  ASSERT_EQ(define("bits*5e-12").status, 200);
  const std::string after_define = view("v3");
  EXPECT_EQ(after_define, expected("v3"));
  EXPECT_NE(replace_all(after_define, "v3", "{user}"),
            replace_all(after_play, "v2", "{user}"));
}

// Session locks live only while a request holds or awaits them: a stream
// of distinct users leaves the table empty instead of one mutex each.
TEST_F(AppFixture, SessionLocksDoNotAccumulate) {
  app->store().save_design(studies::make_luminance_impl1(app->registry()));
  for (int i = 0; i < 500; ++i) {
    const std::string user = "visitor" + std::to_string(i);
    ASSERT_EQ(get_from(*app, design_target("/design", user, "Luminance_1")).status,
              200);
    ASSERT_EQ(get_from(*app, "/menu?user=" + user).status, 200);
    ASSERT_EQ(get_from(*app, "/menu").status, 400);
  }
  EXPECT_EQ(app->active_sessions(), 0u);
}

}  // namespace
}  // namespace powerplay::web
