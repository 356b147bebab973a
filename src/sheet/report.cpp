#include "sheet/report.hpp"

#include <charconv>
#include <sstream>

namespace powerplay::sheet {

namespace {

using units::format_area;
using units::format_si;

/// Append `v` as printf's %.<precision>g writes it, which is also what
/// an ostream set to setprecision(precision) writes for a double.
void append_number(std::string& out, double v, int precision) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, precision);
  out.append(buf, end.ptr);
}

void append_params(const RowResult& row, std::string& out) {
  bool first = true;
  for (const auto& [name, value] : row.shown_params) {
    if (!first) out += ", ";
    first = false;
    out += name;
    out += '=';
    append_number(out, value, 6);
  }
}

std::string params_text(const RowResult& row) {
  std::string out;
  append_params(row, out);
  return out;
}

struct Table {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  std::string render(int indent) const {
    std::vector<std::size_t> width(header.size());
    for (std::size_t c = 0; c < header.size(); ++c) width[c] = header[c].size();
    for (const auto& r : rows) {
      for (std::size_t c = 0; c < r.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    const std::string pad(indent * 2, ' ');
    std::ostringstream os;
    auto line = [&](const std::vector<std::string>& cells, char fill) {
      os << pad << "|";
      for (std::size_t c = 0; c < header.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : "";
        os << ' ' << cell << std::string(width[c] - cell.size(), fill)
           << " |";
      }
      os << '\n';
    };
    line(header, ' ');
    std::vector<std::string> rule(header.size());
    os << pad << "|";
    for (std::size_t c = 0; c < header.size(); ++c) {
      os << std::string(width[c] + 2, '-') << "|";
    }
    os << '\n';
    for (const auto& r : rows) line(r, ' ');
    return os.str();
  }
};

void append_result(const PlayResult& result, const ReportOptions& opt,
                   std::string& out) {
  const std::string pad(opt.indent * 2, ' ');
  out += pad + result.design_name + " summary\n";

  Table t;
  t.header = {"Row", "Model"};
  if (opt.show_params) t.header.push_back("Parameters");
  t.header.push_back("Rate");
  if (opt.show_capacitance) t.header.push_back("Csw/op");
  if (opt.show_energy) t.header.push_back("Energy/op");
  if (opt.show_area) t.header.push_back("Area");
  if (opt.show_delay) t.header.push_back("Delay");
  t.header.push_back("Power");

  auto add_line = [&](const std::string& name, const std::string& model_name,
                      const std::string& params, const model::Estimate& e,
                      double rate_hz) {
    std::vector<std::string> cells = {name, model_name};
    if (opt.show_params) cells.push_back(params);
    cells.push_back(rate_hz > 0 ? format_si(rate_hz, "Hz") : "-");
    if (opt.show_capacitance) {
      cells.push_back(e.switched_capacitance.si() > 0
                          ? format_si(e.switched_capacitance.si(), "F")
                          : "-");
    }
    if (opt.show_energy) {
      cells.push_back(e.energy_per_op.si() > 0
                          ? format_si(e.energy_per_op.si(), "J")
                          : "-");
    }
    if (opt.show_area) {
      cells.push_back(e.area.si() > 0 ? format_area(e.area.si()) : "-");
    }
    if (opt.show_delay) {
      cells.push_back(e.delay.si() > 0 ? format_si(e.delay.si(), "s") : "-");
    }
    cells.push_back(format_si(e.total_power().si(), "W"));
    t.rows.push_back(std::move(cells));
  };

  for (const RowResult& row : result.rows) {
    double rate = 0;
    for (const auto& [name, value] : row.shown_params) {
      if (name == "f") rate = value;
    }
    add_line(row.name, row.model_name, params_text(row), row.estimate, rate);
  }
  add_line("TOTAL", "", "", result.total, 0);
  out += t.render(opt.indent);

  if (opt.recurse_macros) {
    for (const RowResult& row : result.rows) {
      if (row.sub_result != nullptr) {
        ReportOptions sub = opt;
        sub.indent = opt.indent + 1;
        out += '\n';
        append_result(*row.sub_result, sub, out);
      }
    }
  }
}

}  // namespace

std::string to_table(const PlayResult& result, const ReportOptions& opt) {
  std::string out;
  append_result(result, opt, out);
  return out;
}

std::string to_csv(const PlayResult& result) {
  std::string out;
  out.reserve(128 * (result.rows.size() + 2));
  out += "row,model,power_w,energy_per_op_j,csw_f,area_m2,params\n";
  auto emit = [&](const std::string& name, const std::string& model_name,
                  const model::Estimate& e, const RowResult* params) {
    out += '"';
    out += name;
    out += "\",\"";
    out += model_name;
    out += "\",";
    for (const double v : {e.total_power().si(), e.energy_per_op.si(),
                           e.switched_capacitance.si(), e.area.si()}) {
      append_number(out, v, 9);
      out += ',';
    }
    out += '"';
    if (params != nullptr) append_params(*params, out);
    out += "\"\n";
  };
  for (const RowResult& row : result.rows) {
    emit(row.name, row.model_name, row.estimate, &row);
  }
  emit("TOTAL", "", result.total, nullptr);
  return out;
}

std::string to_breakdown(const RowResult& row) {
  std::ostringstream os;
  os << row.name << " (" << row.model_name << ")\n";
  if (!row.shown_params.empty()) {
    os << "  parameters: " << params_text(row) << '\n';
  }
  for (const model::CapTerm& t : row.estimate.cap_terms) {
    os << "  C[" << t.label << "] = " << format_si(t.c_sw.si(), "F");
    if (!t.full_swing) {
      os << " @ swing " << format_si(t.v_swing.si(), "V");
    }
    os << '\n';
  }
  for (const model::StaticTerm& t : row.estimate.static_terms) {
    os << "  I[" << t.label << "] = " << format_si(t.current.si(), "A")
       << '\n';
  }
  os << "  energy/op = " << format_si(row.estimate.energy_per_op.si(), "J")
     << ", dynamic = " << format_si(row.estimate.dynamic_power.si(), "W")
     << ", static = " << format_si(row.estimate.static_power.si(), "W")
     << ", total = " << format_si(row.estimate.total_power().si(), "W")
     << '\n';
  return os.str();
}

TimingSummary timing_summary(const PlayResult& result) {
  TimingSummary out;
  std::map<int, TimingSummary::Stage> stages;
  for (const RowResult& row : result.rows) {
    int stage = 0;
    for (const auto& [name, value] : row.shown_params) {
      if (name == "stage") stage = static_cast<int>(value);
    }
    auto& s = stages[stage];
    s.stage = stage;
    if (row.estimate.delay > s.delay) {
      s.delay = row.estimate.delay;
      s.critical_row = row.name;
    }
  }
  for (auto& [num, stage] : stages) {
    if (stage.delay > out.critical_path) {
      out.critical_path = stage.delay;
      out.critical_row = stage.critical_row;
    }
    out.stages.push_back(stage);
  }
  if (out.critical_path.si() > 0) {
    out.max_clock = units::Frequency{1.0 / out.critical_path.si()};
  }
  return out;
}

std::string timing_table(const TimingSummary& summary) {
  std::ostringstream os;
  os << "timing summary (first-cut pipeline composition)\n";
  for (const auto& stage : summary.stages) {
    os << "  stage " << stage.stage << ": "
       << format_si(stage.delay.si(), "s") << "  (critical: "
       << (stage.critical_row.empty() ? "-" : stage.critical_row) << ")\n";
  }
  os << "  critical path " << format_si(summary.critical_path.si(), "s")
     << " through '" << summary.critical_row << "' -> max clock "
     << format_si(summary.max_clock.si(), "Hz") << "\n";
  return os.str();
}

std::string summary_line(const PlayResult& result) {
  std::ostringstream os;
  os << result.design_name << ": "
     << format_si(result.total.total_power().si(), "W") << " ("
     << result.rows.size() << " rows, " << result.iterations << " sweep"
     << (result.iterations == 1 ? "" : "s") << ")";
  return os.str();
}

}  // namespace powerplay::sheet
