#include "sheet/batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "model/param.hpp"
#include "units/units.hpp"

namespace powerplay::sheet {

using expr::SlotId;
using model::Estimate;

namespace {

std::optional<SlotId> search_sorted(
    const std::vector<std::pair<std::string, SlotId>>& v,
    const std::string& name) {
  const auto it = std::lower_bound(
      v.begin(), v.end(), name,
      [](const auto& p, const std::string& n) { return p.first < n; });
  if (it != v.end() && it->first == name) return it->second;
  return std::nullopt;
}

/// PlanParamReader's resolution logic (plan.cpp is the reference),
/// pinned to one lane of the batch state: row reads and chain lookups
/// answer from slot_value_lane, spec validation runs per lane exactly
/// as the scalar path validates per point.
class BatchLaneReader final : public model::ParamReader {
 public:
  BatchLaneReader(expr::BatchExec& exec,
                  const std::vector<EvalPlan::Read>& reads,
                  const std::vector<std::pair<std::string, SlotId>>& chain,
                  std::size_t lane)
      : exec_(&exec), reads_(&reads), chain_(&chain), lane_(lane) {}

  [[nodiscard]] double get(const std::string& name) const override {
    if (const EvalPlan::Read* r = find_read(name)) {
      double value;
      if (r->has_slot) {
        value = exec_->slot_value_lane(r->slot, lane_);
      } else if (r->spec != nullptr) {
        value = r->spec->default_value;
      } else {
        throw expr::ExprError("unbound parameter '" + name + "'");
      }
      if (r->spec != nullptr) r->spec->validate(value);
      return value;
    }
    if (const auto slot = search_sorted(*chain_, name)) {
      return exec_->slot_value_lane(*slot, lane_);
    }
    throw expr::ExprError("unbound parameter '" + name + "'");
  }

  [[nodiscard]] double get_or(const std::string& name,
                              double fallback) const override {
    if (const EvalPlan::Read* r = find_read(name)) {
      double value;
      if (r->has_slot) {
        value = exec_->slot_value_lane(r->slot, lane_);
      } else if (r->spec != nullptr && !std::isnan(r->spec->default_value)) {
        value = r->spec->default_value;
      } else {
        return fallback;
      }
      if (r->spec != nullptr) r->spec->validate(value);
      return value;
    }
    if (const auto slot = search_sorted(*chain_, name)) {
      return exec_->slot_value_lane(*slot, lane_);
    }
    return fallback;
  }

 private:
  [[nodiscard]] const EvalPlan::Read* find_read(
      const std::string& name) const {
    const auto it = std::lower_bound(
        reads_->begin(), reads_->end(), name,
        [](const EvalPlan::Read& r, const std::string& n) {
          return r.name < n;
        });
    if (it != reads_->end() && it->name == name) return &*it;
    return nullptr;
  }

  expr::BatchExec* exec_;
  const std::vector<EvalPlan::Read>* reads_;
  const std::vector<std::pair<std::string, SlotId>>* chain_;
  std::size_t lane_;
};

}  // namespace

BatchPlanInstance::BatchPlanInstance(std::shared_ptr<const EvalPlan> plan)
    : plan_(std::move(plan)), exec_(plan_->module_), scalar_(plan_) {
  accs_.resize(plan_->nodes_.size());
  for (NodeAcc& acc : accs_) {
    acc.dynamic_w.resize(kLaneWidth);
    acc.static_w.resize(kLaneWidth);
    acc.energy_j.resize(kLaneWidth);
    acc.area_m2.resize(kLaneWidth);
    acc.delay_s.resize(kLaneWidth);
  }
}

bool BatchPlanInstance::batchable() const { return plan_->ext_sites_.empty(); }

void BatchPlanInstance::bind_from(const Design& design) {
  // Same slot-source walk as PlanInstance::bind_from, feeding the
  // batch base values; the scalar fallback instance refreshes itself.
  for (SlotId i = 0; i < static_cast<SlotId>(plan_->module_.slots.size());
       ++i) {
    const EvalPlan::SlotSource& src = plan_->slot_sources_[i];
    if (!src.valid) continue;
    const Design* d = &design;
    bool ok = true;
    for (const std::size_t ri : plan_->nodes_[src.node].path) {
      if (ri >= d->rows().size() || !d->rows()[ri].is_macro()) {
        ok = false;
        break;
      }
      d = d->rows()[ri].macro.get();
    }
    if (!ok) continue;
    if (src.row >= 0 && static_cast<std::size_t>(src.row) >= d->rows().size()) {
      continue;
    }
    const expr::Scope& scope =
        src.row < 0 ? d->globals()
                    : d->rows()[static_cast<std::size_t>(src.row)].params;
    const auto found = scope.lookup(src.name);
    if (!found) continue;
    if (const double* literal = std::get_if<double>(found->binding)) {
      exec_.rebind_value(i, *literal);
    }
  }
  scalar_.bind_from(design);
}

void BatchPlanInstance::play_block_scalar(
    const std::vector<SlotId>& slots,
    const std::vector<std::vector<double>>& lane_values, std::size_t width,
    PointColumns& out, std::size_t base) {
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      scalar_.bind(slots[s], lane_values[s][l]);
    }
    out.set(base + l, scalar_.play());
    ++stats_.scalar_fallback_points;
  }
}

void BatchPlanInstance::run_node_batch(std::uint32_t node_id,
                                       std::size_t width) {
  const EvalPlan::Node& node = plan_->nodes_[node_id];
  if (!node.poison.empty()) throw expr::ExprError(node.poison);
  exec_.begin_epoch(node.globals_domain);

  NodeAcc& acc = accs_[node_id];
  std::fill_n(acc.dynamic_w.begin(), width, 0.0);
  std::fill_n(acc.static_w.begin(), width, 0.0);
  std::fill_n(acc.energy_j.begin(), width, 0.0);
  std::fill_n(acc.area_m2.begin(), width, 0.0);
  std::fill_n(acc.delay_s.begin(), width, 0.0);

  // No intermodel sites anywhere in the plan, so every settle rank is
  // finite and the scalar fixed-point loop exits after iteration 1:
  // one sheet-ordered pass over the enabled rows is the whole Play.
  for (std::size_t ri = 0; ri < node.rows.size(); ++ri) {
    const EvalPlan::PlanRow& row = node.rows[ri];
    if (!row.enabled) continue;
    exec_.begin_epoch(row.domain);
    // Evaluate the row's shown parameters across the block first, as
    // the scalar path does per point: their errors surface before the
    // model runs, and the memo is warm for the model's reads.
    for (const auto& [nm, slot] : row.param_slots) {
      (void)exec_.slot_lanes(slot);
    }

    if (row.is_macro) {
      run_node_batch(row.sub_node, width);
      const NodeAcc& sub = accs_[row.sub_node];
      for (std::size_t l = 0; l < width; ++l) {
        acc.dynamic_w[l] += sub.dynamic_w[l];
        acc.static_w[l] += sub.static_w[l];
        acc.energy_j[l] += sub.energy_j[l];
        acc.area_m2[l] += sub.area_m2[l];
        acc.delay_s[l] = std::max(acc.delay_s[l], sub.delay_s[l]);
      }
    } else if (!run_row_fast(row, node, width, acc)) {
      // The model itself is scalar C++ — run it per lane over the
      // batched parameter reads.  Accumulation order matches
      // model::combine: field-wise sums in enabled sheet-row order,
      // delay as a running max, one separate add per field (no fusion
      // opportunity), so every lane reproduces the scalar doubles.
      for (std::size_t l = 0; l < width; ++l) {
        BatchLaneReader reader(exec_, row.reads, node.chain_names, l);
        const Estimate e = row.model->evaluate(reader);
        acc.dynamic_w[l] += e.dynamic_power.si();
        acc.static_w[l] += e.static_power.si();
        acc.energy_j[l] += e.energy_per_op.si();
        acc.area_m2[l] += e.area.si();
        acc.delay_s[l] = std::max(acc.delay_s[l], e.delay.si());
      }
    }
  }
}

// Captured-terms fast path.  For an operating-point-only model whose
// non-vdd/f reads are bitwise lane-invariant across the block, the EQ 1
// breakdown (cap_terms, static_terms, area, delay) is the same in every
// lane: one full evaluate at lane 0 captures it, and the remaining
// lanes replay only the operating-point arithmetic through
// evaluate_terms — the function make_estimate itself runs — so each
// lane's doubles are exactly what a full per-lane evaluate would
// produce.  Error parity: the lane-0 evaluate validates every
// lane-invariant read once for all lanes, the per-lane vdd/f checks
// below mirror the reader's and param()'s NaN/range rules, and every
// has_slot read is forced through slot_lanes (surfacing per-lane
// formula errors), so the fast path throws whenever the scalar path
// would.  Any throw makes play_block degrade the block to the scalar
// path, which re-raises the true scalar error; a spurious fast-path
// throw therefore only costs speed, never correctness.
bool BatchPlanInstance::run_row_fast(const EvalPlan::PlanRow& row,
                                     const EvalPlan::Node& node,
                                     std::size_t width, NodeAcc& acc) {
  if (width <= 1 || !row.model->operating_point_only()) return false;
  const EvalPlan::Read* vdd_read = nullptr;
  const EvalPlan::Read* f_read = nullptr;
  for (const EvalPlan::Read& r : row.reads) {
    if (r.name == model::kParamVdd) {
      vdd_read = &r;
      continue;
    }
    if (r.name == model::kParamFreq) {
      f_read = &r;
      continue;
    }
    if (!r.has_slot) continue;  // spec default: the same double in every lane
    const double* lanes = exec_.slot_lanes(r.slot);
    const auto bits0 = std::bit_cast<std::uint64_t>(lanes[0]);
    for (std::size_t l = 1; l < width; ++l) {
      if (std::bit_cast<std::uint64_t>(lanes[l]) != bits0) return false;
    }
  }
  // Built-in models declare vdd and f, so the plan pre-resolves both
  // with their specs; anything unusual takes the general path.
  if (vdd_read == nullptr || f_read == nullptr || vdd_read->spec == nullptr ||
      f_read->spec == nullptr) {
    return false;
  }
  const double* vdd_lanes =
      vdd_read->has_slot ? exec_.slot_lanes(vdd_read->slot) : nullptr;
  const double* f_lanes =
      f_read->has_slot ? exec_.slot_lanes(f_read->slot) : nullptr;

  BatchLaneReader reader0(exec_, row.reads, node.chain_names, 0);
  const Estimate e0 = row.model->evaluate(reader0);
  const double area = e0.area.si();
  const double delay = e0.delay.si();

  acc.dynamic_w[0] += e0.dynamic_power.si();
  acc.static_w[0] += e0.static_power.si();
  acc.energy_j[0] += e0.energy_per_op.si();
  acc.area_m2[0] += area;
  acc.delay_s[0] = std::max(acc.delay_s[0], delay);

  if (vdd_lanes == nullptr && f_lanes == nullptr) {
    // Uniform operating point too: every lane is the lane-0 evaluate.
    for (std::size_t l = 1; l < width; ++l) {
      acc.dynamic_w[l] += e0.dynamic_power.si();
      acc.static_w[l] += e0.static_power.si();
      acc.energy_j[l] += e0.energy_per_op.si();
      acc.area_m2[l] += area;
      acc.delay_s[l] = std::max(acc.delay_s[l], delay);
    }
    ++stats_.term_capture_rows;
    return true;
  }

  const model::ParamSpec& vdd_spec = *vdd_read->spec;
  const model::ParamSpec& f_spec = *f_read->spec;
  for (std::size_t l = 1; l < width; ++l) {
    const double vdd = vdd_lanes != nullptr ? vdd_lanes[l]
                                            : vdd_spec.default_value;
    const double f = f_lanes != nullptr ? f_lanes[l] : f_spec.default_value;
    // Mirror of BatchLaneReader::get_or + Model::param for this lane's
    // operating point: same NaN and range rules, so throw-vs-not
    // matches the scalar path (the message never surfaces — a throw
    // degrades the block and the scalar replay raises the real error).
    if (std::isnan(vdd) || std::isnan(f)) {
      throw expr::ExprError("batch: unbound operating point");
    }
    vdd_spec.validate(vdd);
    f_spec.validate(f);
    const model::EstimateCore core = model::evaluate_terms(
        e0.cap_terms, e0.static_terms,
        model::OperatingPoint{units::Voltage{vdd}, units::Frequency{f}});
    acc.dynamic_w[l] += core.dynamic_power.si();
    acc.static_w[l] += core.static_power.si();
    acc.energy_j[l] += core.energy_per_op.si();
    acc.area_m2[l] += area;
    acc.delay_s[l] = std::max(acc.delay_s[l], delay);
  }
  ++stats_.term_capture_rows;
  return true;
}

void BatchPlanInstance::play_block(
    const std::vector<SlotId>& slots,
    const std::vector<std::vector<double>>& lane_values, std::size_t width,
    PointColumns& out, std::size_t base) {
  if (width == 0) return;
  stats_.points += width;
  if (!batchable() || width <= 1) {
    // Intermodel fixed-point work (or a degenerate block) stays on the
    // whole-point scalar path: convergence per point, no lane arrays.
    play_block_scalar(slots, lane_values, width, out, base);
    return;
  }
  exec_.reset(width);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    for (std::size_t l = 0; l < width; ++l) {
      exec_.bind_lane(slots[s], l, lane_values[s][l]);
    }
  }
  try {
    run_node_batch(0, width);
  } catch (...) {
    // Something in this block throws.  Degrade the whole block to the
    // scalar path: points replay in lane order, so the error that
    // escapes is the one the scalar sweep would raise (and a spurious
    // batch-only failure would be absorbed entirely).
    play_block_scalar(slots, lane_values, width, out, base);
    return;
  }
  ++stats_.blocks;
  const NodeAcc& acc = accs_[0];
  for (std::size_t l = 0; l < width; ++l) {
    out.power_w[base + l] = acc.dynamic_w[l] + acc.static_w[l];
    out.energy_j[base + l] = acc.energy_j[l];
    out.area_m2[base + l] = acc.area_m2[l];
    out.delay_s[base + l] = acc.delay_s[l];
  }
}

}  // namespace powerplay::sheet
