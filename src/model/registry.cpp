#include "model/registry.hpp"

#include <atomic>

#include "expr/ast.hpp"

namespace powerplay::model {

void ModelRegistry::bump_generation() {
  static std::atomic<std::uint64_t> counter{0};
  generation_ = counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void ModelRegistry::add(ModelPtr model) {
  const std::string& name = model->name();
  if (models_.contains(name)) {
    throw expr::ExprError("model '" + name + "' already exists in library");
  }
  models_.emplace(name, std::move(model));
  bump_generation();
}

void ModelRegistry::add_or_replace(ModelPtr model) {
  models_[model->name()] = std::move(model);
  bump_generation();
}

bool ModelRegistry::contains(const std::string& name) const {
  return models_.contains(name);
}

const Model* ModelRegistry::find(const std::string& name) const {
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second.get();
}

ModelPtr ModelRegistry::find_shared(const std::string& name) const {
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

const Model& ModelRegistry::at(const std::string& name) const {
  const Model* m = find(name);
  if (m == nullptr) {
    throw expr::ExprError("model '" + name + "' not found in library");
  }
  return *m;
}

std::vector<std::string> ModelRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, model] : models_) out.push_back(name);
  return out;
}

std::vector<const Model*> ModelRegistry::by_category(Category c) const {
  std::vector<const Model*> out;
  for (const auto& [name, model] : models_) {
    if (model->category() == c) out.push_back(model.get());
  }
  return out;
}

}  // namespace powerplay::model
