// registry.hpp — the shared model library.
//
// "Existing hardware models are shared among all users, and new models
// are easily created and integrated."  The registry is the in-process
// representation of one site's library: built-in characterized models
// plus user-defined equation models and saved macros.  src/library adds
// persistence; src/web/remote.hpp adds fetching entries from other sites.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/model.hpp"

namespace powerplay::model {

class ModelRegistry {
 public:
  /// Add a model; throws ExprError if the name is already taken
  /// (library names are site-wide unique, like the paper's URLs).
  void add(ModelPtr model);

  /// Add, replacing any model with the same name (used when a user
  /// edits their own model definition).
  void add_or_replace(ModelPtr model);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Find by name; nullptr when absent.
  [[nodiscard]] const Model* find(const std::string& name) const;

  /// Find by name as a shared pointer (for handing to macros/remotes).
  [[nodiscard]] ModelPtr find_shared(const std::string& name) const;

  /// Find by name; throws ExprError with a helpful message when absent.
  [[nodiscard]] const Model& at(const std::string& name) const;

  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::vector<const Model*> by_category(Category c) const;
  [[nodiscard]] std::size_t size() const { return models_.size(); }

  /// Changes on every add()/add_or_replace().  Values are drawn from
  /// one process-wide counter, so two registries (say, one destroyed
  /// and another built at its address) never share a generation unless
  /// one is an unmodified copy of the other.  Anything parsed against
  /// this registry is current while the generation is unchanged
  /// (library::LibraryStore's parsed-design cache relies on it).
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  void bump_generation();

  std::map<std::string, ModelPtr> models_;
  std::uint64_t generation_ = 0;
};

}  // namespace powerplay::model
