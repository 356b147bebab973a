// fed.hpp — the model network browse's visitors search: two peer sites
// in the same process, each holding seeded user models (some on both),
// which the front site federates over.
//
// Every search must list exactly the union of the peers' matching
// models with their replica counts, served by both hosts; every fetch
// must return the seeded definition.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "site.hpp"

namespace powerbench {

/// The query strings searches draw from.
inline constexpr const char* kFedQueries[] = {"",   "fed", "fedp0", "fedp1",
                                              "fedall", "m1", "m2", "all3"};

class FedPeers {
 public:
  /// Seed one store per peer under `dir` from `rng` and serve each from
  /// its own site (untraced).
  FedPeers(const fs::path& dir, SplitMix64 rng);

  [[nodiscard]] const std::vector<std::uint16_t>& ports() const { return ports_; }
  /// Every model name the peers hold, sorted.
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

  /// Whether `body` is the front site's answer to /fed/models?q=`query`.
  [[nodiscard]] bool search_ok(const std::string& body, const std::string& query) const;
  /// Whether `body` is the front site's answer to /fed/model?name=`name`.
  [[nodiscard]] bool fetch_ok(const std::string& body, const std::string& name) const;

 private:
  Tracer tracer_;  // never enabled: peers serve untraced
  std::vector<std::unique_ptr<Site>> sites_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::string> names_;
  std::map<std::string, std::string> text_;     ///< name -> serialized definition
  std::map<std::string, std::string> listing_;  ///< query -> merged listing
  /// query -> "127.0.0.1:<port> served items=<n>" per peer, sorted
  std::map<std::string, std::vector<std::string>> hosts_;
};

}  // namespace powerbench
