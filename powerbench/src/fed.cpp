#include "fed.hpp"

#include <algorithm>
#include <sstream>

#include "library/serialize.hpp"

namespace powerbench {

namespace {

constexpr Pools kPeerPools{2, 1, 1};
constexpr std::size_t kPeers = 2;
constexpr std::size_t kOwnModels = 24;    ///< per peer, on that peer only
constexpr std::size_t kSharedModels = 8;  ///< on both peers

powerplay::model::UserModelDefinition make_model(const std::string& name, SplitMix64& rng) {
  powerplay::model::UserModelDefinition def;
  def.name = name;
  def.category = powerplay::model::Category::kComputation;
  def.documentation = "federated benchmark model " + name;
  def.params = {{"k", "scale", std::floor(rng.uniform(1, 100)), "", 0, 1e9, false}};
  def.c_fullswing = "k * " + std::to_string(1 + rng.below(90)) + "e-15";
  return def;
}

}  // namespace

FedPeers::FedPeers(const fs::path& dir, SplitMix64 rng) {
  std::vector<std::vector<powerplay::model::UserModelDefinition>> peer(kPeers);
  for (std::size_t j = 0; j < kSharedModels; ++j) {
    const auto def = make_model("fedall" + std::to_string(j), rng);
    for (auto& models : peer) models.push_back(def);
  }
  for (std::size_t p = 0; p < kPeers; ++p) {
    for (std::size_t j = 0; j < kOwnModels; ++j) {
      peer[p].push_back(make_model("fedp" + std::to_string(p) + "m" + std::to_string(j), rng));
    }
  }
  for (const auto& models : peer) {
    for (const auto& def : models) text_[def.name] = powerplay::library::to_text(def);
  }
  for (const auto& [name, text] : text_) names_.push_back(name);

  for (std::size_t p = 0; p < kPeers; ++p) {
    const fs::path store = dir / ("peer" + std::to_string(p));
    seed_store(store, [&peer, p](library::LibraryStore& s, const auto&) {
      for (const auto& def : peer[p]) s.save_model(def);
    });
    sites_.push_back(std::make_unique<Site>(store, kPeerPools, tracer_));
    ports_.push_back(sites_.back()->port());
  }

  for (const char* q : kFedQueries) {
    std::map<std::string, int> replicas;
    for (std::size_t p = 0; p < kPeers; ++p) {
      std::size_t items = 0;
      for (const auto& def : peer[p]) {
        if (def.name.find(q) == std::string::npos) continue;
        ++replicas[def.name];
        ++items;
      }
      hosts_[q].push_back("127.0.0.1:" + std::to_string(ports_[p]) +
                          " served items=" + std::to_string(items));
    }
    std::sort(hosts_[q].begin(), hosts_[q].end());
    // Ranked by replica count, then name.
    std::vector<std::pair<int, std::string>> order;
    for (const auto& [name, n] : replicas) order.emplace_back(-n, name);
    std::sort(order.begin(), order.end());
    std::ostringstream os;
    os << "# federated models: " << order.size() << "\n";
    for (const auto& [neg, name] : order) os << name << " replicas=" << -neg << "\n";
    os << "# hosts\n";
    listing_[q] = os.str();
  }
}

bool FedPeers::search_ok(const std::string& body, const std::string& query) const {
  const std::string& want = listing_.at(query);
  if (body.compare(0, want.size(), want) != 0) return false;
  // The per-host lines follow in completion order.
  std::vector<std::string> lines;
  std::istringstream rest(body.substr(want.size()));
  for (std::string line; std::getline(rest, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines == hosts_.at(query);
}

bool FedPeers::fetch_ok(const std::string& body, const std::string& name) const {
  return body == text_.at(name);
}

}  // namespace powerbench
