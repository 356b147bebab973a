#include "trace.hpp"

#include <fstream>
#include <unordered_map>

namespace powerbench {

void Tracer::add(Span span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"tag\":\"" << s.tag
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"work\":" << s.work << "}\n";
  }
}

std::map<std::uint64_t, double> self_times_us(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.us();
  }
  std::map<std::uint64_t, double> self;
  for (const Span& s : spans) {
    const auto it = child_us.find(s.id);
    self[s.id] = s.us() - (it == child_us.end() ? 0.0 : it->second);
  }
  return self;
}

}  // namespace powerbench
