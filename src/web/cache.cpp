#include "web/cache.hpp"

#include "engine/fingerprint.hpp"

namespace powerplay::web {

namespace {

std::string quoted_hex(std::uint64_t digest) {
  return '"' + engine::fingerprint_hex(digest) + '"';
}

}  // namespace

ResponseCache::Entry::Entry(Response head_in, PageTemplate body_in)
    : head(std::move(head_in)), body(std::move(body_in)) {
  head.body.clear();
  engine::Fnv1a h;
  h.size(static_cast<std::size_t>(head.status));
  h.text(head.content_type);
  h.text(body.markup());
  if (!body.holes().empty()) {
    h.size(body.holes().size());
    for (const PageTemplate::Hole& hole : body.holes()) {
      h.size(hole.offset);
      h.tag(static_cast<char>(hole.encoding));
    }
  }
  digest = h.digest();
  if (body.holes().empty()) etag = quoted_hex(digest);
}

std::string ResponseCache::Entry::etag_for(const std::string& user) const {
  if (!etag.empty()) return etag;
  engine::Fnv1a h;
  h.bytes(&digest, sizeof digest);
  h.text(user);
  return quoted_hex(h.digest());
}

ResponseCache::ResponseCache(ResponseCacheOptions options)
    : options_(options) {}

ResponseCache::Found ResponseCache::find(const std::string& key) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  order_.splice(order_.begin(), order_, it->second.lru);  // touch
  return {it->second.entry, it->second.revision};
}

void ResponseCache::refresh(const std::string& key, std::uint64_t revision) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) it->second.revision = revision;
}

void ResponseCache::insert(const std::string& key,
                           std::shared_ptr<const Entry> entry,
                           std::uint64_t revision) {
  const std::size_t size = entry->body.markup().size();
  std::lock_guard lock(mutex_);
  if (options_.max_entries == 0 || size > options_.max_bytes) return;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= it->second.entry->body.markup().size();
    order_.erase(it->second.lru);
    entries_.erase(it);
  }
  order_.push_front(key);
  entries_.emplace(key, Slot{std::move(entry), revision, order_.begin()});
  bytes_ += size;
  insertions_ += 1;
  evict_locked();
}

void ResponseCache::evict_locked() {
  while (!order_.empty() && (entries_.size() > options_.max_entries ||
                             bytes_ > options_.max_bytes)) {
    const std::string& victim = order_.back();
    auto it = entries_.find(victim);
    bytes_ -= it->second.entry->body.markup().size();
    entries_.erase(it);
    order_.pop_back();
    evictions_ += 1;
  }
}

void ResponseCache::count_hit() {
  std::lock_guard lock(mutex_);
  hits_ += 1;
}
void ResponseCache::count_miss() {
  std::lock_guard lock(mutex_);
  misses_ += 1;
}
void ResponseCache::count_revalidation() {
  std::lock_guard lock(mutex_);
  revalidations_ += 1;
}
void ResponseCache::count_not_modified() {
  std::lock_guard lock(mutex_);
  not_modified_ += 1;
}

ResponseCacheStats ResponseCache::stats() const {
  std::lock_guard lock(mutex_);
  ResponseCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.revalidations = revalidations_;
  s.not_modified = not_modified_;
  s.evictions = evictions_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  return s;
}

bool if_none_match(const Request& request, const std::string& etag) {
  auto it = request.headers.find("if-none-match");
  if (it == request.headers.end() || etag.empty()) return false;
  const std::string& header = it->second;
  if (header == "*") return true;
  // Comma-separated list of quoted tags; exact (strong) comparison.
  std::size_t pos = 0;
  while (pos < header.size()) {
    std::size_t comma = header.find(',', pos);
    if (comma == std::string::npos) comma = header.size();
    std::size_t b = pos;
    std::size_t e = comma;
    while (b < e && header[b] == ' ') ++b;
    while (e > b && header[e - 1] == ' ') --e;
    if (header.compare(b, e - b, etag) == 0) return true;
    pos = comma + 1;
  }
  return false;
}

}  // namespace powerplay::web
