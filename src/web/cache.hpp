// cache.hpp — fingerprint-keyed cache of rendered GET responses.
//
// The serving hot loop used to re-load, re-Play and re-render a design
// page on every hit.  This cache keys each cacheable GET by its route +
// canonical query and remembers the library revision (and, for
// design-scoped pages, the design's content fingerprint) it was
// rendered at.  The design pages key on route + `name` only, so every
// visitor shares one render per design state: /design/csv names no user,
// and /design is stored as a PageTemplate (web/html.hpp) that each hit
// splices its own user into.
//
//   - revision match            → serve the cached bytes outright;
//   - revision mismatch, but a design-scoped entry whose design still
//     fingerprints identically  → the commit touched something else;
//     refresh the entry's revision instead of re-rendering (the app
//     performs the fingerprint check — it owns the store);
//   - otherwise                 → re-render and replace.
//
// Every cached 200 carries a strong ETag, so a client that presents
// If-None-Match gets a 304 without a byte of body moving.  The entry's
// digest is FNV-1a over status, media type and body (plus the holes'
// offsets and encodings when the body is a template); a page without
// holes is tagged with the digest itself, a spliced page with FNV-1a of
// the digest and the user's bytes — the body is a pure function of the
// two, so a hit never re-hashes it.  Entries are LRU-bounded by count
// and total body bytes, and shared out as immutable snapshots: a hit
// copies bytes only when it builds its response.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "web/html.hpp"
#include "web/http.hpp"

namespace powerplay::web {

struct ResponseCacheOptions {
  std::size_t max_entries = 256;
  std::size_t max_bytes = 8u << 20;  ///< sum of cached body bytes
};

/// Counters for /healthz.
struct ResponseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;     ///< responses_cached
  std::uint64_t revalidations = 0;  ///< refreshed via fingerprint match
  std::uint64_t not_modified = 0;   ///< 304s answered from an ETag match
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

class ResponseCache {
 public:
  struct Entry {
    /// `head` (status, media type, headers; its body unused) and `body`
    /// make up the response; the digest and shared ETag are derived
    /// from them by the constructor.
    Entry(Response head, PageTemplate body);

    Response head;
    PageTemplate body;
    std::uint64_t digest = 0;
    std::string etag;  ///< strong, quoted; empty when the body has holes
    std::uint64_t model_revision = 0;  ///< registry generation at render
    std::string design;           ///< design this page depends on, if any
    std::uint64_t design_fp = 0;  ///< fingerprint(design) at render

    /// The strong quoted ETag of the page as `user` sees it.
    [[nodiscard]] std::string etag_for(const std::string& user) const;
  };

  explicit ResponseCache(ResponseCacheOptions options = {});

  /// The entry under `key` and the library revision it is current at,
  /// regardless of staleness (the caller revalidates against the
  /// current revision/fingerprint).  Null when absent.
  struct Found {
    std::shared_ptr<const Entry> entry;
    std::uint64_t revision = 0;
  };
  [[nodiscard]] Found find(const std::string& key);

  /// Mark the entry current again after a successful fingerprint
  /// revalidation (no re-render happened).
  void refresh(const std::string& key, std::uint64_t revision);

  void insert(const std::string& key, std::shared_ptr<const Entry> entry,
              std::uint64_t revision);

  // Stats hooks the app calls on its own cache decisions (hit / miss /
  // 304 are app-level outcomes; the cache only sees find/insert).
  void count_hit();
  void count_miss();
  void count_revalidation();
  void count_not_modified();

  [[nodiscard]] ResponseCacheStats stats() const;

 private:
  void evict_locked();

  ResponseCacheOptions options_;
  mutable std::mutex mutex_;
  /// LRU list of keys, most recent first; map values point into it.
  std::list<std::string> order_;
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::uint64_t revision = 0;  ///< library revision the entry is current at
    std::list<std::string>::iterator lru;
  };
  std::unordered_map<std::string, Slot> entries_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t revalidations_ = 0;
  std::uint64_t not_modified_ = 0;
  std::uint64_t evictions_ = 0;
};

/// True when the request's If-None-Match header matches `etag` (exact
/// entry in a comma-separated list, or "*").
bool if_none_match(const Request& request, const std::string& etag);

}  // namespace powerplay::web
