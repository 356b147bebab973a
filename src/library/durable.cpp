#include "library/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "library/textio.hpp"

namespace powerplay::library {

namespace fs = std::filesystem;

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: tables[0] is
/// the classic byte-at-a-time table, and tables[k][b] is the CRC
/// contribution of byte b followed by k zero bytes, so eight input
/// bytes fold into the register with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

std::uint32_t load_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw FormatError(what + ": " + std::strerror(errno));
}

}  // namespace

std::uint32_t crc32(const char* data, std::size_t size, std::uint32_t seed) {
  static const CrcTables t = make_crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_u32le(p);
    const std::uint32_t hi = load_u32le(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::string& data) {
  return crc32(data.data(), data.size());
}

void put_u32le(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

std::uint32_t get_u32le(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = v << 8 | static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

std::uint64_t get_u64le(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

void fsync_fd(int fd, const fs::path& what) {
  if (::fsync(fd) != 0) fail_errno("fsync " + what.string());
}

void fsync_dir(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail_errno("open dir " + dir.string());
  if (::fsync(fd) != 0) {
    // Some filesystems reject directory fsync; the rename is still
    // ordered after the temp file's own fsync, so tolerate it.
    if (errno != EINVAL && errno != ENOTSUP && errno != EBADF) {
      const int err = errno;
      ::close(fd);
      errno = err;
      fail_errno("fsync dir " + dir.string());
    }
  }
  ::close(fd);
}

void atomic_write_file(const fs::path& path, const std::string& contents) {
  // Unique per process *and* per call: concurrent writers of distinct
  // store entries share the directory.
  static std::atomic<std::uint64_t> sequence{0};
  const fs::path dir = path.parent_path();
  const fs::path tmp =
      dir / (path.filename().string() + ".tmp" +
             std::to_string(static_cast<long>(::getpid())) + "." +
             std::to_string(sequence.fetch_add(1)));

  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail_errno("cannot create temp file " + tmp.string());
  std::size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      errno = err;
      fail_errno("write " + tmp.string());
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = err;
    fail_errno("fsync " + tmp.string());
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail_errno("close " + tmp.string());
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    errno = err;
    fail_errno("rename " + tmp.string() + " -> " + path.string());
  }
  fsync_dir(dir);
}

std::string with_checksum_footer(std::string contents) {
  char footer[48];
  std::snprintf(footer, sizeof footer, "#ppck %08x %zu\n", crc32(contents),
                contents.size());
  contents += footer;
  return contents;
}

SnapshotState verify_snapshot(const std::string& raw, std::string* contents) {
  if (contents != nullptr) *contents = raw;
  if (raw.empty()) return SnapshotState::kMissingFooter;

  // The footer is the last line.  Find where that line starts; a torn
  // trailing line (no final '\n') still counts as the last line.
  std::size_t scan_end = raw.size();
  if (raw.back() == '\n') --scan_end;
  const std::size_t nl = scan_end == 0 ? std::string::npos
                                       : raw.rfind('\n', scan_end - 1);
  const std::size_t line = nl == std::string::npos ? 0 : nl + 1;

  constexpr char kTag[] = "#ppck ";
  if (raw.compare(line, sizeof kTag - 1, kTag) != 0) {
    return SnapshotState::kMissingFooter;
  }
  // Parse the exact canonical form snprintf("%08x %zu\n") emits — 8
  // lowercase hex digits, one space, decimal without leading zeros —
  // so that any bit flip inside the footer itself is also corruption.
  std::size_t i = line + sizeof kTag - 1;
  std::uint32_t crc = 0;
  for (int k = 0; k < 8; ++k, ++i) {
    if (i >= raw.size()) return SnapshotState::kCorrupt;
    const char c = raw[i];
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return SnapshotState::kCorrupt;
    }
    crc = crc << 4 | static_cast<std::uint32_t>(digit);
  }
  if (i >= raw.size() || raw[i] != ' ') return SnapshotState::kCorrupt;
  ++i;
  const std::size_t length_start = i;
  std::uint64_t length = 0;
  while (i < raw.size() && raw[i] >= '0' && raw[i] <= '9') {
    if (length > raw.size()) return SnapshotState::kCorrupt;  // overflow-safe
    length = length * 10 + static_cast<std::uint64_t>(raw[i] - '0');
    ++i;
  }
  if (i == length_start) return SnapshotState::kCorrupt;
  if (raw[length_start] == '0' && i != length_start + 1) {
    return SnapshotState::kCorrupt;  // non-canonical leading zero
  }
  if (i + 1 != raw.size() || raw[i] != '\n') return SnapshotState::kCorrupt;

  const std::string payload = raw.substr(0, line);
  if (payload.size() != length || crc32(payload) != crc) {
    return SnapshotState::kCorrupt;
  }
  if (contents != nullptr) *contents = payload;
  return SnapshotState::kOk;
}

}  // namespace powerplay::library
