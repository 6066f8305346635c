#include "journal/wal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "journal/codec.hpp"

namespace trader::journal {

namespace {

constexpr const char* kSegmentPrefix = "wal-";
constexpr const char* kSegmentSuffix = ".log";

std::string segment_name(std::uint64_t first_seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(first_seq), kSegmentSuffix);
  return buf;
}

/// First sequence number encoded in a segment file name, or 0 when the
/// name does not match the wal-<seq>.log pattern.
std::uint64_t parse_segment_seq(const std::string& name) {
  const std::size_t prefix = std::strlen(kSegmentPrefix);
  const std::size_t suffix = std::strlen(kSegmentSuffix);
  if (name.size() <= prefix + suffix) return 0;
  if (name.compare(0, prefix, kSegmentPrefix) != 0) return 0;
  if (name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) return 0;
  const std::string digits = name.substr(prefix, name.size() - prefix - suffix);
  if (digits.empty()) return 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

std::vector<std::string> list_dir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(d);
  return names;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::read(fd, out.data() + off, out.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return true;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Attempt to parse one record at `off`. Returns:
///   1  parsed (rec filled, *advance set)
///   0  torn candidate: bytes run out mid-header or mid-body
///  -1  structurally bad: magic/bound/checksum/decode failure
int parse_record(const std::uint8_t* data, std::size_t size, std::size_t off,
                 WalRecord& rec, std::size_t* advance, std::string* why) {
  if (size - off < kWalRecordHeader) {
    *why = "short header";
    return 0;
  }
  Decoder hdr(data + off, kWalRecordHeader);
  const std::uint32_t magic = hdr.u32();
  const std::uint32_t checksum = hdr.u32();
  const std::uint32_t body_len = hdr.u32();
  if (magic != kWalMagic) {
    *why = "bad magic";
    return -1;
  }
  if (body_len > kMaxWalBody) {
    *why = "body length over bound";
    return -1;
  }
  if (size - off - kWalRecordHeader < body_len) {
    *why = "short body";
    return 0;
  }
  const std::uint8_t* body = data + off + kWalRecordHeader;
  if (fnv1a32(body, body_len) != checksum) {
    *why = "checksum mismatch";
    return -1;
  }
  Decoder dec(body, body_len);
  rec.seq = dec.u64();
  const std::uint8_t type = dec.u8();
  rec.time = dec.i64();
  rec.slot = dec.str();
  rec.payload = dec.blob();
  if (!dec.done() || type < 1 || type > 4 || rec.seq == 0) {
    *why = "malformed body";
    return -1;
  }
  rec.type = static_cast<WalRecordType>(type);
  *advance = kWalRecordHeader + body_len;
  return 1;
}

/// True when a structurally valid record exists anywhere in
/// [from, size) — used to distinguish a torn tail (nothing valid
/// after the damage) from mid-log corruption (history continues past
/// the bad bytes, so truncating would silently drop real records).
bool has_valid_record_after(const std::uint8_t* data, std::size_t size,
                            std::size_t from) {
  for (std::size_t off = from;
       off + kWalRecordHeader <= size; ++off) {
    WalRecord rec;
    std::size_t advance = 0;
    std::string why;
    if (parse_record(data, size, off, rec, &advance, &why) == 1) return true;
  }
  return false;
}

bool truncate_file(const std::string& path, std::size_t len) {
  return ::truncate(path.c_str(), static_cast<off_t>(len)) == 0;
}

}  // namespace

const char* to_string(WalRecordType t) {
  switch (t) {
    case WalRecordType::kFrame: return "frame";
    case WalRecordType::kSlotUp: return "slot-up";
    case WalRecordType::kSlotDown: return "slot-down";
    case WalRecordType::kTick: return "tick";
  }
  return "?";
}

const char* to_string(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kBatch: return "batch";
    case FsyncPolicy::kEveryRecord: return "every-record";
  }
  return "?";
}

const char* to_string(WalScanStatus s) {
  switch (s) {
    case WalScanStatus::kOk: return "ok";
    case WalScanStatus::kTornTail: return "torn-tail";
    case WalScanStatus::kCorrupt: return "corrupt";
    case WalScanStatus::kIoError: return "io-error";
  }
  return "?";
}

WalWriter::~WalWriter() { close(); }

bool WalWriter::open(const std::string& dir, std::uint64_t next_seq,
                     std::size_t segment_bytes, FsyncPolicy fsync) {
  close();
  if (next_seq == 0) next_seq = 1;
  if (!ensure_dir(dir)) return false;
  dir_ = dir;
  segment_bytes_ = segment_bytes > 0 ? segment_bytes : (1 << 20);
  fsync_ = fsync;
  next_seq_ = next_seq;
  return open_segment(next_seq_);
}

bool WalWriter::open_segment(std::uint64_t first_seq) {
  if (fd_ >= 0) {
    if (fsync_ != FsyncPolicy::kNone) {
      ::fsync(fd_);
      ++stats_.syncs;
    }
    ::close(fd_);
    fd_ = -1;
  }
  const std::string path = dir_ + "/" + segment_name(first_seq);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    ++stats_.errors;
    return false;
  }
  current_bytes_ = 0;
  current_records_ = 0;
  dirty_ = false;
  ++stats_.segments;
  return true;
}

std::uint64_t WalWriter::append(WalRecordType type, const std::string& slot,
                                runtime::SimTime time,
                                const std::uint8_t* payload,
                                std::size_t payload_len) {
  if (fd_ < 0) return 0;
  Encoder body;
  body.u64(next_seq_);
  body.u8(static_cast<std::uint8_t>(type));
  body.i64(time);
  body.str(slot);
  body.blob(payload, payload_len);
  if (body.size() > kMaxWalBody) {
    ++stats_.errors;
    return 0;
  }
  const std::uint32_t checksum =
      fnv1a32(body.buffer().data(), body.size());
  Encoder rec;
  rec.u32(kWalMagic);
  rec.u32(checksum);
  rec.u32(static_cast<std::uint32_t>(body.size()));
  rec.raw(body.buffer().data(), body.size());

  // Rotate before the append so a segment never splits a record.
  if (current_records_ > 0 && current_bytes_ + rec.size() > segment_bytes_) {
    if (!open_segment(next_seq_)) return 0;
  }
  if (!write_all(fd_, rec.buffer().data(), rec.size())) {
    ++stats_.errors;
    return 0;
  }
  current_bytes_ += rec.size();
  ++current_records_;
  ++stats_.records;
  stats_.bytes += rec.size();
  dirty_ = true;
  if (fsync_ == FsyncPolicy::kEveryRecord) {
    if (::fsync(fd_) != 0) ++stats_.errors;
    ++stats_.syncs;
    dirty_ = false;
  }
  return next_seq_++;
}

bool WalWriter::sync(bool force) {
  if (fd_ < 0) return false;
  if (!dirty_) return true;
  if (!force && fsync_ != FsyncPolicy::kBatch) return true;
  if (::fsync(fd_) != 0) {
    ++stats_.errors;
    return false;
  }
  ++stats_.syncs;
  dirty_ = false;
  return true;
}

void WalWriter::close() {
  if (fd_ < 0) return;
  if (fsync_ != FsyncPolicy::kNone && dirty_) {
    ::fsync(fd_);
    ++stats_.syncs;
  }
  ::close(fd_);
  fd_ = -1;
  dirty_ = false;
}

void WalWriter::close_nosync() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  dirty_ = false;
}

std::vector<std::string> wal_segments(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const std::string& name : list_dir(dir)) {
    const std::uint64_t seq = parse_segment_seq(name);
    if (seq > 0) found.emplace_back(seq, dir + "/" + name);
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [seq, path] : found) paths.push_back(std::move(path));
  return paths;
}

WalScanResult scan_wal(const std::string& dir, std::uint64_t after_seq,
                       bool repair_tail,
                       const std::function<bool(const WalRecord&)>& fn) {
  WalScanResult result;
  const std::vector<std::string> paths = wal_segments(dir);
  if (paths.empty()) return result;

  const std::string first_name = paths.front().substr(dir.size() + 1);
  std::uint64_t expected = parse_segment_seq(first_name);
  if (expected > after_seq + 1) {
    result.status = WalScanStatus::kCorrupt;
    result.error = "wal starts at seq " + std::to_string(expected) +
                   " but checkpoint covers only up to " +
                   std::to_string(after_seq);
    return result;
  }

  for (std::size_t i = 0; i < paths.size(); ++i) {
    const bool last_segment = (i + 1 == paths.size());
    const std::string name = paths[i].substr(dir.size() + 1);
    const std::uint64_t file_seq = parse_segment_seq(name);
    if (file_seq != expected) {
      result.status = WalScanStatus::kCorrupt;
      result.error = "segment " + name + " expected first seq " +
                     std::to_string(expected);
      return result;
    }
    std::vector<std::uint8_t> data;
    if (!read_file(paths[i], data)) {
      result.status = WalScanStatus::kIoError;
      result.error = "cannot read " + name;
      return result;
    }
    std::size_t off = 0;
    while (off < data.size()) {
      WalRecord rec;
      std::size_t advance = 0;
      std::string why;
      const int parsed =
          parse_record(data.data(), data.size(), off, rec, &advance, &why);
      if (parsed == 1) {
        if (rec.seq != expected) {
          result.status = WalScanStatus::kCorrupt;
          result.error = "sequence gap in " + name + ": expected " +
                         std::to_string(expected) + " found " +
                         std::to_string(rec.seq);
          return result;
        }
        result.last_seq = rec.seq;
        ++expected;
        if (rec.seq > after_seq) {
          ++result.records;
          if (fn && !fn(rec)) return result;
        }
        off += advance;
        continue;
      }
      // Damage at `off`. Only the physically last bytes of the log may
      // be written off as a crash-torn tail; everything else fails
      // closed (real history would be silently dropped otherwise).
      // A "short body" (parsed == 0) is NOT automatically a tear: a
      // flipped bit in a mid-log length field claims bytes past EOF
      // and swallows every record behind it, so the valid-suffix check
      // applies to both damage kinds.
      const bool tail = last_segment &&
                        !has_valid_record_after(data.data(), data.size(),
                                                off + 1);
      if (!tail) {
        result.status = WalScanStatus::kCorrupt;
        result.error = "mid-log corruption in " + name + " at offset " +
                       std::to_string(off) + " (" + why + ")";
        return result;
      }
      result.status = WalScanStatus::kTornTail;
      result.truncated_bytes = data.size() - off;
      result.error = "torn tail in " + name + " at offset " +
                     std::to_string(off) + " (" + why + ")";
      if (repair_tail && !truncate_file(paths[i], off)) {
        result.status = WalScanStatus::kIoError;
        result.error = "failed to truncate torn tail of " + name;
      }
      return result;
    }
  }
  return result;
}

std::size_t retire_wal_segments(const std::string& dir,
                                std::uint64_t covered_seq) {
  const std::vector<std::string> paths = wal_segments(dir);
  std::size_t removed = 0;
  for (std::size_t i = 0; i + 1 < paths.size(); ++i) {
    const std::string next_name = paths[i + 1].substr(dir.size() + 1);
    const std::uint64_t next_first = parse_segment_seq(next_name);
    // Everything in segment i is < next_first; covered iff the whole
    // range up to next_first - 1 is at or below covered_seq.
    if (next_first <= covered_seq + 1) {
      if (::unlink(paths[i].c_str()) == 0) ++removed;
    } else {
      break;
    }
  }
  return removed;
}

std::size_t purge_journal_dir(const std::string& dir) {
  std::size_t removed = 0;
  for (const std::string& name : list_dir(dir)) {
    const bool wal = parse_segment_seq(name) > 0;
    const bool ckpt = name.rfind("ckpt-", 0) == 0;
    if (!wal && !ckpt) continue;
    if (::unlink((dir + "/" + name).c_str()) == 0) ++removed;
  }
  return removed;
}

bool ensure_dir(const std::string& dir) {
  if (dir.empty()) return false;
  std::string path;
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    const std::size_t slash = dir.find('/', pos);
    const std::size_t end = (slash == std::string::npos) ? dir.size() : slash;
    path = dir.substr(0, end);
    if (!path.empty() && path != "/") {
      if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  struct stat st{};
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace trader::journal
