#include "journal/checkpoint.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "journal/wal.hpp"

namespace trader::journal {

namespace {

constexpr const char* kPrefix = "ckpt-";
constexpr const char* kSuffix = ".bin";
constexpr std::size_t kHeaderBytes = 16;

std::string checkpoint_name_for(std::uint64_t wal_seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", kPrefix,
                static_cast<unsigned long long>(wal_seq), kSuffix);
  return buf;
}

/// Coverage seq from a snapshot file name; UINT64_MAX when the name is
/// not a ckpt-<seq>.bin (seq 0 is a legal coverage: "nothing yet").
std::uint64_t parse_checkpoint_seq(const std::string& name) {
  const std::size_t prefix = std::strlen(kPrefix);
  const std::size_t suffix = std::strlen(kSuffix);
  constexpr std::uint64_t kBad = ~0ULL;
  if (name.size() <= prefix + suffix) return kBad;
  if (name.compare(0, prefix, kPrefix) != 0) return kBad;
  if (name.compare(name.size() - suffix, suffix, kSuffix) != 0) return kBad;
  const std::string digits = name.substr(prefix, name.size() - prefix - suffix);
  if (digits.empty()) return kBad;
  for (char c : digits) {
    if (c < '0' || c > '9') return kBad;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

std::vector<std::uint64_t> list_checkpoints(const std::string& dir) {
  std::vector<std::uint64_t> seqs;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return seqs;
  while (dirent* e = ::readdir(d)) {
    const std::uint64_t seq = parse_checkpoint_seq(e->d_name);
    if (seq != ~0ULL) seqs.push_back(seq);
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
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

bool write_file_durable(const std::string& path,
                        const std::vector<std::uint8_t>& bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir, std::size_t retain)
    : dir_(std::move(dir)), retain_(retain > 0 ? retain : 1) {}

bool CheckpointStore::write(std::uint64_t wal_seq,
                            const std::vector<Checkpointable*>& parts,
                            std::string* error) {
  if (!ensure_dir(dir_)) {
    if (error) *error = "cannot create checkpoint dir " + dir_;
    return false;
  }
  Encoder body;
  body.u64(wal_seq);
  body.u32(static_cast<std::uint32_t>(parts.size()));
  for (const Checkpointable* part : parts) {
    Encoder section;
    part->save_state(section);
    body.str(part->checkpoint_name());
    body.u32(part->checkpoint_version());
    body.blob(section.buffer());
  }
  Encoder file;
  file.u32(kCheckpointMagic);
  file.u32(kCheckpointFormat);
  file.u32(fnv1a32(body.buffer().data(), body.size()));
  file.u32(static_cast<std::uint32_t>(body.size()));
  file.raw(body.buffer().data(), body.size());

  const std::string final_path = dir_ + "/" + checkpoint_name_for(wal_seq);
  const std::string tmp_path = final_path + ".tmp";
  if (!write_file_durable(tmp_path, file.buffer())) {
    if (error) *error = "cannot write " + tmp_path;
    ::unlink(tmp_path.c_str());
    return false;
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    if (error) *error = "cannot rename " + tmp_path;
    ::unlink(tmp_path.c_str());
    return false;
  }
  fsync_dir(dir_);
  ++stats_.written;

  // Retention: keep the newest `retain_` snapshots.
  const std::vector<std::uint64_t> seqs = list_checkpoints(dir_);
  if (seqs.size() > retain_) {
    for (std::size_t i = 0; i + retain_ < seqs.size(); ++i) {
      if (::unlink((dir_ + "/" + checkpoint_name_for(seqs[i])).c_str()) == 0) {
        ++stats_.retired;
      }
    }
  }
  return true;
}

bool CheckpointStore::load_latest(const std::vector<Checkpointable*>& parts,
                                  std::uint64_t* wal_seq, std::string* error) {
  if (wal_seq) *wal_seq = 0;
  if (error) error->clear();
  std::vector<std::uint64_t> seqs = list_checkpoints(dir_);
  std::sort(seqs.rbegin(), seqs.rend());
  for (std::uint64_t seq : seqs) {
    ++stats_.load_attempts;
    const std::string path = dir_ + "/" + checkpoint_name_for(seq);
    std::vector<std::uint8_t> bytes;
    if (!read_file(path, bytes) || bytes.size() < kHeaderBytes) {
      ++stats_.load_failures;
      continue;  // container damage: fall back to an older snapshot
    }
    Decoder hdr(bytes.data(), kHeaderBytes);
    const std::uint32_t magic = hdr.u32();
    const std::uint32_t format = hdr.u32();
    const std::uint32_t checksum = hdr.u32();
    const std::uint32_t body_len = hdr.u32();
    if (magic != kCheckpointMagic || format != kCheckpointFormat ||
        bytes.size() != kHeaderBytes + body_len) {
      ++stats_.load_failures;
      continue;
    }
    const std::uint8_t* body = bytes.data() + kHeaderBytes;
    if (fnv1a32(body, body_len) != checksum) {
      ++stats_.load_failures;
      continue;
    }
    // Parse the full container before mutating any part, so container
    // damage never leaves components half-restored.
    Decoder dec(body, body_len);
    const std::uint64_t covered = dec.u64();
    const std::uint32_t part_count = dec.u32();
    struct Section {
      std::string name;
      std::uint32_t version;
      std::vector<std::uint8_t> state;
    };
    std::vector<Section> sections;
    sections.reserve(part_count);
    for (std::uint32_t i = 0; i < part_count && dec.ok(); ++i) {
      Section s;
      s.name = dec.str();
      s.version = dec.u32();
      s.state = dec.blob();
      sections.push_back(std::move(s));
    }
    if (!dec.done()) {
      ++stats_.load_failures;
      continue;
    }
    // A checksum-valid container whose sections will not load is a
    // software/version problem, not bit rot: fail the recovery closed.
    for (Checkpointable* part : parts) {
      const Section* found = nullptr;
      for (const Section& s : sections) {
        if (s.name == part->checkpoint_name()) {
          found = &s;
          break;
        }
      }
      if (found == nullptr) {
        if (error) {
          *error = "checkpoint " + path + " lacks section '" +
                   part->checkpoint_name() + "'";
        }
        return false;
      }
      Decoder state(found->state.data(), found->state.size());
      if (!part->load_state(state, found->version)) {
        if (error) {
          *error = "checkpoint " + path + " section '" +
                   part->checkpoint_name() + "' (v" +
                   std::to_string(found->version) + ") refused to load";
        }
        return false;
      }
    }
    if (wal_seq) *wal_seq = covered;
    return true;
  }
  return false;  // no usable snapshot: fresh start (error stays empty)
}

std::vector<std::uint64_t> CheckpointStore::available() const {
  return list_checkpoints(dir_);
}

}  // namespace trader::journal
