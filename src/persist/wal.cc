#include "persist/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/checksum.h"
#include "common/logging.h"
#include "persist/durable_file.h"

namespace privrec {
namespace {

constexpr uint32_t kWalMagic = 0x57565250;  // "PRVW"
constexpr uint32_t kWalVersion = 1;
constexpr size_t kSegmentHeaderBytes = 16;
constexpr size_t kRecordBytes = 32;
/// The prefix a torn write leaves behind: half a record, checksum missing.
constexpr size_t kTornRecordBytes = kRecordBytes / 2;

std::string SegmentFileName(uint64_t first_seq) {
  char name[40];
  std::snprintf(name, sizeof(name), "wal-%020llu.seg",
                static_cast<unsigned long long>(first_seq));
  return name;
}

void EncodeSegmentHeader(uint64_t first_seq,
                         unsigned char out[kSegmentHeaderBytes]) {
  std::memcpy(out + 0, &kWalMagic, 4);
  std::memcpy(out + 4, &kWalVersion, 4);
  std::memcpy(out + 8, &first_seq, 8);
}

void EncodeRecord(WalRecordKind kind, uint32_t u, uint32_t v, uint64_t seq,
                  unsigned char out[kRecordBytes]) {
  const uint32_t kind_word = static_cast<uint32_t>(kind);
  const uint32_t pad = 0;
  std::memcpy(out + 0, &kind_word, 4);
  std::memcpy(out + 4, &u, 4);
  std::memcpy(out + 8, &v, 4);
  std::memcpy(out + 12, &pad, 4);
  std::memcpy(out + 16, &seq, 8);
  const uint64_t checksum = ChecksumBytes(out, 24);
  std::memcpy(out + 24, &checksum, 8);
}

bool DecodeRecord(const unsigned char in[kRecordBytes], WalRecord* out) {
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, in + 24, 8);
  if (ChecksumBytes(in, 24) != stored_checksum) return false;
  uint32_t kind_word = 0;
  std::memcpy(&kind_word, in + 0, 4);
  if (kind_word > static_cast<uint32_t>(WalRecordKind::kAddNode)) return false;
  out->kind = static_cast<WalRecordKind>(kind_word);
  std::memcpy(&out->u, in + 4, 4);
  std::memcpy(&out->v, in + 8, 4);
  std::memcpy(&out->seq, in + 16, 8);
  return true;
}

struct SegmentInfo {
  std::string path;
  uint64_t first_seq = 0;
};

/// Segment files in `dir`, sorted by first sequence (the zero-padded name
/// sorts the same way, but the header is authoritative).
Result<std::vector<SegmentInfo>> ListSegments(const std::string& dir) {
  std::error_code ec;
  std::vector<SegmentInfo> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 28 || name.rfind("wal-", 0) != 0 ||
        name.substr(24) != ".seg") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    unsigned char header[kSegmentHeaderBytes];
    in.read(reinterpret_cast<char*>(header), kSegmentHeaderBytes);
    if (!in.good()) {
      return Status::IOError("wal segment '" + name + "' has no header");
    }
    uint32_t magic = 0;
    uint32_t version = 0;
    SegmentInfo info;
    info.path = entry.path().string();
    std::memcpy(&magic, header + 0, 4);
    std::memcpy(&version, header + 4, 4);
    std::memcpy(&info.first_seq, header + 8, 8);
    if (magic != kWalMagic) {
      return Status::IOError("wal segment '" + name + "' has a bad magic");
    }
    if (version != kWalVersion) {
      return Status::IOError("wal segment '" + name +
                             "' has unsupported version " +
                             std::to_string(version));
    }
    segments.push_back(std::move(info));
  }
  if (ec) return Status::IOError("cannot list wal dir '" + dir + "'");
  std::sort(segments.begin(), segments.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.first_seq < b.first_seq;
            });
  return segments;
}

/// Reads one segment's records. `is_last` permits (and reports) a torn
/// tail: scanning stops at the first short/corrupt/out-of-sequence record
/// and `torn_at` receives the byte offset it starts at; the same damage
/// in a non-last segment is an IOError.
Status ReadSegmentRecords(const SegmentInfo& segment, bool is_last,
                          std::vector<WalRecord>* out,
                          uint64_t* torn_at = nullptr) {
  std::ifstream in(segment.path, std::ios::binary);
  if (!in.good()) {
    return Status::IOError("cannot open wal segment '" + segment.path + "'");
  }
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(static_cast<std::streamoff>(kSegmentHeaderBytes));
  uint64_t offset = kSegmentHeaderBytes;
  uint64_t expected_seq = segment.first_seq;
  while (offset < file_size) {
    unsigned char raw[kRecordBytes];
    WalRecord record;
    const bool whole = offset + kRecordBytes <= file_size;
    if (whole) in.read(reinterpret_cast<char*>(raw), kRecordBytes);
    if (!whole || !in.good() || !DecodeRecord(raw, &record) ||
        record.seq != expected_seq) {
      if (!is_last) {
        return Status::IOError("wal segment '" + segment.path +
                               "' is corrupt mid-chain at offset " +
                               std::to_string(offset));
      }
      if (torn_at != nullptr) *torn_at = offset;
      return Status::OK();
    }
    out->push_back(record);
    ++expected_seq;
    offset += kRecordBytes;
  }
  return Status::OK();
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

WriteAheadLog::~WriteAheadLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    if (!crashed_ && !buffer_.empty()) {
      // Best-effort final flush; a caller that needs certainty already
      // called Sync() and checked its Status.
      (void)WriteAll(fd_, buffer_.data(), buffer_.size());
      (void)::fsync(fd_);
    }
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& dir, WalOptions options) {
  if (options.segment_max_records == 0) {
    return Status::InvalidArgument("segment_max_records must be positive");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create wal dir '" + dir + "'");
  std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog(dir, options));
  {
    std::lock_guard<std::mutex> lock(wal->mu_);
    PRIVREC_RETURN_NOT_OK(wal->OpenLocked());
  }
  return wal;
}

Status WriteAheadLog::OpenLocked() {
  PRIVREC_ASSIGN_OR_RETURN(std::vector<SegmentInfo> segments,
                           ListSegments(dir_));
  truncated_tail_bytes_ = 0;
  if (segments.empty()) {
    active_first_seq_ = 1;
    active_records_ = 0;
    next_seq_ = 1;
    durable_seq_ = 0;
    return RotateLocked();
  }
  // Validate the chain: every segment's first_seq must continue the
  // previous segment exactly (gaps or overlaps mean a segment was lost or
  // doubled — unrecoverable corruption, not a torn tail).
  uint64_t expected_first = segments.front().first_seq;
  uint64_t last_seq = segments.front().first_seq - 1;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].first_seq != expected_first) {
      return Status::IOError("wal segment chain is broken: expected seq " +
                             std::to_string(expected_first) + ", found '" +
                             segments[i].path + "'");
    }
    const bool is_last = i + 1 == segments.size();
    std::vector<WalRecord> records;
    uint64_t torn_at = 0;
    PRIVREC_RETURN_NOT_OK(
        ReadSegmentRecords(segments[i], is_last, &records, &torn_at));
    if (is_last && torn_at != 0) {
      std::error_code size_ec;
      const uint64_t file_size =
          std::filesystem::file_size(segments[i].path, size_ec);
      if (size_ec) {
        return Status::IOError("cannot stat '" + segments[i].path + "'");
      }
      truncated_tail_bytes_ = file_size - torn_at;
      if (::truncate(segments[i].path.c_str(),
                     static_cast<off_t>(torn_at)) != 0) {
        return Status::IOError("cannot truncate torn tail of '" +
                               segments[i].path + "'");
      }
      PRIVREC_RETURN_NOT_OK(FsyncPath(segments[i].path, /*directory=*/false));
    }
    if (!records.empty()) last_seq = records.back().seq;
    expected_first += records.size();
    if (is_last) {
      active_first_seq_ = segments[i].first_seq;
      active_records_ = records.size();
    }
  }
  next_seq_ = last_seq + 1;
  durable_seq_ = last_seq;
  fd_ = ::open(segments.back().path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    return Status::IOError("cannot open wal segment '" +
                           segments.back().path + "' for append");
  }
  return Status::OK();
}

Status WriteAheadLog::RotateLocked() {
  if (fd_ >= 0) {
    if (::fsync(fd_) != 0) return Status::IOError("wal fsync failed");
    ::close(fd_);
    fd_ = -1;
  }
  const std::string path = dir_ + "/" + SegmentFileName(active_first_seq_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND, 0644);
  if (fd_ < 0) {
    return Status::IOError("cannot create wal segment '" + path + "'");
  }
  unsigned char header[kSegmentHeaderBytes];
  EncodeSegmentHeader(active_first_seq_, header);
  PRIVREC_RETURN_NOT_OK(WriteAll(fd_, header, kSegmentHeaderBytes));
  if (::fsync(fd_) != 0) return Status::IOError("wal fsync failed");
  // The directory entry must be durable too, or a crash could lose the
  // whole segment file while its records report durable.
  return FsyncPath(dir_, /*directory=*/true);
}

Status WriteAheadLog::FlushLocked() {
  if (buffer_.empty()) return Status::OK();
  PRIVREC_RETURN_NOT_OK(WriteAll(fd_, buffer_.data(), buffer_.size()));
  if (::fsync(fd_) != 0) return Status::IOError("wal fsync failed");
  const uint64_t flushed = buffer_.size() / kRecordBytes;
  buffer_.clear();
  active_records_ += flushed;
  durable_seq_ = active_first_seq_ + active_records_ - 1;
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::Append(WalRecordKind kind, uint32_t u,
                                       uint32_t v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::FailedPrecondition("wal crashed");
  const uint64_t pending = buffer_.size() / kRecordBytes;
  if (active_records_ + pending >= options_.segment_max_records) {
    PRIVREC_RETURN_NOT_OK(FlushLocked());
    active_first_seq_ = next_seq_;
    active_records_ = 0;
    PRIVREC_RETURN_NOT_OK(RotateLocked());
  }
  unsigned char raw[kRecordBytes];
  EncodeRecord(kind, u, v, next_seq_, raw);
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->ShouldFire(FaultPoint::kWalTornWrite)) {
    // Injected torn write: flush what was already committed, persist only
    // the first half of this record (fsync'd — the torn bytes ARE on
    // disk), and die. The failed Status makes the caller reject the
    // mutation, so durable state and applied state stay equal; the next
    // Open() truncates the tail.
    const Status flushed = FlushLocked();
    if (flushed.ok()) {
      (void)WriteAll(fd_, raw, kTornRecordBytes);
      (void)::fsync(fd_);
    }
    crashed_ = true;
    return Status::IOError("wal crashed mid-append (injected torn write)");
  }
  buffer_.insert(buffer_.end(), raw, raw + kRecordBytes);
  const uint64_t seq = next_seq_++;
  if (buffer_.size() / kRecordBytes >=
      std::max<uint64_t>(1, options_.group_commit_records)) {
    PRIVREC_RETURN_NOT_OK(FlushLocked());
  }
  return seq;
}

Status WriteAheadLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::FailedPrecondition("wal crashed");
  return FlushLocked();
}

uint64_t WriteAheadLog::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

uint64_t WriteAheadLog::durable_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_seq_;
}

bool WriteAheadLog::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

Result<std::vector<WalRecord>> WriteAheadLog::ReadAfter(
    uint64_t after_seq) const {
  PRIVREC_ASSIGN_OR_RETURN(std::vector<SegmentInfo> segments,
                           ListSegments(dir_));
  std::vector<WalRecord> out;
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool is_last = i + 1 == segments.size();
    std::vector<WalRecord> records;
    uint64_t torn_at = 0;
    PRIVREC_RETURN_NOT_OK(
        ReadSegmentRecords(segments[i], is_last, &records, &torn_at));
    for (const WalRecord& record : records) {
      if (record.seq > after_seq) out.push_back(record);
    }
  }
  return out;
}

Status WriteAheadLog::TruncateSegmentsUpTo(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::FailedPrecondition("wal crashed");
  PRIVREC_ASSIGN_OR_RETURN(std::vector<SegmentInfo> segments,
                           ListSegments(dir_));
  bool removed = false;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    // A non-last segment's records end just before its successor starts.
    const uint64_t segment_last_seq = segments[i + 1].first_seq - 1;
    if (segment_last_seq > seq) break;
    std::error_code ec;
    std::filesystem::remove(segments[i].path, ec);
    if (ec) {
      return Status::IOError("cannot remove wal segment '" +
                             segments[i].path + "'");
    }
    removed = true;
  }
  if (removed) PRIVREC_RETURN_NOT_OK(FsyncPath(dir_, /*directory=*/true));
  return Status::OK();
}

void WriteAheadLog::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
  buffer_.clear();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace privrec
