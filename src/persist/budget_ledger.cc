#include "persist/budget_ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/checksum.h"
#include "common/logging.h"
#include "persist/durable_file.h"

namespace privrec {
namespace {

constexpr uint32_t kLogMagic = 0x42565250;   // "PRVB"
constexpr uint32_t kCkptMagic = 0x4C565250;  // "PRVL"
constexpr uint32_t kLedgerVersion = 1;
constexpr size_t kLogHeaderBytes = 16;
constexpr size_t kRecordBytes = 32;
constexpr size_t kTornRecordBytes = kRecordBytes / 2;
constexpr size_t kCkptHeaderBytes = 24;
constexpr size_t kCkptEntryBytes = 16;

std::string LogPath(const std::string& dir) { return dir + "/ledger.log"; }
std::string CkptPath(const std::string& dir) { return dir + "/ledger.ckpt"; }

uint64_t EpsToBits(double eps) {
  uint64_t bits = 0;
  std::memcpy(&bits, &eps, 8);
  return bits;
}

double BitsToEps(uint64_t bits) {
  double eps = 0;
  std::memcpy(&eps, &bits, 8);
  return eps;
}

void EncodeRecord(NodeId user, double eps, uint64_t seq,
                  unsigned char out[kRecordBytes]) {
  const uint32_t user_word = user;
  const uint32_t pad = 0;
  const uint64_t eps_bits = EpsToBits(eps);
  std::memcpy(out + 0, &user_word, 4);
  std::memcpy(out + 4, &pad, 4);
  std::memcpy(out + 8, &eps_bits, 8);
  std::memcpy(out + 16, &seq, 8);
  const uint64_t checksum = ChecksumBytes(out, 24);
  std::memcpy(out + 24, &checksum, 8);
}

bool DecodeRecord(const unsigned char in[kRecordBytes], NodeId* user,
                  double* eps, uint64_t* seq) {
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, in + 24, 8);
  if (ChecksumBytes(in, 24) != stored_checksum) return false;
  uint32_t user_word = 0;
  uint64_t eps_bits = 0;
  std::memcpy(&user_word, in + 0, 4);
  std::memcpy(&eps_bits, in + 8, 8);
  std::memcpy(seq, in + 16, 8);
  *user = user_word;
  *eps = BitsToEps(eps_bits);
  return true;
}

std::vector<unsigned char> SerializeLogHeader(uint64_t first_seq) {
  std::vector<unsigned char> out(kLogHeaderBytes);
  std::memcpy(out.data() + 0, &kLogMagic, 4);
  std::memcpy(out.data() + 4, &kLedgerVersion, 4);
  std::memcpy(out.data() + 8, &first_seq, 8);
  return out;
}

std::vector<unsigned char> SerializeCheckpoint(
    const std::unordered_map<NodeId, double>& totals, uint64_t last_seq) {
  // Deterministic entry order so equal states serialize identically.
  std::vector<std::pair<NodeId, double>> entries(totals.begin(), totals.end());
  std::sort(entries.begin(), entries.end());
  const uint64_t count = entries.size();
  std::vector<unsigned char> out(kCkptHeaderBytes +
                                 count * kCkptEntryBytes + 8);
  std::memcpy(out.data() + 0, &kCkptMagic, 4);
  std::memcpy(out.data() + 4, &kLedgerVersion, 4);
  std::memcpy(out.data() + 8, &count, 8);
  std::memcpy(out.data() + 16, &last_seq, 8);
  size_t offset = kCkptHeaderBytes;
  for (const auto& [user, eps] : entries) {
    const uint32_t user_word = user;
    const uint32_t pad = 0;
    const uint64_t eps_bits = EpsToBits(eps);
    std::memcpy(out.data() + offset + 0, &user_word, 4);
    std::memcpy(out.data() + offset + 4, &pad, 4);
    std::memcpy(out.data() + offset + 8, &eps_bits, 8);
    offset += kCkptEntryBytes;
  }
  const uint64_t checksum = ChecksumBytes(out.data(), offset);
  std::memcpy(out.data() + offset, &checksum, 8);
  return out;
}

}  // namespace

BudgetLedger::BudgetLedger(std::string dir, LedgerOptions options)
    : dir_(std::move(dir)), options_(options) {}

BudgetLedger::~BudgetLedger() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<BudgetLedger>> BudgetLedger::Open(
    const std::string& dir, LedgerOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create ledger dir '" + dir + "'");
  std::unique_ptr<BudgetLedger> ledger(new BudgetLedger(dir, options));
  {
    std::lock_guard<std::mutex> lock(ledger->mu_);
    PRIVREC_RETURN_NOT_OK(ledger->OpenLocked());
  }
  return ledger;
}

Status BudgetLedger::OpenLocked() {
  totals_.clear();
  truncated_tail_bytes_ = 0;
  uint64_t checkpoint_last_seq = 0;

  const std::string ckpt_path = CkptPath(dir_);
  if (std::filesystem::exists(ckpt_path)) {
    std::ifstream in(ckpt_path, std::ios::binary);
    if (!in.good()) return Status::IOError("cannot open '" + ckpt_path + "'");
    std::vector<unsigned char> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (bytes.size() < kCkptHeaderBytes + 8) {
      return Status::IOError("'" + ckpt_path + "' is truncated");
    }
    uint32_t magic = 0;
    uint32_t version = 0;
    uint64_t count = 0;
    std::memcpy(&magic, bytes.data() + 0, 4);
    std::memcpy(&version, bytes.data() + 4, 4);
    std::memcpy(&count, bytes.data() + 8, 8);
    std::memcpy(&checkpoint_last_seq, bytes.data() + 16, 8);
    if (magic != kCkptMagic || version != kLedgerVersion) {
      return Status::IOError("'" + ckpt_path + "' is not a ledger checkpoint");
    }
    const size_t expected =
        kCkptHeaderBytes + static_cast<size_t>(count) * kCkptEntryBytes + 8;
    if (bytes.size() != expected) {
      return Status::IOError("'" + ckpt_path +
                             "' size disagrees with its entry count");
    }
    uint64_t stored_checksum = 0;
    std::memcpy(&stored_checksum, bytes.data() + bytes.size() - 8, 8);
    if (ChecksumBytes(bytes.data(), bytes.size() - 8) != stored_checksum) {
      return Status::IOError("'" + ckpt_path +
                             "' failed checksum verification");
    }
    size_t offset = kCkptHeaderBytes;
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t user_word = 0;
      uint64_t eps_bits = 0;
      std::memcpy(&user_word, bytes.data() + offset + 0, 4);
      std::memcpy(&eps_bits, bytes.data() + offset + 8, 8);
      totals_[user_word] = BitsToEps(eps_bits);
      offset += kCkptEntryBytes;
    }
  }

  const std::string log_path = LogPath(dir_);
  uint64_t last_seq = checkpoint_last_seq;
  bool start_log = true;
  if (std::filesystem::exists(log_path)) {
    std::ifstream in(log_path, std::ios::binary);
    if (!in.good()) return Status::IOError("cannot open '" + log_path + "'");
    in.seekg(0, std::ios::end);
    const uint64_t file_size = static_cast<uint64_t>(in.tellg());
    in.seekg(0);
    if (file_size < kLogHeaderBytes) {
      return Status::IOError("'" + log_path + "' has no header");
    }
    unsigned char header[kLogHeaderBytes];
    in.read(reinterpret_cast<char*>(header), kLogHeaderBytes);
    uint32_t magic = 0;
    uint32_t version = 0;
    uint64_t first_seq = 0;
    std::memcpy(&magic, header + 0, 4);
    std::memcpy(&version, header + 4, 4);
    std::memcpy(&first_seq, header + 8, 8);
    if (magic != kLogMagic || version != kLedgerVersion) {
      return Status::IOError("'" + log_path + "' is not a ledger log");
    }
    // A log that starts at or below the checkpoint is the one a crash
    // inside Compact() leaves behind: the checkpoint committed, the log
    // reset did not. The checkpoint already counts every record up to its
    // last_seq, so those are skipped below. A log that starts past
    // last_seq + 1 lost charges in between: refuse it.
    if (first_seq > checkpoint_last_seq + 1) {
      return Status::IOError(
          "'" + log_path + "' does not continue the checkpoint (log starts " +
          std::to_string(first_seq) + ", checkpoint ends " +
          std::to_string(checkpoint_last_seq) + ")");
    }
    uint64_t offset = kLogHeaderBytes;
    uint64_t expected_seq = first_seq;
    while (offset < file_size) {
      unsigned char raw[kRecordBytes];
      NodeId user = 0;
      double eps = 0;
      uint64_t seq = 0;
      const bool whole = offset + kRecordBytes <= file_size;
      if (whole) in.read(reinterpret_cast<char*>(raw), kRecordBytes);
      if (!whole || !in.good() || !DecodeRecord(raw, &user, &eps, &seq) ||
          seq != expected_seq) {
        // Torn tail: keep the intact prefix. Charge-before-release means
        // the dropped record's release never happened — losing it costs
        // utility, never privacy.
        truncated_tail_bytes_ = file_size - offset;
        if (::truncate(log_path.c_str(), static_cast<off_t>(offset)) != 0) {
          return Status::IOError("cannot truncate torn tail of '" + log_path +
                                 "'");
        }
        PRIVREC_RETURN_NOT_OK(FsyncPath(log_path, /*directory=*/false));
        break;
      }
      if (seq > checkpoint_last_seq) {
        totals_[user] += eps;
        last_seq = seq;
      }
      ++expected_seq;
      offset += kRecordBytes;
    }
    // A stale log with nothing past the checkpoint: finish the interrupted
    // compaction, so appends continue in a log that follows the checkpoint.
    start_log =
        first_seq <= checkpoint_last_seq && last_seq == checkpoint_last_seq;
  }
  if (start_log) {
    PRIVREC_RETURN_NOT_OK(WriteFileDurably(
        dir_, log_path, SerializeLogHeader(checkpoint_last_seq + 1)));
  }

  next_seq_ = last_seq + 1;
  fd_ = ::open(log_path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    return Status::IOError("cannot open '" + log_path + "' for append");
  }
  return Status::OK();
}

Status BudgetLedger::AppendCharge(NodeId user, double eps) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::FailedPrecondition("ledger crashed");
  // Lying-fsync mode: the disk already tore one append but reported
  // success; everything after it silently goes nowhere. The in-memory
  // totals stay frozen with the durable bytes, so SpentByUser() (and any
  // recovery from this directory) truthfully reports LESS than the
  // service charged — the exact state the recovery audit must refuse.
  if (torn_) return Status::OK();
  unsigned char raw[kRecordBytes];
  EncodeRecord(user, eps, next_seq_, raw);
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->ShouldFire(FaultPoint::kLedgerPartialAppend)) {
    (void)WriteAll(fd_, raw, kTornRecordBytes);
    (void)::fsync(fd_);
    torn_ = true;
    return Status::OK();
  }
  PRIVREC_RETURN_NOT_OK(WriteAll(fd_, raw, kRecordBytes));
  if (::fsync(fd_) != 0) return Status::IOError("ledger fsync failed");
  totals_[user] += eps;
  ++next_seq_;
  ++appended_records_;
  return Status::OK();
}

std::unordered_map<NodeId, double> BudgetLedger::SpentByUser() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

uint64_t BudgetLedger::appended_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_records_;
}

Status BudgetLedger::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::FailedPrecondition("ledger crashed");
  if (torn_) return Status::OK();  // lying disk swallows this too
  const uint64_t last_seq = next_seq_ - 1;
  PRIVREC_RETURN_NOT_OK(WriteFileDurably(dir_, CkptPath(dir_),
                                         SerializeCheckpoint(totals_,
                                                             last_seq)));
  // Reset the log AFTER the checkpoint committed: the rename above is the
  // commit point. A crash between the two leaves the new checkpoint next
  // to the old log, whose records all sit at or below last_seq; Open()
  // skips them (the checkpoint counts them) and appends continue the
  // sequence, so no charge is lost or counted twice.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  PRIVREC_RETURN_NOT_OK(WriteFileDurably(dir_, LogPath(dir_),
                                         SerializeLogHeader(next_seq_)));
  fd_ = ::open(LogPath(dir_).c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    return Status::IOError("cannot reopen '" + LogPath(dir_) +
                           "' for append");
  }
  return Status::OK();
}

void BudgetLedger::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace privrec
