#ifndef PRIVREC_PERSIST_BUDGET_LEDGER_H_
#define PRIVREC_PERSIST_BUDGET_LEDGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "serve/fault_injection.h"

namespace privrec {

struct LedgerOptions {
  /// Optional crash injection (FaultPoint::kLedgerPartialAppend). Not
  /// owned.
  FaultInjector* fault_injector = nullptr;
};

/// Durable append-only per-user privacy-charge ledger.
///
/// The ordering rule this class exists for: RecommendationService appends
/// the charge here — durably, fsync before OK — BEFORE the noised release
/// leaves the service. A crash between ledger-append and serve therefore
/// loses utility (a charge with no release), never privacy (a release
/// with no charge). Recovery imports SpentByUser() into the accountants,
/// so a restarted service can only ever believe a user spent MORE than
/// they observed, not less.
///
/// On-disk format (little-endian), two files in the directory:
///   ledger.log:  header (16 bytes): u32 magic "PRVB", u32 version,
///                                   u64 first_seq
///                record (32 bytes): u32 user, u32 pad, u64 eps_bits
///                                   (IEEE double), u64 seq, u64 checksum
///                (checksum = ChecksumBytes over the first 24 bytes)
///   ledger.ckpt: u32 magic "PRVL", u32 version, u64 count, u64 last_seq,
///                count x {u32 user, u32 pad, u64 eps_bits}, u64 checksum
///                over everything before it
/// Compact() folds the log into a fresh ledger.ckpt (temp + fsync +
/// rename) and resets the log to header-only, so recovery cost is
/// O(users + appends-since-compaction), not O(lifetime appends).
///
/// Open() applies checkpoint then log; a short or corrupt record at the
/// log tail is a torn append — truncated, with the intact prefix kept
/// (truncated_tail_bytes() reports the cut). Because appends are
/// charge-before-release, dropping a torn tail record can only drop a
/// charge whose release never happened. Log records at or below the
/// checkpoint's last_seq are skipped (a crash inside Compact() can leave
/// the old log next to the new checkpoint, which already counts them);
/// a log starting past last_seq + 1 is a gap and refuses to open.
///
/// Crash semantics under FaultPoint::kLedgerPartialAppend: AppendCharge
/// persists half a record, fsyncs, REPORTS SUCCESS, and silently swallows
/// every later append — a lying-fsync disk. The service keeps charging
/// and serving against it, so the durable ledger ends up BELOW what was
/// charged: the unrecoverable state AuditAcrossRecovery must refuse to
/// certify (and the CI gate self-test injects exactly this).
///
/// Thread safety: all methods serialize on one internal mutex (shard
/// threads append concurrently).
class BudgetLedger {
 public:
  static Result<std::unique_ptr<BudgetLedger>> Open(const std::string& dir,
                                                    LedgerOptions options = {});
  ~BudgetLedger();
  BudgetLedger(const BudgetLedger&) = delete;
  BudgetLedger& operator=(const BudgetLedger&) = delete;

  /// Durably appends one charge (fsync before OK). Must be called before
  /// the corresponding release is returned to the caller.
  Status AppendCharge(NodeId user, double eps);

  /// Total durable charge per user (checkpoint + replayed log). This is
  /// what recovery imports into the accountants.
  std::unordered_map<NodeId, double> SpentByUser() const;

  /// Folds the log into ledger.ckpt and resets the log. Called after a
  /// service checkpoint commits.
  Status Compact();

  /// Bytes the last Open() truncated off a torn log tail (0 = clean).
  uint64_t truncated_tail_bytes() const { return truncated_tail_bytes_; }

  /// Durable appends since Open (observability; the torn-append fault
  /// freezes this together with the durable state).
  uint64_t appended_records() const;

  /// Kills the ledger in-process the way a crash would: the descriptor is
  /// closed without further writes and every later operation refuses.
  void SimulateCrash();

  /// True once a SimulateCrash killed this instance. (A torn append does
  /// NOT set this — the lying disk keeps reporting success; that is its
  /// point.)
  bool crashed() const;

 private:
  BudgetLedger(std::string dir, LedgerOptions options);

  Status OpenLocked();

  const std::string dir_;
  const LedgerOptions options_;

  mutable std::mutex mu_;
  int fd_ = -1;
  bool crashed_ = false;
  /// Lying-fsync mode: a partial append fired; later appends are
  /// swallowed while still reporting OK.
  bool torn_ = false;
  uint64_t next_seq_ = 1;
  uint64_t appended_records_ = 0;
  uint64_t truncated_tail_bytes_ = 0;
  /// Durable totals: checkpoint + every intact log record. NOT updated by
  /// swallowed appends, so SpentByUser() always equals what recovery
  /// would find on disk.
  std::unordered_map<NodeId, double> totals_;
};

}  // namespace privrec

#endif  // PRIVREC_PERSIST_BUDGET_LEDGER_H_
