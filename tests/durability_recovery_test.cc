// Crash-safe durability (ctest label `durability`): the WAL'd edge-delta
// journal, the durable privacy-budget ledger, checkpoint + recovery, and
// the DP audit that straddles a crash/recover boundary. The invariants
// under test are the PR's contract:
//  - WAL-first mutations: applied state never runs ahead of durable
//    state; a torn tail is truncated on open, mid-chain damage rejects.
//  - Ledger-before-release: recovered per-user spend >= what the
//    pre-crash service charged (equality when the crash lands outside the
//    append window) — a crash loses utility, never privacy.
//  - Recovery = checkpoint + WAL replay reproduces the graph EXACTLY, so
//    an equal-seed recovered service serves byte-identical picks.
//  - AuditAcrossRecovery certifies eps-hat <= eps across every crash
//    point, and REFUSES when the durable ledger lost a charge.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/checksum.h"
#include "common/logging.h"
#include "core/privacy_accountant.h"
#include "eval/service_auditor.h"
#include "gen/fixtures.h"
#include "gen/generators.h"
#include "gen/neighboring.h"
#include "graph/binary_io.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "gtest/gtest.h"
#include "persist/budget_ledger.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "random/rng.h"
#include "serve/fault_injection.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"

namespace privrec {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  EXPECT_FALSE(ec) << dir;
  return dir;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void TruncateFile(const std::string& path, uint64_t keep_bytes) {
  const std::string bytes = ReadWholeFile(path);
  ASSERT_LT(keep_bytes, bytes.size()) << path;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(keep_bytes));
  out.flush();
  ASSERT_TRUE(out.good()) << path;
}

std::vector<std::string> WalSegments(const std::string& dir) {
  std::vector<std::string> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() == 28 && name.rfind("wal-", 0) == 0) {
      segments.push_back(entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

// ---------------------------------------------------------------------
// Shared checksum
// ---------------------------------------------------------------------

TEST(ChecksumTest, ChecksumBytesIsDeterministicAndSensitive) {
  const unsigned char a[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const unsigned char b[] = {1, 2, 3, 4, 5, 6, 7, 8, 10};
  EXPECT_EQ(ChecksumBytes(a, sizeof(a)), ChecksumBytes(a, sizeof(a)));
  EXPECT_NE(ChecksumBytes(a, sizeof(a)), ChecksumBytes(b, sizeof(b)));
  // The length is folded in, so a zero-padded prefix is not a collision.
  EXPECT_NE(ChecksumBytes(a, 8), ChecksumBytes(a, 9));
}

TEST(ChecksumTest, FactoredCsrChecksumMatchesThePrvgTrailer) {
  // Satellite 1's compatibility contract: factoring the XOR-fold into
  // common/checksum.h must leave the bytes SaveBinaryGraph writes
  // unchanged, or every existing .prvg file would rot. Round-tripping
  // through the loader (which verifies the trailer) is the proof.
  Rng rng(7);
  auto graph = ErdosRenyiGnm(40, 120, /*directed=*/true, rng);
  ASSERT_TRUE(graph.ok());
  const std::string path = FreshDir("checksum_prvg") + "/g.prvg";
  ASSERT_TRUE(SaveBinaryGraph(*graph, path).ok());
  auto loaded = LoadBinaryGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), graph->num_nodes());
  EXPECT_EQ(loaded->num_arcs(), graph->num_arcs());
}

// ---------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------

TEST(WalTest, AppendsSurviveReopenInOrder) {
  const std::string dir = FreshDir("wal_roundtrip");
  {
    auto wal = WriteAheadLog::Open(dir);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint32_t i = 0; i < 10; ++i) {
      auto seq = (*wal)->Append(WalRecordKind::kAddEdge, i, i + 1);
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(*seq, i + 1u);  // 1-based, consecutive
    }
    EXPECT_EQ((*wal)->durable_seq(), 10u);  // group_commit_records = 1
  }
  auto wal = WriteAheadLog::Open(dir);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->next_seq(), 11u);
  EXPECT_EQ((*wal)->truncated_tail_bytes(), 0u);
  auto records = (*wal)->ReadAfter(0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 10u);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*records)[i], (WalRecord{WalRecordKind::kAddEdge, i, i + 1,
                                        i + 1u}));
  }
  auto suffix = (*wal)->ReadAfter(7);
  ASSERT_TRUE(suffix.ok());
  EXPECT_EQ(suffix->size(), 3u);
}

TEST(WalTest, GroupCommitBuffersUntilSyncOrThreshold) {
  const std::string dir = FreshDir("wal_group_commit");
  WalOptions options;
  options.group_commit_records = 4;
  auto wal = WriteAheadLog::Open(dir, options);
  ASSERT_TRUE(wal.ok());
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE((*wal)->Append(WalRecordKind::kAddEdge, i, i + 1).ok());
  }
  EXPECT_EQ((*wal)->durable_seq(), 0u);  // still buffered
  ASSERT_TRUE((*wal)->Append(WalRecordKind::kAddEdge, 3, 4).ok());
  EXPECT_EQ((*wal)->durable_seq(), 4u);  // threshold flushed
  ASSERT_TRUE((*wal)->Append(WalRecordKind::kRemoveEdge, 0, 1).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ((*wal)->durable_seq(), 5u);
}

TEST(WalTest, SimulateCrashDropsTheUnflushedBuffer) {
  const std::string dir = FreshDir("wal_crash_buffer");
  WalOptions options;
  options.group_commit_records = 64;
  {
    auto wal = WriteAheadLog::Open(dir, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(WalRecordKind::kAddEdge, 1, 2).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
    ASSERT_TRUE((*wal)->Append(WalRecordKind::kAddEdge, 3, 4).ok());
    (*wal)->SimulateCrash();  // seq 2 was never fsync'd
    EXPECT_TRUE((*wal)->crashed());
    EXPECT_TRUE((*wal)->Append(WalRecordKind::kAddEdge, 5, 6)
                    .status()
                    .IsFailedPrecondition());
  }
  auto wal = WriteAheadLog::Open(dir);
  ASSERT_TRUE(wal.ok());
  auto records = (*wal)->ReadAfter(0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);  // exactly the durable prefix
  EXPECT_EQ((*records)[0].seq, 1u);
  EXPECT_EQ((*wal)->next_seq(), 2u);
}

TEST(WalTest, TornTailIsTruncatedAndAppendingResumes) {
  const std::string dir = FreshDir("wal_torn_tail");
  {
    auto wal = WriteAheadLog::Open(dir);
    ASSERT_TRUE(wal.ok());
    for (uint32_t i = 0; i < 5; ++i) {
      ASSERT_TRUE((*wal)->Append(WalRecordKind::kAddEdge, i, i + 1).ok());
    }
  }
  const std::vector<std::string> segments = WalSegments(dir);
  ASSERT_EQ(segments.size(), 1u);
  const uint64_t full = 16 + 5 * 32;  // header + 5 records
  ASSERT_EQ(std::filesystem::file_size(segments[0]), full);
  TruncateFile(segments[0], full - 20);  // mid-record tear
  auto wal = WriteAheadLog::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ((*wal)->truncated_tail_bytes(), 12u);
  auto records = (*wal)->ReadAfter(0);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 4u);  // the torn 5th is gone
  // The freed sequence number is reassigned: no gaps, ever.
  auto seq = (*wal)->Append(WalRecordKind::kRemoveEdge, 9, 9);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 5u);
}

TEST(WalTest, MidChainCorruptionRejects) {
  const std::string dir = FreshDir("wal_mid_chain");
  WalOptions options;
  options.segment_max_records = 4;  // force rotation: damage a NON-last file
  {
    auto wal = WriteAheadLog::Open(dir, options);
    ASSERT_TRUE(wal.ok());
    for (uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE((*wal)->Append(WalRecordKind::kAddEdge, i, i + 1).ok());
    }
  }
  const std::vector<std::string> segments = WalSegments(dir);
  ASSERT_GE(segments.size(), 2u);
  TruncateFile(segments[0], 16 + 2 * 32 + 7);  // tear inside segment 1 of N
  auto wal = WriteAheadLog::Open(dir, options);
  ASSERT_FALSE(wal.ok());
  EXPECT_TRUE(wal.status().IsIOError()) << wal.status().ToString();
}

TEST(WalTest, RotationAndTruncationBoundTheJournalOnDisk) {
  const std::string dir = FreshDir("wal_rotation");
  WalOptions options;
  options.segment_max_records = 3;
  auto wal = WriteAheadLog::Open(dir, options);
  ASSERT_TRUE(wal.ok());
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*wal)->Append(WalRecordKind::kAddEdge, i, i + 1).ok());
  }
  ASSERT_GE(WalSegments(dir).size(), 3u);
  // A checkpoint at seq 9 drops every fully covered non-active segment.
  ASSERT_TRUE((*wal)->TruncateSegmentsUpTo(9).ok());
  const std::vector<std::string> after = WalSegments(dir);
  ASSERT_EQ(after.size(), 1u);
  auto records = (*wal)->ReadAfter(9);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].seq, 10u);
}

TEST(WalTest, InjectedTornWriteRejectsTheMutationAndRecovers) {
  const std::string dir = FreshDir("wal_injected_tear");
  FaultInjector injector;
  FaultPlan plan;
  plan.Enable(FaultPoint::kWalTornWrite, /*period=*/1, /*skip=*/2,
              /*max_fires=*/1);
  injector.Install(plan);
  WalOptions options;
  options.fault_injector = &injector;
  {
    auto wal = WriteAheadLog::Open(dir, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(WalRecordKind::kAddEdge, 0, 1).ok());
    ASSERT_TRUE((*wal)->Append(WalRecordKind::kAddEdge, 1, 2).ok());
    auto torn = (*wal)->Append(WalRecordKind::kAddEdge, 2, 3);
    ASSERT_FALSE(torn.ok());
    EXPECT_TRUE(torn.status().IsIOError());
    EXPECT_TRUE((*wal)->crashed());
    EXPECT_EQ(injector.fires(FaultPoint::kWalTornWrite), 1u);
    EXPECT_EQ(injector.persist_fires(), 1u);
  }
  // The torn half-record is really on disk; a fresh Open truncates it and
  // the log carries exactly the two acknowledged records.
  auto wal = WriteAheadLog::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_GT((*wal)->truncated_tail_bytes(), 0u);
  auto records = (*wal)->ReadAfter(0);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

// ---------------------------------------------------------------------
// Budget ledger
// ---------------------------------------------------------------------

TEST(BudgetLedgerTest, ChargesSurviveReopenAndCompaction) {
  const std::string dir = FreshDir("ledger_roundtrip");
  {
    auto ledger = BudgetLedger::Open(dir);
    ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
    ASSERT_TRUE((*ledger)->AppendCharge(7, 0.5).ok());
    ASSERT_TRUE((*ledger)->AppendCharge(7, 0.25).ok());
    ASSERT_TRUE((*ledger)->AppendCharge(42, 1.0).ok());
  }
  {
    auto ledger = BudgetLedger::Open(dir);
    ASSERT_TRUE(ledger.ok());
    auto spent = (*ledger)->SpentByUser();
    ASSERT_EQ(spent.size(), 2u);
    EXPECT_DOUBLE_EQ(spent[7], 0.75);
    EXPECT_DOUBLE_EQ(spent[42], 1.0);
    ASSERT_TRUE((*ledger)->Compact().ok());
    ASSERT_TRUE((*ledger)->AppendCharge(42, 0.5).ok());
  }
  auto ledger = BudgetLedger::Open(dir);
  ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
  auto spent = (*ledger)->SpentByUser();
  EXPECT_DOUBLE_EQ(spent[7], 0.75);   // via the checkpoint
  EXPECT_DOUBLE_EQ(spent[42], 1.5);   // checkpoint + fresh log record
}

TEST(BudgetLedgerTest, TornLogTailIsTruncatedKeepingTheIntactPrefix) {
  const std::string dir = FreshDir("ledger_torn_tail");
  {
    auto ledger = BudgetLedger::Open(dir);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE((*ledger)->AppendCharge(1, 0.5).ok());
    ASSERT_TRUE((*ledger)->AppendCharge(2, 0.5).ok());
  }
  TruncateFile(dir + "/ledger.log", 16 + 32 + 9);  // tear record 2
  auto ledger = BudgetLedger::Open(dir);
  ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
  EXPECT_EQ((*ledger)->truncated_tail_bytes(), 9u);
  auto spent = (*ledger)->SpentByUser();
  ASSERT_EQ(spent.size(), 1u);
  EXPECT_DOUBLE_EQ(spent[1], 0.5);
}

TEST(BudgetLedgerTest, InjectedPartialAppendLiesAndLosesTheCharge) {
  const std::string dir = FreshDir("ledger_lying_fsync");
  FaultInjector injector;
  FaultPlan plan;
  plan.Enable(FaultPoint::kLedgerPartialAppend, /*period=*/1, /*skip=*/1,
              /*max_fires=*/1);
  injector.Install(plan);
  LedgerOptions options;
  options.fault_injector = &injector;
  {
    auto ledger = BudgetLedger::Open(dir, options);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE((*ledger)->AppendCharge(1, 0.5).ok());   // durable
    ASSERT_TRUE((*ledger)->AppendCharge(1, 0.5).ok());   // torn, LIES
    ASSERT_TRUE((*ledger)->AppendCharge(1, 0.5).ok());   // swallowed, LIES
    EXPECT_EQ(injector.fires(FaultPoint::kLedgerPartialAppend), 1u);
    // The in-memory view tells the durable truth, not the lie.
    auto spent = (*ledger)->SpentByUser();
    EXPECT_DOUBLE_EQ(spent[1], 0.5);
  }
  auto ledger = BudgetLedger::Open(dir);
  ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
  EXPECT_GT((*ledger)->truncated_tail_bytes(), 0u);
  auto spent = (*ledger)->SpentByUser();
  // Three charges acknowledged, one recovered: the exact state
  // AuditAcrossRecovery must refuse to certify.
  EXPECT_DOUBLE_EQ(spent[1], 0.5);
}

TEST(BudgetLedgerTest, StaleLogAfterCheckpointCountsOnceButAGapRefuses) {
  // Compact commits the checkpoint, then resets the log; a crash between
  // the two leaves the new checkpoint next to the old log. Reopening must
  // count every charge exactly once and keep the sequence going, while a
  // log that starts past the checkpoint still refuses.
  const std::string dir = FreshDir("ledger_stale_log");
  std::unordered_map<NodeId, double> before;
  std::string old_log;
  {
    auto ledger = BudgetLedger::Open(dir);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE((*ledger)->AppendCharge(1, 0.5).ok());
    ASSERT_TRUE((*ledger)->AppendCharge(2, 0.25).ok());
    ASSERT_TRUE((*ledger)->AppendCharge(1, 0.125).ok());
    before = (*ledger)->SpentByUser();
    old_log = ReadWholeFile(dir + "/ledger.log");
    ASSERT_TRUE((*ledger)->Compact().ok());
  }
  {  // the crash window: the old log is back next to the new checkpoint
    std::ofstream out(dir + "/ledger.log", std::ios::binary | std::ios::trunc);
    out.write(old_log.data(), static_cast<std::streamsize>(old_log.size()));
  }
  {
    auto reopened = BudgetLedger::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->SpentByUser(), before);
    ASSERT_TRUE((*reopened)->AppendCharge(2, 1.0).ok());
  }
  // The append after the reopen continued the sequence: the next open
  // keeps it instead of cutting it off as a torn tail.
  auto continued = BudgetLedger::Open(dir);
  ASSERT_TRUE(continued.ok()) << continued.status().ToString();
  EXPECT_EQ((*continued)->truncated_tail_bytes(), 0u);
  auto spent = (*continued)->SpentByUser();
  EXPECT_DOUBLE_EQ(spent[1], 0.625);
  EXPECT_DOUBLE_EQ(spent[2], 1.25);

  // A log that starts beyond the checkpoint's last_seq + 1 lost the
  // charges in between: open refuses rather than under-report spend.
  const std::string gap_dir = FreshDir("ledger_log_gap");
  std::string first_checkpoint;
  {
    auto ledger = BudgetLedger::Open(gap_dir);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE((*ledger)->AppendCharge(1, 0.5).ok());
    ASSERT_TRUE((*ledger)->Compact().ok());  // checkpoint ends at 1
    first_checkpoint = ReadWholeFile(gap_dir + "/ledger.ckpt");
    ASSERT_TRUE((*ledger)->AppendCharge(1, 0.5).ok());
    ASSERT_TRUE((*ledger)->Compact().ok());  // log now starts at 3
  }
  {  // an older checkpoint next to the newer log
    std::ofstream out(gap_dir + "/ledger.ckpt",
                      std::ios::binary | std::ios::trunc);
    out.write(first_checkpoint.data(),
              static_cast<std::streamsize>(first_checkpoint.size()));
  }
  auto gapped = BudgetLedger::Open(gap_dir);
  ASSERT_FALSE(gapped.ok());
  EXPECT_TRUE(gapped.status().IsIOError()) << gapped.status().ToString();
}

// ---------------------------------------------------------------------
// Checkpoint + recovery
// ---------------------------------------------------------------------

TEST(RecoveryTest, CheckpointPlusReplayReconstructsTheGraphExactly) {
  const std::string dir = FreshDir("recovery_exact");
  const std::string wal_dir = dir + "/wal";
  auto wal = WriteAheadLog::Open(wal_dir);
  ASSERT_TRUE(wal.ok());
  DynamicGraph graph(MakeDirectedAuditFixture());
  graph.AttachWal(wal->get());
  ASSERT_TRUE(graph.AddEdge(0, 5).ok());
  ASSERT_TRUE(graph.RemoveEdge(0, 5).ok());
  ASSERT_TRUE(graph.AddEdge(1, 5).ok());
  // Checkpoint here; everything after must come from WAL replay.
  ASSERT_TRUE((*wal)->Sync().ok());
  const DynamicGraph::CheckpointView view = graph.AtomicCheckpointView();
  ASSERT_TRUE(WriteCheckpoint(dir, *view.snapshot.graph, view.wal_seq,
                              view.snapshot.version)
                  .ok());
  const NodeId added = graph.AddNode();
  ASSERT_TRUE(graph.AddEdge(added, 0).ok());
  ASSERT_TRUE(graph.AddEdge(2, added).ok());
  ASSERT_TRUE((*wal)->Sync().ok());

  RecoveryReport report;
  auto recovered = RecoverGraph(dir, **wal, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.checkpoint_found);
  EXPECT_EQ(report.manifest.wal_seq, view.wal_seq);
  EXPECT_EQ(report.replayed_records, 3u);  // AddNode + 2 edges
  const auto want = graph.VersionedSnapshot();
  const auto got = (*recovered)->VersionedSnapshot();
  ASSERT_EQ(got.graph->num_nodes(), want.graph->num_nodes());
  ASSERT_EQ(got.graph->num_arcs(), want.graph->num_arcs());
  for (NodeId u = 0; u < want.graph->num_nodes(); ++u) {
    for (NodeId v : want.graph->OutNeighbors(u)) {
      EXPECT_TRUE(got.graph->HasEdge(u, v)) << u << "->" << v;
    }
  }
}

TEST(RecoveryTest, NoManifestIsFailedPreconditionNotACrash) {
  const std::string dir = FreshDir("recovery_no_manifest");
  auto manifest = ReadCheckpointManifest(dir);
  ASSERT_FALSE(manifest.ok());
  EXPECT_TRUE(manifest.status().IsFailedPrecondition());
}

TEST(RecoveryTest, InjectedCheckpointCrashLeavesThePreviousOneAuthoritative) {
  const std::string dir = FreshDir("recovery_ckpt_crash");
  auto wal = WriteAheadLog::Open(dir + "/wal");
  ASSERT_TRUE(wal.ok());
  DynamicGraph graph(MakeDirectedAuditFixture());
  graph.AttachWal(wal->get());
  {  // checkpoint 1 commits
    const auto view = graph.AtomicCheckpointView();
    ASSERT_TRUE(WriteCheckpoint(dir, *view.snapshot.graph, view.wal_seq,
                                view.snapshot.version)
                    .ok());
  }
  ASSERT_TRUE(graph.AddEdge(0, 5).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  FaultInjector injector;
  FaultPlan plan;
  plan.Enable(FaultPoint::kCheckpointCrash);
  injector.Install(plan);
  {  // checkpoint 2 dies before the manifest rename
    const auto view = graph.AtomicCheckpointView();
    const Status crashed = WriteCheckpoint(dir, *view.snapshot.graph,
                                           view.wal_seq,
                                           view.snapshot.version, &injector);
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(crashed.IsIOError());
    EXPECT_EQ(injector.fires(FaultPoint::kCheckpointCrash), 1u);
  }
  auto manifest = ReadCheckpointManifest(dir);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->wal_seq, 0u);  // checkpoint 1, pre-mutation
  RecoveryReport report;
  auto recovered = RecoverGraph(dir, **wal, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.replayed_records, 1u);  // the longer suffix replays
  EXPECT_TRUE(
      (*recovered)->VersionedSnapshot().graph->HasEdge(0, 5));
}

// ---------------------------------------------------------------------
// Crash/recover differential through the full service
// ---------------------------------------------------------------------

ServiceOptions DurableServiceOptions(WriteAheadLog* wal, BudgetLedger* ledger,
                                     FaultInjector* injector = nullptr) {
  ServiceOptions options;
  options.release_epsilon = 0.5;
  options.per_user_budget = 5.0;
  options.num_shards = 2;
  options.seed = 0xd0b5eedULL;
  options.wal = wal;
  options.budget_ledger = ledger;
  options.fault_injector = injector;
  return options;
}

TEST(CrashRecoverDifferentialTest, RecoveredServiceServesByteIdenticalPicks) {
  const std::string dir = FreshDir("crash_differential");
  auto wal = WriteAheadLog::Open(dir + "/wal");
  ASSERT_TRUE(wal.ok());
  auto ledger = BudgetLedger::Open(dir + "/ledger");
  ASSERT_TRUE(ledger.ok());
  auto graph = std::make_unique<DynamicGraph>(MakeDirectedAuditFixture());
  auto service = std::make_unique<RecommendationService>(
      graph.get(), std::make_unique<CommonNeighborsUtility>(),
      DurableServiceOptions(wal->get(), ledger->get()));
  // The uncrashed mirror rides an identical, never-crashed graph.
  DynamicGraph mirror(MakeDirectedAuditFixture());
  auto apply_both = [&](auto&& fn) {
    const Status a = fn(*service);
    struct MirrorShim {
      DynamicGraph& g;
      Status AddEdge(NodeId u, NodeId v) { return g.AddEdge(u, v); }
      Status RemoveEdge(NodeId u, NodeId v) { return g.RemoveEdge(u, v); }
    } shim{mirror};
    const Status b = fn(shim);
    ASSERT_EQ(a.ok(), b.ok());
  };
  apply_both([](auto& s) { return s.AddEdge(0, 5); });
  ASSERT_TRUE(service->SaveCheckpoint(dir).ok());
  apply_both([](auto& s) { return s.RemoveEdge(0, 5); });
  apply_both([](auto& s) { return s.AddEdge(1, 5); });
  apply_both([](auto& s) { return s.AddEdge(3, 0); });
  // Charged traffic: target 0 spends 2 x 0.5 before the crash, durably.
  Rng serve_rng(99);
  ASSERT_TRUE(service->ServeRecommendation(0, serve_rng).ok());
  ASSERT_TRUE(service->ServeRecommendation(0, serve_rng).ok());
  const double charged = 5.0 - service->RemainingBudget(0);
  EXPECT_DOUBLE_EQ(charged, 1.0);

  // Crash: WAL + ledger die mid-flight, every in-memory structure goes.
  (*wal)->SimulateCrash();
  (*ledger)->SimulateCrash();
  service.reset();
  graph.reset();
  wal->reset();
  ledger->reset();

  auto wal2 = WriteAheadLog::Open(dir + "/wal");
  ASSERT_TRUE(wal2.ok());
  RecoveryReport report;
  auto recovered = RecoverGraph(dir, **wal2, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(report.replayed_records, 0u);
  auto ledger2 = BudgetLedger::Open(dir + "/ledger");
  ASSERT_TRUE(ledger2.ok());
  auto recovered_service = std::make_unique<RecommendationService>(
      recovered->get(), std::make_unique<CommonNeighborsUtility>(),
      DurableServiceOptions(wal2->get(), ledger2->get()));
  const auto spent = (*ledger2)->SpentByUser();
  recovered_service->ImportSpentBudgets(spent);

  // Budget continuity: the crash landed OUTSIDE the ledger append window,
  // so recovered spend equals charged spend exactly; in general the
  // contract is recovered >= charged.
  auto it = spent.find(0);
  ASSERT_NE(it, spent.end());
  EXPECT_DOUBLE_EQ(it->second, charged);
  EXPECT_GE(it->second + 1e-12, charged);
  EXPECT_DOUBLE_EQ(recovered_service->RemainingBudget(0), 5.0 - charged);

  // Graph equality: every edge agrees with the uncrashed mirror.
  const auto got = (*recovered)->VersionedSnapshot();
  const auto want = mirror.VersionedSnapshot();
  ASSERT_EQ(got.graph->num_nodes(), want.graph->num_nodes());
  ASSERT_EQ(got.graph->num_arcs(), want.graph->num_arcs());

  // Byte-identical serving: a fresh equal-seed service on the mirror and
  // the recovered service draw identical picks from identical Rngs —
  // recovery is exact, so the mechanism sees identical utilities.
  RecommendationService mirror_service(
      &mirror, std::make_unique<CommonNeighborsUtility>(),
      DurableServiceOptions(nullptr, nullptr));
  for (NodeId target : {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}}) {
    Rng rng_a(1234 + target);
    Rng rng_b(1234 + target);
    auto a = recovered_service->ServeForAudit(target, rng_a);
    auto b = mirror_service.ServeForAudit(target, rng_b);
    ASSERT_EQ(a.ok(), b.ok()) << "target " << target;
    if (a.ok()) EXPECT_EQ(*a, *b) << "target " << target;
  }
}

TEST(CrashRecoverDifferentialTest, TornWalWriteNeverLetsAppliedStateRunAhead) {
  // Killed at the wal_torn_write crash point: the mutation that tore is
  // rejected in memory too, so the recovered graph equals the pre-crash
  // in-memory graph — applied state never ran ahead of durable state.
  const std::string dir = FreshDir("crash_torn_wal");
  FaultInjector injector;
  FaultPlan plan;
  plan.Enable(FaultPoint::kWalTornWrite, /*period=*/1, /*skip=*/2,
              /*max_fires=*/1);
  injector.Install(plan);
  WalOptions wal_options;
  wal_options.fault_injector = &injector;
  auto wal = WriteAheadLog::Open(dir + "/wal", wal_options);
  ASSERT_TRUE(wal.ok());
  auto graph = std::make_unique<DynamicGraph>(MakeDirectedAuditFixture());
  graph->AttachWal(wal->get());
  {
    const auto view = graph->AtomicCheckpointView();
    ASSERT_TRUE(WriteCheckpoint(dir, *view.snapshot.graph, view.wal_seq,
                                view.snapshot.version)
                    .ok());
  }
  ASSERT_TRUE(graph->AddEdge(0, 5).ok());
  ASSERT_TRUE(graph->AddEdge(1, 5).ok());
  const Status torn = graph->AddEdge(2, 5);  // tears, rejected
  ASSERT_FALSE(torn.ok());
  const bool applied_after_tear =
      graph->VersionedSnapshot().graph->HasEdge(2, 5);
  EXPECT_FALSE(applied_after_tear);
  graph.reset();
  wal->reset();

  auto wal2 = WriteAheadLog::Open(dir + "/wal");
  ASSERT_TRUE(wal2.ok());
  EXPECT_GT((*wal2)->truncated_tail_bytes(), 0u);
  auto recovered = RecoverGraph(dir, **wal2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const auto snap = (*recovered)->VersionedSnapshot();
  EXPECT_TRUE(snap.graph->HasEdge(0, 5));
  EXPECT_TRUE(snap.graph->HasEdge(1, 5));
  EXPECT_FALSE(snap.graph->HasEdge(2, 5));
}

TEST(CrashRecoverDifferentialTest, RestoreSpentIsMonotoneAndConservative) {
  PrivacyAccountant accountant(1.0);
  ASSERT_TRUE(accountant.Charge(0.25, "pre").ok());
  accountant.RestoreSpent(0.1);  // lower: no-op
  EXPECT_DOUBLE_EQ(accountant.spent(), 0.25);
  accountant.RestoreSpent(0.75);
  EXPECT_DOUBLE_EQ(accountant.spent(), 0.75);
  // Over-budget restore: the accountant refuses everything from here on —
  // the conservative posture when the durable ledger out-says the cap.
  accountant.RestoreSpent(1.5);
  EXPECT_DOUBLE_EQ(accountant.spent(), 1.5);
  EXPECT_LT(accountant.remaining(), 0.0);
  EXPECT_FALSE(accountant.CanCharge(0.01));
  EXPECT_TRUE(IsBudgetExhausted(accountant.Charge(0.01, "post")));
}

// ---------------------------------------------------------------------
// DP audited ACROSS recovery
// ---------------------------------------------------------------------

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PRIVREC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PRIVREC_TEST_SANITIZED 1
#endif
#endif
#ifndef PRIVREC_TEST_SANITIZED
#define PRIVREC_TEST_SANITIZED 0
#endif

NeighboringPair RecoveryFixturePair() {
  CsrGraph g = MakeDirectedAuditFixture();
  auto pair = MakeEdgeTogglePair(g, /*target=*/0, 2, 4);
  PRIVREC_CHECK_OK(pair.status());
  return *pair;
}

ServiceAuditOptions RecoveryAuditorOptions() {
  ServiceAuditOptions options;
  options.release_epsilon = 0.8;
  options.trials_per_side = PRIVREC_TEST_SANITIZED ? 300 : 1000;
  options.confidence = 0.99;
  options.seed = 20260808;
  return options;
}

TEST(AuditAcrossRecoveryTest, HonestServiceStaysCertifiedAcrossACleanCrash) {
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); },
      RecoveryAuditorOptions());
  RecoveryAuditOptions recovery;
  recovery.state_dir = FreshDir("audit_recovery_clean");
  ServiceStats stats;
  auto audit = auditor.AuditAcrossRecovery(RecoveryFixturePair(),
                                           /*target=*/0, recovery, &stats);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit->per_path.size(), 1u);
  const PathEpsilonEstimate& estimate = audit->per_path[0];
  EXPECT_EQ(estimate.path, "across_recovery");
  EXPECT_LE(estimate.epsilon_lower_bound,
            RecoveryAuditorOptions().release_epsilon)
      << "a clean crash/recover boundary leaked";
  EXPECT_GT(stats.ledger_appends, 0u)
      << "charged pre-crash traffic never reached the durable ledger";
  // Every charged serve on either side appended exactly one ledger record
  // (no crash landed between an append and its release).
  EXPECT_EQ(stats.ledger_appends, stats.served);
}

TEST(AuditAcrossRecoveryTest, StaysCertifiedOnRecoverableCrashPoints) {
  // wal_torn_write and checkpoint_crash are the RECOVERABLE crash points:
  // recovery reconstructs exact state, so the audit must complete and
  // certify. (ledger_partial_append is the unrecoverable one — next
  // test.)
  struct CrashCase {
    const char* name;
    FaultPoint point;
    uint64_t skip;  // WAL appends fire per mutation; checkpoints once per save
  };
  const CrashCase cases[] = {
      {"wal_torn_write", FaultPoint::kWalTornWrite, 4},
      {"checkpoint_crash", FaultPoint::kCheckpointCrash, 0},
  };
  for (const CrashCase& crash_case : cases) {
    ServiceAuditor auditor(
        [] { return std::make_unique<CommonNeighborsUtility>(); },
        RecoveryAuditorOptions());
    RecoveryAuditOptions recovery;
    recovery.state_dir =
        FreshDir(std::string("audit_recovery_") + crash_case.name);
    recovery.plan.Enable(crash_case.point, /*period=*/1, crash_case.skip,
                         /*max_fires=*/1);
    ServiceStats stats;
    auto audit = auditor.AuditAcrossRecovery(RecoveryFixturePair(),
                                             /*target=*/0, recovery, &stats);
    ASSERT_TRUE(audit.ok())
        << crash_case.name << ": " << audit.status().ToString();
    EXPECT_LE(audit->per_path[0].epsilon_lower_bound,
              RecoveryAuditorOptions().release_epsilon)
        << crash_case.name;
    EXPECT_GT(stats.injected_faults, 0u)
        << crash_case.name << ": the crash point never fired";
  }
}

TEST(AuditAcrossRecoveryTest, RefusesWhenTheLedgerLostACharge) {
  // The crashed-never-leaky gate: a lying-fsync ledger tear means the
  // recovered spend undercounts what the pre-crash service charged. The
  // audit must REFUSE (FailedPrecondition), not certify around it.
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); },
      RecoveryAuditorOptions());
  RecoveryAuditOptions recovery;
  recovery.state_dir = FreshDir("audit_recovery_ledger_tear");
  recovery.plan.Enable(FaultPoint::kLedgerPartialAppend, /*period=*/1,
                       /*skip=*/1, /*max_fires=*/1);
  recovery.charged_serves_per_side = 4;
  auto audit = auditor.AuditAcrossRecovery(RecoveryFixturePair(),
                                           /*target=*/0, recovery);
  ASSERT_FALSE(audit.ok());
  EXPECT_TRUE(audit.status().IsFailedPrecondition())
      << audit.status().ToString();
  EXPECT_NE(audit.status().message().find("refusing to certify"),
            std::string::npos)
      << audit.status().ToString();
}

TEST(AuditAcrossRecoveryTest, FixedSeedReproducesTheRecoveryAudit) {
  ServiceAuditOptions options = RecoveryAuditorOptions();
  options.trials_per_side = 300;
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); }, options);
  RecoveryAuditOptions recovery;
  recovery.state_dir = FreshDir("audit_recovery_repro");
  recovery.plan.Enable(FaultPoint::kCheckpointCrash, /*period=*/1,
                       /*skip=*/0, /*max_fires=*/1);
  auto first = auditor.AuditAcrossRecovery(RecoveryFixturePair(), 0, recovery);
  auto second = auditor.AuditAcrossRecovery(RecoveryFixturePair(), 0,
                                            recovery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_DOUBLE_EQ(first->per_path[0].epsilon_hat,
                   second->per_path[0].epsilon_hat);
  EXPECT_DOUBLE_EQ(first->per_path[0].epsilon_lower_bound,
                   second->per_path[0].epsilon_lower_bound);
}

TEST(AuditAcrossRecoveryTest, ListShapeIsRejectedExplicitly) {
  ServiceAuditOptions options = RecoveryAuditorOptions();
  options.shape = ServeAuditShape::kList;
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); }, options);
  RecoveryAuditOptions recovery;
  recovery.state_dir = FreshDir("audit_recovery_list");
  auto audit = auditor.AuditAcrossRecovery(RecoveryFixturePair(), 0, recovery);
  ASSERT_FALSE(audit.ok());
  EXPECT_TRUE(audit.status().IsInvalidArgument());
}

}  // namespace
}  // namespace privrec
