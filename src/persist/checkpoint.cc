#include "persist/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/checksum.h"
#include "common/logging.h"
#include "graph/binary_io.h"
#include "persist/durable_file.h"

namespace privrec {
namespace {

constexpr uint32_t kManifestMagic = 0x4D565250;  // "PRVM"
constexpr uint32_t kManifestVersion = 1;
constexpr size_t kManifestHeaderBytes = 24;

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::vector<unsigned char> SerializeManifest(const CheckpointManifest& m) {
  const uint32_t name_len = static_cast<uint32_t>(m.graph_file.size());
  std::vector<unsigned char> out(kManifestHeaderBytes + 4 + name_len + 8);
  std::memcpy(out.data() + 0, &kManifestMagic, 4);
  std::memcpy(out.data() + 4, &kManifestVersion, 4);
  std::memcpy(out.data() + 8, &m.wal_seq, 8);
  std::memcpy(out.data() + 16, &m.graph_version, 8);
  std::memcpy(out.data() + 24, &name_len, 4);
  std::memcpy(out.data() + 28, m.graph_file.data(), name_len);
  const uint64_t checksum = ChecksumBytes(out.data(), 28 + name_len);
  std::memcpy(out.data() + 28 + name_len, &checksum, 8);
  return out;
}

}  // namespace

Status WriteCheckpoint(const std::string& dir, const CsrGraph& graph,
                       uint64_t wal_seq, uint64_t graph_version,
                       FaultInjector* injector) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create checkpoint dir '" + dir + "'");

  char name[40];
  std::snprintf(name, sizeof(name), "graph-%020llu.prvg",
                static_cast<unsigned long long>(wal_seq));
  const std::string graph_path = dir + "/" + name;
  const std::string graph_tmp = graph_path + ".tmp";
  PRIVREC_RETURN_NOT_OK(SaveBinaryGraph(graph, graph_tmp));
  PRIVREC_RETURN_NOT_OK(FsyncPath(graph_tmp, /*directory=*/false));
  PRIVREC_RETURN_NOT_OK(CommitStagedFile(dir, graph_tmp, graph_path));

  CheckpointManifest manifest;
  manifest.wal_seq = wal_seq;
  manifest.graph_version = graph_version;
  manifest.graph_file = name;
  const std::string manifest_path = ManifestPath(dir);
  const std::string manifest_tmp = manifest_path + ".tmp";
  PRIVREC_RETURN_NOT_OK(
      StageFileDurably(manifest_tmp, SerializeManifest(manifest)));
  // Injected crash at the one interesting instant: the graph file is
  // durable, the manifest is staged, and the commit rename has NOT
  // happened. The previous checkpoint (or none) stays authoritative;
  // recovery replays the longer WAL suffix instead.
  if (injector != nullptr &&
      injector->ShouldFire(FaultPoint::kCheckpointCrash)) {
    return Status::IOError(
        "checkpoint crashed before manifest commit (injected)");
  }
  return CommitStagedFile(dir, manifest_tmp, manifest_path);
}

Result<CheckpointManifest> ReadCheckpointManifest(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  if (!std::filesystem::exists(path)) {
    return Status::FailedPrecondition("no checkpoint manifest in '" + dir +
                                      "'");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::IOError("cannot open '" + path + "'");
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  if (bytes.size() < kManifestHeaderBytes + 4 + 8) {
    return Status::IOError("'" + path + "' is truncated");
  }
  uint32_t magic = 0;
  uint32_t version = 0;
  CheckpointManifest manifest;
  uint32_t name_len = 0;
  std::memcpy(&magic, bytes.data() + 0, 4);
  std::memcpy(&version, bytes.data() + 4, 4);
  std::memcpy(&manifest.wal_seq, bytes.data() + 8, 8);
  std::memcpy(&manifest.graph_version, bytes.data() + 16, 8);
  std::memcpy(&name_len, bytes.data() + 24, 4);
  if (magic != kManifestMagic || version != kManifestVersion) {
    return Status::IOError("'" + path + "' is not a checkpoint manifest");
  }
  if (bytes.size() != kManifestHeaderBytes + 4 + name_len + 8) {
    return Status::IOError("'" + path + "' size disagrees with its name_len");
  }
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + 28 + name_len, 8);
  if (ChecksumBytes(bytes.data(), 28 + name_len) != stored_checksum) {
    return Status::IOError("'" + path + "' failed checksum verification");
  }
  manifest.graph_file.assign(
      reinterpret_cast<const char*>(bytes.data() + 28), name_len);
  return manifest;
}

Result<std::unique_ptr<DynamicGraph>> RecoverGraph(const std::string& dir,
                                                   const WriteAheadLog& wal,
                                                   RecoveryReport* report) {
  PRIVREC_ASSIGN_OR_RETURN(CheckpointManifest manifest,
                           ReadCheckpointManifest(dir));
  PRIVREC_ASSIGN_OR_RETURN(CsrGraph base,
                           LoadBinaryGraph(dir + "/" + manifest.graph_file));
  auto graph = std::make_unique<DynamicGraph>(base);
  PRIVREC_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                           wal.ReadAfter(manifest.wal_seq));
  for (const WalRecord& record : records) {
    switch (record.kind) {
      case WalRecordKind::kAddEdge: {
        const Status applied = graph->AddEdge(record.u, record.v);
        if (!applied.ok()) {
          return Status::Internal("wal replay failed at seq " +
                                  std::to_string(record.seq) + ": " +
                                  applied.message());
        }
        break;
      }
      case WalRecordKind::kRemoveEdge: {
        const Status applied = graph->RemoveEdge(record.u, record.v);
        if (!applied.ok()) {
          return Status::Internal("wal replay failed at seq " +
                                  std::to_string(record.seq) + ": " +
                                  applied.message());
        }
        break;
      }
      case WalRecordKind::kAddNode: {
        const NodeId id = graph->AddNode();
        if (id != record.u) {
          return Status::Internal(
              "wal replay: AddNode produced id " + std::to_string(id) +
              ", journal recorded " + std::to_string(record.u));
        }
        break;
      }
    }
  }
  if (report != nullptr) {
    report->checkpoint_found = true;
    report->manifest = manifest;
    report->replayed_records = records.size();
  }
  return graph;
}

}  // namespace privrec
