#ifndef PRIVREC_PERSIST_DURABLE_FILE_H_
#define PRIVREC_PERSIST_DURABLE_FILE_H_

// Internal to persist/: the POSIX write, fsync and rename steps that the
// write-ahead log, the budget ledger and the checkpoint share.

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace privrec {

/// fsyncs `path`: a file, or with `directory` a directory, which makes the
/// creates, renames and unlinks inside it durable.
Status FsyncPath(const std::string& path, bool directory);

/// Writes all `size` bytes to `fd`, resuming after short writes and EINTR.
Status WriteAll(int fd, const unsigned char* data, size_t size);

/// Writes `data` to `tmp` (created or truncated) and fsyncs it: the staging
/// half of an atomic file replacement.
Status StageFileDurably(const std::string& tmp,
                        const std::vector<unsigned char>& data);

/// Renames the durable `tmp` over `path` and fsyncs `dir`: the commit half.
/// The rename is the commit point.
Status CommitStagedFile(const std::string& dir, const std::string& tmp,
                        const std::string& path);

/// Writes `data` to `path` atomically: StageFileDurably to `path`.tmp, then
/// CommitStagedFile.
Status WriteFileDurably(const std::string& dir, const std::string& path,
                        const std::vector<unsigned char>& data);

}  // namespace privrec

#endif  // PRIVREC_PERSIST_DURABLE_FILE_H_
