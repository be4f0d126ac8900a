#include "persist/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace privrec {

Status FsyncPath(const std::string& path, bool directory) {
  const int fd =
      ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open '" + path + "' for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError("fsync failed on '" + path + "'");
  return Status::OK();
}

Status WriteAll(int fd, const unsigned char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write failed: " +
                             std::string(std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status StageFileDurably(const std::string& tmp,
                        const std::vector<unsigned char>& data) {
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("cannot create '" + tmp + "'");
  const Status wrote = WriteAll(fd, data.data(), data.size());
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  PRIVREC_RETURN_NOT_OK(wrote);
  if (!synced) return Status::IOError("fsync failed on '" + tmp + "'");
  return Status::OK();
}

Status CommitStagedFile(const std::string& dir, const std::string& tmp,
                        const std::string& path) {
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return FsyncPath(dir, /*directory=*/true);
}

Status WriteFileDurably(const std::string& dir, const std::string& path,
                        const std::vector<unsigned char>& data) {
  const std::string tmp = path + ".tmp";
  PRIVREC_RETURN_NOT_OK(StageFileDurably(tmp, data));
  return CommitStagedFile(dir, tmp, path);
}

}  // namespace privrec
