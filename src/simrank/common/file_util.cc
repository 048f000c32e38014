#include "simrank/common/file_util.h"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#define OIPSIM_HAVE_FSYNC 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace simrank {
namespace {

/// fsyncs `path` (a file or a directory) through a fresh descriptor.
Status SyncPath(const std::string& path) {
#if OIPSIM_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open for fsync: " + path);
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return Status::IoError("cannot fsync: " + path);
#else
  (void)path;
#endif
  return Status::OK();
}

}  // namespace

Status WriteFile(const std::string& path, std::span<const uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open for writing: " + path);
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const int close_rc = std::fclose(f);
  if (!ok || close_rc != 0) return Status::IoError("short write: " + path);
  return Status::OK();
}

Status ReplaceFile(const std::string& path, bool sync,
                   const std::function<Status(const std::string&)>& write) {
  const std::string tmp = path + ".tmp";
  Status status = write(tmp);
  if (status.ok() && sync) status = SyncPath(tmp);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IoError("cannot move " + tmp + " into place at " + path);
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  if (!sync) return Status::OK();
  const size_t slash = path.find_last_of('/');
  return SyncPath(slash == std::string::npos ? std::string(".")
                  : slash == 0               ? std::string("/")
                                             : path.substr(0, slash));
}

}  // namespace simrank
