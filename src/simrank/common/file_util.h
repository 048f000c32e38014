// Whole-file writes: plain and atomic-replace.
#ifndef OIPSIM_SIMRANK_COMMON_FILE_UTIL_H_
#define OIPSIM_SIMRANK_COMMON_FILE_UTIL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "simrank/common/status.h"

namespace simrank {

/// Creates (or truncates) `path` and writes `bytes` to it.
Status WriteFile(const std::string& path, std::span<const uint8_t> bytes);

/// Replaces `path` with the file `write` produces, atomically: `write`
/// fills `path + ".tmp"`, which is renamed over `path`. Readers that hold
/// the old file open or mapped keep the old bytes. With `sync` the
/// temporary file is fsynced before the rename and the directory after
/// it, so once this returns OK a crash leaves the new file in place —
/// never a truncated or half-written one.
Status ReplaceFile(const std::string& path, bool sync,
                   const std::function<Status(const std::string&)>& write);

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_COMMON_FILE_UTIL_H_
