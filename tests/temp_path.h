// Copyright 2026 The ConsensusDB Authors
//
// Per-process scratch file names for tests that write files.

#ifndef CPDB_TESTS_TEMP_PATH_H_
#define CPDB_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

namespace cpdb {

/// A path in the test temp directory whose file name carries this
/// process's pid, so two processes of one suite sharing that directory
/// (say a release and a sanitizer build tested at once) never overwrite
/// each other's files. The file is removed when the process exits, so
/// runs do not pile up files under one pid each.
inline std::string TempPath(const std::string& name) {
  struct RemovedAtExit {
    std::vector<std::string> paths;
    ~RemovedAtExit() {
      for (const std::string& path : paths) std::remove(path.c_str());
    }
  };
  static RemovedAtExit files;
  files.paths.push_back(::testing::TempDir() + "/" +
                        std::to_string(getpid()) + "_" + name);
  return files.paths.back();
}

}  // namespace cpdb

#endif  // CPDB_TESTS_TEMP_PATH_H_
