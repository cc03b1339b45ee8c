// Copyright 2026 The ConsensusDB Authors

#include "common/hash.h"

#include <cstdio>

namespace cpdb {

uint64_t Fnv1a64(const std::string& text) {
  return Fnv1a64(text.data(), text.size());
}

std::string HashToHex(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

}  // namespace cpdb
