// Copyright 2026 The ConsensusDB Authors
//
// A test-only reference for the tree parser's number atoms: the conversion
// exactly as strtod defines it, over a NUL-terminated copy of the atom,
// with the parser's acceptance rule (the whole copy consumed, the value
// finite) and its error text. ParseTree converts numbers through a
// from_chars fast path with a strtod fallback; ParsesLikeStrtod holds it to
// this reference bit for bit, and rejection for rejection.

#ifndef CPDB_TESTS_STRTOD_REFERENCE_H_
#define CPDB_TESTS_STRTOD_REFERENCE_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "io/tree_text.h"

namespace cpdb {

inline uint64_t DoubleBitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The number `atom` denotes in a tree, or the ParseError the parser must
/// report for it, where `offset` is the byte offset of the token holding it.
inline Result<double> StrtodReference(std::string_view atom, size_t offset) {
  const std::string copy(atom);  // an embedded NUL ends the number
  const std::string where = " at offset " + std::to_string(offset);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == copy.c_str()) {
    return Status::ParseError("expected a number, got '" + copy + "'" + where);
  }
  if (!std::isfinite(v)) {
    return Status::ParseError("expected a finite number, got '" + copy + "'" +
                              where);
  }
  return v;
}

/// Parses `(leaf key=1 score=<atom>)` and compares it with the reference:
/// the same acceptance, and then the same value bits, or the same status
/// code and message.
inline ::testing::AssertionResult ParsesLikeStrtod(std::string_view atom) {
  const std::string prefix = "(leaf key=1 ";
  const Result<double> want =
      StrtodReference(atom, /*offset=*/prefix.size());
  const Result<AndXorTree> got =
      ParseTree(prefix + "score=" + std::string(atom) + ")");
  const std::string shown = "'" + std::string(atom) + "'";
  if (got.ok() != want.ok()) {
    return ::testing::AssertionFailure()
           << shown << ": parser " << got.status().ToString()
           << ", strtod reference " << want.status().ToString();
  }
  if (!want.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return ::testing::AssertionFailure()
             << shown << ": parser " << got.status().ToString()
             << ", strtod reference " << want.status().ToString();
    }
    return ::testing::AssertionSuccess();
  }
  const double score = got->node(got->LeafIds()[0]).leaf.score;
  if (DoubleBitsOf(score) != DoubleBitsOf(*want)) {
    return ::testing::AssertionFailure()
           << shown << ": parser bits " << std::hexfloat << score
           << ", strtod reference " << *want;
  }
  return ::testing::AssertionSuccess();
}

/// Every number token of a tree text: XOR edge probabilities and the values
/// of leaf attributes.
inline std::vector<std::string> NumberTokens(std::string_view text) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t start = text.find_first_not_of(" \t\n\v\f\r()", pos);
    if (start == std::string_view::npos) break;
    pos = text.find_first_of(" \t\n\v\f\r()", start);
    if (pos == std::string_view::npos) pos = text.size();
    std::string_view atom = text.substr(start, pos - start);
    if (atom == "leaf" || atom == "and" || atom == "xor") continue;
    const size_t eq = atom.find('=');
    if (eq != std::string_view::npos) atom.remove_prefix(eq + 1);
    tokens.emplace_back(atom);
  }
  return tokens;
}

}  // namespace cpdb

#endif  // CPDB_TESTS_STRTOD_REFERENCE_H_
