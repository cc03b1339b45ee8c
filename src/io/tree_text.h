// Copyright 2026 The ConsensusDB Authors
//
// A human-readable s-expression serialization of and/xor trees, used by the
// examples and round-trip tested. Grammar:
//
//   node  := leaf | and | xor
//   leaf  := "(" "leaf" "key=" INT ["score=" FLOAT] ["label=" INT] ")"
//   and   := "(" "and" node+ ")"
//   xor   := "(" "xor" (FLOAT node)+ ")"
//
// Example:  (and (xor 0.3 (leaf key=1 score=8) 0.5 (leaf key=1 score=2))
//                (xor 0.9 (leaf key=2 score=5)))
//
// Numbers are strtod's grammar minus non-finite values, converted by a
// std::from_chars fast path that falls back to strtod wherever the two
// could differ, so every accepted spelling gives strtod's bits. A key must
// be an integer in the int32 range and a label an integer in
// [0, INT32_MAX]. Each leaf attribute appears at most once.

#ifndef CPDB_IO_TREE_TEXT_H_
#define CPDB_IO_TREE_TEXT_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief Parses the textual tree format; the returned tree is validated
/// (its `validated()` flag is set, so loaders downstream do not re-check).
/// An out-of-range or fractional key or label is a ParseError, never a
/// narrowing cast.
Result<AndXorTree> ParseTree(std::string_view text);

/// \brief Serializes a tree in the format accepted by ParseTree.
/// `indent` pretty-prints with newlines; otherwise a single line.
std::string FormatTree(const AndXorTree& tree, bool indent = false);

}  // namespace cpdb

#endif  // CPDB_IO_TREE_TEXT_H_
