// Copyright 2026 The ConsensusDB Authors
//
// A line-oriented text format for block-independent-disjoint (BID) tables,
// the most common interchange representation of probabilistic relations.
// Each non-empty, non-comment line is one alternative:
//
//   key <ws> prob <ws> score [<ws> label]
//
// Alternatives with the same key form one block (mutually exclusive).
// '#' starts a comment. Example:
//
//   # key prob score
//   1 0.3 8.0
//   1 0.5 2.0
//   2 0.9 5.0

#ifndef CPDB_IO_TABLE_IO_H_
#define CPDB_IO_TABLE_IO_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "model/builders.h"

namespace cpdb {

/// \brief Parses the BID text format into blocks grouped by key, in first-
/// appearance order. Fails on malformed lines, a key that is not an
/// integer in the int32 range or a label not in [0, INT32_MAX], duplicate
/// (key, score) pairs, probabilities outside [0, 1], or block mass
/// exceeding 1.
Result<std::vector<Block>> ParseBidTable(const std::string& text);

/// \brief Reads an entire file into a string. NotFound when the file cannot
/// be opened; InvalidArgument naming the path when a read fails (a
/// directory, an I/O error), never a truncated string.
Result<std::string> ReadFileToString(const std::string& path);

/// \brief Writes a string to a file, replacing it whole: the bytes go to a
/// new file in the same directory, renamed over `path` once closed, so a
/// reader never sees a mix and a failed write leaves the old file. A
/// target that exists and is not a regular file (a device, a FIFO, a
/// symlink) is written in place. InvalidArgument when the file cannot be
/// created; Internal naming the path when a write, the closing flush (a
/// full device) or the rename fails.
Status WriteStringToFile(const std::string& path, const std::string& content);

}  // namespace cpdb

#endif  // CPDB_IO_TABLE_IO_H_
