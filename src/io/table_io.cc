// Copyright 2026 The ConsensusDB Authors

#include "io/table_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>

namespace cpdb {

namespace {

// A decimal integer token in [lo, hi] — the whole token, with an optional
// sign, as stream extraction spells integers — or false: a fraction, an
// exponent or an out-of-range value is an error, never truncated, partly
// read or wrapped into an int32.
bool ParseIntToken(const std::string& token, long long lo, long long hi,
                   int32_t* out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  // from_chars takes no '+'; stream extraction takes one before digits.
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') ++begin;
  long long value = 0;
  std::from_chars_result r = std::from_chars(begin, end, value);
  if (r.ec != std::errc() || r.ptr != end || value < lo || value > hi) {
    return false;
  }
  *out = static_cast<int32_t>(value);
  return true;
}

// "<what><path>: <the errno text>", the message of a failed read or write.
std::string IoErrorMessage(const char* what, const std::string& path,
                           int err) {
  std::string message = what;
  message += path;
  message += ": ";
  message += std::strerror(err);
  return message;
}

// Creates a new file in `path`'s directory, so renaming it over `path`
// stays on one file system, and puts its name in *temp; -1 with errno set
// when the directory refuses it. O_EXCL never opens a name in use, such as
// a file a crashed save left behind.
int CreateFileBeside(const std::string& path, std::string* temp) {
  static std::atomic<unsigned> serial{0};
  const size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "" : path.substr(0, slash + 1);
  for (;;) {
    *temp = dir + ".cpdb-save-" + std::to_string(getpid()) + "-" +
            std::to_string(serial++);
    const int fd =
        open(temp->c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd >= 0 || errno != EEXIST) return fd;
  }
}

}  // namespace

Result<std::vector<Block>> ParseBidTable(const std::string& text) {
  std::vector<Block> blocks;
  std::map<KeyId, size_t> block_of_key;
  std::set<std::pair<KeyId, double>> seen;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::string key_token;
    double prob, score;
    if (!(ls >> key_token)) continue;  // blank or comment-only line
    TupleAlternative alt;
    if (!ParseIntToken(key_token, std::numeric_limits<int32_t>::min(),
                       std::numeric_limits<int32_t>::max(), &alt.key)) {
      return Status::ParseError(
          "line " + std::to_string(line_no) + ": key '" + key_token +
          "' is not an integer in [-2147483648, 2147483647]");
    }
    if (!(ls >> prob >> score)) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": expected 'key prob score [label]'");
    }
    std::string label_token;
    if (ls >> label_token &&  // optional
        !ParseIntToken(label_token, 0, std::numeric_limits<int32_t>::max(),
                       &alt.label)) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": label '" + label_token +
                                "' is not an integer in [0, 2147483647]");
    }
    std::string rest;
    if (ls >> rest) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": trailing content '" + rest + "'");
    }
    // Explicit finiteness check, not just the range compare below: NaN
    // defeats every comparison, and some standard libraries' stream
    // extraction (libc++) accepts "inf"/"nan" tokens where others reject
    // them — a validated table must hold finite numbers on every
    // platform, like the tree parser guarantees.
    if (!std::isfinite(prob) || !std::isfinite(score)) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": expected finite numbers");
    }
    if (prob < 0.0 || prob > 1.0) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": probability out of [0,1]");
    }
    if (!seen.insert({alt.key, score}).second) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": duplicate (key, score) alternative");
    }
    alt.score = score;
    auto [it, inserted] = block_of_key.insert({alt.key, blocks.size()});
    if (inserted) blocks.emplace_back();
    blocks[it->second].push_back({alt, prob});
  }
  for (const Block& b : blocks) {
    double mass = 0.0;
    for (const BlockAlternative& a : b) mass += a.prob;
    if (mass > 1.0 + 1e-9) {
      return Status::ParseError("block for key " + std::to_string(b[0].alt.key) +
                                " has total probability " + std::to_string(mass) +
                                " > 1");
    }
  }
  if (blocks.empty()) return Status::ParseError("table has no alternatives");
  return blocks;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open file: " + path);
  std::string content;
  // A regular file is read in one call into a buffer of its size (a
  // snapshot is megabytes); a pipe or device, or bytes appended since,
  // are read in chunks.
  struct stat st;
  if (fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    content.resize(static_cast<size_t>(st.st_size));
    content.resize(std::fread(content.data(), 1, content.size(), f));
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  // fread returns 0 at end of file and on error alike; a directory or a
  // failing device must not read as a (truncated) file.
  const int read_errno = std::ferror(f) ? errno : 0;
  std::fclose(f);
  if (read_errno != 0) {
    return Status::InvalidArgument(
        IoErrorMessage("cannot read file: ", path, read_errno));
  }
  return content;
}

Status WriteStringToFile(const std::string& path, const std::string& content) {
  // A rename over a device, a FIFO or a symlink would replace the node
  // itself, so those are written in place.
  struct stat st;
  const bool exists = lstat(path.c_str(), &st) == 0;
  const bool in_place = exists && !S_ISREG(st.st_mode);
  std::string temp;
  std::FILE* f = nullptr;
  if (in_place) {
    f = std::fopen(path.c_str(), "wb");
  } else if (const int fd = CreateFileBeside(path, &temp); fd >= 0) {
    // The replacement keeps the replaced file's permission bits.
    if (exists) (void)fchmod(fd, st.st_mode & 07777);
    f = fdopen(fd, "wb");
    if (f == nullptr) {
      close(fd);
      unlink(temp.c_str());
    }
  }
  if (f == nullptr) return Status::InvalidArgument("cannot open file: " + path);
  bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  int err = errno;
  // The bytes may still sit in stdio's buffer: a full device reports only
  // when fclose flushes them.
  if (std::fclose(f) != 0 && ok) {
    ok = false;
    err = errno;
  }
  if (ok && !in_place && std::rename(temp.c_str(), path.c_str()) != 0) {
    ok = false;
    err = errno;
  }
  if (!ok) {
    if (!in_place) unlink(temp.c_str());
    return Status::Internal(IoErrorMessage("cannot write file: ", path, err));
  }
  return Status::OK();
}

}  // namespace cpdb
