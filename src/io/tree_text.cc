// Copyright 2026 The ConsensusDB Authors

#include "io/tree_text.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "io/request_protocol.h"

namespace cpdb {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer: parentheses, and whitespace-separated atoms. Atoms are views
// into the input text; nothing is copied.
// ---------------------------------------------------------------------------

// The separators: std::isspace's set in the "C" locale (space, \t, \n, \v,
// \f, \r), without a locale lookup per byte.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

struct Token {
  enum Kind { kLParen, kRParen, kAtom, kEnd } kind;
  std::string_view text;
  size_t pos;  // byte offset, for error messages
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token Next() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    if (pos_ >= text_.size()) return {Token::kEnd, {}, pos_};
    size_t start = pos_;
    char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      return {Token::kLParen, text_.substr(start, 1), start};
    }
    if (c == ')') {
      ++pos_;
      return {Token::kRParen, text_.substr(start, 1), start};
    }
    while (pos_ < text_.size() && text_[pos_] != '(' && text_[pos_] != ')' &&
           !IsSpace(text_[pos_])) {
      ++pos_;
    }
    return {Token::kAtom, text_.substr(start, pos_ - start), start};
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Recursive-descent parser (explicit lookahead of one token).
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) { Advance(); }

  Result<AndXorTree> Parse(std::string_view text) {
    AndXorTree tree;
    // Every node opens with one '(', so this is the node count of a valid
    // text. Capped, so hostile text of bare parentheses cannot reserve
    // more than a few MB before its parse fails.
    constexpr size_t kMaxReservedNodes = size_t{1} << 16;
    tree.ReserveNodes(std::min<size_t>(
        static_cast<size_t>(std::count(text.begin(), text.end(), '(')),
        kMaxReservedNodes));
    CPDB_ASSIGN_OR_RETURN(NodeId root, ParseNode(&tree));
    if (cur_.kind != Token::kEnd) {
      return Err("trailing input after tree");
    }
    tree.SetRoot(root);
    CPDB_RETURN_NOT_OK(tree.Validate());
    return tree;
  }

 private:
  void Advance() { cur_ = lexer_.Next(); }

  Status Err(const std::string& what) const {
    return Status::ParseError(what + " at offset " + std::to_string(cur_.pos));
  }

  Result<double> ParseDouble(std::string_view s) {
    // Fast path: from_chars' grammar is a subset of strtod's and both round
    // correctly, so a finite conversion of the whole atom is exactly the
    // value strtod would give, without the copy.
    double v = 0.0;
    const char* const atom_end = s.data() + s.size();
    const std::from_chars_result r = std::from_chars(s.data(), atom_end, v);
    if (r.ec == std::errc() && r.ptr == atom_end && std::isfinite(v)) {
      return v;
    }
    // Everything else ('+', hex, underflow, overflow, inf/nan, garbage)
    // takes strtod, which decides acceptance and the error text. strtod
    // needs a NUL-terminated string: the atom is copied into a reused buffer
    // (an embedded NUL still ends the number).
    number_.assign(s.data(), s.size());
    char* end = nullptr;
    v = std::strtod(number_.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == number_.c_str()) {
      return Err("expected a number, got '" + number_ + "'");
    }
    // strtod happily accepts "inf"/"nan" literals and turns overflowing
    // magnitudes like 1e999 into HUGE_VAL — any of which would smuggle a
    // non-finite value into a tree that downstream code treats as
    // validated (probabilities and scores flow into folds where one NaN
    // poisons every answer). Underflow to a denormal/zero is a
    // representable approximation and stays accepted.
    if (!std::isfinite(v)) {
      return Err("expected a finite number, got '" + number_ + "'");
    }
    return v;
  }

  // A leaf's key or label: the number `v` parsed from `atom` must be an
  // integer in [lo, hi], so it converts to int32_t exactly instead of being
  // truncated or wrapped.
  Result<int32_t> ParseLeafInt(std::string_view name, std::string_view atom,
                               double v, double lo, double hi) const {
    if (v != std::trunc(v) || v < lo || v > hi) {
      return Err("leaf " + std::string(name) + " must be an integer in [" +
                 std::to_string(static_cast<int64_t>(lo)) + ", " +
                 std::to_string(static_cast<int64_t>(hi)) + "], got '" +
                 std::string(atom) + "'");
    }
    return static_cast<int32_t>(v);
  }

  // The parser recurses on input nesting; cap the depth so adversarial
  // inputs fail with a clean error instead of exhausting the call stack.
  static constexpr int kMaxDepth = 2000;

  Result<NodeId> ParseNode(AndXorTree* tree) {
    if (++depth_ > kMaxDepth) {
      --depth_;
      return Err("tree nesting exceeds the supported depth of " +
                 std::to_string(kMaxDepth));
    }
    Result<NodeId> result = ParseNodeInner(tree);
    --depth_;
    return result;
  }

  Result<NodeId> ParseNodeInner(AndXorTree* tree) {
    if (cur_.kind != Token::kLParen) return Err("expected '('");
    Advance();
    if (cur_.kind != Token::kAtom) return Err("expected node kind");
    const std::string_view kind = cur_.text;
    Advance();
    if (kind == "leaf") return ParseLeaf(tree);
    if (kind == "and") return ParseAnd(tree);
    if (kind == "xor") return ParseXor(tree);
    return Err("unknown node kind '" + std::string(kind) + "'");
  }

  Result<NodeId> ParseLeaf(AndXorTree* tree) {
    constexpr double kInt32Min = std::numeric_limits<int32_t>::min();
    constexpr double kInt32Max = std::numeric_limits<int32_t>::max();
    TupleAlternative alt;
    bool have_key = false;
    bool have_score = false;
    bool have_label = false;
    while (cur_.kind == Token::kAtom) {
      const std::string_view a = cur_.text;
      size_t eq = a.find('=');
      if (eq == std::string_view::npos) {
        return Err("expected attr=value in leaf");
      }
      const std::string_view name = a.substr(0, eq);
      const std::string_view atom = a.substr(eq + 1);
      CPDB_ASSIGN_OR_RETURN(double v, ParseDouble(atom));
      bool* seen = nullptr;
      if (name == "key") {
        seen = &have_key;
        CPDB_ASSIGN_OR_RETURN(
            alt.key, ParseLeafInt(name, atom, v, kInt32Min, kInt32Max));
      } else if (name == "score") {
        seen = &have_score;
        alt.score = v;
      } else if (name == "label") {
        seen = &have_label;
        CPDB_ASSIGN_OR_RETURN(alt.label,
                              ParseLeafInt(name, atom, v, 0, kInt32Max));
      } else {
        return Err("unknown leaf attribute '" + std::string(name) + "'");
      }
      if (*seen) {
        return Err("leaf attribute '" + std::string(name) +
                   "' appears more than once");
      }
      *seen = true;
      Advance();
    }
    if (!have_key) return Err("leaf missing key attribute");
    if (cur_.kind != Token::kRParen) return Err("expected ')' after leaf");
    Advance();
    return tree->AddLeaf(alt);
  }

  // Inner nodes collect their children (and XOR probabilities) on stacks
  // shared by every nesting level, then take an exactly sized copy: one
  // allocation per list instead of a growing vector per node, and no slack
  // in the lists a catalog goes on to keep.
  Result<NodeId> ParseAnd(AndXorTree* tree) {
    const size_t base = child_stack_.size();
    while (cur_.kind == Token::kLParen) {
      CPDB_ASSIGN_OR_RETURN(NodeId child, ParseNode(tree));
      child_stack_.push_back(child);
    }
    if (child_stack_.size() == base) {
      return Err("and node needs at least one child");
    }
    if (cur_.kind != Token::kRParen) return Err("expected ')' after and");
    Advance();
    return tree->AddAnd(PopFrom(base, &child_stack_));
  }

  Result<NodeId> ParseXor(AndXorTree* tree) {
    const size_t base = child_stack_.size();
    const size_t prob_base = prob_stack_.size();
    while (cur_.kind == Token::kAtom) {
      CPDB_ASSIGN_OR_RETURN(double p, ParseDouble(cur_.text));
      Advance();
      CPDB_ASSIGN_OR_RETURN(NodeId child, ParseNode(tree));
      prob_stack_.push_back(p);
      child_stack_.push_back(child);
    }
    if (child_stack_.size() == base) {
      return Err("xor node needs at least one child");
    }
    if (cur_.kind != Token::kRParen) return Err("expected ')' after xor");
    Advance();
    std::vector<NodeId> children = PopFrom(base, &child_stack_);
    return tree->AddXor(std::move(children), PopFrom(prob_base, &prob_stack_));
  }

  template <typename T>
  static std::vector<T> PopFrom(size_t base, std::vector<T>* stack) {
    std::vector<T> top(stack->begin() + static_cast<ptrdiff_t>(base),
                       stack->end());
    stack->resize(base);
    return top;
  }

  Lexer lexer_;
  Token cur_{Token::kEnd, {}, 0};
  int depth_ = 0;
  std::string number_;  // strtod's NUL-terminated copy of the atom
  std::vector<NodeId> child_stack_;
  std::vector<double> prob_stack_;
};

void AppendInt(int32_t v, std::string* out) {
  char buf[16];
  std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

void FormatNode(const AndXorTree& tree, NodeId id, bool indent, int depth,
                std::string* out) {
  const TreeNode& n = tree.node(id);
  auto newline = [&] {
    if (indent) {
      out->push_back('\n');
      out->append(2 * static_cast<size_t>(depth + 1), ' ');
    } else {
      out->push_back(' ');
    }
  };
  switch (n.kind) {
    case NodeKind::kLeaf:
      // Doubles render via the shortest-round-trip formatter: the canonical
      // form fingerprints trees and is the snapshot payload, so it must be
      // injective — default ostream precision (6 digits) made two trees
      // whose probabilities differ past the 6th digit share a canonical
      // text (hence a fingerprint), and made a snapshot-restored tree
      // numerically drift from the one that saved it.
      out->append("(leaf key=");
      AppendInt(n.leaf.key, out);
      out->append(" score=");
      AppendRoundTripDouble(n.leaf.score, out);
      if (n.leaf.label >= 0) {
        out->append(" label=");
        AppendInt(n.leaf.label, out);
      }
      out->push_back(')');
      break;
    case NodeKind::kAnd:
      out->append("(and");
      for (NodeId c : n.children) {
        newline();
        FormatNode(tree, c, indent, depth + 1, out);
      }
      out->push_back(')');
      break;
    case NodeKind::kXor:
      out->append("(xor");
      for (size_t i = 0; i < n.children.size(); ++i) {
        newline();
        AppendRoundTripDouble(n.edge_probs[i], out);
        out->push_back(' ');
        FormatNode(tree, n.children[i], indent, depth + 1, out);
      }
      out->push_back(')');
      break;
  }
}

}  // namespace

Result<AndXorTree> ParseTree(std::string_view text) {
  Parser parser(text);
  return parser.Parse(text);
}

std::string FormatTree(const AndXorTree& tree, bool indent) {
  // Format into a per-thread buffer that keeps its capacity, then copy out
  // exactly the bytes written: no growth reallocations per call, and the
  // returned string (which catalogs and snapshots retain) carries no slack.
  // A buffer grown past 1 MiB by one outsized tree is released.
  constexpr size_t kMaxRetainedBytes = size_t{1} << 20;
  thread_local std::string buffer;
  buffer.clear();
  FormatNode(tree, tree.root(), indent, 0, &buffer);
  std::string text = buffer;
  if (buffer.capacity() > kMaxRetainedBytes) std::string().swap(buffer);
  return text;
}

}  // namespace cpdb
