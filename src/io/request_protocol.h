// Copyright 2026 The ConsensusDB Authors
//
// The line-oriented request protocol of the serving layer (`cpdb_cli
// serve`). One request per line, one response line per request. Grammar:
//
//   request := field (WS field)* [comment]
//   field   := NAME "=" VALUE
//   NAME    := [A-Za-z] [A-Za-z0-9_-]*
//   VALUE   := one or more non-whitespace characters
//   comment := "#" <rest of line>
//
// Blank lines parse to a request with no fields (callers skip them). A '#'
// at the *start of a token* begins a comment that runs to end of line —
// whether the line is otherwise empty ("# note") or carries fields before
// it ("op=stats # note"). A '#' inside a value ("file=a#b") is literal:
// comments are recognized only at token boundaries, so values keep the
// full non-whitespace character set. Duplicate field names are an error —
// a request that says k twice has no single honest answer. Request values
// carry no escaping, so values containing whitespace (e.g. paths with
// spaces) are not representable; this is a deliberate simplicity trade.
//
// Responses are tab-separated `name=value` pairs, led by a literal "ok" or
// "error" token, e.g.
//
//   ok<TAB>op=topk<TAB>tree=movies<TAB>metric=kendall<TAB>k=3<TAB>
//     keys=2,1,5<TAB>expected=0.12376237623762376
//   error<TAB>line=4<TAB>msg=Invalid argument: unknown op 'topq'
//
// Unlike request values, response values ARE escaped: a served value may
// echo arbitrary user input (error messages quote the offending token), so
// tabs, newlines, and the other control characters are emitted as
// backslash escapes (\t \n \r \\ \xHH) — one request is one response
// *line*, no matter what bytes the values carry. ParseResponseLine is the
// inverse: clients (and our tests) can round-trip any response through it.
//
// This module owns the *grammar* only — tokenization, strict integer
// syntax, duplicate detection, response assembly and escaping. The mapping
// of fields to typed operations (op/metric/answer enums, catalog lookups)
// lives in src/service/, which keeps io/ below core/ in the layer diagram.

#ifndef CPDB_IO_REQUEST_PROTOCOL_H_
#define CPDB_IO_REQUEST_PROTOCOL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"

namespace cpdb {

/// \brief One `name=value` pair of a request or response line.
struct RequestField {
  std::string name;
  std::string value;
};

/// \brief A tokenized request line: fields in input order. Empty for blank
/// and comment lines.
struct RequestLine {
  std::vector<RequestField> fields;

  /// \brief The value of field `name`, or nullptr if absent. Linear scan —
  /// request lines have a handful of fields.
  const std::string* Find(const std::string& name) const;
};

/// \brief Tokenizes one request line. Fails (ParseError) on a token without
/// '=', an empty or malformed field name, an empty value, or a duplicate
/// field name — garbage never parses to a default. Blank lines succeed with
/// no fields; a token-initial '#' ends the line as a comment wherever it
/// appears ("# note" and "op=stats # note" both parse, the latter to one
/// field), while '#' inside a value stays literal.
Result<RequestLine> ParseRequestLine(const std::string& line);

/// \brief Strict base-10 integer parse for a named field or flag: rejects
/// empty strings, trailing garbage, and out-of-range magnitudes instead of
/// silently taking whatever atoi salvages (a typo'd "k=1o" must not become
/// k=1). Shared by the protocol's integer fields and the CLI's --flag
/// values; `name` only labels the error message.
Result<long long> ParseStrictInt(const std::string& name,
                                 const std::string& value);

/// \brief Shortest round-trip decimal rendering of a double: the minimal
/// digit string that strtod parses back to the bit-identical value
/// (std::to_chars with no precision argument). The single formatter behind
/// every double the system emits — serve response `expected=` values and
/// the offline CLI's probabilities/distances alike — so no output layer
/// silently truncates what the engine computed exactly ("%.6f" used to).
std::string FormatRoundTripDouble(double value);

/// \brief Appends FormatRoundTripDouble(value) to `out`, without the
/// temporary string.
void AppendRoundTripDouble(double value, std::string* out);

/// \brief Escapes a response value for the tab-separated framing: backslash
/// becomes "\\", tab/newline/CR become "\t"/"\n"/"\r", and every other
/// control character (0x00-0x1F, 0x7F) becomes "\xHH". The identity on
/// values that need no escaping — which is all honest protocol traffic, so
/// escaping costs nothing on the hot path.
std::string EscapeFieldValue(const std::string& value);

/// \brief The inverse of EscapeFieldValue. ParseError on a dangling
/// backslash or an unknown escape — a response that decodes to "probably
/// what was meant" is worse than one that fails loudly.
Result<std::string> UnescapeFieldValue(const std::string& value);

/// \brief Assembles a success response: "ok" plus tab-separated
/// `name=value` pairs, newline-terminated. Values are escaped
/// (EscapeFieldValue), so any byte content yields exactly one well-framed
/// line.
std::string FormatResponseLine(const std::vector<RequestField>& fields);

/// \brief Assembles the error response for input line `line_number`
/// (1-based): "error", the line, and the failure message. The message is
/// escaped — error text routinely echoes user input ("unknown op '...'"),
/// and a tab or newline smuggled through a request value must not corrupt
/// the response framing.
std::string FormatErrorLine(size_t line_number, const Status& status);

/// \brief A parsed response line: the leading token ("ok" or "error") plus
/// the unescaped fields.
struct ResponseLine {
  bool ok = false;
  std::vector<RequestField> fields;

  /// \brief The value of field `name`, or nullptr if absent.
  const std::string* Find(const std::string& name) const;
};

/// \brief Parses one response line (the output of FormatResponseLine /
/// FormatErrorLine, trailing newline optional): splits on tabs, checks the
/// leading ok/error token, and unescapes every value. The round-trip
/// contract — Parse(Format(fields)) == fields for any byte content — is
/// pinned by tests/request_protocol_test.cc; clients scripting against
/// `serve` should read responses through this rather than splitting on
/// whitespace.
Result<ResponseLine> ParseResponseLine(const std::string& line);

}  // namespace cpdb

#endif  // CPDB_IO_REQUEST_PROTOCOL_H_
