// Copyright 2026 The ConsensusDB Authors

#include "io/request_protocol.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace cpdb {

namespace {

bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool IsNameChar(char c) {
  return IsNameStart(c) || (c >= '0' && c <= '9') || c == '_' || c == '-';
}

// A control character that would break the one-line tab-separated framing
// (or render invisibly) if emitted raw.
bool NeedsEscape(unsigned char c) { return c < 0x20 || c == 0x7F; }

int HexDigitValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

const std::string* RequestLine::Find(const std::string& name) const {
  for (const RequestField& f : fields) {
    if (f.name == name) return &f.value;
  }
  return nullptr;
}

Result<RequestLine> ParseRequestLine(const std::string& line) {
  RequestLine parsed;
  size_t pos = 0;
  while (pos < line.size()) {
    if (line[pos] == ' ' || line[pos] == '\t' || line[pos] == '\r') {
      ++pos;
      continue;
    }
    // A token-initial '#' comments out the rest of the line, whether any
    // fields preceded it or not ("op=stats # note" is a one-field request).
    // '#' inside a token ("file=a#b") is an ordinary value character:
    // comments exist only at token boundaries.
    if (line[pos] == '#') {
      return parsed;
    }
    size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
           line[end] != '\r') {
      ++end;
    }
    std::string token = line.substr(pos, end - pos);
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("request field '" + token +
                                "' is not name=value");
    }
    RequestField field{token.substr(0, eq), token.substr(eq + 1)};
    if (field.name.empty() || !IsNameStart(field.name[0])) {
      return Status::ParseError("bad field name in '" + token + "'");
    }
    for (char c : field.name) {
      if (!IsNameChar(c)) {
        return Status::ParseError("bad field name in '" + token + "'");
      }
    }
    if (field.value.empty()) {
      return Status::ParseError("field '" + field.name + "' has empty value");
    }
    if (parsed.Find(field.name) != nullptr) {
      return Status::ParseError("duplicate field '" + field.name + "'");
    }
    parsed.fields.push_back(std::move(field));
    pos = end;
  }
  return parsed;
}

Result<long long> ParseStrictInt(const std::string& name,
                                 const std::string& value) {
  // strtoll itself skips leading whitespace; strict means we don't.
  bool starts_like_int =
      !value.empty() && (value[0] == '+' || value[0] == '-' ||
                         (value[0] >= '0' && value[0] <= '9'));
  char* end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (!starts_like_int || end == nullptr || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument(name + " expects an integer, got '" +
                                   value + "'");
  }
  return parsed;
}

std::string FormatRoundTripDouble(double value) {
  std::string out;
  AppendRoundTripDouble(value, &out);
  return out;
}

void AppendRoundTripDouble(double value, std::string* out) {
  // 32 bytes comfortably hold the longest shortest-representation double
  // ("-2.2250738585072014e-308" is 24 characters).
  char buf[32];
  std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

std::string EscapeFieldValue(const std::string& value) {
  size_t first = 0;
  while (first < value.size() &&
         value[first] != '\\' &&
         !NeedsEscape(static_cast<unsigned char>(value[first]))) {
    ++first;
  }
  if (first == value.size()) return value;  // the hot path: nothing to do
  std::string escaped = value.substr(0, first);
  escaped.reserve(value.size() + 4);
  for (size_t i = first; i < value.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(value[i]);
    switch (c) {
      case '\\':
        escaped += "\\\\";
        break;
      case '\t':
        escaped += "\\t";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\r':
        escaped += "\\r";
        break;
      default:
        if (NeedsEscape(c)) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02X", c);
          escaped += buf;
        } else {
          escaped += static_cast<char>(c);
        }
    }
  }
  return escaped;
}

Result<std::string> UnescapeFieldValue(const std::string& value) {
  if (value.find('\\') == std::string::npos) return value;
  std::string raw;
  raw.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    if (value[i] != '\\') {
      raw += value[i];
      continue;
    }
    if (i + 1 >= value.size()) {
      return Status::ParseError("dangling backslash in value '" + value + "'");
    }
    char e = value[++i];
    switch (e) {
      case '\\':
        raw += '\\';
        break;
      case 't':
        raw += '\t';
        break;
      case 'n':
        raw += '\n';
        break;
      case 'r':
        raw += '\r';
        break;
      case 'x': {
        if (i + 2 >= value.size()) {
          return Status::ParseError("truncated \\x escape in value '" + value +
                                    "'");
        }
        int hi = HexDigitValue(value[i + 1]);
        int lo = HexDigitValue(value[i + 2]);
        if (hi < 0 || lo < 0) {
          return Status::ParseError("bad \\x escape in value '" + value + "'");
        }
        raw += static_cast<char>(hi * 16 + lo);
        i += 2;
        break;
      }
      default:
        return Status::ParseError(std::string("unknown escape '\\") + e +
                                  "' in value '" + value + "'");
    }
  }
  return raw;
}

std::string FormatResponseLine(const std::vector<RequestField>& fields) {
  std::string line = "ok";
  for (const RequestField& f : fields) {
    line += '\t';
    line += f.name;
    line += '=';
    line += EscapeFieldValue(f.value);
  }
  line += '\n';
  return line;
}

std::string FormatErrorLine(size_t line_number, const Status& status) {
  return "error\tline=" + std::to_string(line_number) +
         "\tmsg=" + EscapeFieldValue(status.ToString()) + "\n";
}

const std::string* ResponseLine::Find(const std::string& name) const {
  for (const RequestField& f : fields) {
    if (f.name == name) return &f.value;
  }
  return nullptr;
}

Result<ResponseLine> ParseResponseLine(const std::string& line) {
  std::string text = line;
  if (!text.empty() && text.back() == '\n') text.pop_back();
  ResponseLine parsed;
  size_t pos = text.find('\t');
  std::string head = text.substr(0, pos);
  if (head == "ok") {
    parsed.ok = true;
  } else if (head == "error") {
    parsed.ok = false;
  } else {
    return Status::ParseError("response line must start with ok or error, "
                              "got '" + head + "'");
  }
  while (pos != std::string::npos) {
    size_t start = pos + 1;
    pos = text.find('\t', start);
    std::string token = text.substr(
        start, pos == std::string::npos ? std::string::npos : pos - start);
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::ParseError("response field '" + token +
                                "' is not name=value");
    }
    RequestField field{token.substr(0, eq), ""};
    CPDB_ASSIGN_OR_RETURN(field.value, UnescapeFieldValue(token.substr(eq + 1)));
    if (parsed.Find(field.name) != nullptr) {
      return Status::ParseError("duplicate response field '" + field.name +
                                "'");
    }
    parsed.fields.push_back(std::move(field));
  }
  return parsed;
}

}  // namespace cpdb
