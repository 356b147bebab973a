#include "library/textio.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace powerplay::library {

std::vector<Tok> tokenize_document(const std::string& text) {
  std::vector<Tok> out;
  std::size_t i = 0;
  const std::size_t n = text.size();
  int line = 1;

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == '{') {
      out.push_back(Tok{TokKind::kLBrace, "{", 0, line});
      ++i;
      continue;
    }
    if (c == '}') {
      out.push_back(Tok{TokKind::kRBrace, "}", 0, line});
      ++i;
      continue;
    }
    if (c == '"') {
      std::string value;
      std::size_t j = i + 1;
      while (j < n && text[j] != '"') {
        if (text[j] == '\\') {
          ++j;
          if (j >= n) {
            throw FormatError("line " + std::to_string(line) +
                              ": unterminated escape");
          }
        }
        if (text[j] == '\n') ++line;
        value.push_back(text[j]);
        ++j;
      }
      if (j >= n) {
        throw FormatError("line " + std::to_string(line) +
                          ": unterminated string");
      }
      out.push_back(Tok{TokKind::kString, std::move(value), 0, line});
      i = j + 1;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
        c == '+' || c == '.') {
      char* end = nullptr;
      const double v = std::strtod(text.c_str() + i, &end);
      if (end == text.c_str() + i) {
        throw FormatError("line " + std::to_string(line) +
                          ": malformed number");
      }
      out.push_back(Tok{TokKind::kNumber,
                        text.substr(i, end - (text.c_str() + i)), v, line});
      i = end - text.c_str();
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(text[j])) ||
                       text[j] == '_')) {
        ++j;
      }
      out.push_back(Tok{TokKind::kIdent, text.substr(i, j - i), 0, line});
      i = j;
      continue;
    }
    throw FormatError("line " + std::to_string(line) +
                      ": unexpected character '" + std::string(1, c) + "'");
  }
  out.push_back(Tok{TokKind::kEnd, "", 0, line});
  return out;
}

void TokCursor::expect_ident(const std::string& name) {
  if (peek().kind != TokKind::kIdent || peek().text != name) {
    fail("expected keyword '" + name + "'");
  }
  ++pos_;
}

std::string TokCursor::take_ident() {
  if (peek().kind != TokKind::kIdent) fail("expected identifier");
  return toks_[pos_++].text;
}

bool TokCursor::accept_ident(const std::string& name) {
  if (peek().kind == TokKind::kIdent && peek().text == name) {
    ++pos_;
    return true;
  }
  return false;
}

std::string TokCursor::take_string() {
  if (peek().kind != TokKind::kString) fail("expected string");
  return toks_[pos_++].text;
}

double TokCursor::take_number() {
  if (peek().kind != TokKind::kNumber) fail("expected number");
  return toks_[pos_++].number;
}

void TokCursor::expect(TokKind kind) {
  if (peek().kind != kind) {
    const char* name = kind == TokKind::kLBrace   ? "'{'"
                       : kind == TokKind::kRBrace ? "'}'"
                                                  : "token";
    fail(std::string("expected ") + name);
  }
  ++pos_;
}

void TokCursor::fail(const std::string& message) const {
  throw FormatError("line " + std::to_string(peek().line) + ": " + message +
                    " (found '" + peek().text + "')");
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string number_text(double v) {
  // The shortest %.<p>g that reads back exactly.  No p below the digit
  // count of the shortest round-trip form can (that form would not be
  // shortest), so the search starts there and usually stops at its
  // first step.  std::to_chars(general, p) writes exactly what
  // printf's %.<p>g does, and from_chars reads like strtod.
  char buf[48];
  const auto shortest =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific);
  const char* first = buf;
  const char* last = shortest.ptr;
  const int digits = static_cast<int>(
      std::count_if(first, std::find(first, last, 'e'),
                    [](char c) { return c >= '0' && c <= '9'; }));
  for (int prec = std::max(digits, 1); prec <= 17; ++prec) {
    last = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                         prec)
               .ptr;
    double back = 0;
    std::from_chars(first, last, back);
    if (back == v) break;
  }
  return std::string(first, last);
}

}  // namespace powerplay::library
