// Minimal strict JSON (RFC 8259) validator for tests.
//
// The library writes JSON without a JSON library in two places:
// run_stats_json (one walk over the counter schema in core/run_stats.hpp)
// and the obs Chrome-trace writer, which share one string escaper. The
// tests re-parse that output with an independent, deliberately strict
// checker: no NaN/Inf literals, no trailing commas, no unescaped control
// characters, full-document consumption. Validation only -- it builds
// no DOM.
#pragma once

#include <cctype>
#include <string>
#include <string_view>

namespace graftmatch::testing {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid(std::string* error) {
    pos_ = 0;
    error_.clear();
    skip_ws();
    const bool ok = parse_value(0) && (skip_ws(), pos_ == text_.size());
    if (!ok && error_.empty()) fail("trailing garbage");
    if (error != nullptr) *error = error_;
    return ok && error_.empty();
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end");
    switch (text_[pos_]) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return parse_string();
      case 't': return parse_literal("true");
      case 'f': return parse_literal("false");
      case 'n': return parse_literal("null");
      default: return parse_number();
    }
  }

  bool parse_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("bad literal");
    }
    pos_ += word.size();
    return true;
  }

  bool parse_object(int depth) {
    if (!consume('{')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!parse_string()) return fail("object key must be a string");
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (!parse_value(depth + 1)) return false;
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume('}');
    }
  }

  bool parse_array(int depth) {
    if (!consume('[')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!parse_value(depth + 1)) return false;
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume(']');
    }
  }

  bool parse_string() {
    if (!consume('"')) return false;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') return ++pos_, true;
      if (c < 0x20) return fail("unescaped control character");
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("dangling escape");
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return fail("bad \\u escape");
            }
          }
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return fail("bad escape");
        }
      }
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return fail("bad number");  // catches nan/inf/'+'/'.5'
    }
    if (text_[pos_] == '0') {
      ++pos_;  // no leading zeros
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("bad fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("bad exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    return pos_ > start || fail("empty number");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// True iff `text` is one complete, strictly valid JSON document.
inline bool json_valid(std::string_view text, std::string* error = nullptr) {
  JsonChecker checker(text);
  return checker.valid(error);
}

}  // namespace graftmatch::testing
