#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/build_info.h"
#include "util/error.h"

namespace nocdr {

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonText(bool value) { return value ? "true" : "false"; }

std::string JsonText(double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    return "null";
  }
  // Shortest round-trip representation; deterministic for a given value.
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string JsonText(std::uint64_t value) { return std::to_string(value); }

std::string JsonText(std::int64_t value) { return std::to_string(value); }

std::string JsonText(const std::string& value) {
  return "\"" + JsonEscape(value) + "\"";
}

JsonObject& JsonObject::Set(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonText(value));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, const char* value) {
  return Set(key, std::string(value));
}

JsonObject& JsonObject::SetRaw(const std::string& key,
                               const std::string& json_fragment) {
  fields_.emplace_back(key, json_fragment);
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, bool value) {
  fields_.emplace_back(key, JsonText(value));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, double value) {
  fields_.emplace_back(key, JsonText(value));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, JsonText(value));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, JsonText(value));
  return *this;
}

std::string JsonObject::Dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"" + JsonEscape(fields_[i].first) + "\":" + fields_[i].second;
  }
  out += "}";
  return out;
}

// ------------------------------------------------------------------ parsing

class JsonValue::Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue value = ParseValue();
    SkipWhitespace();
    Check(pos_ == text_.size(), "trailing characters after JSON value");
    return value;
  }

 private:
  void Check(bool ok, const std::string& what) const {
    if (!ok) {
      throw InvalidModelError("JsonValue::Parse: " + what + " at offset " +
                              std::to_string(pos_));
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    Check(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    Check(Peek() == c, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Consume(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue ParseValue() {
    // Recursion guard: arrays/objects nest one stack frame per level, so
    // a hostile document must fail cleanly instead of overflowing the
    // stack. No document this library writes nests anywhere near this.
    struct DepthGuard {
      explicit DepthGuard(Parser& p) : parser(p) { ++parser.depth_; }
      ~DepthGuard() { --parser.depth_; }
      Parser& parser;
    } guard(*this);
    Check(depth_ <= 256, "nesting too deep");
    SkipWhitespace();
    JsonValue v;
    switch (Peek()) {
      case '{': {
        v.kind_ = Kind::kObject;
        ++pos_;
        SkipWhitespace();
        if (Peek() == '}') {
          ++pos_;
          return v;
        }
        while (true) {
          SkipWhitespace();
          std::string key = ParseStringToken();
          SkipWhitespace();
          Expect(':');
          v.members_.emplace_back(std::move(key), ParseValue());
          SkipWhitespace();
          if (Peek() == ',') {
            ++pos_;
            continue;
          }
          Expect('}');
          return v;
        }
      }
      case '[': {
        v.kind_ = Kind::kArray;
        ++pos_;
        SkipWhitespace();
        if (Peek() == ']') {
          ++pos_;
          return v;
        }
        while (true) {
          v.items_.push_back(ParseValue());
          SkipWhitespace();
          if (Peek() == ',') {
            ++pos_;
            continue;
          }
          Expect(']');
          return v;
        }
      }
      case '"':
        v.kind_ = Kind::kString;
        v.scalar_ = ParseStringToken();
        return v;
      case 't':
        Check(Consume("true"), "bad literal");
        v.kind_ = Kind::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        Check(Consume("false"), "bad literal");
        v.kind_ = Kind::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        Check(Consume("null"), "bad literal");
        v.kind_ = Kind::kNull;
        return v;
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    Check(pos_ > start + (text_[start] == '-' ? 1u : 0u), "expected a value");
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.scalar_ = text_.substr(start, pos_ - start);
    // Validate the token eagerly so malformed numbers fail at Parse, not
    // at first access.
    double parsed = 0.0;
    const char* begin = v.scalar_.data();
    const char* end = begin + v.scalar_.size();
    const auto result = std::from_chars(begin, end, parsed);
    Check(result.ec == std::errc() && result.ptr == end, "bad number");
    return v;
  }

  std::string ParseStringToken() {
    Expect('"');
    std::string out;
    while (true) {
      Check(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      Check(pos_ < text_.size(), "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          Check(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Check(false, "bad \\u escape");
            }
          }
          Check(code < 0xd800 || code > 0xdfff,
                "surrogate pairs are not supported");
          // Encode the BMP code point as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          Check(false, "unknown escape");
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

JsonValue JsonValue::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

namespace {

[[noreturn]] void KindError(const char* wanted) {
  throw InvalidModelError(std::string("JsonValue: value is not ") + wanted);
}

}  // namespace

bool JsonValue::AsBool() const {
  if (kind_ != Kind::kBool) {
    KindError("a bool");
  }
  return bool_;
}

double JsonValue::AsDouble() const {
  if (kind_ != Kind::kNumber) {
    KindError("a number");
  }
  double value = 0.0;
  std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), value);
  return value;
}

std::uint64_t JsonValue::AsUint() const {
  if (kind_ != Kind::kNumber) {
    KindError("a number");
  }
  std::uint64_t value = 0;
  const char* begin = scalar_.data();
  const char* end = begin + scalar_.size();
  const auto result = std::from_chars(begin, end, value);
  if (result.ec != std::errc() || result.ptr != end) {
    KindError("an unsigned integer");
  }
  return value;
}

std::int64_t JsonValue::AsInt() const {
  if (kind_ != Kind::kNumber) {
    KindError("a number");
  }
  std::int64_t value = 0;
  const char* begin = scalar_.data();
  const char* end = begin + scalar_.size();
  const auto result = std::from_chars(begin, end, value);
  if (result.ec != std::errc() || result.ptr != end) {
    KindError("a signed integer");
  }
  return value;
}

const std::string& JsonValue::AsString() const {
  if (kind_ != Kind::kString) {
    KindError("a string");
  }
  return scalar_;
}

const std::vector<JsonValue>& JsonValue::Items() const {
  if (kind_ != Kind::kArray) {
    KindError("an array");
  }
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::Members()
    const {
  if (kind_ != Kind::kObject) {
    KindError("an object");
  }
  return members_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    KindError("an object");
  }
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

const JsonValue& JsonValue::At(const std::string& key) const {
  const JsonValue* found = Find(key);
  if (found == nullptr) {
    throw InvalidModelError("JsonValue: missing key \"" + key + "\"");
  }
  return *found;
}

BenchJsonWriter::BenchJsonWriter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void BenchJsonWriter::AddRow(JsonObject row) {
  rows_.push_back(row.Set("bench", bench_name_).Dump());
}

std::string BenchJsonWriter::Write() const {
  const std::string path = "BENCH_" + bench_name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    return {};
  }
  // Header row: build provenance, so every committed baseline records
  // which binary produced it. tools/bench_compare.py skips rows with a
  // "provenance" key when pairing measurements.
  out << BuildProvenanceJson()
             .Set("provenance", true)
             .Set("bench", bench_name_)
             .Dump()
      << "\n";
  for (const std::string& row : rows_) {
    out << row << "\n";
  }
  out.close();
  return out ? path : std::string{};
}

}  // namespace nocdr
