#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>

#include "core/error.hpp"

namespace gpucnn::obs {

Json& Json::set(std::string key, Json value) {
  check(type_ == Type::kObject, "Json::set on a non-object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::push(Json value) {
  check(type_ == Type::kArray, "Json::push on a non-array");
  items_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  switch (type_) {
    case Type::kArray:
      return items_.size();
    case Type::kObject:
      return members_.size();
    default:
      return 0;
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) return "null";
  return std::string(buf, ptr);
}

namespace {

void write_indent(std::ostream& os, int indent, int depth) {
  if (indent <= 0) return;
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

}  // namespace

void Json::dump_impl(std::ostream& os, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      os << "null";
      return;
    case Type::kBool:
      os << (bool_ ? "true" : "false");
      return;
    case Type::kNumber:
      os << json_number(number_);
      return;
    case Type::kString:
      os << '"' << json_escape(string_) << '"';
      return;
    case Type::kArray: {
      if (items_.empty()) {
        os << "[]";
        return;
      }
      os << '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) os << ',';
        write_indent(os, indent, depth + 1);
        items_[i].dump_impl(os, indent, depth + 1);
      }
      write_indent(os, indent, depth);
      os << ']';
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        os << "{}";
        return;
      }
      os << '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) os << ',';
        write_indent(os, indent, depth + 1);
        os << '"' << json_escape(members_[i].first) << "\":";
        if (indent > 0) os << ' ';
        members_[i].second.dump_impl(os, indent, depth + 1);
      }
      write_indent(os, indent, depth);
      os << '}';
      return;
    }
  }
}

void Json::dump(std::ostream& os, int indent) const {
  dump_impl(os, indent, 0);
}

std::string Json::dump_string(int indent) const {
  std::ostringstream os;
  dump(os, indent);
  return os.str();
}

namespace {

/// Recursive-descent reader for parse_json. Every failure clears `ok`;
/// callers stop at the first one.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;
  bool ok = true;

  bool fail() {
    ok = false;
    return false;
  }
  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }
  [[nodiscard]] char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }
  bool consume(char c) {
    if (peek() != c) return fail();
    ++pos;
    return true;
  }
  bool consume_word(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return fail();
    pos += word.size();
    return true;
  }

  Json parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == kMaxJsonDepth) {
        fail();
        return {};
      }
      ++depth;
      Json nested = c == '{' ? parse_object() : parse_array();
      --depth;
      return nested;
    }
    switch (c) {
      case '"': return Json(parse_string());
      case 't': consume_word("true"); return Json(true);
      case 'f': consume_word("false"); return Json(false);
      case 'n': consume_word("null"); return {};
      default: return parse_number();
    }
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) return out;
    while (ok && pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (static_cast<unsigned char>(c) < 0x20) {
        fail();  // raw control characters must be escaped
      } else if (c == '\\') {
        c = parse_escape();
      }
      out.push_back(c);
    }
    consume('"');
    return out;
  }

  /// The character a backslash escape stands for (the backslash is
  /// already consumed).
  char parse_escape() {
    constexpr std::string_view kEscaped = "\"\\/bfnrt";
    constexpr std::string_view kMeaning = "\"\\/\b\f\n\r\t";
    const char esc = pos < text.size() ? text[pos++] : '\0';
    if (const auto at = kEscaped.find(esc); at != std::string_view::npos) {
      return kMeaning[at];
    }
    // Only \u0000-\u007f: one ASCII byte, the same in UTF-8.
    unsigned code = 0;
    const std::string_view hex = text.substr(pos, 4);
    const auto [end, ec] =
        std::from_chars(hex.data(), hex.data() + hex.size(), code, 16);
    if (esc != 'u' || hex.size() != 4 || ec != std::errc{} ||
        end != hex.data() + hex.size() || code > 0x7F) {
      fail();
      return '\0';
    }
    pos += 4;
    return static_cast<char>(code);
  }

  bool accept(char c) {
    if (pos == text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }
  /// Consumes [0-9]*; true when at least one digit was there.
  bool digits() {
    const std::size_t from = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return pos > from;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, converted only once
  /// the whole token matched.
  Json parse_number() {
    skip_ws();
    const std::size_t begin = pos;
    accept('-');
    bool valid = accept('0') || digits();
    if (valid && accept('.')) valid = digits();
    if (valid && (accept('e') || accept('E'))) {
      if (!accept('+')) accept('-');
      valid = digits();
    }
    double value = 0.0;
    if (valid) {
      const auto [end, ec] =
          std::from_chars(text.data() + begin, text.data() + pos, value);
      valid = ec == std::errc{} && end == text.data() + pos;
    }
    if (!valid) {
      fail();
      return {};
    }
    return Json(value);
  }

  Json parse_array() {
    Json arr = Json::array();
    consume('[');
    if (peek() == ']') {
      ++pos;
      return arr;
    }
    while (ok) {
      arr.push(parse_value());
      if (peek() == ',') {
        ++pos;
        continue;
      }
      consume(']');
      break;
    }
    return arr;
  }

  Json parse_object() {
    Json obj = Json::object();
    consume('{');
    if (peek() == '}') {
      ++pos;
      return obj;
    }
    while (ok) {
      std::string key = parse_string();
      consume(':');
      obj.set(std::move(key), parse_value());
      if (peek() == ',') {
        ++pos;
        continue;
      }
      consume('}');
      break;
    }
    return obj;
  }
};

}  // namespace

std::optional<Json> parse_json(std::string_view text) {
  Parser p{text};
  Json v = p.parse_value();
  if (!p.ok) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;
  return v;
}

}  // namespace gpucnn::obs
