#include "serve/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>

#include "core/explore_option_table.hpp"

namespace addm::serve {

namespace {

// Strict non-negative decimal (no sign, no suffix, no leading junk).
bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

// "WxH" with positive dimensions — the CLI's --base grammar.
bool parse_geometry_sv(std::string_view s, seq::ArrayGeometry& g) {
  const std::size_t x = s.find('x');
  if (x == std::string_view::npos) return false;
  std::uint64_t w = 0, h = 0;
  if (!parse_u64(s.substr(0, x), w) || !parse_u64(s.substr(x + 1), h))
    return false;
  if (w == 0 || h == 0) return false;
  g.width = static_cast<std::size_t>(w);
  g.height = static_cast<std::size_t>(h);
  return true;
}

void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t get_u32le(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

void set_error(std::string* error, const char* msg) {
  if (error) *error = msg;
}

}  // namespace

std::string encode_frame(std::uint8_t type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kFrameMagic, sizeof kFrameMagic);
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(type));
  out.push_back('\0');
  out.push_back('\0');
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

DecodeStatus decode_frame(std::string_view buf, Frame& out,
                          std::size_t& consumed, std::string* error) {
  consumed = 0;
  if (buf.empty()) return DecodeStatus::kNeedMore;
  // Magic is checked byte-by-byte so a wrong prefix is malformed as soon as
  // it can be, not after 12 bytes arrive.
  const std::size_t magic_avail = std::min(buf.size(), sizeof kFrameMagic);
  if (std::memcmp(buf.data(), kFrameMagic, magic_avail) != 0) {
    set_error(error, "bad frame magic");
    return DecodeStatus::kMalformed;
  }
  if (buf.size() >= 5 &&
      static_cast<std::uint8_t>(buf[4]) != kProtocolVersion) {
    set_error(error, "unsupported protocol version");
    return DecodeStatus::kMalformed;
  }
  if (buf.size() >= 8 && (buf[6] != '\0' || buf[7] != '\0')) {
    set_error(error, "nonzero reserved header bytes");
    return DecodeStatus::kMalformed;
  }
  if (buf.size() < kFrameHeaderSize) return DecodeStatus::kNeedMore;
  const std::uint32_t length = get_u32le(buf.data() + 8);
  if (length > kMaxFramePayload) {
    set_error(error, "frame payload exceeds 64 MiB cap");
    return DecodeStatus::kMalformed;
  }
  if (buf.size() < kFrameHeaderSize + length) return DecodeStatus::kNeedMore;
  out.type = static_cast<std::uint8_t>(buf[5]);
  out.payload.assign(buf.data() + kFrameHeaderSize, length);
  consumed = kFrameHeaderSize + length;
  return DecodeStatus::kFrame;
}

// ---------------------------------------------------------------------------
// Explore request grammar.

std::string encode_explore_request(const ExploreRequest& req) {
  std::string out = "format " + req.format + "\n";
  if (req.suite_scales > 0) {
    out += "suite " + std::to_string(req.suite_scales) + " " +
           std::to_string(req.suite_base.width) + "x" +
           std::to_string(req.suite_base.height) + "\n";
  }
  for (const auto& [key, value] : req.options) {
    out += "option " + key;
    if (!value.empty()) out += " " + value;
    out += "\n";
  }
  for (const TraceSource& t : req.traces) {
    if (t.kind == TraceSource::Kind::kPath) {
      out += "trace path " + t.name + "\n";
    } else {
      out += "trace inline " + std::to_string(t.data.size()) + " " + t.name +
             "\n";
      out += t.data;
      out += "\n";
    }
  }
  return out;
}

bool build_explore_options(const ExploreRequest& req, core::ExploreOptions& opt,
                           std::string& error) {
  opt = core::ExploreOptions{};
  for (const auto& [key, value] : req.options)
    if (!core::apply_explore_option(opt, key, value, error)) return false;
  return true;
}

bool parse_explore_request(std::string_view payload, ExploreRequest& out,
                           std::string& error) {
  out = ExploreRequest{};
  bool saw_format = false;
  bool saw_suite = false;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;

    const std::size_t sp = std::min(line.find(' '), line.size());
    const std::string_view word = line.substr(0, sp);
    const std::string_view rest =
        sp < line.size() ? line.substr(sp + 1) : std::string_view{};

    if (word == "format") {
      if (saw_format) {
        error = "duplicate format directive";
        return false;
      }
      if (rest != "csv" && rest != "json") {
        error = "format must be csv or json";
        return false;
      }
      out.format = std::string(rest);
      saw_format = true;
    } else if (word == "suite") {
      if (saw_suite) {
        error = "duplicate suite directive";
        return false;
      }
      const std::size_t sp2 = rest.find(' ');
      if (sp2 == std::string_view::npos) {
        error = "suite expects SCALES WxH";
        return false;
      }
      std::uint64_t scales = 0;
      if (!parse_u64(rest.substr(0, sp2), scales) || scales == 0) {
        error = "suite expects a positive scale count";
        return false;
      }
      if (!parse_geometry_sv(rest.substr(sp2 + 1), out.suite_base)) {
        error = "suite expects a WxH base geometry (e.g. 8x8)";
        return false;
      }
      out.suite_scales = static_cast<std::size_t>(scales);
      saw_suite = true;
    } else if (word == "option") {
      if (rest.empty()) {
        error = "option expects KEY [VALUE]";
        return false;
      }
      const std::size_t sp2 = std::min(rest.find(' '), rest.size());
      const std::string key(rest.substr(0, sp2));
      const std::string value(
          sp2 < rest.size() ? rest.substr(sp2 + 1) : std::string_view{});
      // Validate eagerly against a scratch options object so a bad request
      // fails at parse time, before any trace I/O.
      core::ExploreOptions scratch;
      if (!core::apply_explore_option(scratch, key, value, error)) return false;
      out.options.emplace_back(key, value);
    } else if (word == "trace") {
      const std::size_t sp2 = std::min(rest.find(' '), rest.size());
      const std::string_view kind = rest.substr(0, sp2);
      const std::string_view args =
          sp2 < rest.size() ? rest.substr(sp2 + 1) : std::string_view{};
      if (kind == "path") {
        if (args.empty()) {
          error = "trace path expects a file path";
          return false;
        }
        TraceSource t;
        t.kind = TraceSource::Kind::kPath;
        t.name = std::string(args);
        out.traces.push_back(std::move(t));
      } else if (kind == "inline") {
        const std::size_t sp3 = std::min(args.find(' '), args.size());
        std::uint64_t nbytes = 0;
        if (!parse_u64(args.substr(0, sp3), nbytes) ||
            nbytes > kMaxFramePayload) {
          error = "trace inline expects NBYTES NAME";
          return false;
        }
        TraceSource t;
        t.kind = TraceSource::Kind::kInline;
        if (sp3 < args.size()) t.name = std::string(args.substr(sp3 + 1));
        // pos can be payload.size() + 1 when this directive line had no
        // trailing newline, so guard the subtraction against underflow.
        if (pos > payload.size() || payload.size() - pos < nbytes) {
          error = "truncated inline trace data";
          return false;
        }
        t.data.assign(payload.data() + pos, nbytes);
        pos += nbytes;
        // The raw bytes are terminated by one mandatory newline so the
        // line scanner resynchronizes even when the data lacks one.
        if (pos >= payload.size() || payload[pos] != '\n') {
          error = "inline trace data missing terminator";
          return false;
        }
        ++pos;
        out.traces.push_back(std::move(t));
      } else {
        error = "trace expects 'path' or 'inline'";
        return false;
      }
    } else {
      error = "unknown directive '" + std::string(word) + "'";
      return false;
    }
  }
  if (out.suite_scales == 0 && out.traces.empty()) {
    error = "no input traces (use suite or trace directives)";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Done / error payloads.

namespace {

// The summary counters in kDone payload order; the JSON explore reply
// carries them under the same names.
constexpr std::pair<const char*, std::uint64_t ExploreSummary::*> kSummaryFields[] = {
    {"traces", &ExploreSummary::traces},
    {"evaluations", &ExploreSummary::evaluations},
    {"cache_hits", &ExploreSummary::cache_hits},
    {"disk_hits", &ExploreSummary::disk_hits},
    {"errors", &ExploreSummary::errors}};

}  // namespace

std::string encode_done(const ExploreSummary& s) {
  std::string out;
  for (const auto& [name, field] : kSummaryFields) {
    out += name;
    out += ' ';
    out += std::to_string(s.*field);
    out += '\n';
  }
  return out;
}

bool parse_done(std::string_view payload, ExploreSummary& out) {
  out = ExploreSummary{};
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string_view::npos) return false;
    std::uint64_t v = 0;
    if (!parse_u64(line.substr(sp + 1), v)) return false;
    // Unknown keys are ignored: summaries may grow fields.
    for (const auto& [name, field] : kSummaryFields)
      if (line.substr(0, sp) == name) out.*field = v;
  }
  return true;
}

std::string encode_error(const ErrorInfo& e) {
  return e.code + "\n" + e.message;
}

bool parse_error(std::string_view payload, ErrorInfo& out) {
  const std::size_t eol = payload.find('\n');
  if (eol == std::string_view::npos) {
    out.code = std::string(payload);
    out.message.clear();
  } else {
    out.code = std::string(payload.substr(0, eol));
    out.message = std::string(payload.substr(eol + 1));
  }
  return !out.code.empty();
}

// ---------------------------------------------------------------------------
// Binary framing codec.

namespace {

// The frame that ends a successful reply, per request kind.
std::uint8_t final_frame(RequestKind kind) {
  switch (kind) {
    case RequestKind::kExplore: return kDone;
    case RequestKind::kAdmin: return kAdminDone;
    case RequestKind::kPing: break;
  }
  return kPong;
}

bool send_reply_frames(RequestKind kind, const Reply& reply, const ByteSink& send) {
  if (!reply.ok) return send(encode_frame(kError, encode_error(reply.error)));
  if (kind != RequestKind::kExplore)
    return send(encode_frame(final_frame(kind), reply.body));
  for (std::string_view body = reply.body; !body.empty();) {
    const std::size_t n = std::min(body.size(), kMaxChunkPayload);
    if (!send(encode_frame(kChunk, body.substr(0, n)))) return false;
    body.remove_prefix(n);
  }
  return send(encode_frame(kDone, encode_done(reply.summary)));
}

}  // namespace

std::string encode_request(const Request& req) {
  switch (req.kind) {
    case RequestKind::kExplore:
      return encode_frame(kExplore, encode_explore_request(req.explore));
    case RequestKind::kAdmin:
      return encode_frame(kAdmin, req.admin_command);
    case RequestKind::kPing:
      break;
  }
  return encode_frame(kPing, "");
}

bool decode_request(const Frame& frame, Request& out, ErrorInfo& error) {
  out = Request{};
  switch (frame.type) {
    case kPing:
      return true;
    case kAdmin: {
      out.kind = RequestKind::kAdmin;
      std::string_view command = frame.payload;
      while (!command.empty() && (command.back() == '\n' || command.back() == '\r'))
        command.remove_suffix(1);
      out.admin_command = command;
      return true;
    }
    case kExplore:
      out.kind = RequestKind::kExplore;
      if (parse_explore_request(frame.payload, out.explore, error.message)) return true;
      error.code = "bad-request";
      return false;
    default:
      error.code = "unsupported";
      error.message = "unexpected frame type ";
      error.message += std::to_string(frame.type);
      return false;
  }
}

// ---------------------------------------------------------------------------
// JSON-lines codec: a minimal JSON parser, then the request and reply lines.

namespace {

struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;
  std::string* error;

  bool fail(const char* msg) {
    if (error->empty())
      *error = std::string(msg) + " at byte " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > 32) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parse_string(out.string);
    }
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return fail("unexpected character");
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return fail("bad literal");
    pos += word.size();
    return true;
  }

  bool parse_bool(JsonValue& out) {
    out.type = JsonValue::Type::kBool;
    if (text[pos] == 't') {
      out.boolean = true;
      return literal("true");
    }
    out.boolean = false;
    return literal("false");
  }

  bool parse_null(JsonValue& out) {
    out.type = JsonValue::Type::kNull;
    return literal("null");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-'))
      ++pos;
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty())
      return fail("bad number");
    out.type = JsonValue::Type::kNumber;
    out.number = v;
    return true;
  }

  bool hex4(std::uint32_t& out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("bad \\u escape");
    }
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos;  // opening quote
    out.clear();
    while (pos < text.size()) {
      // Copy each run of plain bytes in one append: a long string (an
      // inline trace) costs one pass, not one push_back per byte.
      const std::size_t run = pos;
      while (pos < text.size() && text[pos] != '"' && text[pos] != '\\' &&
             static_cast<unsigned char>(text[pos]) >= 0x20)
        ++pos;
      out.append(text, run, pos - run);
      if (pos == text.size()) break;
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') return fail("raw control byte in string");
      if (pos >= text.size()) return fail("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!hex4(cp)) return false;
          if (cp > 0x7f) return fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(cp));
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kArray;
    ++pos;  // '['
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    for (;;) {
      JsonValue elem;
      if (!parse_value(elem, depth + 1)) return false;
      out.array.push_back(std::move(elem));
      skip_ws();
      if (pos >= text.size()) return fail("unterminated array");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == ']') {
        ++pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kObject;
    ++pos;  // '{'
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos >= text.size() || text[pos] != '"')
        return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') return fail("expected ':'");
      ++pos;
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      // First occurrence wins on duplicate keys (find() scans in order).
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos >= text.size()) return fail("unterminated object");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == '}') {
        ++pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

bool JsonValue::as_u64(std::uint64_t& out) const {
  if (type != Type::kNumber) return false;
  if (number < 0 || number > 9007199254740992.0) return false;  // 2^53
  const std::uint64_t v = static_cast<std::uint64_t>(number);
  if (static_cast<double>(v) != number) return false;
  out = v;
  return true;
}

bool parse_json(std::string_view text, JsonValue& out, std::string& error) {
  error.clear();
  JsonParser p{text, 0, &error};
  if (!p.parse_value(out, 0)) return false;
  p.skip_ws();
  if (p.pos != text.size()) {
    error = "trailing bytes after JSON value";
    return false;
  }
  return true;
}

namespace {

// Appends `s` escaped for a JSON string literal, without the quotes.
void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char hex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(hex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
          out.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
}

// Appends `s` as a JSON string literal, quotes included.
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  append_json_escaped(out, s);
  out += '"';
}

// The JSON reply member carrying the body, per request kind.
const char* body_member(RequestKind kind) {
  switch (kind) {
    case RequestKind::kExplore: return "report";
    case RequestKind::kAdmin: return "output";
    case RequestKind::kPing: break;
  }
  return "pong";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

namespace {

// Converts one "options" object member to the shared key/value form and
// validates it exactly like the binary grammar does.
bool json_option(const std::string& key, const JsonValue& v,
                 ExploreRequest& req, std::string& error) {
  std::string value;
  switch (v.type) {
    case JsonValue::Type::kBool:
      if (!v.boolean) {
        error = "option '" + key + "': flag options must be true or omitted";
        return false;
      }
      break;  // flag: empty value
    case JsonValue::Type::kNumber: {
      std::uint64_t n = 0;
      if (!v.as_u64(n)) {
        error = "option '" + key + "': expected a non-negative integer";
        return false;
      }
      value = std::to_string(n);
      break;
    }
    case JsonValue::Type::kString:
      value = v.string;
      break;
    case JsonValue::Type::kArray: {
      // archs-style lists may be given as an array of strings.
      for (const JsonValue& e : v.array) {
        if (e.type != JsonValue::Type::kString) {
          error = "option '" + key + "': array elements must be strings";
          return false;
        }
        if (!value.empty()) value += ",";
        value += e.string;
      }
      break;
    }
    default:
      error = "option '" + key + "': unsupported value type";
      return false;
  }
  core::ExploreOptions scratch;
  if (!core::apply_explore_option(scratch, key, value, error)) return false;
  req.options.emplace_back(key, value);
  return true;
}

}  // namespace

bool parse_json_request(std::string_view line, Request& out, std::string& error) {
  out = Request{};
  JsonValue root;
  if (!parse_json(line, root, error)) return false;
  if (root.type != JsonValue::Type::kObject) {
    error = "request must be a JSON object";
    return false;
  }
  const JsonValue* op = root.find("op");
  if (!op || op->type != JsonValue::Type::kString) {
    error = "request needs a string \"op\" field";
    return false;
  }
  if (op->string == "ping") {
    out.kind = RequestKind::kPing;
    return true;
  }
  if (op->string == "admin") {
    out.kind = RequestKind::kAdmin;
    const JsonValue* cmd = root.find("command");
    if (!cmd || cmd->type != JsonValue::Type::kString || cmd->string.empty()) {
      error = "admin request needs a non-empty string \"command\"";
      return false;
    }
    out.admin_command = cmd->string;
    return true;
  }
  if (op->string != "explore") {
    error = "unknown op '" + op->string + "'";
    return false;
  }
  out.kind = RequestKind::kExplore;
  ExploreRequest& req = out.explore;

  if (const JsonValue* fmt = root.find("format")) {
    if (fmt->type != JsonValue::Type::kString ||
        (fmt->string != "csv" && fmt->string != "json")) {
      error = "format must be \"csv\" or \"json\"";
      return false;
    }
    req.format = fmt->string;
  }
  if (const JsonValue* suite = root.find("suite")) {
    if (suite->type != JsonValue::Type::kObject) {
      error = "suite must be an object {\"scales\":N,\"base\":\"WxH\"}";
      return false;
    }
    const JsonValue* scales = suite->find("scales");
    std::uint64_t n = 0;
    if (!scales || !scales->as_u64(n) || n == 0) {
      error = "suite.scales must be a positive integer";
      return false;
    }
    req.suite_scales = static_cast<std::size_t>(n);
    if (const JsonValue* base = suite->find("base")) {
      if (base->type != JsonValue::Type::kString ||
          !parse_geometry_sv(base->string, req.suite_base)) {
        error = "suite.base must be \"WxH\" (e.g. \"8x8\")";
        return false;
      }
    }
  }
  if (const JsonValue* options = root.find("options")) {
    if (options->type != JsonValue::Type::kObject) {
      error = "options must be an object";
      return false;
    }
    for (const auto& [key, value] : options->object)
      if (!json_option(key, value, req, error)) return false;
  }
  if (const JsonValue* traces = root.find("traces")) {
    if (traces->type != JsonValue::Type::kArray) {
      error = "traces must be an array";
      return false;
    }
    for (const JsonValue& t : traces->array) {
      if (t.type != JsonValue::Type::kObject) {
        error = "each trace must be an object";
        return false;
      }
      const JsonValue* path = t.find("path");
      const JsonValue* inline_data = t.find("inline");
      if ((path != nullptr) == (inline_data != nullptr)) {
        error = "each trace needs exactly one of \"path\" or \"inline\"";
        return false;
      }
      TraceSource src;
      if (path) {
        if (path->type != JsonValue::Type::kString || path->string.empty()) {
          error = "trace path must be a non-empty string";
          return false;
        }
        src.kind = TraceSource::Kind::kPath;
        src.name = path->string;
      } else {
        if (inline_data->type != JsonValue::Type::kString) {
          error = "inline trace data must be a string";
          return false;
        }
        src.kind = TraceSource::Kind::kInline;
        src.data = inline_data->string;
        if (const JsonValue* name = t.find("name")) {
          if (name->type != JsonValue::Type::kString) {
            error = "trace name must be a string";
            return false;
          }
          src.name = name->string;
        }
      }
      req.traces.push_back(std::move(src));
    }
  }
  if (req.suite_scales == 0 && req.traces.empty()) {
    error = "no input traces (use suite or traces)";
    return false;
  }
  return true;
}

std::string encode_json_request(const Request& req) {
  if (req.kind == RequestKind::kPing) return "{\"op\":\"ping\"}\n";
  std::string out;
  if (req.kind == RequestKind::kAdmin) {
    out = "{\"op\":\"admin\",\"command\":";
    append_json_string(out, req.admin_command);
    out += "}\n";
    return out;
  }
  const ExploreRequest& e = req.explore;
  out = "{\"op\":\"explore\",\"format\":";
  append_json_string(out, e.format);
  if (e.suite_scales > 0) {
    out += ",\"suite\":{\"scales\":";
    out += std::to_string(e.suite_scales);
    out += ",\"base\":";
    append_json_string(out, std::to_string(e.suite_base.width) + 'x' +
                                std::to_string(e.suite_base.height));
    out += '}';
  }
  if (!e.options.empty()) {
    // Flags serialize as true; valued options as strings (the option
    // applier parses numeric values from strings either way).
    out += ",\"options\":{";
    for (const auto& [key, value] : e.options) {
      append_json_string(out, key);
      out += ':';
      if (value.empty()) out += "true";
      else append_json_string(out, value);
      out += ',';
    }
    out.back() = '}';
  }
  if (!e.traces.empty()) {
    out += ",\"traces\":[";
    for (const TraceSource& t : e.traces) {
      const bool path = t.kind == TraceSource::Kind::kPath;
      out += path ? "{\"path\":" : "{\"inline\":";
      append_json_string(out, path ? t.name : t.data);
      if (!path && !t.name.empty()) {
        out += ",\"name\":";
        append_json_string(out, t.name);
      }
      out += "},";
    }
    out.back() = ']';
  }
  out += "}\n";
  return out;
}

std::string encode_json_reply(RequestKind kind, const Reply& reply) {
  std::string out;
  if (!reply.ok) {
    out = "{\"ok\":false,\"code\":";
    append_json_string(out, reply.error.code);
    out += ",\"message\":";
    append_json_string(out, reply.error.message);
  } else {
    out = "{\"ok\":true,\"";
    out += body_member(kind);
    out += "\":";
    append_json_string(out, reply.body);
    if (kind == RequestKind::kExplore) {
      for (const auto& [name, field] : kSummaryFields) {
        out += ",\"";
        out += name;
        out += "\":";
        out += std::to_string(reply.summary.*field);
      }
    }
  }
  out += "}\n";
  return out;
}

bool parse_json_reply(std::string_view line, Reply& out, std::string& error) {
  out = Reply{};
  JsonValue root;
  std::string why;
  if (!parse_json(line, root, why) || root.type != JsonValue::Type::kObject) {
    error = "malformed reply line: ";
    error += why;
    return false;
  }
  const JsonValue* ok = root.find("ok");
  if (!ok || ok->type != JsonValue::Type::kBool) {
    error = "reply missing \"ok\" field";
    return false;
  }
  if (!ok->boolean) {
    if (const JsonValue* code = root.find("code")) out.error.code = code->string;
    if (const JsonValue* msg = root.find("message")) out.error.message = msg->string;
    if (out.error.code.empty()) out.error.code = "error";
    return true;
  }
  out.ok = true;
  for (const char* key : {"report", "output", "pong"})
    if (const JsonValue* v = root.find(key))
      if (v->type == JsonValue::Type::kString) out.body = v->string;
  for (const auto& [name, field] : kSummaryFields)
    if (const JsonValue* v = root.find(name)) v->as_u64(out.summary.*field);
  return true;
}

// ---------------------------------------------------------------------------
// Codecs.

namespace {

// Cuts the next '\n'-terminated line off the front of `in` into `line`,
// terminator dropped; false when no line is complete yet.
bool cut_line(RecvBuffer& in, std::string& line) {
  const std::size_t eol = in.bytes.find('\n', in.scanned);
  if (eol == std::string::npos) {
    in.scanned = in.bytes.size();
    return false;
  }
  line.assign(in.bytes, 0, eol);
  in.bytes.erase(0, eol + 1);
  in.scanned = 0;
  return true;
}

// Cuts the next frame off the front of `in`.
DecodeStatus cut_frame(RecvBuffer& in, Frame& frame, std::string& why) {
  std::size_t used = 0;
  const DecodeStatus st = decode_frame(in.bytes, frame, used, &why);
  in.bytes.erase(0, used);
  return st;
}

Cut cut_request_frame(RecvBuffer& in, Request& out, ErrorInfo& error) {
  Frame frame;
  std::string why;
  const DecodeStatus st = cut_frame(in, frame, why);
  if (st == DecodeStatus::kNeedMore) return Cut::kNeedMore;
  if (st == DecodeStatus::kMalformed) {
    // No trustworthy frame boundary is left to resynchronize on.
    error = {"malformed-frame", why};
    return Cut::kFatal;
  }
  return decode_request(frame, out, error) ? Cut::kMessage : Cut::kRejected;
}

Cut cut_reply_frames(RecvBuffer& in, RequestKind kind, Reply& out,
                     std::string& error) {
  Frame frame;
  std::string why;
  for (;;) {
    const DecodeStatus st = cut_frame(in, frame, why);
    if (st == DecodeStatus::kNeedMore) return Cut::kNeedMore;
    if (st == DecodeStatus::kMalformed) {
      error = "malformed reply frame: ";
      error += why;
      return Cut::kFatal;
    }
    if (frame.type == kChunk && kind == RequestKind::kExplore) {
      out.body += frame.payload;
      continue;
    }
    if (frame.type == kError) {
      if (!parse_error(frame.payload, out.error)) out.error.code = "error";
      return Cut::kMessage;
    }
    if (frame.type != final_frame(kind)) {
      error = "unexpected reply frame type ";
      error += std::to_string(frame.type);
      return Cut::kFatal;
    }
    if (kind != RequestKind::kExplore) {
      out.body = std::move(frame.payload);
    } else if (!parse_done(frame.payload, out.summary)) {
      error = "malformed done summary";
      return Cut::kFatal;
    }
    out.ok = true;
    return Cut::kMessage;
  }
}

Cut cut_request_line(RecvBuffer& in, Request& out, ErrorInfo& error) {
  std::string line;
  while (cut_line(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    // '\n' stays a trustworthy boundary after a bad line: keep reading.
    if (parse_json_request(line, out, error.message)) return Cut::kMessage;
    error.code = "bad-request";
    return Cut::kRejected;
  }
  if (in.bytes.size() > kMaxFramePayload) {
    error = {"bad-request", "request line exceeds the 64 MiB cap"};
    return Cut::kFatal;
  }
  return Cut::kNeedMore;
}

Cut cut_reply_line(RecvBuffer& in, RequestKind, Reply& out, std::string& error) {
  std::string line;
  if (!cut_line(in, line)) return Cut::kNeedMore;
  return parse_json_reply(line, out, error) ? Cut::kMessage : Cut::kFatal;
}

}  // namespace

const Codec kFrameCodec{encode_request, cut_request_frame, send_reply_frames,
                        cut_reply_frames};
const Codec kJsonLineCodec{
    encode_json_request, cut_request_line,
    [](RequestKind kind, const Reply& reply, const ByteSink& send) {
      return send(encode_json_reply(kind, reply));
    },
    cut_reply_line};

const Codec& codec_for_first_byte(char first) {
  return first == kFrameMagic[0] ? kFrameCodec : kJsonLineCodec;
}

}  // namespace addm::serve
