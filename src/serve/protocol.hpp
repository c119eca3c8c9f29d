// Wire protocol for the addm_serve exploration daemon.
//
// One request model (Request, Reply) travels in two client-selectable
// encodings on one socket:
//
//  * Binary framing (default, used by addm_client): every message is a
//    12-byte header — magic "ADSV", version byte, type byte, two reserved
//    zero bytes, and a little-endian u32 payload length — followed by the
//    payload.  The first byte a client sends ('A') selects this mode.
//  * JSON lines (fallback for scripting without the client binary): one
//    request object per '\n'-terminated line, one reply object per line.
//    Any first byte other than 'A' selects this mode.
//
// Each encoding is a Codec: a request encoder and decoder, a reply encoder
// and decoder.  The daemon and the client move bytes and hold one Codec per
// connection; nothing above the codecs knows which wire it speaks.
//
// The full grammar (frame types, payload formats, error codes, versioning
// rules) is specified in docs/serve-protocol.md; this header is the single
// in-tree implementation of it, shared by the server, the client, and the
// protocol fuzz tests.
//
// Robustness contract: decode_frame and the request parsers never throw and
// never over-read — arbitrary bytes produce kNeedMore (prefix of a valid
// frame), kMalformed (never a valid frame), or a decoded frame whose payload
// parser reports a structured error.  The daemon maps malformation to a
// framed kError reply (or a JSON error line) and carries on; it must never
// crash or hang on hostile input (tests/serve_protocol_test.cpp fuzzes
// exactly this boundary).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/explorer.hpp"
#include "seq/trace.hpp"

namespace addm::serve {

/// Protocol version carried in every binary frame header.  A frame
/// carrying any other version is malformed — the server replies kError
/// ("malformed-frame", "unsupported protocol version") and closes; bump
/// only on incompatible grammar changes (see docs/serve-protocol.md).
inline constexpr std::uint8_t kProtocolVersion = 1;

/// Frame header magic — also the mode-selection byte ('A').
inline constexpr char kFrameMagic[4] = {'A', 'D', 'S', 'V'};

/// Fixed header size preceding every binary payload.
inline constexpr std::size_t kFrameHeaderSize = 12;

/// Hard payload cap.  Anything longer is malformed by definition: the
/// decoder rejects the header before buffering the payload, so a hostile
/// length field cannot make the daemon allocate unbounded memory.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Frame types.  Requests are < 16, replies >= 16; unknown types decode
/// fine (length framing is type-independent) and are answered with kError
/// "unsupported".
enum FrameType : std::uint8_t {
  kExplore = 1,    ///< explore request (payload: request grammar below)
  kAdmin = 2,      ///< admin request (payload: one command line)
  kPing = 3,       ///< liveness probe (payload ignored)
  kChunk = 16,     ///< one slice of a report body, in order
  kDone = 17,      ///< end of a successful explore (payload: summary)
  kError = 18,     ///< failure (payload: code line + message)
  kPong = 19,      ///< ping reply (payload: server banner)
  kAdminDone = 20, ///< successful admin reply (payload: command output)
};

/// One decoded frame.
struct Frame {
  std::uint8_t type = 0;
  std::string payload;
};

enum class DecodeStatus {
  kFrame,     ///< one complete frame decoded; `consumed` bytes used
  kNeedMore,  ///< buffer holds a valid prefix; read more and retry
  kMalformed, ///< buffer can never become a valid frame
};

/// Encodes one frame (header + payload).  Payloads above kMaxFramePayload
/// are truncated-by-contract: callers must split report bodies into kChunk
/// frames instead (the server does); encode asserts nothing and clamps
/// never — oversized input is a programming error upstream.
std::string encode_frame(std::uint8_t type, std::string_view payload);

/// Attempts to decode one frame from the front of `buf`.  On kFrame,
/// `consumed` is the total bytes to drop from the buffer.  On kMalformed,
/// `error` (when non-null) receives a one-line diagnosis.  Never throws.
DecodeStatus decode_frame(std::string_view buf, Frame& out,
                          std::size_t& consumed, std::string* error = nullptr);

/// One trace input of an explore request.
struct TraceSource {
  enum class Kind { kPath, kInline };
  Kind kind = Kind::kPath;
  /// kPath: filesystem path the *server* reads (trust model: the daemon
  /// serves local clients only).  kInline: fallback name applied when the
  /// inline text carries no name (mirrors addm_explore's file-stem rule).
  std::string name;
  /// kInline only: the trace file bytes (seq/trace_io text format).
  std::string data;
};

/// One explore request — the daemon-side mirror of an addm_explore
/// invocation.  Defaults match the CLI defaults exactly, which is what
/// makes served reports byte-comparable to offline runs.
struct ExploreRequest {
  std::string format = "csv";  ///< "csv" or "json"
  std::size_t suite_scales = 0;  ///< 0 = no suite traces
  seq::ArrayGeometry suite_base{8, 8};
  /// Raw option key/values in request order, validated but not yet applied
  /// (apply with build_explore_options).  Keys and values are those of the
  /// exploration-option table (core/explore_option_table.hpp), the same
  /// table addm_explore's flags go through; a switch has an empty value.
  std::vector<std::pair<std::string, std::string>> options;
  /// Suite traces come first, then these, in order — same list-construction
  /// rule as the CLI.
  std::vector<TraceSource> traces;
};

/// Serializes a request into the kExplore payload grammar
/// (docs/serve-protocol.md):
///   format csv|json
///   suite SCALES WxH
///   option KEY[ VALUE]
///   trace path PATH
///   trace inline NBYTES NAME   (NBYTES raw bytes follow, then '\n')
std::string encode_explore_request(const ExploreRequest& req);

/// Parses the kExplore payload grammar.  Returns false with a one-line
/// `error` on any malformation (unknown directive, bad counts, truncated
/// inline data, invalid option key/value, no traces selected).  Never
/// throws.
bool parse_explore_request(std::string_view payload, ExploreRequest& out,
                           std::string& error);

/// Applies every option of `req` onto a default-constructed ExploreOptions
/// through the exploration-option table.
/// The result of a request with no options is bit-for-bit the CLI default —
/// the pinned-fingerprint property the serve_smoke test enforces.
bool build_explore_options(const ExploreRequest& req, core::ExploreOptions& opt,
                           std::string& error);

/// Summary carried by the kDone frame: the out-of-band counters the CLI
/// prints to stderr.  Never part of the report body.
struct ExploreSummary {
  std::uint64_t traces = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t errors = 0;  ///< per-trace exploration errors in the report
};

std::string encode_done(const ExploreSummary& s);
bool parse_done(std::string_view payload, ExploreSummary& out);

/// Structured failure carried by kError frames: a stable machine-readable
/// code (docs/serve-protocol.md lists them) plus a human message.
struct ErrorInfo {
  std::string code;     ///< e.g. "bad-request", "io", "explore-failed"
  std::string message;
};

std::string encode_error(const ErrorInfo& e);
bool parse_error(std::string_view payload, ErrorInfo& out);

// ---------------------------------------------------------------------------
// The request model, whichever wire carries it.

enum class RequestKind { kExplore, kAdmin, kPing };

/// One request: a kExplore, kAdmin or kPing frame, or one {"op":...} line.
/// `admin_command` is one admin command line ("stats", "prune 10 0", ...).
struct Request {
  RequestKind kind = RequestKind::kPing;
  ExploreRequest explore;
  std::string admin_command;
};

/// One reply.  On ok, `body` is the report (explore), the command output
/// (admin) or the server banner (ping); on !ok, `error` says why.
struct Reply {
  bool ok = false;
  ErrorInfo error;
  std::string body;
  ExploreSummary summary;  ///< explore only
};

/// Takes a reply's wire bytes piece by piece; false stops the encoder.
using ByteSink = std::function<bool(std::string_view bytes)>;

// ---------------------------------------------------------------------------
// Binary framing codec.

/// A reply's frames are kChunk slices of the report of at most this many
/// bytes each, then kDone (explore); kAdminDone (admin); kPong (ping); or
/// one kError.
inline constexpr std::size_t kMaxChunkPayload = 1u << 20;

/// The one kExplore, kAdmin or kPing frame carrying `req`.
std::string encode_request(const Request& req);

/// Decodes one request frame.  Returns false with the error to answer:
/// "bad-request" for an invalid explore payload, "unsupported" for a frame
/// type that is not a request.  An admin command loses trailing '\r'/'\n'.
bool decode_request(const Frame& frame, Request& out, ErrorInfo& error);

// ---------------------------------------------------------------------------
// JSON-lines codec.
//
// The repo deliberately has no external JSON dependency, so the fallback
// mode ships its own minimal parser: UTF-8-agnostic (strings are byte
// strings; \uXXXX escapes outside ASCII are rejected), numbers as doubles,
// depth-capped, never throwing.  It exists for protocol lines only — report
// *output* JSON is produced by the existing deterministic renderers.

/// Parsed JSON value.  Tag + the one active member; inactive members stay
/// empty.  Object member order is preserved (first occurrence wins on
/// duplicate keys).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Number extraction as an exact non-negative integer; false when the
  /// value is not a number, negative, fractional, or above 2^53.
  bool as_u64(std::uint64_t& out) const;
};

/// Parses one complete JSON document from `text` (leading/trailing ASCII
/// whitespace tolerated, nothing else after the value).  Returns false with
/// `error` on malformation or nesting deeper than 32 levels.  Never throws.
bool parse_json(std::string_view text, JsonValue& out, std::string& error);

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included).  Control bytes become \u00XX.
std::string json_escape(std::string_view s);

/// Parses one request line {"op":"explore"|"admin"|"ping", ...}; explore
/// fields mirror the binary grammar, with the same option validation.
/// Returns false with `error` on malformed JSON, an unknown "op", or
/// invalid request fields.
bool parse_json_request(std::string_view line, Request& out, std::string& error);

/// One request line, '\n' included; parse_json_request reproduces `req`.
std::string encode_json_request(const Request& req);

/// The line answering a `kind` request, '\n' included.
std::string encode_json_reply(RequestKind kind, const Reply& reply);

/// Parses one reply line; false with `error` unless it is a JSON object
/// with a boolean "ok".
bool parse_json_reply(std::string_view line, Reply& out, std::string& error);

// ---------------------------------------------------------------------------
// Codecs: each encoding as the four operations the two ends need.

/// Bytes received on one connection and not yet cut into messages.
struct RecvBuffer {
  std::string bytes;
  /// Leading bytes already searched for '\n', so a long JSON line is
  /// searched once however many receives it takes.
  std::size_t scanned = 0;
};

/// What a codec cut off the front of a RecvBuffer.
enum class Cut {
  kNeedMore,  ///< no complete message yet: receive more bytes and retry
  kMessage,   ///< one complete request or reply
  kRejected,  ///< one invalid request: answer its error, keep the connection
  kFatal,     ///< nothing can follow: answer the error (daemon), then close
};

struct Codec {
  /// Client: the wire bytes of one request.
  std::string (*encode_request)(const Request& req);
  /// Daemon: cuts the next request off `in`; on kRejected and kFatal,
  /// `error` is the error to answer.
  Cut (*cut_request)(RecvBuffer& in, Request& out, ErrorInfo& error);
  /// Daemon: sends the reply to a `kind` request.
  bool (*send_reply)(RequestKind kind, const Reply& reply, const ByteSink& send);
  /// Client: cuts the reply to a `kind` request off `in`: kMessage once it
  /// is whole, kFatal with `error` on bytes that cannot be one.
  Cut (*cut_reply)(RecvBuffer& in, RequestKind kind, Reply& out, std::string& error);
};

extern const Codec kFrameCodec;     ///< binary framing
extern const Codec kJsonLineCodec;  ///< JSON lines

/// A connection's codec, fixed by the first byte its client sends: the
/// frame magic's 'A' selects binary framing, anything else JSON lines.
const Codec& codec_for_first_byte(char first);

}  // namespace addm::serve
