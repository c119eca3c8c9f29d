// Wire-protocol tests for the addm_serve daemon (serve/protocol.hpp):
// frame encode/decode round trips, the explore-request grammar, the JSON
// fallback, both codecs' request and reply round trips, and — the
// robustness core — a deterministic fuzz pass feeding truncations, bit
// flips, hostile lengths, and garbage at every parser.
// The decoder/parsers must classify every input as a frame, a need-more
// prefix, or malformed, without crashing, hanging, or over-reading.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/explore_option_table.hpp"
#include "core/fingerprint.hpp"
#include "serve/protocol.hpp"

namespace addm::serve {
namespace {

// Deterministic xorshift so fuzz failures reproduce exactly.
struct Rng {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

TEST(ServeFrame, RoundTripsAllTypes) {
  for (std::uint8_t type : {kExplore, kAdmin, kPing, kChunk, kDone, kError,
                            kPong, kAdminDone}) {
    const std::string payload = "payload for " + std::to_string(type);
    const std::string wire = encode_frame(type, payload);
    ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());
    Frame f;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(wire, f, consumed), DecodeStatus::kFrame);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(f.type, type);
    EXPECT_EQ(f.payload, payload);
  }
}

TEST(ServeFrame, EmptyPayloadAndBackToBackFrames) {
  const std::string wire = encode_frame(kPing, "") + encode_frame(kPong, "x");
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(wire, f, consumed), DecodeStatus::kFrame);
  EXPECT_EQ(f.type, kPing);
  EXPECT_EQ(f.payload, "");
  const std::string rest = wire.substr(consumed);
  ASSERT_EQ(decode_frame(rest, f, consumed), DecodeStatus::kFrame);
  EXPECT_EQ(f.type, kPong);
  EXPECT_EQ(f.payload, "x");
}

TEST(ServeFrame, EveryTruncationIsNeedMore) {
  const std::string wire = encode_frame(kExplore, "format csv\nsuite 1 8x8\n");
  Frame f;
  std::size_t consumed = 0;
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_EQ(decode_frame(std::string_view(wire).substr(0, n), f, consumed),
              DecodeStatus::kNeedMore)
        << "prefix length " << n;
  }
}

TEST(ServeFrame, BadMagicIsMalformedImmediately) {
  Frame f;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(decode_frame("B", f, consumed, &error), DecodeStatus::kMalformed);
  EXPECT_EQ(error, "bad frame magic");
  EXPECT_EQ(decode_frame("ADSX____", f, consumed), DecodeStatus::kMalformed);
  EXPECT_EQ(decode_frame("{\"op\":\"ping\"}", f, consumed),
            DecodeStatus::kMalformed);
}

TEST(ServeFrame, WrongVersionAndReservedBytesAreMalformed) {
  std::string wire = encode_frame(kPing, "");
  wire[4] = 2;  // future version
  Frame f;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(decode_frame(wire, f, consumed, &error), DecodeStatus::kMalformed);
  EXPECT_EQ(error, "unsupported protocol version");

  wire = encode_frame(kPing, "");
  wire[6] = 1;  // reserved byte
  EXPECT_EQ(decode_frame(wire, f, consumed), DecodeStatus::kMalformed);
}

TEST(ServeFrame, OversizedLengthIsRejectedBeforeBuffering) {
  // Header claims 4 GiB-ish payload: must be malformed from the header
  // alone, never need-more (that would make a hostile client park 64 MiB+
  // in the daemon's buffer per connection).
  std::string wire = encode_frame(kExplore, "");
  wire[8] = static_cast<char>(0xff);
  wire[9] = static_cast<char>(0xff);
  wire[10] = static_cast<char>(0xff);
  wire[11] = static_cast<char>(0x7f);
  Frame f;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(decode_frame(wire, f, consumed, &error), DecodeStatus::kMalformed);
  EXPECT_EQ(error, "frame payload exceeds 64 MiB cap");
}

TEST(ServeFrame, FuzzedBytesNeverCrashAndClassifyConsistently) {
  Rng rng;
  for (int iter = 0; iter < 2000; ++iter) {
    // Mix of pure garbage and corrupted real frames.
    std::string input;
    if (iter % 2 == 0) {
      const std::size_t len = rng.next() % 64;
      for (std::size_t i = 0; i < len; ++i)
        input.push_back(static_cast<char>(rng.next() & 0xff));
    } else {
      input = encode_frame(static_cast<std::uint8_t>(rng.next() & 0xff),
                           "fuzz payload");
      const std::size_t flips = 1 + rng.next() % 4;
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t pos = rng.next() % input.size();
        input[pos] = static_cast<char>(input[pos] ^ (1u << (rng.next() % 8)));
      }
      input = input.substr(0, rng.next() % (input.size() + 1));
    }
    Frame f;
    std::size_t consumed = 0;
    const DecodeStatus st = decode_frame(input, f, consumed);
    if (st == DecodeStatus::kFrame) {
      EXPECT_LE(consumed, input.size());
      EXPECT_GE(consumed, kFrameHeaderSize);
    }
    // A classified prefix must stay stable as bytes are appended: a
    // malformed buffer can never become a frame by reading more.
    if (st == DecodeStatus::kMalformed) {
      std::string more = input + "extra bytes";
      EXPECT_EQ(decode_frame(more, f, consumed), DecodeStatus::kMalformed);
    }
  }
}

TEST(ServeExploreRequest, RoundTripsThroughGrammar) {
  ExploreRequest req;
  req.format = "json";
  req.suite_scales = 3;
  req.suite_base = {16, 4};
  req.options.emplace_back("no-fsm", "");
  req.options.emplace_back("max-fanout", "6");
  req.options.emplace_back("archs", "SRAG");
  TraceSource path;
  path.kind = TraceSource::Kind::kPath;
  path.name = "/tmp/some trace file.trace";
  req.traces.push_back(path);
  TraceSource inl;
  inl.kind = TraceSource::Kind::kInline;
  inl.name = "mytrace";
  inl.data = "geometry 4x4\n0 1 2 3\n";  // embedded newlines must survive
  req.traces.push_back(inl);

  ExploreRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_explore_request(encode_explore_request(req), parsed, error))
      << error;
  EXPECT_EQ(parsed.format, "json");
  EXPECT_EQ(parsed.suite_scales, 3u);
  EXPECT_EQ(parsed.suite_base.width, 16u);
  EXPECT_EQ(parsed.suite_base.height, 4u);
  ASSERT_EQ(parsed.options.size(), 3u);
  EXPECT_EQ(parsed.options[1].second, "6");
  ASSERT_EQ(parsed.traces.size(), 2u);
  EXPECT_EQ(parsed.traces[0].name, "/tmp/some trace file.trace");
  EXPECT_EQ(parsed.traces[1].name, "mytrace");
  EXPECT_EQ(parsed.traces[1].data, inl.data);
}

TEST(ServeExploreRequest, RejectsMalformedDirectives) {
  ExploreRequest out;
  std::string error;
  EXPECT_FALSE(parse_explore_request("bogus directive\n", out, error));
  EXPECT_FALSE(parse_explore_request("format xml\nsuite 1 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("suite 0 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("suite 1 8x0\n", out, error));
  EXPECT_FALSE(parse_explore_request("suite 1 8x8\nsuite 1 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("option bogus-knob 1\nsuite 1 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("option no-fsm yes\nsuite 1 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("option archs NotAnArch\nsuite 1 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("trace inline 10 t\nshort\n", out, error));
  EXPECT_EQ(error, "truncated inline trace data");
  // Directive as the final line with no trailing newline and no data: the
  // scanner's pos is payload.size() + 1 here, so the truncation check must
  // not underflow into an out-of-bounds read (TSan-caught regression).
  EXPECT_FALSE(parse_explore_request("trace inline 5 t", out, error));
  EXPECT_EQ(error, "truncated inline trace data");
  EXPECT_FALSE(parse_explore_request("trace inline 5 t\n12345missing-newline",
                                     out, error));
  EXPECT_FALSE(parse_explore_request("trace ftp host\n", out, error));
  EXPECT_FALSE(parse_explore_request("", out, error));
  EXPECT_EQ(error, "no input traces (use suite or trace directives)");
  EXPECT_FALSE(parse_explore_request("format csv\n", out, error));
}

TEST(ServeExploreRequest, FuzzedPayloadsNeverCrash) {
  Rng rng;
  const std::string seed = encode_explore_request([] {
    ExploreRequest r;
    r.suite_scales = 2;
    r.options.emplace_back("minimizer", "auto");
    TraceSource t;
    t.kind = TraceSource::Kind::kInline;
    t.data = "geometry 2x2\n0 1\n";
    r.traces.push_back(t);
    return r;
  }());
  for (int iter = 0; iter < 2000; ++iter) {
    std::string input = seed;
    const std::size_t flips = 1 + rng.next() % 6;
    for (std::size_t i = 0; i < flips; ++i)
      input[rng.next() % input.size()] =
          static_cast<char>(rng.next() & 0xff);
    input = input.substr(0, rng.next() % (input.size() + 1));
    ExploreRequest out;
    std::string error;
    parse_explore_request(input, out, error);  // must not crash or throw
  }
}

// One request of each kind, as the daemon would decode it.
std::vector<Request> one_of_each_kind() {
  std::vector<Request> reqs(3);
  reqs[0].kind = RequestKind::kExplore;
  reqs[0].explore.format = "json";
  reqs[0].explore.suite_scales = 2;
  reqs[0].explore.options = {{"no-fsm", ""}, {"max-fanout", "6"}};
  TraceSource t;
  t.kind = TraceSource::Kind::kInline;
  t.name = "tiny";
  t.data = "geometry 2 2\n0 1 2 3\n";
  reqs[0].explore.traces.push_back(t);
  reqs[1].kind = RequestKind::kAdmin;
  reqs[1].admin_command = "prune 10 0";
  reqs[2].kind = RequestKind::kPing;
  return reqs;
}

void expect_same_request(const Request& got, const Request& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.admin_command, want.admin_command);
  EXPECT_EQ(got.explore.format, want.explore.format);
  EXPECT_EQ(got.explore.suite_scales, want.explore.suite_scales);
  EXPECT_EQ(got.explore.options, want.explore.options);
  ASSERT_EQ(got.explore.traces.size(), want.explore.traces.size());
  for (std::size_t i = 0; i < want.explore.traces.size(); ++i) {
    EXPECT_EQ(got.explore.traces[i].name, want.explore.traces[i].name);
    EXPECT_EQ(got.explore.traces[i].data, want.explore.traces[i].data);
  }
}

TEST(ServeRequest, FramesRoundTripEveryKind) {
  for (const Request& req : one_of_each_kind()) {
    Frame f;
    std::size_t consumed = 0;
    const std::string wire = encode_request(req);
    ASSERT_EQ(decode_frame(wire, f, consumed), DecodeStatus::kFrame);
    EXPECT_EQ(consumed, wire.size());
    Request out;
    ErrorInfo error;
    ASSERT_TRUE(decode_request(f, out, error)) << error.message;
    expect_same_request(out, req);
  }
  // The same request bytes the client always sent.
  EXPECT_EQ(encode_request(Request{}), encode_frame(kPing, ""));
  EXPECT_EQ(encode_request({RequestKind::kAdmin, {}, "stats"}), encode_frame(kAdmin, "stats"));
}

TEST(ServeRequest, DecodeRejectsWithTheErrorToAnswer) {
  Request out;
  ErrorInfo error;
  EXPECT_FALSE(decode_request({kChunk, "x"}, out, error));
  EXPECT_EQ(error.code, "unsupported");
  EXPECT_EQ(error.message, "unexpected frame type 16");
  EXPECT_FALSE(decode_request({kExplore, "bogus directive\n"}, out, error));
  EXPECT_EQ(error.code, "bad-request");
  EXPECT_EQ(error.message, "unknown directive 'bogus'");
  // An admin command line may end in CR/LF; the command does not.
  ASSERT_TRUE(decode_request({kAdmin, "flush\r\n"}, out, error));
  EXPECT_EQ(out.kind, RequestKind::kAdmin);
  EXPECT_EQ(out.admin_command, "flush");
}

TEST(ServeCodec, RequestsRoundTripOnBothWires) {
  for (const Codec* codec : {&kFrameCodec, &kJsonLineCodec}) {
    // All three requests in one buffer, as a pipelining client sends them.
    RecvBuffer in;
    const std::vector<Request> reqs = one_of_each_kind();
    for (const Request& req : reqs) in.bytes += codec->encode_request(req);
    for (const Request& req : reqs) {
      Request out;
      ErrorInfo error;
      ASSERT_EQ(codec->cut_request(in, out, error), Cut::kMessage) << error.message;
      expect_same_request(out, req);
    }
    Request out;
    ErrorInfo error;
    EXPECT_EQ(codec->cut_request(in, out, error), Cut::kNeedMore);
    EXPECT_TRUE(in.bytes.empty());
  }
  EXPECT_EQ(&codec_for_first_byte('A'), &kFrameCodec);
  EXPECT_EQ(&codec_for_first_byte('{'), &kJsonLineCodec);
}

TEST(ServeCodec, CutRequestClassifiesBadInput) {
  Request out;
  ErrorInfo error;
  RecvBuffer in;
  // A line that arrives one byte at a time is cut once its '\n' arrives.
  const std::string ping = encode_json_request(Request{});
  for (std::size_t i = 0; i + 1 < ping.size(); ++i) {
    in.bytes += ping[i];
    ASSERT_EQ(kJsonLineCodec.cut_request(in, out, error), Cut::kNeedMore);
    EXPECT_EQ(in.scanned, in.bytes.size());
  }
  in.bytes += '\n';
  ASSERT_EQ(kJsonLineCodec.cut_request(in, out, error), Cut::kMessage);
  EXPECT_EQ(out.kind, RequestKind::kPing);
  // Blank lines are skipped; a bad line is rejected and the next one read.
  in.bytes = "\r\n\n{\"op\":\"fly\"}\r\n" + ping;
  ASSERT_EQ(kJsonLineCodec.cut_request(in, out, error), Cut::kRejected);
  EXPECT_EQ(error.code, "bad-request");
  EXPECT_EQ(error.message, "unknown op 'fly'");
  ASSERT_EQ(kJsonLineCodec.cut_request(in, out, error), Cut::kMessage);

  // Frames: a non-request type is rejected, garbage is fatal.
  in.bytes = encode_frame(kPong, "") + encode_frame(kPing, "") + "ADSX";
  ASSERT_EQ(kFrameCodec.cut_request(in, out, error), Cut::kRejected);
  EXPECT_EQ(error.code, "unsupported");
  ASSERT_EQ(kFrameCodec.cut_request(in, out, error), Cut::kMessage);
  EXPECT_EQ(out.kind, RequestKind::kPing);
  ASSERT_EQ(kFrameCodec.cut_request(in, out, error), Cut::kFatal);
  EXPECT_EQ(error.code, "malformed-frame");
  EXPECT_EQ(error.message, "bad frame magic");
}

TEST(ServeCodec, RepliesRoundTripOnBothWires) {
  Reply report;
  report.ok = true;
  // Over two chunks' worth, with bytes JSON must escape.
  for (int i = 0; report.body.size() <= 2 * kMaxChunkPayload; ++i)
    report.body += "row " + std::to_string(i) + ",\"quoted\"\t\\\n";
  report.summary = {9, 7, 2, 1, 3};
  Reply admin;
  admin.ok = true;
  admin.body = "flushed 7 entries, 0 evicted\n";
  Reply pong;
  pong.ok = true;
  pong.body = "addm_serve protocol 1";
  Reply failed;
  failed.error = {"bad-request", "unknown directive 'x'\nsecond line"};
  const std::pair<RequestKind, const Reply*> cases[] = {
      {RequestKind::kExplore, &report}, {RequestKind::kAdmin, &admin},
      {RequestKind::kPing, &pong},      {RequestKind::kExplore, &failed},
      {RequestKind::kAdmin, &failed},   {RequestKind::kPing, &failed}};

  for (const Codec* codec : {&kFrameCodec, &kJsonLineCodec}) {
    for (const auto& [kind, reply] : cases) {
      std::string wire;
      std::vector<std::size_t> pieces;
      ASSERT_TRUE(codec->send_reply(kind, *reply, [&](std::string_view bytes) {
        wire += bytes;
        pieces.push_back(bytes.size());
        return true;
      }));
      if (codec == &kFrameCodec && reply == &report) {
        // Three kChunk frames of at most 1 MiB each, then kDone.
        ASSERT_EQ(pieces.size(), 4u);
        for (std::size_t i = 0; i < 3; ++i)
          EXPECT_LE(pieces[i], kFrameHeaderSize + kMaxChunkPayload);
      } else {
        EXPECT_EQ(pieces.size(), 1u);
      }
      // Fed in 64 KiB receives, the reply is whole only at the last one.
      RecvBuffer in;
      Reply out;
      std::string error;
      for (std::size_t at = 0; at < wire.size(); at += 64 * 1024) {
        in.bytes.append(wire, at, 64 * 1024);
        const Cut want = at + 64 * 1024 >= wire.size() ? Cut::kMessage : Cut::kNeedMore;
        ASSERT_EQ(codec->cut_reply(in, kind, out, error), want) << error;
      }
      EXPECT_TRUE(in.bytes.empty());
      EXPECT_EQ(out.ok, reply->ok);
      EXPECT_EQ(out.body, reply->body);
      EXPECT_EQ(out.error.code, reply->error.code);
      EXPECT_EQ(out.error.message, reply->error.message);
      EXPECT_EQ(out.summary.traces, reply->summary.traces);
      EXPECT_EQ(out.summary.evaluations, reply->summary.evaluations);
      EXPECT_EQ(out.summary.cache_hits, reply->summary.cache_hits);
      EXPECT_EQ(out.summary.disk_hits, reply->summary.disk_hits);
      EXPECT_EQ(out.summary.errors, reply->summary.errors);
    }
  }
}

TEST(ServeCodec, FailedSendStopsTheReply) {
  Reply report;
  report.ok = true;
  report.body.assign(3 * kMaxChunkPayload, 'r');
  for (const Codec* codec : {&kFrameCodec, &kJsonLineCodec}) {
    int sends = 0;
    EXPECT_FALSE(codec->send_reply(RequestKind::kExplore, report,
                                   [&](std::string_view) { return ++sends, false; }));
    EXPECT_EQ(sends, 1);
  }
}

TEST(ServeCodec, ReplyOfTheWrongKindIsATransportError) {
  RecvBuffer in;
  in.bytes = encode_frame(kPong, "addm_serve protocol 1");
  Reply out;
  std::string error;
  EXPECT_EQ(kFrameCodec.cut_reply(in, RequestKind::kAdmin, out, error), Cut::kFatal);
  EXPECT_EQ(error, "unexpected reply frame type 19");
  in.bytes = "not json\n";
  EXPECT_EQ(kJsonLineCodec.cut_reply(in, RequestKind::kPing, out, error), Cut::kFatal);
}

TEST(ServeOptions, DefaultRequestYieldsDefaultOptions) {
  // The pinned-fingerprint property: an optionless request must produce an
  // ExploreOptions whose fingerprint equals the CLI default's.
  ExploreRequest req;
  req.suite_scales = 1;
  core::ExploreOptions opt;
  std::string error;
  ASSERT_TRUE(build_explore_options(req, opt, error)) << error;
  EXPECT_EQ(core::options_fingerprint(opt),
            core::options_fingerprint(core::ExploreOptions{}));
}

TEST(ServeOptions, AppliesEveryKey) {
  using core::apply_explore_option;
  core::ExploreOptions opt;
  std::string error;
  EXPECT_TRUE(apply_explore_option(opt, "no-fsm", "", error));
  EXPECT_FALSE(opt.include_fsm);
  EXPECT_TRUE(apply_explore_option(opt, "verify-front", "", error));
  EXPECT_TRUE(opt.verify_front);
  EXPECT_TRUE(apply_explore_option(opt, "compress-periodic", "", error));
  EXPECT_TRUE(opt.compress_periodic);
  EXPECT_TRUE(apply_explore_option(opt, "max-fsm-states", "77", error));
  EXPECT_EQ(opt.max_fsm_states, 77u);
  EXPECT_TRUE(apply_explore_option(opt, "max-fanout", "5", error));
  EXPECT_EQ(opt.max_fanout, 5);
  EXPECT_TRUE(apply_explore_option(opt, "espresso-threshold", "9", error));
  EXPECT_EQ(opt.minimize.heuristic_min_vars, 9);
  EXPECT_TRUE(apply_explore_option(opt, "minimizer", "espresso", error));
  EXPECT_EQ(opt.minimize.algo, logic::MinimizerAlgo::Espresso);
  EXPECT_TRUE(apply_explore_option(opt, "archs", "SRAG,CntAG-flat", error));
  ASSERT_EQ(opt.archs.size(), 2u);

  EXPECT_FALSE(apply_explore_option(opt, "max-fanout", "0", error));
  EXPECT_FALSE(apply_explore_option(opt, "espresso-threshold", "25", error));
  EXPECT_FALSE(apply_explore_option(opt, "minimizer", "magic", error));
  EXPECT_FALSE(apply_explore_option(opt, "threads", "4", error));

  // One verdict per value on every surface: the core table, the binary
  // request grammar and the JSON-lines parser accept or reject each value
  // alike, and an accepted value yields the same options everywhere.
  struct Case {
    const char* key;
    const char* value;
    bool ok;
  };
  const Case cases[] = {
      {"max-fanout", "1", false},
      {"max-fanout", "2", true},
      {"max-fanout", "2147483647", true},
      {"max-fanout", "2147483648", false},
      {"max-fanout", "4294967298", false},
      {"max-fanout", "", false},
      {"espresso-threshold", "0", false},
      {"espresso-threshold", "1", true},
      {"espresso-threshold", "24", true},
      {"espresso-threshold", "25", false},
      {"max-fsm-states", "0", true},
      {"max-fsm-states", "-1", false},
      {"minimizer", "auto", true},
      {"minimizer", "magic", false},
      {"archs", "SRAG-multicounter,,SFM", true},
      {"archs", "SRAG,NoSuchArch", false},
      {"archs", ",", false},
      {"no-fsm", "", true},
      {"no-fsm", "yes", false},
      {"verify-front", "1", false},
      {"compress-periodic", "true", false},
      {"threads", "4", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.key) + " '" + c.value + "'");
    core::ExploreOptions direct;
    EXPECT_EQ(apply_explore_option(direct, c.key, c.value, error), c.ok) << error;

    ExploreRequest req;
    req.suite_scales = 1;
    req.options = {{c.key, c.value}};
    ExploreRequest binary;
    EXPECT_EQ(parse_explore_request(encode_explore_request(req), binary, error), c.ok)
        << error;
    Request json;
    EXPECT_EQ(parse_json_request(encode_json_request({RequestKind::kExplore, req, {}}),
                                 json, error),
              c.ok)
        << error;
    if (!c.ok) continue;
    for (const ExploreRequest* parsed : {&binary, &json.explore}) {
      core::ExploreOptions served;
      ASSERT_TRUE(build_explore_options(*parsed, served, error)) << error;
      EXPECT_EQ(core::options_fingerprint(served), core::options_fingerprint(direct));
    }
  }
}

TEST(ServeSummary, DoneRoundTrip) {
  ExploreSummary s;
  s.traces = 9;
  s.evaluations = 5;
  s.cache_hits = 3;
  s.disk_hits = 1;
  s.errors = 2;
  ExploreSummary parsed;
  ASSERT_TRUE(parse_done(encode_done(s), parsed));
  EXPECT_EQ(parsed.traces, 9u);
  EXPECT_EQ(parsed.evaluations, 5u);
  EXPECT_EQ(parsed.cache_hits, 3u);
  EXPECT_EQ(parsed.disk_hits, 1u);
  EXPECT_EQ(parsed.errors, 2u);
  // Unknown keys are tolerated (forward compatibility), garbage is not.
  ASSERT_TRUE(parse_done("traces 1\nfuture_field 7\n", parsed));
  EXPECT_FALSE(parse_done("traces one\n", parsed));
}

TEST(ServeError, RoundTrip) {
  ErrorInfo e{"bad-request", "line 3: unknown directive\nwith detail"};
  ErrorInfo parsed;
  ASSERT_TRUE(parse_error(encode_error(e), parsed));
  EXPECT_EQ(parsed.code, "bad-request");
  EXPECT_EQ(parsed.message, e.message);
  EXPECT_FALSE(parse_error("", parsed));
}

TEST(ServeJson, ParsesScalarsAndStructures) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(" {\"a\":[1,2.5,-3],\"b\":{\"c\":true,\"d\":null},"
                         "\"s\":\"he\\nllo\\u0041\"} ",
                         v, error))
      << error;
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  std::uint64_t n = 0;
  EXPECT_TRUE(a->array[0].as_u64(n));
  EXPECT_EQ(n, 1u);
  EXPECT_FALSE(a->array[1].as_u64(n));  // fractional
  EXPECT_FALSE(a->array[2].as_u64(n));  // negative
  EXPECT_EQ(v.find("b")->find("c")->boolean, true);
  EXPECT_EQ(v.find("s")->string, "he\nlloA");
}

TEST(ServeJson, RejectsMalformedDocuments) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parse_json("", v, error));
  EXPECT_FALSE(parse_json("{", v, error));
  EXPECT_FALSE(parse_json("{\"a\":}", v, error));
  EXPECT_FALSE(parse_json("[1,2,]", v, error));
  EXPECT_FALSE(parse_json("\"unterminated", v, error));
  EXPECT_FALSE(parse_json("truex", v, error));
  EXPECT_FALSE(parse_json("{} trailing", v, error));
  EXPECT_FALSE(parse_json("\"\\u00e9\"", v, error));  // non-ASCII escape
  // Depth cap: 40 nested arrays exceed the 32-level limit.
  std::string deep(40, '[');
  deep += std::string(40, ']');
  EXPECT_FALSE(parse_json(deep, v, error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos);
}

TEST(ServeJson, FuzzedDocumentsNeverCrash) {
  Rng rng;
  const std::string seed =
      "{\"op\":\"explore\",\"suite\":{\"scales\":1,\"base\":\"8x8\"},"
      "\"options\":{\"no-fsm\":true},\"traces\":[{\"inline\":\"x\"}]}";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string input = seed;
    const std::size_t flips = 1 + rng.next() % 6;
    for (std::size_t i = 0; i < flips; ++i)
      input[rng.next() % input.size()] =
          static_cast<char>(rng.next() & 0xff);
    input = input.substr(0, rng.next() % (input.size() + 1));
    Request out;
    std::string error;
    parse_json_request(input, out, error);  // must not crash or throw
  }
}

TEST(ServeJson, RequestRoundTrip) {
  ExploreRequest req;
  req.format = "json";
  req.suite_scales = 2;
  req.suite_base = {8, 16};
  req.options.emplace_back("no-fsm", "");
  req.options.emplace_back("max-fsm-states", "64");
  req.options.emplace_back("archs", "SRAG");
  TraceSource t;
  t.kind = TraceSource::Kind::kInline;
  t.name = "inline0";
  t.data = "geometry 2x2\n0 1 2 3\n";
  req.traces.push_back(t);

  Request parsed;
  std::string error;
  ASSERT_TRUE(parse_json_request(encode_json_request({RequestKind::kExplore, req, {}}),
                                 parsed, error))
      << error;
  ASSERT_EQ(parsed.kind, RequestKind::kExplore);
  EXPECT_EQ(parsed.explore.format, "json");
  EXPECT_EQ(parsed.explore.suite_scales, 2u);
  EXPECT_EQ(parsed.explore.suite_base.height, 16u);
  ASSERT_EQ(parsed.explore.options.size(), 3u);
  EXPECT_EQ(parsed.explore.options[0].first, "no-fsm");
  EXPECT_EQ(parsed.explore.options[0].second, "");
  EXPECT_EQ(parsed.explore.options[1].second, "64");
  ASSERT_EQ(parsed.explore.traces.size(), 1u);
  EXPECT_EQ(parsed.explore.traces[0].data, t.data);

  Request admin;
  ASSERT_TRUE(parse_json_request(
      encode_json_request({RequestKind::kAdmin, {}, "prune 10 0"}), admin, error));
  ASSERT_EQ(admin.kind, RequestKind::kAdmin);
  EXPECT_EQ(admin.admin_command, "prune 10 0");

  Request ping;
  ASSERT_TRUE(parse_json_request(encode_json_request(Request{}), ping, error));
  EXPECT_EQ(ping.kind, RequestKind::kPing);
}

TEST(ServeJson, ReplyRoundTrip) {
  // The reply lines the daemon has always written, byte for byte.
  Reply pong;
  pong.ok = true;
  pong.body = "addm_serve protocol 1";
  EXPECT_EQ(encode_json_reply(RequestKind::kPing, pong),
            "{\"ok\":true,\"pong\":\"addm_serve protocol 1\"}\n");
  Reply admin;
  admin.ok = true;
  admin.body = "flushed 7 entries, 0 evicted\n";
  EXPECT_EQ(encode_json_reply(RequestKind::kAdmin, admin),
            "{\"ok\":true,\"output\":\"flushed 7 entries, 0 evicted\\n\"}\n");
  Reply report;
  report.ok = true;
  report.body = "a,\"b\"\n";
  report.summary = {9, 7, 2, 0, 1};
  const std::string line = encode_json_reply(RequestKind::kExplore, report);
  EXPECT_EQ(line,
            "{\"ok\":true,\"report\":\"a,\\\"b\\\"\\n\",\"traces\":9,"
            "\"evaluations\":7,\"cache_hits\":2,\"disk_hits\":0,\"errors\":1}\n");
  Reply failed;
  failed.error = {"bad-request", "line \"3\"\nmore"};
  EXPECT_EQ(encode_json_reply(RequestKind::kExplore, failed),
            "{\"ok\":false,\"code\":\"bad-request\",\"message\":"
            "\"line \\\"3\\\"\\nmore\"}\n");

  Reply out;
  std::string error;
  ASSERT_TRUE(parse_json_reply(line, out, error)) << error;
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.body, report.body);
  EXPECT_EQ(out.summary.traces, 9u);
  EXPECT_EQ(out.summary.errors, 1u);
  ASSERT_TRUE(parse_json_reply(encode_json_reply(RequestKind::kAdmin, failed), out, error));
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error.code, "bad-request");
  EXPECT_EQ(out.error.message, failed.error.message);
  // A failure without a code still fails; a line without "ok" is no reply.
  ASSERT_TRUE(parse_json_reply("{\"ok\":false}", out, error));
  EXPECT_EQ(out.error.code, "error");
  EXPECT_FALSE(parse_json_reply("{\"pong\":\"x\"}", out, error));
  EXPECT_EQ(error, "reply missing \"ok\" field");
  EXPECT_FALSE(parse_json_reply("{", out, error));
}

TEST(ServeJson, RequestValidation) {
  Request out;
  std::string error;
  EXPECT_FALSE(parse_json_request("[]", out, error));
  EXPECT_FALSE(parse_json_request("{}", out, error));
  EXPECT_FALSE(parse_json_request("{\"op\":\"fly\"}", out, error));
  EXPECT_FALSE(parse_json_request("{\"op\":\"admin\"}", out, error));
  EXPECT_FALSE(parse_json_request("{\"op\":\"explore\"}", out, error));
  EXPECT_FALSE(parse_json_request(
      "{\"op\":\"explore\",\"suite\":{\"scales\":0}}", out, error));
  EXPECT_FALSE(parse_json_request(
      "{\"op\":\"explore\",\"suite\":{\"scales\":1},\"options\":"
      "{\"no-fsm\":false}}",
      out, error));
  EXPECT_FALSE(parse_json_request(
      "{\"op\":\"explore\",\"traces\":[{\"path\":\"a\",\"inline\":\"b\"}]}",
      out, error));
  EXPECT_TRUE(parse_json_request(
      "{\"op\":\"explore\",\"suite\":{\"scales\":1},\"options\":"
      "{\"archs\":[\"SRAG\",\"CntAG-flat\"]}}",
      out, error))
      << error;
  ASSERT_EQ(out.explore.options.size(), 1u);
  EXPECT_EQ(out.explore.options[0].second, "SRAG,CntAG-flat");
}

TEST(ServeJson, EscapeProducesParseableStrings) {
  std::string nasty;
  for (int c = 0; c < 256; ++c) nasty.push_back(static_cast<char>(c));
  const std::string line = "\"" + json_escape(nasty) + "\"";
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(line, v, error)) << error;
  EXPECT_EQ(v.string, nasty);
}

}  // namespace
}  // namespace addm::serve
