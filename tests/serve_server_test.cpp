// In-process end-to-end tests for the addm_serve daemon (serve/server.hpp):
// a real Server on a loopback socket, driven by the real ServeClient.
//
// The load-bearing assertions:
//  * Byte-equality: the served report body equals the offline
//    BatchExplorer/report-renderer output for the same traces and options —
//    cold, memo-warm, across option sets, and in both wire modes.
//  * Robustness: garbage bytes, hostile frames, over-long JSON lines and
//    mid-stream disconnects cost at most one connection, never the daemon.
//  * One request path: requests pipelined in one write are answered in
//    order, on either wire.
//  * Lifecycle: admin shutdown and --max-requests both drain cleanly to
//    exit code 0, flushing pending cache state.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_explorer.hpp"
#include "core/eval_cache.hpp"
#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace addm::serve {
namespace {

// One daemon on an ephemeral loopback port, its accept loop on a thread.
struct TestServer {
  ExploreService service;
  Server server;
  std::thread thread;
  int exit_code = -1;

  explicit TestServer(ServiceOptions so = {}, ServerOptions vo = {})
      : service(std::move(so)), server(service, [&vo] {
          vo.unix_path.clear();
          vo.tcp_port = 0;
          vo.quiet = true;
          return vo;
        }()) {
    std::string error;
    EXPECT_TRUE(server.start(error)) << error;
    thread = std::thread([this] { exit_code = server.run(); });
  }

  ~TestServer() { stop(); }

  void stop() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
  }

  ServeClient connect(bool json = false) {
    ServeClient c;
    c.set_json_mode(json);
    std::string error;
    EXPECT_TRUE(c.connect_tcp("127.0.0.1", server.bound_port(), error)) << error;
    return c;
  }
};

// The offline reference: what addm_explore would print for the same traces
// and options (the BatchExplorer determinism contract makes one local run
// a valid stand-in for the CLI).
std::string offline_report(const std::vector<seq::AddressTrace>& traces,
                           const core::ExploreOptions& explore,
                           bool json = false) {
  core::BatchOptions opt;
  opt.explore = explore;
  core::BatchExplorer explorer(opt);
  const core::BatchResult result = explorer.run(traces);
  return json ? core::batch_report_json(result) : core::batch_report_csv(result);
}

ExploreRequest suite_request(std::size_t scales = 1) {
  ExploreRequest req;
  req.suite_scales = scales;
  return req;
}

// Raw socket for hostile-input tests (the real client refuses to send
// malformed bytes, so these speak socket directly).
struct RawConn {
  int fd = -1;
  explicit RawConn(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  void send_bytes(std::string_view data) {
    ASSERT_EQ(::send(fd, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }
  // Signals end-of-requests; the server replies to what it has read, sees
  // EOF, and closes — which is what unblocks drain() on keep-alive errors.
  void half_close() { ::shutdown(fd, SHUT_WR); }
  // Reads until the peer closes; returns everything received.
  std::string drain() {
    std::string out;
    char tmp[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
      if (n <= 0) break;
      out.append(tmp, static_cast<std::size_t>(n));
    }
    return out;
  }
};

TEST(ServeServer, ServedReportMatchesOfflineRunByteForByte) {
  TestServer ts;
  ServeClient client = ts.connect();

  ServeClient::Result result;
  std::string error;
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.code << ": " << result.error.message;

  const auto traces = seq::scaled_suite({8, 8}, 1);
  EXPECT_EQ(result.body, offline_report(traces, {}));
  EXPECT_EQ(result.summary.traces, traces.size());
  EXPECT_EQ(result.summary.errors, 0u);
}

TEST(ServeServer, WarmMemoServesRepeatsWithoutReevaluating) {
  TestServer ts;
  ServeClient c1 = ts.connect();
  ServeClient::Result first, second;
  std::string error;
  ASSERT_TRUE(c1.explore(suite_request(), first, error)) << error;
  ASSERT_TRUE(first.ok);
  EXPECT_GT(first.summary.evaluations, 0u);

  // A fresh connection hits the same shared memo table.
  ServeClient c2 = ts.connect();
  ASSERT_TRUE(c2.explore(suite_request(), second, error)) << error;
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.summary.evaluations, 0u);
  EXPECT_EQ(second.summary.cache_hits, second.summary.traces);
  EXPECT_EQ(second.body, first.body);
}

TEST(ServeServer, PerRequestOptionsCoexistAndMatchOffline) {
  TestServer ts;
  ServeClient client = ts.connect();
  std::string error;

  ExploreRequest no_fsm = suite_request();
  no_fsm.options.emplace_back("no-fsm", "");
  ExploreRequest json_req = suite_request();
  json_req.format = "json";

  ServeClient::Result a, b, c;
  ASSERT_TRUE(client.explore(no_fsm, a, error)) << error;
  ASSERT_TRUE(client.explore(json_req, b, error)) << error;
  ASSERT_TRUE(client.explore(no_fsm, c, error)) << error;
  ASSERT_TRUE(a.ok && b.ok && c.ok);

  const auto traces = seq::scaled_suite({8, 8}, 1);
  core::ExploreOptions opt_no_fsm;
  opt_no_fsm.include_fsm = false;
  EXPECT_EQ(a.body, offline_report(traces, opt_no_fsm));
  EXPECT_EQ(b.body, offline_report(traces, {}, /*json=*/true));
  // Option sets share the memo keyed by (trace, options): the repeat of
  // the no-fsm request is served entirely from memory.
  EXPECT_EQ(c.summary.evaluations, 0u);
  EXPECT_EQ(c.body, a.body);
}

TEST(ServeServer, InlineAndPathTracesFollowCliNaming) {
  const std::string dir = testing::TempDir() + "serve_inline_traces";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/transpose_case.trace";
  const auto trace = [] {
    auto t = seq::transpose_read({4, 4});
    t.set_name("");  // force the file-stem naming rule
    return t;
  }();
  seq::write_trace_file(path, trace);

  TestServer ts;
  ServeClient client = ts.connect();
  std::string error;

  ExploreRequest req;
  TraceSource by_path;
  by_path.kind = TraceSource::Kind::kPath;
  by_path.name = path;
  req.traces.push_back(by_path);
  TraceSource by_inline;
  by_inline.kind = TraceSource::Kind::kInline;
  by_inline.name = "transpose_case";
  by_inline.data = seq::write_trace_string(trace);
  req.traces.push_back(by_inline);

  ServeClient::Result result;
  ASSERT_TRUE(client.explore(req, result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;

  auto named = trace;
  named.set_name("transpose_case");
  EXPECT_EQ(result.body, offline_report({named, named}, {}));
}

TEST(ServeServer, JsonModeProducesIdenticalReports) {
  TestServer ts;
  ServeClient binary = ts.connect(false);
  ServeClient json = ts.connect(true);
  std::string error;

  ServeClient::Result a, b;
  ASSERT_TRUE(binary.explore(suite_request(), a, error)) << error;
  ASSERT_TRUE(json.explore(suite_request(), b, error)) << error;
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.body, b.body);

  std::string banner;
  ASSERT_TRUE(json.ping(banner, error)) << error;
  EXPECT_EQ(banner, std::string(ts.service.banner()));
}

TEST(ServeServer, BadRequestsGetFramedErrorsAndConnectionSurvives) {
  TestServer ts;
  ServeClient client = ts.connect();
  std::string error;

  ExploreRequest empty;  // no traces: rejected at parse time
  ServeClient::Result result;
  ASSERT_TRUE(client.explore(empty, result, error)) << error;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.code, "bad-request");

  // Option values the exploration-option table rejects never reach the
  // explorer, on either wire.
  ServeClient json = ts.connect(/*json=*/true);
  for (const char* fanout : {"1", "4294967298"}) {
    ExploreRequest bad = suite_request();
    bad.options = {{"max-fanout", fanout}};
    for (ServeClient* c : {&client, &json}) {
      ASSERT_TRUE(c->explore(bad, result, error)) << error;
      EXPECT_FALSE(result.ok) << fanout;
      EXPECT_EQ(result.error.code, "bad-request") << fanout;
    }
  }

  ExploreRequest missing = suite_request(0);
  TraceSource t;
  t.kind = TraceSource::Kind::kPath;
  t.name = testing::TempDir() + "does_not_exist.trace";
  missing.traces.push_back(t);
  ASSERT_TRUE(client.explore(missing, result, error)) << error;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.code, "io");

  // Same connection still serves good requests afterwards.
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  EXPECT_TRUE(result.ok);
}

TEST(ServeServer, GarbageAndDisconnectsNeverKillTheDaemon) {
  TestServer ts;
  {
    RawConn garbage(ts.server.bound_port());
    garbage.send_bytes("total nonsense\n\x01\x02\x03");
    garbage.half_close();
    // JSON mode (first byte not 'A'): one error line per junk line.
    const std::string reply = garbage.drain();
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos);
  }
  {
    RawConn truncated(ts.server.bound_port());
    const std::string frame = encode_frame(kPing, "");
    truncated.send_bytes(frame.substr(0, 7));  // mid-header disconnect
  }
  {
    RawConn hostile(ts.server.bound_port());
    std::string frame = encode_frame(kExplore, "");
    frame[8] = static_cast<char>(0xff);  // oversized length field
    frame[9] = static_cast<char>(0xff);
    frame[10] = static_cast<char>(0xff);
    frame[11] = static_cast<char>(0x7f);
    hostile.send_bytes(frame);
    const std::string reply = hostile.drain();
    Frame f;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(reply, f, consumed), DecodeStatus::kFrame);
    EXPECT_EQ(f.type, kError);
    ErrorInfo info;
    ASSERT_TRUE(parse_error(f.payload, info));
    EXPECT_EQ(info.code, "malformed-frame");
  }
  {
    RawConn reply_type(ts.server.bound_port());
    reply_type.send_bytes(encode_frame(kChunk, "client must not send this"));
    reply_type.half_close();
    const std::string reply = reply_type.drain();
    Frame f;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(reply, f, consumed), DecodeStatus::kFrame);
    EXPECT_EQ(f.type, kError);
  }

  // After all of the above the daemon still serves real work.
  ServeClient client = ts.connect();
  std::string banner, error;
  ASSERT_TRUE(client.ping(banner, error)) << error;
  ServeClient::Result result;
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  EXPECT_TRUE(result.ok);
}

TEST(ServeServer, PipelinedRequestsAreAnsweredInOrderOnBothWires) {
  TestServer ts;
  std::vector<Request> reqs(3);
  reqs[0].kind = RequestKind::kPing;
  reqs[1].kind = RequestKind::kAdmin;
  reqs[1].admin_command = "rewind";
  reqs[2].kind = RequestKind::kExplore;
  reqs[2].explore = suite_request();
  const std::string expect = offline_report(seq::scaled_suite({8, 8}, 1), {});

  for (const Codec* codec : {&kFrameCodec, &kJsonLineCodec}) {
    RawConn conn(ts.server.bound_port());
    std::string wire;
    for (const Request& req : reqs) wire += codec->encode_request(req);
    conn.send_bytes(wire);  // all three in one write
    conn.half_close();
    RecvBuffer in;
    in.bytes = conn.drain();
    std::vector<Reply> replies(reqs.size());
    std::string error;
    for (std::size_t i = 0; i < reqs.size(); ++i)
      ASSERT_EQ(codec->cut_reply(in, reqs[i].kind, replies[i], error), Cut::kMessage)
          << "reply " << i << ": " << error;
    EXPECT_TRUE(in.bytes.empty());
    EXPECT_TRUE(replies[0].ok);
    EXPECT_EQ(replies[0].body, ts.service.banner());
    EXPECT_FALSE(replies[1].ok);
    EXPECT_EQ(replies[1].error.code, "bad-request");
    ASSERT_TRUE(replies[2].ok) << replies[2].error.message;
    EXPECT_EQ(replies[2].body, expect);
  }
}

TEST(ServeServer, JsonLineOverTheCapGetsOneErrorLineAndCloses) {
  TestServer ts;
  RawConn conn(ts.server.bound_port());
  // One byte over the cap and no '\n': the daemon reads every byte sent,
  // so its close after the error line is clean.
  const std::string head = "{\"op\":\"ping\",\"pad\":\"";
  conn.send_bytes(head);
  const std::string block(1u << 20, 'x');
  for (std::size_t left = kMaxFramePayload + 1 - head.size(); left > 0;) {
    const std::size_t n = std::min(left, block.size());
    conn.send_bytes(std::string_view(block).substr(0, n));
    left -= n;
  }
  RecvBuffer in;
  in.bytes = conn.drain();  // returns only once the daemon closes
  Reply reply;
  std::string error;
  ASSERT_EQ(kJsonLineCodec.cut_reply(in, RequestKind::kPing, reply, error), Cut::kMessage)
      << error;
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.code, "bad-request");
  EXPECT_EQ(reply.error.message, "request line exceeds the 64 MiB cap");
  EXPECT_TRUE(in.bytes.empty());

  // The daemon still serves the next connection.
  ServeClient client = ts.connect(/*json=*/true);
  std::string banner;
  ASSERT_TRUE(client.ping(banner, error)) << error;
}

TEST(ServeServer, AdminFlushCompactStatsAgainstCacheDir) {
  const std::string cache_dir = testing::TempDir() + "serve_admin_cache";
  std::filesystem::remove_all(cache_dir);
  ServiceOptions so;
  so.cache_dir = cache_dir;
  so.flush_entries = 0;  // nothing reaches disk until flushed explicitly
  TestServer ts(so);
  ServeClient client = ts.connect();
  std::string error;

  ServeClient::Result result;
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok);

  ASSERT_TRUE(client.admin("flush", result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;
  EXPECT_NE(result.body.find("flushed 7 entries"), std::string::npos)
      << result.body;

  ASSERT_TRUE(client.admin("compact", result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;
  EXPECT_NE(result.body.find("7 kept"), std::string::npos) << result.body;

  ASSERT_TRUE(client.admin("stats", result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;
  core::EvalCacheDir cache(cache_dir);
  EXPECT_EQ(result.body, core::eval_cache_stats_json(cache.stats()));

  ASSERT_TRUE(client.admin("prune 4 0", result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;
  EXPECT_EQ(cache.read_records().size(), 4u);

  // Validation failures are framed errors, not crashes.
  ASSERT_TRUE(client.admin("prune", result, error)) << error;
  EXPECT_FALSE(result.ok);
  ASSERT_TRUE(client.admin("rewind", result, error)) << error;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.code, "bad-request");
}

TEST(ServeServer, AdminWithoutCacheDirIsRejected) {
  TestServer ts;
  ServeClient client = ts.connect();
  std::string error;
  ServeClient::Result result;
  ASSERT_TRUE(client.admin("compact", result, error)) << error;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.code, "bad-request");
  // flush stays a harmless no-op without a cache directory.
  ASSERT_TRUE(client.admin("flush", result, error)) << error;
  EXPECT_TRUE(result.ok);
}

TEST(ServeServer, ShutdownCommandDrainsToExitZero) {
  const std::string cache_dir = testing::TempDir() + "serve_shutdown_cache";
  std::filesystem::remove_all(cache_dir);
  ServiceOptions so;
  so.cache_dir = cache_dir;
  so.flush_entries = 0;
  TestServer ts(so);
  ServeClient client = ts.connect();
  std::string error;

  ServeClient::Result result;
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok);

  ASSERT_TRUE(client.admin("shutdown", result, error)) << error;
  EXPECT_TRUE(result.ok);
  ts.thread.join();
  EXPECT_EQ(ts.exit_code, 0);

  // The shutdown flush persisted the pending entries (the 9-trace suite
  // dedupes to 7 unique memo keys).
  EXPECT_EQ(core::EvalCacheDir(cache_dir).read_records().size(), 7u);
}

TEST(ServeServer, MaxRequestsDrainsToExitZero) {
  ServerOptions vo;
  vo.max_requests = 2;
  TestServer ts({}, vo);
  ServeClient client = ts.connect();
  std::string error;
  ServeClient::Result result;
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok);
  ServeClient second = ts.connect();
  ASSERT_TRUE(second.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok);
  ts.thread.join();
  EXPECT_EQ(ts.exit_code, 0);
}

TEST(ServeServer, ConcurrentClientsShareTheMemoSafely) {
  ServerOptions vo;
  vo.request_threads = 4;
  TestServer ts({}, vo);

  // Identical requests race on the shared memo table; different-option
  // requests race on distinct keys.  Every reply must match the offline
  // reference — this test doubles as the TSan workload for the serve path.
  const auto traces = seq::scaled_suite({8, 8}, 1);
  const std::string expect_default = offline_report(traces, {});
  core::ExploreOptions no_fsm_opt;
  no_fsm_opt.include_fsm = false;
  const std::string expect_no_fsm = offline_report(traces, no_fsm_opt);

  std::vector<std::thread> workers;
  std::vector<std::string> bodies(8);
  for (int i = 0; i < 8; ++i) {
    workers.emplace_back([&ts, &bodies, i] {
      ServeClient c = ts.connect();
      ExploreRequest req = suite_request();
      if (i % 2 == 1) req.options.emplace_back("no-fsm", "");
      ServeClient::Result result;
      std::string error;
      if (c.explore(req, result, error) && result.ok) bodies[i] = result.body;
    });
  }
  for (auto& w : workers) w.join();
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(bodies[i], i % 2 == 0 ? expect_default : expect_no_fsm)
        << "client " << i;
}

}  // namespace
}  // namespace addm::serve
