// Socket front-end of the addm_serve daemon: accepts local connections and
// serves each on a worker pool backed by one shared ExploreService.  A
// connection's first byte picks its codec (binary framing or JSON lines,
// serve/protocol.hpp); one loop then cuts requests off the connection's
// buffer with that codec, and one answer() serves them whatever the wire.
//
// Lifecycle contract (the part CI leans on):
//  * start() binds and listens — Unix-domain socket by default, with
//    stale-socket recovery (a leftover path that refuses connections is
//    unlinked and rebound), or TCP on 127.0.0.1 (port 0 = ephemeral,
//    bound_port() reports the choice).
//  * run() owns the accept loop until request_stop() — which is
//    async-signal-safe (one write to a self-pipe), so SIGINT/SIGTERM
//    handlers may call it directly — or until --max-requests /
//    --idle-timeout trips.  Shutdown drains: the listener closes, idle
//    connections are woken with shutdown(SHUT_RD), in-flight requests run
//    to completion and their replies are written, pending cache state is
//    flushed, and run() returns 0.
//  * Hostile input never takes the daemon down: malformed frames and JSON
//    get framed error replies (or a close), client disconnects mid-stream
//    abort only that connection, and writes use MSG_NOSIGNAL plus a send
//    timeout so a stuck peer cannot wedge a worker forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace addm::serve {

struct ServerOptions {
  /// Unix-domain socket path; used when non-empty (the default transport).
  std::string unix_path;
  /// TCP loopback port when unix_path is empty; 0 = ephemeral.
  int tcp_port = 0;
  /// Concurrent connection workers (each serves one connection at a time).
  std::size_t request_threads = 2;
  /// Stop after this many requests have been served (0 = unlimited).
  std::uint64_t max_requests = 0;
  /// Stop after this many seconds with no connections and no requests
  /// in flight (0 = never).
  double idle_timeout_seconds = 0.0;
  /// Suppress the stderr lifecycle log lines.
  bool quiet = false;
};

class Server {
 public:
  Server(ExploreService& service, ServerOptions opt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens.  Returns false with `error` set on failure
  /// (address in use by a live daemon, permission, bad path).
  bool start(std::string& error);

  /// Port actually bound (TCP mode; -1 for Unix sockets).
  int bound_port() const { return bound_port_; }

  /// Accept/dispatch loop; blocks until a stop condition, then drains and
  /// returns the process exit code (0 on a clean drain).
  int run();

  /// Initiates shutdown.  Async-signal-safe.
  void request_stop();

 private:
  void handle_connection(int fd);
  /// Reads, answers and replies to requests on `fd` until the peer closes,
  /// a send fails, the codec finds bytes no request can follow, or the
  /// daemon stops.
  void serve(int fd, const Codec& codec);
  /// Runs one request: ping, admin (an admin shutdown starts the drain) or
  /// explore.  Starts the drain too once --max-requests is reached.
  Reply answer(const Request& req);
  void note_activity();
  void close_listener();

  ExploreService& service_;
  ServerOptions opt_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  int bound_port_ = -1;
  bool unlink_on_close_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> last_activity_ms_{0};
  std::atomic<std::size_t> active_conns_{0};
  /// Live connection fds, for the drain's SHUT_RD wakeup.
  std::mutex conns_mu_;
  std::vector<int> conn_fds_;
};

}  // namespace addm::serve
