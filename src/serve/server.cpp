#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/thread_pool.hpp"

namespace addm::serve {

namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Full write with MSG_NOSIGNAL: a peer that disappeared mid-reply must
// surface as a return value on this connection, never as SIGPIPE to the
// daemon.  The socket carries a send timeout (set at accept), so a peer
// that stops reading cannot wedge a worker forever either.
bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(ExploreService& service, ServerOptions opt)
    : service_(service), opt_(std::move(opt)) {}

Server::~Server() {
  close_listener();
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

void Server::close_listener() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (unlink_on_close_ && !opt_.unix_path.empty()) {
    ::unlink(opt_.unix_path.c_str());
    unlink_on_close_ = false;
  }
}

bool Server::start(std::string& error) {
  if (::pipe(stop_pipe_) != 0) {
    error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }

  if (!opt_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.unix_path.size() >= sizeof addr.sun_path) {
      error = "socket path too long: " + opt_.unix_path;
      return false;
    }
    std::strncpy(addr.sun_path, opt_.unix_path.c_str(), sizeof addr.sun_path - 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (errno != EADDRINUSE) {
        error = "bind " + opt_.unix_path + ": " + std::strerror(errno);
        return false;
      }
      // Stale-socket recovery: a path left behind by a dead daemon accepts
      // no connections; a live daemon does.  Only the former is unlinked.
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool live =
          probe >= 0 &&
          ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
      if (probe >= 0) ::close(probe);
      if (live) {
        error = opt_.unix_path + ": a daemon is already listening";
        return false;
      }
      ::unlink(opt_.unix_path.c_str());
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        error = "bind " + opt_.unix_path + ": " + std::strerror(errno);
        return false;
      }
    }
    unlink_on_close_ = true;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opt_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      error = "bind 127.0.0.1:" + std::to_string(opt_.tcp_port) + ": " +
              std::strerror(errno);
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
      bound_port_ = ntohs(bound.sin_port);
  }

  if (::listen(listen_fd_, 64) != 0) {
    error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  if (!opt_.quiet) {
    if (!opt_.unix_path.empty())
      std::fprintf(stderr, "addm_serve: listening on %s\n", opt_.unix_path.c_str());
    else
      std::fprintf(stderr, "addm_serve: listening on 127.0.0.1:%d\n", bound_port_);
  }
  return true;
}

void Server::request_stop() {
  // Async-signal-safe: one lock-free store plus one write(2).
  stopping_.store(true, std::memory_order_relaxed);
  if (stop_pipe_[1] >= 0) {
    const char b = 's';
    [[maybe_unused]] ssize_t n = ::write(stop_pipe_[1], &b, 1);
  }
}

void Server::note_activity() {
  last_activity_ms_.store(now_ms(), std::memory_order_relaxed);
}

int Server::run() {
  core::ThreadPool pool(opt_.request_threads == 0 ? 1 : opt_.request_threads);
  note_activity();

  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, 250);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        timeval tv{60, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
        {
          std::lock_guard<std::mutex> lk(conns_mu_);
          conn_fds_.push_back(fd);
        }
        active_conns_.fetch_add(1, std::memory_order_relaxed);
        note_activity();
        pool.submit([this, fd] { handle_connection(fd); });
      }
    }

    if (opt_.max_requests != 0 &&
        service_.requests_served() >= opt_.max_requests)
      break;

    if (opt_.idle_timeout_seconds > 0 &&
        active_conns_.load(std::memory_order_relaxed) == 0 &&
        pool.busy() == 0) {
      const std::uint64_t idle_ms =
          now_ms() - last_activity_ms_.load(std::memory_order_relaxed);
      if (idle_ms >= static_cast<std::uint64_t>(opt_.idle_timeout_seconds * 1000.0)) {
        if (!opt_.quiet)
          std::fprintf(stderr, "addm_serve: idle timeout, draining\n");
        break;
      }
    }
  }

  // Drain: no new connections, wake idle readers, let in-flight requests
  // finish and their replies flush, then persist pending cache state.
  stopping_.store(true, std::memory_order_relaxed);
  close_listener();
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  try {
    pool.wait_idle();
  } catch (...) {
    // Connection handlers catch their own failures; nothing should land
    // here, but a drain must never terminate the daemon abnormally.
  }
  const auto flushed = service_.flush();
  if (!opt_.quiet)
    std::fprintf(stderr,
                 "addm_serve: drained after %llu requests (%zu entries flushed)\n",
                 static_cast<unsigned long long>(service_.requests_served()),
                 flushed.stored);
  return 0;
}

void Server::handle_connection(int fd) {
  char first = 0;
  if (::recv(fd, &first, 1, MSG_PEEK) == 1) serve(fd, codec_for_first_byte(first));
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (std::size_t i = 0; i < conn_fds_.size(); ++i) {
      if (conn_fds_[i] == fd) {
        conn_fds_[i] = conn_fds_.back();
        conn_fds_.pop_back();
        break;
      }
    }
  }
  ::close(fd);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
  note_activity();
}

void Server::serve(int fd, const Codec& codec) {
  const ByteSink send = [fd](std::string_view bytes) { return write_all(fd, bytes); };
  RecvBuffer in;
  char tmp[64 * 1024];
  for (;;) {
    Request req;
    Reply reply;
    const Cut cut = codec.cut_request(in, req, reply.error);
    if (cut == Cut::kNeedMore) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;  // EOF (including the drain's SHUT_RD) or error
      }
      in.bytes.append(tmp, static_cast<std::size_t>(n));
      note_activity();
      continue;
    }
    // A rejected request is answered with its error and the connection
    // goes on; after a fatal cut it closes behind the error.
    if (cut == Cut::kMessage) reply = answer(req);
    if (!codec.send_reply(req.kind, reply, send) || cut == Cut::kFatal ||
        stopping_.load(std::memory_order_relaxed))
      return;
  }
}

Reply Server::answer(const Request& req) {
  Reply reply;
  switch (req.kind) {
    case RequestKind::kPing:
      reply.ok = true;
      reply.body = service_.ping();
      break;
    case RequestKind::kAdmin: {
      ExploreService::AdminOutcome out = service_.admin(req.admin_command);
      if (out.shutdown) request_stop();
      reply.ok = out.ok;
      reply.error = std::move(out.error);
      reply.body = std::move(out.output);
      break;
    }
    case RequestKind::kExplore: {
      ExploreService::ExploreOutcome out = service_.explore(req.explore);
      reply.ok = out.ok;
      reply.error = std::move(out.error);
      reply.body = std::move(out.report);
      reply.summary = out.summary;
      break;
    }
  }
  if (opt_.max_requests != 0 && service_.requests_served() >= opt_.max_requests)
    request_stop();
  return reply;
}

}  // namespace addm::serve
