#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace addm::serve {

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ServeClient::connect_unix(const std::string& path, std::string& error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    error = "socket path too long: " + path;
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error = "connect " + path + ": " + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool ServeClient::connect_tcp(const std::string& host, int port,
                              std::string& error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    error = "bad IPv4 address: " + host;
    return false;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error = "connect " + host + ":" + std::to_string(port) + ": " +
            std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool ServeClient::send_all(std::string_view data, std::string& error) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool ServeClient::exchange(const Request& req, Reply& out,
                           std::string& transport_error) {
  out = Reply{};
  if (fd_ < 0) {
    transport_error = "not connected";
    return false;
  }
  if (!send_all(codec_->encode_request(req), transport_error)) return false;
  char tmp[64 * 1024];
  for (;;) {
    const Cut cut = codec_->cut_reply(in_, req.kind, out, transport_error);
    if (cut == Cut::kMessage) return true;
    if (cut != Cut::kNeedMore) return false;
    const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
    if (n == 0) {
      transport_error = "server closed the connection mid-reply";
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      transport_error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    in_.bytes.append(tmp, static_cast<std::size_t>(n));
  }
}

bool ServeClient::explore(const ExploreRequest& req, Result& out,
                          std::string& transport_error) {
  return exchange({RequestKind::kExplore, req, {}}, out, transport_error);
}

bool ServeClient::admin(std::string_view command, Result& out,
                        std::string& transport_error) {
  return exchange({RequestKind::kAdmin, {}, std::string(command)}, out, transport_error);
}

bool ServeClient::ping(std::string& banner, std::string& transport_error) {
  Reply reply;
  if (!exchange(Request{}, reply, transport_error)) return false;
  if (!reply.ok) {
    transport_error = "ping failed: ";
    transport_error += reply.error.code;
    return false;
  }
  banner = std::move(reply.body);
  return true;
}

}  // namespace addm::serve
