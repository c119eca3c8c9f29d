// Client side of the addm_serve protocol: one blocking connection, one
// request/reply exchange per call.  Used by tools/addm_client, perfbench,
// and the in-process server tests.
//
// Two transports (Unix-domain path or TCP loopback) × two codecs (binary
// framing, default; JSON lines via set_json_mode) — the reply is identical
// either way because both codecs carry the same request model
// (serve/protocol.hpp).
#pragma once

#include <string>
#include <string_view>
#include <utility>

#include "serve/protocol.hpp"

namespace addm::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ServeClient(ServeClient&& other) noexcept { *this = std::move(other); }
  ServeClient& operator=(ServeClient&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      codec_ = other.codec_;
      in_ = std::move(other.in_);
      other.fd_ = -1;
    }
    return *this;
  }

  /// Closes the connection (destructor does this too).
  void close();

  /// Connects over a Unix-domain socket / TCP loopback.  Returns false
  /// with `error` on failure; the client is then unusable.
  bool connect_unix(const std::string& path, std::string& error);
  bool connect_tcp(const std::string& host, int port, std::string& error);

  /// Switches this connection to the JSON-lines fallback mode.  Must be
  /// called before the first request (the server locks the mode onto the
  /// first byte it sees).
  void set_json_mode(bool on) { codec_ = on ? &kJsonLineCodec : &kFrameCodec; }

  bool connected() const { return fd_ >= 0; }

  /// Result of one request (serve/protocol.hpp).  Transport failures are
  /// reported separately through the bool return + `transport_error`.
  using Result = Reply;

  /// Sends one request and reads its whole reply (an explore report's
  /// kChunk frames concatenated into `out.body`).  Returns false only on a
  /// transport/protocol failure; a request the server failed is `!out.ok`.
  bool exchange(const Request& req, Reply& out, std::string& transport_error);

  /// Runs one explore request to completion.
  bool explore(const ExploreRequest& req, Result& out,
               std::string& transport_error);

  /// Runs one admin command ("stats", "compact", "prune E B", "flush",
  /// "shutdown").
  bool admin(std::string_view command, Result& out,
             std::string& transport_error);

  /// Liveness probe; fills `banner` with the server banner.  A ping the
  /// server fails is a transport error here.
  bool ping(std::string& banner, std::string& transport_error);

 private:
  bool send_all(std::string_view data, std::string& error);

  int fd_ = -1;
  const Codec* codec_ = &kFrameCodec;
  RecvBuffer in_;
};

}  // namespace addm::serve
