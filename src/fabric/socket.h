// Minimal blocking TCP transport for the fabric protocol.
//
// One frame per send/recv, framed by storage::wire (the record codec's
// framing) with the fabric magic.  Connections are blocking and
// processed strictly in order on both sides, so a lane's APPEND acks
// always arrive in send order — the router's bounded in-flight window
// needs no reader thread.  All failures are returned, never thrown:
// the router turns them into reconnect-with-replay, the server closes
// the connection.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fabric/protocol.h"

namespace bgpbh::fabric {

class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(int fd) : fd_(fd) {}
  ~TcpConn() { close(); }
  TcpConn(TcpConn&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpConn& operator=(TcpConn&& other) noexcept;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  // Dotted-quad IPv4 host (collector-fleet deployments resolve names
  // out of band).  TCP_NODELAY is set: frames are already batched.
  static std::optional<TcpConn> dial(const std::string& host,
                                     std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();
  // Half-close from another thread; wakes a blocked recv.
  void shutdown();
  // True when a recv would not block: data, EOF or an error is waiting.
  bool readable() const;

  struct FramePayload {
    FrameType type;
    std::vector<std::uint8_t> body;  // payload minus the type byte
  };

  bool send_frame(FrameType type, std::span<const std::uint8_t> body);
  // nullopt on EOF, I/O error, or any framing/CRC defect.
  std::optional<FramePayload> recv_frame();

 private:
  bool send_all(const std::uint8_t* p, std::size_t n);
  bool recv_all(std::uint8_t* p, std::size_t n);

  int fd_ = -1;
};

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { close(); }
  TcpListener(TcpListener&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
  }
  TcpListener& operator=(TcpListener&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      port_ = other.port_;
      other.fd_ = -1;
    }
    return *this;
  }
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds 0.0.0.0:`port` with SO_REUSEADDR (0 = ephemeral; the bound
  // port is readable via port(), shard_server prints it on stdout).
  static std::optional<TcpListener> listen(std::uint16_t port);

  std::uint16_t port() const { return port_; }
  // nullopt once shutdown() was called (or on a fatal accept error).
  std::optional<TcpConn> accept();
  // Wakes a blocked accept(); safe from another thread.
  void shutdown();
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace bgpbh::fabric
