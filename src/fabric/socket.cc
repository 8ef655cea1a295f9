#include "fabric/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/bytes.h"
#include "storage/wire.h"

namespace bgpbh::fabric {

TcpConn& TcpConn::operator=(TcpConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

std::optional<TcpConn> TcpConn::dial(const std::string& host,
                                     std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return std::nullopt;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConn(fd);
}

void TcpConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpConn::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool TcpConn::readable() const {
  pollfd pfd{fd_, POLLIN, 0};
  return fd_ >= 0 && ::poll(&pfd, 1, 0) > 0;
}

bool TcpConn::send_all(const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool TcpConn::recv_all(std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    ssize_t r = ::recv(fd_, p, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // peer EOF
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool TcpConn::send_frame(FrameType type, std::span<const std::uint8_t> body) {
  if (fd_ < 0) return false;
  net::BufWriter payload;
  payload.u8(static_cast<std::uint8_t>(type));
  payload.bytes(body);
  net::BufWriter frame;
  storage::wire::encode_frame(frame, kFabricMagic, kFabricVersion,
                              payload.data());
  return send_all(frame.data().data(), frame.size());
}

std::optional<TcpConn::FramePayload> TcpConn::recv_frame() {
  if (fd_ < 0) return std::nullopt;
  // Header first (magic + version + payload_len), then the rest of the
  // frame, then one decode_frame pass over the whole buffer so the CRC
  // check is exactly the record codec's.
  std::uint8_t head[7];
  if (!recv_all(head, sizeof(head))) return std::nullopt;
  std::uint16_t magic =
      static_cast<std::uint16_t>((head[0] << 8) | head[1]);
  std::uint32_t len = (static_cast<std::uint32_t>(head[3]) << 24) |
                      (static_cast<std::uint32_t>(head[4]) << 16) |
                      (static_cast<std::uint32_t>(head[5]) << 8) |
                      static_cast<std::uint32_t>(head[6]);
  if (magic != kFabricMagic || len > kMaxFabricPayload) return std::nullopt;
  std::vector<std::uint8_t> frame(sizeof(head) + len + 4);
  std::memcpy(frame.data(), head, sizeof(head));
  if (!recv_all(frame.data() + sizeof(head), len + 4)) return std::nullopt;
  net::BufReader reader(frame);
  auto decoded = storage::wire::decode_frame(reader, kFabricMagic,
                                             kFabricVersion,
                                             kFabricVersion,
                                             kMaxFabricPayload);
  if (!decoded || decoded->payload.empty()) return std::nullopt;
  FramePayload out;
  out.type = static_cast<FrameType>(decoded->payload[0]);
  out.body.assign(decoded->payload.begin() + 1, decoded->payload.end());
  return out;
}

std::optional<TcpListener> TcpListener::listen(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  TcpListener out;
  out.fd_ = fd;
  out.port_ = ntohs(addr.sin_port);
  return out;
}

std::optional<TcpConn> TcpListener::accept() {
  if (fd_ < 0) return std::nullopt;
  for (;;) {
    int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      int one = 1;
      ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpConn(conn);
    }
    if (errno == EINTR) continue;
    return std::nullopt;  // shutdown() or fatal error
  }
}

void TcpListener::shutdown() {
  // SHUT_RDWR on a listening socket wakes a blocked accept() with an
  // error (the portable way to interrupt it without a self-pipe).
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace bgpbh::fabric
