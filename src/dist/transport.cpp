#include "dist/transport.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace eigenmaps::dist {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::set_recv_timeout(int timeout_ms) {
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)) !=
      0) {
    throw_errno("setsockopt SO_RCVTIMEO");
  }
}

RecvStatus Socket::send_all(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EPIPE / ECONNRESET / a shut-down socket: the peer is gone.
    return RecvStatus::kClosed;
  }
  return RecvStatus::kOk;
}

RecvStatus Socket::recv_exact(void* data, std::size_t size) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd_, bytes + got, size - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EOF (n == 0), reset, shutdown, or EAGAIN from the receive deadline.
    return RecvStatus::kClosed;
  }
  return RecvStatus::kOk;
}

RecvStatus MessageConnection::send(MessageType type,
                                   const std::vector<std::uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(send_mutex_);
  WireHeader header;
  header.type = static_cast<std::uint16_t>(type);
  header.payload_bytes = payload.size();
  // One coalesced write per frame: interleaving-safe under the send mutex
  // and avoids a small-header syscall before every payload.
  send_frame_.resize(WireHeader::kBytes + payload.size());
  encode_header(header, send_frame_.data());
  if (!payload.empty()) {
    std::memcpy(send_frame_.data() + WireHeader::kBytes, payload.data(),
                payload.size());
  }
  return socket_.send_all(send_frame_.data(), send_frame_.size());
}

RecvStatus MessageConnection::recv(MessageType& type,
                                   std::vector<std::uint8_t>& payload) {
  std::uint8_t header_bytes[WireHeader::kBytes];
  if (socket_.recv_exact(header_bytes, sizeof(header_bytes)) !=
      RecvStatus::kOk) {
    return RecvStatus::kClosed;
  }
  const WireHeader header = decode_header(header_bytes);
  payload.resize(header.payload_bytes);
  if (header.payload_bytes > 0 &&
      socket_.recv_exact(payload.data(), payload.size()) != RecvStatus::kOk) {
    return RecvStatus::kClosed;  // peer died mid-frame: same as died cleanly
  }
  type = static_cast<MessageType>(header.type);
  return RecvStatus::kOk;
}

}  // namespace eigenmaps::dist
