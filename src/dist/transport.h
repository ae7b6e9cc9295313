// Local-socket transport under the shard protocol: RAII sockets and
// MessageConnection — one framed, thread-safe message channel per worker
// life, over the socketpair the router makes when it spawns that life
// (DESIGN.md §12).
//
// Failure taxonomy, kept deliberately narrow:
//  - RecvStatus::kClosed — the peer went away (EOF between frames, EPIPE,
//    ECONNRESET) or stayed silent past the receive deadline. The normal
//    death signal; the router funnels every shard failure through it.
//  - ProtocolError — the bytes are wrong (bad magic, truncated payload).
//    Never expected from a healthy same-build peer.
//  - TransportError — the local syscall layer failed (socketpair(),
//    fork(), setsockopt()).
#ifndef EIGENMAPS_DIST_TRANSPORT_H
#define EIGENMAPS_DIST_TRANSPORT_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/protocol.h"

namespace eigenmaps::dist {

/// Local syscall failure (socketpair/fork/setsockopt), with errno text.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class RecvStatus {
  kOk,
  kClosed,  // EOF, reset or receive deadline: the one "shard died" signal
};

/// RAII file descriptor for a connected stream socket. Movable, not
/// copyable; closes on destruction. send/recv loop over partial transfers
/// and report peer death as kClosed instead of raising SIGPIPE (every send
/// uses MSG_NOSIGNAL).
class Socket {
 public:
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  int fd() const { return fd_; }
  void close();

  /// Half-closes both directions without releasing the fd: a blocked
  /// recv_exact or send_all in another thread wakes with kClosed. How the
  /// router wakes a slot thread at shutdown and producers blocked on a
  /// dead worker.
  void shutdown_both();

  /// Bounds each later wait in recv_exact: no byte for `timeout_ms` ends it
  /// with kClosed (the kernel's EAGAIN), so a silent peer takes the same
  /// path as a dead one. Throws TransportError.
  void set_recv_timeout(int timeout_ms);

  /// Writes all `size` bytes or reports the peer gone. Partial writes are
  /// retried; EINTR is transparent.
  RecvStatus send_all(const void* data, std::size_t size);

  /// Reads exactly `size` bytes, or kClosed on EOF, reset or the receive
  /// deadline. EOF after some bytes of a frame were read is still kClosed
  /// — the caller decides whether a mid-frame cut matters
  /// (MessageConnection treats both the same: the peer is gone).
  RecvStatus recv_exact(void* data, std::size_t size);

 private:
  int fd_ = -1;
};

/// One protocol frame channel over a Socket.
///
/// Threading contract: send() is serialized by an internal mutex — any
/// thread may send (producers, the swap broadcaster, the heartbeat thread).
/// recv() must only be called from ONE thread (the router's slot thread /
/// the worker main loop); it keeps per-call scratch unsynchronized for the
/// hot path. shutdown() may be called from any thread to wake the reader.
class MessageConnection {
 public:
  explicit MessageConnection(Socket socket) : socket_(std::move(socket)) {}

  void shutdown() { socket_.shutdown_both(); }
  void set_recv_timeout(int timeout_ms) {
    socket_.set_recv_timeout(timeout_ms);
  }

  /// Frames and writes one message. kClosed when the peer is gone; the
  /// frame is either fully written or the connection is dead — no partial
  /// frame is ever left mid-stream by this side.
  RecvStatus send(MessageType type, const std::vector<std::uint8_t>& payload);

  /// Reads one frame into `type` and `payload` (reused across calls —
  /// zero-allocation once warm). kClosed on EOF, reset, EOF mid-frame or
  /// the receive deadline; ProtocolError on malformed bytes. Single-reader
  /// only.
  RecvStatus recv(MessageType& type, std::vector<std::uint8_t>& payload);

 private:
  Socket socket_;
  std::mutex send_mutex_;
  std::vector<std::uint8_t> send_frame_;  // header + payload, coalesced
};

}  // namespace eigenmaps::dist

#endif  // EIGENMAPS_DIST_TRANSPORT_H
