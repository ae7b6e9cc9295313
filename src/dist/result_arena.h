// The shard result arena (DESIGN.md §12): one shared-memory file per worker
// life, through which finished maps cross from a shard worker to the router.
// The worker copies each result's rows once into a FIFO byte ring in the
// arena and sends only a kResult descriptor; the router reads the rows in
// place and then releases them by bumping a counter in the arena header.
//
// Private to src/dist: the router and the worker include it, no public
// header does.
#ifndef EIGENMAPS_DIST_RESULT_ARENA_H
#define EIGENMAPS_DIST_RESULT_ARENA_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dist/protocol.h"
#include "numerics/matrix.h"

namespace eigenmaps::dist {

/// Bytes in front of ring offset 0: the shared header (release counter and
/// the worker's futex word), one cache line.
inline constexpr std::uint64_t kArenaHeaderBytes = 64;

/// One memfd mapped over kMaxPayloadBytes of reserved address space
/// (MAP_NORESERVE), in both processes. The file grows under the mapping, so
/// neither side ever remaps; the router seals it against shrinking, so a
/// size it has once observed stays safe to read.
///
/// The router creates it, maps it, and hands the fd to exactly one worker
/// life (every other child closes it on exec). The router calls view() and
/// release(); the worker places results through a ResultRing.
class ResultArena {
 public:
  /// Router side: memfd_create(MFD_CLOEXEC | MFD_ALLOW_SEALING), sized to
  /// the header, sealed with F_SEAL_SHRINK, mapped. Throws TransportError.
  static std::unique_ptr<ResultArena> create();
  /// Worker side: maps an inherited arena fd and owns it from here on.
  /// Throws TransportError.
  static std::unique_ptr<ResultArena> adopt(int fd);

  ~ResultArena();
  ResultArena(const ResultArena&) = delete;
  ResultArena& operator=(const ResultArena&) = delete;

  int fd() const { return fd_; }

  /// Router side: the rows a decoded descriptor names, straight into the
  /// mapping (valid until release()). Throws ProtocolError for zero rows or
  /// columns, a misaligned offset, or rows past the arena's size — checked
  /// overflow-free against the size fstat reports, refreshed only when a
  /// descriptor lies past the cached one — so a lying descriptor can never
  /// read out of bounds or fault.
  numerics::ConstMatrixView view(const ResultMsg& msg);

  /// Router side: frees the oldest unreleased result (descriptors are
  /// released in the order they arrive, which is the order they were
  /// placed) and wakes the worker if it waits on a full ring.
  void release();

 private:
  friend class ResultRing;
  struct Header;

  ResultArena(int fd, std::uint8_t* base);
  Header& header() const;
  std::uint8_t* ring() const { return base_ + kArenaHeaderBytes; }

  const int fd_;
  std::uint8_t* const base_;
  std::uint64_t ring_bytes_ = 0;  // router: last fstat size minus header
};

/// Worker side: a FIFO byte ring over the arena's ring bytes. Results go
/// in at 64-byte aligned offsets; a result that does not fit before the end
/// wraps to offset 0 if the oldest live result leaves room there. Whenever
/// the ring is empty the next result starts at offset 0 again, so light
/// load keeps rewriting the same cache-warm pages.
///
/// Capacity follows the largest result placed (kRingSlots of it) and the
/// file grows by ftruncate only while the ring is empty, so no live result
/// ever straddles the old end and no setting sizes it.
///
/// Not thread-safe: the worker serializes place() with the descriptor send
/// under one lock, so descriptor order equals allocation order. close() may
/// be called from any thread.
class ResultRing {
 public:
  static constexpr std::uint64_t kRingSlots = 4;

  explicit ResultRing(ResultArena& arena) : arena_(arena) {}
  ResultRing(const ResultRing&) = delete;
  ResultRing& operator=(const ResultRing&) = delete;

  /// Copies `rows` into the ring and returns their ring offset. Blocks
  /// while the ring is full (or must grow but is not empty); returns
  /// nullopt when the ring is closed while it would block. Throws
  /// std::length_error for a result no arena can hold, TransportError when
  /// the file cannot grow.
  std::optional<std::uint64_t> place(numerics::ConstMatrixView rows);

  /// The connection is gone: a place() that blocks, now or later, gives up.
  void close();

 private:
  /// Frees the regions the router has released since the last call.
  void reclaim(std::uint32_t released);
  /// Where `bytes` fit right now, if anywhere.
  std::optional<std::uint64_t> fit(std::uint64_t bytes) const;
  /// Reclaims and re-checks `ready` until it holds (true) or the ring is
  /// closed (false), sleeping on the header's futex word in between.
  template <class Ready>
  bool wait_until(Ready ready);

  ResultArena& arena_;
  std::uint64_t capacity_ = 0;  // ring bytes backed by the file
  std::uint64_t head_ = 0;      // end of the newest live region
  /// Offsets of live regions, oldest first from `front_` (a vector with a
  /// moving front keeps the hot path allocation-free once warm).
  std::vector<std::uint64_t> live_;
  std::size_t front_ = 0;
  std::uint32_t reclaimed_ = 0;  // releases consumed (mod 2^32)
  std::atomic<bool> closed_{false};
};

}  // namespace eigenmaps::dist

#endif  // EIGENMAPS_DIST_RESULT_ARENA_H
