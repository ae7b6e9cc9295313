#include "dist/result_arena.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "dist/transport.h"

namespace eigenmaps::dist {

/// Shared between the two processes, so only lock-free (address-free)
/// atomics live here.
struct ResultArena::Header {
  /// Results the router has released, mod 2^32.
  std::atomic<std::uint32_t> released{0};
  /// Futex word: 1 while the worker sleeps on a full ring.
  std::atomic<std::uint32_t> waiting{0};
};
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
static_assert(kArenaHeaderBytes % kResultAlign == 0);

namespace {

/// Largest ring: header plus ring fill the reserved address space.
constexpr std::uint64_t kMaxRingBytes = kMaxPayloadBytes - kArenaHeaderBytes;

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError("result arena: " + what + ": " + std::strerror(errno));
}

std::uint8_t* map_arena(int fd) {
  void* base = ::mmap(nullptr, kMaxPayloadBytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_NORESERVE, fd, 0);
  if (base == MAP_FAILED) return nullptr;
  return static_cast<std::uint8_t*>(base);
}

std::uint32_t* futex_word(std::atomic<std::uint32_t>& word) {
  return reinterpret_cast<std::uint32_t*>(&word);
}

}  // namespace

ResultArena::ResultArena(int fd, std::uint8_t* base) : fd_(fd), base_(base) {}

std::unique_ptr<ResultArena> ResultArena::create() {
  static_assert(sizeof(Header) <= kArenaHeaderBytes);
  const int fd = ::memfd_create("eigenmaps-results",
                                MFD_CLOEXEC | MFD_ALLOW_SEALING);
  if (fd < 0) throw_errno("memfd_create");
  std::uint8_t* base = nullptr;
  if (::ftruncate(fd, kArenaHeaderBytes) != 0 ||
      ::fcntl(fd, F_ADD_SEALS, F_SEAL_SHRINK) != 0 ||
      (base = map_arena(fd)) == nullptr) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("create");
  }
  new (base) Header();
  return std::unique_ptr<ResultArena>(new ResultArena(fd, base));
}

std::unique_ptr<ResultArena> ResultArena::adopt(int fd) {
  std::uint8_t* base = map_arena(fd);
  if (base == nullptr) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("mmap of fd " + std::to_string(fd));
  }
  return std::unique_ptr<ResultArena>(new ResultArena(fd, base));
}

ResultArena::~ResultArena() {
  ::munmap(base_, kMaxPayloadBytes);
  ::close(fd_);
}

ResultArena::Header& ResultArena::header() const {
  return *std::launder(reinterpret_cast<Header*>(base_));
}

numerics::ConstMatrixView ResultArena::view(const ResultMsg& msg) {
  if (msg.rows == 0 || msg.cols == 0) {
    throw ProtocolError("dist: result descriptor with no rows or columns");
  }
  if (msg.offset % kResultAlign != 0) {
    throw ProtocolError("dist: misaligned result offset");
  }
  // Divide, never multiply: rows * cols * 8 wraps for wire values near
  // 2^61, which would slip a huge view past the bounds check.
  const auto inside = [&] {
    return msg.offset <= ring_bytes_ &&
           msg.cols <= (ring_bytes_ - msg.offset) / sizeof(double) / msg.rows;
  };
  if (!inside()) {
    // The worker may have grown the file since the last look. The shrink
    // seal makes any size fstat reports safe to read from then on; the
    // reservation caps it, whatever the file claims.
    struct stat st {};
    if (::fstat(fd_, &st) != 0) throw_errno("fstat");
    const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
    ring_bytes_ = std::min(file_bytes, kMaxPayloadBytes) - kArenaHeaderBytes;
    if (!inside()) {
      throw ProtocolError("dist: result descriptor lies past the arena");
    }
  }
  return numerics::ConstMatrixView(
      reinterpret_cast<const double*>(ring() + msg.offset),
      static_cast<std::size_t>(msg.rows), static_cast<std::size_t>(msg.cols),
      static_cast<std::size_t>(msg.cols));
}

void ResultArena::release() {
  Header& h = header();
  h.released.fetch_add(1);
  if (h.waiting.exchange(0) != 0) {
    ::syscall(SYS_futex, futex_word(h.waiting), FUTEX_WAKE, 1, nullptr,
              nullptr, 0);
  }
}

template <class Ready>
bool ResultRing::wait_until(Ready ready) {
  ResultArena::Header& h = arena_.header();
  for (;;) {
    const std::uint32_t released = h.released.load();
    reclaim(released);
    if (ready()) return true;
    if (closed_.load()) return false;
    // Announce the sleep, then look again: a release (or close) racing the
    // announcement either shows in this second look or finds waiting == 1
    // and wakes the futex, so no wake-up is lost.
    h.waiting.store(1);
    if (h.released.load() != released || closed_.load()) continue;
    ::syscall(SYS_futex, futex_word(h.waiting), FUTEX_WAIT, 1, nullptr,
              nullptr, 0);
  }
}

std::optional<std::uint64_t> ResultRing::place(
    numerics::ConstMatrixView rows) {
  const std::uint64_t row_bytes = rows.cols() * sizeof(double);
  const std::uint64_t bytes =
      (rows.rows() * row_bytes + kResultAlign - 1) / kResultAlign *
      kResultAlign;
  if (bytes > kMaxRingBytes / kRingSlots) {
    throw std::length_error("result arena: result larger than any ring");
  }
  if (bytes * kRingSlots > capacity_) {
    // Grow only while empty: no live region straddles the old end, and the
    // next placement starts over at offset 0 of the larger ring.
    if (!wait_until([&] { return front_ == live_.size(); })) {
      return std::nullopt;
    }
    const std::uint64_t grown = bytes * kRingSlots;
    if (::ftruncate(arena_.fd(),
                    static_cast<off_t>(kArenaHeaderBytes + grown)) != 0) {
      throw_errno("ftruncate");
    }
    capacity_ = grown;
  }
  std::optional<std::uint64_t> offset;
  if (!wait_until([&] { return (offset = fit(bytes)).has_value(); })) {
    return std::nullopt;
  }
  std::uint8_t* out = arena_.ring() + *offset;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    std::memcpy(out + r * row_bytes, rows.row_data(r), row_bytes);
  }
  if (front_ > 0 && live_.size() == live_.capacity()) {
    live_.erase(live_.begin(), live_.begin() + front_);
    front_ = 0;
  }
  live_.push_back(*offset);
  head_ = *offset + bytes;
  return offset;
}

void ResultRing::close() {
  closed_.store(true);
  ResultArena::Header& h = arena_.header();
  h.waiting.store(0);
  ::syscall(SYS_futex, futex_word(h.waiting), FUTEX_WAKE, 1, nullptr, nullptr,
            0);
}

void ResultRing::reclaim(std::uint32_t released) {
  // Released in descriptor order, which is allocation order: the oldest
  // live regions are the free ones.
  while (reclaimed_ != released && front_ < live_.size()) {
    ++front_;
    ++reclaimed_;
  }
  if (front_ == live_.size()) {
    // Empty: rewind. Bytes skipped by a wrap were never live, so nothing
    // of them is left to wait for.
    live_.clear();
    front_ = 0;
    head_ = 0;
  }
}

std::optional<std::uint64_t> ResultRing::fit(std::uint64_t bytes) const {
  if (front_ == live_.size()) return 0;  // empty (capacity already fits)
  const std::uint64_t tail = live_[front_];
  if (head_ > tail) {
    // Live bytes are [tail, head_): append, or wrap if the front leaves
    // room at offset 0 (the bytes from head_ to the end are skipped).
    if (head_ + bytes <= capacity_) return head_;
    if (bytes <= tail) return 0;
    return std::nullopt;
  }
  // Wrapped: live bytes are [tail, end) and [0, head_).
  if (head_ + bytes <= tail) return head_;
  return std::nullopt;
}

}  // namespace eigenmaps::dist
