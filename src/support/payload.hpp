#pragma once

// Payload: the zero-copy message-payload carrier of the MPI substrate.
//
// A payload is an immutable byte sequence captured once at send time and
// shared by reference from there on: the sender's message log, the in-flight
// envelope, and the receiver's request all point at the same bytes. Two
// representations keep the common cases allocation-free:
//
//  * small-buffer optimization: payloads up to kInlineCapacity bytes (the
//    replication protocol's control messages, headers, scalars) live inline
//    in the Payload object itself — copying one is a memcpy, never a malloc;
//  * pooled refcounted buffers: larger payloads live in a shared heap block
//    whose backing vector is recycled through a process-wide free list when
//    the last reference drops, so steady-state message traffic reuses
//    capacity instead of hitting the allocator per message.
//
// Buffer-recycling contract: bytes handed to Payload are copied exactly once
// (at construction); all further moves/copies/suffix views share the block.
// A block returns to the pool only when its refcount reaches zero, and
// take_buffer() moves the backing vector out without copying when the caller
// holds the sole reference.
//
// Threading: the free list is *thread-local*, so concurrent simulations on
// separate OS threads (see support::TaskPool) recycle buffers without a
// shared lock or false sharing — each thread's message traffic feeds its own
// pool. A block released on a different thread than it was acquired on
// simply lands in the releasing thread's pool (blocks are plain heap
// allocations, so that is safe); under the simulator's thread-confinement
// contract payloads never actually cross threads. Refcounts stay atomic as a
// belt-and-braces measure for payloads explicitly shared across threads
// (e.g., the pool stress tests).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>

#include "support/buffer.hpp"
#include "support/error.hpp"

namespace repmpi::support {

class Payload {
 public:
  /// Inline capacity, sized to fit the replication protocol's control
  /// messages (NACK/replay requests) and collective scalars.
  static constexpr std::size_t kInlineCapacity = 40;

  Payload() noexcept : size_(0), offset_(0), heap_(false) {}

  /// Captures a copy of `bytes` (the single copy a payload ever makes).
  explicit Payload(std::span<const std::byte> bytes)
      : Payload(concat(bytes, {})) {}

  /// Captures `a` followed by `b` in one buffer (header + body sends). A
  /// heap block is filled by appending into its (recycled) capacity, so the
  /// bytes are written once, never zero-filled first.
  static Payload concat(std::span<const std::byte> a,
                        std::span<const std::byte> b) {
    Payload p;
    const std::size_t n = a.size() + b.size();
    REPMPI_CHECK_MSG(n <= UINT32_MAX,
                     "payload of " << n << " bytes exceeds the 4 GiB limit");
    p.size_ = static_cast<std::uint32_t>(n);
    p.heap_ = n > kInlineCapacity;
    if (p.heap_) {
      p.rep_.shared = acquire(n);
      Buffer& dst = p.rep_.shared->bytes;
      dst.insert(dst.end(), a.begin(), a.end());
      dst.insert(dst.end(), b.begin(), b.end());
    } else {
      if (!a.empty()) std::memcpy(p.rep_.inline_bytes, a.data(), a.size());
      if (!b.empty())
        std::memcpy(p.rep_.inline_bytes + a.size(), b.data(), b.size());
    }
    return p;
  }

  Payload(const Payload& o) noexcept
      : size_(o.size_), offset_(o.offset_), heap_(o.heap_) {
    if (heap_) {
      rep_.shared = o.rep_.shared;
      rep_.shared->refs.fetch_add(1, std::memory_order_relaxed);
    } else if (size_ > 0) {
      std::memcpy(rep_.inline_bytes, o.rep_.inline_bytes, size_);
    }
  }

  Payload(Payload&& o) noexcept
      : size_(o.size_), offset_(o.offset_), heap_(o.heap_) {
    if (heap_) {
      rep_.shared = o.rep_.shared;
    } else if (size_ > 0) {
      std::memcpy(rep_.inline_bytes, o.rep_.inline_bytes, size_);
    }
    o.detach();
  }

  Payload& operator=(const Payload& o) noexcept {
    if (this != &o) {
      drop_ref();
      new (this) Payload(o);
    }
    return *this;
  }

  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      drop_ref();
      new (this) Payload(std::move(o));
    }
    return *this;
  }

  ~Payload() { drop_ref(); }

  const std::byte* data() const {
    return heap_ ? rep_.shared->bytes.data() + offset_ : rep_.inline_bytes;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<const std::byte> span() const { return {data(), size_}; }
  operator std::span<const std::byte>() const { return span(); }

  /// Shared view of the bytes from `off` on — no copy for heap payloads
  /// (used to strip protocol headers without touching the body).
  Payload suffix(std::size_t off) const {
    REPMPI_CHECK(off <= size_);
    if (!heap_) return Payload(std::span<const std::byte>(data() + off,
                                                          size_ - off));
    Payload p(*this);
    p.offset_ += static_cast<std::uint32_t>(off);
    p.size_ -= static_cast<std::uint32_t>(off);
    return p;
  }

  /// Extracts the bytes as an owned Buffer. Moves the backing vector out
  /// (zero copy) when this is the sole reference to a heap block; copies
  /// otherwise (inline or still-shared payloads).
  Buffer take_buffer() && {
    Buffer out;
    if (heap_ && rep_.shared->refs.load(std::memory_order_acquire) == 1) {
      Buffer& b = rep_.shared->bytes;
      if (offset_ > 0)
        b.erase(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(offset_));
      b.resize(size_);
      out = std::move(b);
      release(rep_.shared);
      detach();
    } else {
      out.assign(data(), data() + size_);
      drop_ref();
      detach();
    }
    return out;
  }

  struct PoolStats {
    std::uint64_t blocks_allocated = 0;  ///< heap blocks created with new
    std::uint64_t blocks_reused = 0;     ///< heap blocks served from the pool
    std::size_t pooled_now = 0;          ///< blocks currently on the free list
  };

  /// Statistics of the *calling thread's* buffer pool.
  static PoolStats pool_stats() {
    Pool& p = pool();
    return {p.allocated, p.reused, p.count};
  }

 private:
  struct Shared {
    std::atomic<std::uint32_t> refs{1};
    Buffer bytes;
    Shared* next_free = nullptr;
  };

  struct Pool {
    Shared* head = nullptr;
    std::size_t count = 0;
    std::uint64_t allocated = 0;
    std::uint64_t reused = 0;
    ~Pool() {
      while (head != nullptr) {
        Shared* next = head->next_free;
        delete head;
        head = next;
      }
    }
  };

  static constexpr std::size_t kMaxPooledBlocks = 256;
  static constexpr std::size_t kMaxRetainedCapacity = 4u << 20;

  /// One free list per thread: no lock on the per-message hot path, no
  /// cache-line ping-pong between concurrent simulations. Freed at thread
  /// exit by the Pool destructor.
  static Pool& pool() {
    thread_local Pool p;
    return p;
  }

  static Shared* acquire(std::size_t n) {
    Pool& pl = pool();
    Shared* s = nullptr;
    if (pl.head != nullptr) {
      s = pl.head;
      pl.head = s->next_free;
      --pl.count;
      ++pl.reused;
    } else {
      ++pl.allocated;
      s = new Shared();
    }
    s->refs.store(1, std::memory_order_relaxed);
    s->next_free = nullptr;
    s->bytes.reserve(n);  // empty: the caller appends the captured bytes
    return s;
  }

  static void release(Shared* s) {
    s->bytes.clear();  // keeps capacity for the next acquire
    Pool& pl = pool();
    if (pl.count < kMaxPooledBlocks &&
        s->bytes.capacity() <= kMaxRetainedCapacity) {
      s->next_free = pl.head;
      pl.head = s;
      ++pl.count;
      return;
    }
    delete s;
  }

  void drop_ref() noexcept {
    if (heap_ &&
        rep_.shared->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      release(rep_.shared);
    }
  }

  // Resets to empty WITHOUT dropping a reference (caller already did, or
  // transferred it).
  void detach() noexcept {
    size_ = 0;
    offset_ = 0;
    heap_ = false;
  }

  union Rep {
    Shared* shared;
    std::byte inline_bytes[kInlineCapacity];
    Rep() {}  // NOLINT: members are managed by Payload's flag
  } rep_;
  std::uint32_t size_;
  std::uint32_t offset_;  ///< view offset into the heap block (heap only)
  bool heap_;
};

}  // namespace repmpi::support
