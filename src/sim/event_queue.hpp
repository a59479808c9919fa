#pragma once

// Timed-event queue for the DES scheduler: a binary min-heap of pooled
// event nodes ordered by (t, seq).
//
// Ordering contract (load-bearing for determinism): pops follow strict
// (t, seq) order — virtual time first, globally monotonic sequence number as
// the tie-break. Sequence numbers are unique, so the order is total and the
// pop sequence is fully determined by the pushes. Same-time events scheduled
// *at* the current instant never reach this queue at all: the Simulator
// keeps them in a separate FIFO ready lane (see simulator.hpp) and merges
// the two lanes by (t, seq) when dispatching. What remains here is small —
// tens of events in flight on the benchmark workloads — so a plain heap is
// only a few levels deep.
//
// Not thread-safe; instance-local like everything else in the substrate.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace repmpi::sim {

/// Virtual time in seconds (mirror of the alias in simulator.hpp).
using Time = double;

/// Simulated process id (mirror of the alias in simulator.hpp).
using Pid = int;

inline constexpr Pid kNoPidValue = -1;

/// Pooled event: either a process resume (resume != kNoPidValue) or a
/// callback stored in `storage` (inline if it fits, else a heap-boxed
/// pointer installed by Simulator::attach_callable). `next` doubles as the
/// free-list link when the node is pooled and as the ready-lane FIFO link
/// while the node waits at the current timestamp.
struct EventNode {
  static constexpr std::size_t kInlineBytes = 112;

  Time t = 0;
  std::uint64_t seq = 0;
  Pid resume = kNoPidValue;
  void (*run)(EventNode&) = nullptr;   ///< invokes and destroys the callable
  void (*drop)(EventNode&) = nullptr;  ///< destroys it without invoking
  EventNode* next = nullptr;           ///< free-list / ready-lane link
  /// Engine-internal bookkeeping event (timed crashes and the job-failure
  /// abort): dispatched normally but excluded from the events_executed
  /// counter.
  bool no_count = false;
  alignas(std::max_align_t) std::byte storage[kInlineBytes];
};

/// Strict-weak order "a after b" on (t, seq). Used as a `greater`-style
/// comparator: a heap built with it is a min-heap.
struct EventAfter {
  bool operator()(const EventNode* a, const EventNode* b) const {
    if (a->t != b->t) return a->t > b->t;
    return a->seq > b->seq;
  }
};

class EventHeap {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Inserts `n` (fields t/seq already set).
  void push(EventNode* n) {
    heap_.push_back(n);
    std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  }

  /// Minimum (t, seq) event, or nullptr when empty.
  EventNode* peek() const { return heap_.empty() ? nullptr : heap_.front(); }

  EventNode* pop() {
    if (heap_.empty()) return nullptr;
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    EventNode* n = heap_.back();
    heap_.pop_back();
    return n;
  }

  /// Hands every queued node to `f` in unspecified order and empties the
  /// queue (teardown path: callables still own resources).
  template <typename F>
  void drain(F&& f) {
    for (EventNode* n : heap_) f(n);
    heap_.clear();
  }

 private:
  std::vector<EventNode*> heap_;
};

}  // namespace repmpi::sim
