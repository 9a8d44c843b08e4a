// Lock-free single-producer / single-consumer ring, the ingest lane between
// the daemon's feed thread and each shard worker (the jittertrap
// fixed-rate-sampling ring generalized to typed records). Indices are
// monotonically increasing uint64s masked into a power-of-two slot array.
//
// Records move in runs. The producer stages records into free slots behind
// staged_, a cursor only it reads; Publish() makes the whole run visible
// with one release-store of tail_ and one notify. The consumer drains every
// published record and frees all their slots with one release-store of
// head_ and one notify. The producer keeps the last head_ it loaded in
// cached_head_ and re-reads head_ only when that cached view says the ring
// is full, so staging does not pull the consumer's cache line over on every
// record. Each side reads the other's cursor with acquire ordering, so a
// drained record is fully constructed and a reused slot is fully drained. Parking is C++20 atomic wait/notify — no mutexes, no
// clocks, no spinning of our own.
//
// Why runs: a wake costs a futex round trip on both threads. Handing a
// pair-day batch (~193 samples) over one record at a time parked and woke
// the worker per sample, ~0.8 us each: in traced perfbench ingest runs on
// a 4-vCPU Xeon host, one in-process SubmitBatch took ~170 us, against ~16
// us for decode, WAL append, ring copy, engine ingest and tsdb append
// together. A run pays the wake once, and the same submit takes ~15 us.
// The run length is the caller's choice: an ingest shard (serve/ingest.h)
// publishes every quarter ring, so one wake carries ~21 pair-day batches.
//
// Two rules keep the staged records from stranding:
//   publish-before-wait    a producer that finds the ring full publishes
//                          what it has staged before it parks on head_.
//                          The consumer can only free slots it can see;
//                          parking with an unpublished full ring would
//                          deadlock both threads. Stage() does this itself.
//   publish-before-marker  a record the producer will then wait on (a
//                          control marker whose effect it blocks for) goes
//                          out in the same Publish() as the records staged
//                          ahead of it — Push() is exactly Stage+Publish.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace manic::serve {

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return slots_.size(); }

  // Approximate count of published, undrained records (exact when called
  // from either endpoint's thread). Staged records are not counted until
  // they are published.
  std::size_t SizeApprox() const noexcept {
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t - h);
  }

  // The stage/publish/drain lanes are the per-sample fast path: no
  // allocation, no locks, no syscalls — only masked slot writes and atomic
  // cursor moves. The region below is fenced by the linter's hot-path
  // contract (tools/manic_lint, rule "hot-path"); atomic wait/notify is the
  // sanctioned parking primitive and stays outside the banned word lists.
  // manic-lint: hot-path(begin)

  // ---- producer side --------------------------------------------------------
  // Copies `value` into the next free slot without publishing it. Blocks
  // while every slot is staged or undrained — publishing first
  // (publish-before-wait).
  void Stage(const T& value) {
    std::uint64_t h = 0;
    while (!TryStage(value, &h)) {
      Publish();
      head_.wait(h, std::memory_order_acquire);
    }
  }

  // Makes every staged record visible to the consumer: one tail_ store and
  // one notify for the whole run, nothing when no record is staged.
  void Publish() {
    if (staged_ == tail_.load(std::memory_order_relaxed)) return;
    tail_.store(staged_, std::memory_order_release);
    tail_.notify_one();
  }

  // Records staged and not yet published. Producer thread only.
  std::size_t Staged() const noexcept {
    return static_cast<std::size_t>(staged_ -
                                    tail_.load(std::memory_order_relaxed));
  }

  // A run of one. False (nothing staged) when the ring is full.
  bool TryPush(const T& value) {
    std::uint64_t h = 0;
    if (!TryStage(value, &h)) return false;
    Publish();
    return true;
  }

  // A run of one; blocks until the consumer makes room.
  void Push(const T& value) {
    Stage(value);
    Publish();
  }

  // ---- consumer side --------------------------------------------------------
  // Hands every published record to `fn(T&)` in order, then frees all their
  // slots with one head_ store. Returns the number handled (0 when empty).
  template <typename Fn>
  std::size_t DrainRun(Fn&& fn) {
    return DrainUpTo(std::numeric_limits<std::size_t>::max(), fn);
  }

  // DrainRun, parking on tail_ until at least one record is published.
  template <typename Fn>
  std::size_t DrainRunBlocking(Fn&& fn) {
    for (;;) {
      const std::size_t n = DrainRun(fn);
      if (n > 0) return n;
      // DrainRun saw tail_ == head_; sleep until tail_ moves off that value.
      tail_.wait(head_.load(std::memory_order_relaxed),
                 std::memory_order_acquire);
    }
  }

  // A drain of at most one record.
  bool TryPop(T* out) {
    return DrainUpTo(1, [out](T& v) { *out = std::move(v); }) == 1;
  }

 private:
  // The one producer index path: stages `value` when a slot is free;
  // otherwise leaves the consumer cursor it saw in *seen_head (the value to
  // park on) and returns false.
  bool TryStage(const T& value, std::uint64_t* seen_head) {
    if (staged_ - cached_head_ == slots_.size()) {
      // Full as last seen: the consumer may have freed slots since.
      cached_head_ = head_.load(std::memory_order_acquire);
      *seen_head = cached_head_;
      if (staged_ - cached_head_ == slots_.size()) return false;  // full
    }
    slots_[staged_ & mask_] = value;
    ++staged_;
    return true;
  }

  // The one consumer index path.
  template <typename Fn>
  std::size_t DrainUpTo(std::size_t max, Fn&& fn) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    const std::uint64_t n =
        std::min<std::uint64_t>(t - h, static_cast<std::uint64_t>(max));
    for (std::uint64_t i = h; i != h + n; ++i) fn(slots_[i & mask_]);
    if (n > 0) {
      head_.store(h + n, std::memory_order_release);
      head_.notify_one();
    }
    return static_cast<std::size_t>(n);
  }
  // manic-lint: hot-path(end)

  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer cursor
  // The producer's line: the published cursor, the staging cursor and the
  // cached consumer cursor are all written by the producer alone, so
  // sharing a line costs them nothing; the consumer reads tail_ once per
  // drained run, never while the producer stages.
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // published cursor
  std::uint64_t staged_ = 0;       // producer-only: staged_ >= tail_
  std::uint64_t cached_head_ = 0;  // producer-only: a past head_, <= head_
  // Line-aligned so the producer's cursors do not share their cache line
  // with the slot/mask metadata both endpoints read on every op.
  alignas(64) std::vector<T> slots_;
  std::size_t mask_ = 0;
};

}  // namespace manic::serve
