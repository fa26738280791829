// Bounded ring buffers — the workload family where the paper's ABA price is
// sharpest, because the price *varies by role structure*:
//
//   SpscRing — one producer, one consumer (Lamport). The positions are
//       single-writer registers (the producer alone advances tail, the
//       consumer alone advances head), so there is NOTHING to CAS: every
//       operation is reads and writes only — zero shared RMW per op
//       (machine-checked by RingStepCount.SpscZeroRmwPerOp against the
//       Counted native platform's rmw counter). ABA prevention costs
//       nothing here because no location is ever contended.
//
//   MpscRing — producers CAS the tail to reserve a position; the single
//       consumer still advances head with a plain write. One RMW per push,
//       zero per pop.
//
//   MpmcRing — Vyukov-style: head and tail are CAS words, and every slot
//       carries a SEQUENCE WORD. The slot sequence is exactly the paper's
//       unbounded-tag construction in miniature (PAPER.md, Theorem 1's
//       trivial direction): the position a slot was last filled/emptied
//       *for* is stored alongside it, drawn from an unbounded monotonic
//       domain, so a stale reservation can never be mistaken for a fresh
//       one — the per-slot tag answers the head/tail ABA the way a bounded
//       tag provably cannot (the tag-wrap escapes bench_aba_escape
//       quantifies). The SPSC↔MPMC latency gap in E9 is that answer's
//       price, measured.
//
// All three are first-class structures over the Platform axis: SimPlatform
// for scheduled/model-checked tests, NativePlatform<Counted|Fast|...> for
// perf, ShmPlatform for cross-process use (construction is a deterministic
// word-placement sequence, so the arena layout hash matches across
// attachers). Position and sequence words are declared unbounded
// (sim::BoundSpec::unbounded()): boundedness is the whole subject, and
// declaring it keeps the simulator's width checks honest.
//
// Refusal contract (spec::BoundedQueueSpec, SpecKind::kRing): capacity is
// abstract state, so try_push may report full ONLY when the ring truly held
// `capacity` elements at some instant inside the operation — which is why
// the refusal paths below re-read the opposite position word and *retry*
// on the transient case (a reserver that has not yet published, a freeing
// pop mid-flight) instead of refusing. A Vyukov ring that refuses straight
// off the slot sequence is NOT linearizable against the strict bounded
// spec; the model-checker sweep over the ring_mpmc fixture is what pins
// this distinction. The MPSC push has its own illegal-refusal shape: a
// stale tail read with head already past it makes the unsigned occupancy
// underflow to "full" on a possibly-empty ring, so the full check is gated
// on head <= tail (RingScripted.MpscStaleTailDoesNotFakeFull and the
// RingMpscSim sweep walk exactly that window).
//
// LocalRing<T> at the bottom is the degenerate single-process member of the
// family (plain sequential code, no platform words). It exists so Figure
// 4's process-local usedQ (core/sequence_reservation.h) shares the one ring
// implementation without acquiring shared-memory steps — its accesses MUST
// stay off the platform-step ledger or the Figure 4 step counts change.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/platform.h"
#include "util/assert.h"
#include "util/cacheline.h"
#include "util/object_array.h"

namespace aba::structures {

namespace detail {

// Values travel through 64-bit platform words; any trivially copyable T
// that fits one word rides along via memcpy (bit-exact, alias-safe).
template <class T>
concept RingValue = std::is_trivially_copyable_v<T> &&
                    sizeof(T) <= sizeof(std::uint64_t);

template <RingValue T>
std::uint64_t ring_encode(const T& value) {
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    return value;
  } else {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof(T));
    return word;
  }
}

template <RingValue T>
T ring_decode(std::uint64_t word) {
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    return word;
  } else {
    T value;
    std::memcpy(&value, &word, sizeof(T));
    return value;
  }
}

// Slot count: the next power of two >= requested, floor 2. Power-of-two
// sizing turns position->slot mapping into a mask; the floor exists because
// a 1-slot Vyukov ring aliases the enqueue expectation (seq == t) with the
// dequeue expectation (seq == h+1) at t == h+1 — the one case where the
// per-slot tag cannot separate the two rounds.
inline std::size_t ring_slot_count(std::size_t requested) {
  ABA_CHECK(requested >= 1);
  return std::bit_ceil(requested < 2 ? std::size_t{2} : requested);
}

}  // namespace detail

// ---------------------------------------------------------------- SpscRing
//
// Lamport's classic: head and tail are monotonic positions, each written by
// exactly one role, so both are plain registers. The producer caches the
// consumer's head (and vice versa) and re-reads the shared word only when
// the cached value says full/empty — the common case costs one slot access
// plus one position write, and NO operation ever performs an RMW.
template <Platform P, detail::RingValue T = std::uint64_t>
class SpscRing {
 public:
  using value_type = T;

  // `n` is the process count (kept for the uniform structure constructor
  // shape; only two roles ever operate). Capacity rounds up to a power of
  // two, minimum 2; capacity() reports the usable (rounded) value.
  SpscRing(typename P::Env& env, int n, std::size_t capacity)
      : cap_(detail::ring_slot_count(capacity)),
        mask_(cap_ - 1),
        head_(env, "ring.head", 0, sim::BoundSpec::unbounded()),
        tail_(env, "ring.tail", 0, sim::BoundSpec::unbounded()),
        slots_(cap_, [&](std::size_t) {
          return typename P::Register(env, "ring.slot", 0,
                                      sim::BoundSpec::unbounded());
        }) {
    ABA_CHECK(n >= 1);
  }

  // Producer side. Refuses only on a FRESH head read showing
  // tail - head == capacity (a real full instant inside this op).
  bool try_push(int /*p*/, T value) {
    if (prod_.pos - prod_.cached_head == cap_) {
      prod_.cached_head = head_.read();
      if (prod_.pos - prod_.cached_head == cap_) return false;
    }
    slots_[prod_.pos & mask_].write(detail::ring_encode(value));
    // The tail write publishes the slot (release under relaxed-orderings
    // native policies; a scheduled step in the simulator).
    tail_.write(prod_.pos + 1);
    ++prod_.pos;
    return true;
  }

  // Consumer side; same shape, symmetric.
  std::optional<T> try_pop(int /*p*/) {
    if (cons_.cached_tail == cons_.pos) {
      cons_.cached_tail = tail_.read();
      if (cons_.cached_tail == cons_.pos) return std::nullopt;
    }
    const T value = detail::ring_decode<T>(slots_[cons_.pos & mask_].read());
    head_.write(cons_.pos + 1);
    ++cons_.pos;
    return value;
  }

  // Batched producer: pushes up to n values and returns how many landed.
  // ONE tail write publishes the whole batch (and at most one head re-read
  // refreshes the cache), so the position traffic per element approaches
  // zero as n grows — the per-op cost is the slot write alone.
  std::size_t push_n(int /*p*/, const T* values, std::size_t n) {
    std::uint64_t avail =
        static_cast<std::uint64_t>(cap_) - (prod_.pos - prod_.cached_head);
    if (avail < n) {
      prod_.cached_head = head_.read();
      avail = static_cast<std::uint64_t>(cap_) - (prod_.pos - prod_.cached_head);
    }
    const std::size_t k = n < avail ? n : static_cast<std::size_t>(avail);
    for (std::size_t i = 0; i < k; ++i) {
      slots_[(prod_.pos + i) & mask_].write(detail::ring_encode(values[i]));
    }
    if (k > 0) {
      tail_.write(prod_.pos + k);  // Publish the batch atomically.
      prod_.pos += k;
    }
    return k;
  }

  // Batched consumer: pops up to n values into out, ONE head write frees
  // the whole batch of slots for the producer.
  std::size_t pop_n(int /*p*/, T* out, std::size_t n) {
    std::uint64_t avail = cons_.cached_tail - cons_.pos;
    if (avail < n) {
      cons_.cached_tail = tail_.read();
      avail = cons_.cached_tail - cons_.pos;
    }
    const std::size_t k = n < avail ? n : static_cast<std::size_t>(avail);
    for (std::size_t i = 0; i < k; ++i) {
      out[i] = detail::ring_decode<T>(slots_[(cons_.pos + i) & mask_].read());
    }
    if (k > 0) {
      head_.write(cons_.pos + k);
      cons_.pos += k;
    }
    return k;
  }

  std::size_t capacity() const { return cap_; }

  // Racy occupancy estimate: two position reads, clamped (the reads are not
  // atomic together, so tail may be observed behind head).
  std::size_t approx_size() {
    const std::uint64_t t = tail_.read();
    const std::uint64_t h = head_.read();
    return t >= h ? static_cast<std::size_t>(t - h) : 0;
  }

 private:
  // Role-private mirrors, one cache line per role: the producer's fields
  // are never touched by the consumer and vice versa, so the only
  // cross-role traffic is through the platform words themselves.
  struct alignas(util::kCacheLineSize) ProducerLocal {
    std::uint64_t pos = 0;          // Next position to fill (== own tail).
    std::uint64_t cached_head = 0;  // Last observed consumer head.
  };
  struct alignas(util::kCacheLineSize) ConsumerLocal {
    std::uint64_t pos = 0;          // Next position to drain (== own head).
    std::uint64_t cached_tail = 0;  // Last observed producer tail.
  };

  std::size_t cap_;
  std::uint64_t mask_;
  typename P::Register head_;  // Consumer-advanced, producer-read.
  typename P::Register tail_;  // Producer-advanced, consumer-read.
  util::ObjectArray<typename P::Register> slots_;
  ProducerLocal prod_;
  ConsumerLocal cons_;
};

// ---------------------------------------------------------------- MpscRing
//
// Many producers, one consumer: producers serialize through a CAS on the
// tail (one RMW per push — the first place the prevention price appears);
// the consumer still owns head outright and pays zero RMW. Each slot
// carries a sequence word so the consumer can tell a *reserved* slot from a
// *published* one: seq == pos + 1 means position pos's value is readable.
template <Platform P, detail::RingValue T = std::uint64_t>
class MpscRing {
 public:
  using value_type = T;

  MpscRing(typename P::Env& env, int n, std::size_t capacity)
      : cap_(detail::ring_slot_count(capacity)),
        mask_(cap_ - 1),
        head_(env, "ring.head", 0, sim::BoundSpec::unbounded()),
        tail_(env, "ring.tail", 0, sim::BoundSpec::unbounded()),
        slots_(cap_, [&](std::size_t) { return Slot(env); }) {
    ABA_CHECK(n >= 1);
  }

  bool try_push(int /*p*/, T value) {
    PlatformBackoffT<P> backoff;
    for (;;) {
      const std::uint64_t t = tail_.read();
      const std::uint64_t h = head_.read();
      if (h > t) {
        // The consumer advanced head past our tail read, so t is stale
        // (head never passes the real tail) and the unsigned occupancy
        // t - h would underflow to "full" on a ring that may be EMPTY.
        // Nothing certifies a full instant here — re-read, never refuse.
        backoff();
        continue;
      }
      // Full check BEFORE the reservation: head was read after tail, so at
      // the instant of the head read the real tail was >= t and the ring
      // truly held >= t - h elements — refusing is spec-legal.
      if (t - h >= cap_) return false;
      if (tail_.cas(t, t + 1)) {
        Slot& slot = slots_[t & mask_];
        slot.value.write(detail::ring_encode(value));
        slot.seq.write(t + 1);  // Publish: position t is now readable.
        return true;
      }
      backoff();  // Another producer took position t.
    }
  }

  std::optional<T> try_pop(int /*p*/) {
    PlatformBackoffT<P> backoff;
    const std::uint64_t h = cons_.pos;
    for (;;) {
      Slot& slot = slots_[h & mask_];
      if (slot.seq.read() == h + 1) {
        const T value = detail::ring_decode<T>(slot.value.read());
        head_.write(h + 1);
        ++cons_.pos;
        return value;
      }
      // Unpublished. Empty only if nothing is even reserved past h —
      // otherwise a producer holds the position and we must wait for its
      // publish (returning empty here would not linearize: the reserver's
      // push may already have responded... it cannot have, publication
      // precedes its response — but an *earlier* push it overtook can).
      if (tail_.read() == h) return std::nullopt;
      backoff();
    }
  }

  // Batched producer: ONE tail CAS reserves up to n consecutive positions
  // (vs. one RMW per element single-op), then each slot is written and
  // published individually. Returns how many landed; 0 only on a certified
  // full instant (head read after tail, same argument as try_push).
  std::size_t push_n(int /*p*/, const T* values, std::size_t n) {
    if (n == 0) return 0;
    PlatformBackoffT<P> backoff;
    for (;;) {
      const std::uint64_t t = tail_.read();
      const std::uint64_t h = head_.read();
      if (h > t) {  // Stale tail (see try_push): nothing certified, re-read.
        backoff();
        continue;
      }
      const std::uint64_t space = static_cast<std::uint64_t>(cap_) - (t - h);
      if (space == 0) return 0;
      const std::size_t k = n < space ? n : static_cast<std::size_t>(space);
      if (tail_.cas(t, t + k)) {
        for (std::size_t i = 0; i < k; ++i) {
          Slot& slot = slots_[(t + i) & mask_];
          slot.value.write(detail::ring_encode(values[i]));
          slot.seq.write(t + i + 1);  // Publish position t+i.
        }
        return k;
      }
      backoff();  // Another producer moved the tail.
    }
  }

  // Batched consumer (single consumer, so no reservation needed): drains
  // the contiguous published prefix, up to n, under ONE head write.
  std::size_t pop_n(int /*p*/, T* out, std::size_t n) {
    const std::uint64_t h = cons_.pos;
    std::size_t k = 0;
    while (k < n) {
      Slot& slot = slots_[(h + k) & mask_];
      if (slot.seq.read() != h + k + 1) break;  // Unpublished: prefix ends.
      out[k] = detail::ring_decode<T>(slot.value.read());
      ++k;
    }
    if (k > 0) {
      head_.write(h + k);
      cons_.pos += k;
    }
    return k;
  }

  std::size_t capacity() const { return cap_; }

  std::size_t approx_size() {
    const std::uint64_t t = tail_.read();
    const std::uint64_t h = head_.read();
    return t >= h ? static_cast<std::size_t>(t - h) : 0;
  }

  // A record (core/platform.h): under the native Fast policies seq and
  // value share one line instead of taking a line each. Public so the
  // layout tests can size it.
  struct Slot : PlatformRecord<P>::Base {
    explicit Slot(typename P::Env& env)
        : seq(env, "ring.seq", 0, sim::BoundSpec::unbounded()),
          value(env, "ring.value", 0, sim::BoundSpec::unbounded()) {}
    typename PlatformRecord<P>::Register seq;
    typename PlatformRecord<P>::Register value;
  };
  static_assert(kRecordFillsItsLine<Slot>);

 private:
  struct alignas(util::kCacheLineSize) ConsumerLocal {
    std::uint64_t pos = 0;
  };

  std::size_t cap_;
  std::uint64_t mask_;
  typename P::Register head_;  // Consumer-advanced, producers read it.
  typename P::Cas tail_;       // Producers reserve positions here.
  util::ObjectArray<Slot> slots_;
  ConsumerLocal cons_;
};

// ---------------------------------------------------------------- MpmcRing
//
// Vyukov's bounded MPMC queue over the Platform concept. Both positions are
// CAS words; every slot's sequence word cycles
//
//     pos  --push-->  pos + 1  --pop-->  pos + capacity  (= next round's pos)
//
// so the sequence IS the slot's unbounded tag: a process acting on a stale
// position reads a sequence that can never again equal what it expects, and
// backs off to re-read — the recycled-slot ABA that corrupts a raw-CAS
// Treiber head (TreiberAba.RawCasHeadIsCorrupted) is structurally absent.
// The scripted SimWorld schedules in tests/test_ring.cpp walk exactly that
// shape against these words.
template <Platform P, detail::RingValue T = std::uint64_t>
class MpmcRing {
 public:
  using value_type = T;

  MpmcRing(typename P::Env& env, int n, std::size_t capacity)
      : cap_(detail::ring_slot_count(capacity)),
        mask_(cap_ - 1),
        head_(env, "ring.head", 0, sim::BoundSpec::unbounded()),
        tail_(env, "ring.tail", 0, sim::BoundSpec::unbounded()),
        slots_(cap_, [&](std::size_t i) {
          return Slot(env, static_cast<std::uint64_t>(i));
        }) {
    ABA_CHECK(n >= 1);
  }

  bool try_push(int /*p*/, T value) {
    PlatformBackoffT<P> backoff;
    for (;;) {
      const std::uint64_t t = tail_.read();
      Slot& slot = slots_[t & mask_];
      const std::uint64_t seq = slot.seq.read();
      if (seq == t) {  // Slot is free for exactly this position.
        if (tail_.cas(t, t + 1)) {
          slot.value.write(detail::ring_encode(value));
          slot.seq.write(t + 1);
          return true;
        }
      } else if (seq < t) {
        // Round-behind: position t's slot still holds the previous round's
        // element. Genuinely full only if the head agrees; a pop that has
        // claimed its position but not yet bumped the sequence is transient
        // and must be waited out (strict bounded-spec refusal contract).
        if (t - head_.read() >= cap_) return false;
      }
      // seq > t: another producer already advanced past t; re-read tail.
      backoff();
    }
  }

  std::optional<T> try_pop(int /*p*/) {
    PlatformBackoffT<P> backoff;
    for (;;) {
      const std::uint64_t h = head_.read();
      Slot& slot = slots_[h & mask_];
      const std::uint64_t seq = slot.seq.read();
      if (seq == h + 1) {  // Published for exactly this position.
        if (head_.cas(h, h + 1)) {
          const T value = detail::ring_decode<T>(slot.value.read());
          slot.seq.write(h + static_cast<std::uint64_t>(cap_));
          return value;
        }
      } else if (seq < h + 1) {
        // Nothing published at h. Empty only if nothing is reserved either;
        // a reserved-but-unpublished push is transient — wait for it.
        if (tail_.read() == h) return std::nullopt;
      }
      // seq > h + 1: another consumer already advanced past h; re-read.
      backoff();
    }
  }

  // Batched producer: ONE tail CAS reserves up to n consecutive positions.
  // The bound k <= capacity - (tail - head) guarantees each reserved
  // position's slot was already claimed by a previous-round pop (head
  // passed it), so the per-slot sequence wait below is the same transient
  // peer-wait the single-op path documents — not a wait for new pops.
  std::size_t push_n(int /*p*/, const T* values, std::size_t n) {
    if (n == 0) return 0;
    PlatformBackoffT<P> backoff;
    for (;;) {
      const std::uint64_t t = tail_.read();
      const std::uint64_t h = head_.read();
      if (h > t) {  // Stale tail: occupancy would underflow; re-read.
        backoff();
        continue;
      }
      const std::uint64_t space = static_cast<std::uint64_t>(cap_) - (t - h);
      // Head was read after tail, so a zero space certifies a full instant
      // inside this op (the strict-refusal contract, as in try_push).
      if (space == 0) return 0;
      const std::size_t k = n < space ? n : static_cast<std::size_t>(space);
      if (tail_.cas(t, t + k)) {
        for (std::size_t i = 0; i < k; ++i) {
          Slot& slot = slots_[(t + i) & mask_];
          while (slot.seq.read() != t + i) backoff();  // Prior pop's bump.
          slot.value.write(detail::ring_encode(values[i]));
          slot.seq.write(t + i + 1);
        }
        return k;
      }
      backoff();
    }
  }

  // Batched consumer: ONE head CAS claims up to tail - head positions, all
  // of them reserved by pushers (so each publish is a transient wait).
  std::size_t pop_n(int /*p*/, T* out, std::size_t n) {
    if (n == 0) return 0;
    PlatformBackoffT<P> backoff;
    for (;;) {
      const std::uint64_t h = head_.read();
      const std::uint64_t t = tail_.read();
      if (t <= h) {
        // t == h: tail read after head, and head never passes the real
        // tail — a certified empty instant. t < h: stale tail; re-read.
        if (t == h) return 0;
        backoff();
        continue;
      }
      const std::uint64_t avail = t - h;
      const std::size_t k = n < avail ? n : static_cast<std::size_t>(avail);
      if (head_.cas(h, h + k)) {
        for (std::size_t i = 0; i < k; ++i) {
          Slot& slot = slots_[(h + i) & mask_];
          while (slot.seq.read() != h + i + 1) backoff();  // Pusher publish.
          out[i] = detail::ring_decode<T>(slot.value.read());
          slot.seq.write(h + i + static_cast<std::uint64_t>(cap_));
        }
        return k;
      }
      backoff();
    }
  }

  std::size_t capacity() const { return cap_; }

  std::size_t approx_size() {
    const std::uint64_t t = tail_.read();
    const std::uint64_t h = head_.read();
    const std::uint64_t d = t >= h ? t - h : 0;
    return d > cap_ ? cap_ : static_cast<std::size_t>(d);
  }

  // A record, like MpscRing::Slot.
  struct Slot : PlatformRecord<P>::Base {
    Slot(typename P::Env& env, std::uint64_t initial_seq)
        : seq(env, "ring.seq", initial_seq, sim::BoundSpec::unbounded()),
          value(env, "ring.value", 0, sim::BoundSpec::unbounded()) {}
    // The slot's unbounded tag (see file comment).
    typename PlatformRecord<P>::Register seq;
    typename PlatformRecord<P>::Register value;
  };
  static_assert(kRecordFillsItsLine<Slot>);

 private:
  std::size_t cap_;
  std::uint64_t mask_;
  typename P::Cas head_;
  typename P::Cas tail_;
  util::ObjectArray<Slot> slots_;
};

// --------------------------------------------------------------- LocalRing
//
// The sequential member of the family: one process, plain memory, exact
// requested capacity (no power-of-two rounding — nothing to mask). Replaces
// the old util::BoundedQueue verbatim (enqueue/dequeue assert exact
// capacity semantics, front/contains serve Figure 4's usedQ window) and
// additionally speaks the family verbs (try_push/try_pop/capacity), minus
// the pid — there is no concurrency to attribute.
template <class T>
class LocalRing {
 public:
  using value_type = T;

  explicit LocalRing(std::size_t capacity)
      : buffer_(capacity), capacity_(capacity) {
    ABA_CHECK(capacity >= 1);
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  void enqueue(const T& value) {
    ABA_ASSERT_MSG(!full(), "LocalRing overflow");
    buffer_[(head_ + size_) % capacity_] = value;
    ++size_;
  }

  T dequeue() {
    ABA_ASSERT_MSG(!empty(), "LocalRing underflow");
    T value = buffer_[head_];
    head_ = (head_ + 1) % capacity_;
    --size_;
    return value;
  }

  bool try_push(const T& value) {
    if (full()) return false;
    enqueue(value);
    return true;
  }

  std::optional<T> try_pop() {
    if (empty()) return std::nullopt;
    return dequeue();
  }

  // Batch verbs, mirroring the concurrent family (no pid, no position
  // words to amortize — they exist so code written against the batched
  // vocabulary, like the retire pipeline's ring hand-off, runs unchanged).
  std::size_t push_n(const T* values, std::size_t n) {
    std::size_t k = 0;
    while (k < n && !full()) enqueue(values[k++]);
    return k;
  }

  std::size_t pop_n(T* out, std::size_t n) {
    std::size_t k = 0;
    while (k < n && !empty()) out[k++] = dequeue();
    return k;
  }

  const T& front() const {
    ABA_ASSERT(!empty());
    return buffer_[head_];
  }

  // The i-th element from the front (0 = front()), for observers that walk
  // the window without draining it (fingerprints, crash sweeps).
  const T& peek(std::size_t i) const {
    ABA_ASSERT(i < size_);
    return buffer_[(head_ + i) % capacity_];
  }

  bool contains(const T& value) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (buffer_[(head_ + i) % capacity_] == value) return true;
    }
    return false;
  }

 private:
  std::vector<T> buffer_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace aba::structures
