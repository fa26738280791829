// ShmArena + ShmPlatform — the Platform implementation over shared memory.
//
// ShmArena is a deterministic bump allocator over a segment's arena region.
// Creator and attachers run the *same construction sequence* (build the
// same structure with the same parameters), so each placement lands at the
// same offset in every process; the creator placement-initializes, the
// attachers just bind. A running FNV-1a hash over (name, size, alignment,
// offset) of every placement fingerprints the sequence — the creator
// publishes it in the segment header and attachers verify theirs matches
// (shm_segment.h), so a layout drift is a checked error instead of silent
// reinterpretation.
//
// ShmPlatform satisfies the Platform concept (core/platform.h), so
// TreiberStack, MsQueue and the sharded wrappers run unchanged across
// processes: every Register/Cas/WritableCas places one cache-line-isolated
// std::atomic<uint64_t> in the arena. Unlike NativePlatform's Fast
// policies, ShmPlatform exposes no Record (core/platform.h), so a node's
// or slot's words keep a line each here: packing them would change every
// placement's size and offset, hence the segment layout hash that
// attachers verify, and waits for the shm tier's own layout revision.
// All orderings are seq_cst — the cross-process tier keeps the
// paper-faithful interleaving semantics (the publish-then-revalidate and
// announce-then-reread protocols in the reclaimers are StoreLoad-shaped;
// see native_platform.h for the taxonomy).
// Retry loops pick up truncated exponential backoff via PlatformBackoffT.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#include "shm/shm_segment.h"
#include "sim/types.h"
#include "util/assert.h"
#include "util/backoff.h"
#include "util/cacheline.h"

namespace aba::shm {

class ShmArena {
 public:
  ShmArena(ShmSegment& segment, bool owner)
      : base_(static_cast<char*>(segment.arena_base())),
        capacity_(segment.arena_bytes()),
        owner_(owner) {}

  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  // Reserves space for one T. The creator constructs it in place; an
  // attacher binds to the already-constructed object. T must be shareable
  // across processes (no internal pointers to process-local memory) and is
  // never destroyed — the segment's lifetime is the object's lifetime.
  template <class T, class... Args>
  T* place(const char* name, Args&&... args) {
    void* ptr = reserve(name, sizeof(T), alignof(T));
    if (owner_) return new (ptr) T(std::forward<Args>(args)...);
    return std::launder(reinterpret_cast<T*>(ptr));
  }

  // Reserves a contiguous array of `count` Ts (value-initialized by the
  // creator).
  template <class T>
  T* place_array(const char* name, std::size_t count) {
    void* ptr = reserve(name, sizeof(T) * count, alignof(T));
    if (owner_) return new (ptr) T[count]();
    return std::launder(reinterpret_cast<T*>(ptr));
  }

  // The layout fingerprint of every placement so far.
  std::uint64_t layout_hash() const { return hash_; }
  std::size_t bytes_used() const { return offset_; }
  bool owner() const { return owner_; }

 private:
  void* reserve(const char* name, std::size_t size, std::size_t align) {
    // Cache-line granularity: adjacent placements never false-share, and
    // every alignof we will meet divides 64.
    const std::size_t a = align < util::kCacheLineSize ? util::kCacheLineSize
                                                       : align;
    offset_ = (offset_ + a - 1) / a * a;
    ABA_CHECK_MSG(offset_ + size <= capacity_,
                  "shm arena exhausted — size the segment larger");
    void* ptr = base_ + offset_;
    mix(name);
    mix(size);
    mix(align);
    mix(offset_);
    offset_ += size;
    return ptr;
  }

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;  // FNV-1a.
    }
  }
  void mix(const char* s) {
    for (; *s != '\0'; ++s) {
      hash_ ^= static_cast<unsigned char>(*s);
      hash_ *= 0x100000001b3ull;
    }
  }

  char* base_;
  std::size_t capacity_;
  std::size_t offset_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  bool owner_;
};

class PidLeaseTable;  // pid_lease.h

struct ShmPlatform {
  // The environment every platform object and reclaimer constructor
  // receives. `leases` is consumed by the leased reclaimers
  // (leased_reclaimer.h); plain platform words only need the arena.
  struct Env {
    ShmArena* arena = nullptr;
    PidLeaseTable* leases = nullptr;
    bool owner = false;
  };

  using Backoff = util::ExpBackoff;
  // Every access is seq_cst (core/platform.h).
  static constexpr bool kOrdersStoreLoad = true;

  class Register {
   public:
    Register(Env& env, const char* name, std::uint64_t initial,
             sim::BoundSpec /*bound*/)
        : word_(env.arena->place<std::atomic<std::uint64_t>>(name)) {
      if (env.owner) word_->store(initial, std::memory_order_relaxed);
    }

    std::uint64_t read() { return word_->load(std::memory_order_seq_cst); }
    void write(std::uint64_t value) {
      word_->store(value, std::memory_order_seq_cst);
    }

   private:
    std::atomic<std::uint64_t>* word_;
  };

  class Cas {
   public:
    Cas(Env& env, const char* name, std::uint64_t initial,
        sim::BoundSpec /*bound*/)
        : word_(env.arena->place<std::atomic<std::uint64_t>>(name)) {
      if (env.owner) word_->store(initial, std::memory_order_relaxed);
    }

    std::uint64_t read() { return word_->load(std::memory_order_seq_cst); }
    bool cas(std::uint64_t expected, std::uint64_t desired) {
      return word_->compare_exchange_strong(expected, desired,
                                            std::memory_order_seq_cst,
                                            std::memory_order_seq_cst);
    }

   private:
    std::atomic<std::uint64_t>* word_;
  };

  class WritableCas {
   public:
    WritableCas(Env& env, const char* name, std::uint64_t initial,
                sim::BoundSpec /*bound*/)
        : word_(env.arena->place<std::atomic<std::uint64_t>>(name)) {
      if (env.owner) word_->store(initial, std::memory_order_relaxed);
    }

    std::uint64_t read() { return word_->load(std::memory_order_seq_cst); }
    bool cas(std::uint64_t expected, std::uint64_t desired) {
      return word_->compare_exchange_strong(expected, desired,
                                            std::memory_order_seq_cst,
                                            std::memory_order_seq_cst);
    }
    void write(std::uint64_t value) {
      word_->store(value, std::memory_order_seq_cst);
    }

   private:
    std::atomic<std::uint64_t>* word_;
  };
};

}  // namespace aba::shm
