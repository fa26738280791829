// SequenceReservation — Figure 4's announce array plus GetSeq() machinery.
//
// This is the bounded-tag reuse-protection core shared by two constructions:
//   - the ABA-detecting register from n+1 bounded registers (Figure 4), and
//   - the constant-time LL/SC from one CAS plus n registers
//     (llsc_register_array.h, in the style of Anderson–Moir [2] and
//     Jayanti–Petrovic [15], whose "multi-layered" idea the paper notes
//     Figure 4 borrows from).
//
// Shared state: an announce array A[0..n-1]; only process q writes A[q].
// Each entry stores an announcement pair (pid, seq) — "process q currently
// depends on writer pid's sequence number seq".
//
// Guarantee provided by GetSeq() (paper, Section 3.1, proved as Claims 2-3):
// if at some point the "current" pair is (p, s) and A[q] = (p, s), then p
// will not return s from GetSeq() again until A[q] no longer holds (p, s).
// Mechanism: across any n consecutive GetSeq() calls, p scans the entire
// announce array (one entry per call, lines 28-33) and excludes every
// sequence number it saw announced against itself; the usedQ ring of length
// n+1 (lines 35-36) additionally excludes everything p returned in its last
// n calls, covering announcements p has not re-scanned yet. The sequence
// domain {0, ..., 2n+1} always leaves at least one admissible value
// (|na| <= n and |usedQ| = n+1 exclude at most 2n+1 of the 2n+2 values).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/platform.h"
// Layering note: usedQ is the sequential LocalRing from the ring-buffer
// family — structures/ring_buffer.h's plain-memory member, not a platform
// structure. Its accesses are process-local and MUST stay off the shared-
// step ledger, or Figure 4's per-op step counts change.
#include "structures/ring_buffer.h"
#include "util/cacheline.h"
#include "util/object_array.h"
#include "util/packed_word.h"

namespace aba::core {

template <Platform P>
class SequenceReservation {
  // A DRead writes A[q] and then re-reads X, and an LL announces and then
  // re-reads the CAS word: a StoreLoad pair that no fence pair carries here
  // (core/platform.h).
  static_assert(kPlatformOrdersStoreLoad<P>,
                "SequenceReservation needs a platform that orders StoreLoad: "
                "the Figure 4 register and the register-array LL/SC write an "
                "announcement and then re-read another word");

 public:
  // `codec` defines announcement packing; `seq_domain` is the number of
  // distinct sequence numbers. The correct domain is 2n+2; smaller domains
  // are accepted (and flagged via is_under_provisioned) so the lower-bound
  // experiments can construct deliberately broken instances.
  SequenceReservation(typename P::Env& env, int n, const util::TripleCodec& codec,
                      std::uint64_t seq_domain)
      : n_(checked_n(n, seq_domain)),
        codec_(codec),
        seq_domain_(seq_domain),
        // With a cache-line-isolating platform (NativePlatform<Fast>) each
        // register is over-aligned to its own line, and the array keeps
        // that alignment per element, so A[q] and A[q'] — written by
        // different processes on every DRead — can never false-share.
        announce_(static_cast<std::size_t>(n_), [&](std::size_t) {
          return typename P::Register(
              env, "A", 0, sim::BoundSpec::bounded(codec_.announcement_bits()));
        }) {
    locals_.reserve(n_);
    for (int q = 0; q < n_; ++q) locals_.push_back(Local(n_, seq_domain_));
  }

  static std::uint64_t correct_seq_domain(int n) {
    return 2 * static_cast<std::uint64_t>(n) + 2;
  }

  bool is_under_provisioned() const {
    return seq_domain_ < correct_seq_domain(n_);
  }

  // Figure 4, lines 28-37. One shared-memory step (the A[c] read); the
  // local bookkeeping is O(domain) = O(n) per call via the exclusion-count
  // table (the paper's model only counts shared steps, but we keep the
  // local work linear too).
  std::uint64_t get_seq(int p) {
    Local& local = locals_[p];
    const std::uint64_t announced = announce_[local.c].read();  // line 28
    std::optional<std::uint64_t> seen;
    if (codec_.announcement_valid(announced) &&
        codec_.announcement_pid(announced) == static_cast<std::uint64_t>(p)) {
      seen = codec_.announcement_seq(announced);  // lines 29-30
    }
    set_na(local, local.c, seen);  // lines 29-32
    local.c = (local.c + 1) % n_;  // line 33

    // Line 34: choose s not excluded by na or usedQ. We take the smallest
    // admissible value ("choose arbitrary" in the paper) for determinism.
    std::uint64_t seq = seq_domain_;  // sentinel: none found
    for (std::uint64_t s = 0; s < seq_domain_; ++s) {
      if (local.exclusion_count[s] == 0) {
        seq = s;
        break;
      }
    }
    // With the correct domain a value always exists; with a deliberately
    // shrunk domain we fall back to the oldest used value — this is exactly
    // the unsound reuse the lower bound exploits.
    if (seq == seq_domain_) {
      const auto oldest = local.used_q.front();
      seq = oldest.has_value() ? *oldest : 0;
    }
    // Lines 35-36: slide the length-(n+1) window of recently used values.
    // (The paper enqueues then dequeues on a queue with n+1 slots; with an
    // exactly-sized ring the equivalent order is dequeue then enqueue.)
    const auto dropped = local.used_q.dequeue();
    if (dropped.has_value()) count_remove(local, *dropped);
    local.used_q.enqueue(seq);
    count_add(local, seq);
    return seq;  // line 37
  }

  // Write A[q] (one shared step). `pair` is a packed announcement.
  void announce(int q, std::uint64_t pair) { announce_[q].write(pair); }

  // Read A[q] (one shared step).
  std::uint64_t read_own(int q) { return announce_[q].read(); }

  int num_registers() const { return n_; }
  std::uint64_t seq_domain() const { return seq_domain_; }

 private:
  // Runs before the announce array is allocated.
  static int checked_n(int n, std::uint64_t seq_domain) {
    ABA_CHECK(n >= 1);
    ABA_CHECK(seq_domain >= 2);
    return n;
  }

  // Per-process bookkeeping; owner-written only, padded against false
  // sharing between neighbouring entries of locals_.
  struct alignas(util::kCacheLineSize) Local {
    Local(int n, std::uint64_t seq_domain)
        : na(n),
          used_q(static_cast<std::size_t>(n) + 1),
          exclusion_count(seq_domain, 0) {
      // Queue usedQ[n+1] = (bottom, ..., bottom).
      for (int i = 0; i < n + 1; ++i) used_q.enqueue(std::nullopt);
    }

    int c = 0;  // Announce-array scan cursor.
    // na as a partial map: announce slot -> sequence number seen there.
    std::vector<std::optional<std::uint64_t>> na;
    structures::LocalRing<std::optional<std::uint64_t>> used_q;
    // exclusion_count[s] = how many na entries / usedQ slots hold s; a value
    // is admissible iff its count is zero.
    std::vector<std::uint16_t> exclusion_count;
  };

  void count_add(Local& local, std::uint64_t s) const {
    if (s < seq_domain_) ++local.exclusion_count[s];
  }
  void count_remove(Local& local, std::uint64_t s) const {
    if (s < seq_domain_) {
      ABA_ASSERT(local.exclusion_count[s] > 0);
      --local.exclusion_count[s];
    }
  }
  void set_na(Local& local, int slot, std::optional<std::uint64_t> value) const {
    if (local.na[slot].has_value()) count_remove(local, *local.na[slot]);
    local.na[slot] = value;
    if (value.has_value()) count_add(local, *value);
  }

  int n_;
  util::TripleCodec codec_;
  std::uint64_t seq_domain_;
  util::ObjectArray<typename P::Register> announce_;
  std::vector<Local> locals_;
};

}  // namespace aba::core
