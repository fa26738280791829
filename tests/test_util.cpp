// Unit tests for the utility layer: packing codecs, the sequential local
// ring, the growable FIFO ring, the object array, RNG, histograms, table
// printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#endif

#include "native/native_platform.h"
#include "reclaim/reclaimer.h"
#include "sim/sim_platform.h"
#include "structures/ring_buffer.h"
#include "util/cacheline.h"
#include "util/fifo_ring.h"
#include "util/histogram.h"
#include "util/object_array.h"
#include "util/packed_word.h"
#include "util/rng.h"
#include "util/table.h"

namespace aba::util {
namespace {

// ---------------------------------------------------------------- BitField

TEST(BitField, GetSetRoundTrip) {
  BitField f{5, 7};
  std::uint64_t w = 0;
  w = f.set(w, 0x55);
  EXPECT_EQ(f.get(w), 0x55u);
  EXPECT_EQ(w, 0x55ull << 5);
}

TEST(BitField, SetPreservesOtherBits) {
  BitField lo{0, 8};
  BitField hi{8, 8};
  std::uint64_t w = 0;
  w = lo.set(w, 0xAB);
  w = hi.set(w, 0xCD);
  EXPECT_EQ(lo.get(w), 0xABu);
  EXPECT_EQ(hi.get(w), 0xCDu);
  w = lo.set(w, 0x01);
  EXPECT_EQ(lo.get(w), 0x01u);
  EXPECT_EQ(hi.get(w), 0xCDu);
}

TEST(BitField, FullWidthMask) {
  BitField f{0, 64};
  EXPECT_EQ(f.mask(), ~0ULL);
  EXPECT_EQ(f.get(~0ULL), ~0ULL);
}

TEST(BitsFor, Values) {
  EXPECT_EQ(bits_for(0), 1u);
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 2u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(4), 3u);
  EXPECT_EQ(bits_for(255), 8u);
  EXPECT_EQ(bits_for(256), 9u);
}

// ------------------------------------------------------------ PackedTriple

using Triple = PackedTriple<8, 4, 6>;

TEST(PackedTriple, InitialIsInvalid) {
  EXPECT_FALSE(Triple::valid(Triple::initial()));
}

TEST(PackedTriple, RoundTrip) {
  const std::uint64_t w = Triple::pack(0xAB, 3, 17);
  EXPECT_TRUE(Triple::valid(w));
  EXPECT_EQ(Triple::value(w), 0xABu);
  EXPECT_EQ(Triple::pid(w), 3u);
  EXPECT_EQ(Triple::seq(w), 17u);
}

TEST(PackedTriple, AnnouncementMatchesPackAnnouncement) {
  const std::uint64_t w = Triple::pack(0xAB, 3, 17);
  EXPECT_EQ(Triple::announcement(w), Triple::pack_announcement(3, 17));
}

TEST(PackedTriple, AnnouncementOfInitialDiffersFromAnyValid) {
  const std::uint64_t init_a = Triple::announcement(Triple::initial());
  for (std::uint64_t p = 0; p < 4; ++p) {
    for (std::uint64_t s = 0; s < 10; ++s) {
      EXPECT_NE(init_a, Triple::pack_announcement(p, s));
    }
  }
}

// ------------------------------------------------------------- TripleCodec

TEST(TripleCodec, ForProcessesWidths) {
  // n = 8: pid in {0..7} -> 3 bits, seq in {0..17} -> 5 bits. With b = 8:
  // total = 8 + 3 + 5 + 1 = 17 = b + 2*log n + O(1).
  auto codec = TripleCodec::for_processes(8, 8);
  EXPECT_EQ(codec.total_bits(), 17u);
  EXPECT_EQ(codec.announcement_bits(), 9u);
}

TEST(TripleCodec, RoundTrip) {
  auto codec = TripleCodec::for_processes(5, 8);
  const std::uint64_t w = codec.pack(200, 4, 11);
  EXPECT_TRUE(codec.valid(w));
  EXPECT_EQ(codec.value(w), 200u);
  EXPECT_EQ(codec.pid(w), 4u);
  EXPECT_EQ(codec.seq(w), 11u);
  EXPECT_FALSE(codec.valid(TripleCodec::initial()));
}

TEST(TripleCodec, AnnouncementRoundTrip) {
  auto codec = TripleCodec::for_processes(5, 8);
  const std::uint64_t w = codec.pack(200, 4, 11);
  const std::uint64_t a = codec.announcement(w);
  EXPECT_TRUE(codec.announcement_valid(a));
  EXPECT_EQ(codec.announcement_pid(a), 4u);
  EXPECT_EQ(codec.announcement_seq(a), 11u);
  EXPECT_EQ(a, codec.pack_announcement(4, 11));
  EXPECT_FALSE(codec.announcement_valid(codec.announcement(TripleCodec::initial())));
}

TEST(TripleCodec, DistinctTriplesDistinctWords) {
  auto codec = TripleCodec::for_processes(3, 4);
  std::set<std::uint64_t> words;
  for (std::uint64_t v = 0; v < 16; ++v) {
    for (std::uint64_t p = 0; p < 3; ++p) {
      for (std::uint64_t s = 0; s < 8; ++s) {
        words.insert(codec.pack(v, p, s));
      }
    }
  }
  EXPECT_EQ(words.size(), 16u * 3u * 8u);
}

// --------------------------------------------------------------- PairCodec

TEST(PairCodec, RoundTrip) {
  PairCodec codec(8, 16);
  const std::uint64_t w = codec.pack(0xBEEF, 0xA5);
  EXPECT_EQ(codec.value(w), 0xBEEFu);
  EXPECT_EQ(codec.bits(w), 0xA5u);
  EXPECT_EQ(codec.total_bits(), 24u);
}

TEST(PairCodec, BitOperations) {
  PairCodec codec(8, 8);
  std::uint64_t w = codec.pack(7, codec.all_bits());
  EXPECT_EQ(codec.bits(w), 0xFFu);
  for (unsigned p = 0; p < 8; ++p) EXPECT_TRUE(codec.bit(w, p));
  w = codec.with_bit_cleared(w, 3);
  EXPECT_FALSE(codec.bit(w, 3));
  EXPECT_TRUE(codec.bit(w, 2));
  EXPECT_EQ(codec.value(w), 7u);
}

TEST(PairCodec, AllBitsWidth) {
  EXPECT_EQ(PairCodec(1, 8).all_bits(), 1u);
  EXPECT_EQ(PairCodec(4, 8).all_bits(), 15u);
  EXPECT_EQ(PairCodec(32, 16).all_bits(), 0xFFFFFFFFull);
}

// --------------------------------------------------------------- LocalRing

TEST(LocalRing, FifoOrder) {
  structures::LocalRing<int> q(3);
  q.enqueue(1);
  q.enqueue(2);
  q.enqueue(3);
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.dequeue(), 1);
  EXPECT_EQ(q.dequeue(), 2);
  q.enqueue(4);
  EXPECT_EQ(q.dequeue(), 3);
  EXPECT_EQ(q.dequeue(), 4);
  EXPECT_TRUE(q.empty());
}

TEST(LocalRing, Contains) {
  structures::LocalRing<int> q(4);
  q.enqueue(10);
  q.enqueue(20);
  EXPECT_TRUE(q.contains(10));
  EXPECT_TRUE(q.contains(20));
  EXPECT_FALSE(q.contains(30));
  q.dequeue();
  EXPECT_FALSE(q.contains(10));
}

TEST(LocalRing, WrapsAroundManyTimes) {
  structures::LocalRing<int> q(2);
  for (int i = 0; i < 100; ++i) {
    q.enqueue(i);
    EXPECT_EQ(q.dequeue(), i);
  }
}

TEST(LocalRing, FrontPeeks) {
  structures::LocalRing<int> q(2);
  q.enqueue(5);
  q.enqueue(6);
  EXPECT_EQ(q.front(), 5);
  EXPECT_EQ(q.size(), 2u);
}

TEST(LocalRing, TryVerbsRefuseAtBoundaries) {
  structures::LocalRing<int> q(2);
  EXPECT_EQ(q.try_pop(), std::nullopt);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // Full: refusal is exact, not approximate.
  EXPECT_EQ(q.try_pop(), std::optional<int>(1));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.try_pop(), std::optional<int>(2));
  EXPECT_EQ(q.try_pop(), std::optional<int>(3));
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

// ---------------------------------------------------------------- FifoRing

TEST(FifoRing, FifoOrderAcrossWrapsAndGrowth) {
  FifoRing<std::uint64_t> ring;
  ring.reserve(4);
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  // Many wraps at a fixed capacity: three live entries walk the buffer.
  for (int i = 0; i < 3; ++i) ring.push_back(pushed++);
  for (int i = 0; i < 1000; ++i) {
    ring.push_back(pushed++);
    ASSERT_EQ(ring.front(), popped++);
    ring.pop_front();
  }
  EXPECT_EQ(ring.capacity(), 4u);
  // Growth from a wrapped head keeps the order, across several doublings.
  for (int i = 0; i < 100; ++i) ring.push_back(pushed++);
  EXPECT_EQ(ring.size(), 103u);
  std::uint64_t expect = popped;
  for (const std::uint64_t v : ring) EXPECT_EQ(v, expect++);
  while (!ring.empty()) {
    ASSERT_EQ(ring.front(), popped++);
    ring.pop_front();
  }
  EXPECT_EQ(popped, pushed);
  ring.push_back(7);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.begin(), ring.end());
}

// Capacity is a power of two that grows only when full, so it never
// exceeds bit_ceil of the most entries held at once (the cap a reclaimer
// list inherits from its pool).
TEST(FifoRing, CapacityIsAPowerOfTwoWithinTheCap) {
  FifoRing<std::uint32_t> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  ring.reserve(5);
  EXPECT_EQ(ring.capacity(), 8u);
  Xoshiro256 rng(11);
  std::size_t most = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.below(3) != 0 || ring.empty()) {
      ring.push_back(static_cast<std::uint32_t>(i));
    } else {
      ring.pop_front();
    }
    most = std::max(most, ring.size());
    ASSERT_TRUE(std::has_single_bit(ring.capacity()));
    ASSERT_LE(ring.capacity(), std::max<std::size_t>(8, std::bit_ceil(most)));
  }
  EXPECT_GT(most, 8u) << "the sequence must have grown the ring";
}

// A seeded push/pop/rotate sequence against a std::deque oracle: the same
// entries in the same order at every step, and the same fingerprint (size,
// then elements in order) the reclaimers fold into the DPOR key.
TEST(FifoRing, MatchesDequeOracle) {
  FifoRing<std::uint32_t> ring;
  std::deque<std::uint64_t> oracle;
  Xoshiro256 rng(2024);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.below(8);
    if (op < 4 || oracle.empty()) {
      const auto v = static_cast<std::uint32_t>(rng());
      ring.push_back(v);
      oracle.push_back(v);
    } else if (op < 6) {
      ASSERT_EQ(ring.front(), oracle.front());
      ring.pop_front();
      oracle.pop_front();
    } else {
      // Rotate: the front entry moves to the back, as release() keeps a
      // retiree it may not free yet.
      ring.push_back(ring.front());
      ring.pop_front();
      oracle.push_back(oracle.front());
      oracle.pop_front();
    }
    ASSERT_EQ(ring.size(), oracle.size());
    if (step % 97 == 0) {
      ASSERT_TRUE(std::equal(ring.begin(), ring.end(), oracle.begin(),
                             oracle.end()));
      reclaim::Fingerprint a;
      reclaim::Fingerprint b;
      EXPECT_EQ(a.mix_range(ring).value(), b.mix_range(oracle).value());
    }
  }
  EXPECT_TRUE(std::equal(ring.begin(), ring.end(), oracle.begin(),
                         oracle.end()));
}

// iota builds in one pass the ring that reserve and pushes build: the
// same entries in the same order, the same capacity and the same
// fingerprint, including an empty ring, counts that are not a power of two
// and a range that ends at the last 32-bit index.
TEST(FifoRing, IotaMatchesPushedRing) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << 32;
  const std::pair<std::uint64_t, std::size_t> cases[] = {
      {0, 0}, {5, 1}, {1, 3}, {7, 16384}, {100, 1000}, {kTop - 6, 6}};
  for (const auto& [first, count] : cases) {
    SCOPED_TRACE(count);
    FifoRing<std::uint32_t> pushed;
    pushed.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      pushed.push_back(static_cast<std::uint32_t>(first + i));
    }
    const auto built = FifoRing<std::uint32_t>::iota(
        static_cast<std::uint32_t>(first), count);
    EXPECT_EQ(built.size(), pushed.size());
    EXPECT_EQ(built.capacity(), pushed.capacity());
    EXPECT_TRUE(std::equal(built.begin(), built.end(), pushed.begin(),
                           pushed.end()));
    reclaim::Fingerprint a;
    reclaim::Fingerprint b;
    EXPECT_EQ(a.mix_range(built).value(), b.mix_range(pushed).value());
  }
}

// --------------------------------------------------------------------- RNG

TEST(Rng, DeterministicBySeed) {
  Xoshiro256 a(42), b(42), c(43);
  bool all_equal = true;
  bool any_diff_from_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    if (va != b()) all_equal = false;
    if (va != c()) any_diff_from_c = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_from_c);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
  }
}

TEST(Rng, BelowCoversRange) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusive) {
  Xoshiro256 rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, HashCombineSpreads) {
  std::set<std::uint64_t> hashes;
  for (std::uint64_t i = 0; i < 100; ++i) {
    hashes.insert(hash_combine(0, i));
  }
  EXPECT_EQ(hashes.size(), 100u);
}

// ----------------------------------------------------------------- Summary

TEST(Summary, Statistics) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_NEAR(s.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.quantile(0.99), 99.0, 1.0);
}

TEST(StepHistogram, CountsAndMax) {
  StepHistogram h;
  h.add(2);
  h.add(2);
  h.add(4);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.max_steps(), 4u);
  EXPECT_EQ(h.count_at(2), 2u);
  EXPECT_EQ(h.count_at(3), 0u);
  EXPECT_NEAR(h.mean_steps(), (2 + 2 + 4) / 3.0, 1e-9);
}

// ------------------------------------------------------------- ObjectArray

TEST(ObjectArray, SimElementsTakeConsecutiveIdsInIndexOrder) {
  using Register = sim::SimPlatform::Register;
  sim::SimWorld world(1);
  Register before(world, "before", 0, sim::BoundSpec::unbounded());
  ObjectArray<Register> a(5, [&](std::size_t i) {
    return Register(world, "a", i, sim::BoundSpec::unbounded());
  });
  Register after(world, "after", 0, sim::BoundSpec::unbounded());
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id(), before.id() + 1 + static_cast<sim::ObjectId>(i));
  }
  EXPECT_EQ(after.id(), a[4].id() + 1);
}

TEST(ObjectArray, NativeFastElementsAreContiguousAndAligned) {
  using Register = native::NativePlatform<native::Fast>::Register;
  static_assert(alignof(Register) >= kCacheLineSize);
  native::NativePlatform<native::Fast>::Env env;
  ObjectArray<Register> a(7, [&](std::size_t i) {
    return Register(env, "a", i, sim::BoundSpec::unbounded());
  });
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&a[i]) % alignof(Register), 0u);
    if (i + 1 < a.size()) {
      EXPECT_EQ(&a[i + 1] - &a[i], 1);
    }
    EXPECT_EQ(a[i].read(), i);
  }
}

// Immovable, like a platform object, and logs its own destruction. Throws
// from its constructor when asked to.
struct Logged {
  Logged(int id, std::vector<int>* log, int throw_at) : id(id), log(log) {
    if (id == throw_at) throw std::runtime_error("element constructor");
  }
  Logged(const Logged&) = delete;
  Logged& operator=(const Logged&) = delete;
  ~Logged() { log->push_back(id); }
  int id;
  std::vector<int>* log;
};

// Enough Logged elements for a huge-page mapping, one more than a huge page
// holds, so the page-rounded size is not a multiple of the huge page.
constexpr std::size_t kMappedElements = kHugePageBytes / sizeof(Logged) + 1;
// Enough for a mapping under a huge page: one more than kMappedArrayBytes
// holds, so the page-rounded size is not a multiple of 128 KiB either.
constexpr std::size_t kMidElements = kMappedArrayBytes / sizeof(Logged) + 1;
static_assert(kMidElements * sizeof(Logged) < kHugePageBytes);

// from - 1, from - 2, ..., 0: the destruction log of elements [0, from).
std::vector<int> countdown(std::size_t from) {
  std::vector<int> ids(from);
  for (std::size_t i = 0; i < from; ++i) ids[i] = static_cast<int>(from - 1 - i);
  return ids;
}

TEST(ObjectArray, DestroysInReverseOrder) {
  for (const std::size_t n : {std::size_t{4}, kMidElements, kMappedElements}) {
    std::vector<int> log;
    {
      ObjectArray<Logged> a(n, [&](std::size_t i) {
        return Logged(static_cast<int>(i), &log, -1);
      });
      EXPECT_TRUE(log.empty());
    }
    EXPECT_TRUE(log == countdown(n)) << n << " elements";
  }
}

TEST(ObjectArray, ThrowingConstructorDestroysBuiltPrefix) {
  // Elements [0, throw_at) were built and are destroyed, last first;
  // element throw_at never finished constructing. The storage itself is
  // freed (LeakSanitizer checks the allocator path in the sanitizer build).
  for (const std::size_t n : {std::size_t{6}, kMidElements, kMappedElements}) {
    const std::size_t throw_at = n / 2;
    std::vector<int> log;
    EXPECT_THROW(
        {
          ObjectArray<Logged> a(n, [&](std::size_t i) {
            return Logged(static_cast<int>(i), &log, static_cast<int>(throw_at));
          });
        },
        std::runtime_error);
    EXPECT_TRUE(log == countdown(throw_at)) << n << " elements";
  }
}

TEST(ObjectArray, EmptyArray) {
  std::vector<int> log;
  {
    ObjectArray<Logged> a(0, [&](std::size_t i) {
      return Logged(static_cast<int>(i), &log, -1);
    });
    EXPECT_EQ(a.size(), 0u);
  }
  EXPECT_TRUE(log.empty());
}

// An array of at least kHugePageBytes is mapped on its own: it starts on a
// huge-page boundary, and its elements are built in index order.
TEST(ObjectArray, MappedArrayStartsOnAHugePageBoundary) {
  std::vector<int> log;
  std::vector<std::size_t> calls;
  ObjectArray<Logged> a(kMappedElements, [&](std::size_t i) {
    calls.push_back(i);
    return Logged(static_cast<int>(i), &log, -1);
  });
  ASSERT_EQ(a.size(), kMappedElements);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % kHugePageBytes, 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(calls[i], i);
    ASSERT_EQ(a[i].id, static_cast<int>(i));
  }
}

#if defined(__linux__)
// The address ranges mapped in this process, from /proc/self/maps.
using Range = std::pair<std::uintptr_t, std::uintptr_t>;
std::vector<Range> mapped_ranges() {
  std::vector<Range> ranges;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    Range r{};
    char dash = 0;
    std::istringstream(line) >> std::hex >> r.first >> dash >> r.second;
    ranges.push_back(r);
  }
  return ranges;
}

// The range holding `at`, or null.
const Range* range_of(const std::vector<Range>& ranges, std::uintptr_t at) {
  for (const Range& r : ranges) {
    if (r.first <= at && at < r.second) return &r;
  }
  return nullptr;
}

// An array of at least kMappedArrayBytes and under kHugePageBytes is mapped
// on its own too: page-aligned, built in index order, resident once built,
// and exactly its page-rounded size: when the array is gone, the address
// space around it is as it was before, page for page. (Untrimmed, the
// mapping may merge with a neighbouring anonymous one in /proc/self/maps,
// so its own entry cannot be read off directly.)
TEST(ObjectArray, MidSizeMappingIsExactlyThePageRoundedArray) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t bytes = kMidElements * sizeof(Logged);
  const std::uintptr_t rounded = (bytes + page - 1) / page * page;
  std::vector<int> log;
  log.reserve(kMidElements);
  std::vector<std::size_t> calls;
  calls.reserve(kMidElements);
  const auto before = mapped_ranges();
  auto a = std::make_unique<ObjectArray<Logged>>(
      kMidElements, [&](std::size_t i) {
        calls.push_back(i);
        return Logged(static_cast<int>(i), &log, -1);
      });
  const auto at = reinterpret_cast<std::uintptr_t>(a->data());
  EXPECT_EQ(at % page, 0u);
  for (std::size_t i = 0; i < kMidElements; ++i) ASSERT_EQ(calls[i], i);
  std::vector<unsigned char> resident(rounded / page);
  ASSERT_EQ(mincore(reinterpret_cast<void*>(at), rounded, resident.data()), 0);
  for (const unsigned char r : resident) EXPECT_TRUE(r & 1);
  const auto during = mapped_ranges();
  EXPECT_NE(range_of(during, at), nullptr);
  EXPECT_NE(range_of(during, at + rounded - 1), nullptr);
  a.reset();
  const auto after = mapped_ranges();
  for (std::uintptr_t p = at - page; p <= at + rounded; p += page) {
    ASSERT_EQ(range_of(after, p) != nullptr, range_of(before, p) != nullptr)
        << "the page at " << std::hex << p << ", array at " << at;
  }
}

// A mapped array is resident before any element is written: the mapping
// is pre-faulted. Empty elements make construction write nothing, so only
// the pre-fault can have brought the pages in. Skipped on a kernel without
// MADV_POPULATE_WRITE (before 5.14), where the advice is a no-op.
struct Empty {};

TEST(ObjectArray, MappedArraysArePrefaulted) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
#ifdef MADV_POPULATE_WRITE
  void* probe = mmap(nullptr, page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(probe, MAP_FAILED);
  const bool populates = madvise(probe, page, MADV_POPULATE_WRITE) == 0;
  munmap(probe, page);
  if (!populates) GTEST_SKIP() << "the kernel lacks MADV_POPULATE_WRITE";
#else
  GTEST_SKIP() << "built without MADV_POPULATE_WRITE";
#endif
  for (const std::size_t n : {kMappedArrayBytes, kHugePageBytes + 1}) {
    ObjectArray<Empty> a(n, [](std::size_t) { return Empty{}; });
    const std::size_t pages = (n + page - 1) / page;
    std::vector<unsigned char> resident(pages);
    ASSERT_EQ(mincore(const_cast<Empty*>(a.data()), pages * page,
                      resident.data()),
              0);
    EXPECT_EQ(std::count_if(resident.begin(), resident.end(),
                            [](unsigned char r) { return (r & 1) != 0; }),
              static_cast<std::ptrdiff_t>(pages))
        << n << " bytes";
  }
}

// The mapping is trimmed to the array's page-rounded size: a huge page
// never covers memory that construction did not touch, which is what keeps
// resident memory where the allocator path had it.
TEST(ObjectArray, MappingIsExactlyThePageRoundedArray) {
  std::vector<int> log;
  ObjectArray<Logged> a(kMappedElements, [&](std::size_t i) {
    return Logged(static_cast<int>(i), &log, -1);
  });
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t bytes = kMappedElements * sizeof(Logged);
  const std::uintptr_t rounded = (bytes + page - 1) / page * page;
  const auto at = reinterpret_cast<std::uintptr_t>(a.data());
  // The page past the end belonged to the over-mapping and is unmapped
  // again. Checked first, before anything else can map there. (The maps
  // entry alone cannot show this: the huge-page advice splits an untrimmed
  // tail into an entry of its own.)
  unsigned char resident = 0;
  errno = 0;
  EXPECT_EQ(mincore(reinterpret_cast<void*>(at + rounded), page, &resident), -1);
  EXPECT_EQ(errno, ENOMEM);
  const auto ranges = mapped_ranges();
  const Range* range = range_of(ranges, at);
  ASSERT_NE(range, nullptr);
  EXPECT_EQ(range->first, at);
  EXPECT_EQ(range->second - range->first, rounded);
}
#endif

// ------------------------------------------------------------------- Table

TEST(Table, RendersAlignedRows) {
  Table t({"name", "n", "value"});
  t.add_row({"alpha", "1", "2.50"});
  t.add_row({"beta-long-name", "100", "0.01"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("beta-long-name"), std::string::npos);
  EXPECT_NE(out.find("2.50"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::fmt(std::int64_t{-7}), "-7");
}

}  // namespace
}  // namespace aba::util
