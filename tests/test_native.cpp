// Native-platform tests: the same algorithms running on std::atomic with
// real threads.
//
// Two styles:
//   - burst linearizability: short bursts of operations across threads,
//     timestamped with a shared atomic clock, checked against the
//     sequential specs (one fresh object per burst);
//   - invariant stress: longer runs checking sound one-sided invariants
//     (e.g. a DWrite completing strictly between two DReads MUST be
//     flagged; an SC succeeding implies no SC succeeded since the LL).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>

#include "core/aba_register_bounded.h"
#include "core/aba_register_from_llsc.h"
#include "core/aba_register_unbounded_tag.h"
#include "core/llsc_register_array.h"
#include "core/llsc_single_cas.h"
#include "core/llsc_unbounded_tag.h"
#include "native/native_platform.h"
#include "reclaim/epoch.h"
#include "reclaim/hazard_pointer.h"
#include "shm/shm_platform.h"
#include "sim/sim_platform.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "structures/ms_queue.h"
#include "structures/ring_buffer.h"
#include "structures/treiber_stack.h"
#include "util/cacheline.h"
#include "util/object_array.h"
#include "util/rng.h"

namespace aba::testing {
namespace {

using NativeP = native::NativePlatform<>;

native::NativePlatform<>::Env g_env;

// ------------------------------------------------------------ burst checks

// Runs `bursts` independent bursts: each burst builds a fresh object via
// `make`, spawns n threads that each run `ops_per_thread` ops produced by
// `op_runner(pid, i, clock, history_collector)`, then checks the burst's
// history with `check`.
template <class MakeFn, class RunFn, class CheckFn>
void run_bursts(int n, int bursts, int ops_per_thread, MakeFn make, RunFn run_op,
                CheckFn check) {
  for (int burst = 0; burst < bursts; ++burst) {
    auto obj = make(burst);
    std::atomic<std::uint64_t> clock{0};
    spec::History history;
    std::barrier sync(n);
    std::vector<std::thread> threads;
    for (int pid = 0; pid < n; ++pid) {
      threads.emplace_back([&, pid] {
        util::Xoshiro256 rng(static_cast<std::uint64_t>(burst) * 1000 + pid);
        sync.arrive_and_wait();
        for (int i = 0; i < ops_per_thread; ++i) {
          run_op(*obj, pid, rng, clock, history);
        }
      });
    }
    for (auto& t : threads) t.join();
    check(history.ops(), burst);
  }
}

TEST(NativeFig4, BurstHistoriesLinearizable) {
  using Fig4 = core::AbaRegisterBounded<NativeP>;
  const int n = 3;
  run_bursts(
      n, /*bursts=*/40, /*ops_per_thread=*/4,
      [&](int) { return std::make_unique<Fig4>(g_env, n, Fig4::Options{.value_bits = 4}); },
      [](Fig4& reg, int pid, util::Xoshiro256& rng,
         std::atomic<std::uint64_t>& clock, spec::History& history) {
        if (rng.chance(2, 5)) {
          const std::uint64_t v = rng.below(16);
          const auto idx =
              history.begin_op(pid, spec::Method::kDWrite, v, clock.fetch_add(1));
          reg.dwrite(pid, v);
          history.complete(idx, 0, clock.fetch_add(1));
        } else {
          const auto idx =
              history.begin_op(pid, spec::Method::kDRead, 0, clock.fetch_add(1));
          const auto [value, flag] = reg.dread(pid);
          history.complete(idx, spec::pack_dread_result(value, flag),
                           clock.fetch_add(1));
        }
      },
      [&](const std::vector<spec::Op>& ops, int burst) {
        const auto result = spec::check_linearizable<spec::AbaRegisterSpec>(
            ops, spec::AbaRegisterSpec::initial(n, 0));
        EXPECT_TRUE(result.linearizable)
            << "burst " << burst << "\n" << spec::explain(ops, result);
      });
}

TEST(NativeFig3, BurstHistoriesLinearizable) {
  using Fig3 = core::LlscSingleCas<NativeP>;
  const int n = 3;
  run_bursts(
      n, /*bursts=*/40, /*ops_per_thread=*/4,
      [&](int) {
        return std::make_unique<Fig3>(
            g_env, n,
            Fig3::Options{.value_bits = 8, .initial_value = 0,
                          .initially_linked = true});
      },
      [](Fig3& obj, int pid, util::Xoshiro256& rng,
         std::atomic<std::uint64_t>& clock, spec::History& history) {
        const auto dice = rng.below(10);
        if (dice < 4) {
          const auto idx =
              history.begin_op(pid, spec::Method::kLL, 0, clock.fetch_add(1));
          const auto v = obj.ll(pid);
          history.complete(idx, v, clock.fetch_add(1));
        } else if (dice < 8) {
          const std::uint64_t v = rng.below(64);
          const auto idx =
              history.begin_op(pid, spec::Method::kSC, v, clock.fetch_add(1));
          const bool ok = obj.sc(pid, v);
          history.complete(idx, ok ? 1 : 0, clock.fetch_add(1));
        } else {
          const auto idx =
              history.begin_op(pid, spec::Method::kVL, 0, clock.fetch_add(1));
          const bool ok = obj.vl(pid);
          history.complete(idx, ok ? 1 : 0, clock.fetch_add(1));
        }
      },
      [&](const std::vector<spec::Op>& ops, int burst) {
        const auto result = spec::check_linearizable<spec::LlscSpec>(
            ops, spec::LlscSpec::initial(n, 0, true));
        EXPECT_TRUE(result.linearizable)
            << "burst " << burst << "\n" << spec::explain(ops, result);
      });
}

TEST(NativeRegArray, BurstHistoriesLinearizable) {
  using RegArray = core::LlscRegisterArray<NativeP>;
  const int n = 3;
  run_bursts(
      n, /*bursts=*/40, /*ops_per_thread=*/4,
      [&](int) {
        return std::make_unique<RegArray>(
            g_env, n,
            RegArray::Options{.value_bits = 8, .initial_value = 0,
                              .initially_linked = true});
      },
      [](RegArray& obj, int pid, util::Xoshiro256& rng,
         std::atomic<std::uint64_t>& clock, spec::History& history) {
        const auto dice = rng.below(10);
        if (dice < 4) {
          const auto idx =
              history.begin_op(pid, spec::Method::kLL, 0, clock.fetch_add(1));
          const auto v = obj.ll(pid);
          history.complete(idx, v, clock.fetch_add(1));
        } else if (dice < 8) {
          const std::uint64_t v = rng.below(64);
          const auto idx =
              history.begin_op(pid, spec::Method::kSC, v, clock.fetch_add(1));
          const bool ok = obj.sc(pid, v);
          history.complete(idx, ok ? 1 : 0, clock.fetch_add(1));
        } else {
          const auto idx =
              history.begin_op(pid, spec::Method::kVL, 0, clock.fetch_add(1));
          const bool ok = obj.vl(pid);
          history.complete(idx, ok ? 1 : 0, clock.fetch_add(1));
        }
      },
      [&](const std::vector<spec::Op>& ops, int burst) {
        const auto result = spec::check_linearizable<spec::LlscSpec>(
            ops, spec::LlscSpec::initial(n, 0, true));
        EXPECT_TRUE(result.linearizable)
            << "burst " << burst << "\n" << spec::explain(ops, result);
      });
}

// -------------------------------------------------------- invariant stress

TEST(NativeFig4Stress, ContainedWritesAreAlwaysFlagged) {
  using Fig4 = core::AbaRegisterBounded<NativeP>;
  const int n = 4;  // 1 writer + 3 readers.
  Fig4 reg(g_env, n, Fig4::Options{.value_bits = 4});
  // The writer bumps writes_started before each DWrite and
  // writes_completed after it (see the window check below).
  std::atomic<std::uint64_t> writes_started{0};
  std::atomic<std::uint64_t> writes_completed{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> flagged_reads{0};

  // Readers run a fixed number of reads; the writer keeps writing until all
  // readers are done (so writes genuinely overlap reads on any scheduler).
  std::atomic<int> readers_running{n - 1};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (readers_running.load() > 0) {
      writes_started.fetch_add(1);
      reg.dwrite(0, i++ & 15);
      writes_completed.fetch_add(1);
      if ((i & 63) == 0) std::this_thread::yield();
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int pid = 1; pid < n; ++pid) {
    readers.emplace_back([&, pid] {
      // Count of started writes sampled right after my previous DRead
      // responded.
      std::uint64_t started_prev = writes_started.load();
      for (int i = 0; i < 3000; ++i) {
        const std::uint64_t completed_invoke = writes_completed.load();
        const auto [value, flag] = reg.dread(pid);
        if (flag) flagged_reads.fetch_add(1);
        // Sound invariant: a DWrite wholly inside the window — started after
        // my previous DRead responded, completed before this DRead was
        // invoked — must be flagged. The single writer's DWrites are
        // sequential, so write number started_prev + 1 is such a write
        // whenever it completed before the invocation. (A done-counter
        // alone is not enough: a DWrite that linearized before the previous
        // DRead can bump it after that DRead responded.)
        if (!flag && completed_invoke > started_prev) violations.fetch_add(1);
        started_prev = writes_started.load();
      }
      readers_running.fetch_sub(1);
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(flagged_reads.load(), 0u);
}

TEST(NativeFig3Stress, ScSuccessesAreExclusivePerLinkEpoch) {
  using Fig3 = core::LlscSingleCas<NativeP>;
  const int n = 4;
  Fig3 obj(g_env, n, Fig3::Options{.value_bits = 32, .initial_value = 0,
                                   .initially_linked = false});
  // Each thread loops LL; SC(unique value). Every successful SC publishes a
  // globally unique value; values observed by LL must all be distinct
  // successful-SC values (no lost or duplicated successes).
  std::atomic<std::uint64_t> successes{0};
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> per_thread_successes(n, 0);
  for (int pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      for (int i = 0; i < 4000; ++i) {
        obj.ll(pid);
        const std::uint64_t unique =
            (static_cast<std::uint64_t>(i) << 3) | static_cast<std::uint64_t>(pid);
        if (obj.sc(pid, unique)) ++per_thread_successes[pid];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int pid = 0; pid < n; ++pid) successes += per_thread_successes[pid];
  // At least the uncontended successes must land; and never more than the
  // number of attempts.
  EXPECT_GT(successes.load(), 0u);
  EXPECT_LE(successes.load(), static_cast<std::uint64_t>(n) * 4000u);
}

TEST(NativeFig5Stress, ReductionFlagsContainedWrites) {
  using Llsc = core::LlscUnboundedTag<NativeP>;
  const int n = 3;
  Llsc llsc(g_env, n,
            Llsc::Options{.value_bits = 16, .initial_value = 0,
                          .initially_linked = true});
  core::AbaRegisterFromLlsc<Llsc> reg(llsc, n, 0);

  // Same window check as NativeFig4Stress.ContainedWritesAreAlwaysFlagged.
  std::atomic<std::uint64_t> writes_started{0};
  std::atomic<std::uint64_t> writes_completed{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::atomic<int> readers_running{n - 1};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (readers_running.load() > 0) {
      writes_started.fetch_add(1);
      reg.dwrite(0, i++ & 255);
      writes_completed.fetch_add(1);
      if ((i & 63) == 0) std::this_thread::yield();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int pid = 1; pid < n; ++pid) {
    readers.emplace_back([&, pid] {
      std::uint64_t started_prev = writes_started.load();
      for (int i = 0; i < 3000; ++i) {
        const std::uint64_t completed_invoke = writes_completed.load();
        const auto [value, flag] = reg.dread(pid);
        if (!flag && completed_invoke > started_prev) violations.fetch_add(1);
        started_prev = writes_started.load();
      }
      readers_running.fetch_sub(1);
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);
}

// ----------------------------------------------------------- step counting

TEST(NativeStepCounter, CountsSharedOperations) {
  using Fig4 = core::AbaRegisterBounded<NativeP>;
  Fig4 reg(g_env, 2, Fig4::Options{.value_bits = 4});
  const std::uint64_t before = native::step_counter();
  reg.dwrite(0, 1);
  EXPECT_EQ(native::step_counter() - before, 2u);
  const std::uint64_t mid = native::step_counter();
  reg.dread(1);
  EXPECT_EQ(native::step_counter() - mid, 4u);
}

// ------------------------------------------------------ policy equivalence

// Every policy must satisfy the Platform concept (NativeLayout below checks
// what each one isolates on cache lines).
static_assert(aba::Platform<native::NativePlatform<native::Counted>>);
static_assert(aba::Platform<native::NativePlatform<native::Fast>>);
static_assert(aba::Platform<native::NativePlatform<native::FastAsymmetric>>);
// The fence trait resolves through the platform: asymmetric only where the
// policy opted in, NoFence (orderings carry the edge) everywhere else.
static_assert(
    std::is_same_v<aba::PlatformFenceT<native::NativePlatform<native::FastAsymmetric>>,
                   util::AsymmetricFence>);
static_assert(
    std::is_same_v<aba::PlatformFenceT<native::NativePlatform<native::Fast>>,
                   util::NoFence>);
static_assert(
    std::is_same_v<aba::PlatformFenceT<native::NativePlatform<native::Counted>>,
                   util::NoFence>);
// StoreLoad order is a property of the platform type: the seq_cst policies,
// the simulator and the shm platform give it; acquire/release does not, so
// the StoreLoad-shaped protocols refuse the relaxed policies (the
// compile_fail.* ctests, tests/compile_fail/).
static_assert(aba::kPlatformOrdersStoreLoad<native::NativePlatform<native::Counted>>);
static_assert(aba::kPlatformOrdersStoreLoad<native::NativePlatform<native::Fast>>);
static_assert(aba::kPlatformOrdersStoreLoad<sim::SimPlatform>);
static_assert(aba::kPlatformOrdersStoreLoad<shm::ShmPlatform>);
static_assert(
    !aba::kPlatformOrdersStoreLoad<native::NativePlatform<native::FastRelaxed>>);
static_assert(
    !aba::kPlatformOrdersStoreLoad<native::NativePlatform<native::FastAsymmetric>>);

// ------------------------------------------------------------ record layout
//
// Under the isolating policies the record, not the word, is the unit of
// cache-line isolation: a two-word record deriving from the trait's Base
// (the shape of a stack node and a ring slot) is one line, while a
// standalone word still takes a line of its own. Under Counted the record
// words are the standalone types, which is what keeps the Counted ledgers
// and the Fast ≡ Counted trace comparisons unchanged.
template <class P>
struct TwoWordRecord : PlatformRecord<P>::Base {
  explicit TwoWordRecord(typename P::Env& env)
      : value(env, "rec.value", 0, sim::BoundSpec::unbounded()),
        next(env, "rec.next", 0, sim::BoundSpec::unbounded()) {}
  typename PlatformRecord<P>::Register value;
  typename PlatformRecord<P>::WritableCas next;
};

template <class Policy>
class NativeLayout : public ::testing::Test {};
using IsolatingPolicies =
    ::testing::Types<native::Fast, native::FastRelaxed, native::FastAsymmetric>;
TYPED_TEST_SUITE(NativeLayout, IsolatingPolicies);

TYPED_TEST(NativeLayout, TwoWordRecordIsExactlyOneLine) {
  using P = native::NativePlatform<TypeParam>;
  using Record = TwoWordRecord<P>;
  static_assert(sizeof(Record) == util::kCacheLineSize);
  static_assert(alignof(Record) == util::kCacheLineSize);
  static_assert(kRecordFillsItsLine<Record>);
  // The record's words are unpadded, so both sit on the record's one line.
  static_assert(sizeof(typename PlatformRecord<P>::Register) ==
                sizeof(std::uint64_t));
  static_assert(sizeof(typename PlatformRecord<P>::Cas) ==
                sizeof(std::uint64_t));
  static_assert(sizeof(typename PlatformRecord<P>::WritableCas) ==
                sizeof(std::uint64_t));

  // In a pool the records sit back to back, one line apart, line-aligned.
  typename P::Env env;
  util::ObjectArray<Record> pool(4, [&](std::size_t) { return Record(env); });
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto base = reinterpret_cast<std::uintptr_t>(&pool[i]);
    EXPECT_EQ(base % util::kCacheLineSize, 0u);
    EXPECT_LT(reinterpret_cast<std::uintptr_t>(&pool[i].next) - base,
              util::kCacheLineSize);
    if (i + 1 < pool.size()) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&pool[i + 1]) - base,
                util::kCacheLineSize);
    }
  }
  pool[1].value.write(7);
  EXPECT_TRUE(pool[1].next.cas(0, 9));
  EXPECT_EQ(pool[1].value.read(), 7u);
  EXPECT_EQ(pool[1].next.read(), 9u);
  EXPECT_EQ(pool[0].next.read(), 0u);
}

// The MS-queue node is packed: its two words and nothing else, four nodes
// to a line, and in a pool none straddles a line. The deferred-epoch queue
// (request_queue_open's) is checked where that reclaimer compiles: not on
// FastRelaxed, which cannot order its announce-then-validate.
TYPED_TEST(NativeLayout, MsQueueNodeIsPackedFourToALine) {
  using P = native::NativePlatform<TypeParam>;
  using Node = typename structures::MsQueue<P>::Node;
  static_assert(sizeof(Node) == 16);
  if constexpr (!std::is_same_v<TypeParam, native::FastRelaxed>) {
    static_assert(sizeof(typename structures::MsQueue<
                         P, reclaim::DeferredEpochReclaimer<P>>::Node) == 16);
  }
  static_assert(util::kCacheLineSize / sizeof(Node) == 4);

  // A small pool comes from operator new, a large one (request_queue_open's
  // 49,153 nodes, outside AddressSanitizer's heap redzones) from its own
  // mapping; both keep every node on one line.
  typename P::Env env;
  for (const std::size_t n : {std::size_t{9}, std::size_t{3 * 16384 + 1}}) {
    util::ObjectArray<Node> pool(n, [&](std::size_t) { return Node(env, 0); });
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const auto at = reinterpret_cast<std::uintptr_t>(&pool[i]);
      ASSERT_EQ(at / util::kCacheLineSize,
                (at + sizeof(Node) - 1) / util::kCacheLineSize)
          << "node " << i << " of " << n;
    }
    const auto line = [&](std::size_t i) {
      return reinterpret_cast<std::uintptr_t>(&pool[i]) / util::kCacheLineSize;
    };
    EXPECT_LE(line(n - 1) - line(0) + 1, (n + 3) / 4 + 1) << n << " nodes";
    pool[1].value.write(7);
    EXPECT_TRUE(pool[1].next.cas(0, 9));
    EXPECT_EQ(pool[0].next.read(), 0u);
    EXPECT_EQ(pool[2].value.read(), 0u);
  }
}

// The Treiber node and the ring slots keep a line each: packing measured
// slower on the Treiber stack (docs/DESIGN.md, "Pool storage"). The
// cached-hazard stack is checked where that reclaimer compiles: not on
// FastRelaxed, which cannot order its publish-then-revalidate.
TYPED_TEST(NativeLayout, TreiberNodeAndRingSlotsKeepALine) {
  using P = native::NativePlatform<TypeParam>;
  using TreiberNode =
      typename structures::TreiberStack<P, structures::TaggedCasHead<P>>::Node;
  using MpscSlot = typename structures::MpscRing<P>::Slot;
  using MpmcSlot = typename structures::MpmcRing<P>::Slot;
  static_assert(sizeof(TreiberNode) == util::kCacheLineSize);
  static_assert(alignof(TreiberNode) == util::kCacheLineSize);
  if constexpr (!std::is_same_v<TypeParam, native::FastRelaxed>) {
    using HazardNode = typename structures::TreiberStack<
        P, structures::TaggedCasHead<P>,
        reclaim::CachedHazardPointerReclaimer<P>>::Node;
    static_assert(sizeof(HazardNode) == util::kCacheLineSize);
    static_assert(alignof(HazardNode) == util::kCacheLineSize);
  }
  static_assert(sizeof(MpscSlot) == util::kCacheLineSize);
  static_assert(alignof(MpscSlot) == util::kCacheLineSize);
  static_assert(sizeof(MpmcSlot) == util::kCacheLineSize);
  static_assert(alignof(MpmcSlot) == util::kCacheLineSize);
}

TYPED_TEST(NativeLayout, StandaloneWordsKeepALineEach) {
  using P = native::NativePlatform<TypeParam>;
  // Exactly one line each: the unused bound metadata must not push an
  // isolated word onto a second.
  static_assert(sizeof(typename P::Register) == util::kCacheLineSize);
  static_assert(sizeof(typename P::Cas) == util::kCacheLineSize);
  static_assert(sizeof(typename P::WritableCas) == util::kCacheLineSize);
  static_assert(alignof(typename P::Register) == util::kCacheLineSize);
  static_assert(alignof(typename P::Cas) == util::kCacheLineSize);
  static_assert(alignof(typename P::WritableCas) == util::kCacheLineSize);
}

TEST(NativeLayout, CountedRecordWordsAreTheStandaloneWords) {
  using P = native::NativePlatform<native::Counted>;
  static_assert(
      std::is_same_v<PlatformRecord<P>::Register, P::Register>);
  static_assert(std::is_same_v<PlatformRecord<P>::Cas, P::Cas>);
  static_assert(
      std::is_same_v<PlatformRecord<P>::WritableCas, P::WritableCas>);
  // The empty base adds neither size nor alignment: a Counted record is
  // laid out exactly like its two words declared side by side.
  static_assert(sizeof(TwoWordRecord<P>) ==
                sizeof(P::Register) + sizeof(P::WritableCas));
  static_assert(alignof(TwoWordRecord<P>) == alignof(P::WritableCas));
  static_assert(alignof(P::Cas) < util::kCacheLineSize);
  P::Env env;
  TwoWordRecord<P> record(env);
  const std::uint64_t before = native::step_counter();
  record.value.write(1);
  EXPECT_TRUE(record.next.cas(0, 2));
  EXPECT_EQ(native::step_counter() - before, 2u);
}

// Runs a deterministic token-serialized multithreaded LL/SC workload: n real
// threads, but each operation runs only when the global turn counter hands
// it the token, so the schedule — and hence every operation's result — is a
// pure function of (n, rounds). Running the identical schedule on both
// platform policies must produce identical traces: the Fast policy changes
// instrumentation, layout and backoff, never results.
template <class P>
std::vector<std::uint64_t> tokenized_llsc_trace(int n, int rounds) {
  typename P::Env env;
  core::LlscSingleCas<P> obj(
      env, n,
      typename core::LlscSingleCas<P>::Options{
          .value_bits = 16, .initial_value = 0, .initially_linked = true});
  std::vector<std::uint64_t> trace(static_cast<std::size_t>(n) * rounds, 0);
  std::atomic<int> turn{0};
  std::vector<std::thread> threads;
  for (int pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      for (int r = 0; r < rounds; ++r) {
        const int my_step = r * n + pid;
        while (turn.load() != my_step) std::this_thread::yield();
        std::uint64_t result = 0;
        switch ((pid + r) % 3) {
          case 0:
            result = obj.ll(pid);
            break;
          case 1:
            result = obj.sc(pid, static_cast<std::uint64_t>(my_step) & 0xFFFF)
                         ? 1
                         : 0;
            break;
          default:
            result = obj.vl(pid) ? 1 : 0;
            break;
        }
        trace[static_cast<std::size_t>(my_step)] = result;
        turn.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  return trace;
}

TEST(NativePolicy, FastMatchesCountedOnLlscWorkload) {
  using CountedP = native::NativePlatform<native::Counted>;
  using FastP = native::NativePlatform<native::Fast>;
  const auto counted = tokenized_llsc_trace<CountedP>(3, 64);
  const auto fast = tokenized_llsc_trace<FastP>(3, 64);
  EXPECT_EQ(counted, fast);
}

TEST(NativePolicy, FastPlatformCountsNoSteps) {
  using FastP = native::NativePlatform<native::Fast>;
  FastP::Env env;
  core::LlscSingleCas<FastP> obj(env, 2, {});
  const std::uint64_t before = native::step_counter();
  obj.ll(0);
  obj.sc(0, 1);
  obj.vl(0);
  EXPECT_EQ(native::step_counter(), before);
}

TEST(NativeStepCounter, Fig3WorstCaseRespected) {
  using Fig3 = core::LlscSingleCas<NativeP>;
  const int n = 4;
  Fig3 obj(g_env, n, Fig3::Options{.initially_linked = false});
  for (int pid = 0; pid < n; ++pid) {
    const std::uint64_t before = native::step_counter();
    obj.ll(pid);
    EXPECT_LE(native::step_counter() - before,
              static_cast<std::uint64_t>(1 + 2 * n));
    const std::uint64_t mid = native::step_counter();
    obj.sc(pid, 7);
    EXPECT_LE(native::step_counter() - mid, static_cast<std::uint64_t>(2 * n));
  }
}

}  // namespace
}  // namespace aba::testing
