// e2e_bench — the end-to-end benchmark driver for the ABA structures.
//
// One process runs ONE round of one workload, or the per-layer ladder, and
// prints one JSON object on stdout. bench/e2e/run.py launches the rounds,
// takes medians and gates on the correctness checks; README.md beside this
// file defines every workload and metric. The driver reaches src/ only
// through its public surface (it constructs structures, calls their verbs
// and reads stats() after join), so a change there is measured, never
// bypassed.
//
//   e2e_bench --workload NAME --seed N [--round R] --seconds S --warmup W
//             [--rate PER_S] [--trace-out FILE] [--setup-only]
//   e2e_bench --ladder --seconds S
//
// A round: construct and probe the fence (setup_s is that span), spawn
// kThreads workers, meet at the start barrier, run `warmup` seconds
// unrecorded, then `seconds` recorded. --setup-only stops after set-up.
// Every input the structures see (values, op mix, arrival times) comes from
// generators seeded by (seed, round, thread).
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aba_register_bounded.h"
#include "core/llsc_single_cas.h"
#include "native/native_platform.h"
#include "reclaim/epoch.h"
#include "reclaim/hazard_pointer.h"
#include "reclaim/reclaimer.h"
#include "reclaim/tagged.h"
#include "structures/adaptive_sharded.h"
#include "structures/contention.h"
#include "structures/ms_queue.h"
#include "structures/ring_buffer.h"
#include "structures/sharded.h"
#include "structures/treiber_stack.h"
#include "util/asymmetric_fence.h"
#include "util/cacheline.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace {

using namespace aba;

using AsymP = native::NativePlatform<native::FastAsymmetric>;
using FastP = native::NativePlatform<native::Fast>;
using RelaxedP = native::NativePlatform<native::FastRelaxed>;
using CountedP = native::NativePlatform<native::Counted>;

// Three workers leave one of a 4-vCPU host's cores for main, the runner and
// the OS.
constexpr int kThreads = 3;

// Pins the calling thread to the slot-th CPU the process may use: slot 0
// is main's (shared with the runner and the OS), slot p + 1 is worker p's.
// Contended throughput depends on how many CPUs the workers really occupy:
// two workers time-sliced on one CPU never bounce the head's cache line and
// run 2-3x faster, which made unpinned rounds bimodal. And a main thread
// woken onto a CPU a spinning worker holds waits out a scheduler slice,
// which made the start barrier bimodal. Skipped when the process may use
// fewer than kThreads + 1 CPUs.
void pin_thread(int slot) {
#ifdef __linux__
  // The CPUs the process may use, read once: before main pins itself, since
  // threads inherit their creator's (by then single-CPU) mask.
  static const std::vector<int> cpus = [] {
    std::vector<int> list;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) list.push_back(cpu);
      }
    }
    return list;
  }();
  if (static_cast<int>(cpus.size()) < kThreads + 1) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(slot)], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
#else
  (void)slot;
#endif
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

std::uint64_t thread_seed(std::uint64_t seed, int round, int thread,
                          std::uint64_t stream) {
  return util::hash_combine(
      util::hash_combine(util::hash_combine(seed, static_cast<std::uint64_t>(round)),
                         static_cast<std::uint64_t>(thread)),
      stream);
}

// Exponential inter-arrival gap (a Poisson process) with the given mean.
double exp_gap_ns(util::Xoshiro256& rng, double mean_ns) {
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
  return -std::log1p(-u) * mean_ns;
}

// Multiset fingerprint term: sums of mix(v) over two multisets agree (mod
// 2^64) when the multisets do, and differ with overwhelming probability
// when they do not.
std::uint64_t mix(std::uint64_t v) { return util::splitmix64(v); }

// ---------------------------------------------------------------- histogram

// Log-linear histogram with 128 sub-buckets per octave (<1% resolution).
// Percentiles interpolate by rank inside the containing bucket, so a
// reported median moves with the data instead of snapping to a bucket
// edge. util::LatencyHistogram (3% buckets, lower-edge reporting) is too
// coarse for a 10% regression gate.
class Hist {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub * (65 - kSubBits);

  void add(std::uint64_t v) {
    ++counts_[bucket(v)];
    ++total_;
  }
  void add_signed(std::int64_t v) { add(v > 0 ? static_cast<std::uint64_t>(v) : 0); }

  void merge(const Hist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  std::uint64_t total() const { return total_; }

  double percentile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      if (static_cast<double>(seen + c) > rank) {
        const double within =
            (rank - static_cast<double>(seen) + 0.5) / static_cast<double>(c);
        return lower(i) + within * width(i);
      }
      seen += c;
    }
    return lower(kBuckets - 1);
  }

 private:
  static std::size_t bucket(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned octave = 63u - static_cast<unsigned>(std::countl_zero(v));
    const std::uint64_t sub = (v >> (octave - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(octave - kSubBits + 1) * kSub + sub;
  }
  static double lower(std::size_t b) {
    if (b < kSub) return static_cast<double>(b);
    const int octave = static_cast<int>(b / kSub) - 1 + static_cast<int>(kSubBits);
    return std::ldexp(1.0, octave) +
           static_cast<double>(b % kSub) * std::ldexp(1.0, octave - static_cast<int>(kSubBits));
  }
  static double width(std::size_t b) {
    return b < kSub ? 1.0 : std::ldexp(1.0, static_cast<int>(b / kSub) - 1);
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t total_ = 0;
};

// --------------------------------------------------------------------- json

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) { return raw(key, json_number(v)); }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& object(const std::string& key, const JsonObject& v) { return raw(key, v.text()); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

// The checks a round or the ladder ran: each is named in the output, and
// any false one makes run.py report correct=false and exit non-zero.
class Checks {
 public:
  void add(const std::string& name, bool ok) {
    json_.boolean(name, ok);
    all_ok_ = all_ok_ && ok;
  }
  bool ok() const { return all_ok_; }
  const JsonObject& json() const { return json_; }

 private:
  JsonObject json_;
  bool all_ok_ = true;
};

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

// How this driver was built: results of different builds never compare.
JsonObject build_facts() {
#ifdef ABA_RELAXED_ORDERINGS
  constexpr bool kRelaxedOrderings = true;
#else
  constexpr bool kRelaxedOrderings = false;
#endif
  return JsonObject()
      .str("build_type", E2E_BUILD_TYPE)
      .boolean("asymmetric_fence_compiled", util::AsymmetricFence::kCompiledAsymmetric)
      .boolean("relaxed_orderings", kRelaxedOrderings);
}

// Peak resident set of this process image. VmHWM, not getrusage's
// ru_maxrss: Linux carries ru_maxrss across execve, so it would report the
// launching interpreter's footprint whenever that is the larger.
double peak_rss_mb() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ------------------------------------------------------------------ tracing

// Spans around every call the driver makes into a layer, kept in memory
// and written out when the round ends. A request span encloses the put and
// take calls it issues, so its self time is the benchmark's own work.
enum SpanKind : std::uint32_t { kRequestSpan, kPutSpan, kTakeSpan, kSpanKinds };

struct Span {
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t request;
  std::uint32_t kind;
};

class Tracer {
 public:
  // Spans kept per thread for the span file (the most recent ones); the
  // self-time totals below cover every call.
  static constexpr std::size_t kKeep = std::size_t{1} << 14;

  template <class F>
  auto call(SpanKind kind, std::uint64_t request, F&& f) {
    const std::uint64_t t0 = util::rdtsc();
    auto result = f();
    record(kind, request, t0, util::rdtsc());
    return result;
  }

  void record(SpanKind kind, std::uint64_t request, std::uint64_t t0, std::uint64_t t1) {
    ticks_[kind] += t1 - t0;
    ++calls_[kind];
    const Span span{t0, t1, request, kind};
    if (spans_.size() < kKeep) {
      spans_.push_back(span);
    } else {
      spans_[next_++ % kKeep] = span;
    }
  }

  std::uint64_t ticks(SpanKind k) const { return ticks_[k]; }
  std::uint64_t calls(SpanKind k) const { return calls_[k]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::array<std::uint64_t, kSpanKinds> ticks_{};
  std::array<std::uint64_t, kSpanKinds> calls_{};
  std::vector<Span> spans_;
  std::size_t next_ = 0;
};

// A layer call, timed as a span only in the traced build of a worker loop.
template <bool kTraced, class F>
auto layer_call(Tracer& tracer, SpanKind kind, std::uint64_t request, F&& f) {
  if constexpr (kTraced) {
    return tracer.call(kind, request, std::forward<F>(f));
  } else {
    return f();
  }
}

// ------------------------------------------------------------ round harness

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

struct RoundArgs {
  std::string workload;
  std::uint64_t seed = 1;
  int round = 0;
  double seconds = 5.0;
  double warmup = 1.0;
  double rate = 0.0;  // Offered requests (or writes) per second; open loops.
  std::string trace_out;  // Non-empty: traced round, spans written here.
  bool setup_only = false;
  bool traced() const { return !trace_out.empty(); }
};

// Time origin shared by every thread of a round (taken before spawn).
struct Origin {
  std::uint64_t tick = 0;
  std::int64_t ns = 0;
};

// What a worker accumulates while the round is recorded; reset at the
// warm-up → measure edge.
struct Measured {
  std::uint64_t ops = 0;   // Completed ops: the ops_per_s numerator.
  std::uint64_t puts = 0;  // Accepted pushes, enqueues or DWrites.
  std::uint64_t takes = 0;
  std::uint64_t empty_takes = 0;
  double seconds = 0.0;
  Hist op;        // Sampled per-op latency, ticks.
  Hist lat;       // Request latency from its due time (ticks or ns).
  Hist gen_late;  // How late the client issued an op (ticks or ns).
  Tracer tracer;
};

// What a worker accumulates over the WHOLE round, warm-up included: the
// correctness audit has to see every operation.
struct Audit {
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t put_count = 0;
  std::uint64_t put_hash = 0;
  std::uint64_t take_count = 0;
  std::uint64_t take_hash = 0;
  std::uint64_t fifo_violations = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t missed_detections = 0;
};

// Per-thread counters the main thread samples every 10 ms for the backlog
// (items put but not yet taken). Written by their owner only.
struct alignas(util::kCacheLineSize) Progress {
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> takes{0};
};

struct Worker {
  Measured m;
  Audit a;
  Progress progress;
};

// The worker's view of the round's phase: resets Measured at the warm-up →
// measure edge and returns false once the round is over.
class PhaseWatch {
 public:
  bool poll(const std::atomic<int>& phase, Measured& m) {
    const int now = phase.load(std::memory_order_relaxed);
    if (now == seen_) return true;
    seen_ = now;
    if (now == kMeasure) {
      m = Measured{};
      start_ns_ = now_ns();
      return true;
    }
    if (start_ns_ != 0) m.seconds = static_cast<double>(now_ns() - start_ns_) * 1e-9;
    return false;
  }

 private:
  int seen_ = kWarmup;
  std::int64_t start_ns_ = 0;
};

// Post-join facts a workload reports besides the merged worker stats.
struct Finish {
  std::uint64_t failed = 0;
  double unreclaimed_end = 0;
  double free_nodes_end = 0;
  std::uint64_t cas_failures = 0;
  std::uint64_t structure_ops = 0;
};

// ------------------------------------------------------------ pool workloads

// pool_churn / pool_probe: an object pool on the Treiber stack with the
// hazard_cached reclaimer. The stack is the pool; a push returns an object,
// a pop takes one. Values carry a push timestamp on sampled pushes, so the
// pop that takes one measures the hand-off latency.
using PoolHead = structures::TaggedCasHead<AsymP>;
using PoolStack =
    structures::TreiberStack<AsymP, PoolHead, reclaim::CachedHazardPointerReclaimer<AsymP>>;

class PoolWorkload {
 public:
  static constexpr bool kTicks = true;
  static constexpr int kPollEvery = 64;
  static constexpr int kTakersPerPut = 1;
  static constexpr int kNodesPerThread = 512;
  // A thread whose pushes outrun its successful pops by this many nodes
  // pops instead: pops retire nodes into the popper's free list, so without
  // the cap one thread's list could drain and a push would be refused.
  static constexpr std::int64_t kDebtCap = 384;

  static constexpr std::uint64_t kStampBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kStampMask = (std::uint64_t{1} << 40) - 1;

  PoolWorkload(const RoundArgs& args, bool churn)
      : args_(args),
        churn_(churn),
        stack_(env_, kThreads, std::make_unique<PoolHead>(env_, kThreads),
               PoolStack::partition(kThreads, kNodesPerThread)) {
    if (args.traced()) stack_.set_contention_probe(&probe_);
  }

  template <bool kTraced>
  void work(int p, Worker& w, const std::atomic<int>& phase, const Origin& origin) {
    Client c{p, w, util::Xoshiro256(thread_seed(args_.seed, args_.round, p, 1)), origin};
    PhaseWatch watch;
    while (watch.poll(phase, w.m)) {
      for (int i = 0; i < kPollEvery; ++i) {
        ++c.request;
        const std::uint64_t draw = c.rng();
        const bool sample = (draw & 63) == 0;
        const std::uint64_t r0 = kTraced ? util::rdtsc() : 0;
        if (churn_) {
          if (c.debt < kDebtCap) push<kTraced>(c, sample);
          pop<kTraced>(c, sample);
        } else if ((draw >> 8) % 10 == 0 && c.debt < kDebtCap) {
          push<kTraced>(c, sample);
        } else {
          pop<kTraced>(c, sample);
        }
        if constexpr (kTraced) {
          w.m.tracer.record(kRequestSpan, c.request, r0, util::rdtsc());
        }
      }
    }
  }

  Finish finish(const std::vector<const Audit*>& audits, Checks& checks) {
    Finish f;
    const reclaim::ReclaimStats stats = stack_.reclaimer().stats();
    f.unreclaimed_end = static_cast<double>(stats.retired_unreclaimed);
    f.free_nodes_end = static_cast<double>(stats.free_nodes);
    f.cas_failures = probe_.failures();
    // Conservation: everything pushed was popped or is still on the stack.
    std::uint64_t held = 0;
    std::uint64_t held_hash = 0;
    while (const std::optional<std::uint64_t> v = stack_.pop(0)) {
      ++held;
      held_hash += mix(*v);
    }
    Audit total;
    for (const Audit* a : audits) {
      total.attempted += a->attempted;
      total.refused += a->refused;
      total.put_count += a->put_count;
      total.put_hash += a->put_hash;
      total.take_count += a->take_count;
      total.take_hash += a->take_hash;
    }
    f.structure_ops = total.attempted;
    const bool conserved = total.put_count == total.take_count + held &&
                           total.put_hash == total.take_hash + held_hash;
    checks.add("pool.value_multiset_conserved", conserved);
    checks.add("pool.no_refused_push", total.refused == 0);
    f.failed = total.refused + (conserved ? 0 : 1);
    return f;
  }

 private:
  struct Client {
    int p;
    Worker& w;
    util::Xoshiro256 rng;
    Origin origin;
    std::int64_t debt = 0;        // p's pushes minus p's successful pops.
    std::uint64_t gap_from = 0;   // End tick of p's last sampled op.
    std::uint64_t request = 0;
  };

  // Closed loop: an op is due when the previous one returns, so the
  // client's lateness is its own gap between the two (sampled ops only).
  static void note_gap(Client& c) {
    if (c.gap_from != 0) {
      c.w.m.gen_late.add(util::rdtsc() - c.gap_from);
      c.gap_from = 0;
    }
  }

  template <bool kTraced>
  void push(Client& c, bool sample) {
    note_gap(c);
    std::uint64_t value = c.rng() & ~kStampBit;
    std::uint64_t t0 = 0;
    if (sample) {
      t0 = util::rdtsc();
      value = kStampBit | (value & ~kStampMask) | ((t0 - c.origin.tick) & kStampMask);
    }
    const std::uint64_t id = (static_cast<std::uint64_t>(c.p) << 48) | c.request;
    const bool ok = layer_call<kTraced>(c.w.m.tracer, kPutSpan, id,
                                        [&] { return stack_.push(c.p, value); });
    if (sample) {
      c.gap_from = util::rdtsc();
      c.w.m.op.add(c.gap_from - t0);
    }
    ++c.w.a.attempted;
    ++c.w.m.ops;
    if (!ok) {
      ++c.w.a.refused;
      return;
    }
    ++c.debt;
    ++c.w.m.puts;
    ++c.w.a.put_count;
    c.w.a.put_hash += mix(value);
    c.w.progress.puts.store(c.w.a.put_count, std::memory_order_relaxed);
  }

  template <bool kTraced>
  void pop(Client& c, bool sample) {
    note_gap(c);
    const std::uint64_t t0 = sample ? util::rdtsc() : 0;
    const std::uint64_t id = (static_cast<std::uint64_t>(c.p) << 48) | c.request;
    const std::optional<std::uint64_t> v =
        layer_call<kTraced>(c.w.m.tracer, kTakeSpan, id, [&] { return stack_.pop(c.p); });
    std::uint64_t t1 = 0;
    if (sample) {
      t1 = util::rdtsc();
      c.w.m.op.add(t1 - t0);
      c.gap_from = t1;
    }
    ++c.w.a.attempted;
    ++c.w.m.ops;
    if (!v) {
      ++c.w.m.empty_takes;
      return;
    }
    --c.debt;
    ++c.w.m.takes;
    ++c.w.a.take_count;
    c.w.a.take_hash += mix(*v);
    c.w.progress.takes.store(c.w.a.take_count, std::memory_order_relaxed);
    if ((*v & kStampBit) != 0) {
      if (t1 == 0) t1 = util::rdtsc();
      c.w.m.lat.add(t1 - (c.origin.tick + (*v & kStampMask)));
    }
  }

  const RoundArgs& args_;
  bool churn_;
  AsymP::Env env_;
  PoolStack stack_;
  structures::ContentionProbe probe_;
};

// -------------------------------------------------- request_queue_open

// Each thread is an independent client with its own seeded Poisson arrival
// schedule (rate/3). At each due time it enqueues a request stamped with
// that due time, then dequeues one, so traffic through the MS queue is
// symmetric (a one-way producer→consumer queue starves the producer's node
// pool; see the ladder's oneway_refused_ratio). Latency is timed from the
// due time, so a stalled client's late requests are charged in full.
using RequestQueue = structures::MsQueue<AsymP, reclaim::DeferredEpochReclaimer<AsymP>>;

class RequestQueueWorkload {
 public:
  static constexpr bool kTicks = false;
  static constexpr int kPollEvery = 1;
  static constexpr int kTakersPerPut = 1;
  static constexpr int kNodesPerThread = 16384;
  static constexpr unsigned kDueBits = 36;  // ns since the origin: 68 s.
  static constexpr unsigned kSeqBits = 26;
  static constexpr std::uint64_t kDueMask = (std::uint64_t{1} << kDueBits) - 1;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

  explicit RequestQueueWorkload(const RoundArgs& args)
      : args_(args), queue_(env_, kThreads, kNodesPerThread) {
    if (args.traced()) queue_.set_contention_probe(&probe_);
    // Poisson counts stay far below 1.5x the mean plus slack; a schedule
    // that outgrows it stops and is reported as a failure.
    const double mean = args.rate / kThreads * (args.seconds + args.warmup);
    capacity_ = std::min<std::uint64_t>(kSeqMask,
                                        static_cast<std::uint64_t>(mean * 1.5) + 65536);
    for (auto& seen : seen_) {
      seen = std::make_unique<std::atomic<std::uint64_t>[]>(capacity_ / 64 + 1);
    }
  }

  template <bool kTraced>
  void work(int p, Worker& w, const std::atomic<int>& phase, const Origin& origin) {
    util::Xoshiro256 schedule(thread_seed(args_.seed, args_.round, p, 2));
    util::Xoshiro256 draws(thread_seed(args_.seed, args_.round, p, 3));
    const double mean_gap_ns = 1e9 * kThreads / args_.rate;
    std::array<std::int64_t, kThreads> last_seq;
    last_seq.fill(-1);
    double due = static_cast<double>(now_ns()) + exp_gap_ns(schedule, mean_gap_ns);
    std::uint64_t seq = 0;
    PhaseWatch watch;
    while (watch.poll(phase, w.m)) {
      if (seq >= capacity_) {
        overflow_.store(true, std::memory_order_relaxed);
        break;
      }
      std::int64_t now = now_ns();
      while (static_cast<double>(now) < due) {
        cpu_relax();
        now = now_ns();
      }
      const auto due_ns = static_cast<std::int64_t>(due);
      w.m.gen_late.add_signed(now - due_ns);
      const bool sample = (draws() & 63) == 0;
      const std::uint64_t id = (static_cast<std::uint64_t>(p) << 48) | seq;
      const std::uint64_t r0 = kTraced ? util::rdtsc() : 0;
      const std::uint64_t value =
          (static_cast<std::uint64_t>(p) << 62) | (seq << kDueBits) |
          (static_cast<std::uint64_t>(due_ns - origin.ns) & kDueMask);
      std::uint64_t t0 = sample ? util::rdtsc() : 0;
      const bool ok = layer_call<kTraced>(w.m.tracer, kPutSpan, id,
                                          [&] { return queue_.enqueue(p, value); });
      if (sample) {
        const std::uint64_t t1 = util::rdtsc();
        w.m.op.add(t1 - t0);
        t0 = t1;
      }
      ++w.a.attempted;
      if (ok) {
        ++w.m.puts;
        w.progress.puts.store(seq + 1, std::memory_order_relaxed);
      } else {
        ++w.a.refused;
      }
      const std::optional<std::uint64_t> got = layer_call<kTraced>(
          w.m.tracer, kTakeSpan, id, [&] { return queue_.dequeue(p); });
      if (sample) w.m.op.add(util::rdtsc() - t0);
      if (got) {
        deliver(*got, w.a, last_seq);
        w.m.lat.add_signed(now_ns() - (origin.ns + static_cast<std::int64_t>(*got & kDueMask)));
        ++w.m.ops;
        ++w.m.takes;
        ++w.a.take_count;
        w.progress.takes.store(w.a.take_count, std::memory_order_relaxed);
      } else {
        ++w.m.empty_takes;
      }
      if constexpr (kTraced) w.m.tracer.record(kRequestSpan, id, r0, util::rdtsc());
      ++seq;
      due += exp_gap_ns(schedule, mean_gap_ns);
    }
    issued_[static_cast<std::size_t>(p)] = seq;
  }

  Finish finish(const std::vector<const Audit*>& audits, Checks& checks) {
    Finish f;
    const reclaim::ReclaimStats stats = queue_.reclaimer().stats();
    f.unreclaimed_end = static_cast<double>(stats.retired_unreclaimed);
    f.free_nodes_end = static_cast<double>(stats.free_nodes);
    f.cas_failures = probe_.failures();
    // Requests still queued after the clients stopped were not delivered
    // by the end of the round.
    Audit drain;
    std::array<std::int64_t, kThreads> drain_seq;
    drain_seq.fill(-1);
    std::uint64_t undelivered = 0;
    while (const std::optional<std::uint64_t> v = queue_.dequeue(0)) {
      deliver(*v, drain, drain_seq);
      ++undelivered;
    }
    Audit total = drain;
    for (const Audit* a : audits) {
      total.attempted += a->attempted;
      total.refused += a->refused;
      total.fifo_violations += a->fifo_violations;
      total.duplicates += a->duplicates;
      total.corrupt += a->corrupt;
    }
    // Exactly once: every issued request's bit is set (duplicates were
    // caught as they were delivered).
    std::uint64_t missing = 0;
    for (int p = 0; p < kThreads; ++p) {
      const auto& bits = seen_[static_cast<std::size_t>(p)];
      for (std::uint64_t s = 0; s < issued_[static_cast<std::size_t>(p)]; ++s) {
        if ((bits[s / 64].load(std::memory_order_relaxed) & (std::uint64_t{1} << (s % 64))) == 0) {
          ++missing;
        }
      }
    }
    const bool overflow = overflow_.load();
    f.structure_ops = 2 * total.attempted;
    checks.add("queue.no_refused_enqueue", total.refused == 0);
    checks.add("queue.exactly_once", missing == 0 && total.duplicates == 0 && total.corrupt == 0);
    checks.add("queue.per_producer_fifo", total.fifo_violations == 0);
    checks.add("queue.delivered_by_round_end", undelivered == 0);
    checks.add("queue.schedule_fits", !overflow);
    f.failed = total.refused + missing + total.duplicates + total.corrupt +
               total.fifo_violations + undelivered + (overflow ? 1 : 0);
    return f;
  }

 private:
  // Consumer-side checks on one delivered request: well formed, newer than
  // the last request this consumer saw from the same producer, first
  // delivery of its sequence number.
  void deliver(std::uint64_t v, Audit& a, std::array<std::int64_t, kThreads>& last_seq) {
    const auto producer = static_cast<std::size_t>(v >> 62);
    const std::uint64_t seq = (v >> kDueBits) & kSeqMask;
    if (producer >= kThreads || seq >= capacity_) {
      ++a.corrupt;
      return;
    }
    if (static_cast<std::int64_t>(seq) <= last_seq[producer]) ++a.fifo_violations;
    last_seq[producer] = static_cast<std::int64_t>(seq);
    const std::uint64_t bit = std::uint64_t{1} << (seq % 64);
    if ((seen_[producer][seq / 64].fetch_or(bit, std::memory_order_relaxed) & bit) != 0) {
      ++a.duplicates;
    }
  }

  const RoundArgs& args_;
  AsymP::Env env_;
  RequestQueue queue_;
  structures::ContentionProbe probe_;
  std::uint64_t capacity_ = 0;
  std::array<std::unique_ptr<std::atomic<std::uint64_t>[]>, kThreads> seen_;
  std::array<std::uint64_t, kThreads> issued_{};
  std::atomic<bool> overflow_{false};
};

// ---------------------------------------------------------------- event_flag

// The paper's own object for its own purpose: change detection. Process 0
// DWrites the Figure 4 register on a seeded Poisson schedule; processes 1
// and 2 poll DRead. Latency runs from a write's due time to the end of the
// first DRead per reader that reports it.
class EventFlagWorkload {
 public:
  static constexpr bool kTicks = false;
  static constexpr int kPollEvery = 64;
  static constexpr int kTakersPerPut = kThreads - 1;
  static constexpr int kWriter = 0;

  explicit EventFlagWorkload(const RoundArgs& args)
      : args_(args),
        reg_(env_, kThreads,
             core::AbaRegisterBounded<FastP>::Options{.value_bits = 8}),
        mean_gap_ns_(1e9 / args.rate) {}

  template <bool kTraced>
  void work(int p, Worker& w, const std::atomic<int>& phase, const Origin& /*origin*/) {
    if (p == kWriter) {
      write_loop<kTraced>(w, phase);
    } else {
      read_loop<kTraced>(p, w, phase);
    }
  }

  Finish finish(const std::vector<const Audit*>& audits, Checks& checks) {
    Finish f;
    std::uint64_t missed = 0;
    for (const Audit* a : audits) missed += a->missed_detections;
    checks.add("flag.no_missed_detection", missed == 0);
    f.failed = missed;
    return f;
  }

 private:
  std::uint64_t schedule_seed() const {
    return thread_seed(args_.seed, args_.round, kWriter, 4);
  }

  template <bool kTraced>
  void write_loop(Worker& w, const std::atomic<int>& phase) {
    util::Xoshiro256 schedule(schedule_seed());
    util::Xoshiro256 values(thread_seed(args_.seed, args_.round, kWriter, 5));
    const std::int64_t origin = now_ns();
    origin_ns_.store(origin, std::memory_order_relaxed);
    double due = static_cast<double>(origin) + exp_gap_ns(schedule, mean_gap_ns_);
    std::uint64_t writes = 0;
    PhaseWatch watch;
    while (watch.poll(phase, w.m)) {
      std::int64_t now = now_ns();
      while (static_cast<double>(now) < due) {
        cpu_relax();
        now = now_ns();
      }
      w.m.gen_late.add_signed(now - static_cast<std::int64_t>(due));
      const std::uint64_t value = values() & 0xFF;
      const std::uint64_t r0 = kTraced ? util::rdtsc() : 0;
      writes_started_.value.store(writes + 1);
      layer_call<kTraced>(w.m.tracer, kPutSpan, writes, [&] {
        reg_.dwrite(kWriter, value);
        return 0;
      });
      writes_done_.value.store(++writes);
      if constexpr (kTraced) w.m.tracer.record(kRequestSpan, writes, r0, util::rdtsc());
      ++w.a.attempted;
      ++w.m.puts;
      w.progress.puts.store(writes, std::memory_order_relaxed);
      due += exp_gap_ns(schedule, mean_gap_ns_);
    }
  }

  template <bool kTraced>
  void read_loop(int p, Worker& w, const std::atomic<int>& phase) {
    // The reader replays the writer's schedule to know each write's due
    // time; the writer publishes the schedule origin before its first
    // write, and the done counter's ordering makes it visible here.
    util::Xoshiro256 replica(schedule_seed());
    util::Xoshiro256 draws(thread_seed(args_.seed, args_.round, p, 6));
    double replica_due = 0.0;
    std::uint64_t attributed = 0;  // Writes this reader has timed.
    std::uint64_t covered = 0;     // Writes started when the last true DRead ended.
    std::uint64_t checked = 0;     // Writes already held to the detection check.
    std::uint64_t request = static_cast<std::uint64_t>(p) << 48;
    PhaseWatch watch;
    while (watch.poll(phase, w.m)) {
      for (int i = 0; i < kPollEvery; ++i) {
        ++request;
        const bool sample = (draws() & 63) == 0;
        const std::uint64_t r0 = kTraced ? util::rdtsc() : 0;
        const std::uint64_t done_at_start = writes_done_.value.load();
        const std::uint64_t t0 = sample ? util::rdtsc() : 0;
        const auto [value, flag] = layer_call<kTraced>(
            w.m.tracer, kTakeSpan, request, [&] { return reg_.dread(p); });
        if (sample) w.m.op.add(util::rdtsc() - t0);
        (void)value;
        const std::uint64_t done_at_end = writes_done_.value.load();
        const std::uint64_t started_at_end = writes_started_.value.load();
        ++w.a.attempted;
        ++w.m.ops;
        // No missed detection. A write that finished before this DRead
        // began linearized after the last DRead that ended before it
        // started, and before this one: some DRead in between — one that
        // ended after the write started — must have reported it. The check
        // is sound but not complete: a true DRead is credited with every
        // write started by the time it ended, so a write still in flight
        // then is covered even if a later false DRead missed it. Crediting
        // only writes done when the true DRead began would raise false
        // alarms, since the DRead that reports a write may overlap it.
        if (flag) covered = started_at_end;
        if (done_at_start > checked) {
          if (covered < done_at_start) ++w.a.missed_detections;
          checked = done_at_start;
        }
        if (flag) {
          if (done_at_end > attributed) {
            const std::int64_t now = now_ns();
            if (attributed == 0) {
              replica_due = static_cast<double>(origin_ns_.load(std::memory_order_relaxed));
            }
            for (; attributed < done_at_end; ++attributed) {
              replica_due += exp_gap_ns(replica, mean_gap_ns_);
              w.m.lat.add_signed(now - static_cast<std::int64_t>(replica_due));
            }
            w.progress.takes.store(attributed, std::memory_order_relaxed);
          }
          ++w.m.takes;
        } else {
          ++w.m.empty_takes;
        }
        if constexpr (kTraced) w.m.tracer.record(kRequestSpan, request, r0, util::rdtsc());
      }
    }
  }

  const RoundArgs& args_;
  FastP::Env env_;
  core::AbaRegisterBounded<FastP> reg_;
  double mean_gap_ns_;
  std::atomic<std::int64_t> origin_ns_{0};
  util::Padded<std::atomic<std::uint64_t>> writes_started_;
  util::Padded<std::atomic<std::uint64_t>> writes_done_;
};

// ------------------------------------------------------------------- rounds

void write_spans(const std::string& path, const std::vector<const Tracer*>& tracers,
                 const Origin& origin, double ns_per_tick) {
  static constexpr const char* kNames[kSpanKinds] = {"request", "put", "take"};
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "e2e_bench: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "thread,request,name,start_ns,end_ns\n");
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    for (const Span& s : tracers[t]->spans()) {
      std::fprintf(out, "%zu,%llu,%s,%.1f,%.1f\n", t,
                   static_cast<unsigned long long>(s.request), kNames[s.kind],
                   static_cast<double>(s.start - origin.tick) * ns_per_tick,
                   static_cast<double>(s.end - origin.tick) * ns_per_tick);
    }
  }
  std::fclose(out);
}

template <class W>
int run_round(const RoundArgs& args, W& workload, std::int64_t build_start_ns) {
  // Set-up is the library's work before the first operation: construction
  // and pool partition (in the caller), then the fence probe. Exec and
  // thread spawn are left out: no library code runs in them, and on a VM
  // spawn's time is mostly the host waking idle vCPUs (see README.md).
  const char* fence_scheme = util::AsymmetricFence::scheme_name();
  const double setup_s = static_cast<double>(now_ns() - build_start_ns) * 1e-9;
  if (args.setup_only) {
    std::printf("%s\n", JsonObject().str("mode", "setup").num("setup_s", setup_s).text().c_str());
    return 0;
  }

  Origin origin{util::rdtsc(), now_ns()};
  std::atomic<int> phase{kWarmup};
  auto workers = std::make_unique<Worker[]>(kThreads);
  std::barrier start(kThreads + 1);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int p = 0; p < kThreads; ++p) {
    threads.emplace_back([&, p] {
      pin_thread(p + 1);
      start.arrive_and_wait();
      if (args.traced()) {
        workload.template work<true>(p, workers[p], phase, origin);
      } else {
        workload.template work<false>(p, workers[p], phase, origin);
      }
    });
  }
  start.arrive_and_wait();

  std::this_thread::sleep_for(std::chrono::duration<double>(args.warmup));
  const std::uint64_t tick0 = util::rdtsc();
  const std::int64_t ns0 = now_ns();
  phase.store(kMeasure);
  std::vector<double> backlog;
  const std::int64_t end_ns = ns0 + static_cast<std::int64_t>(args.seconds * 1e9);
  while (now_ns() < end_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::uint64_t puts = 0;
    std::uint64_t takes = 0;
    for (int p = 0; p < kThreads; ++p) {
      puts += workers[p].progress.puts.load(std::memory_order_relaxed);
      takes += workers[p].progress.takes.load(std::memory_order_relaxed);
    }
    const double owed = static_cast<double>(W::kTakersPerPut) * static_cast<double>(puts);
    backlog.push_back(std::max(0.0, owed - static_cast<double>(takes)));
  }
  const std::uint64_t tick1 = util::rdtsc();
  const std::int64_t ns1 = now_ns();
  phase.store(kStop);
  for (auto& t : threads) t.join();
  const double ns_per_tick =
      tick1 > tick0 ? static_cast<double>(ns1 - ns0) / static_cast<double>(tick1 - tick0) : 1.0;

  Checks checks;
  std::vector<const Audit*> audits;
  for (int p = 0; p < kThreads; ++p) audits.push_back(&workers[p].a);
  const Finish fin = workload.finish(audits, checks);

  Measured all;
  double ops_per_s = 0.0;
  double puts_per_s = 0.0;
  std::uint64_t attempted = 0;
  std::vector<const Tracer*> tracers;
  for (int p = 0; p < kThreads; ++p) {
    const Measured& m = workers[p].m;
    if (m.seconds > 0) {
      ops_per_s += static_cast<double>(m.ops) / m.seconds;
      puts_per_s += static_cast<double>(m.puts) / m.seconds;
    }
    all.ops += m.ops;
    all.takes += m.takes;
    all.empty_takes += m.empty_takes;
    all.op.merge(m.op);
    all.lat.merge(m.lat);
    all.gen_late.merge(m.gen_late);
    attempted += workers[p].a.attempted;
    tracers.push_back(&m.tracer);
  }
  const double unit = W::kTicks ? ns_per_tick : 1.0;
  std::sort(backlog.begin(), backlog.end());
  const double backlog_p99 =
      backlog.empty() ? 0.0 : backlog[static_cast<std::size_t>(0.99 * (backlog.size() - 1))];
  const std::uint64_t take_attempts = all.takes + all.empty_takes;

  JsonObject out;
  out.str("mode", "round")
      .str("workload", args.workload)
      .count("seed", args.seed)
      .count("round", static_cast<std::uint64_t>(args.round))
      .boolean("traced", args.traced())
      .str("fence_scheme", fence_scheme)
      .object("build", build_facts())
      .count("threads", kThreads)
      .num("rate", args.rate)
      .num("setup_s", setup_s)
      .num("seconds", static_cast<double>(ns1 - ns0) * 1e-9)
      .num("ops_per_s", ops_per_s)
      .num("puts_per_s", puts_per_s)
      .num("op_p50_ns", all.op.percentile(0.50) * ns_per_tick)
      .num("op_p99_ns", all.op.percentile(0.99) * ns_per_tick)
      .count("op_samples", all.op.total())
      .num("lat_p50_ns", all.lat.percentile(0.50) * unit)
      .num("lat_p99_ns", all.lat.percentile(0.99) * unit)
      .count("lat_samples", all.lat.total())
      .num("peak_rss_mb", peak_rss_mb())
      .count("attempted", attempted)
      .count("failed", fin.failed)
      .object("checks", checks.json())
      .num("gen_late_p99_ns", all.gen_late.percentile(0.99) * unit)
      .num("backlog_p99", backlog_p99)
      .num("pop_empty_ratio", take_attempts > 0 ? static_cast<double>(all.empty_takes) /
                                                      static_cast<double>(take_attempts)
                                                : 0.0)
      .num("unreclaimed_end", fin.unreclaimed_end)
      .num("free_nodes_end", fin.free_nodes_end);
  if (args.traced()) {
    std::array<std::uint64_t, kSpanKinds> ticks{};
    std::array<std::uint64_t, kSpanKinds> calls{};
    for (const Tracer* t : tracers) {
      for (std::uint32_t k = 0; k < kSpanKinds; ++k) {
        ticks[k] += t->ticks(static_cast<SpanKind>(k));
        calls[k] += t->calls(static_cast<SpanKind>(k));
      }
    }
    auto mean_ns = [&](std::uint64_t t, std::uint64_t c) {
      return c > 0 ? static_cast<double>(t) / static_cast<double>(c) * ns_per_tick : 0.0;
    };
    const std::uint64_t child = ticks[kPutSpan] + ticks[kTakeSpan];
    const std::uint64_t request_self = ticks[kRequestSpan] > child ? ticks[kRequestSpan] - child : 0;
    std::size_t kept = 0;
    for (const Tracer* t : tracers) kept += t->spans().size();
    write_spans(args.trace_out, tracers, origin, ns_per_tick);
    out.num("cas_failures_per_op",
            fin.structure_ops > 0 ? static_cast<double>(fin.cas_failures) /
                                        static_cast<double>(fin.structure_ops)
                                  : 0.0)
        .object("trace", JsonObject()
                             .num("put_self_ns", mean_ns(ticks[kPutSpan], calls[kPutSpan]))
                             .num("take_self_ns", mean_ns(ticks[kTakeSpan], calls[kTakeSpan]))
                             .num("request_self_ns", mean_ns(request_self, calls[kRequestSpan]))
                             .count("spans_written", kept)
                             .str("span_file", args.trace_out));
  }
  std::printf("%s\n", out.text().c_str());
  return checks.ok() && fin.failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------------- ladder
//
// One rung per layer boundary, each timed from outside through the layer's
// public functions: ns per call at 1 and 3 threads (a thread's share of
// the wall time per call it completed), plus a one-thread Counted-platform
// shadow pass reporting the paper's unit — shared steps, RMWs and stores
// per call. Every rung object is built for n = kThreads processes, so the
// 1- and 3-thread cells time the same object. op(pid, threads) performs
// one call and returns how many ops it completed (a "pair" rung completes
// one pair; a call whose node allocation was refused completes none).

// Nodes per process in every pooled rung: enough that a deferred reclaimer
// rarely runs dry while a descheduled peer pins its epoch.
constexpr int kRungNodes = 4096;

reclaim::FreeLists free_lists(int n, int per_process) {
  reclaim::FreeLists lists(static_cast<std::size_t>(n));
  std::uint64_t next = 0;
  for (auto& list : lists) {
    for (int i = 0; i < per_process; ++i) list.push_back(next++);
  }
  return lists;
}

template <class P>
class CasRung {
 public:
  int op(int /*pid*/, int /*threads*/) {
    const std::uint64_t v = word_.read();
    word_.cas(v, v + 1);
    return 1;
  }

 private:
  typename P::Env env_;
  typename P::WritableCas word_{env_, "e2e.cas", 0, sim::BoundSpec::unbounded()};
};

template <class P>
class HeadRung {
 public:
  int op(int pid, int /*threads*/) {
    const std::uint64_t observed = head_.load(pid);
    head_.try_swing(pid, observed, static_cast<std::uint64_t>(pid) + 1);
    return 1;
  }

 private:
  typename P::Env env_;
  structures::TaggedCasHead<P> head_{env_, kThreads};
};

// allocate → begin_op → guard → end_op → retire, the reclaimer driven
// directly with a private node per call.
template <class P, class R>
class CycleRung {
 public:
  int op(int pid, int /*threads*/) {
    const std::optional<std::uint64_t> idx = r_.allocate(pid);
    if (!idx) return 0;
    r_.begin_op(pid);
    r_.guard(pid, 0, *idx);
    r_.end_op(pid);
    r_.retire(pid, *idx);
    return 1;
  }

 private:
  typename P::Env env_;
  R r_{env_, kThreads, free_lists(kThreads, kRungNodes)};
};

template <class P>
using TaggedCycle = CycleRung<P, reclaim::TaggedReclaimer<P>>;
template <class P>
using HazardCachedCycle = CycleRung<P, reclaim::CachedHazardPointerReclaimer<P>>;
template <class P>
using EpochDeferredCycle = CycleRung<P, reclaim::DeferredEpochReclaimer<P>>;

template <class P, class R>
class TreiberPairRung {
 public:
  using Stack = structures::TreiberStack<P, structures::TaggedCasHead<P>, R>;
  int op(int pid, int /*threads*/) {
    const bool pushed = stack_.push(pid, static_cast<std::uint64_t>(pid));
    (void)stack_.pop(pid);
    return pushed ? 1 : 0;
  }

 private:
  typename P::Env env_;
  Stack stack_{env_, kThreads, std::make_unique<structures::TaggedCasHead<P>>(env_, kThreads),
               Stack::partition(kThreads, kRungNodes)};
};

template <class P>
using TreiberTaggedPair = TreiberPairRung<P, reclaim::TaggedReclaimer<P>>;
template <class P>
using TreiberHazardCachedPair = TreiberPairRung<P, reclaim::CachedHazardPointerReclaimer<P>>;

template <class P>
class QueuePairRung {
 public:
  int op(int pid, int /*threads*/) {
    const bool enqueued = queue_.enqueue(pid, static_cast<std::uint64_t>(pid));
    (void)queue_.dequeue(pid);
    return enqueued ? 1 : 0;
  }

 private:
  typename P::Env env_;
  structures::MsQueue<P, reclaim::DeferredEpochReclaimer<P>> queue_{env_, kThreads, kRungNodes};
};

template <class P>
class DReadRung {
 public:
  int op(int pid, int /*threads*/) {
    (void)reg_.dread(pid);
    return 1;
  }

 protected:
  typename P::Env env_;
  core::AbaRegisterBounded<P> reg_{
      env_, kThreads, typename core::AbaRegisterBounded<P>::Options{.value_bits = 8}};
};

template <class P>
class DWriteRung : public DReadRung<P> {
 public:
  int op(int pid, int /*threads*/) {
    this->reg_.dwrite(pid, static_cast<std::uint64_t>(pid) & 0xFF);
    return 1;
  }
};

template <class P>
class LlscRung {
 public:
  int op(int pid, int /*threads*/) {
    const std::uint64_t v = obj_.ll(pid);
    obj_.sc(pid, (v + 1) & 0xFFFF);
    return 1;
  }

 private:
  typename P::Env env_;
  core::LlscSingleCas<P> obj_{
      env_, kThreads,
      typename core::LlscSingleCas<P>::Options{.value_bits = 16, .initial_value = 0,
                                                .initially_linked = true}};
};

template <class P>
class ShardedPairRung {
 public:
  using Head = structures::TaggedCasHead<P>;
  using Stack =
      structures::ShardedTreiberStack<P, Head, reclaim::CachedHazardPointerReclaimer<P>, 1>;
  int op(int pid, int /*threads*/) {
    const bool pushed = stack_.push(pid, static_cast<std::uint64_t>(pid));
    (void)stack_.pop(pid);
    return pushed ? 1 : 0;
  }

 private:
  typename P::Env env_;
  Stack stack_{env_, kThreads, Stack::make_heads(env_, kThreads), kRungNodes};
};

template <class P>
class AdaptivePairRung {
 public:
  using Head = structures::TaggedCasHead<P>;
  using Stack =
      structures::AdaptiveShardedStack<P, Head, reclaim::CachedHazardPointerReclaimer<P>, 8>;
  int op(int pid, int /*threads*/) {
    const bool pushed = stack_.push(pid, static_cast<std::uint64_t>(pid));
    (void)stack_.pop(pid);
    return pushed ? 1 : 0;
  }
  int width() const { return stack_.active_shards(); }

 private:
  typename P::Env env_;
  Stack stack_{env_, kThreads, Stack::make_heads(env_, kThreads), kRungNodes / 8};
};

// SPSC: alone, one thread pushes then pops; with two threads, thread 0
// produces and thread 1 consumes, and each counts its successful calls.
template <class P>
class SpscRung {
 public:
  int op(int pid, int threads) {
    if (threads == 1) {
      const bool pushed = ring_.try_push(0, 1);
      return static_cast<int>(pushed) + static_cast<int>(ring_.try_pop(0).has_value());
    }
    if (pid == 0) return ring_.try_push(0, 1) ? 1 : 0;
    return ring_.try_pop(1).has_value() ? 1 : 0;
  }

 private:
  typename P::Env env_;
  structures::SpscRing<P> ring_{env_, 2, 1024};
};

template <class P>
class MpmcRung {
 public:
  int op(int pid, int /*threads*/) {
    const bool pushed = ring_.try_push(pid, 1);
    return static_cast<int>(pushed) + static_cast<int>(ring_.try_pop(pid).has_value());
  }

 private:
  typename P::Env env_;
  structures::MpmcRing<P> ring_{env_, kThreads, 1024};
};

// ns per call, per thread: the threads' summed wall time over their summed
// completed ops.
struct NoAfter {
  template <class Rung>
  void operator()(Rung&) const {}
};

template <class Rung, class After = NoAfter>
double native_ns(int threads, double seconds, After after = {}) {
  auto rung = std::make_unique<Rung>();
  std::atomic<bool> stop{false};
  std::barrier start(threads + 1);
  std::vector<std::uint64_t> ops(static_cast<std::size_t>(threads), 0);
  std::vector<std::int64_t> busy(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> pool;
  for (int p = 0; p < threads; ++p) {
    pool.emplace_back([&, p] {
      pin_thread(p + 1);
      start.arrive_and_wait();
      const std::int64_t t0 = now_ns();
      std::uint64_t done = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 64; ++i) done += static_cast<std::uint64_t>(rung->op(p, threads));
      }
      busy[static_cast<std::size_t>(p)] = now_ns() - t0;
      ops[static_cast<std::size_t>(p)] = done;
    });
  }
  start.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : pool) t.join();
  after(*rung);
  std::uint64_t total_ops = 0;
  std::int64_t total_busy = 0;
  for (int p = 0; p < threads; ++p) {
    total_ops += ops[static_cast<std::size_t>(p)];
    total_busy += busy[static_cast<std::size_t>(p)];
  }
  return total_ops > 0 ? static_cast<double>(total_busy) / static_cast<double>(total_ops) : 0.0;
}

struct StepLedger {
  double steps = 0;
  double rmw = 0;
  double stores = 0;
};

// The Counted shadow: one thread, exact counter deltas per completed op,
// after a warm-up that takes every amortized path (scans, flushes) at
// least once.
template <class Rung>
StepLedger counted_ledger() {
  constexpr int kWarm = 4096;
  constexpr int kCalls = 65536;
  auto rung = std::make_unique<Rung>();
  for (int i = 0; i < kWarm; ++i) rung->op(0, 1);
  const std::uint64_t s0 = native::step_counter();
  const std::uint64_t r0 = native::rmw_counter();
  const std::uint64_t w0 = native::store_counter();
  std::uint64_t done = 0;
  for (int i = 0; i < kCalls; ++i) done += static_cast<std::uint64_t>(rung->op(0, 1));
  const double d = static_cast<double>(done);
  return {static_cast<double>(native::step_counter() - s0) / d,
          static_cast<double>(native::rmw_counter() - r0) / d,
          static_cast<double>(native::store_counter() - w0) / d};
}

class Ladder {
 public:
  explicit Ladder(double seconds) : seconds_(seconds) {}

  // The full ladder; each cell gets an equal share of the time budget.
  void run() {
    constexpr int kCells = 29;  // Timed cells below: 13 rungs x 2, plus 3.
    cell_seconds_ = std::max(0.02, seconds_ / kCells);

    rung<CasRung, AsymP>("native.cas");
    fence_heavy();
    rung<HeadRung, AsymP>("structures.head_tagged");
    rung<TaggedCycle, AsymP>("reclaim.tagged.cycle");
    rung<HazardCachedCycle, AsymP>("reclaim.hazard_cached.cycle");
    rung<EpochDeferredCycle, AsymP>("reclaim.epoch_deferred.cycle");
    rung<TreiberTaggedPair, AsymP>("structures.treiber_tagged.pair");
    rung<TreiberHazardCachedPair, AsymP>("structures.treiber_hazard_cached.pair");
    rung<QueuePairRung, AsymP>("structures.msqueue_epoch_deferred.pair");
    const StepLedger dread = rung<DReadRung, FastP>("core.aba_register.dread");
    const StepLedger dwrite = rung<DWriteRung, FastP>("core.aba_register.dwrite");
    checks_.add("ledger.dread_is_4_steps", dread.steps == 4.0);
    checks_.add("ledger.dwrite_is_2_steps", dwrite.steps == 2.0);
    rung<LlscRung, RelaxedP>("core.llsc.pair");
    checks_.add("ledger.llsc_within_theorem2", llsc_within_theorem2());
    const StepLedger spsc = rung<SpscRung, RelaxedP>("structures.ring_spsc.op", 2);
    checks_.add("ledger.spsc_zero_rmw", spsc.rmw == 0.0);
    rung<MpmcRung, RelaxedP>("structures.ring_mpmc.op");

    cells_.num("structures.sharded1.pair.ns.t3",
               native_ns<ShardedPairRung<AsymP>>(kThreads, cell_seconds_));
    int settled = 0;
    cells_.num("structures.adaptive.pair.ns.t3",
               native_ns<AdaptivePairRung<AsymP>>(
                   kThreads, cell_seconds_,
                   [&](AdaptivePairRung<AsymP>& r) { settled = r.width(); }));
    cells_.num("structures.adaptive.settled_width", settled);
    oneway_queue();
  }

  void print() const {
    std::printf("%s\n", JsonObject()
                            .str("mode", "ladder")
                            .str("fence_scheme", util::AsymmetricFence::scheme_name())
                            .object("build", build_facts())
                            .object("metrics", cells_)
                            .object("checks", checks_.json())
                            .text()
                            .c_str());
  }
  bool ok() const { return checks_.ok(); }

 private:
  // Native ns at 1 thread and at `wide` threads, then the Counted shadow.
  template <template <class> class Rung, class P>
  StepLedger rung(const std::string& name, int wide = kThreads) {
    cells_.num(name + ".ns.t1", native_ns<Rung<P>>(1, cell_seconds_));
    cells_.num(name + ".ns.t" + std::to_string(wide), native_ns<Rung<P>>(wide, cell_seconds_));
    const StepLedger ledger = counted_ledger<Rung<CountedP>>();
    cells_.num(name + ".steps", ledger.steps);
    cells_.num(name + ".rmw", ledger.rmw);
    cells_.num(name + ".stores", ledger.stores);
    return ledger;
  }

  // The heavy side of the asymmetric fence (membarrier on Linux).
  void fence_heavy() {
    std::uint64_t calls = 0;
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(cell_seconds_ * 1e9);
    std::int64_t now = t0;
    while (now < end) {
      for (int i = 0; i < 16; ++i) util::AsymmetricFence::heavy();
      calls += 16;
      now = now_ns();
    }
    cells_.num("native.fence_heavy.ns", static_cast<double>(now - t0) / static_cast<double>(calls));
  }

  // Theorem 2: a solo LL takes at most 2n+1 steps and an SC at most 2n.
  static bool llsc_within_theorem2() {
    CountedP::Env env;
    core::LlscSingleCas<CountedP> obj(
        env, kThreads,
        core::LlscSingleCas<CountedP>::Options{.value_bits = 16, .initial_value = 0,
                                               .initially_linked = true});
    std::uint64_t worst_ll = 0;
    std::uint64_t worst_sc = 0;
    for (int i = 0; i < 1024; ++i) {
      const std::uint64_t s0 = native::step_counter();
      const std::uint64_t v = obj.ll(0);
      const std::uint64_t s1 = native::step_counter();
      obj.sc(0, (v + 1) & 0xFFFF);
      const std::uint64_t s2 = native::step_counter();
      worst_ll = std::max(worst_ll, s1 - s0);
      worst_sc = std::max(worst_sc, s2 - s1);
    }
    return worst_ll <= 2 * kThreads + 1 && worst_sc <= 2 * kThreads;
  }

  // A one-way producer→consumer MS queue with 512 nodes per process. The
  // consumer is dequeuing before the first enqueue and never enqueues:
  // every node it dequeues retires into its own pool. The producer makes
  // kAttempts enqueues and waits while kBacklog of its items are still
  // queued, so a refusal means nodes did not come back, not that the
  // consumer fell behind. While the drain lasts the producer gets exactly
  // its 512 nodes in and the ratio is 1 - 512 / kAttempts; once retired
  // nodes return to the producer it is 0.
  void oneway_queue() {
    constexpr std::uint64_t kAttempts = 20000;
    constexpr std::uint64_t kBacklog = 64;
    AsymP::Env env;
    structures::MsQueue<AsymP, reclaim::DeferredEpochReclaimer<AsymP>> queue(env, 2, 512);
    std::atomic<bool> producing{true};
    std::atomic<std::uint64_t> dequeued{0};
    std::barrier start(2);
    std::thread consumer([&] {
      pin_thread(1);
      start.arrive_and_wait();
      std::uint64_t taken = 0;
      for (;;) {
        // Read before the dequeue: an empty queue after the producer is done
        // is empty for good.
        const bool more = producing.load();
        if (queue.dequeue(1).has_value()) {
          dequeued.store(++taken, std::memory_order_release);
        } else if (!more) {
          break;
        }
      }
    });
    start.arrive_and_wait();
    std::uint64_t accepted = 0;
    for (std::uint64_t i = 0; i < kAttempts; ++i) {
      while (accepted - dequeued.load(std::memory_order_acquire) >= kBacklog) cpu_relax();
      if (queue.enqueue(0, i)) ++accepted;
    }
    producing.store(false);
    consumer.join();
    checks_.add("oneway.every_accepted_item_dequeued", dequeued.load() == accepted);
    cells_.num("structures.msqueue.oneway_refused_ratio",
               static_cast<double>(kAttempts - accepted) / static_cast<double>(kAttempts));
  }

  double seconds_;
  double cell_seconds_ = 0.1;
  JsonObject cells_;
  Checks checks_;
};

// ---------------------------------------------------------------------- cli

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --workload NAME --seed N [--round R] --seconds S --warmup W\n"
               "                 [--rate PER_S] [--trace-out FILE] [--setup-only]\n"
               "       e2e_bench --ladder --seconds S\n"
               "workloads: pool_churn pool_probe request_queue_open event_flag\n",
               why);
  std::exit(2);
}

double parse_double(const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < 0) usage("bad number");
  return v;
}

std::int64_t parse_int(const char* s) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || v < 0) usage("bad integer");
  return v;
}

// The workloads, by name: each builds its structure (set-up) and runs one
// round.
struct WorkloadEntry {
  const char* name;
  bool open_loop;  // Needs --rate.
  int (*run)(const RoundArgs&);
};

template <class W, class... Extra>
int construct_and_run(const RoundArgs& args, Extra... extra) {
  const std::int64_t build_start_ns = now_ns();
  auto workload = std::make_unique<W>(args, extra...);
  return run_round(args, *workload, build_start_ns);
}

constexpr WorkloadEntry kWorkloads[] = {
    {"pool_churn", false,
     [](const RoundArgs& a) { return construct_and_run<PoolWorkload>(a, true); }},
    {"pool_probe", false,
     [](const RoundArgs& a) { return construct_and_run<PoolWorkload>(a, false); }},
    {"request_queue_open", true,
     [](const RoundArgs& a) { return construct_and_run<RequestQueueWorkload>(a); }},
    {"event_flag", true,
     [](const RoundArgs& a) { return construct_and_run<EventFlagWorkload>(a); }},
};

}  // namespace

int main(int argc, char** argv) {
  pin_thread(0);
  RoundArgs args;
  bool ladder = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(parse_int(value()));
    } else if (flag == "--round") {
      args.round = static_cast<int>(parse_int(value()));
    } else if (flag == "--seconds") {
      args.seconds = parse_double(value());
    } else if (flag == "--warmup") {
      args.warmup = parse_double(value());
    } else if (flag == "--rate") {
      args.rate = parse_double(value());
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--ladder") {
      ladder = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (ladder) {
    Ladder l(args.seconds);
    l.run();
    l.print();
    return l.ok() ? 0 : 1;
  }
  for (const WorkloadEntry& w : kWorkloads) {
    if (args.workload != w.name) continue;
    if (w.open_loop && args.rate <= 0) usage("this workload needs --rate");
    return w.run(args);
  }
  usage(("unknown workload '" + args.workload + "'").c_str());
}
