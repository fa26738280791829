// AbaRegisterFromLlsc — Figure 5 (Appendix A, Theorem 4): an ABA-detecting
// register from a single LL/SC/VL object, two shared steps per operation.
//
//   DWrite_p(x): X.LL(); X.SC(x)                       [lines 51-52]
//   DRead_q():   if X.VL() return (old, false);
//                old := X.LL(); return (old, true)     [lines 53-54]
//
// This is the reduction behind Corollary 1: any LL/SC/VL implementation
// from m bounded base objects yields an ABA-detecting register from the same
// m objects with only constant step overhead, so the ABA-detection lower
// bounds transfer to LL/SC/VL.
//
// The underlying LL/SC/VL object must use the paper's w.l.o.g. convention
// that a VL before any LL succeeds as long as no successful SC has executed
// (initially_linked = true in our implementations).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace aba::core {

// L must expose: uint64_t ll(int p); bool sc(int p, uint64_t x); bool vl(int p).
template <class L>
class AbaRegisterFromLlsc {
 public:
  // Does not take ownership of `llsc`; the object must outlive this adapter.
  AbaRegisterFromLlsc(L& llsc, int n, std::uint64_t initial_value)
      : llsc_(&llsc), old_(n, initial_value) {}

  // DWrite_p(x) — lines 51-52.
  void dwrite(int p, std::uint64_t x) {
    llsc_->ll(p);    // line 51
    llsc_->sc(p, x); // line 52
  }

  // DRead_q() — lines 53-54.
  std::pair<std::uint64_t, bool> dread(int q) {
    if (llsc_->vl(q)) {          // line 53
      return {old_[q], false};
    }
    old_[q] = llsc_->ll(q);      // line 54
    return {old_[q], true};
  }

 private:
  L* llsc_;
  std::vector<std::uint64_t> old_;
};

// Figure 5 over an LL/SC/VL object it owns, built like every other register
// here from (env, n, options). The options are L's; the register starts at
// options.initial_value, and initially_linked is forced on (the convention
// above).
template <class L>
class AbaRegisterOverLlsc {
 public:
  using Options = typename L::Options;

  template <class Env>
  AbaRegisterOverLlsc(Env& env, int n, Options options = {})
      : llsc_(env, n, linked(options)), reg_(llsc_, n, options.initial_value) {}

  void dwrite(int p, std::uint64_t x) { reg_.dwrite(p, x); }
  std::pair<std::uint64_t, bool> dread(int q) { return reg_.dread(q); }

 private:
  static Options linked(Options options) {
    options.initially_linked = true;
    return options;
  }

  L llsc_;
  AbaRegisterFromLlsc<L> reg_;
};

}  // namespace aba::core
