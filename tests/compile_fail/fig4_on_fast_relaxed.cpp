// Must not compile: the Figure 4 register on acquire/release orderings.
// Its DRead writes A[q] and then re-reads X, which FastRelaxed cannot
// order, so SequenceReservation's static_assert rejects it.
#include "core/aba_register_bounded.h"
#include "native/native_platform.h"

using P = aba::native::NativePlatform<aba::native::FastRelaxed>;
static_assert(sizeof(aba::core::AbaRegisterBounded<P>) > 0);
