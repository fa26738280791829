// Must not compile: deferred epochs on acquire/release orderings with no
// fence. The advance could carry a heavy fence, but FastRelaxed has none.
#include "native/native_platform.h"
#include "reclaim/epoch.h"

using P = aba::native::NativePlatform<aba::native::FastRelaxed>;
static_assert(sizeof(aba::reclaim::DeferredEpochReclaimer<P>) > 0);
