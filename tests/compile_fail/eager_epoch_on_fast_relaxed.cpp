// Must not compile: eager epochs on acquire/release orderings. Their
// announce-then-validate is a StoreLoad pair FastRelaxed cannot order.
#include "native/native_platform.h"
#include "reclaim/epoch.h"

using P = aba::native::NativePlatform<aba::native::FastRelaxed>;
static_assert(sizeof(aba::reclaim::EpochBasedReclaimer<P>) > 0);
