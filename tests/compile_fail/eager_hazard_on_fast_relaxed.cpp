// Must not compile: hazard pointers on acquire/release orderings with no
// fence. Publish-then-revalidate is a StoreLoad pair FastRelaxed cannot
// order, and the scan has no heavy fence to carry it.
#include "native/native_platform.h"
#include "reclaim/hazard_pointer.h"

using P = aba::native::NativePlatform<aba::native::FastRelaxed>;
static_assert(sizeof(aba::reclaim::HazardPointerReclaimer<P>) > 0);
