// Must not compile: eager epochs on the asymmetric-fence policy. The fence
// pair needs a heavy side, and eager announce-then-validate has none.
#include "native/native_platform.h"
#include "reclaim/epoch.h"

using P = aba::native::NativePlatform<aba::native::FastAsymmetric>;
static_assert(sizeof(aba::reclaim::EpochBasedReclaimer<P>) > 0);
