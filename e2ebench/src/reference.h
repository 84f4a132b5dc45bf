#pragma once
// Fixed reference computation for speed calibration: a small in-cache dense
// LU solve plus exp, the same kind of work as the simulator's inner loops.
// Compiled with pinned options (see CMakeLists.txt), never with the
// project's flags.

#include <cstdint>

namespace e2e {

/// Runs `reps` LU factor + solve + exp passes on a 32x32 system perturbed
/// by `salt` (so nothing folds at compile time) and returns a checksum.
double referenceKernel(std::uint64_t salt, int reps);

}  // namespace e2e
