#pragma once
// The benchmark's workloads. Each one builds its inputs (the deployment
// workload's from the seed), runs whole rounds of the same operations, and
// checks every round's outputs against physical bounds and independently
// reached totals.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"

namespace e2e {

/// Operations attempted/failed and correctness verdict over a whole run.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  ///< failed checks (correct iff empty)

  void check(bool ok, const std::string& what) {
    if (!ok && errors.size() < 32) errors.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the next round's inputs outside the timed phase: fresh
  /// circuit, envs and decorators, so every round does the same work.
  virtual void prepare(Probe& probe) = 0;
  /// The timed phase (a campaign job, or one deployment batch).
  virtual void run(Probe& probe) = 0;
  /// Output checks and independent totals of the round just run.
  virtual void check(Probe& probe, Outcome& out) = 0;
};

/// Builds a workload (its set-up happens here and in the first prepare()).
/// `outDir` receives the campaign artifacts. Throws on an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& outDir,
                                       Probe& setupProbe);

}  // namespace e2e
