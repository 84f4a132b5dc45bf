#pragma once
// Timing decorators placed around the program's public layer interfaces
// (circuit::Benchmark, rl::Env, rl::ActorCritic). They forward every call
// unchanged, time it from outside, record a trace span around it, count
// it, check the outputs that have physical bounds, and give the calibrator
// its hook points. They never touch the numbers flowing through.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "calibration.h"
#include "circuit/benchmark.h"
#include "rl/env.h"
#include "rl/policy.h"

namespace e2e {

namespace circuit = crl::circuit;
namespace linalg = crl::linalg;
namespace nn = crl::nn;
namespace rl = crl::rl;
namespace util = crl::util;

enum class CircuitKind { Cmos, RfPa };

/// One deployment or evaluation query: env reset to terminal step.
struct Query {
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int steps = 0;
  bool success = false;
  std::vector<double> params;  ///< final sizing (for re-measurement)
  std::vector<double> target;
};

/// Outside-counted totals of one round. Times are raw nanoseconds and hold
/// no reference time: the calibrator never runs inside a timed call.
struct Probe {
  explicit Probe(Calibrator& c) : calib(c) {}
  Calibrator& calib;

  long fineCalls = 0, coarseCalls = 0;
  std::int64_t fineNs = 0, coarseNs = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> fineWindows;

  long steps = 0, resets = 0;
  long forwardCalls = 0, forwardBatchRows = 0;
  std::vector<Query> queries;

  // Campaign-context calls.
  long evalCalls = 0, evalEpisodes = 0, evalStepsReported = 0;
  std::int64_t lastEvalEndNs = 0;
  long checkpointWrites = 0, checkpointBytes = 0, artifactBytes = 0;
  std::int64_t checkpointStartNs = 0;

  /// Raw time inside outermost decorated calls (Busy guards), without
  /// reference slices: everything the run did outside them is program code
  /// the decorators cannot see (the PPO update, runner bookkeeping).
  int depth = 0;
  std::int64_t topNs = 0;

  std::vector<std::string> violations;  ///< broken output invariants

  void violation(std::string what) {
    if (violations.size() < 16) violations.push_back(std::move(what));
    else if (violations.size() == 16) violations.push_back("... (more)");
  }
};

/// Marks an outermost decorated call for Probe::topNs.
class Busy {
 public:
  explicit Busy(Probe& p) : p_(p) {
    if (p_.depth++ == 0) {
      t0_ = nowNs();
      slice0_ = p_.calib.sliceNs();
    }
  }
  ~Busy() {
    if (--p_.depth == 0)
      p_.topNs += nowNs() - t0_ - (p_.calib.sliceNs() - slice0_);
  }
  Busy(const Busy&) = delete;
  Busy& operator=(const Busy&) = delete;

 private:
  Probe& p_;
  std::int64_t t0_ = 0, slice0_ = 0;
};

/// Measurement invariants every valid result must obey: finite specs;
/// op-amp/OTA power > 0 and UGBW > 0; RF PA fine 0 < efficiency <= 1
/// (output power cannot exceed DC power) and P_out > 0.
std::string physicsViolation(CircuitKind kind, circuit::Fidelity fidelity,
                             const circuit::Measurement& m);

class TimedBenchmark final : public circuit::Benchmark {
 public:
  TimedBenchmark(std::unique_ptr<circuit::Benchmark> inner, CircuitKind kind,
                 Probe& probe)
      : inner_(std::move(inner)), kind_(kind), probe_(probe) {}

  const std::string& name() const override { return inner_->name(); }
  const circuit::DesignSpace& designSpace() const override { return inner_->designSpace(); }
  const circuit::SpecSpace& specSpace() const override { return inner_->specSpace(); }
  const circuit::CircuitGraph& graph() const override { return inner_->graph(); }
  const std::vector<double>& currentParams() const override { return inner_->currentParams(); }
  void setParams(const std::vector<double>& params) override { inner_->setParams(params); }
  circuit::Measurement measure(circuit::Fidelity fidelity) override;
  long simCount(circuit::Fidelity fidelity) const override { return inner_->simCount(fidelity); }
  void addSimCount(circuit::Fidelity fidelity, long n) override { inner_->addSimCount(fidelity, n); }
  std::vector<double> worstSpecs() const override { return inner_->worstSpecs(); }
  std::unique_ptr<circuit::Benchmark> clone() const override {
    return std::make_unique<TimedBenchmark>(inner_->clone(), kind_, probe_);
  }
  void resetSolverState() override { inner_->resetSolverState(); }
  std::string solverStateSnapshot() const override { return inner_->solverStateSnapshot(); }
  bool restoreSolverStateSnapshot(const std::string& blob) override {
    return inner_->restoreSolverStateSnapshot(blob);
  }

 private:
  std::unique_ptr<circuit::Benchmark> inner_;
  CircuitKind kind_;
  Probe& probe_;
};

/// Env decorator. A Train env only counts; Query envs (evaluation and
/// deployment) also time each query from its reset to its terminal step.
class TimedEnv final : public rl::Env {
 public:
  enum class Role { Train, Query };
  TimedEnv(rl::Env& inner, Role role, Probe& probe)
      : inner_(inner), role_(role), probe_(probe) {}

  rl::Observation reset(util::Rng& rng) override;
  rl::Observation resetWithTarget(const std::vector<double>& target,
                                  util::Rng& rng) override;
  rl::StepResult step(const std::vector<int>& actions) override;

  std::size_t numParams() const override { return inner_.numParams(); }
  std::size_t numSpecs() const override { return inner_.numSpecs(); }
  int maxSteps() const override { return inner_.maxSteps(); }
  const linalg::Mat& normalizedAdjacency() const override { return inner_.normalizedAdjacency(); }
  const linalg::Mat& attentionMask() const override { return inner_.attentionMask(); }
  std::size_t graphNodeCount() const override { return inner_.graphNodeCount(); }
  std::size_t graphFeatureDim() const override { return inner_.graphFeatureDim(); }
  const std::vector<double>& rawTarget() const override { return inner_.rawTarget(); }
  const std::vector<double>& rawSpecs() const override { return inner_.rawSpecs(); }
  const std::vector<double>& currentParams() const override { return inner_.currentParams(); }

 private:
  void openQuery(std::int64_t startNs);

  rl::Env& inner_;
  Role role_;
  Probe& probe_;
  bool queryOpen_ = false;
  Query query_;
};

class TimedPolicy final : public rl::ActorCritic {
 public:
  TimedPolicy(rl::ActorCritic& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  rl::PolicyOutput forward(const rl::Observation& obs) const override;
  std::vector<rl::PolicyOutput> forwardBatch(
      const std::vector<rl::Observation>& obs) const override;
  rl::BatchedPolicyOutput forwardBatchStacked(
      const std::vector<rl::Observation>& obs) const override;
  std::vector<nn::Tensor> parameters() const override { return inner_.parameters(); }
  const char* name() const override { return inner_.name(); }
  bool adaptLegacyParameterMats(std::vector<linalg::Mat>& mats) const override {
    return inner_.adaptLegacyParameterMats(mats);
  }

 private:
  rl::ActorCritic& inner_;
  Probe& probe_;
};

}  // namespace e2e
