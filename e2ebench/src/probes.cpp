#include "probes.h"

#include <cmath>

#include "obs/trace.h"

namespace e2e {

std::string physicsViolation(CircuitKind kind, circuit::Fidelity fidelity,
                             const circuit::Measurement& m) {
  if (!m.valid) return {};
  for (double v : m.specs)
    if (!std::isfinite(v)) return "non-finite spec in a valid measurement";
  if (kind == CircuitKind::Cmos) {
    // SpecSpace order: gain, ugbw, pm, power.
    if (m.specs.size() != 4) return "op-amp/OTA measurement without 4 specs";
    if (!(m.specs[1] > 0.0)) return "UGBW <= 0";
    if (!(m.specs[3] > 0.0)) return "power <= 0";
    return {};
  }
  // SpecSpace order: efficiency, pout.
  if (m.specs.size() != 2) return "RF PA measurement without 2 specs";
  if (fidelity == circuit::Fidelity::Fine) {
    if (!(m.specs[0] > 0.0 && m.specs[0] <= 1.0))
      return "fine efficiency outside (0, 1]";
    if (!(m.specs[1] > 0.0)) return "fine P_out <= 0";
  }
  return {};
}

circuit::Measurement TimedBenchmark::measure(circuit::Fidelity fidelity) {
  const bool fine = fidelity == circuit::Fidelity::Fine;
  circuit::Measurement m;
  std::int64_t t0 = 0, t1 = 0;
  {
    crl::obs::TraceSpan span(fine ? "circuit.measure_fine" : "circuit.measure_coarse",
                             "e2e");
    t0 = nowNs();
    m = inner_->measure(fidelity);
    t1 = nowNs();
  }
  if (fine) {
    ++probe_.fineCalls;
    probe_.fineNs += t1 - t0;
    probe_.fineWindows.emplace_back(t0, t1);
  } else {
    ++probe_.coarseCalls;
    probe_.coarseNs += t1 - t0;
  }
  if (std::string v = physicsViolation(kind_, fidelity, m); !v.empty())
    probe_.violation(inner_->name() + ": " + v);
  return m;
}

void TimedEnv::openQuery(std::int64_t startNs) {
  if (role_ != Role::Query || queryOpen_) return;
  queryOpen_ = true;
  query_ = Query{};
  query_.startNs = startNs;
}

rl::Observation TimedEnv::reset(util::Rng& rng) {
  Busy busy(probe_);
  const std::int64_t t0 = nowNs();
  rl::Observation obs;
  {
    crl::obs::TraceSpan span("envs.reset", "e2e");
    obs = inner_.reset(rng);
  }
  ++probe_.resets;
  openQuery(t0);
  probe_.calib.tick();
  return obs;
}

rl::Observation TimedEnv::resetWithTarget(const std::vector<double>& target,
                                          util::Rng& rng) {
  Busy busy(probe_);
  const std::int64_t t0 = nowNs();
  rl::Observation obs;
  {
    crl::obs::TraceSpan span("envs.reset", "e2e");
    obs = inner_.resetWithTarget(target, rng);
  }
  ++probe_.resets;
  openQuery(t0);
  probe_.calib.tick();
  return obs;
}

rl::StepResult TimedEnv::step(const std::vector<int>& actions) {
  Busy busy(probe_);
  rl::StepResult res;
  {
    crl::obs::TraceSpan span("envs.step", "e2e");
    res = inner_.step(actions);
  }
  const std::int64_t t1 = nowNs();
  ++probe_.steps;
  if (queryOpen_) {
    ++query_.steps;
    if (res.done || query_.steps >= inner_.maxSteps()) {
      query_.endNs = t1;
      query_.success = res.done && res.success;
      if (query_.success) {
        query_.params = inner_.currentParams();
        query_.target = inner_.rawTarget();
      }
      probe_.queries.push_back(std::move(query_));
      queryOpen_ = false;
    }
  }
  probe_.calib.tick();
  return res;
}

rl::PolicyOutput TimedPolicy::forward(const rl::Observation& obs) const {
  Busy busy(probe_);
  rl::PolicyOutput out;
  {
    crl::obs::TraceSpan span("policy.forward", "e2e");
    out = inner_.forward(obs);
  }
  ++probe_.forwardCalls;
  probe_.calib.tick();
  return out;
}

std::vector<rl::PolicyOutput> TimedPolicy::forwardBatch(
    const std::vector<rl::Observation>& obs) const {
  Busy busy(probe_);
  std::vector<rl::PolicyOutput> out;
  {
    crl::obs::TraceSpan span("policy.forward_batch", "e2e");
    out = inner_.forwardBatch(obs);
  }
  probe_.forwardBatchRows += static_cast<long>(obs.size());
  probe_.calib.tick();
  return out;
}

rl::BatchedPolicyOutput TimedPolicy::forwardBatchStacked(
    const std::vector<rl::Observation>& obs) const {
  // No calibrator tick here: this runs inside the PPO update, whose own
  // span must not contain reference time. No Busy guard either: Probe::topNs
  // counts only time spent outside the update.
  crl::obs::TraceSpan span("policy.forward_stacked", "e2e");
  return inner_.forwardBatchStacked(obs);
}

}  // namespace e2e
