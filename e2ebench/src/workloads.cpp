#include "workloads.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <typeinfo>
#include <utility>

#include "circuit/opamp.h"
#include "circuit/rfpa.h"
#include "core/campaign_jobs.h"
#include "core/deploy.h"
#include "envs/sizing_env.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/campaign.h"
#include "rl/ppo.h"
#include "rl/vec_env.h"

namespace e2e {

namespace core = crl::core;
namespace envs = crl::envs;
namespace fs = std::filesystem;

namespace {

// ---- sizes (see README.md for how they were chosen) -----------------------
struct TrainSize {
  core::CampaignCircuit circuit;
  core::PolicyKind kind;
  int episodes;
  int evalEpisodes;  ///< 0 = buildSizingJobs' per-circuit default
};
// Both depart from buildSizingJobs' evaluation default (25 op-amp, 15 RF PA).
// 50 op-amp evaluation episodes: the short queries need 350 samples per
// round for a steady p90. 34 RF PA ones: the least that gives 100 queries.
constexpr TrainSize kOpAmpTrain{core::CampaignCircuit::OpAmp, core::PolicyKind::GatFc, 500, 50};
constexpr TrainSize kRfPaTrain{core::CampaignCircuit::RfPa, core::PolicyKind::GatFc, 100, 34};

constexpr int kDeployTrainEpisodes = 300;  ///< set-up training of the deployed policy
constexpr std::size_t kDeployLanes = 8;
constexpr std::size_t kDeployTargets = 128;

/// Relative slack of the re-measurement check: warm-started op-amp/OTA
/// results differ from cold ones in the last bits.
constexpr double kRemeasureSlack = 1e-6;

/// A circuit with the env settings core::makeSizingContext uses for it
/// (nominal corner): fine op-amp training, coarse-train/fine-eval RF PA.
/// These copy settings core's SizingContext keeps private;
/// checkMatchesProgram() compares them with what the program builds.
struct Rig {
  std::unique_ptr<circuit::Benchmark> bench;
  CircuitKind kind = CircuitKind::Cmos;
  envs::SizingEnvConfig train;
  envs::SizingEnvConfig eval;
  bool separateEval = false;
  std::uint64_t initSeedBase = 0;  ///< policy-init seed base, as in core/
};

Rig rigFor(core::CampaignCircuit c) {
  Rig r;
  switch (c) {
    case core::CampaignCircuit::OpAmp:
      r.bench = std::make_unique<circuit::TwoStageOpAmp>();
      r.train = r.eval = envs::SizingEnvConfig{.maxSteps = 50};
      r.initSeedBase = 100;
      break;
    case core::CampaignCircuit::RfPa:
      r.bench = std::make_unique<circuit::GanRfPa>();
      r.kind = CircuitKind::RfPa;
      r.train = {.maxSteps = 30, .fidelity = circuit::Fidelity::Coarse};
      r.eval = {.maxSteps = 30, .fidelity = circuit::Fidelity::Fine};
      r.separateEval = true;
      r.initSeedBase = 200;
      break;
    default:
      throw std::invalid_argument("e2ebench has no workload for this circuit");
  }
  return r;
}

bool sameBits(const std::vector<nn::Tensor>& a, const std::vector<nn::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const linalg::Mat& x = a[i].value();
    const linalg::Mat& y = b[i].value();
    if (x.rows() != y.rows() || x.cols() != y.cols() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

bool sameBits(const std::vector<linalg::Mat>& a, const std::vector<nn::Tensor>& b) {
  std::vector<nn::Tensor> wrapped;
  for (const linalg::Mat& m : a) wrapped.emplace_back(m);
  return sameBits(wrapped, b);
}

/// Every query reported successful, re-measured on a freshly constructed
/// circuit, must still meet its target (within kRemeasureSlack).
void remeasureSuccesses(core::CampaignCircuit c, const Probe& probe, Outcome& out) {
  for (const Query& q : probe.queries) {
    if (!q.success) continue;
    Rig rig = rigFor(c);
    const circuit::Measurement m = rig.bench->measureAt(q.params, circuit::Fidelity::Fine);
    const circuit::SpecSpace& space = rig.bench->specSpace();
    std::vector<double> loose = q.target;
    for (std::size_t i = 0; i < loose.size(); ++i) {
      const double tol = kRemeasureSlack * std::abs(q.target[i]);
      loose[i] += space.spec(i).direction == circuit::SpecDirection::Maximize ? -tol : tol;
    }
    out.check(m.valid && space.satisfied(m.specs, loose),
              "a query reported successful misses its target on re-measurement");
  }
}

/// The benchmark rebuilds the seed-0 job's context from rigFor(); the
/// program builds it in job.make(). Both must give the same circuit type,
/// env settings, initial policy parameters and evaluation, or the benchmark
/// would time a job the program no longer runs.
void checkMatchesProgram(const rl::CampaignJob& job, core::CampaignCircuit c,
                         core::PolicyKind kind, Outcome& out) {
  const std::unique_ptr<rl::CampaignContext> prog = job.make();
  Rig rig = rigFor(c);
  envs::SizingEnv train(*rig.bench, rig.train);
  std::unique_ptr<envs::SizingEnv> evalOwned;
  if (rig.separateEval) evalOwned = std::make_unique<envs::SizingEnv>(*rig.bench, rig.eval);
  envs::SizingEnv& eval = evalOwned ? *evalOwned : train;
  util::Rng initRng(rig.initSeedBase);
  const auto policy = core::makePolicy(kind, train, initRng);

  auto* progEnv = dynamic_cast<envs::SizingEnv*>(&prog->trainEnv());
  out.check(progEnv != nullptr, "the program's training env is not an envs::SizingEnv");
  if (progEnv == nullptr) return;
  circuit::Benchmark& progBench = progEnv->benchmark();
  out.check(typeid(progBench) == typeid(*rig.bench) &&
                progEnv->config().maxSteps == rig.train.maxSteps &&
                progEnv->config().fidelity == rig.train.fidelity &&
                progEnv->numParams() == train.numParams(),
            "the rebuilt training env differs from the program's");
  out.check(sameBits(prog->policy().parameters(), policy->parameters()),
            "the rebuilt initial policy differs from the program's");

  // One evaluation episode on each side, from the same stream: same
  // result, and the program's evaluation measures at the rebuilt fidelity.
  util::Rng progRng(job.evalSeed), ownRng(job.evalSeed);
  const rl::CampaignEvalReport p = prog->evaluate(1, progRng);
  const core::AccuracyReport o = core::evaluateAccuracy(eval, *policy, 1, ownRng);
  out.check(p.accuracy == o.accuracy && p.meanSteps == o.meanSteps,
            "the rebuilt evaluation differs from the program's");
  out.check(progBench.simCount(rig.eval.fidelity) > 0 &&
                (!rig.separateEval || progBench.simCount(rig.train.fidelity) == 0),
            "the program evaluates at another fidelity than the rebuilt context");
}

void checkCommon(const Probe& probe, Outcome& out) {
  for (const std::string& v : probe.violations) out.check(false, "measurement: " + v);
}

std::int64_t fileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(n);
}

// ---- training workloads ----------------------------------------------------

/// The campaign context of core::makeSizingContext rebuilt from the same
/// public parts, with the timing decorators between its layers.
class BenchContext final : public rl::CampaignContext {
 public:
  BenchContext(core::CampaignCircuit circuit, core::PolicyKind kind, int seed,
               Probe& probe)
      : probe_(probe) {
    Rig rig = rigFor(circuit);
    bench = std::make_shared<TimedBenchmark>(std::move(rig.bench), rig.kind, probe);
    trainEnv_ = std::make_unique<envs::SizingEnv>(*bench, rig.train);
    if (rig.separateEval) evalEnvOwned_ = std::make_unique<envs::SizingEnv>(*bench, rig.eval);
    trainTimed_ = std::make_unique<TimedEnv>(*trainEnv_, TimedEnv::Role::Train, probe);
    evalTimed_ = std::make_unique<TimedEnv>(evalEnvOwned_ ? *evalEnvOwned_ : *trainEnv_,
                                            TimedEnv::Role::Query, probe);
    util::Rng initRng(rig.initSeedBase + static_cast<std::uint64_t>(seed));
    model = core::makePolicy(kind, *trainEnv_, initRng);
    timedPolicy_ = std::make_unique<TimedPolicy>(*model, probe);
  }

  rl::Env& trainEnv() override { return *trainTimed_; }
  rl::ActorCritic& policy() override { return *timedPolicy_; }

  rl::CampaignEvalReport evaluate(int episodes, util::Rng& rng) override {
    Busy busy(probe_);
    core::AccuracyReport rep;
    {
      crl::obs::TraceSpan span("core.eval", "e2e");
      rep = core::evaluateAccuracy(*evalTimed_, *timedPolicy_, episodes, rng);
    }
    ++probe_.evalCalls;
    probe_.evalEpisodes += episodes;
    probe_.evalStepsReported += std::lround(rep.meanSteps * episodes);
    probe_.lastEvalEndNs = nowNs();
    return {rep.accuracy, rep.meanSteps, rep.meanStepsSuccess};
  }

  // The runner asks for the solver snapshots right before it writes a
  // checkpoint, and calls CampaignConfig::onCheckpoint right after: the two
  // bound the write from outside.
  std::vector<std::string> solverSnapshots() const override {
    probe_.checkpointStartNs = nowNs();
    return {bench->solverStateSnapshot()};
  }
  bool restoreSolverSnapshots(const std::vector<std::string>& blobs) override {
    return blobs.size() == 1 && bench->restoreSolverStateSnapshot(blobs[0]);
  }
  void checkpointWritten(const std::string& path) {
    const std::int64_t end = nowNs();
    crl::obs::TraceSink::global().record("io.checkpoint", "e2e", probe_.checkpointStartNs, end);
    ++probe_.checkpointWrites;
    probe_.topNs += end - probe_.checkpointStartNs;
    probe_.checkpointBytes += fileBytes(path);
  }

  std::shared_ptr<TimedBenchmark> bench;  // outlives the envs below
  std::shared_ptr<core::MultimodalPolicy> model;

 private:
  Probe& probe_;
  std::unique_ptr<envs::SizingEnv> trainEnv_;
  std::unique_ptr<envs::SizingEnv> evalEnvOwned_;
  std::unique_ptr<TimedEnv> trainTimed_;
  std::unique_ptr<TimedEnv> evalTimed_;
  std::unique_ptr<TimedPolicy> timedPolicy_;
};

/// One campaign job per round under the real rl::CampaignRunner (one
/// worker, run inline), its fields from core::buildSizingJobs.
class TrainWorkload final : public Workload {
 public:
  /// The job is buildSizingJobs' seed-0 job (the fig3 harnesses' first
  /// seed) whatever the workload seed: a training job's work follows its
  /// learning trajectory, and other job seeds change it by up to 2x.
  TrainWorkload(const TrainSize& size, std::string outDir)
      : size_(size), outDir_(std::move(outDir)) {
    core::CampaignAxes axes;
    axes.circuits = {size.circuit};
    axes.kinds = {size.kind};
    axes.episodes = size.episodes;
    axes.evalEpisodes = size.evalEpisodes;
    job_ = core::buildSizingJobs(axes).front();
  }

  void prepare(Probe& probe) override {
    ctx_ = std::make_unique<BenchContext>(size_.circuit, size_.kind, /*seed=*/0, probe);
    bench_ = ctx_->bench;
    policy_ = ctx_->model;
  }

  void run(Probe& probe) override {
    rl::CampaignConfig cfg;
    cfg.outDir = outDir_;
    cfg.workers = 1;
    cfg.resume = false;
    // The status writer and the heartbeat watchdog do work driven by wall
    // time, which would vary with machine speed.
    cfg.writeStatus = false;
    BenchContext* live = ctx_.get();
    const std::string checkpoint = jobDir() + "/checkpoint.bin";
    cfg.onCheckpoint = [live, checkpoint](const std::string&, int) {
      live->checkpointWritten(checkpoint);
    };
    rl::CampaignJob job = job_;
    job.make = [this]() -> std::unique_ptr<rl::CampaignContext> { return std::move(ctx_); };
    rl::CampaignRunner runner(cfg);
    runner.addJob(std::move(job));
    results_ = runner.run();
    // Final evaluation -> curve.csv, policy.bin, done marker.
    const std::int64_t end = nowNs();
    crl::obs::TraceSink::global().record("io.artifacts", "e2e", probe.lastEvalEndNs, end);
    probe.topNs += end - probe.lastEvalEndNs;
  }

  void check(Probe& probe, Outcome& out) override {
    out.attempted += 1 + probe.evalEpisodes;
    const bool jobOk = results_.size() == 1 && !results_[0].failed;
    out.failed += (jobOk ? 0 : 1) +
                  static_cast<long>(crl::obs::counter("deploy.query_failures").value());
    out.check(jobOk, "campaign job failed: " + (results_.empty() ? std::string("no result")
                                                                 : results_[0].error));
    if (!jobOk) return;
    const std::string dir = jobDir();
    for (const char* f : {"/curve.csv", "/policy.bin", "/done"})
      probe.artifactBytes += fileBytes(dir + f);

    // Measure counts: decorator vs the benchmark's own simCount.
    if (size_.circuit == core::CampaignCircuit::RfPa) {
      out.check(probe.fineCalls == bench_->simCount(circuit::Fidelity::Fine) &&
                    probe.coarseCalls == bench_->simCount(circuit::Fidelity::Coarse),
                "decorator measure counts != Benchmark::simCount");
    } else {
      out.check(probe.fineCalls + probe.coarseCalls == bench_->simCount(circuit::Fidelity::Fine),
                "decorator measure count != Benchmark::simCount");
    }
    // Env steps: decorator vs trainer episode lengths + evaluation reports.
    const long trainSteps = static_cast<long>(crl::obs::counter("rl.ppo.env_steps").value());
    out.check(probe.steps == trainSteps + probe.evalStepsReported,
              "env steps != sum of episode lengths + evaluation steps");
    out.check(static_cast<long>(probe.queries.size()) == probe.evalEpisodes,
              "timed evaluation queries != evaluated episodes");
    out.check(probe.evalCalls == 1 + job_.episodes / job_.evalEvery +
                                     (job_.episodes % job_.evalEvery != 0 ? 1 : 0),
              "unexpected number of evaluation calls");

    // Artifacts reloaded through the program's loaders equal the final
    // in-memory parameters bit for bit.
    const std::vector<nn::Tensor> params = policy_->parameters();
    nn::TrainState st;
    std::string err;
    out.check(nn::loadTrainState(dir + "/checkpoint.bin", st, &err) == nn::LoadResult::Ok &&
                  sameBits(st.params, params),
              "checkpoint.bin does not reload to the final parameters " + err);
    Rig rig = rigFor(size_.circuit);
    envs::SizingEnv env(*rig.bench, rig.train);
    util::Rng anyInit(0);
    const auto fresh = core::makePolicy(size_.kind, env, anyInit);
    std::vector<nn::Tensor> loaded = fresh->parameters();
    out.check(nn::loadParametersDetailed(dir + "/policy.bin", loaded, &err) == nn::LoadResult::Ok &&
                  sameBits(loaded, params),
              "policy.bin does not reload to the final parameters " + err);

    checkCommon(probe, out);
    remeasureSuccesses(size_.circuit, probe, out);
    fs::remove_all(outDir_);  // keeps file-system work out of the next set-up
    if (!matchChecked_) checkMatchesProgram(job_, size_.circuit, size_.kind, out);
    matchChecked_ = true;
  }

 private:
  std::string jobDir() const { return outDir_ + "/" + job_.name; }

  TrainSize size_;
  std::string outDir_;
  rl::CampaignJob job_;
  std::unique_ptr<BenchContext> ctx_;
  std::shared_ptr<TimedBenchmark> bench_;
  std::shared_ptr<core::MultimodalPolicy> policy_;
  std::vector<rl::CampaignJobResult> results_;
  bool matchChecked_ = false;
};

// ---- deployment workload ---------------------------------------------------

/// A trained GCN-FC op-amp policy sizes a seeded set of targets through
/// core::runDeploymentBatch over a multi-lane VecEnv without a pool.
class DeployWorkload final : public Workload {
 public:
  DeployWorkload(std::uint64_t seed, Probe& setupProbe) : seed_(seed) {
    // The deployed policy: trained from a fixed seed (buildSizingJobs'
    // seed 0), independent of the workload seed.
    core::CampaignAxes axes;
    axes.kinds = {core::PolicyKind::GcnFc};
    axes.episodes = kDeployTrainEpisodes;
    job_ = core::buildSizingJobs(axes).front();
    const rl::CampaignJob& job = job_;
    Rig rig = rigFor(core::CampaignCircuit::OpAmp);
    TimedBenchmark bench(std::move(rig.bench), rig.kind, setupProbe);
    envs::SizingEnv env(bench, rig.train);
    TimedEnv timedEnv(env, TimedEnv::Role::Train, setupProbe);
    util::Rng initRng(rig.initSeedBase);
    policy_ = core::makePolicy(core::PolicyKind::GcnFc, env, initRng);
    TimedPolicy timedPolicy(*policy_, setupProbe);
    rl::PpoTrainer trainer(timedEnv, timedPolicy, job.ppo, util::Rng(job.trainSeed));
    trainer.train(kDeployTrainEpisodes);
    trained_ = policy_->parameters();
    for (nn::Tensor& t : trained_) t = nn::Tensor(t.value());  // detached copy

    util::Rng targetRng(util::substreamSeed(seed, 1));
    for (std::size_t i = 0; i < kDeployTargets; ++i)
      targets_.push_back(bench.specSpace().sample(targetRng));
  }

  void prepare(Probe& probe) override {
    lanes_.clear();
    vec_ = std::make_unique<rl::VecEnv>(
        kDeployLanes,
        [this, &probe](std::size_t) {
          auto lane = std::make_shared<Lane>(probe);
          lanes_.push_back(lane);
          rl::EnvLane el;
          el.env = std::make_unique<TimedEnv>(lane->env, TimedEnv::Role::Query, probe);
          el.keepAlive = lane;
          return el;
        },
        util::substreamSeed(seed_, 2), /*pool=*/nullptr);
    timedPolicy_ = std::make_unique<TimedPolicy>(*policy_, probe);
  }

  void run(Probe& probe) override {
    Busy busy(probe);
    crl::obs::TraceSpan span("core.deploy", "e2e");
    results_ = core::runDeploymentBatch(*vec_, *timedPolicy_, targets_);
  }

  void check(Probe& probe, Outcome& out) override {
    out.attempted += static_cast<long>(targets_.size());
    long steps = 0, sims = 0;
    for (const core::DeploymentResult& r : results_) {
      steps += r.steps;
      if (r.failed) ++out.failed;
    }
    for (const auto& lane : lanes_) sims += lane->bench.simCount(circuit::Fidelity::Fine);
    out.check(results_.size() == targets_.size(), "one result per target");
    out.check(probe.steps == steps, "env steps != sum of DeploymentResult::steps");
    out.check(probe.queries.size() == targets_.size(), "timed queries != targets");
    out.check(probe.fineCalls + probe.coarseCalls == sims,
              "decorator measure count != Benchmark::simCount");
    out.check(sameBits(trained_, policy_->parameters()),
              "deployment changed the policy parameters");
    checkCommon(probe, out);
    remeasureSuccesses(core::CampaignCircuit::OpAmp, probe, out);
    if (!matchChecked_)
      checkMatchesProgram(job_, core::CampaignCircuit::OpAmp, core::PolicyKind::GcnFc, out);
    matchChecked_ = true;
  }

 private:
  struct Lane {
    explicit Lane(Probe& probe)
        : bench(std::make_unique<circuit::TwoStageOpAmp>(), CircuitKind::Cmos, probe),
          env(bench, rigFor(core::CampaignCircuit::OpAmp).train) {}
    TimedBenchmark bench;
    envs::SizingEnv env;
  };

  std::uint64_t seed_;
  rl::CampaignJob job_;
  bool matchChecked_ = false;
  std::unique_ptr<core::MultimodalPolicy> policy_;
  std::vector<nn::Tensor> trained_;
  std::vector<std::vector<double>> targets_;
  std::vector<std::shared_ptr<Lane>> lanes_;
  std::unique_ptr<rl::VecEnv> vec_;
  std::unique_ptr<TimedPolicy> timedPolicy_;
  std::vector<core::DeploymentResult> results_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed,
                                       const std::string& outDir, Probe& setupProbe) {
  if (name == "opamp-train") return std::make_unique<TrainWorkload>(kOpAmpTrain, outDir);
  if (name == "rfpa-train") return std::make_unique<TrainWorkload>(kRfPaTrain, outDir);
  if (name == "opamp-deploy") return std::make_unique<DeployWorkload>(seed, setupProbe);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace e2e
