// e2ebench: end-to-end benchmark of the crl training/deployment loop.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Untraced (--trace 0): runs whole rounds of the workload until the next
// round would overrun --seconds of raw work time (at least one round), and
// prints the end-to-end metrics. Traced (--trace 1): one untraced round, then one round under the
// program's tracer, and prints the per-layer metrics. Every time is in
// reference-normalised seconds (see calibration.h); the line starting with
// "#raw " carries the raw values and calibration factors beside them. The
// last line of stdout is the result object.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "calibration.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "workloads.h"

namespace e2e {
namespace {

namespace json = crl::obs::json;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir;
};

bool parseArgs(int argc, char** argv, Args& a) {
  bool haveWorkload = false, haveOut = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
        haveWorkload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = std::stoi(val) != 0;
      } else if (key == "--out") {
        a.outDir = val;
        haveOut = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return haveWorkload && haveOut && argc % 2 == 1 && a.seconds > 0.0;
}

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Sorted, merged union of intervals.
std::vector<Interval> merged(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (!out.empty() && iv.first <= out.back().second)
      out.back().second = std::max(out.back().second, iv.second);
    else
      out.push_back(iv);
  }
  return out;
}

/// a \ b for merged interval lists.
std::vector<Interval> minus(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  std::vector<Interval> out;
  std::size_t j = 0;
  for (Interval iv : a) {
    while (j < b.size() && b[j].second <= iv.first) ++j;
    std::size_t k = j;
    while (k < b.size() && b[k].first < iv.second) {
      if (b[k].first > iv.first) out.emplace_back(iv.first, b[k].first);
      iv.first = std::max(iv.first, b[k].second);
      ++k;
    }
    if (iv.first < iv.second) out.push_back(iv);
  }
  return out;
}

/// Spans of the traced round, by name, on the calibrator's clock.
class TraceSpans {
 public:
  /// Reads the Chrome trace the program's TraceSink wrote. `sliceStartNs`
  /// is the start of the first reference slice recorded into it, which
  /// pins the trace's relative timestamps to the calibrator's clock.
  bool load(const std::string& path, std::int64_t sliceStartNs, std::string* err) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    // The trace holds one small object per span; parse event by event to
    // keep memory flat (a full DOM of a traced job is hundreds of MB).
    const std::string text = ss.str();
    const std::size_t arr = text.find("\"traceEvents\":[");
    if (!in || arr == std::string::npos) {
      *err = "no trace at " + path;
      return false;
    }
    std::vector<std::pair<std::string, Interval>> raw;
    std::size_t pos = arr + 15;
    while (true) {
      const std::size_t open = text.find('{', pos);
      if (open == std::string::npos) break;
      const std::size_t close = text.find('}', open);
      json::Value ev;
      if (close == std::string::npos ||
          !json::parse(text.substr(open, close - open + 1), ev, err))
        return false;
      const auto us = [](double v) { return static_cast<std::int64_t>(std::llround(v * 1e3)); };
      const std::int64_t ts = us(ev.number("ts"));
      raw.push_back({ev.string("name"), {ts, ts + us(ev.number("dur"))}});
      pos = close + 1;
    }
    std::int64_t offset = 0;
    bool aligned = false;
    for (const auto& [name, iv] : raw)
      if (name == "calib.slice") {
        offset = sliceStartNs - iv.first;
        aligned = true;
        break;
      }
    if (!aligned) {
      *err = "trace has no calibration slice";
      return false;
    }
    for (const auto& [name, iv] : raw)
      spans_[name].emplace_back(iv.first + offset, iv.second + offset);
    for (auto& [name, v] : spans_) v = merged(std::move(v));
    return true;
  }

  /// Merged union of the spans of all the given names.
  std::vector<Interval> of(std::initializer_list<const char*> names) const {
    std::vector<Interval> all;
    for (const char* n : names)
      if (auto it = spans_.find(n); it != spans_.end())
        all.insert(all.end(), it->second.begin(), it->second.end());
    return merged(std::move(all));
  }

 private:
  std::map<std::string, std::vector<Interval>> spans_;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Round {
  std::unique_ptr<Probe> probe;
  std::int64_t t0 = 0, t1 = 0;
};

/// Metric rows printed in the result object (and in the #raw line).
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, value, unit, std::nan(""), std::nan("")});
  }
  /// A calibrated time with its raw value beside it.
  void addTime(const std::string& name, double value, double raw, const char* unit) {
    rows_.push_back({name, value, unit, raw, raw > 0.0 ? value / raw : std::nan("")});
  }
  std::string metricsJson() const {
    std::string s = "{";
    for (const Row& r : rows_) {
      if (s.size() > 1) s += ",";
      s += "\"" + r.name + "\":{\"value\":" + json::number(r.value) + ",\"unit\":\"" +
           r.unit + "\"}";
    }
    return s + "}";
  }
  std::string rawJson() const {
    std::string s = "{";
    for (const Row& r : rows_) {
      if (std::isnan(r.raw)) continue;
      if (s.size() > 1) s += ",";
      s += "\"" + r.name + "\":{\"raw\":" + json::number(r.raw) +
           ",\"factor\":" + json::number(r.factor) + "}";
    }
    return s + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
    double raw;
    double factor;
  };
  std::vector<Row> rows_;
};

double sec(std::int64_t ns) { return 1e-9 * static_cast<double>(ns); }

double counterValue(const char* name) {
  return static_cast<double>(crl::obs::counter(name).value());
}

/// Per-layer metrics of the traced round (see README.md for the table of
/// which end-to-end metric each should move).
void perLayer(Report& rep, const Calibrator& calib, const Round& traced,
              const Round& untraced, const TraceSpans& spans,
              const std::map<std::string, double>& counters, Outcome& out) {
  const Probe& p = *traced.probe;
  const auto cal = [&](const std::vector<Interval>& ivs) {
    double s = 0.0;
    for (const Interval& iv : ivs) s += calib.calibrated(iv.first, iv.second);
    return s;
  };
  const auto raw = [&](const std::vector<Interval>& ivs) {
    double s = 0.0;
    for (const Interval& iv : ivs) s += calib.raw(iv.first, iv.second);
    return s;
  };
  const auto ctr = [&](const char* n) { return counters.at(n); };
  const auto measures = spans.of({"circuit.measure_fine", "circuit.measure_coarse"});

  std::vector<double> fineMs;
  for (const auto& [a, b] : p.fineWindows) fineMs.push_back(1e3 * calib.calibrated(a, b));
  rep.add("circuit.measure_fine.calls", static_cast<double>(p.fineCalls), "count");
  rep.add("circuit.measure_fine.busy_s", cal(spans.of({"circuit.measure_fine"})), "s");
  rep.add("circuit.measure_fine.ms_p50", quantile(fineMs, 0.5), "ms");
  rep.add("circuit.measure_fine.ms_p90", quantile(fineMs, 0.9), "ms");
  rep.add("circuit.measure_coarse.calls", static_cast<double>(p.coarseCalls), "count");
  rep.add("circuit.measure_coarse.busy_s", cal(spans.of({"circuit.measure_coarse"})), "s");

  const auto tran = spans.of({"spice.tran.run"});
  const auto ac = spans.of({"spice.ac.sweep"});
  const auto dc = spans.of({"spice.dc.solve"});
  rep.add("spice.tran.runs", ctr("spice.tran.runs"), "count");
  rep.add("spice.tran.busy_s", cal(tran), "s");
  rep.add("spice.tran.timesteps", ctr("spice.tran.timesteps"), "count");
  rep.add("spice.tran.newton_iters", ctr("spice.tran.newton_iters"), "count");
  rep.add("spice.ac.sweeps", ctr("spice.ac.sweeps"), "count");
  rep.add("spice.ac.busy_s", cal(ac), "s");
  rep.add("spice.ac.points", ctr("spice.ac.points_solved"), "count");
  rep.add("spice.dc.solves", ctr("spice.dc.solves"), "count");
  rep.add("spice.dc.busy_s", cal(dc), "s");
  rep.add("spice.dc.newton_iters", ctr("spice.dc.newton_iters"), "count");
  rep.add("spice.dc.homotopy_rescues", ctr("spice.dc.homotopy_rescues"), "count");
  rep.add("linalg.solver.dense_selected", ctr("linalg.solver.dense_selected"), "count");
  rep.add("linalg.solver.sparse_selected", ctr("linalg.solver.sparse_selected"), "count");

  rep.add("envs.steps", static_cast<double>(p.steps), "count");
  rep.add("envs.resets", static_cast<double>(p.resets), "count");
  rep.add("envs.step.self_s", cal(minus(spans.of({"envs.step"}), measures)), "s");

  rep.add("policy.forward.calls", static_cast<double>(p.forwardCalls), "count");
  rep.add("policy.forward.busy_s", cal(spans.of({"policy.forward"})), "s");
  rep.add("policy.forward_batch.rows", static_cast<double>(p.forwardBatchRows), "count");
  rep.add("policy.forward_batch.busy_s", cal(spans.of({"policy.forward_batch"})), "s");
  rep.add("policy.forward_stacked.busy_s", cal(spans.of({"policy.forward_stacked"})), "s");

  // Leaf layers: everything below them is attributed to them.
  const auto leaves = spans.of({"envs.step", "envs.reset", "policy.forward",
                                "policy.forward_batch", "rl.ppo.update", "io.checkpoint",
                                "io.artifacts", "core.eval", "core.deploy"});
  const auto update = spans.of({"rl.ppo.update"});
  rep.add("rl.ppo.updates", ctr("rl.ppo.updates"), "count");
  rep.add("rl.ppo.update.busy_s", cal(update), "s");
  rep.add("rl.train.self_s", cal(minus(spans.of({"rl.ppo.train_chunk"}), leaves)), "s");

  rep.add("core.eval.queries", static_cast<double>(p.evalEpisodes), "count");
  rep.add("core.eval.steps", static_cast<double>(p.evalStepsReported), "count");
  rep.add("core.eval.busy_s", cal(spans.of({"core.eval"})), "s");
  rep.add("core.deploy.queries", static_cast<double>(p.queries.size()) - p.evalEpisodes, "count");
  rep.add("core.deploy.busy_s", cal(spans.of({"core.deploy"})), "s");

  rep.add("io.checkpoint.writes", static_cast<double>(p.checkpointWrites), "count");
  rep.add("io.checkpoint.bytes", static_cast<double>(p.checkpointBytes), "B");
  rep.add("io.artifact.bytes", static_cast<double>(p.artifactBytes), "B");

  const std::vector<Interval> run{{traced.t0, traced.t1}};
  const double runCal = calib.calibrated(traced.t0, traced.t1);
  const double runRaw = calib.raw(traced.t0, traced.t1);
  rep.add("calib.factor", runCal / runRaw, "ratio");
  rep.add("calib.ref_s", calib.meanSliceSeconds(traced.t0, traced.t1), "s");
  rep.add("run.raw_wall_s", runRaw, "s");
  rep.add("run.unattributed_s",
          cal(minus(minus(run, leaves), spans.of({"rl.ppo.train_chunk"}))), "s");
  rep.add("trace.overhead_s", runCal - calib.calibrated(untraced.t0, untraced.t1), "s");

  // The program's own spans lie inside the calls the decorators time from
  // outside; compare raw seconds (tolerance: trace timestamps are in us).
  const double measuredRaw = sec(p.fineNs + p.coarseNs);
  const double tol = 1e-6 * static_cast<double>(p.fineCalls + p.coarseCalls + 1);
  out.check(raw(tran) <= measuredRaw + tol, "spice.tran spans exceed the timed measure calls");
  out.check(raw(ac) <= measuredRaw + tol, "spice.ac spans exceed the timed measure calls");
  out.check(raw(dc) <= measuredRaw + tol, "spice.dc spans exceed the timed measure calls");
  out.check(raw(update) <= runRaw - sec(p.topNs) + 1e-6 * (ctr("rl.ppo.updates") + 1),
            "rl.ppo.update spans exceed the run time outside decorated calls");
}

int benchMain(int argc, char** argv, std::int64_t tMain, Calibrator& calib) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::cerr << "usage: e2ebench --workload <opamp-train|rfpa-train|opamp-deploy> "
                 "--seed <n> --seconds <s> --trace <0|1> --out <dir>\n";
    return 2;
  }
  std::filesystem::create_directories(args.outDir);
  Outcome outcome;

  // ---- set-up: circuit, envs, policy (deploy: also training the policy).
  Probe setupProbe(calib);
  std::vector<Round> rounds;
  rounds.push_back({std::make_unique<Probe>(calib)});
  std::unique_ptr<Workload> wl =
      makeWorkload(args.workload, args.seed, args.outDir + "/job", setupProbe);
  wl->prepare(*rounds[0].probe);
  const std::int64_t tSetup = nowNs();
  calib.slice();
  for (const std::string& v : setupProbe.violations)
    outcome.check(false, "set-up measurement: " + v);

  // ---- timed rounds.
  const std::string tracePath = args.outDir + "/trace.json";
  std::map<std::string, double> counters;
  std::size_t traceSlice = 0;
  double total = 0.0;
  for (std::size_t r = 0;; ++r) {
    Round& round = rounds[r];
    const bool traced = args.trace && r == 1;
    crl::obs::Registry::global().resetAll();
    if (traced) {
      std::filesystem::remove(tracePath);
      crl::obs::TraceSink::global().start(tracePath);
      traceSlice = calib.slices();
    }
    calib.slice();
    round.t0 = nowNs();
    wl->run(*round.probe);
    round.t1 = nowNs();
    calib.slice();
    if (traced) {
      crl::obs::TraceSink::global().stop();
      for (const char* n :
           {"spice.tran.runs", "spice.tran.timesteps", "spice.tran.newton_iters",
            "spice.ac.sweeps", "spice.ac.points_solved", "spice.dc.solves",
            "spice.dc.newton_iters", "spice.dc.homotopy_rescues",
            "linalg.solver.dense_selected", "linalg.solver.sparse_selected", "rl.ppo.updates"})
        counters[n] = counterValue(n);
    }
    wl->check(*round.probe, outcome);
    total += calib.raw(round.t0, round.t1);  // --seconds bounds wall time
    const double mean = total / static_cast<double>(r + 1);
    const bool more = args.trace ? r == 0 : total + mean <= args.seconds;
    if (!more) break;
    rounds.push_back({std::make_unique<Probe>(calib)});
    wl->prepare(*rounds.back().probe);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peakRssMib = static_cast<double>(ru.ru_maxrss) / 1024.0;

  Report rep;
  if (args.trace) {
    TraceSpans spans;
    std::string err;
    if (spans.load(tracePath, calib.sliceStartNs(traceSlice), &err))
      perLayer(rep, calib, rounds[1], rounds[0], spans, counters, outcome);
    else
      outcome.check(false, "trace: " + err);
  } else {
    std::vector<double> runCal, runRaw, qCal, qRaw;
    for (const Round& r : rounds) {
      runCal.push_back(calib.calibrated(r.t0, r.t1));
      runRaw.push_back(calib.raw(r.t0, r.t1));
      for (const Query& q : r.probe->queries) {
        qCal.push_back(1e3 * calib.calibrated(q.startNs, q.endNs));
        qRaw.push_back(1e3 * calib.raw(q.startNs, q.endNs));
      }
    }
    outcome.check(qCal.size() >= 100, "fewer than 100 queries: no p90 tail");
    rep.addTime("setup_s", calib.calibrated(tMain, tSetup), calib.raw(tMain, tSetup), "s");
    rep.addTime("run_s", median(runCal), median(runRaw), "s");
    rep.addTime("query_ms_p50", quantile(qCal, 0.5), quantile(qRaw, 0.5), "ms");
    rep.addTime("query_ms_p90", quantile(qCal, 0.9), quantile(qRaw, 0.9), "ms");
    rep.add("peak_rss_mib", peakRssMib, "MiB");
    std::cerr << "e2ebench: " << args.workload << " seed " << args.seed << ": "
              << rounds.size() << " rounds, " << qCal.size() << " queries, "
              << calib.slices() << " reference slices\n";
  }
  for (const std::string& e : outcome.errors) std::cerr << "e2ebench: CHECK FAILED: " << e << "\n";

  if (!args.trace) std::cout << "#raw " << rep.rawJson() << "\n";
  std::cout << "{\"correct\":" << (outcome.errors.empty() ? "true" : "false")
            << ",\"attempted\":" << outcome.attempted << ",\"failed\":" << outcome.failed
            << ",\"metrics\":" << rep.metricsJson() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const std::int64_t tMain = e2e::nowNs();
  if (!__builtin_cpu_supports("avx512f")) {
    std::cerr << "e2ebench: the calibration reference needs AVX-512\n";
    return 1;
  }
  e2e::Calibrator calib;
  // Warm-up: the first slices of a process run on cold caches; only the
  // last one before set-up calibrates it.
  for (int i = 0; i < 3; ++i) calib.slice();
  try {
    return e2e::benchMain(argc, argv, tMain, calib);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
