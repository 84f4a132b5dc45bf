#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark, over separate sessions.

    python3 e2ebench/steady.py record --session <n>   # one session: 10 runs per workload
    python3 e2ebench/steady.py compare                # every recorded session

`record` runs every workload 10 times, one run at a time, with seeds
100*n+1 .. 100*n+10, and writes the results to
$CARGO_TARGET_DIR/e2ebench/steady/session-<n>.json (default under
.bench_build). Record each session at a separate time, so that `compare`
sees the drift between sessions and not only between neighbouring runs.

`compare` prints, for every end-to-end metric, calibrated and raw, the
median and quartiles of each session and the spread (quartile distance /
median). It then says whether the sessions agree within the bounds
BENCHMARK.json declares: every calibrated spread except setup_s within its
bound, no later session's median worse than the first's by more than the
bound, and the same share of failed operations.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

from run import ROOT, build_dir

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    raw = {}
    for l in lines:
        if l.startswith("#raw "):
            raw = json.loads(l[5:])
    return {"seed": seed, "result": json.loads(lines[-1]), "raw": raw}


def record(session):
    bench = load_bench()
    out_dir = os.path.join(build_dir(), "steady")
    os.makedirs(out_dir, exist_ok=True)
    runs = {}
    for w in bench["workloads"]:
        name = w["name"]
        runs[name] = []
        for i in range(RUNS):
            run = run_once(name, 100 * session + i + 1, bench["run_seconds"])
            runs[name].append(run)
            r = run["result"]
            print(f"session {session} {name} seed {run['seed']}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
    path = os.path.join(out_dir, f"session-{session}.json")
    with open(path, "w") as f:
        json.dump({"session": session, "finished": time.strftime("%Y-%m-%d %H:%M:%S"),
                   "runs": runs}, f)
    print(f"recorded {path}")
    return 0


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def compare():
    bench = load_bench()
    paths = sorted(glob.glob(os.path.join(build_dir(), "steady", "session-*.json")),
                   key=lambda p: int(p.rsplit("-", 1)[1].split(".")[0]))
    sessions = []
    for p in paths:
        with open(p) as f:
            sessions.append(json.load(f))
    if len(sessions) < 2:
        print(f"need two recorded sessions, found {len(sessions)}", file=sys.stderr)
        return 2
    print("sessions: " + ", ".join(f"{s['session']} (finished {s['finished']})" for s in sessions))

    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        print(f"\n== {w}")
        print(f"{'metric':<14} {'session':>7} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
              f" {'raw median':>12} {'raw spread':>10}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            rows = []
            for s in sessions:
                runs = s["runs"][w]
                cal = summary([r["result"]["metrics"][name]["value"] for r in runs])
                raws = [r["raw"][name]["raw"] for r in runs if name in r["raw"]]
                raw = summary(raws) if len(raws) > 1 else None
                rows.append(cal)
                print(f"{name:<14} {s['session']:>7} {cal['median']:>12.6g} {cal['q1']:>12.6g}"
                      f" {cal['q3']:>12.6g} {cal['spread']:>8.4f}"
                      + (f" {raw['median']:>12.6g} {raw['spread']:>10.4f}" if raw else ""))
            worse = [(r["median"] - rows[0]["median"]) / rows[0]["median"] for r in rows[1:]]
            if m["better"] == "higher":
                worse = [-x for x in worse]
            spread_ok = name == "setup_s" or all(r["spread"] <= bound for r in rows)
            drift_ok = all(x <= bound for x in worse)
            ok &= spread_ok and drift_ok
            print(f"{'':<14} bound {bound}: spreads {'ok' if spread_ok else 'TOO WIDE'}, "
                  f"median drift {', '.join(f'{x:+.4f}' for x in worse)} "
                  f"{'ok' if drift_ok else 'TOO FAR'}")
        shares = [sum(r["result"]["failed"] for r in s["runs"][w])
                  / sum(r["result"]["attempted"] for r in s["runs"][w]) for s in sessions]
        correct = all(r["result"]["correct"] for s in sessions for r in s["runs"][w])
        same_share = len(set(shares)) == 1
        ok &= same_share and correct
        print(f"failed share per session: {shares} ({'same' if same_share else 'DIFFERENT'});"
              f" all runs correct: {correct}")
    print("\nsteady:", "yes" if ok else "NO")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run one session and record it")
    rec.add_argument("--session", required=True, type=int)
    sub.add_parser("compare", help="compare every recorded session")
    args = p.parse_args()
    return record(args.session) if args.cmd == "record" else compare()


if __name__ == "__main__":
    sys.exit(main())
