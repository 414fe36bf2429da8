"""Steadiness report: runs the benchmark over several seeds and prints, for
every metric of every workload, the median, quartiles, sample count and
inter-quartile spread as a share of the median, plus host steal time and
load average per run.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--sets 2]
        [--seconds S] [--trace] [--out runs.jsonl]
    python3 perfbench/steadiness.py --summarize runs.jsonl

Workloads run interleaved (seed 1 of every workload, then seed 2, ...), so
every workload sees the same host drift. With --sets 2 the seeds run twice
and the report compares the two sets' medians, the way two sets of runs of
the same code are compared: a set's median may differ from the first set's
by no more than the metric's bound, either way. --trace adds one traced run
per set (a traced run covers every workload) and reports the tracing
overhead (traced minus untraced) of every surface the traced run repeats.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# end-to-end metric of a workload -> the traced run's repetition of it
OVERHEAD = {
    ("pipeline_1m", "op_a_ms"): "traced.pipeline_cold_ms",
    ("pipeline_1m", "op_b_ms"): "traced.pipeline_rerun_ms",
    ("serve_mixed", "op_a_ms"): "traced.serve_identify_p50_ms",
    ("serve_mixed", "op_b_ms"): "traced.serve_ingest_p50_ms",
}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    wall_s = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    diag = {}
    for line in lines:
        if line.startswith("diag "):
            diag = json.loads(line[5:])
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": int(trace), "diag": diag,
            "wall_s": wall_s, **result}


def summarize(records, bounds):
    untraced = [r for r in records if not r["trace"]]
    workloads = list(dict.fromkeys(r["workload"] for r in untraced))
    ok = True
    for workload in workloads:
        runs = [r for r in untraced if r["workload"] == workload]
        sets = sorted({r.get("set", 0) for r in runs})
        print(f"\n== {workload}: {len(runs)} runs, "
              f"{sum(r['attempted'] for r in runs)} operations attempted, "
              f"{sum(r['failed'] for r in runs)} failed, "
              f"all correct: {all(r['correct'] for r in runs)}")
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        print(f"{'metric':<14}{'set':>4}{'n':>4}{'q1':>12}{'median':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for name in runs[0]["metrics"]:
            medians = []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in runs if r.get("set", 0) == s]
                q1, med, q3 = stats.quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and spread > bound:
                    flag, ok = "  SPREAD OVER BOUND", False
                elif bound is not None and spread > bound / 3:
                    flag = "  spread over a third of the bound"
                print(f"{name:<14}{s:>4}{len(values):>4}{q1:>12.4f}{med:>12.4f}{q3:>12.4f}"
                      f"{spread:>9.3f}{bound if bound is not None else '-':>7}{flag}")
            if len(medians) == 2 and name in bounds:
                better_lower = bounds[name + ".lower"]
                change = (medians[1] - medians[0]) / medians[0] * (1 if better_lower else -1)
                verdict = "ok" if abs(change) <= bounds[name] else "APART BY MORE THAN BOUND"
                ok &= verdict == "ok"
                print(f"{'':<14}second set vs first: {change:+.3f} ({verdict})")
        print(f"run wall time: {min(r['wall_s'] for r in runs):.0f}-"
              f"{max(r['wall_s'] for r in runs):.0f} s")
        print("host per run: " + ", ".join(
            f"seed {r['seed']}: steal {r['diag'].get('steal_pct', 0):.1f}% load "
            f"{r['diag'].get('loadavg', 0):.2f}" for r in runs))
    traced = [r for r in records if r["trace"]]
    if traced:
        print("\n== traced runs: tracing overhead (traced median - untraced median)")
        for (workload, metric), traced_name in OVERHEAD.items():
            base = [r["metrics"][metric]["value"] for r in untraced if r["workload"] == workload]
            with_trace = [r["metrics"][traced_name]["value"] for r in traced
                          if traced_name in r["metrics"]]
            if base and with_trace:
                b, t = statistics.median(base), statistics.median(with_trace)
                print(f"{workload:<18}{metric:<10}{traced_name:<34}"
                      f"{t - b:+10.3f} ms ({(t - b) / b:+.1%})")
        print(f"traced runs correct: {all(r['correct'] and r['failed'] == 0 for r in traced)}")
        ok &= all(r["correct"] and r["failed"] == 0 for r in traced)
    print(f"\nsteady and correct: {ok}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--summarize", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {}
    for metric in bench["end_to_end"]:
        bounds[metric["name"]] = metric["bound"]
        bounds[metric["name"] + ".lower"] = metric["better"] == "lower"

    if args.summarize:
        with open(args.summarize) as f:
            records = [json.loads(line) for line in f]
        sys.exit(0 if summarize(records, bounds) else 1)

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    records = []
    out = open(args.out, "a") if args.out else None
    for s in range(args.sets):
        plan = [(seed, w, False) for seed in parse_seeds(args.seeds) for w in workloads]
        if args.trace:
            plan.append((parse_seeds(args.seeds)[0], workloads[0], True))
        for seed, workload, trace in plan:
            record = run_once(workload, seed, seconds, trace)
            record["set"] = s
            records.append(record)
            print(f"set {s} {workload} seed {seed} trace {int(trace)}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in list(record["metrics"].items())[:8]),
                  file=sys.stderr, flush=True)
            if out:
                out.write(json.dumps(record) + "\n")
                out.flush()
    sys.exit(0 if summarize(records, bounds) else 1)


if __name__ == "__main__":
    main()
