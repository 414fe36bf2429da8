"""End-to-end benchmark of the `remedy` CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds `remedy` and the native
code (perfbench/native) into $CARGO_TARGET_DIR (default .bench_build),
generates the workload's inputs from --seed with `remedy generate`,
measures, checks every output, and prints one JSON object as the last line
of stdout. See perfbench/README.md for the workloads and metrics.

With --trace 1 the run reports every per-layer metric, so it is one traced
sweep over all the workloads whichever --workload is named.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipeline_1m", "serve_mixed")
ADULT_ROWS = 1_000_000
WIDE_ROWS, WIDE_ARITY = 200_000, 12
SETUP_REPEATS = 3
# the traced run's serve windows: long enough that a p99 over the mixed
# window has ten samples beyond it
TRACED_MIXED_S, TRACED_SOLO_S = 24, 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


class Host:
    """Steal time and load average over one run (not gated)."""

    def __init__(self):
        self.start = self._cpu()
        self.loadavg = float(open("/proc/loadavg").read().split()[0])

    @staticmethod
    def _cpu():
        fields = open("/proc/stat").readline().split()[1:]
        values = [int(v) for v in fields]
        return sum(values[:8]), values[7]

    def steal_pct(self):
        total, steal = self._cpu()
        elapsed = total - self.start[0]
        return 100.0 * (steal - self.start[1]) / elapsed if elapsed else 0.0


class Bench:
    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.remedy = os.path.join(self.target, "release", "remedy")
        self.native_bin = os.path.join(self.target, "release", "perfbench-native")
        self.work = os.path.abspath(
            os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}"))
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.daemons = []

    # --- processes -------------------------------------------------------

    def build(self):
        if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "cli"))):
            fail("run from the root of a remedy source checkout")
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        manifest = os.path.relpath(os.path.join(HERE, "native", "Cargo.toml"))
        for argv in (["cargo", "build", "--release", "--offline", "-p", "remedy-cli"],
                     ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]):
            if subprocess.run(argv, stdout=sys.stderr, env=env).returncode != 0:
                fail(f"build failed: {' '.join(argv)}")

    def run(self, argv, name):
        """Runs a process to completion; returns (seconds, exit code,
        stdout bytes). Tracks the peak RSS of every `remedy` process."""
        out_path = os.path.join(self.work, f"{name}.out")
        with open(out_path, "wb") as out, open(os.path.join(self.work, f"{name}.err"), "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if argv[0] == self.remedy:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, "rb") as f:
            return elapsed, proc.returncode, f.read()

    def native(self, *args):
        _, code, out = self.run([self.native_bin, *map(str, args)], "native")
        if code != 0:
            err = open(os.path.join(self.work, "native.err")).read()
            fail(f"perfbench-native {args[0]} failed: {err.strip()}")
        return json.loads(out)

    def check(self, ok, what):
        """Counts one attempted operation; a failed check fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    # --- inputs ----------------------------------------------------------

    def generate(self, name):
        path = os.path.join(self.work, f"{name}.bin")
        argv = [self.remedy, "generate", name, "--seed", str(self.seed),
                "--format", "binary", "--out", path]
        if name == "adult":
            argv += ["--rows", str(ADULT_ROWS)]
        else:
            argv += ["--rows", str(WIDE_ROWS), "--arity", str(WIDE_ARITY)]
        _, code, _ = self.run(argv, f"generate-{name}")
        if code != 0:
            fail(f"remedy generate {name} failed")
        return path

    def setup(self, once):
        """Runs the set-up SETUP_REPEATS times; returns the seconds and
        the result of each."""
        times, results = [], []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            results.append(once())
            times.append(time.perf_counter() - started)
        return times, results

    # --- serve -----------------------------------------------------------

    def start_daemon(self, trace=None):
        argv = [self.remedy, "serve", "--addr", "127.0.0.1:0"]
        if trace:
            argv += ["--trace", trace]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.daemons.append(proc)
        line = proc.stdout.readline().decode()
        if "listening on" not in line:
            fail("remedy serve did not start")
        return proc, line.split()[-1]

    @staticmethod
    def request(addr, line):
        host, port = addr.rsplit(":", 1)
        with socket.create_connection((host, int(port))) as sock:
            sock.sendall(line.encode() + b"\n")
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                reply += chunk
        return json.loads(reply)

    def stop_daemon(self, proc, addr):
        self.request(addr, '{"op":"shutdown"}')
        _, _, usage = os.wait4(proc.pid, 0)
        proc.returncode = 0
        proc.stdout.close()
        self.daemons.remove(proc)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)

    def serve_session(self, adult, trace=None):
        """Starts a daemon and loads the adult file into a session."""
        proc, addr = self.start_daemon(trace)
        reply = self.request(addr, json.dumps(
            {"op": "load", "session": "bench", "source": adult}))
        if not reply.get("ok") or reply.get("rows") != ADULT_ROWS:
            fail(f"serve load failed: {reply}")
        return adult, proc, addr

    def cleanup(self):
        for proc in self.daemons:
            proc.kill()
            proc.wait()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run's directory is still there


# --- pipeline_1m -------------------------------------------------------------

PLAN = """dataset {path}
format binary
seed {seed}
tau {tau}
branch base technique=none model=nb
branch ps technique=ps model=nb
"""

# stage status expected on each run kind: True = replayed from the cache
EXPECT = {
    "cold": lambda stage, branch: False,
    "rerun": lambda stage, branch: stage in ("load", "discretize") or branch == "base",
    "replay": lambda stage, branch: True,
}


def write_plans(bench, adult):
    plans = {}
    for name, tau in (("cold", 0.1), ("rerun", 0.2)):
        path = os.path.join(bench.work, f"{name}.plan")
        with open(path, "w") as f:
            f.write(PLAN.format(path=adult, seed=bench.seed, tau=tau))
        plans[name] = path
    plans["replay"] = plans["rerun"]
    return plans


def pipeline_run(bench, plan, cache, kind, trace=None):
    """One `remedy pipeline` run; returns (ms, manifest or None)."""
    manifest = os.path.join(bench.work, f"{kind}.json")
    argv = [bench.remedy, "pipeline", plan, "--threads", "1", "--cache", cache, "--out", manifest]
    if trace:
        argv += ["--trace", trace]
    elapsed, code, _ = bench.run(argv, f"pipeline-{kind}")
    if code != 0:
        return elapsed * 1e3, None
    with open(manifest) as f:
        return elapsed * 1e3, json.load(f)


def check_manifest(bench, kind, manifest, reference):
    """Status, cache behaviour and (against the first run of the same
    kind) identical branch metrics."""
    ok = manifest is not None and manifest["status"] == "ok"
    if ok:
        for record in manifest["stages"]:
            if not record["skipped"] and record["cache_hit"] != EXPECT[kind](record["stage"], record["branch"]):
                ok = False
        branches = manifest["branches"]
        if reference.setdefault(kind, branches) != branches:
            ok = False
    bench.check(ok, f"pipeline {kind}")
    return manifest


def pipeline_1m(bench):
    setup, generated = bench.setup(lambda: bench.generate("adult"))
    plans = write_plans(bench, generated[-1])
    times = {"cold": [], "rerun": [], "replay": []}
    reference = {}
    started = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - started < bench.args.seconds:
        cache = os.path.join(bench.work, f"cache{rounds}")
        for kind in ("cold", "rerun", "replay"):
            ms, manifest = pipeline_run(bench, plans[kind], cache, kind)
            check_manifest(bench, kind, manifest, reference)
            times[kind].append(ms)
        shutil.rmtree(cache)
        rounds += 1
    window = time.perf_counter() - started
    # the replay re-emits the rerun's metrics
    bench.check(reference.get("replay") == reference.get("rerun"), "replay metrics")
    return setup, {
        "op_a_ms": statistics.median(times["cold"]),
        "op_b_ms": statistics.median(times["rerun"]),
        "op_c_ms": statistics.median(times["replay"]),
        "ops_per_s": 3 * rounds / window,
    }, {"rounds": rounds}


# --- identify (traced run only) ----------------------------------------------

def identify(bench, path, pruned, name, trace=None):
    argv = [bench.remedy, "identify", path, "--threads", "1"]
    if pruned:
        argv.append("--pruned")
    if trace:
        argv += ["--trace", trace]
    elapsed, code, out = bench.run(argv, name)
    return elapsed * 1e3, out if code == 0 else None


def region_count(output):
    try:
        return int(output.split(b" ", 1)[0])
    except (AttributeError, ValueError):
        return None


# --- serve_mixed -------------------------------------------------------------

def serve_traffic(bench, adult, addr, seconds, solo_seconds=0):
    """Drives the mixed window (and optionally a solo-ingest window);
    checks every reply and the final identify text."""
    result = bench.native(
        "serve-mixed", "--addr", addr, "--session", "bench", "--data", adult,
        "--seed", bench.seed, "--seconds", seconds, "--solo-seconds", solo_seconds)
    identify_ms = result["identify_ms"]
    ingest_ms, late_ms = stats.open_loop(
        result["ingest_due_us"], result["ingest_sent_us"], result["ingest_done_us"])
    solo_ms, _ = stats.open_loop(
        result["solo_due_us"], result["solo_sent_us"], result["solo_done_us"])
    bench.attempted += len(identify_ms) + len(ingest_ms) + len(solo_ms)
    bench.failed += result["identify_failed"] + result["ingest_failed"] + result["solo_failed"]
    bench.check(result["final_ok"] and result["final_identical"],
                "final identify differs from a cold identify after replaying the edits")
    return result, identify_ms, ingest_ms, late_ms, solo_ms


def serve_mixed(bench):
    # each set-up leaves its daemon running, and the measured window is
    # split over all of them: a daemon's speed varies from one process to
    # the next far more than within one, so pooling averages that out
    setup, sessions = bench.setup(lambda: bench.serve_session(bench.generate("adult")))
    identify_ms, ingest_ms, late_ms, identify_s = [], [], [], 0.0
    for adult, proc, addr in sessions:
        result, *samples, _ = serve_traffic(bench, adult, addr, bench.args.seconds / len(sessions))
        bench.stop_daemon(proc, addr)
        for pooled, part in zip((identify_ms, ingest_ms, late_ms), samples):
            pooled += part
        identify_s += result["identify_window_s"]
    return setup, {
        "op_a_ms": stats.percentile(identify_ms, 0.5),
        "op_b_ms": stats.percentile(ingest_ms, 0.5),
        "op_c_ms": stats.tail(identify_ms, 0.9),
        "ops_per_s": len(identify_ms) / identify_s,
    }, {
        "identify_samples": len(identify_ms),
        "ingest_samples": len(ingest_ms),
        "ingest_p90_ms": stats.tail(ingest_ms, 0.9),
        "identify_p99_ms": stats.tail(identify_ms, 0.99),
        "ingest_p99_ms": stats.tail(ingest_ms, 0.99),
        "generator_late_ms": statistics.mean(late_ms),
    }


# --- traced run --------------------------------------------------------------

def trace_counters(path, scope):
    """Summed counters of one scope in a --trace JSONL file."""
    totals = {}
    with open(path) as f:
        for line in f:
            event = json.loads(line)
            if event.get("t") == "counters" and event.get("scope") == scope:
                for name, value in event["counters"].items():
                    totals[name] = totals.get(name, 0) + value
    return totals


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def traced(bench):
    """Both workloads and one-shot identify once with the program's
    --trace on, plus the timed library calls of `perfbench-native layers`."""
    m = {}
    adult, wide = bench.generate("adult"), bench.generate("wide")

    def t(name):
        return os.path.join(bench.work, f"{name}.jsonl")

    # pipeline: stage spans from run.json, cache counters from the trace
    plans = write_plans(bench, adult)
    cache = os.path.join(bench.work, "traced-cache")
    reference = {}
    cold_ms, cold = pipeline_run(bench, plans["cold"], cache, "cold", t("cold"))
    check_manifest(bench, "cold", cold, reference)
    m["cache.bytes_written"] = dir_bytes(cache)
    rerun_ms, rerun = pipeline_run(bench, plans["rerun"], cache, "rerun", t("rerun"))
    check_manifest(bench, "rerun", rerun, reference)
    shutil.rmtree(cache)
    if cold is None or rerun is None:
        fail("traced pipeline run failed")
    sums, glue, share = stats.stage_times(cold)
    for stage, ms in sums.items():
        m[f"pipeline.{stage}_ms"] = ms
    m["pipeline.glue_ms"] = glue
    m["pipeline.glue_share"] = share
    m["pipeline.total_ms"] = cold["total_ms"]
    m["pipeline.rerun_glue_ms"] = stats.stage_times(rerun)[1]
    counters = trace_counters(t("rerun"), "cache")
    m["cache.hits"] = counters.get("hits", 0)
    m["cache.misses"] = counters.get("misses", 0)
    m["traced.pipeline_cold_ms"] = cold_ms
    m["traced.pipeline_rerun_ms"] = rerun_ms

    # identify from process start: wide pruned, adult dense and adult
    # pruned; counters from the adult trace
    ms, wide_out = identify(bench, wide, True, "wide", t("wide"))
    m["traced.identify_wide_ms"] = ms
    ms, dense = identify(bench, adult, False, "adult", t("adult"))
    m["traced.identify_adult_ms"] = ms
    ms, pruned = identify(bench, adult, True, "adult-pruned", t("adult-pruned"))
    m["traced.identify_adult_pruned_ms"] = ms
    # Naive ≡ Optimized ≡ pruned: the two engines print the same bytes,
    # and every count equals the library's
    bench.check(dense is not None and dense == pruned, "adult dense != pruned output")
    ref = bench.native("reference", "--adult", adult, "--wide", wide)
    for out, key in ((wide_out, "wide_pruned"), (dense, "adult_dense"), (pruned, "adult_pruned")):
        bench.check(region_count(out) == ref[key], f"{key} region count != library {ref[key]}")
    counters = trace_counters(t("adult"), "identify")
    for name in ("neighbor_lookups", "regions_scanned", "regions_flagged"):
        m[f"identify.{name}"] = counters.get(name, 0)

    # serve: mixed window, then ingest alone
    _, proc, addr = bench.serve_session(adult, t("serve"))
    result, identify_ms, ingest_ms, late_ms, solo_ms = serve_traffic(
        bench, adult, addr, TRACED_MIXED_S, TRACED_SOLO_S)
    bench.stop_daemon(proc, addr)
    m["traced.serve_identify_p50_ms"] = stats.percentile(identify_ms, 0.5)
    m["traced.serve_ingest_p50_ms"] = stats.percentile(ingest_ms, 0.5)
    m["serve.identify_p90_ms"] = stats.tail(identify_ms, 0.9)
    m["serve.ingest_p90_ms"] = stats.tail(ingest_ms, 0.9)
    m["serve.identify_per_s"] = len(identify_ms) / result["identify_window_s"]
    for op in ("identify", "ingest"):
        count = result[f"server_{op}_count"]
        # stats histograms use power-of-two buckets: p50 is a bucket bound,
        # the mean (sum / count) is exact
        m[f"serve.server_{op}_p50_ms"] = result[f"server_{op}_p50_us"] / 1e3
        m[f"serve.server_{op}_mean_ms"] = result[f"server_{op}_sum_us"] / count / 1e3
    m["serve.wire_identify_ms"] = statistics.mean(identify_ms) - m["serve.server_identify_mean_ms"]
    m["serve.response_bytes"] = result["response_bytes"]
    m["serve.ingest_solo_p50_ms"] = stats.percentile(solo_ms, 0.5)
    # time an ingest spends inside the server waiting behind identify: the
    # server-side mean with identify traffic minus the mean without it
    solo_count = result["server_after_solo_ingest_count"] - result["server_ingest_count"]
    solo_sum = result["server_after_solo_ingest_sum_us"] - result["server_ingest_sum_us"]
    m["serve.server_ingest_solo_mean_ms"] = solo_sum / solo_count / 1e3
    m["serve.lock_wait_ms"] = m["serve.server_ingest_mean_ms"] - m["serve.server_ingest_solo_mean_ms"]
    m["serve.generator_late_ms"] = statistics.mean(late_ms)
    for name, values in (("identify", identify_ms), ("ingest", ingest_ms)):
        m[f"serve.{name}_p99_ms"] = stats.tail(values, 0.99)
        m[f"serve.{name}_p99_samples"] = len(values)

    # library layers, timed from outside the program
    layers = bench.native("layers", "--adult", adult, "--wide", wide, "--work", bench.work,
                          "--seed", bench.seed)
    for name, value in layers.items():
        m[name] = statistics.median(value) if isinstance(value, list) else value
    return {k: v for k, v in m.items() if v is not None}


# --- output ------------------------------------------------------------------

def declared_units(trace):
    """Name -> unit of every metric BENCHMARK.json declares for this kind
    of run: end-to-end untraced, per-layer traced."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS,
                        help="the workload measured; a traced run covers them all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = Bench(args)
    bench.build()
    units = declared_units(args.trace)
    os.makedirs(bench.work, exist_ok=True)
    host = Host()
    try:
        if args.trace:
            metrics = traced(bench)
            metrics["host.steal_pct"] = host.steal_pct()
            metrics["host.loadavg"] = host.loadavg
        else:
            workload = {"pipeline_1m": pipeline_1m, "serve_mixed": serve_mixed}[args.workload]
            setup, metrics, diag = workload(bench)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = bench.peak_rss_kb / 1024
            diag.update(setup_s=setup, steal_pct=host.steal_pct(), loadavg=host.loadavg)
            print("diag " + json.dumps(diag))
    finally:
        bench.cleanup()
    missing = sorted(name for name in units if metrics.get(name) is None)
    if missing:
        fail(f"no value for {', '.join(missing)}")
    for problem in bench.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
