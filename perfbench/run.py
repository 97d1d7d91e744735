"""syzlab benchmark: time to verdict on three seeded workloads.

    python3 perfbench/run.py --workload symbolic|exact|cli --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  The program is loaded from ``src/`` of
that checkout, never from an installed copy.  Workloads are closed loops
with one job at a time and at most two processes (this runner and one
child); SYZLAB_THREADS is removed from the children's environment.

A run makes passes over the seeded job list until ``--seconds`` are spent
(the number of passes is ``--seconds`` divided by the pass time, rounded),
each pass in a fresh child process, and reports medians over the passes.
Every timed job is bracketed by calibration points and its time is also
given at reference speed (``speed.py``); the end-to-end time metrics use
those, and the raw wall-clock figures are printed beside them.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# calibration loops per point between child processes, where the runner is
# otherwise idle and the children run for a second or more
OUTSIDE_SAMPLES = 20
OUTSIDE_REPEATS = 3
MAX_PASSES = 50


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing program, generator bug)."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("SYZLAB_THREADS", None)
    return env


def spawn(argv, stdout_path=None, stderr_path=None):
    """Run one child to completion; return (wall seconds, exit code, maxrss MB).

    The child is reaped with wait4 so its own peak RSS is known.
    """
    out = open(stdout_path or os.devnull, "w")
    err = open(stderr_path or os.devnull, "w")
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        out.close()
        err.close()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def worker(mode, *args):
    """Run a setup or pass child; its failure is a benchmark error."""
    err = os.path.join(OUT, "worker.stderr")
    wall, code, _ = spawn([sys.executable, os.path.join(HERE, "worker.py"), mode, *args],
                          None, err)
    if code != 0:
        with open(err) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker {mode} exited {code}:\n{tail}")
    return wall


def write_json(name, obj):
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def measure_setup(workload, seed):
    """Median time of fresh processes doing import syzlab + one tiny call:
    (raw wall seconds, seconds at reference speed)."""
    if workload == "symbolic":
        warmup = workloads.symbolic_warmup(seed)
    elif workload == "exact":
        warmup = workloads.exact_warmup(seed)
    else:
        warmup = workloads.cli_warmup_argv(seed)
    spec = write_json("setup.json", {"workload": workload, "warmup": warmup})
    times, points = [], [speed.point(OUTSIDE_SAMPLES)]
    for _ in range(SETUP_REPEATS):
        times.append(worker("setup", spec))
        points.append(speed.point(OUTSIDE_SAMPLES))
    # one speed for the whole set-up phase: that takes out the machine's drift
    # between runs without adding each child's own calibration noise
    at_ref = speed.at_reference(times, points, window=math.inf)
    return statistics.median(times), statistics.median(at_ref)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def misses(expect, checks):
    """Expected verdicts not reached: each prefix must match a check, and
    every matching check must pass ("*" matches every check)."""
    bad = []
    for prefix in expect:
        hit = [c for c in checks if prefix == "*" or c[0].startswith(prefix)]
        if not hit:
            bad.append(f"{prefix}: no such check")
        bad.extend(f"{c[0]}: failed" for c in hit if not c[1])
    return bad


def residual(value):
    """Residual rounded to 6 significant digits; below 1e-12 it is noise."""
    if value is None:
        return None
    return 0.0 if abs(value) < 1e-12 else float(f"{value:.6g}")


def digest_entries(checks):
    return sorted([name, bool(passed), residual(value)] for name, passed, value in checks)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_passes(seconds, trace, run_pass):
    """Passes until the time is spent; with trace, alternate untraced/traced.

    Another pass starts while elapsed + half a pass <= seconds, so the pass
    count is seconds / pass time, rounded, and at least one (two with trace).
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append((traced, run_pass(len(passes), traced)))
        took = time.perf_counter() - t0
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + took / 2 > seconds:
            break
    return passes


def inprocess_pass(workload, seed, jobs, warmup):
    def run_pass(k, traced):
        tag = f"{workload}-{seed}-{k}"
        spec = write_json(f"pass-{tag}.json", {
            "jobs": jobs, "warmup": warmup, "trace": traced,
            "spans_path": os.path.join(OUT, f"spans-{tag}.json")})
        result = os.path.join(OUT, f"result-{tag}.json")
        worker("pass", spec, result)
        with open(result) as fh:
            r = json.load(fh)
        r["times"] = [j["t"] for j in r["jobs"]]
        r["ref_times"] = speed.at_reference(r["times"], r["points"])
        r["peak_rss_mb"] = r["maxrss_kb"] / 1024.0
        r["outcomes"] = [(j["error"], j["checks"]) for j in r["jobs"]]
        return r
    return run_pass


def cli_pass(workload, seed, jobs):
    def run_pass(k, traced):
        times, rss, outcomes, spans, counts, ops = [], [], [], [], {}, 0
        points = [speed.point(OUTSIDE_SAMPLES)]
        for i, job in enumerate(jobs):
            tag = f"{workload}-{seed}-{k}-{i}"
            stdout = os.path.join(OUT, f"cli-{tag}.out")
            if traced:
                span_file = os.path.join(OUT, f"spans-{tag}.json")
                argv = [sys.executable, os.path.join(HERE, "worker.py"), "cli", span_file]
            else:
                argv = [sys.executable, "-m", "syzlab.cli"]
            wall, code, peak = spawn(argv + job["argv"], stdout,
                                     os.path.join(OUT, f"cli-{tag}.err"))
            points.append(speed.point(OUTSIDE_SAMPLES))
            times.append(wall)
            rss.append(peak)
            outcomes.append(cli_outcome(job, code, stdout))
            if traced:
                with open(span_file) as fh:
                    data = json.load(fh)
                offset = len(spans)
                spans.extend([n, s, e, p + offset if p >= 0 else -1, i]
                             for n, s, e, p, _ in data["spans"])
                for key, v in data["counts"].items():
                    counts[key] = counts.get(key, 0) + v
                ops += data["ops"]
                missing = data["missing"]
        r = {"wall_s": sum(times), "times": times, "ref_times": speed.at_reference(times, points),
             "peak_rss_mb": max(rss), "outcomes": outcomes}
        if traced:
            r["layers"] = tracing.layer_metrics(spans, counts, r["wall_s"], len(jobs), ops)
            r["missing"] = missing
        return r
    return run_pass


def cli_outcome(job, code, stdout):
    """(error, checks) for one CLI call: exit code, then the JSON report."""
    with open(stdout) as fh:
        text = fh.read()
    if code != job["exit"]:
        return f"exit code {code}, expected {job['exit']}", []
    if not job["expect"]:
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        return (None if text.strip() else "empty output"), [(f"stdout.{digest}", True, None)]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"unreadable report: {exc}", []
    return None, [(c["name"], c["passed"], c.get("value")) for c in report["checks"]]


# ---------------------------------------------------------------------------
# the cli layer from outside
# ---------------------------------------------------------------------------

def outside_split():
    """Interpreter start, import syzlab, and -X importtime for the big deps."""
    py = sys.executable
    interp = statistics.median(spawn([py, "-c", "pass"])[0] for _ in range(OUTSIDE_REPEATS))
    imp = statistics.median(spawn([py, "-c", "import syzlab"])[0]
                            for _ in range(OUTSIDE_REPEATS))
    per_dep = {"sympy": [], "numpy": [], "jsonschema": []}
    for _ in range(OUTSIDE_REPEATS):
        err = os.path.join(OUT, "importtime.err")
        # scenarios is what pulls in jsonschema; every scenario command loads it
        spawn([py, "-X", "importtime", "-c", "import syzlab, syzlab.scenarios"], None, err)
        found = {}
        with open(err) as fh:
            for line in fh:
                m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$", line)
                if m and m.group(2) in per_dep:
                    found[m.group(2)] = int(m.group(1)) / 1000.0
        for dep in per_dep:
            per_dep[dep].append(found.get(dep, 0.0))
    out = {"cli.interp_ms": interp * 1000, "cli.import_ms": imp * 1000}
    out.update({f"cli.import.{dep}_ms": statistics.median(v) for dep, v in per_dep.items()})
    return out


# ---------------------------------------------------------------------------

def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]


def summarise(workload, seed, jobs, passes, setup_s, trace):
    untraced = [r for traced, r in passes if not traced]
    traced = [r for t, r in passes if t]
    attempted = failed = 0
    digests = set()
    entries = []
    for _, r in passes:
        pass_entries = []
        for i, (job, (error, checks)) in enumerate(zip(jobs, r["outcomes"])):
            attempted += 1
            bad = [error] if error else misses(job["expect"], checks)
            if bad:
                failed += 1
                print(f"job {i} failed: {'; '.join(bad)}", file=sys.stderr)
            pass_entries.append([i, digest_entries(checks)])
        text = json.dumps(pass_entries, sort_keys=True)
        digests.add(hashlib.sha256(text.encode()).hexdigest())
        entries = pass_entries
    write_json(f"digest-{workload}-{seed}.json", entries)
    nchecks = sum(len(e[1]) for e in entries)
    # every pass runs the same jobs: a job's time is its median over the
    # untraced passes, and the percentiles are taken over jobs
    times = [statistics.median(r["times"][i] for r in untraced) for i in range(len(jobs))]
    ref_times = [statistics.median(r["ref_times"][i] for r in untraced) for i in range(len(jobs))]
    ref_walls = [sum(r["ref_times"]) for r in untraced]
    print(f"workload {workload}, seed {seed}: {len(jobs)} jobs per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print(f"verdict digest {sorted(digests)[0][:32]} over {nchecks} checks"
          + ("" if len(digests) == 1 else " (PASSES DISAGREE)"))
    print(f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} jobs)")
    if not trace:
        setup_raw, setup_ref = setup_s
        metrics = {
            "setup_s": (setup_ref, "s"),
            "wall_ref_s": (statistics.median(ref_walls), "s"),
            "job_p50_ref_ms": (statistics.median(ref_times) * 1000, "ms"),
            "job_p90_ref_ms": (percentile(ref_times, 90) * 1000, "ms"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
        beyond = sum(1 for t in ref_times if t > percentile(ref_times, 90))
        print(f"job times: {len(ref_times)} jobs, each the median of {len(untraced)} passes; "
              f"{beyond} beyond job_p90_ref_ms")
        # the same timings in raw wall-clock time, for reading only: on a shared
        # machine they move with its speed (see speed.py)
        print(f"raw wall clock: setup_s {setup_raw:.6g} s, "
              f"wall_s {statistics.median(r['wall_s'] for r in untraced):.6g} s, "
              f"job_p50_ms {statistics.median(times) * 1000:.6g} ms, "
              f"job_p90_ms {percentile(times, 90) * 1000:.6g} ms")
    else:
        missing = sorted({m for r in traced for m in r["missing"]})
        if missing:
            # a renamed or removed function: its layer metrics read 0 from here on
            print(f"tracer targets not found: {', '.join(missing)}", file=sys.stderr)
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        outside = outside_split()
        layers.update(outside)
        wall_t = statistics.median(r["wall_s"] for r in traced)
        covered = layers.pop("trace.span_self_s")
        if workload == "cli":
            # the import of every command is the cli layer, measured from outside
            covered += len(jobs) * outside["cli.import_ms"] / 1000
            layers["cli.command_ms"] = statistics.median(times) * 1000 - outside["cli.import_ms"]
        else:
            layers["cli.command_ms"] = 0.0
        layers["trace.coverage"] = covered / wall_t
        # at reference speed, so that a change in the machine's speed between
        # the traced and untraced passes does not read as tracing cost
        layers["trace.overhead"] = (statistics.median(sum(r["ref_times"]) for r in traced)
                                    / statistics.median(ref_walls) - 1)
        metrics = {k: (layers[k], tracing.unit(k)) for k in tracing.PER_LAYER}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    return {"correct": failed == 0 and len(digests) == 1, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("symbolic", "exact", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few jobs per pass, for the self-test")
    args = ap.parse_args(argv)

    for need in ("src/syzlab/__init__.py", "demos/scenarios"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing; run from the root of a syzlab checkout")
    shutil.rmtree(OUT, ignore_errors=True)   # outputs of the previous run
    os.makedirs(OUT)

    w, seed = args.workload, args.seed
    if w == "cli":
        k3_path = os.path.relpath(write_json(f"k3-payload-{seed}.json",
                                             workloads.cli_k3_payload(seed)), ROOT)
        jobs = workloads.cli_jobs(seed, k3_path, args.tiny)
        run_pass = cli_pass(w, seed, jobs)
    else:
        make = workloads.symbolic_jobs if w == "symbolic" else workloads.exact_jobs
        warm = workloads.symbolic_warmup if w == "symbolic" else workloads.exact_warmup
        jobs = make(seed, args.tiny)
        run_pass = inprocess_pass(w, seed, jobs, warm(seed))
    setup_s = None if args.trace else measure_setup(w, seed)
    passes = run_passes(args.seconds, args.trace, run_pass)
    result = summarise(w, seed, jobs, passes, setup_s, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
