"""Self-test of the benchmark: every workload, a few jobs, two seeds.

    python3 perfbench/selftest.py

Runs ``run.py --tiny`` untraced on two seeds and traced on the first, and
checks that the result line carries every metric BENCHMARK.json declares,
with its unit, that no job failed and that the verdicts were correct.
Takes about a minute and a half on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (0, 1)


def run(workload, seed, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, declared, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    got = result["metrics"]
    for m in declared:
        if m["name"] not in got:
            problems.append(f"missing metric {m['name']}")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return [f"{label}: {p}" for p in problems]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            problems += check(run(w, seed, 0), bench["end_to_end"], f"{w} seed {seed}")
        problems += check(run(w, SEEDS[0], 1), bench["per_layer"], f"{w} traced")
        print(f"{w}: checked", flush=True)
    for p in problems:
        print(p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
