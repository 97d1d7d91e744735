"""Child process of the benchmark: one fresh interpreter per pass.

    worker.py setup <setup.json>              import syzlab, run one tiny call
    worker.py pass <pass.json> <result.json>  run a job list, write timings
    worker.py cli <spans.json> <argv...>      run the CLI under the tracer

Every job of a pass is bracketed by calibration points (see ``speed.py``).
Every pass starts in a fresh process because sympy's global cache makes a
repeated identical job several times faster; jobs within a pass are
distinct.  ``run.py`` starts these with PYTHONPATH pointing at the
checkout's ``src``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import warnings

import speed


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def run_job(job):
    """Run one job through the library; return [(check, passed, value)]."""
    from syzlab import duality, fibre_models, scenarios, semiflat
    from syzlab.charts import Chart
    from syzlab.fields import parse_scalar

    if "doc" in job:
        report = scenarios.run_scenario_doc(job["doc"])
        return [(c["name"], c["passed"], c.get("value")) for c in report.checks]
    call = job["call"]
    if call == "model_cohomology":
        res = fibre_models.model_cohomology(job["model"], job["grid"])
        ranks = res.ranks + [0] * (4 - len(res.ranks))
        expected = fibre_models.MODEL_TABLE[job["model"]][0]
        return [(f"model.{job['model']}", (ranks[1], ranks[2]) == tuple(expected), None)]
    p = job["payload"]
    n = p["n"]
    chart = Chart(n, tuple(tuple(iv) for iv in p["box"]))
    beta = [[parse_scalar(p["beta"][i][j], n) for j in range(n)] for i in range(n)]
    bs = semiflat.BetaStructure(chart, beta)
    rep = duality.mclean_metrics(bs)["report"] if call == "mclean" else semiflat.flatness_probe(bs)
    return [(f"{call}.{name}", c.passed, c.value) for name, c in rep.checks.items()]


def validate(job):
    """Schema-check a generated input before timing (a generator bug is fatal)."""
    from syzlab.scenarios import validate_scenario

    if "doc" in job:
        validate_scenario(job["doc"])
    elif "payload" in job:
        validate_scenario({"version": "1", "kind": "semiflat-check", "payload": job["payload"]})


def cmd_setup(spec):
    import syzlab  # noqa: F401  (the import is what is being timed)

    if spec["workload"] == "cli":
        import contextlib
        import io

        from syzlab import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(spec["warmup"])
    else:
        run_job(spec["warmup"])


def cmd_pass(spec, result_path):
    import syzlab  # noqa: F401

    run_job(spec["warmup"])
    for job in spec["jobs"]:
        validate(job)
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    points = [speed.point()]
    for i, job in enumerate(spec["jobs"]):
        if tracer:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            checks, error = run_job(job), None
        except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
            checks, error = [], f"{type(exc).__name__}: {exc}"
        results.append({"t": time.perf_counter() - t0, "checks": checks, "error": error})
        points.append(speed.point())
    # the calibration points between jobs are not part of the pass's wall time
    wall = sum(r["t"] for r in results)
    out = {"wall_s": wall, "jobs": results, "points": points,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.dump(spec["spans_path"])
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, wall,
                                              len(results), tracing.count_ops(tracer.compiled))
        out["missing"] = tracer.missing
    with open(result_path, "w") as fh:
        json.dump(out, fh)


def cmd_cli(spans_path, argv):
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from syzlab import cli

    code = cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts),
                   "ops": tracing.count_ops(tracer.compiled), "missing": tracer.missing}, fh)
    return code


def main(argv):
    mode = argv[0]
    if mode in ("setup", "pass"):
        # mclean_metrics and dualize warn on non-closed volume forms; the
        # warning text is not part of any verdict
        warnings.simplefilter("ignore")
    if mode == "setup":
        cmd_setup(_load(argv[1]))
        return 0
    if mode == "pass":
        cmd_pass(_load(argv[1]), argv[2])
        return 0
    if mode == "cli":
        return cmd_cli(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
