"""The verdict gate: the benchmark's seed-1 ``symbolic`` and ``exact`` job
lists, run in process through ``perfbench/worker.run_job`` and digested as
``perfbench/run.py`` digests a pass, keep the digests CHANGES records for
them.  A change that moves a verdict, or a residual in its sixth
significant digit, moves a digest; such a change updates the prefix here
and says why in CHANGES."""

import hashlib
import json
import warnings

import pytest

from conftest import perfbench_modules

# the leading hex digits of each verdict digest, as run.py prints them
DIGESTS = {"symbolic": "b85ae5a6", "exact": "1199ba6f"}


def verdict_digest(workload, seed=1):
    """sha256 of the sorted JSON of [index, digest_entries(checks)] over the
    workload's job list, as run.py hashes one pass."""
    run, worker, workloads = perfbench_modules("run", "worker", "workloads")
    entries = []
    with warnings.catch_warnings():
        # as in worker.py: the warnings on non-closed volume forms are not verdicts
        warnings.simplefilter("ignore")
        for i, job in enumerate(getattr(workloads, f"{workload}_jobs")(seed)):
            entries.append([i, run.digest_entries(worker.run_job(job))])
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_one_verdicts_keep_their_digest(workload):
    assert verdict_digest(workload).startswith(DIGESTS[workload])


def test_a_changed_residual_moves_the_digest(monkeypatch):
    from syzlab import semiflat

    raw = semiflat._RESIDUALS["volume_divergence"]
    monkeypatch.setitem(semiflat._RESIDUALS, "volume_divergence",
                        lambda chart, beta, V: [2 * c for c in raw(chart, beta, V)])
    assert not verdict_digest("symbolic").startswith(DIGESTS["symbolic"])
