"""Import layering: the exact CLI commands load neither sympy nor numpy (a K3
alignment that needs a surd runs with sympy unimportable), the
semi-flat, dualize, Yukawa and Hitchin demos (a twisted one and an irrational
determinant included) and mclean_metrics load numpy but not sympy, every benchmark job runs with sympy unimportable, no command
loads jsonschema (a test-only reference), and the lazy package namespace
resolves every public name as before."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import syzlab

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "demos" / "scenarios"
PERFBENCH = ROOT / "perfbench"
SRC = Path(syzlab.__file__).resolve().parent.parent

# runs one cli command in a fresh interpreter; prints its exit code and which
# of the named modules it loaded (a module blocked as None is not loaded)
PROBE_OF = """
import contextlib, io, json, sys
from syzlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in {modules!r} if sys.modules.get(m))]))
"""

# the heavy dependencies
PROBE = PROBE_OF.format(modules=("sympy", "numpy", "jsonschema"))

# the integer layer
INTEGER_PROBE = PROBE_OF.format(modules=("syzlab.fibre_models", "syzlab.complexes",
                                         "syzlab.intlinalg"))

# the same with sympy unimportable
BLOCKED_PROBE = 'import sys\nsys.modules["sympy"] = None\n' + PROBE

# McLean's metrics on a fibre-constant and a fibre-dependent structure
MCLEAN_PROBE = """
import json, sys, warnings
from syzlab.charts import Chart
from syzlab.duality import mclean_metrics
from syzlab.fields import parse_scalar
from syzlab.semiflat import BetaStructure
warnings.simplefilter("ignore")
chart = Chart(2, ((-1, 1), (-1, 1)))
provenance = []
for im in ("2 + y1^2/4", "3 + sin(4*pi*x1)/2"):
    beta = [[parse_scalar({"im": im}, 2), 0], [0, parse_scalar({"im": 3}, 2)]]
    provenance.append(mclean_metrics(BetaStructure(chart, beta))["h"].provenance)
print(json.dumps([provenance, sorted(m for m in ("sympy", "numpy") if m in sys.modules)]))
"""

# every job of the seed-1 symbolic and exact benchmark lists, sympy blocked;
# reads the benchmark's modules without writing bytecode next to them
BENCH_PROBE = """
import json, sys, warnings
sys.modules["sympy"] = None
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import worker, workloads
warnings.simplefilter("ignore")
errors = {}
for name, jobs in (("symbolic", workloads.symbolic_jobs(1)), ("exact", workloads.exact_jobs(1))):
    for i, job in enumerate(jobs):
        try:
            worker.run_job(job)
        except Exception as exc:
            errors[f"{name}[{i}]"] = f"{type(exc).__name__}: {exc}"
print(json.dumps(errors))
"""

# every name the package namespace re-exported when it imported its modules eagerly
PUBLIC = {
    "charts": ["Chart"],
    "algebra": ["BigradedElement", "FormElement", "bracket", "d_x", "d_x_prime", "d_y",
                "exp_nilpotent", "from_form", "phi2", "phi3", "to_form"],
    "semiflat": ["BetaStructure", "SemiflatReport", "action_coordinates", "build_omega",
                 "closedness_residuals", "flatness_probe", "integrability_residual",
                 "pointwise_checks", "reglue_check", "structure_equations",
                 "translate_by_section"],
    "duality": ["CycleSpec", "HitchinPotential", "SymTensorField", "YukawaFamily",
                "dual_structure_check", "duality_identities", "hitchin", "mclean_metrics",
                "period_one_form", "symmetric_class", "wedge_with_minus_omega", "yukawa"],
    "complexes": ["CellularMap", "ChainComplex", "circle_complex", "product_complex",
                  "quotient_complex", "torus_complex"],
    "fibre_models": ["CohomologyResult", "build_model", "fibre_type_report",
                     "integral_cohomology", "model_cohomology"],
    "sheaf": ["E2Table", "LocalSystemOnSphere", "duality_checks", "e2_assemble",
              "euler_characteristic", "pushforward_cohomology"],
    "k3": ["GramLattice", "K3MirrorInput", "MirrorClasses", "double_mirror_check",
           "hyperkahler_rotate", "k3_lattice", "mirror_classes", "sublattice_quotient",
           "validate_and_align"],
}


def _probe(*argv, code=PROBE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def k3_payload(tmp_path_factory):
    path = tmp_path_factory.mktemp("k3") / "payload.json"
    path.write_text(json.dumps(json.loads((SCENARIOS / "k3_toy.json").read_text())["payload"]))
    return path


@pytest.mark.parametrize("argv", [
    ["run", SCENARIOS / "fibre_all.json"],
    ["run", SCENARIOS / "k3_toy.json"],
    ["sheaf", "--monodromy", SCENARIOS / "sheaf_24I1.json"],
    ["fibre", "--model", "M21", "--cells", "2"],
    ["k3", "--input", None],
], ids=["run-fibre", "run-k3", "sheaf", "fibre", "k3"])
def test_exact_commands_load_neither_sympy_nor_numpy(argv, k3_payload):
    argv = [k3_payload if a is None else a for a in argv]
    assert _probe(*argv, "--format", "json") == [0, []]


@pytest.mark.parametrize("demo, code", [("flat_torus", 0), ("yukawa_n2", 0),
                                        ("hitchin_cubic", 1), ("dualize_n2", 0),
                                        ("hitchin_twist", 0)])
def test_scenario_verdicts_load_numpy_but_not_sympy(demo, code):
    assert _probe("run", SCENARIOS / f"{demo}.json") == [code, ["numpy"]]


def test_k3_surd_runs_without_sympy():
    """The phase alignment's sqrt(2) is k3's own root type, not sympy's."""
    assert _probe("run", SCENARIOS / "k3_surd.json", code=BLOCKED_PROBE) == [0, []]


def test_irrational_determinant_loads_numpy_but_not_sympy(tmp_path):
    """exp(y1) has the Hessian determinant exp(1/2) at the box centre, whose
    text is printed from its node."""
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"version": "1", "kind": "hitchin", "payload": {
        "n": 1, "box": [[0, 1]], "potential": "exp(y1)"}}))
    assert _probe("run", path) == [1, ["numpy"]]


def test_mclean_metrics_load_numpy_but_not_sympy():
    assert _probe(code=MCLEAN_PROBE) == [["closed-form", "quadrature"], ["numpy"]]


def test_benchmark_jobs_run_without_sympy():
    assert _probe(PERFBENCH, code=BENCH_PROBE) == {}


@pytest.mark.parametrize("argv", [["list-models"], ["conventions"],
                                  ["list-models", "--type", "1,1"]])
def test_catalogue_commands_load_no_dependency(argv):
    assert _probe(*argv) == [0, []]
    assert _probe(*argv, code=INTEGER_PROBE) == [0, []]


@pytest.mark.parametrize("argv", [["run", SCENARIOS / "k3_toy.json"], ["k3", "--input", None]],
                         ids=["run-k3", "k3"])
def test_k3_commands_load_no_integer_layer(argv, k3_payload):
    """The mirror map needs intlinalg only for sublattice_quotient and
    is_unimodular, which no K3 command calls."""
    argv = [k3_payload if a is None else a for a in argv]
    assert _probe(*argv, "--format", "json", code=INTEGER_PROBE) == [0, []]


@pytest.mark.parametrize("payload", [
    {"rank": 1, "monodromy": [[[2]]]},
    {"lattice": "U2", "E": [1, 0, 0, 0], "sigma0": [-1, 1, 0, 0], "omega": [0, 0, "pi", 1]},
], ids=["sheaf", "k3"])
def test_invalid_exact_payload_exits_2_without_sympy(payload, tmp_path):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    command = "sheaf --monodromy" if "rank" in payload else "k3 --input"
    assert _probe(*command.split(), path) == [2, []]


def test_every_public_name_resolves_to_its_module():
    namespace = {}
    exec("from syzlab import *", namespace)
    listing = dir(syzlab)
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"syzlab.{module}")
        assert getattr(syzlab, module) is mod
        for name in names:
            assert getattr(syzlab, name) is getattr(mod, name)
            assert namespace[name] is getattr(mod, name)
            assert name in listing
    assert set(syzlab.__all__) == {name for names in PUBLIC.values() for name in names}


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        syzlab.nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from syzlab import nope", {})


def _sympy_callers():
    from syzlab.charts import Chart
    from syzlab.duality import SymTensorField, symmetric_class
    from syzlab.fields import from_sympy, parse_scalar, to_sympy
    from syzlab.algebra import FormElement
    from syzlab.semiflat import action_coordinates, base_potential

    chart = Chart(2, ((-1, 1), (-1, 1)))
    y1 = parse_scalar("y1", 2)
    return {
        "to_sympy": lambda: to_sympy(y1),
        "from_sympy": lambda: from_sympy("2"),
        "base_potential": lambda: base_potential(FormElement(chart, {((1,), ()): y1})),
        "action_coordinates": lambda: action_coordinates([[1, 0], [y1, 1]], chart),
        "symmetric_class": lambda: symmetric_class(SymTensorField(chart, [[1, y1], [0, 1]])),
    }


@pytest.mark.parametrize("name", ["to_sympy", "from_sympy", "base_potential",
                                  "action_coordinates", "symmetric_class"])
def test_functions_that_need_sympy_name_the_extra(name, monkeypatch):
    call = _sympy_callers()[name]
    monkeypatch.setitem(sys.modules, "sympy", None)
    with pytest.raises(ImportError, match=r"pip install syzlab\[symbolic\]"):
        call()
