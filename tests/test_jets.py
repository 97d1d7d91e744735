"""Sampled residuals from first-order jets against the symbolic builders.

Every residual in a structure's table of samples is computed by running the
graded-algebra builders on jets of beta and V.  Here each one is compared
with the exact symbolic residual, expanded by sympy and sampled on the same
grid by sympy's own lambdify (``conftest.lambdify_sup_norms``), in |z|,
|Re z| and |Im z|.
"""

import random

import numpy as np
import pytest
import sympy as sp

from syzlab.algebra import DegreeError, Jet
from syzlab.charts import Chart
from syzlab.fields import parse_scalar
from syzlab.semiflat import (
    BetaStructure,
    _connection_curvature,
    _d_omega,
    _sampled,
    _volume_divergence_residual,
    omega_form,
)

from conftest import grid_rows, lambdify_sup_norms, lambdify_values, sympy_beta, sympy_volume

NAMES = ("symmetry", "full_closedness", "volume_divergence", "integrability",
         "connection_flatness", "metric_fibre_gradient", "volume_fibre_gradient")


def symbolic_residuals(bs):
    """The exact coefficients of each residual, from the builders run on
    sympy entries."""
    chart, beta, V = bs.chart, sympy_beta(bs), sympy_volume(bs)
    n, xs = bs.n, chart.xs
    return {
        "symmetry": [sp.expand(beta[i][j] - beta[j][i])
                     for i in range(n) for j in range(i + 1, n)],
        "full_closedness": _d_omega(chart, beta, V).terms.values(),
        "volume_divergence": _volume_divergence_residual(chart, beta, V).terms.values(),
        "integrability": _connection_curvature(chart, beta).terms.values(),
        "connection_flatness":
            _connection_curvature(chart, sympy_beta(bs, "re")).terms.values(),
        "metric_fibre_gradient": [sp.diff(g, x) for row in sympy_beta(bs, "im")
                                  for g in row for x in xs],
        "volume_fibre_gradient": [sp.diff(V, x) for x in xs],
    }


def close(jet, exact):
    """1e-10 relative, or 1e-12 absolute where both are below 1e-10."""
    if max(abs(jet), abs(exact)) < 1e-10:
        return abs(jet - exact) <= 1e-12
    return abs(jet - exact) <= 1e-10 * max(abs(jet), abs(exact))


def assert_matches_symbolic(bs, label):
    table = dict(zip(NAMES, _sampled(bs, NAMES)))
    exact = dict(zip(NAMES, lambdify_sup_norms(symbolic_residuals(bs).values(), bs.chart)))
    for name in NAMES:
        peak = table[name]
        for part, got, want in zip(("abs", "re", "im"), (float(peak), peak.re, peak.im),
                                   exact[name]):
            assert close(got, want), (label, name, part, got, want)


# ---------------------------------------------------------------------------
# seeded structures from the scenario grammar
# ---------------------------------------------------------------------------

def q(num, den):
    return f"({num}/{den})"


def seeded_beta(rng, n, variant):
    """Symmetric beta on [-1, 1]^n with a diagonally dominant Im part: constant,
    with a y-dependent Im and Re entry ("base"), or with a trig term in one
    diagonal Im entry ("fibre")."""
    re = [[None] * n for _ in range(n)]
    im = [[None] * n for _ in range(n)]
    for i in range(n):
        im[i][i] = q(rng.choice((4, 5, 6, 7, 8)), 2)
        re[i][i] = q(rng.randint(-3, 3), rng.randint(1, 4))
        for j in range(i + 1, n):
            im[i][j] = im[j][i] = q(rng.randint(-1, 1), rng.choice((4, 5, 8)))
            re[i][j] = re[j][i] = q(rng.randint(-2, 2), rng.randint(2, 5))
    if variant == "base":
        i = rng.randrange(n)
        im[i][i] += f"+y{rng.randrange(n) + 1}^2/{rng.randint(4, 8)}"
        if n > 1:
            i, j = rng.sample(range(n), 2)
            re[i][j] = re[j][i] = f"y{rng.randrange(n) + 1}/{rng.randint(3, 6)}"
    if variant == "fibre":
        i = rng.randrange(n)
        trig = rng.choice(("sin", "cos"))
        im[i][i] += f"+{trig}(2*pi*{rng.randint(1, 3)}*x{rng.randrange(n) + 1})/{rng.randint(2, 4)}"
    return [[parse_scalar({"re": re[i][j], "im": im[i][j]}, n) for j in range(n)]
            for i in range(n)]


def chart_of(n):
    return Chart(n, ((-1, 1),) * n)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", ["const", "base", "fibre"])
def test_seeded_structures_match_symbolic(n, variant):
    rng = random.Random(f"jets:{n}:{variant}")
    for k in range(2 if n < 3 else 1):
        assert_matches_symbolic(BetaStructure(chart_of(n), seeded_beta(rng, n, variant)),
                                (n, variant, k))


def roadmap_beta3():
    """beta_3 = [[i(2+sin(2 pi x1)/2), y3/3, 0], [y3/3, i(1+y1^2/4), 0],
    [0, 0, i(3+cos(2 pi x2))]] on [-1, 1]^3."""
    s = lambda text: parse_scalar(text, 3)  # noqa: E731
    off = s("y3/3")
    return BetaStructure(chart_of(3), [[sp.I * s("2+sin(2*pi*x1)/2"), off, 0],
                                       [off, sp.I * s("1+y1^2/4"), 0],
                                       [0, 0, sp.I * s("3+cos(2*pi*x2)")]])


def test_roadmap_beta3_matches_symbolic():
    assert_matches_symbolic(roadmap_beta3(), "beta3")


def test_exp_in_y_matches_symbolic():
    chart = chart_of(2)
    s = lambda text: parse_scalar(text, 2)  # noqa: E731
    off = s("y2/5") + sp.I / 8
    bs = BetaStructure(chart, [[sp.I * s("2+exp(y1)/4"), off],
                               [off, s("exp(-y2)/3") + sp.I * s("3+sin(2*pi*x2)/3")]])
    assert_matches_symbolic(bs, "exp")


def test_incompatible_beta_matches_symbolic():
    """An asymmetric beta: compatibility fails, but every residual of its
    table still agrees with its symbolic value."""
    chart = chart_of(2)
    y1, y2 = chart.ys
    x1 = chart.xs[0]
    bs = BetaStructure(chart, [[sp.I * (2 + y1 ** 2 / 4), y2 / 3],
                               [0, sp.I * (3 + sp.cos(2 * sp.pi * x1) / 2)]])
    assert_matches_symbolic(bs, "asymmetric")
    assert _sampled(bs, ["symmetry"])[0] == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# verdicts and worst points through the scenario runner
# ---------------------------------------------------------------------------

def semiflat_doc(im):
    return {"version": "1", "kind": "semiflat-check",
            "payload": {"n": 1, "box": [[-1, 1]], "beta": [[{"im": im}]]}}


def test_fibre_wobble_fails_full_closedness():
    from syzlab.scenarios import run_scenario_doc

    report = run_scenario_doc(semiflat_doc("2 + cos(2*pi*x1)/2"))
    checks = {c["name"]: c for c in report.checks}
    assert not report.passed
    full = checks["closedness.full_closedness"]
    # |d(V beta)/dx1| = pi sin(2 pi x1) / (2 sqrt(2 + cos(2 pi x1)/2)), at x1 = 1/4
    assert not full["passed"]
    assert full["value"] == pytest.approx(np.pi / (2 * np.sqrt(2)), rel=1e-12)  # 1.1107


def test_worst_point_of_a_failing_residual():
    """Im beta = 2 + (1 + y1) cos(2 pi x1)/4 wobbles most at y1 = 1, where the
    fibre derivative of V beta peaks at x1 = 1/4 (and again at 3/4, later in
    grid order); the JSON report names that sample, the text report does not."""
    from syzlab.scenarios import run_scenario_doc

    report = run_scenario_doc(semiflat_doc("2 + (1 + y1)*cos(2*pi*x1)/4"))
    checks = {c["name"]: c for c in report.checks}
    peak = {"y": [1.0], "x": [0.25]}
    for name in ("closedness.full_closedness", "closedness.volume_divergence",
                 "structure.fibre_harmonic"):
        assert not checks[name]["passed"], name
        assert checks[name]["worst_point"] == peak, name
    assert checks["pointwise.positivity"]["worst_point"] == {"y": [1.0], "x": [0.5]}
    # a residual that is 0 at every sample has no worst point
    assert "worst_point" not in checks["closedness.integrability"]
    assert "worst_point" not in report.to_text()


def test_worst_point_matches_the_symbolic_argmax():
    bs = BetaStructure(chart_of(1), [[sp.I * parse_scalar("2 + (1 + y1)*cos(2*pi*x1)/4", 1)]])
    (peak,) = _sampled(bs, ["full_closedness"])
    exprs = list(omega_form(bs).exterior_derivative().terms.values())
    Y, X = grid_rows(bs.chart)
    mags = np.abs(lambdify_values(exprs, bs.chart, Y, X)).max(axis=0)
    idx = int(np.argmax(mags))
    assert peak.at == ((float(Y[idx, 0]),), (float(X[idx, 0]),)) == ((1.0,), (0.25,))


@pytest.mark.parametrize("kind, payload", [
    ("hitchin", {"potential": "(y1^2 + y2^2)/2 + y1^3/10"}),
    ("dualize", {"beta": [[{"re": "y2/3", "im": "2"}, {"im": "1/5"}], [{"im": "1/5"}, {"im": "3"}]]}),
])
def test_json_checks_carry_worst_points(kind, payload):
    from syzlab.scenarios import run_scenario_doc

    doc = {"version": "1", "kind": kind,
           "payload": {"n": 2, "box": [[-1, 1], [-1, 1]], **payload}}
    report = run_scenario_doc(doc)
    located = [c for c in report.checks if "worst_point" in c]
    assert located
    for check in located:
        assert len(check["worst_point"]["y"]) == 2
        assert len(check["worst_point"]["x"]) in (0, 2)
    if kind == "hitchin":
        failing = {c["name"]: c for c in report.checks if not c["passed"]}
        assert "worst_point" in failing["closedness.full_closedness"]


# ---------------------------------------------------------------------------
# the jet arithmetic
# ---------------------------------------------------------------------------

def test_product_rule_and_value_only_derivatives():
    y, x = sp.symbols("y x", real=True)
    rows = np.linspace(0.5, 2.0, 4)
    f = Jet(rows + 0j, {y: 2 * rows + 0j})            # y^2 at y = rows
    g = Jet(3j, {x: 1 + 0j})                           # 3i + x at x = 0
    h = f * g - f
    assert np.allclose(h.value, rows * 3j - rows)
    assert np.allclose(h.diff(y).value, 2 * rows * 3j - 2 * rows)
    assert np.allclose(h.diff(x).value, rows)
    with pytest.raises(DegreeError):
        h.diff(x).diff(y)


def test_structural_zeros_are_exact():
    y = sp.Symbol("y", real=True)
    c = Jet(2j, {y: 1 + 0j})
    assert (c - c).diff(y) == 0 and (c * 0).is_zero()
    assert c.diff(sp.Symbol("x", real=True)) == 0
    re, im = c.as_real_imag()
    assert re.diff(y).value == 1 and im.diff(y) == 0 and im.value == 2
