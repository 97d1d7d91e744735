import random

import numpy as np
import pytest
import sympy as sp

from syzlab.charts import Chart, product_grid
from syzlab.algebra import BigradedElement


@pytest.fixture
def chart2():
    return Chart(2, ((-1, 1), (-1, 1)))


@pytest.fixture
def chart3():
    return Chart(3, ((-1, 1), (-1, 1), (-1, 1)))


@pytest.fixture
def compile_calls(monkeypatch):
    """Count the evaluators built (fields.Walk) through every syzlab module
    that binds the name; each entry is the number of expressions."""
    import importlib
    import pkgutil
    import sys

    import syzlab
    import syzlab.fields as fields

    for info in pkgutil.iter_modules(syzlab.__path__):
        importlib.import_module(f"syzlab.{info.name}")
    raw = fields.Walk
    calls = []

    def counted(exprs, chart):
        exprs = list(exprs)
        calls.append(len(exprs))
        return raw(exprs, chart)

    for name, mod in list(sys.modules.items()):
        if name.startswith("syzlab") and getattr(mod, "Walk", None) is raw:
            monkeypatch.setattr(mod, "Walk", counted)
    return calls


# ---------------------------------------------------------------------------
# reference evaluators, independent of fields.Walk
# ---------------------------------------------------------------------------

def grid_rows(chart, base_k=5, fibre_k=8):
    """The chart's sample grid as dense rows (Y, X), one row per point in
    row-major order: charts.product_grid of the sample axes."""
    grid = product_grid(chart.sample_axes(base_k, fibre_k))
    return grid[:, :chart.n], grid[:, chart.n:]


def lambdify_values(exprs, chart, Y, X):
    """Complex array (len(exprs), len(Y)) of sympy's own numpy code for the
    expressions (one lambdify with common subexpressions) at the sample rows
    (Y, X), taken 8192 rows at a time."""
    exprs = list(exprs)
    fn = sp.lambdify(list(chart.ys) + list(chart.xs), exprs, modules="numpy", cse=True)
    out = np.empty((len(exprs), len(Y)), dtype=complex)
    for start in range(0, len(Y), 8192):
        rows = slice(start, start + 8192)
        for i, v in enumerate(fn(*Y[rows].T, *X[rows].T)):
            out[i, rows] = v
    return out


def lambdify_sup_norms(groups, chart):
    """(max |z|, max |Re z|, max |Im z|) of each group of expressions over
    the chart's sample grid, by lambdify_values; 0 for an empty group."""
    Y, X = grid_rows(chart)
    out = []
    for group in groups:
        group = [e for e in map(sp.sympify, group) if e != 0]
        vals = lambdify_values(group, chart, Y, X) if group else np.zeros((1, 1))
        out.append(tuple(float(np.max(np.abs(part))) for part in (vals, vals.real, vals.imag)))
    return out


def diff_values(expr, chart, Y, X):
    """{symbol: sampled sp.diff(expr, symbol)} over the chart variables."""
    syms = list(chart.ys) + list(chart.xs)
    return {v: lambdify_values([sp.diff(expr, v)], chart, Y, X)[0] for v in syms}


def sympy_beta(bs, part=None):
    """beta's entries, or with part "re" or "im" those of b or gInv, as
    expanded sympy expressions converted from the structure's nodes: the
    input of the symbolic oracles."""
    from syzlab.fields import to_sympy

    return [[sp.expand(to_sympy(getattr(e, part) if part else e)) for e in row]
            for row in bs.pairs]


def sympy_volume(bs):
    """V = 1/sqrt(det gInv) in sympy, from the structure's node determinant."""
    from syzlab.fields import to_sympy

    return 1 / sp.sqrt(sp.expand(to_sympy(bs.det_node)))


def chart_of_dim(n):
    return Chart(n, tuple((-1, 1) for _ in range(n)))


def random_coefficient(chart, rng):
    ys, xs = chart.ys, chart.xs
    n = chart.n
    choices = [
        sp.Rational(rng.randint(-3, 3)),
        sp.Rational(rng.randint(1, 3), rng.randint(1, 3)) * ys[rng.randrange(n)],
        sp.sin(2 * sp.pi * xs[rng.randrange(n)]),
        ys[rng.randrange(n)] * sp.cos(2 * sp.pi * xs[rng.randrange(n)]),
        ys[rng.randrange(n)] ** 2,
    ]
    return choices[rng.randrange(len(choices))]


def random_element(chart, rng, terms=2):
    el = BigradedElement.zero(chart)
    n = chart.n
    for _ in range(rng.randint(1, terms)):
        jset = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        iset = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        el = el + BigradedElement.term(chart, random_coefficient(chart, rng),
                                       dys=jset, dxs=iset)
    return el


def seeded_rng(seed=0):
    return random.Random(seed)
