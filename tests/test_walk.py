"""fields.Walk, the one evaluator, against sympy's own lambdify and diff.

Seeded random expression nodes cover every node kind the walk accepts:
numbers, pi, the chart variables, sums, products, negative integer powers,
half-integer powers such as (...)^(-3/2), exp, nested sin and cos, and
complex values as Pairs of real nodes, which complex sympy input is split
into.  Values must agree with lambdify of
the sympy view (``to_sympy``) to 1e-12 and first partials with the sampled
sp.diff to 1e-10, both relative to the expression's largest sample.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from syzlab.charts import Chart, product_grid
from syzlab.fields import PI, Jet, Pair, UnsupportedNode, Walk, constant, function, number, to_sympy

from conftest import diff_values, lambdify_values

CHART = Chart(2, ((-1, 1), (-1, 1)))
Y1, Y2 = CHART.ys
X1, X2 = CHART.xs


def real_expr(rng, depth):
    """A real-valued expression node of the chart variables."""
    if depth == 0:
        return rng.choice([Y1, Y2, X1, X2, number(Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
                           PI / 4, Y1 - Fraction(1, 3)])
    a, b = real_expr(rng, depth - 1), real_expr(rng, depth - 1)
    positive = 2 + a ** 2
    return rng.choice([
        a + b, a * b - 1, a ** rng.randint(2, 3), positive ** -rng.randint(1, 2),
        positive ** Fraction(1, 2), positive ** Fraction(-1, 2),
        positive ** Fraction(-3, 2), function("exp", a / 2),
        function("sin", 2 * PI * a), function("cos", function("sin", a) + b),
    ])


def complex_expr(rng, depth):
    """re + i*im, a Pair of two real nodes."""
    return Pair(real_expr(rng, depth), real_expr(rng, depth))


def exprs_for(seed):
    rng = random.Random(f"walk:{seed}")
    return ([real_expr(rng, rng.randint(1, 3)) for _ in range(8)]
            + [complex_expr(rng, rng.randint(1, 2)) for _ in range(4)])


def sample_axes(seed, count=4):
    """Random 1-d axes: y1, y2 in (-1, 1), then x1, x2 in (0, 1)."""
    rng = np.random.default_rng(seed)
    return [*rng.uniform(-1, 1, (2, count)), *rng.uniform(0, 1, (2, count))]


def dense(vals, axes):
    """Walk outputs on the grid of axes, constants or arrays broadcast over
    it, as one array a grid point each in row-major order."""
    shape = [len(a) for a in axes]
    return np.array([np.broadcast_to(v, shape).ravel() for v in vals])


def assert_close(got, want, rel):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.all(np.isfinite(want))
    assert float(np.max(np.abs(got - want))) <= rel * scale


@pytest.mark.parametrize("seed", range(6))
def test_values_match_lambdify(seed):
    exprs = exprs_for(seed)
    axes = sample_axes(seed)
    ((_, vals),) = Walk(exprs, CHART).grid(axes)
    got = dense(vals, axes)
    grid = product_grid(axes)
    want = lambdify_values([to_sympy(e) for e in exprs], CHART, grid[:, :2], grid[:, 2:])
    for e, g, w in zip(exprs, got, want):
        assert_close(g, w, 1e-12), e


@pytest.mark.parametrize("seed", range(6))
def test_jets_match_sympy_diff(seed):
    """Jets on the product grid of random axes, against dense rows."""
    exprs = exprs_for(seed)
    axes = [np.sort(a) for a in np.random.default_rng(seed).uniform(-1, 1, (4, 5))]
    ((_, jets),) = Walk(exprs, CHART).grid(axes, jets=True)
    grid = product_grid(axes)
    Y, X = grid[:, :2], grid[:, 2:]
    for e, jet in zip(exprs, jets):
        e = to_sympy(e)
        want = lambdify_values([e], CHART, Y, X)[0]
        assert_close(np.broadcast_to(jet.value, (5,) * 4).ravel(), want, 1e-12)
        for v, partial in diff_values(e, CHART, Y, X).items():
            got = np.broadcast_to(jet.partials.get(v, 0j), (5,) * 4).ravel()
            assert_close(got, partial, 1e-10), (e, v)


def _nodes(expr):
    """Every node under an expression node or Pair."""
    stack, seen = list(expr.as_real_imag()), []
    while stack:
        node = stack.pop()
        seen.append(node)
        if node.op == "add":
            stack.extend(t for t, _ in node.args[1])
        elif node.op == "mul":
            stack.extend(b for b, _ in node.args)
        elif node.op in ("sin", "cos", "exp"):
            stack.append(node.args)
    return seen


def test_kinds_covered():
    """The seeded expressions reach every node kind the walk accepts."""
    kinds, exponents = set(), set()
    for seed in range(6):
        for e in exprs_for(seed):
            for node in _nodes(e):
                kinds.add(node.op)
                if node.op == "mul":
                    exponents.update(exp for _, exp in node.args)
            kinds.add(type(e).__name__)
    assert {"add", "mul", "exp", "sin", "cos", "var", "num", "pi", "Pair"} <= kinds
    assert any(e < 0 and e.denominator == 1 for e in exponents)
    assert {Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2)} <= exponents


@pytest.mark.parametrize("expr", [
    X1 * (3 + sp.I * (Y1 * Y2 - 1)) ** -2, 1 / (3 + sp.I * Y1), sp.exp(sp.I * sp.pi / 4) * Y2,
    sp.cos(2 * sp.pi * X2) * (2 - sp.I * Y1) ** 3 + sp.I * Y2,
], ids=["z*w^-2", "1/w", "exp(i*pi/4)*y2", "cos*w^3+i*y2"])
def test_complex_sympy_input_splits_into_real_parts(expr):
    """sympy input with I inside a power or a function is split into its
    real and imaginary parts (sympy's as_real_imag) and walked as a Pair."""
    axes = sample_axes(7)
    ((_, vals),) = Walk([expr], CHART).grid(axes)
    grid = product_grid(axes)
    want = lambdify_values([expr], CHART, grid[:, :2], grid[:, 2:])
    assert_close(dense(vals, axes)[0], want[0], 1e-12)


def test_a_complex_power_whose_parts_need_atan2_is_refused():
    """Walk has no atan2 or Abs: (4 + i*y1)^(-3/2) has no node form."""
    with pytest.raises(UnsupportedNode):
        Walk([(4 + sp.I * Y1) ** sp.Rational(-3, 2)], CHART)


@pytest.mark.parametrize("expr", [
    sp.log(2 + Y1), sp.tan(X1), sp.Integer(2) ** Y1, (2 + Y1) ** sp.Rational(1, 3), sp.Symbol("z"),
    sp.sin(Y1) + sp.sign(Y2),
])
def test_unsupported_nodes_raise(expr):
    with pytest.raises(UnsupportedNode):
        Walk([sp.Integer(1), expr], CHART)


def test_constant_subtrees_fold_and_shared_nodes_run_once():
    s = sp.sin(2 * sp.pi * X1)
    walk = Walk([s * Y1, s + sp.sqrt(2) * sp.log(3), sp.log(2)], CHART)
    # sin's argument, sin, the product and the sum: each node once
    assert len(walk._steps) == 4
    assert walk.reads == (0, 2)  # y1 and x1
    axes = sample_axes(0, 5)
    ((_, vals),) = walk.grid(axes)
    x1 = axes[2].reshape(1, 1, 5, 1)
    assert np.allclose(vals[1], np.sin(2 * np.pi * x1) + np.sqrt(2) * np.log(3))
    assert np.all(vals[2] == np.log(2))


def test_sympy_constants_meet_jets_through_one_conversion(monkeypatch):
    """A sympy number that meets a jet goes through evalf once per process,
    from either side of the operator."""
    constant.cache_clear()
    converted = []
    raw = sp.Expr.__complex__
    monkeypatch.setattr(sp.Expr, "__complex__",
                        lambda self: converted.append(str(self)) or raw(self))
    jet = Jet(np.arange(3.0) + 0j, {Y1: 1 + 0j})
    for _ in range(3):
        jet = sp.Rational(1, 2) * (jet * sp.Rational(1, 2)) + sp.Integer(1)
    assert sorted(converted) == ["1", "1/2"]
    assert np.allclose(jet.value, np.arange(3.0) / 64 + 1 + 1 / 4 + 1 / 16)
    assert jet.diff(Y1).value == 1 / 64
