import inspect

import numpy as np
import pytest
import sympy as sp

from syzlab import quadrature
from syzlab.charts import Chart, circle_points, product_grid
from syzlab.fields import _BLOCK_SAMPLES, PeriodicityError, Walk
from syzlab.quadrature import chart_integral, fibre_means

from conftest import lambdify_values


@pytest.fixture
def chart2():
    return Chart(2, ((-1, 1), (-1, 1)))


def point_axes(y_point):
    """n one-point base axes: a single base point."""
    return [np.array([float(c)]) for c in y_point]


def fibre_axes(n, resolution):
    return [circle_points(resolution)] * n


def base_axes(chart, k):
    return [np.linspace(float(lo), float(hi), k) for lo, hi in chart.box]


def fibre_mean(expr, chart, y_point, resolution):
    axes = point_axes(y_point) + fibre_axes(chart.n, resolution)
    return complex(fibre_means([expr], chart, axes)[0, 0])


def test_public_names_are_the_ones_the_library_calls():
    public = {name for name, obj in vars(quadrature).items()
              if inspect.isfunction(obj) and obj.__module__ == quadrature.__name__
              and not name.startswith("_")}
    assert public == {"fibre_means", "chart_integral"}
    import syzlab

    assert not hasattr(syzlab, "integrate")


def test_trig_mode_exact_at_tiny_resolution(chart2):
    x1 = chart2.xs[0]
    assert abs(fibre_mean(sp.sin(2 * sp.pi * x1), chart2, (0, 0), 2)) < 1e-15
    assert abs(fibre_mean(sp.sin(2 * sp.pi * x1), chart2, (0, 0), 5)) < 1e-14


def test_unit_mass(chart2):
    assert fibre_mean(sp.Integer(1), chart2, (0.2, -0.4), 3).real == pytest.approx(1.0)


def test_squared_mode(chart2):
    x1 = chart2.xs[0]
    assert abs(fibre_mean(sp.sin(2 * sp.pi * x1) ** 2, chart2, (0, 0), 16) - 0.5) < 1e-12


def test_fibre_requires_periodicity(chart2):
    with pytest.raises(PeriodicityError):
        fibre_mean(chart2.xs[0], chart2, (0, 0), 16)
    with pytest.raises(PeriodicityError):
        chart_integral(chart2.xs[0], chart2)


def test_base_gauss_legendre(chart2):
    """An x-free integrand: the fibre mean is the value, and the tensor rule
    of order 6 integrates y1^4 y2^2 exactly."""
    y1, y2 = chart2.ys
    val = chart_integral(y1 ** 4 * y2 ** 2, chart2, base_resolution=6, fibre_resolution=2)
    assert abs(val - sp.Rational(2, 5) * sp.Rational(2, 3)) < 1e-13


def test_gauss_legendre_rule_is_solved_once_per_resolution(chart2, monkeypatch):
    """chart_integral takes the rule from a read-only cache, bit-identical
    to numpy's, and solves it once per base resolution."""
    raw, calls = np.polynomial.legendre.leggauss, []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda k: calls.append(k) or raw(k))
    quadrature._gauss_legendre.cache_clear()
    expr = chart2.ys[0] ** 2 * (1 + sp.sin(2 * sp.pi * chart2.xs[0]) ** 2)
    values = [chart_integral(expr, chart2, base_resolution=k) for k in (5, 8, 5, 8, 8)]
    assert calls == [5, 8] and values[:2] == values[2:4]
    for k in (5, 8):
        nodes, weights = quadrature._gauss_legendre(k)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert all(np.array_equal(a, b) for a, b in zip((nodes, weights), raw(k)))
    quadrature._gauss_legendre.cache_clear()


def test_chart_integral_mixed(chart2):
    y1 = chart2.ys[0]
    x1 = chart2.xs[0]
    val = chart_integral(y1 ** 2 * (1 + sp.sin(2 * sp.pi * x1) ** 2), chart2)
    # int y1^2 over [-1,1]^2 = 4/3; fibre factor = 3/2
    assert abs(val - 2.0) < 1e-12


def test_subtorus_integral():
    """A coordinate subtorus is a fibre axis held at a single 0."""
    chart = Chart(3, ((-1, 1),) * 3)
    x1, x2, x3 = chart.xs
    axes = point_axes((0, 0, 0)) + [np.zeros(1)] + fibre_axes(2, 8)
    val = fibre_means([sp.cos(2 * sp.pi * x2) ** 2, sp.cos(2 * sp.pi * x1)],
                      chart, axes)[:, 0]
    assert abs(val[0] - 0.5) < 1e-12
    # the omitted axis is held at 0, not averaged
    assert abs(val[1] - 1.0) < 1e-15


def test_determinism(chart2):
    x1 = chart2.xs[0]
    expr = sp.sin(2 * sp.pi * x1) ** 2 + chart2.ys[0] ** 2
    a = chart_integral(expr, chart2)
    b = chart_integral(expr, chart2)
    assert a == b
    axes = base_axes(chart2, 3) + fibre_axes(2, 8)
    assert np.array_equal(fibre_means([expr], chart2, axes),
                          fibre_means([expr], chart2, axes))


def test_fibre_means_batches_points_and_expressions(chart2):
    x1, x2 = chart2.xs
    y1 = chart2.ys[0]
    exprs = [y1 * sp.cos(2 * sp.pi * x1) ** 2, sp.sin(2 * sp.pi * x2), sp.Integer(1)]
    base = [np.array([-0.5, 0.25]), np.array([0.0, 1.0])]
    means = fibre_means(exprs, chart2, base + fibre_axes(2, 8))
    # the base points in row-major order, as product_grid lists them
    pts = product_grid(base)
    assert means.shape == (3, 4)
    assert np.allclose(means, [[-0.25, -0.25, 0.125, 0.125], [0] * 4, [1] * 4], atol=1e-14)
    # reference: one evaluator per (expression, point) on dense fibre rows, as a plain loop
    X = product_grid(fibre_axes(2, 8))
    for i, e in enumerate(exprs):
        for p, y in enumerate(pts):
            vals = lambdify_values([e], chart2, np.tile(y, (len(X), 1)), X)[0]
            assert abs(means[i, p] - np.mean(vals)) < 1e-15
    with pytest.raises(PeriodicityError):
        fibre_means([sp.Integer(1), x1], chart2, base + fibre_axes(2, 4))


def test_fibre_means_over_several_blocks(chart2):
    y1, y2 = chart2.ys
    x1, x2 = chart2.xs
    # reads every axis: 4096 fibre samples per base point, so the 9 points
    # span several blocks
    expr = y1 + sp.cos(2 * sp.pi * (x1 + x2) + y2) ** 2
    axes = base_axes(chart2, 3) + fibre_axes(2, 64)
    assert len(list(Walk([expr], chart2).grid(axes, _BLOCK_SAMPLES))) > 1
    means = fibre_means([expr], chart2, axes)[0]
    assert np.allclose(means, product_grid(axes[:2])[:, 0] + 0.5, rtol=0, atol=1e-14)


def test_a_fibre_grid_above_the_block_size_is_never_split(chart2):
    """130^2 fibre samples exceed _BLOCK_SAMPLES: only base axes are split,
    so each mean is over the whole fibre, for an x-only integrand (whose
    first read axis is a fibre axis) too."""
    y1, y2 = chart2.ys
    x1, x2 = chart2.xs
    assert 130 ** 2 > _BLOCK_SAMPLES
    exprs = [y1 + sp.cos(2 * sp.pi * x1) ** 2 + sp.sin(2 * sp.pi * x2),
             sp.cos(2 * sp.pi * x1) ** 2 * sp.cos(2 * sp.pi * x2) ** 2]
    axes = [np.array([-0.5, 0.25]), np.array([0.0])] + fibre_axes(2, 130)
    means, grads = fibre_means(exprs, chart2, axes, jets=True)
    assert np.allclose(means, [[0.0, 0.75], [0.25, 0.25]], rtol=0, atol=1e-13)
    assert np.allclose(grads[0], [[1, 1], [0, 0]], rtol=0, atol=1e-13)
    assert np.array_equal(means, fibre_means(exprs, chart2, axes))


def test_jets_give_the_means_of_the_base_partials(chart2):
    """The fibre mean of a jet is the jet of the fibre mean: with jets, the
    means of the y-partials, against sympy's diff of the exact mean."""
    y1, y2 = chart2.ys
    x1, x2 = chart2.xs
    expr = y1 ** 2 * y2 * (2 + sp.cos(2 * sp.pi * x1)) ** 2 + sp.sin(2 * sp.pi * x2 + y2)
    mean = 4.5 * y1 ** 2 * y2  # <(2 + cos)^2> = 9/2; <sin(2 pi x2 + y2)> = 0
    base = base_axes(chart2, 3)
    axes = base + fibre_axes(2, 8)
    means, grads = fibre_means([expr, sp.Integer(7)], chart2, axes, jets=True)
    assert np.array_equal(means, fibre_means([expr, sp.Integer(7)], chart2, axes))
    assert grads.shape == (2, 2, 9)
    pts = product_grid(base)
    for a, y in enumerate((y1, y2)):
        want = sp.lambdify((y1, y2), sp.diff(mean, y))(*pts.T)
        assert np.allclose(grads[0, a], want, rtol=0, atol=1e-13)
    assert np.all(grads[1] == 0)
