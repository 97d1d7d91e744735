import inspect

import numpy as np
import pytest
import sympy as sp

from syzlab import quadrature
from syzlab.charts import Chart
from syzlab.fields import PeriodicityError
from syzlab.quadrature import chart_integral, fibre_means, subtorus_grid

from conftest import lambdify_values


@pytest.fixture
def chart2():
    return Chart(2, ((-1, 1), (-1, 1)))


def fibre_mean(expr, chart, y_point, resolution):
    return complex(fibre_means([expr], chart, [y_point], chart.fibre_grid(resolution))[0, 0])


def test_public_names_are_the_ones_the_library_calls():
    public = {name for name, obj in vars(quadrature).items()
              if inspect.isfunction(obj) and obj.__module__ == quadrature.__name__
              and not name.startswith("_")}
    assert public == {"fibre_means", "subtorus_grid", "chart_integral"}
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


def test_chart_integral_mixed(chart2):
    y1 = chart2.ys[0]
    x1 = chart2.xs[0]
    val = chart_integral(y1 ** 2 * (1 + sp.sin(2 * sp.pi * x1) ** 2), chart2)
    # int y1^2 over [-1,1]^2 = 4/3; fibre factor = 3/2
    assert abs(val - 2.0) < 1e-12


def test_subtorus_integral():
    chart = Chart(3, ((-1, 1),) * 3)
    x1, x2, x3 = chart.xs
    X = subtorus_grid(3, 1, 8)
    assert X.shape == (64, 3) and np.all(X[:, 0] == 0)
    val = fibre_means([sp.cos(2 * sp.pi * x2) ** 2, sp.cos(2 * sp.pi * x1)],
                      chart, [(0, 0, 0)], X)[:, 0]
    assert abs(val[0] - 0.5) < 1e-12
    # the omitted axis is held at 0, not averaged
    assert abs(val[1] - 1.0) < 1e-15


def test_determinism(chart2):
    x1 = chart2.xs[0]
    expr = sp.sin(2 * sp.pi * x1) ** 2 + chart2.ys[0] ** 2
    a = chart_integral(expr, chart2)
    b = chart_integral(expr, chart2)
    assert a == b
    pts = chart2.base_grid(3)
    X = chart2.fibre_grid(8)
    assert np.array_equal(fibre_means([expr], chart2, pts, X),
                          fibre_means([expr], chart2, pts, X))


def test_fibre_means_batches_points_and_expressions(chart2):
    x1, x2 = chart2.xs
    y1 = chart2.ys[0]
    exprs = [y1 * sp.cos(2 * sp.pi * x1) ** 2, sp.sin(2 * sp.pi * x2), sp.Integer(1)]
    pts = [(-0.5, 0.0), (0.25, 1.0)]
    means = fibre_means(exprs, chart2, pts, chart2.fibre_grid(8))
    assert means.shape == (3, 2)
    assert np.allclose(means, [[-0.25, 0.125], [0, 0], [1, 1]], atol=1e-14)
    # reference: one evaluator per (expression, point), as a plain loop
    X = chart2.fibre_grid(8)
    for i, e in enumerate(exprs):
        for p, y in enumerate(pts):
            vals = lambdify_values([e], chart2, np.tile(y, (len(X), 1)), X)[0]
            assert abs(means[i, p] - np.mean(vals)) < 1e-15
    with pytest.raises(PeriodicityError):
        fibre_means([sp.Integer(1), x1], chart2, pts, chart2.fibre_grid(4))


def test_fibre_means_over_several_blocks(chart2):
    y1, x1 = chart2.ys[0], chart2.xs[0]
    pts = chart2.base_grid(3)[:7]
    # 4096 fibre samples per base point: the 7 points span several blocks
    means = fibre_means([y1 + sp.cos(2 * sp.pi * x1) ** 2], chart2, pts,
                        chart2.fibre_grid(64))[0]
    assert np.allclose(means, pts[:, 0] + 0.5, rtol=0, atol=1e-14)
