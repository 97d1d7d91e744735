"""Deterministic quadrature on chart fibres, bases and fibre cycles.

Fibre integrals use the uniform product grid, i.e. the trapezoidal rule on
the torus, which is spectrally accurate for smooth periodic integrands.
Base integrals use a tensor Gauss-Legendre rule.  Cycle integrals run a
straight line in an integer homology direction.

Every integral here is a weighted sum of fibre means, so all of them go
through one primitive, ``fibre_means``, which compiles a whole list of
integrands once and averages it over a set of fibre samples at each base
point.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from .charts import Chart, circle_points, product_grid
from .fields import _BLOCK_SAMPLES, PeriodicityError, compile_scalars, require_fibre_periodic


def fibre_means(exprs, chart: Chart, y_points, X):
    """Means over the fibre samples X of each expression at each base point.

    Every expression must be syntactically fibre-periodic.  The list is
    compiled once and evaluated on the product of y_points and the rows of
    X, a block of base points at a time; returns a complex array of shape
    (len(exprs), len(y_points)).
    """
    n = chart.n
    exprs = [require_fibre_periodic(sp.sympify(e), n) for e in exprs]
    Y = np.asarray(y_points, dtype=float).reshape(-1, n)
    X = np.asarray(X, dtype=float).reshape(-1, n)
    evaluate = compile_scalars(exprs, chart)
    out = np.empty((len(exprs), len(Y)), dtype=complex)
    step = max(1, _BLOCK_SAMPLES // len(X))
    for start in range(0, len(Y), step):
        rows = Y[start:start + step]
        grid = product_grid([rows, X])
        vals = evaluate(grid[:, :n], grid[:, n:]).reshape(len(exprs), len(rows), len(X))
        out[:, start:start + len(rows)] = vals.mean(axis=2)
    return out


def subtorus_grid(n, omit_axis, resolution=16, x_fixed=0.0):
    """Uniform grid on the coordinate (n-1)-torus omitting one fibre axis.

    The omitted (1-based) coordinate is held at x_fixed.
    """
    axis = circle_points(resolution)
    return product_grid([[x_fixed] if i == omit_axis else axis for i in range(1, n + 1)])


def _cycle_points(n, direction, resolution, x_base=None):
    """Samples x_base + t*direction of a straight cycle, t uniform in [0, 1)."""
    x0 = np.zeros(n) if x_base is None else np.asarray(x_base, dtype=float)
    t = circle_points(resolution)
    return x0[None, :] + t[:, None] * np.asarray(direction, dtype=float)[None, :]


def _gauss_legendre_grid(chart: Chart, k):
    """Tensor Gauss-Legendre nodes on the base box and their weights."""
    nodes, weights = np.polynomial.legendre.leggauss(k)
    mids = [(float(hi) + float(lo)) / 2.0 for lo, hi in chart.box]
    halves = [(float(hi) - float(lo)) / 2.0 for lo, hi in chart.box]
    pts = product_grid([m + h * nodes for m, h in zip(mids, halves)])
    wts = product_grid([h * weights for h in halves]).prod(axis=1)
    return pts, wts


def fibre_integral(expr, chart: Chart, y_point, resolution=16):
    """Integral over the fibre torus above y_point (unit cell measure)."""
    X = chart.fibre_grid(resolution)
    return complex(fibre_means([expr], chart, [y_point], X)[0, 0])


def subtorus_integral(expr, chart: Chart, y_point, omit_axis, resolution=16, x_fixed=0.0):
    """Integral over the coordinate (n-1)-torus omitting one fibre axis.

    The omitted coordinate is held at x_fixed; orientation is the wedge of
    the remaining axes in increasing order.
    """
    X = subtorus_grid(chart.n, omit_axis, resolution, x_fixed)
    return complex(fibre_means([expr], chart, [y_point], X)[0, 0])


def cycle_line_integral(coeff_exprs, chart: Chart, y_point, direction, resolution=64,
                        x_base=None):
    """Integral of the fibre 1-form sum_j coeff_j dx_j over a straight cycle.

    direction is an integer vector d; the cycle is t -> x_base + t*d, t in
    [0, 1), and the integral is sum_j d_j * mean_t coeff_j.
    """
    X = _cycle_points(chart.n, direction, resolution, x_base)
    means = fibre_means(coeff_exprs, chart, [y_point], X)[:, 0]
    return complex(np.sum(means * np.asarray(direction, dtype=float)))


def base_integral(expr, chart: Chart, resolution=8):
    """Tensor Gauss-Legendre integral of an x-free field over the base box."""
    expr = sp.sympify(expr)
    if set(expr.free_symbols) & set(chart.xs):
        raise PeriodicityError("base integrals need an x-free integrand")
    pts, wts = _gauss_legendre_grid(chart, resolution)
    vals = fibre_means([expr], chart, pts, np.zeros((1, chart.n)))[0]
    return complex(np.sum(vals * wts))


def chart_integral(expr, chart: Chart, base_resolution=8, fibre_resolution=16):
    """Integral over base box x fibre torus of a mixed integrand."""
    pts, wts = _gauss_legendre_grid(chart, base_resolution)
    means = fibre_means([expr], chart, pts, chart.fibre_grid(fibre_resolution))[0]
    return complex(np.sum(means * wts))


def integrate(field, chart: Chart, over, resolution=16, at=None, cycle=None):
    """Scalar-field integral dispatcher.

    over: "fibre" (needs at=y point), "base", or "cycle" (needs cycle=integer
    direction and at=y point).
    """
    if over in ("fibre", "fibre-at-y"):
        if at is None:
            raise ValueError("fibre integration needs a base point 'at'")
        return fibre_integral(field, chart, at, resolution)
    if over == "base":
        return base_integral(field, chart, resolution)
    if over == "cycle":
        if at is None or cycle is None:
            raise ValueError("cycle integration needs 'at' and 'cycle'")
        if all(c == 0 for c in cycle):
            raise ValueError("cycle direction must be nonzero")
        # scalar field along the cycle: arc parametrised by t in [0,1)
        X = _cycle_points(chart.n, cycle, resolution)
        return complex(fibre_means([field], chart, [at], X)[0, 0])
    raise ValueError(f"unknown integration domain {over!r}")
