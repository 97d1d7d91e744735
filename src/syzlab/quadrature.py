"""Deterministic quadrature on chart fibres and whole charts.

Fibre means use a uniform product grid (on the whole fibre torus or, with
``subtorus_grid``, a coordinate subtorus), i.e. the trapezoidal rule, which
is spectrally accurate for smooth periodic integrands.  Chart integrals
weight fibre means with a tensor Gauss-Legendre rule on the base box.

Both go through one primitive, ``fibre_means``, which walks a whole list
of integrands once and averages it over a set of fibre samples at each base
point.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from .charts import Chart, circle_points, product_grid
from .fields import _BLOCK_SAMPLES, Walk, require_fibre_periodic


def fibre_means(exprs, chart: Chart, y_points, X):
    """Means over the fibre samples X of each expression at each base point.

    Every expression must be syntactically fibre-periodic.  The list goes
    into one Walk, evaluated on a block of base points against all rows of
    X by broadcasting, so a subexpression free of x is evaluated once per
    base point; returns a complex array of shape (len(exprs), len(y_points)).
    """
    n = chart.n
    exprs = [require_fibre_periodic(sp.sympify(e), n) for e in exprs]
    Y = np.asarray(y_points, dtype=float).reshape(-1, n)
    X = np.asarray(X, dtype=float).reshape(-1, n)
    walk = Walk(exprs, chart)
    out = np.empty((len(exprs), len(Y)), dtype=complex)
    step = max(1, _BLOCK_SAMPLES // len(X))
    for start in range(0, len(Y), step):
        rows = slice(start, start + step)
        for i, v in enumerate(walk.evaluate(Y[rows, None], X[None])):
            out[i, rows] = np.mean(v, axis=-1) if np.ndim(v) else v
    return out


def subtorus_grid(n, omit_axis, resolution=16):
    """Uniform grid on the coordinate (n-1)-torus omitting one fibre axis.

    The omitted (1-based) coordinate is held at 0.
    """
    axis = circle_points(resolution)
    return product_grid([[0.0] if i == omit_axis else axis for i in range(1, n + 1)])


def _gauss_legendre_grid(chart: Chart, k):
    """Tensor Gauss-Legendre nodes on the base box and their weights."""
    nodes, weights = np.polynomial.legendre.leggauss(k)
    mids = [(float(hi) + float(lo)) / 2.0 for lo, hi in chart.box]
    halves = [(float(hi) - float(lo)) / 2.0 for lo, hi in chart.box]
    pts = product_grid([m + h * nodes for m, h in zip(mids, halves)])
    wts = product_grid([h * weights for h in halves]).prod(axis=1)
    return pts, wts


def chart_integral(expr, chart: Chart, base_resolution=8, fibre_resolution=16):
    """Integral over base box x fibre torus of a mixed integrand."""
    pts, wts = _gauss_legendre_grid(chart, base_resolution)
    means = fibre_means([expr], chart, pts, chart.fibre_grid(fibre_resolution))[0]
    return complex(np.sum(means * wts))
