"""Deterministic quadrature on chart fibres and whole charts.

Every grid is a tuple of 1-d axes, one per chart variable: the base points,
then the samples of each fibre axis.  Uniform fibre axes give the
trapezoidal rule, which is spectrally accurate for smooth periodic
integrands; a fibre axis held at a single 0 restricts the mean to a
coordinate subtorus.  Chart integrals weight fibre means with a tensor
Gauss-Legendre rule on the base box.

Both go through one primitive, ``fibre_means``, which walks a whole list
of integrands once on the product grid of the axes (``fields.Walk.grid``)
and averages it over the fibre axes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .charts import Chart, circle_points
from .fields import _BLOCK_SAMPLES, Walk, as_field, require_fibre_periodic


def fibre_means(exprs, chart: Chart, axes, jets=False):
    """Means over the fibre axes of each expression at each base point.

    ``axes`` holds 2n 1-d axes, the n base axes and then the n fibre axes.
    Each expression is a node or Pair (or sympy, converted) and must be
    syntactically fibre-periodic.  The list goes
    into one Walk on the product grid, a sub-box of at most _BLOCK_SAMPLES
    points at a time, so a subexpression is evaluated only on the axes of
    the variables it reads.  Only base axes are split: a sub-box holds every
    fibre sample of its base points, however many there are.  Returns a complex array of shape
    (len(exprs), base points), the base points in row-major order as
    ``product_grid`` lists them; with ``jets``, also the means of the base
    partials, shape (len(exprs), n, base points).
    """
    n = chart.n
    exprs = [require_fibre_periodic(as_field(e), n) for e in exprs]
    parts = 1 + (n if jets else 0)
    means = np.empty((len(exprs), parts, *(len(a) for a in axes[:n])), dtype=complex)
    fibre = tuple(range(n, 2 * n))
    size = max(_BLOCK_SAMPLES, math.prod(len(a) for a in axes[n:]))
    for index, vals in Walk(exprs, chart).grid(axes, size, jets):
        for i, v in enumerate(vals):
            samples = [v.value] + [v.partials.get(y, 0j) for y in chart.ys] if jets else [v]
            for k, s in enumerate(samples):
                means[(i, k) + index[:n]] = np.mean(s, axis=fibre) if np.ndim(s) else s
    means = means.reshape(len(exprs), parts, -1)
    return (means[:, 0], means[:, 1:]) if jets else means[:, 0]


@functools.lru_cache(maxsize=8)
def _gauss_legendre(k):
    """The k-point Gauss-Legendre rule on [-1, 1], read-only, solved once per k."""
    nodes, weights = np.polynomial.legendre.leggauss(k)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def chart_integral(expr, chart: Chart, base_resolution=8, fibre_resolution=16):
    """Integral over base box x fibre torus of a mixed integrand: fibre means
    at the tensor Gauss-Legendre nodes of the base box, weighted by the outer
    product of the per-axis weights."""
    nodes, weights = _gauss_legendre(base_resolution)
    mids = [(float(hi) + float(lo)) / 2.0 for lo, hi in chart.box]
    halves = [(float(hi) - float(lo)) / 2.0 for lo, hi in chart.box]
    axes = [m + h * nodes for m, h in zip(mids, halves)]
    axes += [circle_points(fibre_resolution)] * chart.n
    wts = functools.reduce(np.multiply.outer, [h * weights for h in halves]).ravel()
    means = fibre_means([expr], chart, axes)[0]
    return complex(np.sum(means * wts))
