"""Torus-fibration charts: a base box times a unit-lattice torus fibre.

Coordinates are y1..yn on the base and x1..xn on the fibre; every fibre
coordinate is periodic with period 1.  Dimensions 1 <= n <= 3 are supported.
The chart variables are expression nodes (``fields.variable``); sympy
callers may use them as sympy symbols, which ``fields.to_sympy`` makes
(real symbols of the same names).  Box ends are exact
``Fraction``s.  Every sample grid is the product of 1-d axes, one per chart
variable (``sample_axes`` for the residual grid); ``product_grid`` lists a
grid's points where a returned value carries them.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import X_VARS, Y_VARS

MAX_DIM = 3


class ChartError(ValueError):
    """Raised for malformed charts or chart mismatches between operands."""


def _to_number(v):
    """A box end as a Fraction: an int, Fraction or other exact rational
    (such as a sympy Rational) as itself, a float as its shortest decimal
    (0.1 is 1/10) and a string through ``Fraction`` ("3/2", "0.5"); anything
    else is a ChartError."""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ChartError(f"box end {v} is not finite")
        return Fraction(repr(v))
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ChartError(f"box end {v!r} is not a rational number") from None
    if isinstance(v, numbers.Rational):
        return Fraction(int(v.numerator), int(v.denominator))
    raise ChartError(f"box end {v!r} is not a number")


@dataclass(frozen=True)
class Chart:
    """An n-dimensional chart: base box [lo_i, hi_i] x unit torus fibre."""

    n: int
    box: tuple

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise ChartError(f"dimension must be in 1..{MAX_DIM}, got {self.n}")
        if len(self.box) != self.n:
            raise ChartError("box must give one [lo, hi] interval per base axis")
        fixed = []
        for lo, hi in self.box:
            lo, hi = _to_number(lo), _to_number(hi)
            if not lo < hi:
                raise ChartError(f"empty base interval [{lo}, {hi}]")
            fixed.append((lo, hi))
        object.__setattr__(self, "box", tuple(fixed))

    @property
    def ys(self):
        return Y_VARS[: self.n]

    @property
    def xs(self):
        return X_VARS[: self.n]

    @property
    def center(self):
        return tuple((lo + hi) / 2 for lo, hi in self.box)

    @property
    def box_volume(self):
        return math.prod(hi - lo for lo, hi in self.box)

    @functools.lru_cache(maxsize=8)
    def sample_axes(self, base_k=5, fibre_k=8):
        """The axes of the sample grid, read-only and built once per (chart,
        base_k, fibre_k): base_k points across each side of the box, then
        fibre_k circle points per fibre axis.  The grid is their product in
        row-major order, as ``product_grid`` lists it."""
        axes = [np.linspace(float(lo), float(hi), base_k) for lo, hi in self.box]
        axes += [circle_points(fibre_k) for _ in range(self.n)]
        for axis in axes:
            axis.flags.writeable = False
        return tuple(axes)


def circle_points(k):
    """k uniform samples of the unit circle: the nodes of the trapezoidal rule."""
    return np.arange(k) / k


def product_grid(axes):
    """The points of the product grid of 1-d axes, one row each, in
    itertools.product order: the last axis varies fastest."""
    mesh = np.meshgrid(*[np.asarray(a, dtype=float) for a in axes], indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def require_same_chart(a, b):
    if a != b:
        raise ChartError("operands live on different charts")
