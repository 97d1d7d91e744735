"""Residuals sampled on the grid by broadcasting, against dense rows.

``fields.Walk.grid`` gives each chart variable its own axis, so a residual
is an array over the axes of the variables it depends on, and the grid is
split into sub-boxes only along the axes beta reads.  Here the table of
samples of three n = 3 structures (a constant beta, a beta reading y1, y3
and x1, and a beta reading all six variables, in many sub-boxes) is
compared with a dense reference: the jets of beta from sympy's lambdify and
diff (``conftest``) on every row of ``charts.product_grid``, run through the
same residual builders and reduced row by row, first row first.
"""

import numpy as np
import pytest
import sympy as sp

import syzlab.semiflat as semiflat
from syzlab.charts import Chart
from syzlab.fields import GrammarError, Jet, Peaks, parse_scalar, sup_norms
from syzlab.semiflat import _JET_ROWS, _RESIDUALS, BetaStructure, _sampled, _volume_jet

from conftest import diff_values, grid_rows, lambdify_values, sympy_beta

NAMES = tuple(_RESIDUALS)
CHART = Chart(3, ((-1, 1),) * 3)

CONSTANT = [[{"im": "5/2"}, "1/4", 0],
            ["1/4", {"im": "3"}, {"im": "1/8"}],
            [0, {"im": "1/8"}, {"im": "7/2"}]]
X_FREE = [[{"im": "3 + y1^2/8"}, {"re": "y3/5"}, 0],
          [{"re": "y3/5"}, {"im": "3 + y2/4"}, 0],
          [0, 0, {"im": "3"}]]
# the shape of the benchmark's n = 3 "swell" structures
SWELL = [[{"im": "5/2 + sin(2*pi*2*x1)/3"}, {"re": "y3/4"}, 0],
         [{"re": "y3/4"}, {"im": "3 + y1^2/6"}, 0],
         [0, 0, {"im": "2"}]]
DENSE = [[{"im": "3 + y1^2/8 + sin(2*pi*x1)/4"}, {"re": "y3/5"}, {"im": "1/8"}],
         [{"re": "y3/5"}, {"re": "y2/4", "im": "3 + cos(2*pi*x2)/5"}, 0],
         [{"im": "1/8"}, 0, {"im": "3 + sin(2*pi*x3 + y2)/4"}]]


def structure(entries):
    return BetaStructure(CHART, [[parse_scalar(e, 3) for e in row] for row in entries])


def row_point(Y, X, idx):
    return tuple(map(float, Y[idx])), tuple(map(float, X[idx]))


def dense_reference(bs):
    """{name: ((|z|, |Re z|, |Im z|), their first rows)} of every residual,
    and (least eigenvalue of sym(Im beta), its first row), on dense rows."""
    chart, n = bs.chart, bs.n
    Y, X = grid_rows(chart)
    entries = [e for row in sympy_beta(bs) for e in row]
    values = lambdify_values(entries, chart, Y, X)
    partials = [{v: p for v, p in diff_values(e, chart, Y, X).items() if sp.diff(e, v) != 0}
                for e in entries]
    mags = {name: np.zeros((3, len(Y))) for name in NAMES}
    for start in range(0, len(Y), 4096):
        rows = slice(start, start + 4096)
        jets = [Jet(values[k, rows], {v: p[rows] for v, p in partials[k].items()})
                for k in range(n * n)]
        beta = [jets[i * n:(i + 1) * n] for i in range(n)]
        V = _volume_jet(beta)
        for name in NAMES:
            vals = [np.broadcast_to(c.value, len(Y[rows]))
                    for c in _RESIDUALS[name](chart, beta, V) if c != 0]
            for part, f in enumerate((np.abs, lambda z: np.abs(z.real), lambda z: np.abs(z.imag))):
                if vals:
                    mags[name][part, rows] = np.max([f(v) for v in vals], axis=0)
    table = {}
    for name, m in mags.items():
        peaks = m.max(axis=1)
        firsts = [row_point(Y, X, int(np.argmax(p))) if top > 0 else None
                  for p, top in zip(m, peaks)]
        table[name] = (peaks, firsts)
    g = lambdify_values([e for row in sympy_beta(bs, "im") for e in row], chart, Y, X).real
    mats = g.T.reshape(-1, n, n)
    eig = np.linalg.eigvalsh(0.5 * (mats + np.transpose(mats, (0, 2, 1))))[:, 0]
    idx = int(np.argmin(eig))
    return table, (float(eig[idx]), row_point(Y, X, idx))


@pytest.mark.parametrize("entries, cap", [(CONSTANT, _JET_ROWS), (SWELL, _JET_ROWS),
                                          (DENSE, 512)], ids=["constant", "swell", "dense"])
def test_grid_matches_dense_rows(entries, cap, monkeypatch):
    """Every residual's |z|, |Re z| and |Im z| and the first sample point
    reaching each, and the least eigenvalue of Im beta and its point, agree
    with the dense rows.  The dense beta runs 125 sub-boxes of 512 points."""
    monkeypatch.setattr(semiflat, "_JET_ROWS", cap)
    bs = structure(entries)
    table, (least, where) = dense_reference(bs)
    got_least, got_where = _sampled(bs, ["positivity"])[0]
    assert got_least == pytest.approx(least, rel=1e-12)
    assert got_where == where
    for name, peak in zip(NAMES, _sampled(bs, NAMES)):
        peaks, firsts = table[name]
        for part, got, at, want, first in zip(
                ("abs", "re", "im"), (float(peak), peak.re, peak.im),
                (peak.at, peak.re_at, peak.im_at), peaks, firsts):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (name, part)
            assert at == first, (name, part)


@pytest.mark.parametrize("entries, limit", [(X_FREE, 125), (SWELL, 200), (DENSE, _JET_ROWS)],
                         ids=["x-free", "swell", "dense"])
def test_residuals_are_sampled_where_they_vary(entries, limit, monkeypatch):
    """The largest array any residual yields spans the grid points of the
    variables beta reads (5^3, or 5 x 5 x 8 for y1, y3 and x1), and never
    more than a sub-box: a fall-back to dense rows (64,000 points) fails."""
    sizes = []
    add = Peaks.add

    def recorded(self, k, vals, axes, index):
        sizes.append(max(np.size(v) for v in vals))
        return add(self, k, vals, axes, index)

    monkeypatch.setattr(Peaks, "add", recorded)
    _sampled(structure(entries), NAMES)
    assert sizes and max(sizes) <= limit


def test_a_nan_sample_stays_the_peak():
    """The NaN at y1 = 0 arrives in the middle one of the five sub-boxes
    split along y1 and stays the peak of every part, at its first point,
    although larger finite samples come before and after it."""
    y1, y2, y3 = CHART.ys
    x1, x2, x3 = CHART.xs
    wave = sum(sp.sin(2 * sp.pi * x) for x in (x1, x2, x3))
    expr = sp.sin(y1) / y1 * (2 + sp.I) + 9 * (1 - y1 ** 2) * (y2 + y3 + wave) + 20 * y1
    with np.errstate(all="ignore"):
        (peak,) = sup_norms([[expr]], CHART)
    assert np.isnan(peak) and np.isnan(peak.re) and np.isnan(peak.im)
    first = ((0.0, -1.0, -1.0), (0.0, 0.0, 0.0))
    assert peak.at == peak.re_at == peak.im_at == first


def test_a_pole_is_named_at_its_first_sample_point():
    """A pole on the plane y2 = 0 of a beta read in sub-boxes is reported at
    the first point of the grid on that plane."""
    entries = [row[:] for row in DENSE]
    entries[2][2] = {"im": "1/y2^2"}
    with pytest.raises(GrammarError, match=r"not finite at the sample point "
                       r"y = \(-1\.0, 0\.0, -1\.0\), x = \(0\.0, 0\.0, 0\.0\)"):
        _sampled(structure(entries), ["positivity"])[0]


def test_the_pole_check_comes_before_any_residual(monkeypatch):
    """One walk samples positivity and every residual: the pole is rejected
    with pointwise_checks' message before a residual is built on a sub-box
    where beta is not finite, and the table stays empty."""
    entries = [row[:] for row in DENSE]
    entries[2][2] = {"im": "1/y2^2"}
    with pytest.raises(GrammarError) as expected:
        semiflat.pointwise_checks(structure(entries))
    assert "y = (-1.0, 0.0, -1.0), x = (0.0, 0.0, 0.0)" in str(expected.value)

    volume_jet = semiflat._volume_jet

    def finite_only(beta):
        assert all(np.isfinite(e.value).all() for row in beta for e in row)
        return volume_jet(beta)

    monkeypatch.setattr(semiflat, "_volume_jet", finite_only)
    bs = structure(entries)
    with pytest.raises(GrammarError) as got:
        _sampled(bs, NAMES)
    assert str(got.value) == str(expected.value)
    assert bs._samples == {}
