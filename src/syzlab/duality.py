"""Base metrics from fibre periods, dual structures, and the coupling integral.

The base metric h pairs -i(v)omega with i(w)Im(Omega) over a fibre; dividing
by the fibre volume gives the normalised metric h_n.  Periods of Im(Omega_n)
over (n-1)-cycles embed the cycle lattice into the base cotangent spaces;
h_n re-expresses that embedding through the tangent-cotangent pairing
e_i^* <-> (-1)^(i-1) e_1 ^ ... e_i-hat ... ^ e_n  (front-slot order).

Dualisation is implemented for fibre-constant metrics: the dual inverse
metric matrix is h_n itself, and the dual fibre volume carries the lattice
covolume det(h_n), which produces the volume reciprocity Vol * dual-Vol = 1.

Integrands are expression nodes and McLean's closed forms their exact fibre
means (``fields.fibre_mean``); tensor fields and metrics keep node entries,
and sympy is loaded only by ``symmetric_class``, whose potential is
integrated (``semiflat.base_potential``).  ``HitchinPotential``,
``hitchin``, ``YukawaFamily`` and ``yukawa`` live in ``semiflat`` and are
importable from here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import FormElement, decomposable_form
from .charts import Chart, circle_points, product_grid
from .fields import (
    ZERO,
    GrammarError,
    Pair,
    UnsupportedNode,
    as_field,
    fibre_mean,
    is_zero,
    require_sympy,
)
from .quadrature import fibre_means
from .semiflat import (  # noqa: F401  (HitchinPotential ... yukawa: re-exported)
    DEFAULT_TOL,
    FIBRE_RESOLUTION,
    ORIENTATION_SIGN,
    BetaStructure,
    DualityError,
    HitchinPotential,
    SemiflatReport,
    YukawaFamily,
    _sampled,
    base_one_form_differential,
    base_potential,
    hitchin,
    reads_fibre,
    require_compatible,
    yukawa,
)

# Vol * dual-Vol = 1 holds to rounding on a fibre-constant metric
RECIPROCITY_TOL = 1e-10


@dataclass(frozen=True)
class CycleSpec:
    """Integer fibre cycle: degree 1 (circle basis) or n-1 (omitted-axis basis).

    For degree n-1, coefficient i multiplies the coordinate subtorus spanned
    by all axes except i, oriented as e_1 ^ ... e_i-hat ... ^ e_n.  For n = 2
    the two degrees coincide and coefficients are read in the circle basis.
    """

    degree: int
    coefficients: tuple
    at: tuple = None

    def __post_init__(self):
        if all(c == 0 for c in self.coefficients):
            raise DualityError("cycle coefficient vector must be nonzero")
        object.__setattr__(self, "coefficients", tuple(int(c) for c in self.coefficients))


def _omitted_axis_coefficients(gamma: CycleSpec, n):
    """Coefficients in the omitted-axis basis of (n-1)-cycles."""
    if len(gamma.coefficients) != n:
        raise DualityError("cycle coefficients must have one entry per axis")
    if n == 2 and gamma.degree == 1:
        # both degrees are read in the circle basis, and the x_i circle is
        # the generator omitting the other axis
        return [gamma.coefficients[1], gamma.coefficients[0]]
    if gamma.degree == n - 1:
        return list(gamma.coefficients)
    if gamma.degree == 1:
        raise DualityError("degree-1 cycles pair with (n-1)-forms only when n = 2")
    raise DualityError(f"unsupported cycle degree {gamma.degree} for n = {n}")


def cycle_tangent_vector(gamma: CycleSpec, n):
    """Tangent-vector coefficients of a degree (n-1) cycle: omitted-axis
    generator i pairs with (-1)^(i-1) e_i."""
    omit = _omitted_axis_coefficients(gamma, n)
    return [(-1) ** i * c for i, c in enumerate(omit)]


# ---------------------------------------------------------------------------
# metrics from fibre integrals
# ---------------------------------------------------------------------------

@dataclass
class MetricOnBase:
    """Symmetric base metric: closed-form node entries when available, else
    sampled only."""

    entries: object  # n x n nodes, or None
    provenance: str
    samples: object = None  # (points, stacked matrices)


def _im_omega_coefficient_forms(bs: BetaStructure):
    """For each base axis j, the fibre (n-1)-form of i(d/dy_j) Im Omega.

    Returns coeffs[j][i] = coefficient of dx_{1..n minus i} in the
    restriction to the fibre, read off the dy_j ^ dx_K terms of Im Omega:
    nodes, from Omega's expansion on the re/im pairs of beta (V is real).
    """
    omega = decomposable_form(bs.chart, bs.pairs, scale=bs.volume_node)
    _, im_form = omega.real_imag()
    axes = range(1, bs.n + 1)
    rows = [im_form.contract_base_vector(j) for j in axes]
    return [[row.coefficient(dxs=[a for a in axes if a != i]) for i in axes] for row in rows]


def _volume_form_gap(bs: BetaStructure, tol):
    """Sampled sup-norm of d(Omega), from the structure's table; warns above tol."""
    gap = float(_sampled(bs, ["full_closedness"])[0])
    if gap > tol:
        warnings.warn(
            f"volume form is not closed (residual {gap:.2e}); "
            "the base metric is still computed but loses its harmonic meaning",
            stacklevel=3)
    return gap


def _base_axes(chart: Chart, k):
    """k evenly spaced points across each side of the base box."""
    return [np.linspace(float(lo), float(hi), k) for lo, hi in chart.box]


def _fibre_axes(n, resolution, omit=None):
    """resolution circle points per fibre axis; the omitted (1-based) axis
    is held at 0, so the mean is over the coordinate subtorus without it."""
    return [np.zeros(1) if i == omit else circle_points(resolution) for i in range(1, n + 1)]


def _normalised_metric(bs: BetaStructure, base, resolution, extra):
    """Fibre means of V * gInv_ij, V and each extra integrand, in one pass.

    Returns (h_n, vol, extra_means): h_n[p] = <V gInv> / <V> and vol[p] =
    <V> at the p-th point of the base axes, and extra_means[k][p] the mean
    of extra[k].
    """
    chart, n = bs.chart, bs.n
    v = bs.volume_node
    means = fibre_means(
        [v * bs.pairs[i][j].im for i in range(n) for j in range(n)] + [v] + list(extra),
        chart, list(base) + _fibre_axes(n, resolution)).real
    vol = means[n * n]
    h_n = means[: n * n].T.reshape(len(vol), n, n) / vol[:, None, None]
    return h_n, vol, means[n * n + 1:]


def mclean_metrics(bs: BetaStructure, tol=DEFAULT_TOL):
    """Base metric by two routes, the normalised metric, and fibre data.

    Route one integrates the pairing -i(d/dy_i) omega ^ i(d/dy_j) Im Omega
    over the fibre; route two integrates V * gInv_ij, both on the 3^n base
    grid.  Returns a report carrying (h, h_n, vol) plus the cross-route
    agreement residual.
    """
    require_compatible(bs, tol)
    chart, n = bs.chart, bs.n
    coeffs = _im_omega_coefficient_forms(bs)
    closed_gap = _volume_form_gap(bs, tol)

    # exact fibre means where V and every V * gInv_ij are x-free or trig
    # polynomials; V's first, as a fibre-dependent V rules the rest out
    vol, v = fibre_mean(bs.volume_node, n), bs.volume_node
    h = None if vol is None else [[fibre_mean(v * e.im, n) for e in row] for row in bs.pairs]
    if h is None or any(e is None for row in h for e in row):
        vol = h = None
    provenance = "quadrature" if vol is None else "closed-form"

    base = _base_axes(chart, 3)
    pts = product_grid(base)
    entries = [(i, j) for i in range(n) for j in range(n)]
    # pairing route: h_ij picks the dx_{complement of axis i+1} coefficient
    # of i(d/dy_j) Im Omega, oriented by dx_i ^ dx_{complement} =
    # (-1)^i dx_{1..n} (0-based i)
    hn, vols, pairing = _normalised_metric(
        bs, base, FIBRE_RESOLUTION, [coeffs[j][i] for i, j in entries])
    signs = np.array([(-1) ** i for i, _ in entries])[:, None]
    h_quad = (signs * pairing).T.reshape(len(pts), n, n)
    h_formula = hn * vols[:, None, None]
    agreement = float(np.max(np.abs(h_quad - h_formula)))

    report = SemiflatReport()
    report.notes["volume_form_closed_residual"] = closed_gap
    report.add("metric_route_agreement", agreement, tol)
    report.add("metric_symmetry",
               float(np.max(np.abs(h_quad - np.transpose(h_quad, (0, 2, 1))))), tol)

    h_n = h and [[e / vol for e in row] for row in h]
    return {"h": MetricOnBase(h, provenance, samples=(pts, h_formula)),
            "h_n": MetricOnBase(h_n, provenance, samples=(pts, hn)),
            "vol": vol, "vol_samples": (pts, vols), "report": report}


# ---------------------------------------------------------------------------
# period embeddings
# ---------------------------------------------------------------------------

def period_one_form(bs: BetaStructure, gamma: CycleSpec, base=None):
    """Covector field psi(gamma): v -> -(1/Vol) * period of i(v) Im Omega.

    ``base`` holds the n 1-d base axes to sample (default: 5 points across
    each side of the box; n one-point axes give a single point).  Returns
    (points, values, residual): values[p][j] is the dy_j component at the
    p-th point of the axes' product, in row-major order, and residual is
    max |d_a psi_b - d_b psi_a| over those points, exact from the jets of
    the fibre means: with psi = -P/Vol, d psi = -(dP Vol - P dVol)/Vol^2.
    """
    require_compatible(bs)
    chart, n = bs.chart, bs.n
    if n < 2:
        raise DualityError("period embedding needs n >= 2")
    omit = _omitted_axis_coefficients(gamma, n)
    coeffs = _im_omega_coefficient_forms(bs)
    base = _base_axes(chart, 5) if base is None else list(base)
    vol, dvol = (m[0].real for m in fibre_means(
        [bs.volume_node], chart, base + _fibre_axes(n, FIBRE_RESOLUTION), jets=True))
    # periods[b] and dperiods[b][a] = d_a periods[b], at each base point
    periods, dperiods = np.zeros((n, len(vol))), np.zeros((n, n, len(vol)))
    for i in range(1, n + 1):
        if omit[i - 1] == 0:
            continue
        means, grads = fibre_means([coeffs[j][i - 1] for j in range(n)], chart,
                                   base + _fibre_axes(n, FIBRE_RESOLUTION, omit=i), jets=True)
        periods += omit[i - 1] * means.real
        dperiods += omit[i - 1] * grads.real
    dpsi = -(dperiods * vol - periods[:, None] * dvol) / vol ** 2
    residual = float(np.max(np.abs(dpsi - dpsi.swapaxes(0, 1))))
    return product_grid(base), (-periods / vol).T, residual


# ---------------------------------------------------------------------------
# duality identities
# ---------------------------------------------------------------------------

def duality_identities(bs: BetaStructure, gamma: CycleSpec, alpha,
                       tol=DEFAULT_TOL) -> SemiflatReport:
    """Three residuals tying periods, the base metric, and the embedding.

    alpha: fibre (n-1)-form as a map {omitted_axis: coefficient expr}; the
    omitted_axis i entry multiplies dx_1 ^ ... dx_i-hat ... ^ dx_n.
    """
    require_compatible(bs, tol)
    chart, n = bs.chart, bs.n
    y0 = gamma.at if gamma.at is not None else tuple(float(c) for c in chart.center)
    base = [np.array([float(c)]) for c in y0]
    omit = _omitted_axis_coefficients(gamma, n)
    v = cycle_tangent_vector(gamma, n)
    report = SemiflatReport()

    alpha = {int(i): as_field(c) for i, c in alpha.items()}
    coeffs = _im_omega_coefficient_forms(bs)
    report.notes["volume_form_closed_residual"] = _volume_form_gap(bs, tol)

    # periods over the subtorus omitting axis i: column i-1 of the sampled
    # class of Im Omega and, when gamma meets that subtorus, the alpha entry
    # (dx_{complement a} restricted to T_{omit i} vanishes unless a == i)
    lhs = 0.0
    periods = np.zeros((n, n))
    for i in range(1, n + 1):
        meets = omit[i - 1] != 0 and i in alpha
        exprs = [coeffs[r][i - 1] for r in range(n)] + ([alpha[i]] if meets else [])
        per = fibre_means(exprs, chart,
                          base + _fibre_axes(n, FIBRE_RESOLUTION, omit=i))[:, 0].real
        periods[:, i - 1] = per[:n]
        if meets:
            lhs += omit[i - 1] * per[n]

    # -integral over the fibre of i(v(gamma)) omega ^ alpha, i(v) omega = -sum v_i dx_i
    axes = [i for i in range(1, n + 1) if v[i - 1] != 0 and alpha.get(i, 0) != 0]
    hn, vol, means = _normalised_metric(bs, base, FIBRE_RESOLUTION,
                                        [alpha[i] for i in axes])
    hn, vol = hn[0], vol[0]
    rhs = 0.0
    for i, mean in zip(axes, means[:, 0]):
        # dx_i ^ dx_{complement i} = (-1)^(i-1) dx_{1..n}
        rhs += v[i - 1] * ((-1) ** (i - 1)) * mean
    report.add("cycle_vs_fibre_pairing", abs(lhs - rhs), tol)
    report.notes["cycle_integral"] = lhs
    report.notes["fibre_pairing_integral"] = rhs

    # period covector psi(gamma) = -(periods . omit) / Vol vs -h_n(v(gamma), .)
    psi = -(periods @ np.asarray(omit, dtype=float)) / vol
    defect = psi + hn @ np.asarray(v, dtype=float)
    report.add("period_vs_metric_embedding", float(np.max(np.abs(defect))), tol)

    # sampled class of Im Omega_n vs h_n, componentwise
    cls = periods * np.array([(-1) ** j for j in range(n)]) / vol
    report.add("normalised_class_vs_metric", float(np.max(np.abs(cls - hn))), tol)
    report.notes["class_matrix"] = cls.tolist()
    return report


# ---------------------------------------------------------------------------
# symmetric representatives of tensor classes
# ---------------------------------------------------------------------------

@dataclass
class SymTensorField:
    """sum alpha[i][j] dy_i (x) dy_j with y-only entries, kept as nodes (a
    sympy entry is converted once, here)."""

    chart: Chart
    entries: list

    def __post_init__(self):
        n = self.chart.n
        self.entries = [[as_field(self.entries[i][j]) for j in range(n)] for i in range(n)]
        if any(reads_fibre(e, self.chart) for row in self.entries for e in row):
            raise DualityError("tensor entries must depend on y only")

    def antisymmetric_defect(self):
        n = self.chart.n
        return [[self.entries[j][i] - self.entries[i][j] for j in range(n)] for i in range(n)]

    def is_symmetric(self):
        return all(is_zero(d) for row in self.antisymmetric_defect() for d in row)

    def is_gauss_manin_closed(self):
        """Every column sum_i alpha_ij dy_i is a closed base one-form."""
        return all(base_one_form_differential(column, self.chart).is_zero()
                   for column in zip(*self.entries))


def wedge_with_minus_omega(alpha: SymTensorField):
    """Base 2-form image sum_{i<j} (alpha_ij - alpha_ji) dy_i ^ dy_j."""
    n = alpha.chart.n
    defect = alpha.antisymmetric_defect()
    return {(i + 1, j + 1): defect[j][i] for i in range(n) for j in range(i + 1, n)
            if not is_zero(defect[j][i])}


def symmetric_class(alpha: SymTensorField):
    """Symmetrisation of a tensor-class representative: adds the gradient of
    a swapped potential so the output is exactly symmetric and differs from
    the input by a total derivative."""
    sp = require_sympy()

    if not alpha.is_gauss_manin_closed():
        raise DualityError(
            "representative is not a tensor cocycle (columns are not closed one-forms)")
    chart = alpha.chart
    n = chart.n
    ys = chart.ys
    rho = alpha.antisymmetric_defect()
    potential = base_potential(FormElement(
        chart, {((i + 1, j + 1), ()): rho[i][j] for i in range(n) for j in range(i + 1, n)}))
    beta = [potential.coefficient(dys=(j + 1,)) for j in range(n)]
    outside = ("sympy's antiderivative of the antisymmetric part is piecewise or "
               "outside the grammar")
    for i in range(n):
        for j in range(n):
            got = sp.expand(sp.diff(beta[j], ys[i]) - sp.diff(beta[i], ys[j]) - rho[i][j])
            if sp.simplify(got) != 0:
                raise DualityError(outside)
    out = [[sp.expand(alpha.entries[i][j] + sp.diff(beta[j], ys[i]))
            for j in range(n)] for i in range(n)]
    try:
        # the tensor, not its potential, needs a node form: log(y1) is a
        # potential of the grammar column (1/y1, 0)
        result = SymTensorField(chart, out)
    except (UnsupportedNode, GrammarError):
        raise DualityError(outside) from None
    if not result.is_symmetric():
        raise DualityError("symmetrisation failed to produce a symmetric tensor")
    return result


# ---------------------------------------------------------------------------
# dualisation
# ---------------------------------------------------------------------------

def dual_structure_check(bs: BetaStructure, tol=DEFAULT_TOL) -> SemiflatReport:
    """Dualise a fibre-constant structure and verify metric and volume duality.

    The dual inverse metric is the normalised base metric h_n; the dual
    fibre volume integrates over the period lattice, i.e. carries the
    covolume factor det(h_n).  Every integrand (V, h_n and the dual's
    V * gInv) is fibre-constant, so each fibre mean is its value at one
    fibre point, and no fibre grid is read.
    """
    require_compatible(bs, tol)
    chart, n = bs.chart, bs.n
    h_n = [[entry.im for entry in row] for row in bs.pairs]
    if any(reads_fibre(e, chart) for row in h_n for e in row):
        raise DualityError("dualisation needs a fibre-constant metric")
    dual = BetaStructure(chart, [[Pair(ZERO, e) for e in row] for row in h_n])

    require_compatible(dual, tol)
    report = SemiflatReport()
    report.notes["volume_form_closed_residual"] = _volume_form_gap(dual, tol)
    base = _base_axes(chart, 3)
    pts = product_grid(base)
    mats, dual_vols, (vols, *expect) = _normalised_metric(
        dual, base, 1, [bs.volume_node] + [e for row in h_n for e in row])
    expect = np.array(expect).T.reshape(len(pts), n, n)
    dual_vols = dual_vols * np.linalg.det(expect)
    # each defect is a fibre mean at a base point: its worst point has no x
    for name, defect, limit in (
            ("dual_metric_match", np.abs(mats - expect).reshape(len(pts), -1).max(axis=1), tol),
            ("volume_reciprocity", np.abs(vols * dual_vols - 1), RECIPROCITY_TOL)):
        worst = int(np.argmax(defect))
        report.add(name, float(defect[worst]), limit, (tuple(map(float, pts[worst])), ()))
    report.notes["vol_samples"] = vols.tolist()
    report.notes["dual_vol_samples"] = dual_vols.tolist()
    return report
