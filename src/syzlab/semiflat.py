"""Semi-flat structures from a beta-matrix and their structure equations.

A BetaStructure packages the n x n complex matrix beta = b + i*gInv on a
chart: b is the Ehresmann-connection matrix, gInv the inverse fibre metric.
The candidate holomorphic volume form is Omega = V * exp(beta) with
V = 1/sqrt(det Im beta).  d(Omega) = 0 splits into two complex residuals:
integrability d_y(beta) - [beta, beta]/2 = connection_curvature +
i*covariant_metric, and volume divergence d_y(V) - d_x'(V*beta) =
parallel_volume - i*fibre_harmonic.  The four structure equations are their
real and imaginary parts.

beta's entries are kept as the two real expression nodes of each entry
(``fields.Pair``), so b and gInv are read off, not recomputed; det gInv and
V are nodes too.  Every exact construction (Omega, the residual elements,
translations, the Hessian determinant) runs on these nodes; sympy is
imported only where something is integrated (``base_potential`` and
``action_coordinates``' antiderivative check).

Each residual has one builder, a function of (chart, beta, V) over the
graded algebra.  On node entries it gives the exact identity; the reported
magnitudes come from the same builders run on first-order numeric jets
(``fields.Jet``): the entries of beta with their first partials, from one
``fields.Walk`` of their trees, and V with dV = -V d(det)/(2 det), sampled on
the chart's fixed grid of 5 base x 8 fibre points per axis, each chart
variable on its own axis: every jet, and every residual made from them, is an
array over the axes of the variables it depends on, so an x-free beta is
sampled at the 5^n base points only.  Every residual needs first derivatives
only.  Each structure keeps one table of sampled residual peaks (|z|, |Re z|,
|Im z| and where each is reached) by name, and the least eigenvalue of Im beta:
one walk of beta's jets fills every entry a request lacks, each residual is
sampled once, and every report selects from the table.

Hessian (Hitchin) structures and the coupling integral live here too: a
potential's Hessian is taken with the node ``diff``, its determinant by
Leibniz, and the coupling integrand V^2 * (direction determinants) is one
node; none of them needs sympy.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np

from .algebra import (
    BigradedElement,
    FormElement,
    Jet,
    bracket,
    d_x_prime,
    d_y,
    decomposable_form,
    exp_nilpotent,
    sort_with_sign,
)
from .charts import Chart
from .fields import (
    ZERO,
    GrammarError,
    Pair,
    Peaks,
    Walk,
    as_field,
    power,
    principal_power,
    require_fibre_periodic,
    require_sympy,
    sample_point,
    sup_norm_scalars,
    to_sympy,
    variables,
)
from .quadrature import chart_integral

DEFAULT_TOL = 1e-8
# fibre quadrature points per axis, where no caller chooses them
FIBRE_RESOLUTION = 16
POSITIVITY_FLOOR = 1e-9
# the most points a sub-box of jets spans on the axes beta reads, whose leading
# axes are split one point at a time until the rest span at most this many: a
# builder holds a few hundred arrays of this size at once (d(Omega) at n = 3)
_JET_ROWS = 4096


class CompatibilityError(ValueError):
    """Raised when beta is not symmetric positive-imaginary where required."""


class DualityError(ValueError):
    """Raised for invalid potentials, twists, cycles and dualisation input."""


@dataclass
class ResidualCheck:
    value: float
    tol: float
    # the sample point (y, x) of the sampled peak, where there is one
    worst_point: tuple = None

    @property
    def passed(self):
        return bool(self.value < self.tol)


@dataclass
class SemiflatReport:
    """Named residual norms with verdicts at their tolerances."""

    checks: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def add(self, name, value, tol=DEFAULT_TOL, worst_point=None):
        self.checks[name] = ResidualCheck(float(value), float(tol), worst_point)

    def __getitem__(self, name):
        return self.checks[name]

    def verdict(self, name):
        return self.checks[name].passed

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks.values())


def _pair(entry):
    """An entry of beta as a Pair of real nodes (sympy through from_sympy)."""
    entry = as_field(entry)
    return entry if isinstance(entry, Pair) else Pair(entry, ZERO)


class BetaStructure:
    """beta = b + i*gInv on a chart, kept as ``pairs``, the re/im nodes of
    each entry; ``det_node`` is det gInv, by Leibniz on the nodes, and
    ``volume_node`` is V = sqrt(det g) = 1/sqrt(det Im beta)."""

    def __init__(self, chart: Chart, beta):
        self.chart = chart
        n = chart.n
        self.pairs = [[_pair(beta[i][j]) for j in range(n)] for i in range(n)]
        for row in self.pairs:
            for entry in row:
                require_fibre_periodic(entry, n)
        # sampled residuals by name, filled by _sampled: a SupNorm each, and
        # for "positivity" the least eigenvalue of Im beta and where
        self._samples = {}

    @property
    def n(self):
        return self.chart.n

    @functools.cached_property
    def det_node(self):
        return _determinant([[e.im for e in row] for row in self.pairs])

    @functools.cached_property
    def volume_node(self):
        """V as a node, for a compatible structure (det gInv > 0 on the box):
        the root is distributed over det's factors, or where that needs Abs
        (det = y1^2) det^(-1/2) stays one factor, the principal root; a
        constant det <= 0 (0 where Im beta is singular) is refused."""
        det = self.det_node
        if det.op == "num" and det.args <= 0:
            raise CompatibilityError(f"det Im(beta) is the constant {det}")
        try:
            return power(det, Fraction(-1, 2))
        except GrammarError:
            return principal_power(det, Fraction(-1, 2))

    def beta_element(self) -> BigradedElement:
        return BigradedElement.from_matrix(self.chart, self.pairs)

    def b_element(self) -> BigradedElement:
        return BigradedElement.from_matrix(self.chart, _part(self.pairs, 0))

    def g_inv_element(self) -> BigradedElement:
        return BigradedElement.from_matrix(self.chart, _part(self.pairs, 1))

    @functools.cached_property
    def _walk(self):
        """One evaluator of beta's entries, row by row."""
        return Walk([entry for row in self.pairs for entry in row], self.chart)

    def _beta_jets(self):
        """(index, jets) over the sample grid, the sub-box (see _JET_ROWS)
        ``index`` of ``chart.sample_axes()`` at a time: jets[i][j] is the Jet
        of beta[i][j] there."""
        n = self.n
        for index, jets in self._walk.grid(self.chart.sample_axes(), _JET_ROWS, jets=True):
            yield index, [jets[i * n:(i + 1) * n] for i in range(n)]


def _determinant(matrix):
    """The Leibniz determinant, entries of any coefficient type; a term's
    sign is applied by subtraction (the identity's term, first, is added)."""
    total = 0
    for perm in permutations(range(len(matrix))):
        term = functools.reduce(operator.mul, (matrix[i][j] for i, j in enumerate(perm)))
        total = total + term if sort_with_sign(perm)[1] > 0 else total - term
    return total


def _volume_jet(beta):
    """V = det(Im beta)^(-1/2) as a jet, with dV = -V d(det)/(2 det)."""
    det = _determinant(_part(beta, 1))
    V = 1 / np.sqrt(det.value + 0j)
    V = complex(V) if np.ndim(V) == 0 else V
    return Jet(V, {v: -V * p / (2 * det.value) for v, p in det.partials.items()})


def pointwise_checks(bs: BetaStructure, tol=DEFAULT_TOL) -> SemiflatReport:
    """Symmetry and positivity residuals at samples."""
    rep = _sampled_report(bs, ["symmetry"], tol)
    mineig, worst = _sampled(bs, ["positivity"])[0]
    rep.checks["positivity"] = ResidualCheck(-mineig, -POSITIVITY_FLOOR, worst)
    rep.notes["min_imbeta_eigenvalue"] = mineig
    rep.notes["worst_point"] = worst
    return rep


def require_compatible(bs: BetaStructure, tol=DEFAULT_TOL):
    rep = pointwise_checks(bs, tol=tol)
    if not rep.verdict("symmetry"):
        raise CompatibilityError(
            f"beta is not symmetric (residual {rep['symmetry'].value:.3e})")
    if rep.notes["min_imbeta_eigenvalue"] <= POSITIVITY_FLOOR:
        raise CompatibilityError(
            "Im(beta) is not positive definite; min eigenvalue "
            f"{rep.notes['min_imbeta_eigenvalue']:.3e} at {rep.notes['worst_point']}")
    return rep


def build_omega(bs: BetaStructure) -> BigradedElement:
    """The volume form V * exp(beta) as a bigraded element."""
    require_compatible(bs)
    return exp_nilpotent(bs.beta_element()).scale(bs.volume_node)


def omega_form(bs: BetaStructure) -> FormElement:
    """Direct wedge expansion V * prod(dx_i + sum beta_ij dy_j)."""
    return decomposable_form(bs.chart, bs.pairs, scale=bs.volume_node)


# the residual builders: functions of (chart, beta, V), on exact entries or jets

def _d_omega(chart, beta, V) -> FormElement:
    """d(V * prod(dx_i + sum beta_ij dy_j))."""
    return decomposable_form(chart, beta, scale=V).exterior_derivative()


def _connection_curvature(chart, beta) -> BigradedElement:
    """F = d_y(beta) - [beta, beta]/2, a bidegree (-1, 2) element."""
    element = BigradedElement.from_matrix(chart, beta)
    return d_y(element) - bracket(element, element).scale(Fraction(1, 2))


def _volume_divergence_residual(chart, beta, V) -> BigradedElement:
    """d_y(V) - d_x'(V * beta), the degree-(0,1) piece of d(Omega) = 0."""
    return (d_y(BigradedElement.term(chart, V))
            - d_x_prime(BigradedElement.from_matrix(chart, beta).scale(V)))


def integrability_residual(bs: BetaStructure) -> BigradedElement:
    """d_y(beta) - [beta, beta]/2, a bidegree (-1, 2) element."""
    return _connection_curvature(bs.chart, bs.pairs)


def _part(beta, k):
    """The real (k = 0) or imaginary (k = 1) parts of beta's entries."""
    return [[entry.as_real_imag()[k] for entry in row] for row in beta]


# each sampled residual by name: the coefficients whose sup-norm it is
_RESIDUALS = {
    "symmetry": lambda chart, beta, V: [beta[i][j] - beta[j][i] for i in range(chart.n)
                                        for j in range(i + 1, chart.n)],
    "full_closedness": lambda chart, beta, V: _d_omega(chart, beta, V).terms.values(),
    "volume_divergence":
        lambda chart, beta, V: _volume_divergence_residual(chart, beta, V).terms.values(),
    "integrability": lambda chart, beta, V: _connection_curvature(chart, beta).terms.values(),
    "connection_flatness":
        lambda chart, beta, V: _connection_curvature(chart, _part(beta, 0)).terms.values(),
    "metric_fibre_gradient": lambda chart, beta, V: [g.diff(x) for row in _part(beta, 1)
                                                     for g in row for x in chart.xs],
    "volume_fibre_gradient": lambda chart, beta, V: [V.diff(x) for x in chart.xs],
}


def _least_eigenvalue(beta, axes, index):
    """The least eigenvalue of sym(Im beta) on one sub-box of jets, and
    where; a beta not finite there is a GrammarError."""
    vals = np.stack(np.broadcast_arrays(*[entry.value for row in beta for entry in row]))
    n, points = len(beta), vals.shape[1:]
    finite = np.isfinite(vals).all(axis=0)
    if not finite.all():
        y, x = sample_point(axes, index, points, int(np.argmin(finite)))
        raise GrammarError(f"beta is not finite at the sample point y = {y}, x = {x}")
    mats = vals.imag.reshape(n * n, -1).T.reshape(-1, n, n)
    eig = np.linalg.eigvalsh(0.5 * (mats + np.transpose(mats, (0, 2, 1))))[:, 0]
    idx = int(np.argmin(eig))
    return float(eig[idx]), sample_point(axes, index, points, idx)


@np.errstate(all="ignore")
def _sampled(bs: BetaStructure, names):
    """The named entries of the structure's table of samples, the missing
    ones from one walk of beta's jets.  Until the table holds "positivity",
    each sub-box takes it first, so that a beta with a pole on the grid is
    rejected before a residual is built there; the table is written after
    the walk, so a rejected beta leaves no entries."""
    table, axes = bs._samples, bs.chart.sample_axes()
    positivity = "positivity" not in table
    new = [name for name in names if name not in table and name != "positivity"]
    if positivity or new:
        least, peaks = (np.inf, None), Peaks(len(new))
        for index, beta in bs._beta_jets():
            if positivity:
                least = min(least, _least_eigenvalue(beta, axes, index), key=lambda e: e[0])
            if new:
                V = _volume_jet(beta)
                for k, name in enumerate(new):
                    values = [c.value for c in _RESIDUALS[name](bs.chart, beta, V) if c != 0]
                    if values:
                        peaks.add(k, values, axes, index)
        if positivity:
            table["positivity"] = least
        table.update(zip(new, peaks.norms()))
    return [table[name] for name in names]


def _sampled_report(bs: BetaStructure, names, tol) -> SemiflatReport:
    """One check per named residual: its sampled max |z| against tol."""
    rep = SemiflatReport()
    for name, peak in zip(names, _sampled(bs, names)):
        rep.add(name, peak, tol, peak.at)
    return rep


def closedness_residuals(bs: BetaStructure, tol=DEFAULT_TOL) -> SemiflatReport:
    """Full d(Omega) residual, the volume-divergence residual, and integrability.

    The three verdicts satisfy: closed iff (integrable and divergence-free);
    the report records both sides so the equivalence is testable.
    """
    require_compatible(bs, tol)
    rep = _sampled_report(bs, ["full_closedness", "volume_divergence", "integrability"], tol)
    rep.notes["equivalence_consistent"] = (
        rep.verdict("full_closedness")
        == (rep.verdict("volume_divergence") and rep.verdict("integrability"))
    )
    return rep


def structure_equations(bs: BetaStructure, tol=DEFAULT_TOL) -> SemiflatReport:
    """Real/imaginary split of the two closedness conditions, four named residuals.

    integrability = connection_curvature + i * covariant_metric:
        connection_curvature = F_b + [gInv, gInv]/2, F_b = d_y(b) - [b, b]/2
        covariant_metric     = d_y(gInv) - [b, gInv]
    volume_divergence = parallel_volume - i * fibre_harmonic:
        parallel_volume_j    = dV/dy_j - sum_i d(V * b_ij)/dx_i
        fibre_harmonic_j     = sum_i d(V * gInv_ij)/dx_i
    Each value is the sampled max |Re| or |Im| of its closedness residual.
    """
    require_compatible(bs, tol)
    integrability, divergence = _sampled(bs, ["integrability", "volume_divergence"])
    rep = SemiflatReport()
    rep.add("connection_curvature", integrability.re, tol, integrability.re_at)
    rep.add("covariant_metric", integrability.im, tol, integrability.im_at)
    rep.add("fibre_harmonic", divergence.im, tol, divergence.im_at)
    rep.add("parallel_volume", divergence.re, tol, divergence.re_at)
    return rep


# ---------------------------------------------------------------------------
# fibrewise translations, action coordinates, regluing
# ---------------------------------------------------------------------------

def reads_fibre(expr, chart: Chart):
    """Whether expr (a node, Pair or number) reads a fibre variable of the
    chart."""
    return bool(variables(expr) & {x.name for x in chart.xs})


def _check_base_one_form(sigma, chart):
    """The components of a base one-form as nodes (sympy through from_sympy)."""
    sigma = [as_field(s) for s in sigma]
    if len(sigma) != chart.n:
        raise ValueError("section must give one component per base axis")
    if any(reads_fibre(s, chart) for s in sigma):
        raise ValueError("section components must depend on y only")
    return sigma


def translate_by_section(bs: BetaStructure, sigma) -> BetaStructure:
    """Fibrewise translation x -> x + sigma(y) acting on beta.

    New matrix: beta_ij(y, x + sigma(y)) + d(sigma_i)/dy_j.
    """
    sigma = _check_base_one_form(sigma, bs.chart)
    n, xs, ys = bs.n, bs.chart.xs, bs.chart.ys
    shift = {xs[i]: xs[i] + sigma[i] for i in range(n)}
    new = [[bs.pairs[i][j].subs(shift) + sigma[i].diff(ys[j]) for j in range(n)]
           for i in range(n)]
    return BetaStructure(bs.chart, new)


def base_one_form_differential(sigma, chart: Chart) -> FormElement:
    """d(sigma) for a base one-form, as a base 2-form."""
    sigma = _check_base_one_form(sigma, chart)
    form = FormElement(chart, {((i + 1,), ()): s for i, s in enumerate(sigma)})
    return form.exterior_derivative()


def base_potential(form: FormElement) -> FormElement:
    """A potential of a closed base form (the caller checks closedness) by the
    Poincare lemma, axis by axis from the box centre: the terms led by dy_a
    integrate along y_a, and the rest, read at y_a = centre, goes on."""
    sp = require_sympy()

    chart = form.chart
    t = sp.Dummy("t", real=True)
    potential, rest = FormElement(chart), form
    for a, (y, c) in enumerate(zip(chart.ys, chart.center), start=1):
        y, later = to_sympy(y), FormElement(chart)
        for (jset, kset), coeff in rest.terms.items():
            coeff = to_sympy(coeff)
            if jset[:1] == (a,):
                potential.add_term(jset[1:], kset, sp.integrate(coeff.subs(y, t), (t, c, y)))
            else:
                later.add_term(jset, kset, coeff.subs(y, c))
        rest = later
    return potential


def action_coordinates(period_forms, chart: Chart):
    """Potentials u_i with du_i = lambda_i, pinned to zero at the box centre.

    period_forms: list of closed base one-forms (component lists).  Raises
    on non-closed input or on a degenerate Jacobian at the sample grid.
    """
    sp = require_sympy()

    ys = chart.ys
    potentials, jacobian = [], []
    for lam in period_forms:
        lam = _check_base_one_form(lam, chart)
        dlam = base_one_form_differential(lam, chart)
        if not dlam.is_zero():
            raise ValueError(f"period form {lam} is not closed: d = {dlam}")
        u = base_potential(FormElement(
            chart, {((k + 1,), ()): c for k, c in enumerate(lam)})).coefficient()
        grad = [sp.expand(sp.diff(u, ys[k]) - lam[k]) for k in range(chart.n)]
        if any(sp.simplify(g) != 0 for g in grad):
            raise ValueError("antiderivative not expressible in the grammar")
        potentials.append(u)
        jacobian.extend(lam)  # du = lam is the Jacobian's row
    axes = chart.sample_axes()[:chart.n] + (np.zeros(1),) * chart.n
    ((_, vals),) = Walk(jacobian, chart).grid(axes)
    vals = np.stack(np.broadcast_arrays(*vals), axis=-1).real
    dets = np.linalg.det(vals.reshape(-1, chart.n, chart.n))
    if np.min(np.abs(dets)) < 1e-12:
        raise ValueError("period forms are pointwise dependent on the box")
    return potentials


def reglue_check(sigma_12, overlap_chart: Chart):
    """Overlap cocycle test: valid iff the gluing one-form is closed.

    Returns (verdict, transition) where transition carries the fibrewise
    shift x -> x + sigma_12(y), each component as grammar text.
    """
    sigma = _check_base_one_form(sigma_12, overlap_chart)
    dsig = base_one_form_differential(sigma, overlap_chart)
    verdict = dsig.is_zero() or dsig.sup_norm() < 1e-12
    transition = {
        "kind": "fibre_translation",
        "shift": [str(s) for s in sigma],
    }
    return bool(verdict), transition


def flatness_probe(bs: BetaStructure, tol=DEFAULT_TOL) -> SemiflatReport:
    """Hypotheses: d(Omega) = 0 and flat connection; conclusion: fibre-constant metric.

    Reports the curvature and closedness residuals, plus the sup of fibre
    gradients of the metric entries and of V.  On a single chart the
    testable conclusion is constancy along the fibre directions; global
    constancy of V on compact fibres is outside a one-chart model.
    """
    require_compatible(bs, tol)
    rep = _sampled_report(bs, ["connection_flatness", "full_closedness",
                               "metric_fibre_gradient", "volume_fibre_gradient"], tol)
    hyp = rep.verdict("connection_flatness") and rep.verdict("full_closedness")
    rep.notes["hypotheses_hold"] = hyp
    rep.notes["conclusion_holds"] = (
        rep.verdict("metric_fibre_gradient") and rep.verdict("volume_fibre_gradient")
        if hyp else None
    )
    return rep


# ---------------------------------------------------------------------------
# potential-generated structures and the coupling integral
# ---------------------------------------------------------------------------

@dataclass
class HitchinPotential:
    """Convex potential on the base; its Hessian is the inverse fibre metric."""

    chart: Chart
    phi: object

    def __post_init__(self):
        self.phi = as_field(self.phi)
        if reads_fibre(self.phi, self.chart):
            raise DualityError("potential must depend on the base variables only")

    @property
    def hessian(self):
        ys = self.chart.ys
        return [[self.phi.diff(a).diff(b) for b in ys] for a in ys]


def hitchin(potential: HitchinPotential, b_field=None, tol=DEFAULT_TOL):
    """Structure with inverse metric Hess(phi), optionally twisted by b.

    Returns (structure, info): info carries the determinant-constancy
    residual of the Hessian, which decides closedness in action-angle
    coordinates, its exact value at the box centre (a node, a number node
    where it is rational), and the closedness report itself.
    """
    chart = potential.chart
    hess = potential.hessian
    n = chart.n
    beta = [[Pair(ZERO, hess[i][j]) for j in range(n)] for i in range(n)]
    if b_field is not None:
        if not b_field.is_symmetric():
            raise DualityError("twist tensor must be symmetric")
        beta = [[_pair(b) + entry for b, entry in zip(*rows)]
                for rows in zip(b_field.entries, beta)]
    bs = BetaStructure(chart, beta)
    require_compatible(bs, tol)

    centre = {y.name: c for y, c in zip(chart.ys, chart.center)}
    det_centre = bs.det_node.subs(centre)
    det_residual = sup_norm_scalars([bs.det_node - det_centre], chart)
    closed = closedness_residuals(bs, tol)
    info = {
        "determinant_residual": det_residual,
        "determinant_value": det_centre,
        "closedness": closed,
        "criterion_consistent":
            (det_residual < tol) == closed.verdict("full_closedness"),
    }
    return bs, info


ORIENTATION_SIGN = {1: 1, 2: -1, 3: -1}  # (-1)^(n(n-1)/2)


class YukawaFamily:
    """Affine family beta(b) = base + sum_k b_k * direction_k."""

    def __init__(self, base: BetaStructure, directions):
        self.base = base
        n = base.n
        if len(directions) != n:
            raise DualityError("need one twist direction per base axis")
        self.directions = [[[_pair(d[i][j]) for j in range(n)] for i in range(n)]
                           for d in directions]


def yukawa(family: YukawaFamily, resolution=FIBRE_RESOLUTION, base_resolution=8):
    """Coupling integral over the chart of V^2 times the direction determinants.

    Returns (value, oracle) where oracle is the constant integrand's exact
    value times the box volume (None when the integrand is not constant).
    """
    bs = family.base
    require_compatible(bs)
    chart, n = bs.chart, bs.n
    sign = ORIENTATION_SIGN[n]
    det_sum = Pair(ZERO, ZERO)
    for perm in permutations(range(n)):
        det_sum = det_sum + _determinant(
            [[family.directions[perm[i]][i][j] for j in range(n)] for i in range(n)])
    integrand = power(bs.det_node, -1) * det_sum

    oracle = None
    if not variables(integrand):
        # a rational constant folds to a number node, whose value rounds once
        scaled = (sign * chart.box_volume) * integrand
        oracle = complex(*(part.value().real for part in scaled.as_real_imag()))

    total = chart_integral(integrand, chart, base_resolution, resolution)
    return sign * total, oracle
