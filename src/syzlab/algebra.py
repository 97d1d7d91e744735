"""The bigraded algebra of dy-forms with polyvector coefficients on a chart.

An element is a sparse sum of terms  c(y, x) * dy_J (x) d/dx_I  with J and I
strictly increasing index tuples; the term has bidegree (p, q) = (-|I|, |J|).
The product wedges both factors separately, which gives the commutation sign
(-1)^(p*p' + q*q') between homogeneous pieces.

The isomorphism with ordinary differential forms sends dy_J (x) d/dx_I to
dy_J ^ i(d/dx_I) (dx_1 ^ ... ^ dx_n), where contracting the full coordinate
polyvector into the fibre volume form follows the sign rule
i(d/dx_I) dx_{1..n} = (-1)^M dx_{I*} with I* the complement of I and
M = #{(i, j) : i in I, j in I*, i > j}.  Forms are kept with all dy factors
in front of all dx factors.

Both element types share one sparse term store, (J, K) -> coefficient;
every reordering sign comes from sorting in ``add_term``.  A coefficient is
an expression node or ``Pair`` (from ``fields``), an expanded sympy
expression, or a ``Jet``: the sampled values of a field with its first
partials.  The operators differentiate through ``c.diff(v)`` in the chart
variables and combine coefficients with ``+`` and ``*`` only, so one set of
builders gives the exact identities on nodes or sympy coefficients and their
sampled values on jets.  Only a sympy coefficient imports sympy.  A zero
sum is dropped from the store where it is one node (or an expanded sympy
zero); ``is_zero`` expands the node coefficients, so an element whose
coefficients cancel only once multiplied out is zero too.

Three graded operators act here: d_x (the fibre part of the exterior
derivative, transported through the isomorphism; second order as a
differential operator on the algebra), d_y (the base part; first order) and
d_x' which rescales d_x by (-1)^(p+q+1) on bidegree (p, q).  The bracket is
the second-order defect of d_x'.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .charts import Chart, require_same_chart
from .fields import (
    ONE,
    ZERO,
    DegreeError,
    Jet,
    Node,
    Pair,
    is_sympy,
    as_field,
    is_zero,
    sup_norm_scalars,
)

# ---------------------------------------------------------------------------
# index bookkeeping
# ---------------------------------------------------------------------------

def sort_with_sign(indices):
    """Sort an index tuple, returning (sorted, sign) or (None, 0) on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None, 0
    sign = 1
    # insertion sort; fine for length <= 3
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


def complement_sign(iset, n):
    """Sign (-1)^M for contracting d/dx_I into dx_1^...^dx_n."""
    istar = tuple(j for j in range(1, n + 1) if j not in iset)
    M = sum(1 for i in iset for j in istar if i > j)
    return istar, (-1) ** M


def _coefficient(coeff):
    """A jet or sympy expression as it is; any other coefficient as a node
    or Pair."""
    return coeff if isinstance(coeff, Jet) or is_sympy(coeff) else as_field(coeff)


# ---------------------------------------------------------------------------
# the shared term store
# ---------------------------------------------------------------------------

class _Terms:
    """Sparse map (J, K) -> coefficient over a fixed chart."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms=None):
        self.chart = chart
        self.terms = {}
        if terms:
            for (jset, kset), coeff in terms.items():
                self.add_term(jset, kset, coeff)

    def add_term(self, jset, kset, coeff):
        """Add coeff * (J, K) for unsorted J, K: sorting gives the sign, and a
        repeated index drops the term; an index above n raises DegreeError.
        A sympy sum is expanded, and a zero sum is dropped."""
        jset, jsign = sort_with_sign(jset)
        kset, ksign = sort_with_sign(kset)
        if jset is None or kset is None:
            return
        n = self.chart.n
        if jset and jset[-1] > n or kset and kset[-1] > n:
            raise DegreeError(f"index out of range for dimension {n}")
        key = (jset, kset)
        coeff = jsign * ksign * coeff
        old = self.terms.get(key)
        new = coeff if old is None else old + coeff
        if is_sympy(new):
            new = new.expand()
        elif not isinstance(new, (Jet, Node, Pair)):
            new = as_field(new)
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @classmethod
    def zero(cls, chart):
        return cls(chart)

    def __add__(self, other):
        require_same_chart(self.chart, other.chart)
        out = type(self)(self.chart)
        for (j, k), c in self.terms.items():
            out.add_term(j, k, c)
        for (j, k), c in other.terms.items():
            out.add_term(j, k, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        out = type(self)(self.chart)
        for (j, k), c in self.terms.items():
            out.add_term(j, k, factor * c)
        return out

    def _product(self, other, interleaved):
        """Wedge J with J' and K with K' term by term; ``interleaved`` factors
        read J K J' K', so moving J' past K costs (-1)^(|K| |J'|).  A pair
        sharing a J or a K index is zero and is skipped before multiplying."""
        require_same_chart(self.chart, other.chart)
        out = type(self)(self.chart)
        for (j1, k1), c1 in self.terms.items():
            for (j2, k2), c2 in other.terms.items():
                if not set(j1).isdisjoint(j2) or not set(k1).isdisjoint(k2):
                    continue
                cross = (-1) ** (len(k1) * len(j2)) if interleaved else 1
                out.add_term(j1 + j2, k1 + k2, cross * c1 * c2)
        return out

    def coefficient(self, dys=(), dxs=()):
        jset, jsign = sort_with_sign(dys)
        kset, ksign = sort_with_sign(dxs)
        if jset is None or kset is None:
            return ZERO
        return jsign * ksign * self.terms.get((jset, kset), ZERO)

    def is_zero(self):
        """Whether every coefficient is identically zero (``fields.is_zero``:
        a node coefficient is expanded)."""
        return all(is_zero(c) for c in self.terms.values())

    def real_imag(self):
        """Coefficientwise real and imaginary parts, as two elements of this type."""
        re, im = type(self)(self.chart), type(self)(self.chart)
        for (j, k), c in self.terms.items():
            cr, ci = c.as_real_imag()
            re.add_term(j, k, cr)
            im.add_term(j, k, ci)
        return re, im

    def sup_norm(self, base_k=5, fibre_k=8):
        return sup_norm_scalars(self.terms.values(), self.chart, base_k, fibre_k)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class BigradedElement(_Terms):
    """Sparse map (J, I) -> coefficient of dy_J (x) d/dx_I."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------
    @classmethod
    def unit(cls, chart):
        return cls.term(chart, 1)

    @classmethod
    def term(cls, chart, coeff, dys=(), dxs=()):
        e = cls(chart)
        e.add_term(dys, dxs, _coefficient(coeff))
        return e

    @classmethod
    def from_matrix(cls, chart, matrix):
        """Build sum_{i,j} m[i][j] dy_j (x) d/dx_i from an n x n matrix."""
        e = cls(chart)
        n = chart.n
        for i in range(n):
            for j in range(n):
                c = _coefficient(matrix[i][j])
                if c != 0:
                    e.add_term((j + 1,), (i + 1,), c)
        return e

    # -- ring structure ----------------------------------------------------
    def __mul__(self, other):
        if not isinstance(other, _Terms):
            return self.scale(other)
        return self._product(other, interleaved=False)

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------------
    def bidegrees(self):
        return sorted({(-len(i), len(j)) for (j, i) in self.terms})

    def is_homogeneous(self, bidegree=None):
        degs = self.bidegrees()
        if bidegree is None:
            return len(degs) <= 1
        return degs in ([], [tuple(bidegree)])

    def homogeneous_pieces(self):
        pieces = {}
        for (j, i), c in self.terms.items():
            deg = (-len(i), len(j))
            pieces.setdefault(deg, BigradedElement(self.chart)).add_term(j, i, c)
        return pieces

    def __repr__(self):
        if not self.terms:
            return "BigradedElement(0)"
        bits = []
        for (j, i), c in sorted(self.terms.items()):
            dy = "^".join(f"dy{k}" for k in j) or "1"
            dx = "^".join(f"dx{k}" for k in i) or "1"
            bits.append(f"({c}) {dy} (x) d/{dx}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# ordinary differential forms (oracle side of the isomorphism)
# ---------------------------------------------------------------------------

class FormElement(_Terms):
    """Sparse differential form sum_{J,K} c dy_J ^ dx_K on a chart."""

    __slots__ = ()

    def wedge(self, other):
        return self._product(other, interleaved=True)

    def exterior_derivative(self):
        out = FormElement(self.chart)
        ys, xs = self.chart.ys, self.chart.xs
        for (jset, kset), c in self.terms.items():
            for a, y in enumerate(ys, start=1):
                dc = c.diff(y)
                if dc != 0:
                    out.add_term((a,) + jset, kset, dc)
            for a, x in enumerate(xs, start=1):
                dc = c.diff(x)
                if dc != 0:
                    # dx_a moves in front of dx_K past every dy factor
                    out.add_term(jset, (a,) + kset, ((-1) ** len(jset)) * dc)
        return out

    def contract_base_vector(self, j):
        """Front-slot contraction with the base vector d/dy_j."""
        out = FormElement(self.chart)
        for (jset, kset), c in self.terms.items():
            if j not in jset:
                continue
            pos = jset.index(j)
            rest = jset[:pos] + jset[pos + 1:]
            out.add_term(rest, kset, ((-1) ** pos) * c)
        return out

    def __repr__(self):
        if not self.terms:
            return "FormElement(0)"
        bits = []
        for (j, k), c in sorted(self.terms.items()):
            gens = [f"dy{a}" for a in j] + [f"dx{a}" for a in k]
            bits.append(f"({c}) " + ("^".join(gens) or "1"))
        return " + ".join(bits)


def wedge_one_forms(chart, one_forms):
    """Wedge a list of 1-forms given as {('y'|'x', index): coeff} maps."""
    out = FormElement(chart, {((), ()): 1})
    for form in one_forms:
        one = FormElement(chart)
        for (kind, idx), coeff in form.items():
            dys, dxs = ((idx,), ()) if kind == "y" else ((), (idx,))
            one.add_term(dys, dxs, coeff)
        out = out.wedge(one)
    return out


# ---------------------------------------------------------------------------
# the isomorphism with forms
# ---------------------------------------------------------------------------

def to_form(element: BigradedElement) -> FormElement:
    """Send dy_J (x) d/dx_I to dy_J ^ i(d/dx_I)(dx_1 ^ ... ^ dx_n)."""
    n = element.chart.n
    out = FormElement(element.chart)
    for (jset, iset), c in element.terms.items():
        istar, sign = complement_sign(iset, n)
        out.add_term(jset, istar, sign * c)
    return out


def from_form(form: FormElement) -> BigradedElement:
    """Inverse of to_form: dy_J ^ dx_K comes from I = complement of K."""
    n = form.chart.n
    out = BigradedElement(form.chart)
    for (jset, kset), c in form.terms.items():
        iset = tuple(i for i in range(1, n + 1) if i not in kset)
        _, sign = complement_sign(iset, n)
        out.add_term(jset, iset, sign * c)
    return out


# ---------------------------------------------------------------------------
# graded operators
# ---------------------------------------------------------------------------

def d_x(element: BigradedElement) -> BigradedElement:
    """Fibre differential: bidegree shift (+1, 0).

    On a term c dy_J (x) d/dx_I it reads
    (-1)^{|J|} sum_{i in I} (dc/dx_i) dy_J (x) (d/dx_I with slot i removed),
    where removing slot i from the polyvector costs (-1)^{#{j in I : j > i}}.
    """
    out = BigradedElement(element.chart)
    xs = element.chart.xs
    for (jset, iset), c in element.terms.items():
        qsign = (-1) ** len(jset)
        for i in iset:
            dc = c.diff(xs[i - 1])
            if dc == 0:
                continue
            above = sum(1 for j in iset if j > i)
            rest = tuple(j for j in iset if j != i)
            out.add_term(jset, rest, qsign * ((-1) ** above) * dc)
    return out


def d_y(element: BigradedElement) -> BigradedElement:
    """Base differential: bidegree shift (0, +1); prepends dy_k."""
    out = BigradedElement(element.chart)
    ys = element.chart.ys
    for (jset, iset), c in element.terms.items():
        for k in range(1, element.chart.n + 1):
            dc = c.diff(ys[k - 1])
            if dc != 0:
                out.add_term((k,) + jset, iset, dc)
    return out


def d_x_prime(element: BigradedElement) -> BigradedElement:
    """d_x rescaled by (-1)^(p+q+1) on the bidegree-(p, q) piece."""
    # d_x lowers |I| by one, so (-1)^(p+q+1) of a source term is (-1)^(|J|-|I|)
    # of its image
    out = d_x(element)
    for (jset, iset), c in out.terms.items():
        if (len(jset) - len(iset)) % 2:
            out.terms[(jset, iset)] = -c
    return out


def _degree_pairing(deg_a, deg_b):
    return deg_a[0] * deg_b[0] + deg_a[1] * deg_b[1]


def phi2(op, a: BigradedElement, b: BigradedElement) -> BigradedElement:
    """Second-order defect  op(ab) - op(a)b - (+-) op(b)a + op(1)ab."""
    out = BigradedElement.zero(a.chart)
    unit = BigradedElement.unit(a.chart)
    op_unit = op(unit)
    for da, pa in a.homogeneous_pieces().items():
        for db, pb in b.homogeneous_pieces().items():
            sign = (-1) ** _degree_pairing(da, db)
            ab = pa * pb
            out = out + op(ab) - op(pa) * pb - (op(pb) * pa).scale(sign) + op_unit * ab
    return out


def phi3(op, a, b, c) -> BigradedElement:
    """Third-order defect via phi3(a,b,c) = phi2(a,bc) - phi2(a,b)c -+ phi2(a,c)b."""
    out = BigradedElement.zero(a.chart)
    for db, pb in b.homogeneous_pieces().items():
        for dc, pc in c.homogeneous_pieces().items():
            sign = (-1) ** _degree_pairing(db, dc)
            out = (
                out
                + phi2(op, a, pb * pc)
                - phi2(op, a, pb) * pc
                - (phi2(op, a, pc) * pb).scale(sign)
            )
    return out


def bracket(a: BigradedElement, b: BigradedElement) -> BigradedElement:
    """The bracket: second-order defect of d_x'."""
    return phi2(d_x_prime, a, b)


def vector_field_bracket(a: BigradedElement, b: BigradedElement) -> BigradedElement:
    """Direct Lie-bracket formula for bidegree (-1, 1) elements.

    For v = sum v_il dy_l (x) d/dx_i, w likewise, the result is
    sum_{l,m} [v_l, w_m] dy_l ^ dy_m with the usual vector-field bracket on
    the fibre.  Serves as an independent check of the operator bracket.
    """
    for e in (a, b):
        if not e.is_homogeneous((-1, 1)):
            raise DegreeError("vector_field_bracket needs bidegree (-1, 1) inputs")
    chart = a.chart
    xs = chart.xs
    out = BigradedElement(chart)
    for (jl, il), cv in a.terms.items():
        for (jm, im), cw in b.terms.items():
            l, m = jl[0], jm[0]
            i, jj = il[0], im[0]
            # v_{i,l} d(w_{j,m})/dx_i  d/dx_j   -   w_{i,m} d(v_{j,l})/dx_i d/dx_j
            term1 = cv * cw.diff(xs[i - 1])
            if term1 != 0:
                out.add_term((l, m), (jj,), term1)
            term2 = cw * cv.diff(xs[jj - 1])
            if term2 != 0:
                out.add_term((l, m), (i,), -term2)
    return out


def exp_nilpotent(beta: BigradedElement) -> BigradedElement:
    """exp(beta) = sum beta^p / p! for a bidegree (-1, 1) element.

    The series truncates at p = n since dy factors exhaust the base axes.
    """
    if not beta.is_homogeneous((-1, 1)):
        raise DegreeError("exponential is defined for bidegree (-1, 1) elements")
    n = beta.chart.n
    out = BigradedElement.unit(beta.chart)
    power = BigradedElement.unit(beta.chart)
    for p in range(1, n + 1):
        power = power * beta
        out = out + power.scale(Fraction(1, math.factorial(p)))
    return out


def decomposable_form(chart, beta_matrix, scale=1):
    """Direct expansion of scale * wedge_i (dx_i + sum_j beta[i][j] dy_j)."""
    forms = []
    for i in range(chart.n):
        form = {("x", i + 1): ONE}
        for j in range(chart.n):
            c = _coefficient(beta_matrix[i][j])
            if c != 0:
                form[("y", j + 1)] = c
        forms.append(form)
    return wedge_one_forms(chart, forms).scale(scale)


def standard_symplectic_form(chart) -> FormElement:
    """The canonical chart symplectic form sum_i dx_i ^ dy_i."""
    out = FormElement(chart)
    for i in range(1, chart.n + 1):
        # dx_i ^ dy_i = -dy_i ^ dx_i in the dy-first ordering
        out.add_term((i,), (i,), -1)
    return out
