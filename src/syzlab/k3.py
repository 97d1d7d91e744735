"""Lattice-level K3 mirror map: exact rational (and quadratic-surd) classes.

Input data lives in a fixed even lattice: a primitive isotropic fibre class
E, a section class sigma0 with sigma0^2 = -2 and sigma0.E = 1, a Kaehler
class omega and a twist class B orthogonal to E (with the lift normalised
by B.sigma0 = 0), and the holomorphic-form classes ReOmega, ImOmega subject
to the usual equal-square orthogonality normalisation.  After aligning the
phase so ImOmega.E = 0, the fibre volume is vol = ReOmega.E.

The mirror classes are

  Omega_n_mirror = sigma0 - (B + i omega)
                   + (1 - (B + i omega)^2 / 2 + i omega.sigma0) E,
  omega_mirror   = ImOmega_n + (ImOmega_n.(B - sigma0)) E,
  ReOmega_mirror = Re(Omega_n_mirror) / vol,
  ImOmega_mirror = Im(Omega_n_mirror) / vol,

with ImOmega_n = ImOmega / vol.  All identity checks are exact.

Every class is one ``_Vec`` from the parsed payload to the report: integer
numerators over one positive integer denominator, reduced by one gcd.  Ints
and "[-]p" or "[-]p/q" strings are read straight into it; floats (through
their shortest decimal, so 0.1 is 1/10), other ``numbers.Rational`` values
and other rational strings go through Fraction; anything else is a
K3ValidationError.  A vector keeps its Gram image once a pairing computed
it, so a pairing is one integer dot product and one Fraction.  The Fraction
tuples of K3MirrorInput and MirrorClasses are made once, for callers and
the report.  The one irrational number rational data can make is the
alignment's h = sqrt((ReOmega.E)^2 + (ImOmega.E)^2), so every value is a
Fraction or a ``_Root`` c*sqrt(d), printed as "3*sqrt(2)/2".

The double mirror feeds the mirror classes back through the same map with
the mirror's own twist class, read off the transverse part of ReOmega_n,
then pulls back by the fibrewise negation which fixes the E and sigma0
components and negates the component in (E-perp intersect sigma0-perp).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul


class K3ValidationError(ValueError):
    pass


_RATIONAL = (int, Fraction)
_ZERO = Fraction(0)


class _Root:
    """c*sqrt(d): a nonzero Fraction c, an int d > 1 without square factors
    below 2**15.  Every value made from one h is rational or a rational
    multiple of h, so a root plus a nonzero rational never arises and is
    NotImplemented; two roots multiply to a Fraction."""

    __slots__ = ("c", "d")

    def __init__(self, c, d):
        self.c, self.d = c, d

    def _with(self, c):
        return _Root(c, self.d) if c else _ZERO

    def __add__(self, other):
        if type(other) is _Root and other.d == self.d:
            return self._with(self.c + other.c)
        return self if other == 0 else NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _Root(-self.c, self.d)

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            return self._with(self.c * other)
        if type(other) is _Root and other.d == self.d:
            return self.c * other.c * self.d
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self):
        return _Root(1 / (self.c * self.d), self.d)

    def __truediv__(self, other):
        return self * (other._inverse() if type(other) is _Root else 1 / Fraction(other))

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __eq__(self, other):
        return type(other) is _Root and (self.c, self.d) == (other.c, other.d)

    def __gt__(self, other):
        return self.c > 0 if other == 0 else NotImplemented

    def __str__(self):  # 3*sqrt(2)/2, -sqrt(2)/2, 5*sqrt(6)
        p, q = self.c.numerator, self.c.denominator
        text = f"{'-' if p < 0 else ''}{'' if abs(p) == 1 else f'{abs(p)}*'}sqrt({self.d})"
        return text if q == 1 else f"{text}/{q}"


def _sqrt(x):
    """Square root of a positive Fraction p/q: a Fraction, or sqrt(p*q)/q."""
    d, q, s = x.numerator * x.denominator, x.denominator, 1
    for p in range(2, min(math.isqrt(d), 2 ** 15) + 1):
        while d % (p * p) == 0:
            d, s = d // (p * p), s * p
    r = math.isqrt(d)
    return Fraction(s * r, q) if r * r == d else _Root(Fraction(s, q), d)


def _coord(x):
    """A Fraction from a rational value, float or string; a _Root as it is."""
    if type(x) is Fraction or type(x) is _Root:
        return x
    if isinstance(x, (str, float)):
        try:
            return Fraction(str(x))
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    raise K3ValidationError(f"coordinate {x!r} is not a rational number")


def _integers(values, what):
    """An integer vector's entries as ints: 2.0 and "2" are read, 1.5 is refused."""
    out = [x if type(x) is int else _coord(x) for x in values]
    for i, q in enumerate(out):
        if type(q) is _Root or q.denominator != 1:
            raise K3ValidationError(f"{what}[{i}] = {q} is not an integer")
    return tuple(map(int, out))


def _split(x):
    """(numerator, positive integer denominator) of a coordinate or scalar:
    an int, a Fraction or a [-]digits[/digits] string by integer arithmetic,
    a _Root over 1, any other value through _coord."""
    if type(x) is str:  # before isinstance, which asks the numbers ABCs
        num, slash, den = x.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdecimal() and (
                not slash or den.isdecimal() and int(den)):
            return int(num), int(den) if slash else 1
    elif isinstance(x, _RATIONAL):
        return x.numerator, x.denominator
    return (x, 1) if type(x) is _Root else _split(_coord(x))


def _div(n, d):
    return Fraction(n, d) if type(n) is int else n / d


class _Vec:
    """A lattice class as numerators over one positive integer denominator.

    Rational numerators are ints, reduced with the denominator by one gcd.
    A Fraction or _Root numerator leaves the vector unreduced.  ``image`` is
    G*nums once a pairing made it (a vector is paired in one lattice).
    """

    __slots__ = ("nums", "den", "image", "_coords")

    def __init__(self, nums, den=1):
        try:
            g = math.gcd(*nums, den)
        except TypeError:
            g = 1
        self.nums = [n // g for n in nums] if g > 1 else nums
        self.den = den // g
        self.image = self._coords = None

    @classmethod
    def of(cls, coords, rank=None):
        """The vector of a coordinate sequence (or the _Vec itself), which
        must have ``rank`` coordinates when a rank is given."""
        if type(coords) is not cls:
            pairs = [_split(x) for x in coords]
            den = math.lcm(*(q for _, q in pairs))
            coords = cls([p * (den // q) for p, q in pairs], den)
        if rank is not None and len(coords.nums) != rank:
            raise K3ValidationError(f"vector must have {rank} coordinates")
        return coords

    def coords(self):
        if self._coords is None:
            den = self.den
            self._coords = tuple([_div(n, den) if n else _ZERO for n in self.nums])
        return self._coords

    def __eq__(self, other):
        return all(a * other.den == b * self.den for a, b in zip(self.nums, other.nums))


def _axpy(alpha, x, y):
    """alpha*x + y."""
    p, q = _split(alpha)
    a, b = p * y.den, q * x.den
    return _Vec([a * s + b * t for s, t in zip(x.nums, y.nums)], q * x.den * y.den)


def _scale(alpha, x):
    p, q = _split(alpha)
    return _Vec([p * s for s in x.nums], q * x.den)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

def hyperbolic_plane():
    return [[0, 1], [1, 0]]


def e8_gram(sign=-1):
    """E8 Gram matrix (nodes 1..8; node 2 attaches to node 4), scaled by sign."""
    edges = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2 * sign
    for a, b in edges:
        g[a - 1][b - 1] = -1 * sign
        g[b - 1][a - 1] = -1 * sign
    return g


def block_diag(*blocks):
    size = sum(len(b) for b in blocks)
    g = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            g[off + i][off:off + len(row)] = row
        off += len(b)
    return g


@dataclass(frozen=True)
class GramLattice:
    """Integral lattice given by a symmetric Gram matrix."""

    gram: tuple
    _cols: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = tuple(_integers(row, f"gram[{i}]") for i, row in enumerate(self.gram))
        for i in range(len(g)):
            for j in range(len(g)):
                if g[i][j] != g[j][i]:
                    raise K3ValidationError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "_cols", tuple(
            tuple((i, x) for i, x in enumerate(row) if x) for row in g))

    @property
    def rank(self):
        return len(self.gram)

    def dot(self, u, v):
        """Pairing of two classes given as coordinate tuples or _Vecs: u
        against the Gram image of v, which v keeps."""
        u, v = _Vec.of(u), _Vec.of(v)
        cols = self._cols
        if not len(u.nums) == len(v.nums) == len(cols):
            raise K3ValidationError(f"classes must have {len(cols)} coordinates")
        if v.image is None:
            image = v.image = [0] * len(cols)
            for n, col in zip(v.nums, cols):
                if n:
                    for i, x in col:
                        image[i] += x * n
        return _div(sum(map(mul, u.nums, v.image)), u.den * v.den)

    def is_unimodular(self):
        from .intlinalg import is_unimodular

        return is_unimodular(self.gram)

    @classmethod
    @functools.cache
    def from_name(cls, name):
        """The preset lattice, built once and shared (it is frozen)."""
        planes = {"U": 1, "U2": 2, "U3": 3, "K3": 3}.get(name)
        if planes is None:
            raise K3ValidationError(f"unknown lattice preset {name!r}")
        e8s = [e8_gram(-1)] * 2 if name == "K3" else []
        return cls(tuple(map(tuple, block_diag(*[hyperbolic_plane()] * planes, *e8s))))


def k3_lattice():
    return GramLattice.from_name("K3")


def basis_vector(rank, idx, value=1):
    v = [0] * rank
    v[idx] = value
    return tuple(v)


# ---------------------------------------------------------------------------
# input data
# ---------------------------------------------------------------------------

@dataclass
class K3MirrorInput:
    """Lattice data for the mirror map, valid by construction.

    re/im of the holomorphic class are optional for reduced toy inputs (the
    fibre volume then defaults to 1).  The constructor raises
    K3ValidationError naming every violation ``validate`` finds; the phase
    need not be aligned.  The classes are read once, here (a _Vec as it is).
    """

    lattice: GramLattice
    E: tuple
    sigma0: tuple
    omega: tuple
    B: tuple = None
    re_omega: tuple = None
    im_omega: tuple = None
    _vectors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.lattice.rank
        self.E = _integers(self.E, "E")
        self.sigma0 = _integers(self.sigma0, "sigma0")
        E, s0 = (_Vec.of(_Vec(list(v)), r) for v in (self.E, self.sigma0))
        w = _Vec.of(self.omega, r)
        B = _Vec.of((0,) * r if self.B is None else self.B, r)
        # reduce the twist lift to the section-orthogonal representative;
        # adding a fibre-class multiple keeps the class and the fibre pairing
        shift = self.lattice.dot(B, s0)
        if shift != 0:
            B = _axpy(-shift, E, B)
        re, im = (None if v is None else _Vec.of(v, r) for v in (self.re_omega, self.im_omega))
        if (re is None) != (im is None):
            raise K3ValidationError("provide both re/im holomorphic classes or neither")
        self.omega, self.B = w.coords(), B.coords()
        self.re_omega, self.im_omega = (None if v is None else v.coords() for v in (re, im))
        self._vectors.update(zip(("E", "sigma0", "omega", "B", "re_omega", "im_omega"),
                                 (E, s0, w, B, re, im)))
        bad = validate(self)
        if bad:
            raise K3ValidationError("; ".join(bad))

    @property
    def has_holomorphic_data(self):
        return self.re_omega is not None

    def dot(self, u, v):
        return self.lattice.dot(u, v)

    @functools.cached_property
    def vol(self):
        if not self.has_holomorphic_data:
            return Fraction(1)
        return self.dot(self._vectors["re_omega"], self._vectors["E"])


def validate(inp: K3MirrorInput):
    """Return the list of violated invariants (named); empty when valid."""
    d = inp.lattice.dot
    E, s0, w, B = map(inp._vectors.get, ("E", "sigma0", "omega", "B"))
    bad = []
    if d(E, E) != 0:
        bad.append("fibre class is not isotropic")
    if math.gcd(*inp.E) != 1:
        bad.append("fibre class is not primitive")
    if d(s0, s0) != -2:
        bad.append("section self-intersection must be -2")
    if d(s0, E) != 1:
        bad.append("section must meet the fibre once")
    if d(w, E) != 0:
        bad.append("kaehler class must pair to zero with the fibre")
    if d(B, E) != 0:
        bad.append("twist class must pair to zero with the fibre")
    if d(B, s0) != 0:
        bad.append("twist lift must pair to zero with the section")
    w2 = d(w, w)
    if not w2 > 0:
        bad.append("kaehler square must be positive")
    if inp.has_holomorphic_data:
        re, im = inp._vectors["re_omega"], inp._vectors["im_omega"]
        if d(re, re) != w2 or d(im, im) != w2:
            bad.append("holomorphic-class squares must equal the kaehler square")
        if d(re, im) != 0:
            bad.append("holomorphic re/im parts must be orthogonal")
        if d(w, re) != 0 or d(w, im) != 0:
            bad.append("kaehler class must be orthogonal to the holomorphic class")
    return bad


def _require_aligned(inp: K3MirrorInput, context=""):
    """Raise unless Im pairs to zero and Re positively with the fibre; the
    rest of the input was checked when it was constructed."""
    bad = []
    if inp.has_holomorphic_data:
        d, E = inp.lattice.dot, inp._vectors["E"]
        if d(inp._vectors["im_omega"], E) != 0:
            bad.append("phase not aligned: Im pairing with the fibre is nonzero")
        if not d(inp._vectors["re_omega"], E) > 0:
            bad.append("phase not aligned: Re pairing with the fibre is not positive")
    if bad:
        raise K3ValidationError(context + "; ".join(bad))


def validate_and_align(inp: K3MirrorInput) -> K3MirrorInput:
    """Rotate the holomorphic class so Im pairs to zero and Re positively
    with the fibre; exact, possibly in a quadratic extension."""
    if not inp.has_holomorphic_data:
        return inp
    d = inp.lattice.dot
    E, re, im = map(inp._vectors.get, ("E", "re_omega", "im_omega"))
    a, b = d(re, E), d(im, E)
    if a == 0 and b == 0:
        raise K3ValidationError("fibre class is null against the holomorphic class")
    if b == 0 and a > 0:
        return inp
    h = _sqrt(a * a + b * b)
    cos_t, sin_t = a / h, -b / h
    out = K3MirrorInput(inp.lattice, inp.E, inp.sigma0, inp._vectors["omega"], inp._vectors["B"],
                        _axpy(cos_t, re, _scale(-sin_t, im)),
                        _axpy(sin_t, re, _scale(cos_t, im)))
    _require_aligned(out, "alignment failed: ")
    return out


def hyperkahler_rotate(inp: K3MirrorInput):
    """Rotated pair: holomorphic class Im + i*omega, kaehler class Re.

    Requires aligned input; checks the rotated holomorphic class is null
    and the rotated kaehler class pairs positively with the fibre.
    """
    if not inp.has_holomorphic_data:
        raise K3ValidationError("hyperkahler rotation needs the holomorphic classes")
    _require_aligned(inp)
    d = inp.lattice.dot
    re, im, w, E = map(inp._vectors.get, ("re_omega", "im_omega", "omega", "E"))
    checks = {
        "rotated_holomorphic_null": d(im, im) - d(w, w) == 0 and 2 * d(im, w) == 0,
        "rotated_kaehler_positive": d(re, re) > 0,
        "rotated_kaehler_fibre_volume": d(re, E),
    }
    if not checks["rotated_holomorphic_null"]:
        raise K3ValidationError("rotated holomorphic class is not null")
    return inp.re_omega, (inp.im_omega, inp.omega), checks


# ---------------------------------------------------------------------------
# E-perp / E
# ---------------------------------------------------------------------------

def sublattice_quotient(lattice: GramLattice, E):
    """Induced Gram lattice on (E-perp)/E for a primitive isotropic E.

    Returns (quotient GramLattice, basis rows in ambient coordinates).
    """
    from .intlinalg import kernel_basis, solve_int

    E = _integers(E, "E")
    if math.gcd(*E) != 1:
        raise K3ValidationError("fibre class is not primitive")
    if lattice.dot(E, E) != 0:
        raise K3ValidationError("fibre class is not isotropic")
    r = lattice.rank
    # kernel of v -> E.v
    perp = kernel_basis([[int(lattice.dot(E, basis_vector(r, j))) for j in range(r)]])
    # coordinates of E inside the perp basis
    coords = solve_int([[perp[b][i] for b in range(len(perp))] for i in range(r)],
                       [[e] for e in E])
    avec = [coords[i][0] for i in range(len(perp))]
    if math.gcd(*avec) != 1:
        raise K3ValidationError("fibre class is not primitive inside its perp")
    comp = _complete_to_basis(avec)
    # new basis of E-perp: first vector is E, the rest descend to the quotient
    quots = [[sum(comp[b][col] * perp[b][i] for b in range(len(perp))) for i in range(r)]
             for col in range(1, len(perp))]
    gram = [[int(lattice.dot(u, v)) for v in quots] for u in quots]
    return GramLattice(tuple(map(tuple, gram))), quots


def _complete_to_basis(primitive_vec):
    from .intlinalg import invert_unimodular, smith_normal_form

    col = [[int(x)] for x in primitive_vec]
    d, u, v = smith_normal_form(col)
    if d[0][0] != 1:
        raise K3ValidationError("vector is not primitive")
    return invert_unimodular(u)


# ---------------------------------------------------------------------------
# the mirror map
# ---------------------------------------------------------------------------

@dataclass
class MirrorClasses:
    omega_mirror: tuple
    omega_n_mirror_re: tuple
    omega_n_mirror_im: tuple
    re_omega_mirror: tuple
    im_omega_mirror: tuple
    vol: object
    vol_mirror: object
    identities: dict = field(default_factory=dict)
    _vectors: tuple = field(default=(), repr=False, compare=False)  # the five, as _Vecs

    def as_dict(self):
        out = {}
        for name in ("omega_mirror", "omega_n_mirror_re", "omega_n_mirror_im",
                     "re_omega_mirror", "im_omega_mirror"):
            v = getattr(self, name)
            out[name] = [str(x) for x in v] if v is not None else None
        return {**out, "vol": str(self.vol), "vol_mirror": str(self.vol_mirror),
                "identities": {k: bool(v) for k, v in self.identities.items()}}


def _mirror_holomorphic(d, E, s0, w, B, w2):
    """Re and Im of Omega_n_mirror: sigma0 - B + lam E and -omega + mu E."""
    lam = 1 - (d(B, B) - w2) / 2
    mu = d(w, s0) - d(w, B)
    return _axpy(lam, E, _axpy(-1, B, s0)), _axpy(-1, w, _scale(mu, E))


def _mirror_kaehler(d, E, s0, B, im_n):
    """omega_mirror = ImOmega_n + (ImOmega_n.(B - sigma0)) E."""
    return _axpy(d(im_n, _axpy(-1, s0, B)), E, im_n)


def mirror_classes(inp: K3MirrorInput) -> MirrorClasses:
    """Compute the mirror classes and verify their identities exactly."""
    _require_aligned(inp)
    d = inp.lattice.dot
    E, s0, w, B = map(inp._vectors.get, ("E", "sigma0", "omega", "B"))
    vol = inp.vol
    w2 = d(w, w)
    on_re, on_im = _mirror_holomorphic(d, E, s0, w, B, w2)
    re_mirror = _scale(1 / vol, on_re)
    im_mirror = _scale(1 / vol, on_im)
    vol_mirror = d(re_mirror, E)

    identities = {}
    on_sq_re = d(on_re, on_re) - d(on_im, on_im)
    on_sq_im = 2 * d(on_re, on_im)
    identities["mirror_holomorphic_null"] = on_sq_re == 0 and on_sq_im == 0
    identities["mirror_holomorphic_fibre_pairing_one"] = d(on_re, E) == 1 and d(on_im, E) == 0
    identities["volume_reciprocity"] = vol * vol_mirror == 1

    om = None
    if inp.has_holomorphic_data:
        om = _mirror_kaehler(d, E, s0, B, _scale(1 / vol, inp._vectors["im_omega"]))
        identities["mirror_kaehler_fibre_orthogonal"] = d(om, E) == 0
        identities["mirror_kaehler_vs_holomorphic"] = d(on_re, om) == 0 and d(on_im, om) == 0
        identities["mirror_kaehler_square"] = d(om, om) == w2 / (vol * vol)

    vectors = (om, on_re, on_im, re_mirror, im_mirror)
    return MirrorClasses(*(None if v is None else v.coords() for v in vectors),
                         vol, vol_mirror, identities, vectors)


def kahler_obstructions(inp: K3MirrorInput, classes):
    """Declared algebraic classes that obstruct the mirror Kaehler property.

    A square-(-2) algebraic class blocks the positivity argument for the
    mirror real class; the full Picard computation is out of scope, so only
    user-declared classes are screened.  Returns the offending classes.
    """
    vectors = [_integers(cls, f"algebraic class {k}") for k, cls in enumerate(classes)]
    return [v for v in vectors if inp.dot(v, v) == -2]


# ---------------------------------------------------------------------------
# fibrewise negation and the double mirror
# ---------------------------------------------------------------------------

def _components(d, E, s0, v):
    beta = d(v, E)
    alpha = d(v, s0) + 2 * beta
    return alpha, beta, _axpy(-alpha, E, _axpy(-beta, s0, v))


def split_components(inp_or_lattice, E, s0, v):
    """Decompose v = alpha*E + beta*sigma0 + w with w in E-perp and sigma0-perp."""
    alpha, beta, w = _components(inp_or_lattice.dot, *map(_Vec.of, (E, s0, v)))
    return alpha, beta, w.coords()


def _negate(d, E, s0, v):
    # alpha E + beta sigma0 - w = v - 2w
    return _axpy(-2, _components(d, E, s0, v)[2], v)


def fibrewise_negation(lattice_like, E, s0, v):
    """Fix the E and sigma0 components; negate the transverse component."""
    return _negate(lattice_like.dot, *map(_Vec.of, (E, s0, v))).coords()


def _twist(inp):
    re_n = _scale(1 / inp.vol, inp._vectors["re_omega"])
    return _components(inp.lattice.dot, inp._vectors["E"], inp._vectors["sigma0"], re_n)[2]


def transverse_twist_class(inp: K3MirrorInput):
    """The mirror's twist class: transverse part of ReOmega / vol."""
    if not inp.has_holomorphic_data:
        raise K3ValidationError("twist readout needs the holomorphic classes")
    return _twist(inp).coords()


def double_mirror_check(inp: K3MirrorInput) -> dict:
    """Mirror twice, pull back by the fibrewise negation, compare exactly.

    The report's "first_classes" is the MirrorClasses of the first mirror.
    """
    inp = validate_and_align(inp)
    if not inp.has_holomorphic_data:
        raise K3ValidationError("double mirror needs the holomorphic classes")
    first = mirror_classes(inp)
    om, _, _, re_m, im_m = first._vectors
    second_input = K3MirrorInput(inp.lattice, inp.E, inp.sigma0, omega=om, B=_twist(inp),
                                 re_omega=re_m, im_omega=im_m)
    second = mirror_classes(second_input)
    om, _, _, re_m, im_m = second._vectors

    given = inp._vectors
    neg = lambda u: _negate(inp.lattice.dot, given["E"], given["sigma0"], u)
    report = {
        "first_classes": first,
        "first_identities": first.identities,
        "second_identities": second.identities,
        "omega_recovered": neg(om) == given["omega"],
        "re_omega_recovered": neg(re_m) == given["re_omega"],
        "im_omega_recovered": neg(im_m) == given["im_omega"],
        "twist_recovered": _scale(-1, _twist(second_input)) == given["B"],
        "negation_involutive": neg(neg(given["omega"])) == given["omega"],
    }
    report["all_passed"] = all(bool(v) for k, v in report.items()
                               if k.endswith("recovered") or k == "negation_involutive")
    return report
