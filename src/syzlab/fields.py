"""Scalar fields on a chart: the grammar's expression nodes and their evaluator.

Coefficient functions are syzlab's own expression nodes (``Node``) over the
real chart variables y1..y3, x1..x3.  The configuration grammar is a closed
whitelist: numeric literals, the chart variables, the constant ``pi``, unary
``+ -``, infix ``+ - * / ^`` and the functions ``sin cos exp`` of one
argument.  A string is built node by node from its Python syntax tree and
never evaluated.  A float, in a string or as a JSON number, reads as its
shortest decimal (0.1 is 1/10), as chart boxes and K3 coordinates do.
Complex values enter only as {"re": ..., "im": ...} pairs, which parse to a
``Pair`` of two real nodes: a string that builds to something complex, such
as "(-1)^(1/2)", is refused.

Nodes are hash-consed: equal expressions are one object.  Their constructors
fold as sympy's automatic evaluation does: numbers are exact ``Fraction``s
and fold, like terms of a sum and like bases of a product are collected (so
x1 - x1 is 0), a rational times a sum is distributed over the sum, a power
of a product is distributed over its factors, exp(a)*exp(b) merges when a
and b differ by a rational factor, and sin/cos fold at rational multiples of
pi and pull out a sign or a multiple of pi/2.  A numeric exponent above
MAX_POWER, or one that times the bit length of the largest number in its
base passes MAX_BITS, is refused before the power is computed; so is an
exponent above MAX_POWER that the collection of like bases makes, as in
(1+y1)^64*(1+y1)^64.  Nodes differentiate (``diff``), substitute numbers
for variables (``subs``, where a rational value folds to a number node),
multiply out (``expand``: what is identically zero as a polynomial in the
variables, pi and the function atoms expands to ZERO, which ``is_zero``
reads), and convert to and from sympy (``to_sympy``, ``from_sympy``), the
boundary for sympy input from library callers and for the integrator (the
Poincare potentials of ``semiflat`` and ``duality``); sympy is imported only
by those conversions.  A node has no sympy methods: a caller that wants sympy's
converts with ``to_sympy``.

Fibre periodicity is enforced syntactically: a fibre variable x_i may occur
only inside sin/cos whose argument is 2*pi*(integer)*x_i plus an x-free
phase.  This guarantees exact period-1 periodicity, which the torus
quadrature and fibrewise translations rely on.
"""

from __future__ import annotations

import ast
import cmath
import functools
import itertools
import math
import operator
import sys
from fractions import Fraction

import numpy as np

FUNCTIONS = ("sin", "cos", "exp")
Y_NAMES = ("y1", "y2", "y3")
X_NAMES = ("x1", "x2", "x3")
# the largest exponent in a parsed expression, and the most bits a power may
# give the numbers of its base
MAX_POWER = 64
MAX_BITS = 4096
_HALF = Fraction(1, 2)


class GrammarError(ValueError):
    """Raised when an expression leaves the configuration grammar."""


class PeriodicityError(ValueError):
    """Raised when a field is not syntactically fibre-periodic."""


class DegreeError(ValueError):
    """Raised for operations applied at an invalid (bi)degree."""


class UnsupportedNode(TypeError):
    """Raised for an expression that has no node form, or a node that Walk
    does not evaluate."""


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

def require_sympy():
    """The sympy module, imported on first use; without it an ImportError
    that names the optional extra which installs it."""
    try:
        import sympy
    except ImportError as exc:
        raise ImportError("this function needs sympy: pip install syzlab[symbolic]") from exc
    return sympy


def is_sympy(value):
    """Whether value is a sympy object; never imports sympy."""
    sp = sys.modules.get("sympy")
    return sp is not None and isinstance(value, sp.Basic)


class Node:
    """One hash-consed expression of the grammar.

    ``op`` and ``args``:
      "num"   a Fraction
      "var"   a chart variable's name
      "pi"    ()
      "add"   (constant, ((term, coefficient), ...)): no term is a sum or a number
      "mul"   ((base, exponent), ...): Fraction exponents, no base is a number
              with an integral exponent; two factors at least, or one whose
              exponent is not 1
      "sin", "cos", "exp"   the argument
      "const" (complex value, sympy object): a constant without node form,
              from ``from_sympy`` only
    A rational times a product is the one-term sum (0, ((product, c),)).
    Equal nodes are one object, so a node equals another only when it is it.
    """

    __slots__ = ("op", "args", "vars", "bits", "real", "nonneg", "positive", "_value", "_sym")

    def __eq__(self, other):
        if isinstance(other, Node):
            return self is other
        if isinstance(other, (int, Fraction, float)):
            return self.op == "num" and self.args == other
        return NotImplemented

    __hash__ = object.__hash__

    @property
    def name(self):
        if self.op != "var":
            raise AttributeError("name")
        return self.args

    def __bool__(self):
        return not (self.op == "num" and self.args == 0)

    # -- arithmetic; a sympy or Pair operand takes over ----------------------
    def __add__(self, other):
        return NotImplemented if (o := _operand(other)) is None else add(self, o)

    def __radd__(self, other):
        return NotImplemented if (o := _operand(other)) is None else add(o, self)

    def __sub__(self, other):
        return NotImplemented if (o := _operand(other)) is None else add(self, negate(o))

    def __rsub__(self, other):
        return NotImplemented if (o := _operand(other)) is None else add(o, negate(self))

    def __mul__(self, other):
        return NotImplemented if (o := _operand(other)) is None else mul(self, o)

    def __rmul__(self, other):
        return NotImplemented if (o := _operand(other)) is None else mul(o, self)

    def __truediv__(self, other):
        return NotImplemented if (o := _operand(other)) is None else mul(self, power(o, -1))

    def __rtruediv__(self, other):
        return NotImplemented if (o := _operand(other)) is None else mul(o, power(self, -1))

    def __pow__(self, other):
        return NotImplemented if (o := _operand(other)) is None else power(self, o)

    def __rpow__(self, other):
        return NotImplemented if (o := _operand(other)) is None else power(o, self)

    def __neg__(self):
        return negate(self)

    def __pos__(self):
        return self

    def diff(self, *vs):
        """The partial derivative in the chart variables vs in turn (each a
        variable node, a sympy symbol or a name; an integer repeats the
        variable before it), as sympy's diff takes them."""
        out, last = self, None
        for v in vs:
            for v in [last] * (v - 1) if isinstance(v, int) else [v]:
                out, last = diff(out, v if isinstance(v, str) else v.name), v
        return out

    def as_real_imag(self):
        return self, ZERO

    def subs(self, point):
        """The node with chart variables replaced by numbers or nodes, given
        as {variable node or name: value}."""
        point = {getattr(k, "name", k): _operand(v) for k, v in point.items()}
        if None in point.values() or not all(isinstance(k, str) for k in point):
            raise TypeError("a node substitutes numbers or nodes for its variables")
        return _subs(self, point, {})

    def value(self):
        """The complex value of a node that reads no chart variable."""
        if self._value is None:
            if self.vars:
                raise TypeError(f"{self} depends on {sorted(self.vars)}")
            try:
                self._value = _constant_value(self)
            except (OverflowError, ZeroDivisionError):
                # beyond floating point, as a sampled value would be
                self._value = complex(math.nan, math.nan)
        return self._value

    def __complex__(self):
        return self.value()

    def __float__(self):
        z = self.value()
        if z.imag:
            raise TypeError(f"{self} is not real")
        return z.real

    def _sympy_(self):
        return to_sympy(self)

    def __str__(self):
        return _print(self)

    __repr__ = __str__


_TABLE = {}


def _bits(q):
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length(), 1)


def _intern(op, args, key=None):
    key = (op, args if key is None else key)
    node = _TABLE.get(key)
    if node is not None:
        return node
    node = object.__new__(Node)
    node.op, node.args, node._value, node._sym = op, args, None, None
    node.vars, node.bits = frozenset(), 1
    if op == "num":
        node.bits, node.real, node.nonneg, node.positive = _bits(args), True, args >= 0, args > 0
    elif op == "var":
        node.vars, node.real, node.nonneg, node.positive = frozenset((args,)), True, False, False
    elif op == "pi":
        node.real = node.nonneg = node.positive = True
    elif op == "const":
        z = args[0]
        node.real, node.nonneg, node.positive = z.imag == 0, z.imag == 0 and z.real >= 0, \
            z.imag == 0 and z.real > 0
    elif op == "add":
        const, terms = args
        node.vars = frozenset().union(*(t.vars for t, _ in terms))
        node.bits = max([_bits(const)] + [max(t.bits, _bits(c)) for t, c in terms])
        node.real = all(t.real for t, _ in terms)
        node.nonneg = const >= 0 and all(c > 0 and t.nonneg for t, c in terms)
        node.positive = node.nonneg and (const > 0 or any(t.positive for t, _ in terms))
    elif op == "mul":
        node.vars = frozenset().union(*(b.vars for b, _ in args))
        node.bits = max(max(b.bits, _bits(e)) for b, e in args)
        node.real = all(_real_factor(b, e) for b, e in args)
        node.nonneg = all(_nonneg_factor(b, e) for b, e in args)
        node.positive = all(b.positive for b, _ in args)
    else:  # sin, cos, exp
        node.vars, node.bits, node.real = args.vars, args.bits, args.real
        node.nonneg = node.positive = op == "exp" and args.real
    if not node.vars and node.real and not node.nonneg and op in ("add", "mul", "sin", "cos"):
        # the sign of a real constant is its value's, as sympy decides it
        node.nonneg, node.positive = node.value().real >= 0, node.value().real > 0
    _TABLE[key] = node
    return node


def _nonneg_factor(base, e):
    """Whether base^e is known nonnegative: a positive base, a nonnegative
    one to a positive power, or a real one to a positive even power."""
    return base.positive or (e > 0 and (base.nonneg or (
        e.denominator == 1 and e % 2 == 0 and base.real)))


def _real_factor(base, e):
    """Whether base^e is known real (and finite): a negative power of a
    variable base may be infinite."""
    if base.positive:
        return True
    if e > 0:
        return base.real and (e.denominator == 1 or base.nonneg)
    return e.denominator == 1 and base.real and not base.vars


def number(q):
    """The node of an int or Fraction q, found by its integer pair."""
    node = _TABLE.get(("num", (q.numerator, q.denominator)))
    return _intern("num", Fraction(q), (q.numerator, q.denominator)) if node is None else node


ZERO, ONE, MINUS_ONE = number(0), number(1), number(-1)
PI = _intern("pi", ())


def variable(name):
    return _intern("var", name)


Y_VARS = tuple(variable(name) for name in Y_NAMES)
X_VARS = tuple(variable(name) for name in X_NAMES)


def _decimal(value):
    """A JSON or literal number as an int or Fraction; a float reads as its
    shortest decimal, so 0.1 is 1/10."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise GrammarError(f"{value} is not finite")
        return Fraction(repr(float(value)))
    return value


def _operand(value):
    """value as a node for arithmetic with nodes; None for a sympy or Pair
    operand, whose own operators take over."""
    if isinstance(value, Node):
        return value
    if isinstance(value, (int, Fraction, float)):
        return number(_decimal(value))
    return None


def _coeff_term(node):
    """(c, t) with node = c * t and t free of a rational factor."""
    if node.op == "num":
        return node.args, ONE
    if node.op == "add" and node.args[0] == 0 and len(node.args[1]) == 1:
        term, c = node.args[1][0]
        return c, term
    return Fraction(1), node


def _factors(node):
    """(c, ((base, exponent), ...)) with node = c * prod base^exponent."""
    c, term = _coeff_term(node)
    if term is ONE:
        return c, ()
    if term.op == "mul":
        return c, term.args
    return c, ((term, Fraction(1)),)


def _sum(const, terms):
    items = tuple((t, c) for t, c in terms.items() if c)
    if not items:
        return number(const)
    if const == 0 and len(items) == 1 and items[0][1] == 1:
        return items[0][0]
    return _intern("add", (Fraction(const), items), (Fraction(const), frozenset(items)))


def add(*items):
    """The sum, flattened, with numbers folded and like terms collected."""
    items = [a for a in items if a is not ZERO]
    if len(items) < 2:
        return items[0] if items else ZERO
    const, terms = Fraction(0), {}
    for a in items:
        if a.op == "num":
            const += a.args
        elif a.op == "add":
            const += a.args[0]
            for t, c in a.args[1]:
                terms[t] = terms.get(t, 0) + c
        else:
            terms[a] = terms.get(a, 0) + 1
    return _sum(const, terms)


def negate(a):
    return number(-a.args) if a.op == "num" else mul(MINUS_ONE, a)


def _scaled(c, node):
    """c * node for a rational c: a sum takes the factor term by term."""
    if c == 1:
        return node
    if c == 0:
        return ZERO
    if node.op == "num":
        return number(c * node.args)
    if node.op == "add":
        return _sum(node.args[0] * c, {t: k * c for t, k in node.args[1]})
    return _intern("add", (Fraction(0), ((node, Fraction(c)),)),
                   (Fraction(0), frozenset(((node, Fraction(c)),))))


def mul(*items):
    """The product, flattened, with numbers folded and like bases collected."""
    items = [a for a in items if a is not ONE]
    if ZERO in items or len(items) < 2:
        return ZERO if ZERO in items else items[0] if items else ONE
    coeff, pairs = Fraction(1), []
    for a in items:
        c, factors = _factors(a)
        coeff *= c
        pairs.extend(factors)
    return _product(coeff, pairs)


def _product(coeff, pairs):
    """coeff * prod base^exponent, normalised: equal bases collect their
    exponents, exp factors whose arguments share a term merge, numeric
    bases fold, and a base that is itself a product or scaled term is
    distributed once its exponent is an integer."""
    if coeff == 0:
        return ZERO
    bases, exps, work = {}, {}, list(pairs)
    while work:
        b, e = work.pop(0)
        if b.op == "exp" and (e.denominator == 1 or b.args.real):
            c, t = _coeff_term(b.args)
            exps[t] = exps.get(t, 0) + c * e
        else:
            bases[b] = bases.get(b, 0) + e
        if not work:
            # bases whose exponent became an integer open up again
            again = [(b, e) for b, e in bases.items() if e and e.denominator == 1
                     and (b.op in ("mul", "num") or _coeff_term(b)[1] is not b)]
            for b, e in again:
                del bases[b]
                c, factors = _factors(power(b, e))
                coeff *= c
                work.extend(factors)
    if coeff == 0:
        return ZERO
    factors, radicals = [], {}
    for b, e in bases.items():
        if e == 0:
            continue
        if b.op == "num":
            radicals.setdefault(e, []).append(b.args)
            continue
        factors.append((b, Fraction(e)))
    for e, nums in radicals.items():
        c, more = _factors(_number_power(math.prod(nums), e))
        coeff *= c
        factors.extend(more)
    for t, c in exps.items():
        if c:
            factors.append((_intern("exp", _scaled(c, t)), Fraction(1)))
    numbers = [b for b, _ in factors if b.op == "num"]
    if len(set(numbers)) < len(numbers):  # a root rationalised to another's base
        return _product(coeff, factors)
    if not factors:
        return number(coeff)
    if len(factors) == 1 and factors[0][1] == 1:
        core = factors[0][0]
    else:
        core = _intern("mul", tuple(factors), frozenset(factors))
    return _scaled(coeff, core)


def _integer_root(n, r):
    """The floor of the r-th root of an int n >= 0, by Newton's method on
    ints from above (exact at any size, where a float estimate is not)."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // r)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def _root(q, r):
    """The exact r-th root of a positive Fraction, or None."""
    out = []
    for n in (q.numerator, q.denominator):
        root = math.isqrt(n) if r == 2 else _integer_root(n, r)
        if root ** r != n:
            return None
        out.append(root)
    return Fraction(out[0], out[1])


def _number_power(q, e):
    """q^e for rational q and e, exact where it is rational."""
    q, e = Fraction(q), Fraction(e)
    if q == 0 and e < 0:
        raise GrammarError(f"0^{e} is not finite")
    if e.denominator == 1:
        return number(q ** int(e))
    if q < 0:
        if e.denominator == 2:
            raise GrammarError(f"({q})^({e}) is complex")
        raise GrammarError(f"non-integer power ({q})^({e})")
    if q == 0:
        return ZERO
    root = _root(q, e.denominator)
    if root is not None:
        return number(root ** e.numerator)
    whole = e.numerator // e.denominator
    frac = e - whole
    coeff, base = q ** whole, q
    if frac.denominator == 2 and q.denominator != 1:
        # sqrt(a/b) = sqrt(a*b)/b
        coeff, base = coeff / q.denominator, Fraction(q.numerator * q.denominator)
    node = _intern("mul", ((number(base), frac),), frozenset(((number(base), frac),)))
    return _scaled(coeff, node)


def power(base, e):
    """base^e for a numeric exponent e (a number or number node)."""
    if isinstance(e, Node):
        if e.op != "num":
            if base is ONE:
                return ONE
            if base.op == "exp":
                return function("exp", mul(base.args, e))
            raise GrammarError(f"non-integer power ({base})^({e})")
        e = e.args
    e = Fraction(e)
    if e == 0:
        return ONE
    if e == 1:
        return base
    if base.op == "num":
        return _number_power(base.args, e)
    if base.op == "exp" and (e.denominator == 1 or base.args.real):
        return function("exp", _scaled(e, base.args))
    if e.denominator != 1 and base.op == "mul" and len(base.args) == 1 and not base.vars \
            and base.real and base.value().real < 0:
        raise GrammarError(f"({base})^({e}) is complex")
    c, factors = _factors(base)
    if e.denominator == 1:
        return _product(Fraction(1), [(number(c), e)] + [(b, k * e) for b, k in factors])
    if c == 1 and len(factors) == 1:
        b, k = factors[0]
        if k == 1:
            # a single atom or sum: kept as a factor
            return _product(Fraction(1), [(base, e)])
        merged = _root_of_power(b, k, e)
        if merged is not None:
            return _product(Fraction(1), [merged])
    # a fractional power of a product: nonnegative factors come out
    out, rest = [(number(abs(c)), e)], []
    for b, k in factors:
        if b.positive or (k > 0 and b.nonneg) or (
                not b.vars and b.real and _factor_value(b, k).real > 0):
            out.append((b, k * e))
        elif k > 0 and k.denominator == 1 and k % 2 == 0 and b.real:
            if (k * e).denominator != 1 or (k * e) % 2:
                raise GrammarError(f"({base})^({e}) needs Abs, which is outside the grammar")
            out.append((b, k * e))
        else:
            rest.append((b, k))
    if not rest:
        if c < 0:
            raise GrammarError(f"({base})^({e}) is complex")
        return _product(Fraction(1), out)
    inner = _product(Fraction(1) if c > 0 else Fraction(-1), rest)
    if inner.op == "mul" and len(inner.args) == 1:
        merged = _root_of_power(*inner.args[0], e)
        if merged is not None:
            return _product(Fraction(1), out + [merged])
    return _product(Fraction(1), out + [(inner, e)])


def principal_power(base, e):
    """base^e for a fractional e, kept as the one factor (base, e) and
    evaluated with the principal root, where power() would distribute the
    root over base's factors and refuse the Abs that needs (det^(-1/2) for
    det = y1^2): for a caller that knows base > 0 where it is evaluated.
    A number base is power()'s."""
    e = Fraction(e)
    if base.op == "num" or e.denominator == 1:
        return power(base, e)
    return _intern("mul", ((base, e),), frozenset(((base, e),)))


def _root_of_power(b, k, e):
    """(b^k)^e for a fractional e as one factor (b, k e) where that holds:
    |k| < 1 or b >= 0; an even k on a real b makes |b|^(k e), which is b^(k e)
    for an even k e and refused otherwise (Abs).  None: it stays nested."""
    if abs(k) < 1 or b.nonneg:
        return b, k * e
    if k.denominator == 1 and k % 2 == 0 and b.real:
        if (k * e).denominator == 1 and (k * e) % 2 == 0:
            return b, k * e
        if negate(b).nonneg:
            return negate(b), k * e
        raise GrammarError(f"({b})^({k * e}) needs Abs, which is outside the grammar")
    return None


def _minus(a):
    """Whether a has a leading minus sign, as sympy decides for a product or
    a number; a sum with more negative than positive terms."""
    if a.op == "num":
        return a.args < 0
    if a.op != "add":
        return False
    const, terms = a.args
    if const == 0 and len(terms) == 1:
        return terms[0][1] < 0
    neg = (const < 0) + sum(c < 0 for _, c in terms)
    pos = (const > 0) + sum(c > 0 for _, c in terms)
    return neg > pos


def _pi_multiple(a):
    c, t = _coeff_term(a)
    return c if t is PI else None


# sin(k*pi) at the multiples of pi/6 and pi/4 in [0, 2)
_SIN_PI = {Fraction(0): (0, 0), Fraction(1, 6): (Fraction(1, 2), 0),
           Fraction(1, 4): (Fraction(1, 2), 2), Fraction(1, 3): (Fraction(1, 2), 3),
           Fraction(1, 2): (1, 0)}


def _sin_pi(k):
    """sin(k*pi) as a node for the table's multiples, else None."""
    k = k % 2
    sign = 1
    if k >= 1:
        k, sign = k - 1, -1
    if k > _HALF:
        k = 1 - k
    if k not in _SIN_PI:
        return None
    c, surd = _SIN_PI[k]
    return _scaled(sign * Fraction(c), _number_power(surd, _HALF) if surd else ONE)


def function(name, a):
    """sin, cos or exp of a, folded at 0, at multiples of pi and by sign."""
    if name == "exp":
        return ONE if a is ZERO else _intern("exp", a)
    sin = name == "sin"
    if a is ZERO:
        return ZERO if sin else ONE
    if _minus(a):
        return negate(function(name, negate(a))) if sin else function(name, negate(a))
    k = _pi_multiple(a)
    if k is not None:
        folded = _sin_pi(k if sin else k + _HALF)
        if folded is not None:
            return folded
    if a.op == "add":
        terms = dict(a.args[1])
        m = terms.pop(PI, 0)
        if m:
            m1 = m % _HALF
            m2 = m - m1
            if m2:
                terms[PI] = m1
                rest = _sum(a.args[0], terms)
                s, c = _sin_pi(m2), _sin_pi(m2 + _HALF)
                if sin:
                    return add(mul(s, function("cos", rest)), mul(c, function("sin", rest)))
                return add(mul(c, function("cos", rest)), negate(mul(s, function("sin", rest))))
    return _intern(name, a)


def diff(node, name):
    """d node / d name, memoised per (node, name)."""
    if name not in node.vars:
        return ZERO
    key = (node, name)
    found = _DIFFS.get(key)
    if found is None:
        found = _DIFFS[key] = _diff(node, name)
    return found


_DIFFS = {}


def _diff(node, name):
    op, args = node.op, node.args
    if op == "var":
        return ONE
    if op == "add":
        return add(*[_scaled(c, diff(t, name)) for t, c in args[1]])
    if op == "mul":
        terms = []
        for i, (b, e) in enumerate(args):
            db = diff(b, name)
            if db is ZERO:
                continue
            rest = [(bb, ee) for j, (bb, ee) in enumerate(args) if j != i]
            terms.append(mul(_product(e, rest + [(b, e - 1)]), db))
        return add(*terms)
    inner = diff(args, name)
    if op == "sin":
        return mul(function("cos", args), inner)
    if op == "cos":
        return negate(mul(function("sin", args), inner))
    return mul(node, inner)  # exp


def _subs(node, point, memo):
    if node in memo:
        return memo[node]
    op, args = node.op, node.args
    if not node.vars & point.keys():
        out = node
    elif op == "var":
        out = point[args]
    elif op == "add":
        out = add(number(args[0]), *[_scaled(c, _subs(t, point, memo)) for t, c in args[1]])
    elif op == "mul":
        out = mul(*[power(_subs(b, point, memo), e) for b, e in args])
    else:
        out = function(op, _subs(args, point, memo))
    memo[node] = out
    return out


def is_zero(expr):
    """Whether expr is identically zero: a node that expands to ZERO, a Pair
    of two; anything else (a number, a Jet, an expanded sympy coefficient)
    compares with 0."""
    if isinstance(expr, Pair):
        return is_zero(expr.re) and is_zero(expr.im)
    if not isinstance(expr, Node) or expr is ZERO:
        return expr == 0
    try:
        return expand(expr) is ZERO
    except GrammarError:  # a root of a base that expands to a number <= 0
        return False


def expand(node):
    """The node multiplied out, as sympy's expand does: products and positive
    integer powers of sums are distributed ((1+y1)^(3/2) keeps the root, as
    (1+y1)^(1/2) + y1*(1+y1)^(1/2)), exp of a sum is the product of the exps
    of its terms, inside function arguments and root bases too.  One
    polynomial in the variables, pi and these atoms expands to one node."""
    return _expand(node, {})


def _expand(node, memo):
    if node not in memo:
        op, args = node.op, node.args
        if op == "add":
            out = add(number(args[0]), *[_scaled(c, _expand(t, memo)) for t, c in args[1]])
        elif op == "mul":
            out = functools.reduce(_times, [_power_out(_expand(b, memo), e) for b, e in args])
        elif op == "exp":
            out = mul(*[function("exp", _scaled(c, t)) for c, t in _summands(_expand(args, memo))])
        else:
            out = function(op, _expand(args, memo)) if op in ("sin", "cos") else node
        memo[node] = out
    return memo[node]


def _is_sum(node):
    return node.op == "add" and _coeff_term(node)[1] is node


def _summands(node):
    """[(c, t), ...] with node the sum of the c * t, a constant as (c, ONE)."""
    if not _is_sum(node):
        return [_coeff_term(node)]
    const, terms = node.args
    return [(const, ONE)] * bool(const) + [(c, t) for t, c in terms]


def _power_out(b, e):
    """b^e for an expanded b, multiplied out.  Where b is a sum and e >= 1,
    the whole part of e goes by the multinomial theorem: one term per
    multiset of b's summands, each built once."""
    whole = e.numerator // e.denominator if _is_sum(b) and e >= 1 else 0
    out, terms = _multiplied_out(1, _product(Fraction(1), [(b, e - whole)])), _summands(b)
    if whole:
        power = []
        for picks in itertools.combinations_with_replacement(range(len(terms)), whole):
            ks = [(i, len(list(run))) for i, run in itertools.groupby(picks)]
            c = math.factorial(whole) // math.prod(math.factorial(k) for _, k in ks)
            c *= math.prod(terms[i][0] ** k for i, k in ks)
            factors = [(f, fe * k) for i, k in ks for f, fe in _factors(terms[i][1])[1]]
            power.append(_multiplied_out(c, _product(Fraction(1), factors)))
        out = add(*power) if out is ONE else _times(out, add(*power))
    return out


def _times(a, b):
    """The product of two expanded nodes, multiplied out."""
    return add(*[_multiplied_out(ca * cb, mul(ta, tb))
                 for ca, ta in _summands(a) for cb, tb in _summands(b)])


def _multiplied_out(c, term):
    """c * term for a product of expanded factors; roots of one sum that meet
    in a term ((1+y1)^(1/2) twice) are multiplied out in turn."""
    k, factors = _factors(term)
    if any(_is_sum(f) and e >= 1 for f, e in factors):
        return _scaled(c * k, functools.reduce(_times, [_power_out(f, e) for f, e in factors]))
    return _scaled(c, term)


def _constant_value(node):
    """The complex value of a variable-free node, principal roots."""
    op, args = node.op, node.args
    if op == "num":
        return complex(args)
    if op == "pi":
        return complex(math.pi)
    if op == "const":
        return args[0]
    if op == "add":
        out = complex(args[0])
        for t, c in args[1]:
            out += complex(c) * t.value()
        return out
    if op == "mul":
        out = 1 + 0j
        for b, e in args:
            out *= _factor_value(b, e)
        return out
    return {"sin": cmath.sin, "cos": cmath.cos, "exp": cmath.exp}[op](args.value())


def _factor_value(base, e):
    """base^e for a variable-free base, with the principal root."""
    v = base.value()
    if e.denominator == 1:
        return v ** int(e)
    if e.denominator == 2:
        return cmath.sqrt(v) ** int(2 * e)
    return v ** float(e)


def _print(node):
    op, args = node.op, node.args
    if op == "num":
        return str(args)
    if op == "var":
        return args
    if op == "pi":
        return "pi"
    if op == "const":
        return str(args[1])
    if op == "add":
        parts = [] if args[0] == 0 else [str(args[0])]
        for t, c in args[1]:
            text = str(t) if t.op == "mul" else _atom(t)
            parts.append(str(t) if c == 1 else f"-{text}" if c == -1 else f"{c}*{text}")
        return " + ".join(parts).replace("+ -", "- ")
    if op == "mul":
        return "*".join(_atom(b) if e == 1 else f"{_atom(b)}^{_atom(number(e))}"
                        for b, e in args)
    return f"{op}({args})"


def _atom(node):
    text = str(node)
    return text if node.op in ("var", "pi", "sin", "cos", "exp") or (
        node.op == "num" and node.args.denominator == 1 and node.args >= 0) else f"({text})"


class Pair:
    """A complex field re + i*im from two real nodes: the only complex
    values of the grammar."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __eq__(self, other):
        if isinstance(other, Pair):
            return self.re is other.re and self.im is other.im
        if isinstance(other, (int, Fraction, float, Node)):
            return self.im is ZERO and self.re == other
        if is_sympy(other):
            return (to_sympy(self) - other).expand() == 0
        return NotImplemented

    __hash__ = None

    @staticmethod
    def _of(value):
        if isinstance(value, Pair):
            return value
        node = _operand(value)
        return None if node is None else Pair(node, ZERO)

    def __add__(self, other):
        o = Pair._of(other)
        return NotImplemented if o is None else Pair(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = Pair._of(other)
        return NotImplemented if o is None else Pair(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = Pair._of(other)
        return NotImplemented if o is None else Pair(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = Pair._of(other)
        if o is None:
            return NotImplemented
        if o.im is ZERO:
            return Pair(self.re * o.re, self.im * o.re)
        return Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return Pair(-self.re, -self.im)

    def diff(self, v):
        return Pair(self.re.diff(v), self.im.diff(v))

    def subs(self, point):
        return Pair(self.re.subs(point), self.im.subs(point))

    def as_real_imag(self):
        return self.re, self.im

    def _sympy_(self):
        return to_sympy(self)

    def __str__(self):
        return f"{self.re} + I*({self.im})"

    __repr__ = __str__


def variables(expr):
    """The names of the chart variables expr reads: a node, a Pair or a
    number."""
    if isinstance(expr, Node):
        return set(expr.vars)
    if isinstance(expr, Pair):
        return set(expr.re.vars | expr.im.vars)
    return set()


def as_field(value):
    """A node or Pair for a node, Pair, number, Python complex or sympy
    expression (through from_sympy)."""
    if isinstance(value, (Node, Pair)):
        return value
    if isinstance(value, complex):
        return Pair(number(_decimal(value.real)), number(_decimal(value.imag)))
    node = _operand(value)
    if node is not None:
        return node
    if is_sympy(value):
        return from_sympy(value)
    raise UnsupportedNode(f"{value!r} is not an expression")


def to_sympy(expr):
    """The sympy expression of a node or Pair (real chart symbols)."""
    sp = require_sympy()

    if isinstance(expr, Pair):
        return to_sympy(expr.re) + sp.I * to_sympy(expr.im)
    if not isinstance(expr, Node):
        return sp.sympify(expr)
    if expr._sym is None:
        op, args = expr.op, expr.args
        if op == "num":
            out = sp.Rational(args.numerator, args.denominator)
        elif op == "var":
            out = sp.Symbol(args, real=True)
        elif op == "pi":
            out = sp.pi
        elif op == "const":
            out = args[1]
        elif op == "add":
            out = sp.Add(to_sympy(number(args[0])),
                         *[to_sympy(number(c)) * to_sympy(t) for t, c in args[1]])
        elif op == "mul":
            out = sp.Mul(*[to_sympy(b) ** to_sympy(number(e)) for b, e in args])
        else:
            out = getattr(sp, op)(to_sympy(args))
        expr._sym = out
    return expr._sym


def from_sympy(expr):
    """The node of a sympy expression, or a Pair where it has a term in I.

    Chart symbols must be real (as ``Chart.ys``/``xs`` convert); a subtree
    free of chart symbols without node form (log(2), a float) becomes one
    constant; anything else raises UnsupportedNode.  A complex expression is
    split into its real and imaginary parts by expanding it, or where I is
    left inside a power, as in 1/(3 + I*y1), by sympy's as_real_imag; a part
    that then needs atan2 or Abs, as (4 + I*y1)^(-3/2) does, is refused."""
    sp = require_sympy()

    expr = sp.sympify(expr)
    if expr.has(sp.I):
        expr = sp.expand(expr)
        re, im = expr.coeff(sp.I, 0), expr.coeff(sp.I)
        if re.has(sp.I) or im.has(sp.I) or sp.expand(re + sp.I * im) != expr:
            re, im = expr.as_real_imag()
        return Pair(_from_sympy(re, {}), _from_sympy(im, {}))
    return _from_sympy(expr, {})


def _from_sympy(expr, memo):
    found = memo.get(expr)
    if found is not None:
        return found
    sp = require_sympy()

    try:
        if expr.is_Rational:
            out = number(Fraction(int(expr.p), int(expr.q)))
        elif expr is sp.pi:
            out = PI
        elif expr.is_Symbol:
            if expr.name not in Y_NAMES + X_NAMES or expr != sp.Symbol(expr.name, real=True):
                raise UnsupportedNode(f"{expr} is not a variable of the chart")
            out = variable(expr.name)
        elif expr.is_Add:
            out = add(*[_from_sympy(a, memo) for a in expr.args])
        elif expr.is_Mul:
            out = mul(*[_from_sympy(a, memo) for a in expr.args])
        elif expr.is_Pow and expr.exp.is_Rational:
            out = power(_from_sympy(expr.base, memo), Fraction(int(expr.exp.p), int(expr.exp.q)))
        elif isinstance(expr, (sp.sin, sp.cos, sp.exp)):
            out = function(type(expr).__name__, _from_sympy(expr.args[0], memo))
        else:
            raise UnsupportedNode(f"cannot evaluate the {type(expr).__name__} node {expr}")
    except (UnsupportedNode, GrammarError):
        if expr.free_symbols:
            raise
        out = _intern("const", (complex(expr), expr), expr)
    memo[expr] = out
    return out


# ---------------------------------------------------------------------------
# the grammar
# ---------------------------------------------------------------------------

_NAMES = {v.args: v for v in Y_VARS + X_VARS}
_NAMES["pi"] = PI
_BINARY = {ast.Add: add, ast.Sub: lambda a, b: add(a, negate(b)), ast.Mult: mul,
           ast.Div: lambda a, b: mul(a, power(b, -1))}


def _power_of(base, exp):
    """base^exp from a ``^`` of the source, refused before it is computed
    when the exponent is a number above MAX_POWER or times the bit length of
    the largest number in the base passes MAX_BITS: a power distributes over
    a product, so (10^60*y1)^64 would build 10^3840."""
    if exp.op == "num":
        if abs(exp.args) > MAX_POWER or abs(exp.args) * base.bits > MAX_BITS:
            raise GrammarError(f"a power with exponent {exp} exceeds {MAX_POWER} or "
                               f"{MAX_BITS} bits")
    return power(base, exp)


def _build(node):
    """The expression node of one syntax-tree node of the grammar."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _power_of(_build(node.left), _build(node.right))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_build(node.left), _build(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return _build(node.operand)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return negate(_build(node.operand))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in FUNCTIONS and not node.keywords and len(node.args) == 1
            and not isinstance(node.args[0], ast.Starred)):
        return function(node.func.id, _build(node.args[0]))
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return number(_decimal(node.value))
    raise GrammarError(f"{ast.unparse(node)} is outside the grammar")


def parse_scalar(value, n=3):
    """Parse a grammar string, a number, or a {"re","im"} pair.

    Returns a Node; the pair form yields a Pair.  A node, Pair or sympy
    expression is checked against the grammar (a sympy one converted)."""
    if isinstance(value, dict):
        extra = set(value) - {"re", "im"}
        if extra:
            raise GrammarError(f"unknown keys in complex literal: {sorted(extra)}")
        return Pair(parse_scalar(value.get("re", 0), n), parse_scalar(value.get("im", 0), n))
    if isinstance(value, (int, float, Fraction)):
        return validate_grammar(number(_decimal(value)), n)
    if isinstance(value, (Node, Pair)):
        return validate_grammar(value, n)
    if is_sympy(value):
        try:
            return validate_grammar(from_sympy(value), n)
        except UnsupportedNode as exc:
            raise GrammarError(str(exc)) from None
    if not isinstance(value, str):
        raise GrammarError(f"cannot parse {value!r} as a scalar field")
    try:
        # ValueError: a null byte; RecursionError: nesting too deep to build
        expr = _build(ast.parse(value.replace("^", "**"), mode="eval").body)
    except GrammarError as exc:
        if "complex" in str(exc):
            raise GrammarError(f"{value!r} is complex; complex values enter only as "
                               '{"re": ..., "im": ...}') from None
        raise
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise GrammarError(f"cannot parse {value!r}: {exc}") from None
    return validate_grammar(expr, n)


def validate_grammar(expr, n=3):
    """Check that expr uses only grammar nodes, chart variables of dimension
    n and exponents that are integers of at most MAX_POWER or +-1/2."""
    if isinstance(expr, Pair):
        validate_grammar(expr.re, n)
        validate_grammar(expr.im, n)
        return expr
    unknown = expr.vars - set(Y_NAMES[:n] + X_NAMES[:n])
    if unknown:
        raise GrammarError(f"unknown variable {min(unknown)} (chart dimension {n})")
    for node in _preorder(expr):
        if node.op == "const":
            raise GrammarError(f"{node} is outside the grammar")
        if node.op == "mul":
            for b, e in node.args:
                if not (e.denominator == 1 or abs(e) == _HALF):
                    raise GrammarError(f"non-integer power ({b})^({e})")
                if abs(e) > MAX_POWER:
                    raise GrammarError(f"({b})^{e} has an exponent above {MAX_POWER}")
    return expr


def _preorder(node):
    seen, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        if node.op == "add":
            stack.extend(t for t, _ in node.args[1])
        elif node.op == "mul":
            stack.extend(b for b, _ in node.args)
        elif node.op in FUNCTIONS:
            stack.append(node.args)


def fibre_frequencies(expr, n):
    """The integer frequency vector k of every x-dependent sin/cos atom of expr.

    Every occurrence of a fibre variable must sit inside sin/cos whose
    argument is 2*pi*(k . x) plus an x-free phase, k an integer vector;
    otherwise PeriodicityError names the first violation.  x-free subtrees
    are skipped.  A Pair's halves are read both.
    """
    expr = as_field(expr)
    if isinstance(expr, Pair):
        return {**fibre_frequencies(expr.re, n), **fibre_frequencies(expr.im, n)}
    xs = set(X_NAMES[:n])
    found = {}

    def frequency(atom, x):
        c, t = _coeff_term(diff(atom.args, x))
        if t.vars:
            raise PeriodicityError(f"argument of {atom} is nonlinear in {x}")
        k = c / 2
        if c and (t is not PI or k.denominator != 1):
            raise PeriodicityError(
                f"frequency of {x} in {atom} is not an integer multiple of 2*pi")
        return int(k)

    def visit(node):
        if node.vars.isdisjoint(xs):
            return
        if node.op in ("sin", "cos"):
            found[node] = tuple(frequency(node, x) for x in X_NAMES[:n])
        elif node.op == "var":
            raise PeriodicityError(f"fibre variable {node} appears outside sin/cos")
        elif node.op == "exp":
            raise PeriodicityError(f"fibre variable inside exp in {node}")
        elif node.op == "add":
            for t, _ in node.args[1]:
                visit(t)
        else:
            for b, _ in node.args:
                visit(b)

    visit(expr)
    return found


def require_fibre_periodic(expr, n):
    fibre_frequencies(expr, n)
    return expr


def fibre_mean(expr, n):
    """The exact mean over the unit fibre torus of an x-free or trig-polynomial
    node, or None for any other: each x-dependent sin/cos atom is a wave
    cos(2*pi*k.x + phase) (sin a = cos(a - pi/2)), a product of two waves is
    their sum and difference waves at half the coefficient, phases adding as
    nodes, keyed by (k, phase) with k lexicographically >= 0, and the mean is
    the sum of c*cos(phase) over k = 0.  An x-dependent factor with a negative
    or fractional exponent, or anything fibre_frequencies refuses, gives None."""
    expr, xs, zero = as_field(expr), frozenset(X_NAMES[:n]), (0,) * n
    try:
        frequencies = fibre_frequencies(expr, n)
    except PeriodicityError:
        return None

    def collect(waves):
        out = {}
        for (k, phase), c in waves:
            key = (k, phase) if k >= zero else (tuple(-a for a in k), negate(phase))
            out[key] = add(out.get(key, ZERO), c)
        return {key: c for key, c in out.items() if c is not ZERO}

    @functools.cache
    def waves(node):
        if node.vars.isdisjoint(xs):
            return {(zero, ZERO): node}
        if node.op in ("sin", "cos"):
            phase = node.args.subs(dict.fromkeys(xs, 0)) - (PI * _HALF if node.op == "sin" else 0)
            return collect([((frequencies[node], phase), ONE)])
        if node.op == "add":
            parts = [(c, waves(t)) for t, c in node.args[1]]
            if all(part is not None for _, part in parts):
                return collect([((zero, ZERO), number(node.args[0]))] + [
                    (key, _scaled(c, v)) for c, part in parts for key, v in part.items()])
        elif node.op == "mul":
            out = {(zero, ZERO): ONE}
            for b, e in node.args:
                free = b.vars.isdisjoint(xs)
                factor = {(zero, ZERO): _product(Fraction(1), [(b, e)])} if free else waves(b)
                if factor is None or not free and (e < 0 or e.denominator != 1):
                    return None
                for _ in range(1 if free else int(e)):
                    out = collect(((tuple(map(op, k, j)), p + s * q), c * d * _HALF)
                                  for (k, p), c in out.items() for (j, q), d in factor.items()
                                  for op, s in ((operator.add, 1), (operator.sub, -1)))
            return out
        return None

    found = waves(expr)
    return None if found is None else add(
        *[mul(c, function("cos", phase)) for (k, phase), c in found.items() if k == zero])


# ---------------------------------------------------------------------------
# sampled fields: jets
# ---------------------------------------------------------------------------

# samples evaluated at once: temporaries stay a few MB per expression
# even on a 3-d chart integral (512 x 4096 samples)
_BLOCK_SAMPLES = 1 << 14


@functools.lru_cache(maxsize=1024)
def constant(c):
    """c as a Python complex, converted once per process (a node through
    its value; a sympy number, from a library caller, through evalf)."""
    return complex(c)


class Jet:
    """A sampled field with its nonzero first partials.

    ``value`` and each entry of ``partials`` (variable -> partial) is a Python
    complex constant or an array over the samples; they broadcast together.
    A product follows the product rule; ``diff`` returns the partial as a
    value-only jet (``partials`` None), which cannot be differentiated again:
    every residual sampled this way needs first derivatives only.  A jet is
    zero, and equals 0, only when its value is the constant 0 and it has no
    partials, so constant and structurally absent partials cancel exactly.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials=None):
        self.value = value
        self.partials = partials

    def is_zero(self):
        return _is_zero_constant(self.value) and not self.partials

    def __eq__(self, other):
        return other == 0 and self.is_zero()

    def diff(self, v):
        if self.partials is None:
            raise DegreeError("a jet carries first derivatives only")
        return Jet(self.partials.get(v, 0j))

    def _map(self, f):
        """The jet of f(field) for a real-linear f, such as a real part."""
        def g(z):
            return complex(f(z)) if type(z) is complex else f(z)
        partials = (None if self.partials is None
                    else _summed({}, {v: g(p) for v, p in self.partials.items()}))
        return Jet(g(self.value), partials)

    def as_real_imag(self):
        return self._map(lambda z: z.real), self._map(lambda z: z.imag)

    def __neg__(self):
        return self._map(lambda z: -z)

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet(constant(other), {})
        if self.is_zero() or other.is_zero():
            return other if self.is_zero() else self
        if self.partials is None or other.partials is None:
            return Jet(self.value + other.value)
        return Jet(self.value + other.value, _summed(self.partials, other.partials))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            other = Jet(constant(other), {})
        for a, b in ((self, other), (other, self)):
            if b.partials == {} and type(b.value) is complex and b.value in (1, -1):
                return a if b.value == 1 else -a  # a sign
        if self.is_zero() or other.is_zero():
            return Jet(0j, {})
        a, b = self.value, other.value
        return _chain((self, other), a * b, lambda: (b, a))

    __rmul__ = __mul__


def _is_zero_constant(z):
    return type(z) is complex and z == 0


def _summed(first, second):
    """Two maps of partials added by variable, without the constant zeros."""
    out = dict(first)
    for v, p in second.items():
        out[v] = out[v] + p if v in out else p
    return {v: p for v, p in out.items() if not _is_zero_constant(p)}


# ---------------------------------------------------------------------------
# the evaluator: one walk of the expression nodes, on jets
# ---------------------------------------------------------------------------

def _chain(args, value, grads):
    """The jet of f(*args) from f's value and grads(), f's partial in each
    argument, which is taken only when every argument carries partials."""
    if any(a.partials is None for a in args):
        return Jet(value)
    terms = [{v: g * p for v, p in a.partials.items()} for a, g in zip(args, grads())]
    return Jet(value, functools.reduce(_summed, terms))


def _unary(f, df):
    return lambda a: _chain((a,), f(a.value), lambda: (df(a.value),))


def _power_op(k, half):
    """z^k, or for half sqrt(z)^k = z^(k/2) with the principal root."""
    def op(a):
        root = np.sqrt(a.value) if half else a.value
        return _chain((a,), root ** k,
                      lambda: ((k / 2 if half else k) * root ** (k - 1 - half),))
    return op


def _sum_op(const, coeffs):
    """const + sum c_i * a_i."""
    def op(*args):
        terms = [a if c == 1 else a * c for a, c in zip(args, coeffs)]
        if const:
            terms.insert(0, const)
        return functools.reduce(operator.add, terms)
    return op


def _product_op(*args):
    return functools.reduce(operator.mul, args)


_UNARY = {"sin": _unary(np.sin, np.cos), "cos": _unary(np.cos, lambda v: -np.sin(v)),
          "exp": _unary(np.exp, np.exp)}


class Walk:
    """One evaluator for a list of expressions in the chart variables.

    Each expression is a node or a Pair (sympy input goes through
    ``from_sympy``).  The nodes are walked once, memoised, into one program:
    a node shared within or between expressions is computed once, and a
    subtree free of chart variables is one complex constant.  The program
    runs on jets: ``grid``, the only way to run it, gives the values, or
    values with first partials by the chain rule, on a product grid of 1-d
    axes; each intermediate is dropped after its last use.  ``reads`` holds
    the positions of the chart variables the program reads.  Powers must be
    integers or half-integers (with the principal root); any other power, or
    a variable outside the chart, raises UnsupportedNode.
    """

    def __init__(self, exprs, chart):
        self.symbols = tuple(chart.ys) + tuple(chart.xs)
        self._memo = {s: i for i, s in enumerate(self.symbols)}
        self._steps = []
        self.outputs = [self._output(as_field(e)) for e in exprs]
        del self._memo
        kept = {o for o in self.outputs if type(o) is int}
        slots = kept.union(a for _, args in self._steps for a in args if type(a) is int)
        self.reads = tuple(sorted(s for s in slots if s < len(self.symbols)))
        last = {a: i for i, (_, args) in enumerate(self._steps) for a in args if type(a) is int}
        drops = [[] for _ in self._steps]
        for slot, i in last.items():
            if slot not in kept:
                drops[i].append(slot)
        self._steps = [(op, args, drop) for (op, args), drop in zip(self._steps, drops)]

    def _output(self, expr):
        if not isinstance(expr, Pair):
            return self._visit(expr)
        re, im = self._visit(expr.re), self._visit(expr.im)
        if type(re) is complex and type(im) is complex:
            return re + 1j * im
        if type(re) is complex and re == 0:
            return self._push(_product_op, [im, 1j])
        return self._push(lambda a, b: a + b * 1j, [re, im])

    def _push(self, op, args):
        self._steps.append((op, [a if type(a) is int else Jet(a, {}) for a in args]))
        return len(self.symbols) + len(self._steps) - 1

    def _visit(self, node):
        """The slot of node's value, or its complex constant."""
        found = self._memo.get(node)
        if found is None:
            if not node.vars:
                found = node.value()
            elif node.op == "var":
                raise UnsupportedNode(f"{node} is not a variable of the chart")
            else:
                found = self._step(node)
            self._memo[node] = found
        return found

    def _step(self, node):
        op, args = node.op, node.args
        if op in _UNARY:
            return self._push(_UNARY[op], [self._visit(args)])
        if op == "add":
            const, terms = args
            if const == 0 and len(terms) == 1 and terms[0][0].op == "mul":
                # a rational times a product: one product, constants first
                return self._times(terms[0][1], terms[0][0].args)
            folded, varying, coeffs = complex(const), [], []
            for t, c in terms:
                slot = self._visit(t)
                if type(slot) is complex:
                    folded += complex(c) * slot
                else:
                    varying.append(slot)
                    coeffs.append(complex(c))
            return self._push(_sum_op(folded, coeffs), varying)
        return self._times(1, args)

    def _times(self, coeff, factors):
        """coeff * prod base^exponent: constant factors fold into one
        complex constant, first; each varying power is its own step."""
        folded, varying = complex(coeff), []
        for b, e in factors:
            if not b.vars:
                folded *= _factor_value(b, e)
                continue
            if e.denominator > 2:
                raise UnsupportedNode(f"cannot evaluate the power ({b})^({e})")
            slot = self._visit(b)
            if e != 1:
                slot = self._push(_power_op(int(e.numerator), e.denominator == 2), [slot])
            varying.append(slot)
        if folded != 1:
            varying.insert(0, folded)
        if len(varying) == 1:
            return varying[0]
        return self._push(_product_op, varying)

    def _run(self, box, jets):
        """The outputs, as jets with first partials or as values, on the
        product grid of the 1-d axes ``box``: the i-th chart variable the
        program reads varies on axis i."""
        vals = [None] * (len(self.symbols) + len(self._steps))
        for i in self.reads:
            shape = [1] * len(box)
            shape[i] = -1
            vals[i] = Jet(np.reshape(np.asarray(box[i], dtype=complex), shape),
                          {self.symbols[i]: 1 + 0j} if jets else None)
        for i, (op, args, drop) in enumerate(self._steps, start=len(self.symbols)):
            vals[i] = op(*[vals[a] if type(a) is int else a for a in args])
            for slot in drop:
                vals[slot] = None
        out = [vals[o] if type(o) is int else Jet(o, {}) for o in self.outputs]
        return out if jets else [jet.value for jet in out]

    def grid(self, axes, size=None, jets=False):
        """(index, values or jets) on the product grid of the 1-d ``axes``,
        one per chart variable, a sub-box at a time: ``index`` is the tuple
        of slices, one per axis, that picks the sub-box out of the whole
        grid.  Each variable varies on its own
        axis, so an output is a complex constant or an array of extent 1 on
        the axes of the variables it does not read.  With ``size``, leading
        axes the program reads are split one point at a time until the rest
        of them span at most ``size`` points; the sub-boxes come in row-major
        order."""
        split, span = [], math.prod(len(axes[i]) for i in self.reads)
        for i in self.reads:
            if size is None or span <= size:
                break
            split.append(i)
            span //= len(axes[i])
        for point in itertools.product(*(range(len(axes[i])) for i in split)):
            index = [slice(None)] * len(axes)
            for i, j in zip(split, point):
                index[i] = slice(j, j + 1)
            yield tuple(index), self._run([a[s] for a, s in zip(axes, index)], jets)


def sample_point(axes, index, shape, flat):
    """The point (y, x) of the flat index into an array of the given shape
    over the sub-box ``index`` (as Walk.grid yields it) of the grid of
    ``axes``: index 0 on every axis of extent 1, the first grid point in
    row-major order that carries the indexed value."""
    where = (0,) * (len(axes) - len(shape)) + np.unravel_index(flat, shape)
    coords = [float(axis[s][i]) for axis, s, i in zip(axes, index, where)]
    n = len(axes) // 2
    return tuple(coords[:n]), tuple(coords[n:])


class SupNorm(float):
    """The sampled max |z| of a group of expressions; .re and .im are the
    sampled max |Re z| and max |Im z|, taken in the same pass, and .at,
    .re_at and .im_at the sample points (y, x) where each is first reached
    (None for a part that is 0 at every sample)."""

    def __new__(cls, value, re, im, at=(None, None, None)):
        norm = super().__new__(cls, value)
        norm.re, norm.im = float(re), float(im)
        norm.at, norm.re_at, norm.im_at = at
        return norm


class Peaks:
    """Running max |z|, |Re z| and |Im z| of groups of sampled values, folded
    in one sub-box of the sample grid at a time, with the point of each.  A
    NaN sample is the peak from then on, as numpy's maximum makes it."""

    def __init__(self, count):
        self.peak = np.zeros((count, 3))
        self.at = [[None] * 3 for _ in range(count)]

    def add(self, k, vals, axes, index):
        """Fold in group k on the sub-box ``index`` of the grid of ``axes``:
        vals are the group's values there, complex constants or arrays that
        broadcast against the sub-box's grid."""
        vals = np.stack(np.broadcast_arrays(*vals))
        for part, mags in enumerate((np.abs(vals), np.abs(vals.real), np.abs(vals.imag))):
            per_point = mags.max(axis=0)
            flat = int(np.argmax(per_point))
            best, current = per_point.flat[flat], self.peak[k, part]
            if best > current or (np.isnan(best) and not np.isnan(current)):
                self.peak[k, part] = best
                self.at[k][part] = sample_point(axes, index, per_point.shape, flat)

    def norms(self):
        return [SupNorm(*peak, at=tuple(at)) for peak, at in zip(self.peak, self.at)]


def sup_norms(groups, chart, base_k=5, fibre_k=8):
    """The SupNorm of each group of expressions over the deterministic sample grid.

    The nonzero expressions of all groups go into one Walk, evaluated on the
    grid by broadcasting, one sub-box of at most _BLOCK_SAMPLES points at a
    time; only running maxima of |z|, |Re z| and |Im z| per group are kept.
    A group whose expressions are all exactly 0 is 0.0.
    """
    groups = list(groups)
    owner, exprs = [], []
    for k, group in enumerate(groups):
        for e in group:
            e = as_field(e)
            if e != 0:
                owner.append(k)
                exprs.append(e)
    peaks = Peaks(len(groups))
    if exprs:
        members = {k: [i for i, o in enumerate(owner) if o == k] for k in set(owner)}
        axes = chart.sample_axes(base_k, fibre_k)
        for index, vals in Walk(exprs, chart).grid(axes, _BLOCK_SAMPLES):
            for k, idx in members.items():
                peaks.add(k, [vals[i] for i in idx], axes, index)
            del vals  # so the next sub-box is not evaluated beside this one
    return peaks.norms()


def sup_norm_scalars(exprs, chart, base_k=5, fibre_k=8):
    """Max |value| of the expressions over the deterministic sample grid."""
    return sup_norms([exprs], chart, base_k, fibre_k)[0]
