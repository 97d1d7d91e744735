"""Symbolic scalar fields on a chart.

Coefficient functions are sympy expressions over the real chart symbols
y1..y3, x1..x3.  The configuration grammar is a closed whitelist: numeric
literals, the chart variables, the constant ``pi``, unary ``+ -``, infix
``+ - * / ^`` and the functions ``sin cos exp`` of one argument.  A string
is built node by node from its Python syntax tree and never evaluated.  A
float, in a string or as a JSON number, reads as its shortest decimal (0.1 is
1/10), as chart boxes and K3 coordinates do.  Complex values
enter only as {"re": ..., "im": ...} pairs, so a parsed string is always a
real-valued expression: a string that builds to something containing I, such
as "(-1)^(1/2)", is refused.  A numeric exponent above MAX_POWER, or one
that times the bit length of the largest number in its base passes MAX_BITS,
is refused before the power is computed; so is an exponent above MAX_POWER
that sympy makes by merging powers, as in (1+y1)^64*(1+y1)^64.

Fibre periodicity is enforced syntactically: a fibre variable x_i may occur
only inside sin/cos whose argument is 2*pi*(integer)*x_i plus an x-free
phase.  This guarantees exact period-1 periodicity, which the torus
quadrature and fibrewise translations rely on.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import operator

import numpy as np
import sympy as sp

from .charts import X_SYMBOLS, Y_SYMBOLS, Chart

ALLOWED_FUNCTIONS = (sp.sin, sp.cos, sp.exp)
# the largest exponent in a parsed expression, and the most bits a power may
# give the numbers of its base
MAX_POWER = 64
MAX_BITS = 4096


class GrammarError(ValueError):
    """Raised when an expression leaves the configuration grammar."""


class PeriodicityError(ValueError):
    """Raised when a field is not syntactically fibre-periodic."""


_NAMES = {s.name: s for s in Y_SYMBOLS + X_SYMBOLS}
_NAMES["pi"] = sp.pi
_CALLS = {f.__name__: f for f in ALLOWED_FUNCTIONS}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv}


def _number(value):
    """A JSON or literal number as an exact sympy number; a float reads as
    its shortest decimal, so 0.1 is 1/10."""
    if isinstance(value, int):
        return sp.Integer(value)
    if not math.isfinite(value):
        raise GrammarError(f"{value} is not finite")
    return sp.Rational(repr(value))


def _power(base, exp):
    """base^exp, refused before it is computed when the exponent is a number
    above MAX_POWER or times the bit length of the largest number in the base
    passes MAX_BITS: sympy distributes a power over a product, so
    (10^60*y1)^64 would build 10^3840."""
    if exp.is_Rational:
        bits = max((max(abs(r.p).bit_length(), r.q.bit_length())
                    for r in base.atoms(sp.Rational)), default=1)
        if abs(exp) > MAX_POWER or abs(exp) * bits > MAX_BITS:
            raise GrammarError(f"a power with exponent {exp} exceeds {MAX_POWER} or "
                               f"{MAX_BITS} bits")
    return base ** exp


def _build(node):
    """The sympy expression of one syntax-tree node of the grammar, combined
    with Python's operators on sympy operands as an evaluated string would be."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _power(_build(node.left), _build(node.right))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_build(node.left), _build(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_build(node.operand))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _CALLS and not node.keywords and len(node.args) == 1
            and not isinstance(node.args[0], ast.Starred)):
        return _CALLS[node.func.id](_build(node.args[0]))
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return _number(node.value)
    raise GrammarError(f"{ast.unparse(node)} is outside the grammar")


def parse_scalar(value, n=3):
    """Parse a grammar string, a number, or a {"re","im"} pair.

    Returns a sympy expression; the pair form yields re + I*im.
    """
    if isinstance(value, dict):
        extra = set(value) - {"re", "im"}
        if extra:
            raise GrammarError(f"unknown keys in complex literal: {sorted(extra)}")
        re = parse_scalar(value.get("re", 0), n)
        im = parse_scalar(value.get("im", 0), n)
        return re + sp.I * im
    if isinstance(value, (int, float)):
        return validate_grammar(_number(value), n)
    if isinstance(value, sp.Expr):
        validate_grammar(value, n)
        return value
    if not isinstance(value, str):
        raise GrammarError(f"cannot parse {value!r} as a scalar field")
    try:
        # ValueError: a null byte; RecursionError: nesting too deep to build
        expr = _build(ast.parse(value.replace("^", "**"), mode="eval").body)
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise GrammarError(f"cannot parse {value!r}: {exc}") from None
    if expr.has(sp.I):
        raise GrammarError(f"{value!r} is complex; complex values enter only as "
                           '{"re": ..., "im": ...}')
    validate_grammar(expr, n)
    return expr


def validate_grammar(expr, n=3):
    """Check that expr is finite and uses only grammar node kinds, chart
    variables and exponents of at most MAX_POWER."""
    if expr.has(sp.nan, sp.zoo, sp.oo, -sp.oo):
        raise GrammarError(f"{expr} is not finite")
    allowed_syms = set(Y_SYMBOLS[:n]) | set(X_SYMBOLS[:n])
    for sym in expr.free_symbols:
        if sym not in allowed_syms:
            raise GrammarError(f"unknown variable {sym} (chart dimension {n})")
    for node in sp.preorder_traversal(expr):
        if isinstance(node, sp.Function) and not isinstance(node, ALLOWED_FUNCTIONS):
            raise GrammarError(f"function {node.func} is outside the grammar")
        if isinstance(node, sp.Pow):
            if not (node.exp.is_Integer or node.exp == sp.Rational(1, 2)
                    or node.exp == -sp.Rational(1, 2)):
                raise GrammarError(f"non-integer power {node}")
            if abs(node.exp) > MAX_POWER:
                raise GrammarError(f"{node} has an exponent above {MAX_POWER}")
    return expr


def fibre_frequencies(expr, n):
    """The integer frequency vector k of every x-dependent sin/cos atom of expr.

    Every occurrence of a fibre variable must sit inside sin/cos whose
    argument is 2*pi*(k . x) plus an x-free phase, k an integer vector;
    otherwise PeriodicityError names the first violation.  x-free subtrees
    are skipped.
    """
    xs = X_SYMBOLS[:n]
    found = {}

    def frequency(atom, x):
        slope = sp.expand(sp.diff(atom.args[0], x))
        if slope.free_symbols:
            raise PeriodicityError(f"argument of {atom} is nonlinear in {x}")
        k = slope / (2 * sp.pi)
        if not k.is_integer:
            raise PeriodicityError(
                f"frequency of {x} in {atom} is not an integer multiple of 2*pi")
        return int(k)

    def visit(node):
        if node.free_symbols.isdisjoint(xs):
            return
        if isinstance(node, (sp.sin, sp.cos)):
            found[node] = tuple(frequency(node, x) for x in xs)
        elif node.is_Symbol:
            raise PeriodicityError(f"fibre variable {node} appears outside sin/cos")
        elif isinstance(node, sp.exp):
            raise PeriodicityError(f"fibre variable inside exp in {node}")
        else:
            for arg in node.args:
                visit(arg)

    visit(expr)
    return found


def require_fibre_periodic(expr, n):
    fibre_frequencies(expr, n)
    return expr


# samples evaluated at once: temporaries stay a few MB per expression
# even on a 3-d chart integral (512 x 4096 samples)
_BLOCK_SAMPLES = 1 << 14


class DegreeError(ValueError):
    """Raised for operations applied at an invalid (bi)degree."""


class UnsupportedNode(TypeError):
    """Raised for a node kind that Walk does not evaluate."""


@functools.lru_cache(maxsize=1024)
def constant(c):
    """c as a Python complex, converted once per process (a sympy number
    through evalf)."""
    return complex(c)


class Jet:
    """A sampled field with its nonzero first partials.

    ``value`` and each entry of ``partials`` (symbol -> partial) is a Python
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
        if self.is_zero() or other.is_zero():
            return Jet(0j, {})
        a, b = self.value, other.value
        return _chain((self, other), a * b, lambda: (b, a))

    __rmul__ = __mul__


def _is_zero_constant(z):
    return type(z) is complex and z == 0


def _summed(first, second):
    """Two maps of partials added by symbol, without the constant zeros."""
    out = dict(first)
    for v, p in second.items():
        out[v] = out[v] + p if v in out else p
    return {v: p for v, p in out.items() if not _is_zero_constant(p)}


# ---------------------------------------------------------------------------
# the evaluator: one walk of the expression trees, on jets
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


def _atan2(a, b):
    y, x = a.value.real, b.value.real
    return _chain((a, b), np.arctan2(y, x), lambda: (x / (x * x + y * y), -y / (x * x + y * y)))


# the nodes Walk evaluates besides numeric powers; Abs and atan2 come from
# as_real_imag of a power such as V = det(Im beta)^(-1/2), on real arguments
_OPS = {
    sp.Add: lambda *args: functools.reduce(operator.add, args),
    sp.Mul: lambda *args: functools.reduce(operator.mul, args),
    sp.sin: _unary(np.sin, np.cos),
    sp.cos: _unary(np.cos, lambda v: -np.sin(v)),
    sp.exp: _unary(np.exp, np.exp),
    sp.Abs: _unary(np.abs, lambda v: np.sign(v.real)),
    sp.atan2: _atan2,
}


class Walk:
    """One evaluator for a list of expressions in the chart variables.

    The trees are walked once, memoised by node, into one program: a node
    shared within or between expressions is computed once, and a subtree
    free of chart variables is one complex constant.  The program runs on
    jets: ``grid``, the only way to run it, gives the values, or values with
    first partials by the chain rule, on a product grid of 1-d axes; each
    intermediate is dropped after its last use.  ``reads`` holds
    the positions of the chart variables the program reads.
    It evaluates numbers, pi, I, the chart variables, sums, products,
    integer and half-integer powers (with the principal root), sin, cos,
    exp, and the Abs and atan2 that ``as_real_imag`` makes; any other node
    raises UnsupportedNode.
    """

    def __init__(self, exprs, chart: Chart):
        self.symbols = tuple(chart.ys) + tuple(chart.xs)
        self._memo = {s: i for i, s in enumerate(self.symbols)}
        self._steps = []
        self.outputs = [self._visit(sp.sympify(e)) for e in exprs]
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

    def _visit(self, node):
        """The slot of node's value, or its complex constant."""
        found = self._memo.get(node)
        if found is None:
            if node.is_Symbol:
                raise UnsupportedNode(f"{node} is not a variable of the chart")
            args = [self._visit(a) for a in node.args]
            if all(type(a) is complex for a in args):
                found = constant(node)
            else:
                self._steps.append(self._step(node, args))
                found = len(self.symbols) + len(self._steps) - 1
            self._memo[node] = found
        return found

    @staticmethod
    def _step(node, args):
        """(op, args) of a node with a varying argument; its constant
        arguments become constant jets."""
        exp = node.exp if node.is_Pow else None
        if exp is not None and exp.is_Rational and exp.q <= 2 and type(args[0]) is int:
            return _power_op(int(exp.p), exp.q == 2), args[:1]
        if node.func not in _OPS:
            raise UnsupportedNode(f"cannot evaluate the {node.func.__name__} node {node}")
        return _OPS[node.func], [a if type(a) is int else Jet(a, {}) for a in args]

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


def sup_norms(groups, chart: Chart, base_k=5, fibre_k=8):
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
            e = sp.sympify(e)
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


def sup_norm_scalars(exprs, chart: Chart, base_k=5, fibre_k=8):
    """Max |value| of the expressions over the deterministic sample grid."""
    return sup_norms([exprs], chart, base_k, fibre_k)[0]
