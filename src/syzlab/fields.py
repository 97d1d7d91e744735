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


# sample rows evaluated at once: temporaries stay a few MB per expression
# even on a 3-d chart integral (512 x 4096 samples)
_BLOCK_SAMPLES = 1 << 14


def blocks(evaluate, Y, X, size=_BLOCK_SAMPLES):
    """(rows, evaluate(Y[rows], X[rows])) for consecutive slices of at most
    ``size`` sample rows, so only one block of values is held at a time."""
    for start in range(0, len(Y), size):
        rows = slice(start, start + size)
        yield rows, evaluate(Y[rows], X[rows])


def compile_scalars(exprs, chart: Chart):
    """Vectorised evaluator for a list of expressions.

    The list is compiled once, with common subexpressions shared.  Returns
    f(Y, X) -> complex array of shape (len(exprs), npts) where Y, X are
    (npts, n) sample arrays; f evaluates one block of rows at a time.
    """
    exprs = list(exprs)
    syms = list(chart.ys) + list(chart.xs)
    if not exprs:
        return lambda Y, X: np.zeros((0, len(Y)), dtype=complex)
    fn = sp.lambdify(syms, exprs, modules="numpy", cse=True)

    def columns(Y, X):
        return fn(*(Y[:, i] for i in range(chart.n)), *(X[:, i] for i in range(chart.n)))

    def evaluate(Y, X):
        out = np.empty((len(exprs), len(Y)), dtype=complex)
        for rows, vals in blocks(columns, Y, X):
            for i, v in enumerate(vals):
                out[i, rows] = v
        return out

    return evaluate


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
    in one block of sample rows at a time, with the point of each.  A NaN
    sample is the peak from then on, as numpy's maximum makes it."""

    def __init__(self, count):
        self.peak = np.zeros((count, 3))
        self.at = [[None] * 3 for _ in range(count)]

    def add(self, k, vals, Y, X):
        """Fold in group k on one block: vals has one row per expression and
        one column per sample row of (Y, X), or one column for values that
        are constant on the block."""
        for part, mags in enumerate((np.abs(vals), np.abs(vals.real), np.abs(vals.imag))):
            per_row = mags.max(axis=0)
            idx = int(np.argmax(per_row))
            best, current = per_row[idx], self.peak[k, part]
            if best > current or (np.isnan(best) and not np.isnan(current)):
                self.peak[k, part] = best
                self.at[k][part] = (tuple(map(float, Y[idx])), tuple(map(float, X[idx])))

    def norms(self):
        return [SupNorm(*peak, at=tuple(at)) for peak, at in zip(self.peak, self.at)]


def sup_norms(groups, chart: Chart, base_k=5, fibre_k=8):
    """The SupNorm of each group of expressions over the deterministic sample grid.

    The nonzero expressions of all groups are compiled into one evaluator,
    whose blocks are reduced as they come; only running maxima of |z|, |Re z|
    and |Im z| per group are kept.  A group whose expressions are all exactly
    0 is 0.0.
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
        members = {k: np.flatnonzero(np.array(owner) == k) for k in set(owner)}
        Y, X = chart.sample_points(base_k, fibre_k)
        for rows, vals in blocks(compile_scalars(exprs, chart), Y, X):
            for k, idx in members.items():
                peaks.add(k, vals[idx], Y[rows], X[rows])
            del vals  # so the next block is not evaluated beside this one
    return peaks.norms()


def sup_norm_scalars(exprs, chart: Chart, base_k=5, fibre_k=8):
    """Max |value| of the expressions over the deterministic sample grid."""
    return sup_norms([exprs], chart, base_k, fibre_k)[0]
