"""The node parser against sympy's evaluating build of the same grammar.

The oracle is the sympy builder that parse_scalar used before it built
expression nodes: each syntax-tree node combined with Python's operators on
sympy operands, refused when the result is not finite, holds I, or uses a
node or power outside the grammar.  Over the reference corpus, the grammar
parametrisations of test_fields and seeded random grammar strings, each
string gets from both:
  - the same accept or refuse;
  - a to_sympy of the node that expands to the sympy build;
  - the same variables read;
  - the same fibre frequencies (each atom's vector up to its sign: sympy
    and the nodes may pull the minus sign of sin(-a) out differently);
  - Walk values within 1e-12 of lambdify's, relative to the largest sample
    and to the largest sin/cos/exp argument (the conditioning of both).

The node parser refuses a string as soon as one of its subexpressions
leaves the grammar (a division by zero, a complex root, an Abs, a
non-integer power); sympy refuses only what its final result leaves in, so
pi/(1/0) is 0 and (-1)^(1/2)*(-1)^(1/2) is -1 to it.  Those strings are the
one sanctioned difference, and the node parser must refuse each of them.
"""

import ast
import operator
import random

import numpy as np
import pytest
import sympy as sp

from syzlab.charts import Chart, product_grid
from syzlab.fields import (
    GrammarError,
    PeriodicityError,
    Walk,
    fibre_frequencies,
    parse_scalar,
    to_sympy,
)

from test_fields import COMPLEX_STRINGS, LARGE_POWERS, OFF_GRAMMAR, REFERENCE_CORPUS

N = 2
CHART = Chart(N, ((-1, 1), (-1, 1)))
Y = sp.symbols("y1 y2", real=True)
X = sp.symbols("x1 x2", real=True)
AXES = [np.array([-0.7, 0.3, 0.9]), np.array([-0.4, 0.55]),
        np.array([0.1, 0.6]), np.array([0.25, 0.8])]
GRID = product_grid(AXES)

# ---------------------------------------------------------------------------
# the oracle: the sympy build
# ---------------------------------------------------------------------------

_NAMES = {s.name: s for s in Y + X + sp.symbols("y3 x3", real=True)}
_NAMES["pi"] = sp.pi
_CALLS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv}


def _power(base, exp):
    if exp.is_Rational:
        bits = max((max(abs(r.p).bit_length(), r.q.bit_length())
                    for r in base.atoms(sp.Rational)), default=1)
        if abs(exp) > 64 or abs(exp) * bits > 4096:
            raise GrammarError("large power")
    return base ** exp


def sympy_build(node):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _power(sympy_build(node.left), sympy_build(node.right))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](sympy_build(node.left), sympy_build(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](sympy_build(node.operand))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _CALLS and not node.keywords and len(node.args) == 1
            and not isinstance(node.args[0], ast.Starred)):
        return _CALLS[node.func.id](sympy_build(node.args[0]))
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value
        return sp.Integer(value) if isinstance(value, int) else sp.Rational(repr(value))
    raise GrammarError("outside the grammar")


def _outside(expr):
    """Whether a sympy build leaves the grammar."""
    return expr.has(sp.I, sp.nan, sp.zoo, sp.oo, -sp.oo) or any(
        (isinstance(node, sp.Function) and not isinstance(node, (sp.sin, sp.cos, sp.exp)))
        or (isinstance(node, sp.Pow) and not (
            node.exp.is_Integer and abs(node.exp) <= 64 or abs(node.exp) == sp.Rational(1, 2)))
        for node in sp.preorder_traversal(expr))


def sympy_parse(value, n=N):
    if not isinstance(value, str):
        if not np.isfinite(value):
            raise GrammarError("not finite")
        return sp.Rational(repr(value))
    try:
        expr = sympy_build(ast.parse(value.replace("^", "**"), mode="eval").body)
    except (SyntaxError, ValueError, RecursionError):
        raise GrammarError("cannot parse") from None
    allowed = set(Y[:n]) | set(X[:n])
    if _outside(expr) or not expr.free_symbols <= allowed:
        raise GrammarError("refused")
    return expr


def subexpression_leaves_grammar(text):
    """Whether the sympy build of some subexpression of text leaves the grammar."""
    for sub in ast.walk(ast.parse(text.replace("^", "**"), mode="eval").body):
        try:
            if _outside(sympy_build(sub)):
                return True
        except (GrammarError, TypeError, ValueError):
            continue
    return False


def sympy_frequencies(expr):
    """The old frequency reader, on the sympy build."""
    found = {}

    def visit(node):
        if node.free_symbols.isdisjoint(X):
            return
        if isinstance(node, (sp.sin, sp.cos)):
            ks = []
            for x in X:
                k = sp.expand(sp.diff(node.args[0], x)) / (2 * sp.pi)
                if k.free_symbols or not k.is_integer:
                    raise PeriodicityError(str(node))
                ks.append(int(k))
            found[node] = tuple(ks)
        elif node.is_Symbol or isinstance(node, sp.exp):
            raise PeriodicityError(str(node))
        else:
            for arg in node.args:
                visit(arg)

    visit(expr)
    return found


# ---------------------------------------------------------------------------
# the strings
# ---------------------------------------------------------------------------

def grammar_string(rng, depth):
    """A random string of the grammar: numbers, decimals, pi, the chart
    variables, fibre waves, + - * /, integer and +-1/2 powers, and sin, cos
    and exp, also of products with negative coefficients."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            "y1", "y2", "x1", "x2", str(rng.randint(0, 5)), f"{rng.randint(1, 5)}/{rng.randint(2, 4)}",
            "0.5", "pi",
            f"{rng.choice(['sin', 'cos'])}(2*pi*{rng.randint(-2, 2)}*x{rng.randint(1, 2)} + "
            f"{rng.choice(['y1', '0', 'pi/2', 'pi', 'y2/3'])})"])
    a, b = grammar_string(rng, depth - 1), grammar_string(rng, depth - 1)
    return rng.choice([
        f"{a} + {b}", f"{a} - {b}", f"{a}*{b}", f"({a})/({b})", f"-({a})",
        f"({a})^{rng.choice(['2', '3', '-1', '-2', '0', '(1/2)', '(-1/2)'])}",
        f"{rng.choice(['sin', 'cos', 'exp'])}({a})", f"({a})*({b})", f"{rng.randint(1, 3)}*({a})",
        f"({rng.choice(['-2', '2', '-1', '4', '1/2', '-3/4', 'pi', '-pi'])}*{a})^"
        f"({rng.choice(['1/2', '-1/2', '2', '-1'])})",
        f"exp({a})*exp({b})", f"({a})^(1/2)*({a})^(1/2)", f"({a})^2*({b})^(-1/2)"])


def random_strings(seed, count):
    rng = random.Random(f"parity:{seed}")
    return [grammar_string(rng, rng.randint(1, 4)) for _ in range(count)]


def _values(text):
    return [p.values[0] if hasattr(p, "values") else p for p in text]


# rational roots of numbers beyond a float's exactness (and range)
LARGE_ROOTS = ["(10^60*10^60*10^60*10^60*10^60*10^60)^(1/3)", "((2^60+1)^3)^(1/3)",
               "((3^40)^5)^(1/5)*y1", "(10^60*10^60*10^60*10^60*10^60*10^60+1)^(1/3)",
               "((2^60+1)^3/(3^50)^3)^(1/3)"]

CASES = (list(REFERENCE_CORPUS) + _values(OFF_GRAMMAR) + COMPLEX_STRINGS + LARGE_POWERS
         + LARGE_ROOTS + [s for seed in range(4) for s in random_strings(seed, 100)])


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

def _mode(vectors):
    return {max(k, tuple(-i for i in k)) for k in vectors}


def _frequencies_or_error(fn, expr):
    try:
        return _mode(fn(expr).values())
    except PeriodicityError:
        return PeriodicityError


def _walk_agrees(node, want):
    fn = sp.lambdify(Y + X, want, modules="numpy")
    with np.errstate(all="ignore"):
        w = np.broadcast_to(np.asarray(fn(*GRID.T), dtype=complex), (len(GRID),))
        ((_, vals),) = Walk([node], CHART).grid(AXES)
        v = np.broadcast_to(vals[0], [len(a) for a in AXES]).ravel()
    # where sympy's real evaluation is finite (a root of a negative sample is
    # complex to the walk, NaN to numpy on reals)
    ok = np.isfinite(w)
    if not ok.any():
        return True
    cond = 1.0
    for atom in want.atoms(sp.sin, sp.cos, sp.exp):
        arg = sp.lambdify(Y + X, atom.args[0], modules="numpy")
        with np.errstate(all="ignore"):
            a = np.abs(np.broadcast_to(np.asarray(arg(*GRID.T), dtype=complex), (len(GRID),)))
        cond = max(cond, float(np.max(a[np.isfinite(a)], initial=0.0)))
    scale = max(1.0, float(np.max(np.abs(w[ok]))))
    return float(np.max(np.abs(v[ok] - w[ok]))) <= 1e-12 * cond * scale


@pytest.mark.parametrize("chunk", range(8))
def test_node_parser_matches_sympy_build(chunk):
    for text in CASES[chunk::8]:
        try:
            want = sympy_parse(text)
        except GrammarError:
            want = None
        try:
            got = parse_scalar(text, N)
        except GrammarError:
            got = None
        if want is None:
            assert got is None, (text, got)
            continue
        if got is None:
            assert subexpression_leaves_grammar(text), (text, want)
            continue
        assert sp.expand(to_sympy(got) - want) == 0, (text, got, want)
        assert got.vars == {s.name for s in want.free_symbols}, text
        assert (_frequencies_or_error(lambda e: fibre_frequencies(e, N), got)
                == _frequencies_or_error(sympy_frequencies, want)), text
        assert _walk_agrees(got, want), text


def test_random_strings_reach_every_case():
    """The seeded strings are accepted and refused both, reach the
    sanctioned difference, and use every node kind."""
    accepted = refused = sanctioned = 0
    kinds = set()
    for text in CASES:
        try:
            want = sympy_parse(text)
        except GrammarError:
            want = None
        try:
            got = parse_scalar(text, N)
        except GrammarError:
            got = None
        accepted += got is not None
        refused += got is None
        sanctioned += got is None and want is not None
        if got is not None:
            kinds.update(type(node).__name__ for node in sp.preorder_traversal(want))
    assert accepted > 200 and refused > 50 and sanctioned >= 1
    assert {"Add", "Mul", "Pow", "sin", "cos", "exp", "Pi", "Symbol"} <= kinds


@pytest.mark.parametrize("text, value", [
    ("pi/(1/0)", 0), ("(-1)^(1/2)*(-1)^(1/2)", -1), ("((y1^2)^(1/2))^2", "y1**2"),
    ("exp((-pi*pi)^(1/2))", -1),
])
def test_a_subexpression_outside_the_grammar_is_refused(text, value):
    """sympy folds these back into the grammar; the node parser refuses
    them at the subexpression that leaves it."""
    assert sympy_parse(text) == sp.sympify(value, locals=_NAMES)
    assert subexpression_leaves_grammar(text)
    with pytest.raises(GrammarError):
        parse_scalar(text, N)


@pytest.mark.parametrize("text, value", [
    (LARGE_ROOTS[0], 10 ** 120), (LARGE_ROOTS[1], 2 ** 60 + 1),
    (LARGE_ROOTS[4], sp.Rational(2 ** 60 + 1, 3 ** 50)),
], ids=["10^120", "2^60+1", "(2^60+1)/3^50"])
def test_an_exact_root_of_a_large_number_is_taken(text, value):
    assert sympy_parse(text) == value
    assert to_sympy(parse_scalar(text, N)) == value
