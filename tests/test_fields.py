import ast
import functools
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from syzlab import fields
from syzlab.charts import Chart, ChartError, circle_points, product_grid
from syzlab.fields import (
    _BLOCK_SAMPLES,
    MAX_POWER,
    Y_VARS,
    GrammarError,
    PeriodicityError,
    Walk,
    expand,
    fibre_frequencies,
    is_zero,
    parse_scalar,
    power,
    require_fibre_periodic,
    sup_norm_scalars,
    sup_norms,
    to_sympy,
)
from syzlab.k3 import GramLattice, K3MirrorInput

from conftest import grid_rows, lambdify_values, sympy_beta, sympy_volume


def test_chart_validation():
    with pytest.raises(ChartError):
        Chart(4, ((-1, 1),) * 4)
    with pytest.raises(ChartError):
        Chart(1, ((1, 1),))
    c = Chart(2, ((-1, 1), (0, 2)))
    assert c.center == (0, 1)
    assert c.box_volume == 4


def test_sample_axes_are_cached_and_read_only():
    chart = Chart(2, ((-1, 1), (0, 2)))
    axes = chart.sample_axes()
    again = Chart(2, ((-1, 1), (0, 2))).sample_axes()
    assert again is axes
    assert [len(a) for a in axes] == [5, 5, 8, 8]
    assert [len(a) for a in chart.sample_axes(3, 4)] == [3, 3, 4, 4]
    for axis in (*axes, axes[0][:2]):
        with pytest.raises(ValueError, match="read-only"):
            axis[0] = 7.0
    assert list(axes[1]) == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert list(axes[3]) == [k / 8 for k in range(8)]
    # the grid is the axes' product in row-major order: the base grid, then the fibre's
    Y, X = grid_rows(chart)
    base = product_grid([np.linspace(-1, 1, 5), np.linspace(0, 2, 5)])
    assert np.array_equal(base, list(itertools.product(np.linspace(-1, 1, 5),
                                                       np.linspace(0, 2, 5))))
    fibre = product_grid([circle_points(8)] * 2)
    assert np.array_equal(Y, np.repeat(base, 64, axis=0))
    assert np.array_equal(X, np.tile(fibre, (25, 1)))


def test_box_ends_are_numbers_never_evaluated(capsys):
    assert Chart(1, ((Fraction(-1, 3), "3/2"),)).box == ((sp.Rational(-1, 3), sp.Rational(3, 2)),)
    for bad in ('len([print("evaluated")]) - 2', "pi", "1/0", sp.pi, sp.Float(0.5), 1j, None):
        with pytest.raises(ChartError):
            Chart(1, ((bad, 5),))
    assert capsys.readouterr().out == ""


def test_parse_grammar_and_complex():
    e = parse_scalar("sin(2*pi*x1)*y2 + 1/2", 2)
    x1 = Chart(2, ((-1, 1), (-1, 1))).xs[0]
    assert to_sympy(e).has(sp.sin(2 * sp.pi * x1))
    z = parse_scalar({"re": "y1", "im": "3/4"}, 2)
    assert sp.im(z) == sp.Rational(3, 4)
    assert parse_scalar(2.5, 1) == sp.Rational(5, 2)
    assert parse_scalar("0.5 + y1", 1) == sp.Rational(1, 2) + Chart(1, ((-1, 1),)).ys[0]


OFF_GRAMMAR = [
    "tan(y1)", "y4", "x3 + y1", "log(y1)", "sin(2*pi*x1)**y1", "foo(y1)",
    "1/0", "0/0", "y1/(y1 - y1)", float("nan"), float("inf"),
    "y1.__class__", "2 if 1 else y1", "[y1][0]", "(lambda: y1)()",
    "sin(y1, evaluate=False)", "sin(y1, y2)", "sin(*[y1])", "sum(y1 for _ in [1])",
    "y1 < y2", "True", "'y1'", "2j", "oo", "E", "I", "sqrt(y1)", "y1 y2", "",
    "y1\0", "3!", pytest.param("-" * 5000 + "y1", id="deep_unary"),
    pytest.param("(" * 300 + "y1" + ")" * 300, id="deep_parentheses"),
]
COMPLEX_STRINGS = ["(-1)^(1/2)", "(-4)^(1/2)*y1", "y2 + (-9)^(1/2)/3"]
LARGE_POWERS = [
    "10^10^6", "(1+y1)^100000", "(((10^64)^64)^64)^64", "((1+y1)^64)^64",
    "10^(1000001/2)", f"y1^{MAX_POWER + 1}", f"2^-{MAX_POWER + 1}",
    # a number inside a product, and powers that like bases merge
    "((10^60*y1)^64)^64", "(((10^60*y1)^64)^64)^64", "(1+y1)^64*(1+y1)^64"]


@pytest.mark.parametrize("bad", OFF_GRAMMAR)
def test_parse_rejects_off_grammar(bad):
    with pytest.raises(GrammarError):
        parse_scalar(bad, 2)


@pytest.mark.parametrize("text", COMPLEX_STRINGS)
def test_parse_refuses_strings_that_build_complex_values(text):
    with pytest.raises(GrammarError, match="complex"):
        parse_scalar(text, 2)


@pytest.mark.parametrize("text", LARGE_POWERS)
def test_parse_refuses_large_powers_at_once(text):
    start = time.perf_counter()
    with pytest.raises(GrammarError):
        parse_scalar(text, 2)
    assert time.perf_counter() - start < 1.0


def test_parse_builds_powers_up_to_the_bound():
    y1 = Chart(1, ((-1, 1),)).ys[0]
    assert parse_scalar("y1^6", 1) == y1 ** 6
    assert parse_scalar("(2*y1)^6", 1) == 64 * y1 ** 6
    assert parse_scalar("(1+y1/3)^64", 1) == (1 + y1 / 3) ** 64
    assert parse_scalar(f"(1+y1)^{MAX_POWER}", 1) == (1 + y1) ** MAX_POWER
    assert parse_scalar("(10^8)^64", 1) == sp.Integer(10) ** 512


@pytest.mark.parametrize("value", [0.30000000000000004, 0.3333333333333333, 1000000.5])
def test_a_float_reads_alike_everywhere(value):
    """A box end, a beta number, a beta string and a K3 coordinate all read a
    float as its shortest decimal."""
    box_end = Chart(1, ((value, value + 1),)).box[0][0]
    coord = K3MirrorInput(GramLattice.from_name("U2"), E=(1, 0, 0, 0),
                          sigma0=(-1, 1, 0, 0), omega=(0, 0, value, value)).omega[2]
    readings = [box_end, parse_scalar(value, 1), parse_scalar(repr(value), 1),
                sp.Rational(coord.numerator, coord.denominator)]
    assert readings == [sp.Rational(repr(value))] * 4


# grammar strings of the demos and of the benchmark's symbolic generators,
# plus one string per whitelisted node kind they do not use
REFERENCE_CORPUS = (
    "(y1^2 + y2^2)/2 + y1^3/10", "5/2 + sin(2*pi*x1)/4", "3 + y1^2/4", "y3/5",
    "sin(2*pi*x1)*cos(2*pi*x2 + y1) + y2", "sin(2*pi*x1) + cos(4*pi*x2 + y1)",
    "0", "1", "-1", "-1/2", "5/2", "-y1^2", "2+y1^2/4", "7/2+y3^2/6",
    "1*y1^2/2 + -1*y1", "3/2*y1^2/2 + 0*y1",
    "2*y1^2/2 + 3/2*y2^2/2 + 1/8*y1*y2 + 0*y1 + y1^3/20",
    "3/2*y1^2/2 + 1*y2^2/2 + -1/5*y1*y2 + -1/2*y1",
    "5/2+cos(2*pi*1*x2)/3", "7/2+sin(2*pi*3*x1)/4", "4+sin(2*pi*2*x2)/4",
    "+y1 - -y2", "exp(-y1^2/2)*cos(2*pi*(x1 + x3) + y2)", "(y1 + 3)^-2", "2^3^2",
    "y1**2/y2**2", "1/(2 + y1)^(1/2)", "10000000000000000000000*y1",
)


def test_parse_matches_sympy_parse_expr_reference():
    """parse_scalar gives the expression sympy's evaluating parser
    gives, node for node, on every grammar string of the reference corpus."""
    from sympy.parsing.sympy_parser import (
        convert_xor,
        parse_expr,
        standard_transformations,
    )

    from syzlab.fields import X_VARS, Y_VARS

    local = {v.name: to_sympy(v) for v in Y_VARS + X_VARS}
    local.update({"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "pi": sp.pi})
    constructors = {"Integer": sp.Integer, "Float": sp.Float, "Rational": sp.Rational,
                    "Symbol": sp.Symbol, "Function": sp.Function}
    for text in REFERENCE_CORPUS:
        want = parse_expr(text, local_dict=local, global_dict=dict(constructors),
                          transformations=standard_transformations + (convert_xor,))
        assert sp.srepr(to_sympy(parse_scalar(text, 3))) == sp.srepr(want), text


@pytest.mark.parametrize("text, number", [
    ("0.5", 0.5), ("0.1", 0.1), ("-2.25", -2.25), ("1e-3", 1e-3), ("3.0", 3.0), ("7", 7),
])
def test_decimal_string_reads_like_json_number(text, number):
    got = parse_scalar(text, 1)
    assert sp.srepr(got) == sp.srepr(parse_scalar(number, 1))
    assert to_sympy(got).is_Rational


def _calls(tree):
    """Names of every called function or method in a module."""
    return {getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_no_scenario_string_is_evaluated():
    """No module evaluates text: none calls parse_expr, eval or exec or
    imports sympy's parser, and k3 never calls sympify."""
    src = Path(__file__).resolve().parents[1] / "src" / "syzlab"
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not _calls(tree) & {"parse_expr", "eval", "exec"}, path.name
        modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not any(m and m.startswith("sympy.parsing") for m in modules), path.name
    assert "sympify" not in _calls(ast.parse((src / "k3.py").read_text()))


def test_periodicity_checker():
    n = 2
    chart = Chart(2, ((-1, 1), (-1, 1)))
    (x1, x2), y1 = chart.xs, chart.ys[0]
    def frequencies(expr):
        return {to_sympy(atom): k for atom, k in fibre_frequencies(expr, n).items()}

    assert frequencies(parse_scalar("sin(2*pi*x1) + cos(4*pi*x2 + y1)", n)) == {
        sp.sin(2 * sp.pi * x1): (1, 0), sp.cos(4 * sp.pi * x2 + y1): (0, 2)}
    assert frequencies(parse_scalar("y1^2 + 1 + sin(y1)", n)) == {}
    expr = parse_scalar("cos(2*pi*(x1 - 3*x2) + y1)^2", n)
    assert require_fibre_periodic(expr, n) is expr
    assert frequencies(expr) == {sp.cos(2 * sp.pi * (x1 - 3 * x2) + y1): (1, -3)}
    for bad in ("x1", "sin(pi*x1)", "exp(x1)", "sin(2*pi*x1*y1)", "cos(sin(2*pi*x1))"):
        with pytest.raises(PeriodicityError):
            require_fibre_periodic(parse_scalar(bad, n), n)


def test_periodicity_by_sampling():
    """A flagged-periodic field evaluates equally at x and x + e_i."""
    chart = Chart(2, ((-1, 1), (-1, 1)))
    expr = parse_scalar("sin(2*pi*x1)*cos(2*pi*x2 + y1) + y2", 2)
    require_fibre_periodic(expr, 2)
    subs = {chart.ys[0]: 0.3, chart.ys[1]: -0.2}
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0, 1, size=2)
        base = complex(expr.subs(subs).subs({chart.xs[0]: x[0], chart.xs[1]: x[1]}))
        for i in range(2):
            shifted = x.copy()
            shifted[i] += 1.0
            val = complex(expr.subs(subs).subs(
                {chart.xs[0]: shifted[0], chart.xs[1]: shifted[1]}))
            assert abs(val - base) < 1e-12


def test_sup_norm_scalars():
    chart = Chart(1, ((-1, 1),))
    y1 = chart.ys[0]
    assert sup_norm_scalars([y1 ** 2], chart) == pytest.approx(1.0)
    assert sup_norm_scalars([sp.Integer(0)], chart) == 0.0


def test_sup_norms_all_zero_group_is_not_compiled(monkeypatch):
    import syzlab.fields as fields

    def refuse(exprs, chart):
        raise AssertionError("compiled an all-zero group")

    monkeypatch.setattr(fields, "Walk", refuse)
    chart = Chart(1, ((-1, 1),))
    assert sup_norms([[sp.Integer(0), 0], []], chart) == [0.0, 0.0]


def test_sup_norms_keep_real_and_imaginary_peaks():
    chart = Chart(1, ((-1, 1),))
    y1 = chart.ys[0]
    (peak,) = sup_norms([[y1 + 2 * sp.I, 3 * sp.I * y1]], chart)
    assert peak == pytest.approx(3.0)
    assert (peak.re, peak.im) == (pytest.approx(1.0), pytest.approx(3.0))


def benchmark_beta3():
    """n = 3: Im b11 = 5/2 + sin(2 pi x1)/4, Re b12 = y3/5, Im b22 = 3 + y1^2/4, Im b33 = 3."""
    from syzlab.semiflat import BetaStructure

    chart = Chart(3, ((-1, 1),) * 3)
    off = parse_scalar("y3/5", 3)
    beta = [[sp.I * parse_scalar("5/2 + sin(2*pi*x1)/4", 3), off, 0],
            [off, sp.I * parse_scalar("3 + y1^2/4", 3), 0],
            [0, 0, 3 * sp.I]]
    return BetaStructure(chart, beta)


def test_walk_matches_plain_lambdify():
    from syzlab.semiflat import omega_form

    bs = benchmark_beta3()
    chart = bs.chart
    exprs = list(omega_form(bs).exterior_derivative().terms.values())
    assert len(exprs) > 5
    axes = chart.sample_axes(3, 4)
    ((index, got),) = Walk(exprs, chart).grid(axes)
    assert index == (slice(None),) * 6
    shape = [len(a) for a in axes]
    got = np.array([np.broadcast_to(v, shape).ravel() for v in got])
    Y, X = grid_rows(chart, 3, 4)
    want = lambdify_values(exprs, chart, Y, X)
    scale = np.max(np.abs(want))
    assert scale > 0.1
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_sup_norms_matches_whole_grid_per_group():
    """One evaluator, reduced block by block, gives each group's sup over the
    whole 64,000-row n = 3 grid."""
    from syzlab.semiflat import (
        _d_omega,
        _volume_divergence_residual,
        integrability_residual,
    )

    bs = benchmark_beta3()
    chart, beta, V = bs.chart, sympy_beta(bs), sympy_volume(bs)
    groups = [list(_d_omega(chart, beta, V).terms.values()),
              list(_volume_divergence_residual(chart, beta, V).terms.values()),
              list(integrability_residual(bs).terms.values()),
              [sp.Integer(0)]]
    Y, X = grid_rows(chart)
    assert len(Y) == 64_000 and len(Y) > 3 * _BLOCK_SAMPLES
    got = sup_norms(groups, chart)
    assert got[-1] == 0.0
    for value, group in zip(got, groups[:-1]):
        want = float(np.max(np.abs(lambdify_values(group, chart, Y, X))))
        assert want > 0.01
        assert abs(value - want) <= 1e-12 * want
        assert sup_norm_scalars(group, chart) == pytest.approx(value, rel=1e-12)


def test_evaluate_in_blocks_equals_pieces():
    """The grid in sub-boxes, split along the leading axes the expressions
    read and yielded in row-major order, equals the grid in one piece."""
    chart = Chart(2, ((-1, 1), (-1, 1)))
    y1, y2 = chart.ys
    x1, x2 = chart.xs
    exprs = [sp.sin(2 * sp.pi * x1) * y1 ** 2, sp.Integer(3), sp.I * y1 / (2 + x2)]
    walk = Walk(exprs, chart)
    assert walk.reads == (0, 2, 3)  # y2 is read by no expression
    axes = chart.sample_axes(5, 6)
    ((_, whole),) = walk.grid(axes)
    assert [np.shape(v) for v in whole] == [(5, 1, 6, 1), (), (5, 1, 1, 6)]
    assert whole[1] == 3
    pieces = list(walk.grid(axes, size=30))
    # y1 and x1 split: the rest of the read axes, x2, spans 6 <= 30 points
    assert len(pieces) == 5 * 6
    for k, (index, vals) in enumerate(pieces):
        i, j = divmod(k, 6)
        # the slices that place the sub-box in the whole grid
        assert index == (slice(i, i + 1), slice(None), slice(j, j + 1), slice(None))
        assert np.array_equal(vals[0], whole[0][i:i + 1, :, j:j + 1])
        assert np.array_equal(vals[2], whole[2][i:i + 1])
        assert vals[1] == 3
    # y1 split: x1 and x2 span 36 points
    assert len(list(walk.grid(axes, size=36))) == 5
    assert len(list(Walk([sp.Integer(1)], chart).grid(axes, size=1))) == 1


def _enclosing_functions(tree):
    """(first line, last line, name) of every function in a module."""
    return [(node.lineno, node.end_lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_one_evaluator_and_no_symbolic_fibre_integration():
    """lambdify appears nowhere in src/ and the sample block size only in
    fields.py and quadrature.py; sympy integrate in src/ only in
    semiflat.base_potential, so fibre means never take the heurisch detour
    and the Poincare lemma is written once."""
    src = Path(__file__).resolve().parents[1] / "src" / "syzlab"
    files = sorted(src.glob("*.py"))
    assert any(f.name == "fields.py" for f in files)
    owners = []
    for path in files:
        text = path.read_text()
        assert "lambdify" not in text, path.name
        if path.name not in ("fields.py", "quadrature.py"):
            assert "_BLOCK_SAMPLES" not in text, path.name
        tree = ast.parse(text)
        functions = _enclosing_functions(tree)
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and getattr(
                    call.func, "attr", getattr(call.func, "id", None)) == "integrate":
                owners.append((path.name, [name for lo, hi, name in functions
                                           if lo <= call.lineno <= hi]))
    assert owners == [("semiflat.py", ["base_potential"])], owners


def test_integer_layer_does_not_use_sympy():
    """Smith forms, chain complexes, fibre models and local systems are
    pure integer work: none of their modules mentions sympy."""
    src = Path(__file__).resolve().parents[1] / "src" / "syzlab"
    for name in ("intlinalg.py", "complexes.py", "fibre_models.py", "sheaf.py"):
        assert "sympy" not in (src / name).read_text(), name


def test_semiflat_reports_use_one_sup_norm_call_on_a_fixed_grid():
    """The four semi-flat reports take no grid arguments and read their
    residuals only from the structure's table of samples."""
    path = Path(__file__).resolve().parents[1] / "src" / "syzlab" / "semiflat.py"
    reports = {"pointwise_checks", "closedness_residuals", "structure_equations",
               "flatness_probe"}
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.FunctionDef) or node.name not in reports:
            continue
        found.add(node.name)
        params = [a.arg for a in node.args.args + node.args.kwonlyargs]
        assert not {"base_k", "fibre_k"} & set(params), node.name
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "attr", getattr(call.func, "id", None))
                assert name not in ("sup_norm_scalars", "sup_norm"), node.name
    assert found == reports


SUP_NORMS = ("sup_norm", "sup_norms", "sup_norm_scalars")


def test_no_sup_norm_call_in_the_library_picks_a_grid():
    """Every sampled residual in src/ is taken on the one fixed grid: no call
    to a sup-norm, or to the sample axes the residual jets are sampled on,
    passes a grid size, except the sup-norms forwarding their own grid
    parameters."""
    src = Path(__file__).resolve().parents[1] / "src" / "syzlab"
    calls = 0
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        forwarding = {id(call) for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef) and fn.name in SUP_NORMS
                      for call in ast.walk(fn)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call) in forwarding:
                continue
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name not in SUP_NORMS + ("sample_axes",):
                continue
            calls += 1
            # a method call takes no arguments; the functions take exprs, chart
            allowed = 0 if name in ("sup_norm", "sample_axes") else 2
            where = f"{path.name}:{call.lineno}"
            assert len(call.args) <= allowed, where
            assert not {k.arg for k in call.keywords} & {"base_k", "fibre_k"}, where
    assert calls >= 3


POINT_ROW_GRIDS = ("base_grid", "fibre_grid", "subtorus_grid")


def test_walk_grid_is_the_only_evaluation_entry_point():
    """Every grid in src/ is a tuple of 1-d axes evaluated through Walk.grid:
    Walk has no other public method, no module outside Walk calls one of
    Walk's methods but grid, and no module defines a point-row grid helper."""
    src = Path(__file__).resolve().parents[1] / "src" / "syzlab"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    walk = next(node for node in ast.walk(trees["fields.py"])
                if isinstance(node, ast.ClassDef) and node.name == "Walk")
    methods = {fn.name for fn in walk.body if isinstance(fn, ast.FunctionDef)}
    assert {m for m in methods if not m.startswith("_")} == {"grid"}
    inside = {id(node) for node in ast.walk(walk)}
    grids = 0
    for name, tree in trees.items():
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.FunctionDef):
                assert node.name not in POINT_ROW_GRIDS, where
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and id(node) not in inside):
                assert node.func.attr not in (methods - {"grid"}) | {"evaluate"}, where
                grids += node.func.attr == "grid"
    assert grids >= 4


def seeded_sums(seed, count=6):
    """Expanded seeded sums of roots, exps and trig atoms in y1..y3, x1, x2."""
    rng = random.Random(seed)
    atoms = ["y1", "y2", "y3", "pi", "y1*y2^2", "exp(y1)", "exp(-y2)", "sin(2*pi*x1)",
             "cos(2*pi*x2 + y1)", "(1 + y1)^(1/2)", "(2 + y2)^(-1/2)", "y3*(1 + y1)^(1/2)"]
    for _ in range(count):
        terms = [f"{rng.choice(['1', '-2', '1/3', '3/2'])}*{t}"
                 for t in rng.sample(atoms, rng.randint(2, 4))]
        yield expand(parse_scalar(" + ".join(terms + [rng.choice(["0", "1", "-1/2"])]), 3))


class TestExpand:
    """expand multiplies out what the node constructors keep factored, so
    is_zero proves the zeros that sympy's expand proves."""

    @pytest.mark.parametrize("a, b", [
        ("(y1 + 1)^2", "y1^2 + 2*y1 + 1"),
        ("y1*(y2 + 1)", "y1*y2 + y1"),
        ("(y1 + y2)^3*(y1 - y2)", "(y1^2 - y2^2)*(y1 + y2)^2"),
        ("exp(y1*(y2 + 1))", "exp(y1)*exp(y1*y2)"),
        ("sin((y1 + 1)^2)", "sin(y1^2 + 2*y1 + 1)"),
        ("(1 + exp(y1))*exp(2*y1)", "exp(2*y1) + exp(3*y1)"),
    ])
    def test_one_polynomial_expands_to_one_node(self, a, b):
        a, b = parse_scalar(a, 2), parse_scalar(b, 2)
        assert a is not b and expand(a) is expand(b) and is_zero(a - b)

    def test_roots_of_one_sum_meet(self):
        y1, y2 = Y_VARS[:2]
        root = power(1 + y1, Fraction(1, 2))
        assert is_zero(root * root * y2 - (1 + y1) * y2)
        assert expand(power(1 + y1, Fraction(3, 2))) is expand((1 + y1) * root)

    @pytest.mark.parametrize("seed", range(4))
    def test_multinomial_power_is_the_repeated_product(self, seed):
        """b^k by the multinomial theorem is the node that multiplying b out
        k times gives, on seeded sums of roots, exps and trig atoms, at
        whole and half-integer powers up to 6."""
        for b in seeded_sums(seed):
            root = fields._power_out(b, Fraction(1, 2))
            for k in range(1, 7):
                assert fields._power_out(b, Fraction(k)) is functools.reduce(
                    fields._times, [b] * k)
                assert fields._power_out(b, Fraction(2 * k + 1, 2)) is functools.reduce(
                    fields._times, [b] * k, root)

    def test_twentieth_power_builds_each_term_once(self, monkeypatch):
        b = parse_scalar("1 + y1 + y2 + y3", 3)
        products = []
        times = fields._times
        monkeypatch.setattr(fields, "_times", lambda a, c: products.append(1) or times(a, c))
        ours = expand(power(b, 20))
        assert products == [] and len(ours.args[1]) == 1770
        assert to_sympy(ours) == sp.expand(to_sympy(b) ** 20)

    def test_unproven_is_not_zero(self):
        assert not is_zero(parse_scalar("(y1 + 1)^2 - y1^2 - 2*y1", 2))
        # fractions are not put over one denominator, as sympy's expand does not
        assert not is_zero(parse_scalar("1/(1 + y1) + y1/(1 + y1) - 1", 2))
        assert sp.expand(to_sympy(parse_scalar("1/(1 + y1) + y1/(1 + y1) - 1", 2))) != 0
