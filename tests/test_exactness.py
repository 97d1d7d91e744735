"""The node route proves every exact zero that sympy's expand route proves.

Each input runs through the same residual builders twice: on its expression
nodes, as the library does, and on the ``to_sympy``-expanded entries, where
the term store expands every coefficient.  A residual that sympy reduces to
zero must be zero on the nodes too.  Inputs: the structures and potentials
of the tier-1 tests, the demos and the seed-1 benchmark job lists, and a
seeded corpus of products of sums, trig phases and gradient-column cocycles
at n = 2 and 3, with structures, one-forms and tensors whose entries are
written factored or multiplied out at random, so that a zero appears only
once products of sums are expanded.  Checked: integrability, volume
divergence, connection flatness, the differential d(sigma) of base
one-forms, and the symmetry and column closedness of tensors
(``SymTensorField.is_symmetric``, ``is_gauss_manin_closed``).
"""

import functools
import importlib
import json
import random
import sys
from pathlib import Path

import sympy as sp

import syzlab.fields as fields
from syzlab.algebra import FormElement
from syzlab.charts import Chart
from syzlab.fields import ZERO, Pair, parse_scalar, to_sympy
from syzlab.duality import SymTensorField
from syzlab.scenarios import _decode_beta, _decode_chart
from syzlab.semiflat import (
    BetaStructure,
    HitchinPotential,
    _connection_curvature,
    _part,
    _volume_divergence_residual,
    base_one_form_differential,
)

from conftest import sympy_beta, sympy_volume

ROOT = Path(__file__).resolve().parent.parent


def _chart(n):
    return Chart(n, ((-1, 1),) * n)


def _beta(n, rows):
    """A structure from grammar text: each entry a string, a number or an
    {"re", "im"} pair."""
    return BetaStructure(_chart(n), [[parse_scalar(e, n) for e in row] for row in rows])


def _hessian_structure(chart, potential, twist=None):
    """beta = Hess(twist) + i Hess(potential), as hitchin builds it."""
    hess = HitchinPotential(chart, potential).hessian
    re = HitchinPotential(chart, twist).hessian if twist is not None else None
    return BetaStructure(chart, [[Pair(re[i][j] if re else ZERO, hess[i][j])
                                  for j in range(chart.n)] for i in range(chart.n)])


def _gradient(chart, f):
    return [f.diff(y) for y in chart.ys]


def _benchmark_workloads():
    """perfbench's job generators, read without writing bytecode there."""
    path = str(ROOT / "perfbench")
    sys.path.insert(0, path)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(path)


def _documents():
    """The sample scenarios and the seed-1 benchmark job lists, as scenario
    kinds with payloads."""
    for path in sorted((ROOT / "demos" / "scenarios").glob("*.json")):
        doc = json.loads(path.read_text())
        if "kind" in doc:
            yield doc["kind"], doc["payload"]
    for job in _benchmark_workloads().symbolic_jobs(1):
        if "doc" in job:
            yield job["doc"]["kind"], job["doc"]["payload"]
        else:
            yield "semiflat-check", job["payload"]


def _from_documents(structures, sections):
    for kind, payload in _documents():
        if kind in ("semiflat-check", "dualize", "yukawa"):
            structures.append(_decode_beta(payload))
        elif kind == "hitchin":
            chart = _decode_chart(payload)
            phi = parse_scalar(payload["potential"], chart.n)
            twist = payload.get("twist_potential")
            twist = twist and parse_scalar(twist, chart.n)
            structures.append(_hessian_structure(chart, phi, twist))
            sections.append((chart, _gradient(chart, phi)))
            if twist:
                sections.append((chart, _gradient(chart, twist)))


def _from_tests_and_demos(structures, sections, tensors):
    """Structures, sections and tensors the tier-1 tests and demos 02 and 03
    build by hand, as grammar text."""
    for n, rows in [
        (1, [[{"im": 1}]]), (1, [[{"re": "y1^2", "im": 2}]]), (1, [[{"im": "1 + y1^2"}]]),
        (2, [[{"im": 2}, 0], [0, {"im": 3}]]),
        (2, [[{"im": "1 + y2^2"}, 0], [0, {"im": 1}]]),
        (2, [[{"re": 1, "im": 1}, {"re": "1/3", "im": "1/3"}],
             [{"re": "1/3", "im": "1/3"}, {"re": 2, "im": 1}]]),
        (2, [[{"re": "y2", "im": 1}, 0], [0, {"im": 1}]]),
        (2, [[{"re": "y2", "im": 2}, {"im": "1/2"}], [{"im": "1/2"}, {"im": 1}]]),
        (2, [[{"im": "2 + sin(2*pi*x1)/2"}, 0], [0, {"im": 1}]]),
        (2, [[{"im": "3 + sin(4*pi*x1)/2"}, 0], [0, {"im": 3}]]),
        (2, [[{"im": "2 + exp(y1)/4"}, {"re": "y2/5", "im": "1/8"}],
             [{"re": "y2/5", "im": "1/8"}, {"im": "3 + cos(2*pi*x2)*y1/4"}]]),
        (3, [[{"im": 1}, {"im": "1/2"}, 0], [{"im": "1/2"}, {"im": 1}, 0],
             [0, 0, {"im": "1 + y3^2"}]]),
        (3, [[{"im": "5/2 + sin(2*pi*x1)/4"}, "y3/5", 0],
             [{"re": "y3/5"}, {"im": "3 + y1^2/4"}, 0], [0, 0, {"im": 3}]]),
    ]:
        structures.append(_beta(n, rows))
    chart = _chart(2)
    s = lambda text: parse_scalar(text, 2)  # noqa: E731
    for phi, twist in [("(y1^2 + y2^2)/2 + y1*y2/5", "y1^2/2 + y1*y2/3 + y2^2/4"),
                       ("(y1^2 + y2^2)/2 + y1*y2/3", None),
                       ("(y1^2 + y2^2)/2 + y1^3/10", None),
                       ("exp(y1) + pi*y2^2", None)]:
        structures.append(_hessian_structure(chart, s(phi), twist and s(twist)))
    for sigma in (["y1 + y2/3", "y1/3"], ["y2", "0"], ["y2", "y1"], ["1/3", "2"],
                  ["y2*(y1 + 1)^2", "y1^3/3 + y1^2 + y1"]):
        sections.append((chart, [s(t) for t in sigma]))
    for rows in ([["0", "y1*(y2 + 1)"], ["y1*y2 + y1", "0"]],
                 [["y2*(y1 + 1)^2", "0"], ["y1^3/3 + y1^2 + y1", "0"]]):
        tensors.append(SymTensorField(chart, [[s(t) for t in row] for row in rows]))


def _sum(rng, ys, k=3):
    """A short sum of rational multiples of variables, a constant and
    squares."""
    terms = [f"{rng.randint(1, 4)}/{rng.randint(1, 5)}"]
    for _ in range(k):
        y = rng.choice(ys)
        terms.append(f"{rng.randint(-3, 3)}*{y}" + ("^2" if rng.random() < 0.3 else ""))
    return "(" + " + ".join(terms) + ")"


def _scalar(rng, ys, function=True):
    """A product of two sums, with function times exp, sin or cos of a sum."""
    out = f"{_sum(rng, ys)}*{_sum(rng, ys)}"
    if function:
        out += f"*{rng.choice(('exp', 'sin', 'cos'))}({_sum(rng, ys, 1)}/5)"
    return out


def _phase_wave(rng, ys, xs):
    """A trig wave in one fibre variable with a y-dependent phase."""
    phase = f"{_sum(rng, ys, 2)}/7 + {rng.choice(('pi/4', 'pi/3', '0', 'pi/2'))}"
    return (f"{rng.choice(('sin', 'cos'))}"
            f"(2*pi*{rng.randint(1, 3)}*{rng.choice(xs)} + {phase})")


def _rewritten(rng, node):
    """The node written factored, multiplied out or as sympy reads it, at
    random."""
    return fields.from_sympy(rng.choice((sp.factor, sp.expand, sp.sympify))(to_sympy(node)))


def _from_seeded_corpus(structures, sections, tensors):
    rng = random.Random("exactness")
    for n in (2, 3):
        chart = _chart(n)
        ys, xs = [y.name for y in chart.ys], [x.name for x in chart.xs]
        s = lambda text: parse_scalar(text, n)  # noqa: E731
        for _ in range(2):
            # trig phases: a fibre wave with a y-dependent phase on the
            # diagonal of Im beta, and a sum in Re beta
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = {"im": rng.randint(3, 6)}
            i, j = rng.sample(range(n), 2)
            rows[i][i]["im"] = f"{rows[i][i]['im']} + {_phase_wave(rng, ys, xs)}/9"
            rows[i][j] = rows[j][i] = _sum(rng, ys, 2)
            structures.append(_beta(n, rows))
            # Hessian twists by products of sums over a constant metric
            metric = " + ".join(f"{rng.randint(2, 4)}*{y}^2/2" for y in ys)
            structures.append(_hessian_structure(chart, s(metric), s(_scalar(rng, ys, False))))
        # a gradient-column cocycle: its columns are closed one-forms
        sections += [(chart, _gradient(chart, s(_scalar(rng, ys)))) for _ in range(n)]
        # the same objects with each entry written its own way: gradients,
        # Hessian tensors and twists over a constant metric, gradient-column
        # tensors; the first round with a function factor
        for k in range(2):
            f = [s(_scalar(rng, ys, function=k == 0)) for _ in range(n)]
            sections.append((chart, [_rewritten(rng, d) for d in _gradient(chart, f[0])]))
            for g in f[:2]:
                hess = [[_rewritten(rng, d) for d in _gradient(chart, row)]
                        for row in _gradient(chart, g)]
                tensors.append(SymTensorField(chart, hess))
            tensors.append(SymTensorField(chart, [[_rewritten(rng, g.diff(a)) for g in f]
                                                  for a in chart.ys]))
            structures.append(BetaStructure(chart, [
                [Pair(hess[i][j], fields.number(rng.randint(2, 4) if i == j else 0))
                 for j in range(n)] for i in range(n)]))


def _sympy_form(chart, sigma):
    return FormElement(chart, {((i + 1,), ()): sp.expand(to_sympy(s))
                               for i, s in enumerate(sigma)})


# each residual from (chart, beta, b, V): the library's builders, run on the
# nodes or on sympy entries
BUILDERS = {
    "integrability": lambda chart, beta, b, V: _connection_curvature(chart, beta),
    "connection_flatness": lambda chart, beta, b, V: _connection_curvature(chart, b),
    "volume_divergence": lambda chart, beta, b, V: _volume_divergence_residual(chart, beta, V),
}


@functools.cache
def cases():
    """(label, node route, sympy proves zero): the node route is a thunk
    giving its is_zero(), run afresh on each call; sympy's verdicts are
    taken once."""
    structures, sections, tensors = [], [], []
    _from_tests_and_demos(structures, sections, tensors)
    _from_documents(structures, sections)
    _from_seeded_corpus(structures, sections, tensors)
    out, seen = [], set()
    for k, bs in enumerate(structures):
        key = (bs.chart, tuple((e.re, e.im) for row in bs.pairs for e in row))
        if key in seen:
            continue
        seen.add(key)
        nodes = (bs.chart, bs.pairs, _part(bs.pairs, 0), bs.volume_node)
        exact = (bs.chart, sympy_beta(bs), sympy_beta(bs, "re"), sympy_volume(bs))
        out += [(f"{name} {k}", lambda f=f, a=nodes: f(*a).is_zero(), f(*exact).is_zero())
                for name, f in BUILDERS.items()]
    for k, (chart, sigma) in enumerate(sections):
        out.append((f"d(sigma) {k}", lambda c=chart, s=sigma: base_one_form_differential(
            s, c).is_zero(), _sympy_form(chart, sigma).exterior_derivative().is_zero()))
    for k, alpha in enumerate(tensors):
        a, n = alpha.entries, alpha.chart.n
        out.append((f"symmetry {k}", alpha.is_symmetric, all(
            sp.expand(to_sympy(a[i][j] - a[j][i])) == 0 for i in range(n) for j in range(n))))
        out.append((f"cocycle {k}", alpha.is_gauss_manin_closed, all(
            _sympy_form(alpha.chart, column).exterior_derivative().is_zero()
            for column in zip(*a))))
    return out


def exactness_gaps():
    """The labels of the residuals sympy proves zero and the nodes do not."""
    return [label for label, node_zero, sympy_zero in cases()
            if sympy_zero and not node_zero()]


def test_nodes_prove_every_zero_sympy_proves():
    zeros = [label for label, _, sympy_zero in cases() if sympy_zero]
    # the corpus reaches every residual with an exact zero, many times over
    for name, least in (("integrability", 20), ("connection_flatness", 20),
                        ("volume_divergence", 20), ("d(sigma)", 20),
                        ("symmetry", 5), ("cocycle", 5)):
        assert sum(label.startswith(name) for label in zeros) >= least, name
    assert exactness_gaps() == []


def test_a_dropped_product_rule_term_is_caught(monkeypatch):
    """A node diff that forgets the term of the last factor of a product
    that reads the variable (when two factors do) leaves zeros unproven."""
    cases()  # inputs and sympy's verdicts, with the real diff
    raw = fields._diff

    def dropped(node, name):
        out = raw(node, name)
        reading = [i for i, (b, _) in enumerate(node.args) if name in b.vars] \
            if node.op == "mul" else []
        if len(reading) > 1:
            b, e = node.args[reading[-1]]
            rest = [f for i, f in enumerate(node.args) if i != reading[-1]]
            out = out - fields.mul(fields._product(e, rest + [(b, e - 1)]), fields.diff(b, name))
        return out

    monkeypatch.setattr(fields, "_diff", dropped)
    monkeypatch.setattr(fields, "_DIFFS", {})
    assert exactness_gaps()
