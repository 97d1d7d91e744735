"""Signs act as signs: +-1, 1 and 0 short-circuit in the term store, on jets
and on nodes, and every short-circuit gives what the general route gives.

The general routes are kept here: the node sum and product as they fold
every operand, and the jet product by the product rule."""

import contextlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from syzlab import fields
from syzlab.algebra import BigradedElement, FormElement
from syzlab.fields import MINUS_ONE, ONE, ZERO, Jet, number, parse_scalar
from syzlab.semiflat import _determinant

from conftest import perfbench_modules
from test_fields import seeded_sums
from test_node_parity import CASES
from test_walk import exprs_for


# ---------------------------------------------------------------------------
# the general routes
# ---------------------------------------------------------------------------

def general_mul(*items):
    """The product with every operand folded in, ONE and ZERO too."""
    coeff, pairs = Fraction(1), []
    for a in items:
        c, factors = fields._factors(a)
        coeff *= c
        pairs.extend(factors)
    return fields._product(coeff, pairs)


def general_add(*items):
    """The sum with every operand folded in, ZERO too."""
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
    return fields._sum(const, terms)


def general_jet_mul(jet, c):
    """jet * c for a constant c by the product rule."""
    other = Jet(fields.constant(c), {})
    return fields._chain((jet, other), jet.value * other.value, lambda: (other.value, jet.value))


def _jets_equal(a, b):
    return ((a.partials is None) == (b.partials is None)
            and np.array_equal(a.value, b.value)
            and (a.partials is None or (a.partials.keys() == b.partials.keys() and all(
                np.array_equal(p, b.partials[v]) for v, p in a.partials.items()))))


# ---------------------------------------------------------------------------
# nodes: the identity corpus
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    """Every node the node table hands out while the seed-1 symbolic job
    list runs and the seeded corpora of test_fields, test_node_parity and
    test_walk are built, whatever earlier tests left in the table."""
    worker, workloads = perfbench_modules("worker", "workloads")
    seen, raw = {}, (fields._intern, fields.number)

    def recorded(make):
        def made(*args):
            node = make(*args)
            seen[node] = None
            return node
        return made

    fields._intern, fields.number = map(recorded, raw)
    try:
        with _quiet():
            for job in workloads.symbolic_jobs(1):
                worker.run_job(job)
        for seed in range(4):
            list(seeded_sums(seed))
            exprs_for(seed)
        for text in CASES:
            try:
                parse_scalar(text, 2)
            except (fields.GrammarError, fields.PeriodicityError):
                pass
    finally:
        fields._intern, fields.number = raw
    # the variables and pi are made once, at import
    return list(seen) + [*fields.Y_VARS, *fields.X_VARS, fields.PI]


@contextlib.contextmanager
def _quiet():
    """As in perfbench/worker.py: warnings on non-closed volume forms are
    not verdicts."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def test_corpus_covers_every_node_kind(corpus):
    assert {node.op for node in corpus} >= {"num", "var", "pi", "add", "mul", "sin", "cos", "exp"}
    assert len(corpus) > 2000


def test_one_is_dropped_from_a_product(corpus):
    for x in corpus:
        assert fields.mul(ONE, x) is x is general_mul(ONE, x)
        assert fields.mul(x, ONE) is x is general_mul(x, ONE)


def test_zero_makes_a_product_zero(corpus):
    for x in corpus:
        assert fields.mul(ZERO, x) is ZERO is general_mul(ZERO, x)
        assert fields.mul(x, ZERO, ONE) is ZERO is general_mul(x, ZERO, ONE)


def test_zero_is_dropped_from_a_sum(corpus):
    for x in corpus:
        assert fields.add(ZERO, x) is x is general_add(ZERO, x)
        assert fields.add(x, ZERO) is x is general_add(x, ZERO)


def test_a_negated_number_is_the_number_of_minus_q(corpus):
    numbers = [x for x in corpus if x.op == "num"]
    assert len(numbers) > 100
    for x in numbers:
        assert -x is number(-x.args) is general_mul(MINUS_ONE, x)


def test_number_nodes_are_found_by_their_integer_pair():
    q = Fraction(-7, 12)
    assert number(q) is number(Fraction(14, -24)) is parse_scalar("-7/12")
    assert number(3) is number(Fraction(3)) is parse_scalar(3.0)
    assert number(True) is ONE and number(0) is ZERO
    assert type(number(5).args) is Fraction


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def _jet():
    rng = np.random.default_rng(1)
    value = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    return Jet(value, {"y1": rng.normal(size=(3, 1)) + 0j, "x1": 2 - 1j})


@pytest.mark.parametrize("c", [1, -1, 1.0, -1 + 0j, ONE, MINUS_ONE, Fraction(-1)])
def test_a_unit_constant_is_a_sign_on_a_jet(c):
    for jet in (_jet(), Jet(_jet().value), Jet(2 + 3j, {})):
        out = jet * c
        assert _jets_equal(out, general_jet_mul(jet, c))
        assert _jets_equal(c * jet, out)
        if c == 1:
            assert out is jet


# ---------------------------------------------------------------------------
# the term store
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", [BigradedElement, FormElement])
def test_add_term_negates_on_a_minus_sign(cls, chart2):
    y1, y2 = parse_scalar("y1", 2), parse_scalar("y2 + 1", 2)
    e = cls(chart2)
    e.add_term((2, 1), (), y1)            # one swap: -y1 into an empty slot
    assert e.terms == {((1, 2), ()): -y1}
    e.add_term((1, 2), (), y2, -1)        # a given -1: old - y2
    assert e.terms == {((1, 2), ()): fields.add(-y1, -y2)}
    e.add_term((2, 1), (), -y1, -1)       # two minus signs: +(-y1)
    e.add_term((1, 2), (), y1 + y2, 1)
    assert e.terms == {((1, 2), ()): -y1}
    e.add_term((1, 2), (2,), y2, 0)       # a 0 drops the term
    e.add_term((1, 1), (), y2)            # as a repeated index does
    assert e.terms == {((1, 2), ()): -y1}


def test_scale_by_a_sign(chart2):
    y1 = parse_scalar("y1 + 2*y2", 2)
    e = BigradedElement.term(chart2, y1, dys=(1,), dxs=(2,))
    assert (-e).terms == e.scale(-1).terms == e.scale(MINUS_ONE).terms == {((1,), (2,)): -y1}
    assert (e - e).terms == e.scale(0).terms == {}
    assert e.scale(1).terms[((1,), (2,))] is y1
    assert e.scale(ONE).terms[((1,), (2,))] is y1
    assert e.scale(Fraction(1, 2)).terms == {((1,), (2,)): y1 * Fraction(1, 2)}


def test_coefficient_reads_a_sign(chart3):
    y1 = parse_scalar("y1", 3)
    e = FormElement(chart3, {((1, 2), (3,)): y1})
    assert e.coefficient((2, 1), (3,)) is -y1
    assert e.coefficient((1, 2), (3,)) is y1
    assert e.coefficient((1, 1), (3,)) is ZERO


def test_contraction_sign_is_the_slot_parity(chart3):
    c = parse_scalar("y1 + sin(2*pi*x1)", 3)
    form = FormElement(chart3, {((1, 2, 3), (1,)): c})
    assert form.contract_base_vector(1).terms == {((2, 3), (1,)): c}
    assert form.contract_base_vector(2).terms == {((1, 3), (1,)): -c}
    assert form.contract_base_vector(3).terms == {((1, 2), (1,)): c}


def test_determinant_signs():
    a, b, c, d = (parse_scalar(s, 2) for s in ("y1", "y2 + 1", "sin(2*pi*x1)", "exp(y1)"))
    assert _determinant([[a, b], [c, d]]) is a * d - b * c
    m = sp.Matrix(3, 3, lambda i, j: sp.Symbol(f"m{i}{j}"))
    assert sp.expand(_determinant(m.tolist()) - m.det()) == 0


# ---------------------------------------------------------------------------
# counting: no sign reaches the coefficient arithmetic
# ---------------------------------------------------------------------------

def test_semiflat_checks_multiply_no_sign(monkeypatch):
    """Every n = 2 and n = 3 semiflat-check of the seed-1 symbolic list runs
    without a jet product by the product rule with a constant +-1 and
    without a node product normalising a ONE or ZERO operand."""
    worker, workloads = perfbench_modules("worker", "workloads")
    jobs = [job for job in workloads.symbolic_jobs(1) if job.get("doc", {}).get("kind")
            == "semiflat-check" and job["doc"]["payload"]["n"] in (2, 3)]
    assert {job["doc"]["payload"]["n"] for job in jobs} == {2, 3}
    sign_jets, unit_products, chains, products, stack = [], [], [], [], []
    raw_chain, raw_mul, raw_product = fields._chain, fields.mul, fields._product

    def chain(args, value, grads):
        chains.append(1)
        sign_jets.extend(a for a in args if a.partials == {} and type(a.value) is complex
                         and a.value in (1, -1))
        return raw_chain(args, value, grads)

    def mul(*items):
        stack.append(items)
        try:
            return raw_mul(*items)
        finally:
            stack.pop()

    def product(coeff, pairs):
        products.append(1)
        if stack and stack[-1] is not None and any(a is ONE or a is ZERO for a in stack[-1]):
            unit_products.append(stack[-1])
        stack.append(None)  # what _product calls on its own is not a unit operand's
        try:
            return raw_product(coeff, pairs)
        finally:
            stack.pop()

    monkeypatch.setattr(fields, "_chain", chain)
    monkeypatch.setattr(fields, "mul", mul)
    monkeypatch.setattr(fields, "_product", product)
    with _quiet():
        for job in jobs:
            worker.run_job(job)
    assert chains and products
    assert sign_jets == [] and unit_products == []
