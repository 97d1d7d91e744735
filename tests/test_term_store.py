"""The one sparse term store behind BigradedElement and FormElement."""

import ast
import inspect

import pytest
import sympy as sp

from syzlab import algebra
from syzlab.algebra import BigradedElement, DegreeError, FormElement

SHARED = ("add_term", "__add__", "__sub__", "__neg__", "scale", "coefficient",
          "is_zero", "sup_norm", "zero", "real_imag")


def test_expand_is_called_only_in_the_store_add_term():
    tree = ast.parse(inspect.getsource(algebra))
    owners = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "expand"):
            owners.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    assert owners == [("_Terms", "add_term")]


def test_signs_come_from_one_sort():
    assert not hasattr(algebra, "merge_with_sign")
    assert not hasattr(algebra, "insert_with_sign")


@pytest.mark.parametrize("cls", [BigradedElement, FormElement])
def test_element_types_define_no_storage_of_their_own(cls):
    assert not set(SHARED) & set(vars(cls))
    assert not hasattr(cls, "_add_term")


@pytest.mark.parametrize("cls", [BigradedElement, FormElement])
def test_index_above_n_raises(cls, chart2):
    with pytest.raises(DegreeError):
        cls(chart2).add_term((1,), (3,), 1)
    with pytest.raises(DegreeError):
        cls(chart2, {((3,), ()): 1})


@pytest.mark.parametrize("cls", [BigradedElement, FormElement])
def test_add_term_sorts_with_sign_and_drops_repeats(cls, chart3):
    e = cls(chart3)
    e.add_term((2, 1), (3, 1, 2), sp.Symbol("c"))
    # (2, 1) is one swap, (3, 1, 2) two
    assert e.terms == {((1, 2), (1, 2, 3)): -sp.Symbol("c")}
    e.add_term((1, 1), (), 5)
    e.add_term((1, 2), (1, 2, 3), sp.Symbol("c"))
    assert e.is_zero()



def test_product_skips_overlapping_pairs_before_add_term(chart2, monkeypatch):
    """dy1 + dy2 times dy1 (x) d/dx1 + dy2 (x) d/dx1: only the two pairs with
    disjoint J reach add_term; the sign and terms match the full product."""
    left = (BigradedElement.term(chart2, sp.Symbol("a"), dys=(1,))
            + BigradedElement.term(chart2, sp.Symbol("b"), dys=(2,)))
    right = (BigradedElement.term(chart2, sp.Symbol("c"), dys=(1,), dxs=(1,))
             + BigradedElement.term(chart2, sp.Symbol("d"), dys=(2,), dxs=(1,)))
    calls = []
    raw = algebra._Terms.add_term

    def counted(self, jset, kset, coeff, sign=1):
        calls.append((jset, kset))
        return raw(self, jset, kset, coeff, sign)

    monkeypatch.setattr(algebra._Terms, "add_term", counted)
    product = left * right
    assert sorted(calls) == [((1, 2), (1,)), ((2, 1), (1,))]
    a, b, c, d = sp.symbols("a b c d")
    assert product.terms == {((1, 2), (1,)): sp.expand(a * d - b * c)}
    forms = FormElement(chart2, {((1,), (1,)): a}).wedge(FormElement(chart2, {((1,), (2,)): c}))
    assert forms.is_zero()


def test_real_imag_keeps_the_element_type(chart2):
    y1, x1 = chart2.ys[0], chart2.xs[0]
    el = BigradedElement.term(chart2, y1 + sp.I * sp.sin(2 * sp.pi * x1), dys=(1,), dxs=(2,))
    el = el + BigradedElement.term(chart2, 3, dys=(1, 2))
    re, im = el.real_imag()
    assert type(re) is type(im) is BigradedElement
    assert re.coefficient((1,), (2,)) == y1 and re.coefficient((1, 2)) == 3
    assert im.coefficient((1,), (2,)) == sp.sin(2 * sp.pi * x1)
    assert (re + im.scale(sp.I) - el).is_zero()
