import pytest
import sympy as sp

from syzlab.algebra import (
    BigradedElement,
    DegreeError,
    bracket,
    d_x,
    d_x_prime,
    d_y,
    decomposable_form,
    exp_nilpotent,
    from_form,
    phi2,
    phi3,
    standard_symplectic_form,
    to_form,
    vector_field_bracket,
)
from conftest import chart_of_dim, random_element, seeded_rng


def _deg_sign(a, b):
    (pa, qa), = a.bidegrees()
    (pb, qb), = b.bidegrees()
    return (-1) ** (pa * pb + qa * qb)


class TestProduct:
    def test_commutation_sign_plus(self, chart2):
        a = BigradedElement.term(chart2, 1, dys=(1,), dxs=(1,))
        b = BigradedElement.term(chart2, 1, dys=(2,), dxs=(2,))
        assert (a * b - b * a).is_zero()
        prod = a * b
        assert prod.coefficient(dys=(1, 2), dxs=(1, 2)) == 1

    def test_commutation_sign_minus(self, chart2):
        a = BigradedElement.term(chart2, 1, dxs=(1,))
        b = BigradedElement.term(chart2, 1, dxs=(2,))
        assert (a * b + b * a).is_zero()

    def test_insertion_normalisation(self, chart2):
        t = BigradedElement.term(chart2, 1, dys=(2, 1))
        assert t.coefficient(dys=(1, 2)) == -1
        assert BigradedElement.term(chart2, 1, dys=(1, 1)).is_zero()

    def test_graded_commutativity_random(self):
        rng = seeded_rng(11)
        for n in (1, 2, 3):
            chart = chart_of_dim(n)
            for _ in range(10):
                a = random_element(chart, rng, 1)
                b = random_element(chart, rng, 1)
                if a.is_zero() or b.is_zero():
                    continue
                if not (a.is_homogeneous() and b.is_homogeneous()):
                    continue
                sign = _deg_sign(a, b)
                assert (a * b - (b * a).scale(sign)).is_zero()

    def test_associativity_random(self):
        rng = seeded_rng(5)
        for n in (1, 2, 3):
            chart = chart_of_dim(n)
            for _ in range(10):
                a, b, c = (random_element(chart, rng) for _ in range(3))
                assert ((a * b) * c - a * (b * c)).is_zero()


class TestFormIsomorphism:
    def test_unit_maps_to_fibre_volume(self, chart2):
        unit = BigradedElement.unit(chart2)
        form = to_form(unit)
        assert form.coefficient(dxs=(1, 2)) == 1
        assert len(form.terms) == 1

    def test_basic_images(self, chart2):
        e = BigradedElement.term(chart2, 1, dys=(1,), dxs=(1,))
        assert to_form(e).coefficient(dys=(1,), dxs=(2,)) == 1
        full = BigradedElement.term(chart2, 1, dxs=(1, 2))
        assert to_form(full).coefficient() == 1
        e2 = BigradedElement.term(chart2, 1, dys=(2,), dxs=(2,))
        # contraction sign: the image is -dy2 ^ dx1
        assert to_form(e2).coefficient(dys=(2,), dxs=(1,)) == -1

    def test_round_trip_random(self):
        rng = seeded_rng(3)
        for n in (1, 2, 3):
            chart = chart_of_dim(n)
            for _ in range(15):
                e = random_element(chart, rng)
                assert (from_form(to_form(e)) - e).is_zero()

    def test_degree_guard(self, chart2):
        with pytest.raises(DegreeError):
            BigradedElement.term(chart2, 1, dys=(3,))


class TestDifferentials:
    def test_fibre_differential_example(self, chart2):
        x1 = chart2.xs[0]
        e = BigradedElement.term(chart2, sp.sin(2 * sp.pi * x1), dys=(1,), dxs=(1, 2))
        expected = BigradedElement.term(
            chart2, 2 * sp.pi * sp.cos(2 * sp.pi * x1), dys=(1,), dxs=(2,))
        assert (d_x(e) - expected).is_zero()

    def test_constant_annihilated(self, chart2):
        e = BigradedElement.term(chart2, sp.Rational(3, 7), dys=(1,), dxs=(2,))
        assert d_x(e).is_zero() and d_y(e).is_zero()

    def test_base_differential_example(self, chart2):
        y2 = chart2.ys[1]
        e = BigradedElement.term(chart2, y2, dys=(1,))
        assert d_y(e).coefficient(dys=(1, 2)) == -1

    def test_exterior_derivative_oracle(self):
        """to_form(d_x + d_y) equals d on the form side, coefficientwise."""
        rng = seeded_rng(17)
        for n in (1, 2, 3):
            chart = chart_of_dim(n)
            for _ in range(12):
                e = random_element(chart, rng)
                lhs = to_form(d_x(e) + d_y(e))
                rhs = to_form(e).exterior_derivative()
                assert (lhs - rhs).sup_norm(3, 4) < 1e-10

    def test_square_zero_and_anticommute(self):
        rng = seeded_rng(23)
        for n in (1, 2, 3):
            chart = chart_of_dim(n)
            for _ in range(10):
                e = random_element(chart, rng)
                assert d_x(d_x(e)).is_zero()
                assert d_y(d_y(e)).is_zero()
                assert (d_x(d_y(e)) + d_y(d_x(e))).sup_norm(3, 4) < 1e-12


class TestBracket:
    def test_vector_field_example(self, chart2):
        x2 = chart2.xs[1]
        a = BigradedElement.term(chart2, sp.sin(2 * sp.pi * x2), dys=(1,), dxs=(1,))
        b = BigradedElement.term(chart2, 1, dys=(2,), dxs=(2,))
        expected = BigradedElement.term(
            chart2, -2 * sp.pi * sp.cos(2 * sp.pi * x2), dys=(1, 2), dxs=(1,))
        assert (bracket(a, b) - expected).is_zero()

    def test_fibre_constant_brackets_vanish(self, chart2):
        y1 = chart2.ys[0]
        a = BigradedElement.term(chart2, y1, dys=(1,), dxs=(1,))
        assert bracket(a, a).is_zero()
        b = BigradedElement.term(chart2, 2, dys=(2,), dxs=(2,))
        assert bracket(a, b).is_zero()

    def test_agrees_with_vector_field_formula(self):
        rng = seeded_rng(29)
        for n in (2, 3):
            chart = chart_of_dim(n)
            for _ in range(12):
                a = BigradedElement.zero(chart)
                b = BigradedElement.zero(chart)
                for _ in range(2):
                    from conftest import random_coefficient
                    a = a + BigradedElement.term(
                        chart, random_coefficient(chart, rng),
                        dys=(rng.randint(1, n),), dxs=(rng.randint(1, n),))
                    b = b + BigradedElement.term(
                        chart, random_coefficient(chart, rng),
                        dys=(rng.randint(1, n),), dxs=(rng.randint(1, n),))
                if a.is_zero() or b.is_zero():
                    continue
                assert (bracket(a, b) - vector_field_bracket(a, b)).is_zero()

    def test_leibniz_rules(self):
        """Product rules for d_x' (with bracket defect) and for d_y."""
        rng = seeded_rng(31)
        chart = chart_of_dim(2)
        for _ in range(10):
            a, b = random_element(chart, rng, 1), random_element(chart, rng, 1)
            if not (a.is_homogeneous() and b.is_homogeneous()):
                continue
            if a.is_zero() or b.is_zero():
                continue
            sign = _deg_sign(a, b)
            lhs = d_x_prime(a * b)
            rhs = bracket(a, b) + d_x_prime(a) * b + (d_x_prime(b) * a).scale(sign)
            assert (lhs - rhs).sup_norm(3, 4) < 1e-10
            lhs = d_y(a * b)
            rhs = d_y(a) * b + (d_y(b) * a).scale(sign)
            assert (lhs - rhs).sup_norm(3, 4) < 1e-10


class TestOperatorOrders:
    def test_base_differential_is_first_order(self):
        rng = seeded_rng(37)
        chart = chart_of_dim(2)
        for _ in range(8):
            a, b = random_element(chart, rng), random_element(chart, rng)
            assert phi2(d_y, a, b).sup_norm(3, 4) < 1e-12

    def test_fibre_differential_is_second_order(self):
        rng = seeded_rng(41)
        for n in (2, 3):
            chart = chart_of_dim(n)
            for _ in range(6):
                a, b, c = (random_element(chart, rng, 1) for _ in range(3))
                assert phi3(d_x_prime, a, b, c).sup_norm(3, 4) < 1e-10

    def test_bracket_derivation_rule(self):
        rng = seeded_rng(43)
        chart = chart_of_dim(2)
        for _ in range(8):
            a = random_element(chart, rng, 1)
            b, c = random_element(chart, rng, 1), random_element(chart, rng, 1)
            if not (b.is_homogeneous() and c.is_homogeneous()):
                continue
            if b.is_zero() or c.is_zero():
                continue
            sign = _deg_sign(b, c)
            lhs = bracket(a, b * c)
            rhs = bracket(a, b) * c + (bracket(a, c) * b).scale(sign)
            assert (lhs - rhs).sup_norm(3, 4) < 1e-10


class TestExponential:
    def test_dimension_one(self):
        chart = chart_of_dim(1)
        y1 = chart.ys[0]
        beta = BigradedElement.from_matrix(chart, [[y1]])
        ex = exp_nilpotent(beta)
        assert (ex - BigradedElement.unit(chart) - beta).is_zero()

    def test_diagonal_expansion(self, chart2):
        b11, b22 = sp.Rational(1, 3), sp.Rational(2, 5)
        matrix = [[b11, 0], [0, b22]]
        form = to_form(exp_nilpotent(BigradedElement.from_matrix(chart2, matrix)))
        assert form.coefficient(dxs=(1, 2)) == 1
        assert form.coefficient(dys=(1,), dxs=(2,)) == b11
        assert form.coefficient(dys=(2,), dxs=(1,)) == -b22  # dx1 ^ dy2
        assert form.coefficient(dys=(1, 2)) == b11 * b22

    def test_matches_wedge_expansion_random(self):
        rng = seeded_rng(47)
        for n in (1, 2, 3):
            chart = chart_of_dim(n)
            for _ in range(6):
                matrix = [[sp.Rational(rng.randint(-3, 3), rng.randint(1, 3))
                           * (chart.ys[rng.randrange(n)] if rng.random() < 0.5 else 1)
                           for _ in range(n)] for _ in range(n)]
                beta = BigradedElement.from_matrix(chart, matrix)
                lhs = to_form(exp_nilpotent(beta))
                rhs = decomposable_form(chart, matrix)
                assert (lhs - rhs).is_zero()

    def test_bidegree_guard(self, chart2):
        bad = BigradedElement.term(chart2, 1, dys=(1, 2), dxs=(1,))
        with pytest.raises(DegreeError):
            exp_nilpotent(bad)


def test_standard_symplectic_form(chart2):
    omega = standard_symplectic_form(chart2)
    assert omega.coefficient(dys=(1,), dxs=(1,)) == -1  # dx1 ^ dy1 reordered
    assert omega.exterior_derivative().is_zero()


def test_chart_mismatch_rejected(chart2):
    from syzlab.charts import Chart, ChartError

    other = Chart(2, ((0, 1), (0, 1)))
    a = BigradedElement.term(chart2, 1, dys=(1,))
    b = BigradedElement.term(other, 1, dxs=(1,))
    with pytest.raises(ChartError):
        a * b
    with pytest.raises(ChartError):
        a + b
