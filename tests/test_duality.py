import ast
import inspect
import random

import numpy as np
import pytest
import sympy as sp

from syzlab import duality
from syzlab.charts import Chart, circle_points, product_grid
from syzlab.duality import (
    CycleSpec,
    DualityError,
    HitchinPotential,
    SymTensorField,
    YukawaFamily,
    cycle_tangent_vector,
    dual_structure_check,
    duality_identities,
    hitchin,
    mclean_metrics,
    period_one_form,
    symmetric_class,
    wedge_with_minus_omega,
    yukawa,
)
from syzlab.fields import as_field, fibre_mean, parse_scalar, to_sympy
from syzlab.semiflat import (
    BetaStructure,
    CompatibilityError,
    closedness_residuals,
    translate_by_section,
)

from conftest import sympy_beta

I = sp.I


def sympy_matrix(metric):
    """A metric's node entries as a sympy Matrix, for the sympy oracles."""
    return sp.Matrix([[sp.expand(to_sympy(e)) for e in row] for row in metric.entries])


@pytest.fixture
def chart2():
    return Chart(2, ((-1, 1), (-1, 1)))


def flat(chart):
    n = chart.n
    return BetaStructure(chart, [[I if i == j else 0 for j in range(n)]
                                 for i in range(n)])


class TestMcLean:
    def test_flat_identity(self, chart2):
        mm = mclean_metrics(flat(chart2))
        assert sympy_matrix(mm["h"]) == sp.eye(2)
        assert sympy_matrix(mm["h_n"]) == sp.eye(2)
        assert mm["vol"] == 1
        assert mm["report"]["metric_route_agreement"].value < 1e-13

    def test_diagonal_scaling(self, chart2):
        c1, c2 = sp.Integer(2), sp.Integer(3)
        bs = BetaStructure(chart2, [[I * c1, 0], [0, I * c2]])
        mm = mclean_metrics(bs)
        root = sp.sqrt(c1 * c2)
        h = sympy_matrix(mm["h"])
        assert sp.simplify(h[0, 0] - c1 / root) == 0
        assert sp.simplify(h[1, 1] - c2 / root) == 0
        assert sp.simplify(mm["vol"] - 1 / root) == 0
        assert sympy_matrix(mm["h_n"]) == sp.diag(c1, c2)

    def test_routes_agree_for_fibre_dependent_metric(self, chart2):
        x1 = chart2.xs[0]
        bs = BetaStructure(chart2, [
            [I * (2 + sp.sin(2 * sp.pi * x1) / 2), 0], [0, I]])
        with pytest.warns(UserWarning, match="not closed"):
            mm = mclean_metrics(bs)
        assert mm["report"]["metric_route_agreement"].value < 1e-8
        assert mm["report"]["metric_symmetry"].value < 1e-8


def base_axes(chart, k):
    return [np.linspace(float(lo), float(hi), k) for lo, hi in chart.box]


def central_difference_curl(chart, vals, k):
    """max over a < b of |d_a psi_b - d_b psi_a| at each point of the k^n
    grid of base_axes(chart, k), by central differences (one-sided, second
    order, at the edges) of psi's values there: the oracle for
    period_one_form's exact residual, O(h^2) off it."""
    n = chart.n
    grid = vals.reshape(*([k] * n), n)
    steps = [(float(hi) - float(lo)) / (k - 1) for lo, hi in chart.box]
    worst = np.zeros([k] * n)
    for a in range(n):
        for b in range(a + 1, n):
            d_a_psib = np.gradient(grid[..., b], steps[a], axis=a, edge_order=2)
            d_b_psia = np.gradient(grid[..., a], steps[b], axis=b, edge_order=2)
            worst = np.maximum(worst, np.abs(d_a_psib - d_b_psia))
    return worst


def not_closed(chart):
    """A base- and fibre-dependent beta whose period covectors are not closed."""
    y1, y2 = chart.ys
    x1, x2 = chart.xs
    off = y1 / 5 + I * y2 / 5
    return BetaStructure(chart, [
        [I * (3 + y2 + sp.sin(2 * sp.pi * x1) / 2), off],
        [off, I * (3 + y1 ** 2 / 4 + sp.cos(2 * sp.pi * x2) / 3)]])


class TestPeriods:
    def test_flat_coordinate_cycles(self, chart2):
        bs = flat(chart2)
        at = [[0.0], [0.0]]
        _, psi, _ = period_one_form(bs, CycleSpec(1, (1, 0)), base=at)
        assert np.allclose(psi[0], [0.0, 1.0], atol=1e-12)
        _, psi, _ = period_one_form(bs, CycleSpec(1, (0, 1)), base=at)
        assert np.allclose(psi[0], [-1.0, 0.0], atol=1e-12)

    def test_closedness_by_finite_differences(self, chart2):
        """The exact residual agrees with the central-difference oracle: below
        1e-12 on closed cases, and to O(h^2) where psi is not closed."""
        y1, y2 = chart2.ys
        x1 = chart2.xs[0]
        base_only = BetaStructure(chart2, [
            [I * (3 + y1 * y2 / 2 + sp.sin(2 * sp.pi * x1) / 2), 0], [0, 3 * I]])
        for bs, cycle in [(flat(chart2), (1, 0)), (flat(chart2), (0, 1)),
                          (base_only, (1, 0))]:
            _, vals, residual = period_one_form(bs, CycleSpec(1, cycle))
            assert residual < 1e-12
            assert central_difference_curl(chart2, vals, 5).max() < 1e-12
        bs = not_closed(chart2)
        for cycle in ((1, 0), (0, 1)):
            errors = []
            for k in (5, 9, 17):
                _, vals, residual = period_one_form(bs, CycleSpec(1, cycle),
                                                    base=base_axes(chart2, k))
                assert residual > 0.4
                errors.append(abs(residual - central_difference_curl(chart2, vals, k).max()))
            # two halvings of h: O(h^2) cuts the gap 16-fold, O(h) only 4-fold
            assert errors[0] < 2e-3 * residual and errors[2] < errors[0] / 8, errors

    def test_closedness_residual_on_every_base_grid(self, chart2):
        """A float on any base axes, a single point included; each point's
        value is its own, so the grid's residual is the max of the points',
        and the centre's agrees with the oracle's at the centre of the grid."""
        bs = flat(chart2)
        grid = base_axes(chart2, 3)
        for base in ([[0.0], [0.0]], base_axes(chart2, 2), [a[::-1] for a in grid], grid):
            residual = period_one_form(bs, CycleSpec(1, (1, 0)), base=base)[2]
            assert type(residual) is float and residual < 1e-12
        bs, gamma = not_closed(chart2), CycleSpec(1, (0, 1))
        pts, vals, whole = period_one_form(bs, gamma, base=base_axes(chart2, 5))
        alone = [period_one_form(bs, gamma, base=[[y1], [y2]])[2] for y1, y2 in pts]
        assert max(alone) == pytest.approx(whole, rel=1e-12)
        assert tuple(pts[12]) == (0.0, 0.0) and alone[12] > 0.4
        assert abs(alone[12] - central_difference_curl(chart2, vals, 5)[2, 2]) < 1e-3

    def test_nonzero_requirement(self):
        with pytest.raises(DualityError):
            CycleSpec(1, (0, 0))

    def test_has_no_tolerance_argument(self, chart2):
        with pytest.raises(TypeError):
            period_one_form(flat(chart2), CycleSpec(1, (1, 0)), tol=1e-6)


class TestPairingConvention:
    def test_default_order(self):
        # omitted-axis generator i pairs with (-1)^(i-1) times the i-th vector
        assert cycle_tangent_vector(CycleSpec(2, (1, 0, 0)), 3) == [1, 0, 0]
        assert cycle_tangent_vector(CycleSpec(2, (0, 1, 0)), 3) == [0, -1, 0]

    def test_circle_basis_for_surfaces(self):
        # the x1 circle is the generator omitting axis 2, pairing to -e2
        assert cycle_tangent_vector(CycleSpec(1, (1, 0)), 2) == [0, -1]


class TestDualityIdentities:
    def test_flat_unit_pairing(self, chart2):
        rep = duality_identities(flat(chart2), CycleSpec(1, (0, 1)),
                                 {1: sp.Integer(1)})
        assert rep.notes["cycle_integral"] == pytest.approx(1.0)
        assert rep.notes["fibre_pairing_integral"] == pytest.approx(1.0)
        assert rep["cycle_vs_fibre_pairing"].value < 1e-12

    def test_flat_period_embedding(self, chart2):
        rep = duality_identities(flat(chart2), CycleSpec(1, (1, 0)),
                                 {1: sp.Integer(1)})
        assert rep["period_vs_metric_embedding"].value < 1e-10

    def test_diagonal_class_matrix(self, chart2):
        bs = BetaStructure(chart2, [[2 * I, 0], [0, 3 * I]])
        rep = duality_identities(bs, CycleSpec(1, (1, 0)), {1: sp.Integer(1)})
        assert np.allclose(rep.notes["class_matrix"], [[2, 0], [0, 3]], atol=1e-9)
        assert rep["normalised_class_vs_metric"].value < 1e-8

    def test_checks_compatibility_at_its_tolerance(self, chart2):
        y1 = chart2.ys[0]
        bs = BetaStructure(chart2, [[2 * I, y1 / 10 ** 6], [0, 3 * I]])
        args = (CycleSpec(1, (1, 0)), {1: sp.Integer(1)})
        with pytest.raises(CompatibilityError, match="not symmetric"):
            duality_identities(bs, *args)
        rep = duality_identities(bs, *args, tol=1e-3)
        assert rep.all_passed


class TestSymmetricClass:
    def test_symmetric_fixed_point(self, chart2):
        alpha = SymTensorField(chart2, [[1, sp.Rational(1, 2)],
                                        [sp.Rational(1, 2), 0]])
        defect, wform = alpha.antisymmetric_defect(), wedge_with_minus_omega(alpha)
        assert all(d == 0 for row in defect for d in row)
        assert wform == {}
        out = symmetric_class(alpha)
        assert out.entries == alpha.entries

    def test_constant_antisymmetric_collapses(self, chart2):
        alpha = SymTensorField(chart2, [[0, 1], [0, 0]])
        out = symmetric_class(alpha)
        assert all(e == 0 for row in out.entries for e in row)

    def test_linear_example(self, chart2):
        y1 = chart2.ys[0]
        alpha = SymTensorField(chart2, [[0, y1], [0, 0]])
        defect, wform = alpha.antisymmetric_defect(), wedge_with_minus_omega(alpha)
        assert defect[0][1] == -y1
        assert wform == {(1, 2): y1}
        out = symmetric_class(alpha)
        assert out.is_symmetric()
        # the difference from the input is a gradient: re-testing is a fixed point
        again = symmetric_class(out)
        assert again.entries == out.entries

    def test_three_dimensional(self):
        chart = Chart(3, ((-1, 1),) * 3)
        y1, y2, y3 = chart.ys
        # columns are the gradients of (0, y1*y3, y2): a genuine cocycle
        alpha = SymTensorField(chart, [
            [0, y3, 0],
            [0, 0, 1],
            [0, y1, 0],
        ])
        assert alpha.is_gauss_manin_closed()
        out = symmetric_class(alpha)
        assert out.is_symmetric()

    def test_non_cocycle_rejected(self, chart2):
        y2 = chart2.ys[1]
        alpha = SymTensorField(chart2, [[0, y2 ** 2], [0, 0]])
        assert not alpha.is_gauss_manin_closed()
        with pytest.raises(DualityError):
            symmetric_class(alpha)

    def test_piecewise_antiderivative_is_named(self):
        """A genuine cocycle whose antiderivative sympy gives as a Piecewise
        is refused as such, not as a non-cocycle."""
        chart = Chart(2, ((0, 3), (0, 1)))
        y1, y2 = map(to_sympy, chart.ys)
        e = sp.exp(y1 * y2 / 4) / 5
        potentials = [2 * y2 + e, 4 * y1 + e]
        alpha = SymTensorField(chart, [[sp.diff(f, y) for f in potentials] for y in (y1, y2)])
        assert alpha.is_gauss_manin_closed()
        with pytest.raises(DualityError, match="piecewise or outside the grammar"):
            symmetric_class(alpha)

    def test_entries_written_differently(self, chart2):
        """Symmetry and column closedness that hold once products of sums are
        multiplied out: y1*(y2 + 1) against y1*y2 + y1."""
        y1, y2 = chart2.ys
        alpha = SymTensorField(chart2, [[0, y1 * (y2 + 1)], [y1 * y2 + y1, 0]])
        assert alpha.is_symmetric() and wedge_with_minus_omega(alpha) == {}
        _, info = hitchin(HitchinPotential(chart2, (y1 ** 2 + y2 ** 2) / 2), alpha)
        assert info["determinant_value"] == 1
        cocycle = SymTensorField(chart2, [[y2 * (y1 + 1) ** 2, 0],
                                          [y1 ** 3 / 3 + y1 ** 2 + y1, 0]])
        assert cocycle.is_gauss_manin_closed()
        assert symmetric_class(cocycle).is_symmetric()

    def test_rejects_fibre_dependence(self, chart2):
        with pytest.raises(DualityError):
            SymTensorField(chart2, [[chart2.xs[0], 0], [0, 0]])

    def test_potential_outside_the_grammar(self):
        """The gradient column (1/y1, 0) has the potential log(y1), which no
        node can hold; the symmetrised tensor needs only its gradient."""
        chart = Chart(2, ((1, 2), (1, 2)))
        alpha = SymTensorField(chart, [[0, parse_scalar("1/y1", 2)], [0, 0]])
        assert alpha.is_gauss_manin_closed()
        assert symmetric_class(alpha).entries == [[0, 0], [0, 0]]


class TestHitchin:
    def test_quadratic_is_flat(self, chart2):
        y1, y2 = chart2.ys
        bs, info = hitchin(HitchinPotential(chart2, (y1 ** 2 + y2 ** 2) / 2))
        beta = sympy_beta(bs)
        assert all(sp.expand(beta[i][j] - (I if i == j else 0)) == 0
                   for i in range(2) for j in range(2))
        assert info["closedness"].verdict("full_closedness")

    def test_mixed_quadratic_closed(self, chart2):
        y1, y2 = chart2.ys
        t = sp.Rational(1, 2)
        phi = (y1 ** 2 + y2 ** 2) / 2 + t * y1 * y2
        bs, info = hitchin(HitchinPotential(chart2, phi))
        assert info["determinant_residual"] < 1e-12
        assert info["closedness"].verdict("full_closedness")
        assert info["criterion_consistent"]

    def test_cubic_perturbation_fails(self, chart2):
        y1, y2 = chart2.ys
        phi = (y1 ** 2 + y2 ** 2) / 2 + y1 ** 3 / 10
        bs, info = hitchin(HitchinPotential(chart2, phi))
        assert info["determinant_residual"] > 0.5
        assert info["closedness"]["full_closedness"].value > 1e-3
        assert info["criterion_consistent"]

    def test_twist_equals_translation(self, chart2):
        y1, y2 = chart2.ys
        phi = (y1 ** 2 + y2 ** 2) / 2 + sp.Rational(1, 5) * y1 * y2
        F = y1 ** 2 / 2 + y1 * y2 / 3 + y2 ** 2 / 4
        hess = [[sp.diff(F, a, b) for b in (y1, y2)] for a in (y1, y2)]
        twisted, _ = hitchin(HitchinPotential(chart2, phi),
                             SymTensorField(chart2, hess))
        untwisted, _ = hitchin(HitchinPotential(chart2, phi))
        translated = translate_by_section(untwisted, [sp.diff(F, y1), sp.diff(F, y2)])
        twisted, translated = sympy_beta(twisted), sympy_beta(translated)
        for i in range(2):
            for j in range(2):
                assert sp.expand(twisted[i][j] - translated[i][j]) == 0

    def test_rejects_indefinite(self, chart2):
        y1 = chart2.ys[0]
        with pytest.raises(Exception):
            hitchin(HitchinPotential(chart2, y1 ** 4))


class TestDualStructure:
    def test_diagonal_reciprocity(self, chart2):
        bs = BetaStructure(chart2, [[2 * I, 0], [0, 3 * I]])
        rep = dual_structure_check(bs)
        assert rep["dual_metric_match"].value < 1e-8
        assert rep["volume_reciprocity"].value < 1e-10
        assert rep.notes["vol_samples"][0] == pytest.approx(1 / np.sqrt(6))
        assert rep.notes["dual_vol_samples"][0] == pytest.approx(np.sqrt(6))

    def test_flat_self_dual(self, chart2):
        rep = dual_structure_check(flat(chart2))
        assert rep["dual_metric_match"].value == 0
        assert rep["volume_reciprocity"].value < 1e-12

    def test_unimodular_hessian(self, chart2):
        y1, y2 = chart2.ys
        t = sp.Rational(1, 3)
        phi = (y1 ** 2 + y2 ** 2) / 2 + t * y1 * y2
        bs, _ = hitchin(HitchinPotential(chart2, phi))
        rep = dual_structure_check(bs)
        assert rep["dual_metric_match"].value < 1e-8
        assert rep["volume_reciprocity"].value < 1e-10

    def test_rejects_fibre_dependent_metric(self, chart2):
        x1 = chart2.xs[0]
        bs = BetaStructure(chart2, [
            [I * (2 + sp.sin(2 * sp.pi * x1) / 2), 0], [0, I]])
        with pytest.raises(DualityError):
            dual_structure_check(bs)


class TestSquareDeterminant:
    """gInv = f(y1) * Id on n = 2, and gInv = y1^2 on n = 1: det gInv is a
    square, so V = det^(-1/2) = 1/f cannot be distributed over det's factors
    without Abs.  On a box where f > 0 the fibre means are exact: vol = 1/f,
    h = Id and h_n = f * Id (for n = 1, h = y1 and h_n = y1^2)."""

    @pytest.fixture
    def chart(self):
        return Chart(2, ((1, 2), (1, 2)))

    @pytest.fixture(params=["y1", "1+y1"])
    def case(self, request, chart):
        f = {"y1": lambda y: y, "1+y1": lambda y: 1 + y}[request.param]
        y1 = chart.ys[0]
        return BetaStructure(chart, [[I * f(y1), 0], [0, I * f(y1)]]), f

    @staticmethod
    def base_values(f, k):
        """f at the k x k base points (row-major), where it reads y1 only."""
        return f(np.repeat(np.linspace(1, 2, k), k))

    def test_mclean_metrics(self, case):
        bs, f = case
        f = self.base_values(f, 3)
        with pytest.warns(UserWarning, match="not closed"):
            mm = mclean_metrics(bs)
        _, h = mm["h"].samples
        _, h_n = mm["h_n"].samples
        assert np.allclose(h, np.eye(2), rtol=0, atol=1e-14)
        assert np.allclose(h_n, f[:, None, None] * np.eye(2), rtol=1e-14, atol=0)
        assert np.allclose(mm["vol_samples"][1], 1 / f, rtol=1e-14, atol=0)
        assert mm["report"]["metric_route_agreement"].value < 1e-14

    def test_dual_structure_check(self, case):
        bs, f = case
        f = self.base_values(f, 3)
        with pytest.warns(UserWarning, match="not closed"):
            rep = dual_structure_check(bs)
        assert rep.all_passed
        assert np.allclose(rep.notes["vol_samples"], 1 / f, rtol=1e-14, atol=0)
        assert np.allclose(rep.notes["dual_vol_samples"], f, rtol=1e-14, atol=0)

    def test_period_one_form_and_identities(self, case):
        bs, f = case
        gamma = CycleSpec(1, (1, 0))
        _, values, residual = period_one_form(bs, gamma)
        # psi = (0, f(y1)) on the 5 x 5 base points; d psi = f' dy1 ^ dy2
        want = self.base_values(f, 5)
        assert np.allclose(np.asarray(values)[:, 1], want, rtol=1e-14, atol=0)
        assert np.allclose(np.asarray(values)[:, 0], 0, rtol=0, atol=1e-14)
        assert residual == pytest.approx(1, rel=1e-12)
        with pytest.warns(UserWarning, match="not closed"):
            rep = duality_identities(bs, gamma, {1: 1})
        assert all(check.value < 1e-14 for check in rep.checks.values())

    def test_n1_square_metric(self):
        chart = Chart(1, ((1, 2),))
        y1 = chart.ys[0]
        with pytest.warns(UserWarning, match="not closed"):
            mm = mclean_metrics(BetaStructure(chart, [[I * y1 ** 2]]))
        y = np.linspace(1, 2, 3)
        assert np.allclose(mm["vol_samples"][1], 1 / y, rtol=1e-14, atol=0)
        assert np.allclose(mm["h_n"].samples[1].ravel(), y ** 2, rtol=1e-14, atol=0)

    def test_dualize_scenario(self):
        from syzlab.scenarios import run_scenario_doc

        doc = {"version": "1", "kind": "dualize", "payload": {
            "n": 2, "box": [[1, 2], [1, 2]],
            "beta": [[{"im": "1+y1"}, 0], [0, {"im": "1+y1"}]]}}
        with pytest.warns(UserWarning, match="not closed"):
            report = run_scenario_doc(doc)
        assert report.passed
        f = 1 + np.repeat(np.linspace(1, 2, 3), 3)
        assert np.allclose(report.outputs["vol_samples"], 1 / f, rtol=1e-14, atol=0)
        assert np.allclose(report.outputs["dual_vol_samples"], f, rtol=1e-14, atol=0)
        assert report.outputs["volume_form_closed_residual"] == pytest.approx(0.25, rel=1e-12)


class TestYukawa:
    def test_unit_directions_give_box_measure(self, chart2):
        fam = YukawaFamily(flat(chart2), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
        value, oracle = yukawa(fam)
        assert abs(abs(value) - float(chart2.box_volume)) < 1e-12
        assert abs(value - oracle) < 1e-12

    def test_zero_directions(self, chart2):
        fam = YukawaFamily(flat(chart2), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
        value, oracle = yukawa(fam)
        assert value == 0 and oracle == 0

    def test_multilinearity_by_scaling(self, chart2):
        base = flat(chart2)
        d1 = [[1, 0], [0, 0]]
        d2 = [[0, sp.Rational(1, 2)], [sp.Rational(1, 2), 1]]
        v1, _ = yukawa(YukawaFamily(base, [d1, d2]))
        d1s = [[3, 0], [0, 0]]
        v2, _ = yukawa(YukawaFamily(base, [d1s, d2]))
        assert abs(v2 - 3 * v1) < 1e-10

    def test_three_dimensional_constant(self):
        chart = Chart(3, ((-1, 1),) * 3)
        base = flat(chart)
        dirs = [
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 0, sp.Rational(1, 2)], [0, 0, 0], [sp.Rational(1, 2), 0, 1]],
        ]
        value, oracle = yukawa(YukawaFamily(base, dirs), resolution=8, base_resolution=4)
        assert oracle is not None
        assert abs(value - oracle) <= 1e-8 * max(abs(oracle), 1.0)


def fibre_dependent(chart):
    """Im beta_11 = 3 + sin(4 pi x1)/2, Im beta_22 = 3."""
    x1 = chart.xs[0]
    return BetaStructure(chart, [[I * (3 + sp.sin(4 * sp.pi * x1) / 2), 0], [0, 3 * I]])


class TestBatchedQuadrature:
    def test_mclean_compiles_a_few_evaluators(self, chart2, compile_calls):
        with pytest.warns(UserWarning, match="not closed"):
            mclean_metrics(fibre_dependent(chart2))
        assert len(compile_calls) <= 5

    def test_dualize_scenario_compiles_a_few_evaluators(self, compile_calls):
        from syzlab.scenarios import run_scenario_doc

        off = {"re": 0, "im": "1/2"}
        doc = {"version": "1", "kind": "dualize", "payload": {
            "n": 2, "box": [[-1, 1], [-1, 1]],
            "beta": [[{"re": 0, "im": 2}, off], [off, {"re": 0, "im": 3}]]}}
        assert run_scenario_doc(doc).passed
        assert len(compile_calls) <= 8

    def test_fibre_dependent_values_are_pinned(self, chart2):
        bs = fibre_dependent(chart2)
        with pytest.warns(UserWarning, match="not closed"):
            mm = mclean_metrics(bs)
        h = np.diag([0.9982524464878421, 1.0052889976231518])
        h_n = np.diag([2.9790014080967353, 2.9999999999999987])
        pts, mats = mm["h"].samples
        assert len(pts) == 9
        assert np.allclose(mats, h, rtol=0, atol=1e-12)
        assert np.allclose(mm["h_n"].samples[1], h_n, rtol=0, atol=1e-12)
        assert np.allclose(mm["vol_samples"][1], 0.33509633254105076, rtol=0, atol=1e-12)

        for cycle, psi in [((1, 0), [0.0, 3.0]), ((0, 1), [-2.9842164860980556, 0.0])]:
            pts, vals, residual = period_one_form(bs, CycleSpec(1, cycle))
            assert len(pts) == 25
            assert np.allclose(vals, psi, rtol=0, atol=1e-12)
            assert residual < 1e-12

    def test_constant_yukawa_value_is_pinned(self, chart2):
        half = sp.Rational(1, 2)
        base = BetaStructure(chart2, [[2 * I, half], [half, 3 * I]])
        fam = YukawaFamily(base, [[[1, 0], [0, sp.Rational(1, 3)]], [[0, half], [half, 1]]])
        value, oracle = yukawa(fam)
        assert abs(value - (-0.6666666666666671)) < 1e-12
        assert oracle == pytest.approx(-2 / 3)


def grid_mean(expr, chart, y_point, k=32):
    """Mean over a k x k fibre grid, the trapezoidal rule on the 2-torus."""
    X = product_grid([circle_points(k)] * chart.n)
    f = sp.lambdify(list(chart.ys) + list(chart.xs), expr, modules="numpy")
    Y = np.broadcast_to(np.asarray(y_point, dtype=float), X.shape)
    return np.mean(np.broadcast_to(f(*Y.T, *X.T), len(X)))


class _SymbolicIntegrationError(Exception):
    pass


def _fibre_symbolic_integral(expr, chart: Chart):
    """The oracle for fibre_mean, by sympy: the exact mean over the unit fibre
    torus of an x-free or trig-polynomial integrand.

    A trig polynomial is a polynomial in x-dependent sin/cos atoms whose
    arguments are 2*pi*(k . x) + phase(y) with integer k.  With
    z_j = exp(2*pi*i*x_j) each atom is a Laurent polynomial in z, and the
    mean is its z-free term, the constant Fourier coefficient.  Any other
    x-dependent integrand raises _SymbolicIntegrationError.
    """
    expr = sp.sympify(expr)
    xs = [sp.sympify(x) for x in chart.xs]
    if expr.free_symbols.isdisjoint(xs):
        return expr
    # the integer frequency vector of each x-dependent sin/cos atom (the
    # structure's entries are fibre-periodic, so each argument is linear in x)
    frequencies = {atom: tuple(int(sp.expand(sp.diff(atom.args[0], x)) / (2 * sp.pi))
                               for x in xs)
                   for atom in expr.atoms(sp.sin, sp.cos) if not atom.free_symbols.isdisjoint(xs)}
    dummies = {atom: sp.Dummy() for atom in frequencies}
    poly = expr.xreplace(dummies)
    if not poly.is_polynomial(*dummies.values()):
        raise _SymbolicIntegrationError("not a trig polynomial in the fibre variables")
    zs = [sp.Dummy() for _ in xs]
    waves = {}
    for atom, ks in frequencies.items():
        arg = sp.expand(atom.args[0])
        # exp(i*arg) = exp(i*phase) * prod z_j^k_j
        wave = sp.exp(sp.I * arg.subs({x: 0 for x in xs})) * sp.Mul(
            *[z ** k for z, k in zip(zs, ks)])
        waves[dummies[atom]] = ((wave + 1 / wave) / 2 if isinstance(atom, sp.cos)
                                else (wave - 1 / wave) / (2 * sp.I))
    laurent = sp.expand(poly.xreplace(waves))
    mean = sp.Add(*[t for t in sp.Add.make_args(laurent) if t.free_symbols.isdisjoint(zs)])
    # back from exp(i*phase) to cos/sin of the phase
    return sp.expand(mean.xreplace({
        e: sp.cos(e.args[0] / sp.I) + sp.I * sp.sin(e.args[0] / sp.I)
        for e in mean.atoms(sp.exp) if (e.args[0] / sp.I).is_real}))


def mean_of(expr, chart):
    """fibre_mean of an integrand as a sympy expression, or None."""
    got = fibre_mean(expr, chart.n)
    return None if got is None else to_sympy(got)


def _random_atom(rng, n):
    ks = [rng.randint(-2, 2) for _ in range(n)]
    ks[rng.randrange(n)] = rng.choice((-1, 1)) * rng.randint(1, 2)
    arg = "+".join(f"({k})*x{i + 1}" for i, k in enumerate(ks))
    phase = rng.choice(("0", "y1", f"y{n}/3 - 1/2", "pi/3", "2*pi/3 + y1", "-pi/4"))
    return f"{rng.choice(('sin', 'cos'))}(2*pi*({arg}) + {phase})"


def _random_factor(rng, n):
    atom = _random_atom(rng, n)
    kind = rng.randrange(6)
    if kind == 0:
        return atom
    if kind == 1:
        return f"({rng.randint(1, 3)} + y1*{atom})"
    if kind == 2:
        return f"{atom}^{rng.randint(2, 3)}"
    if kind == 3:
        return f"({atom} - {_random_atom(rng, n)}/2)"
    if kind == 4:
        return f"exp(y{n})*{atom}"
    return f"({rng.randint(2, 4)} + {atom})^{rng.choice(('(-1)', '(1/2)', '(-2)', '(-1/2)'))}"


def fourier_corpus(count=200, seed=7):
    """Seeded sums, products and integer powers of phased sin/cos atoms at
    n = 1..3, a sixth of the factors a negative or half power."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 3)
        product = "*".join(_random_factor(rng, n) for _ in range(rng.randint(1, 3)))
        yield n, f"{product} + {_random_factor(rng, n)}" if rng.random() < 0.5 else product


class TestFourierMean:
    def test_trig_polynomials_are_exact(self, chart2):
        y1, y2 = chart2.ys
        x1, x2 = chart2.xs
        tau = 2 * sp.pi
        cases = [
            # phase, mixed-axis argument and a base variable together
            ((2 + sp.cos(tau * x1)) * (3 + sp.sin(tau * (x1 + x2) + y1)) ** 2
             * (y1 + sp.cos(2 * tau * x2)), 19 * y1),
            (sp.sin(tau * x1 + y1) * sp.cos(tau * x1), sp.sin(y1) / 2),
            (sp.cos(3 * tau * x2) ** 2 * sp.exp(y2), sp.exp(y2) / 2),
            (sp.sin(tau * (x1 - x2)) * sp.sin(tau * (x2 - x1)), -sp.Rational(1, 2)),
            (y1 ** 2 + sp.sin(tau * x1) / (1 + y2 ** 2), y1 ** 2),
        ]
        for expr, mean in cases:
            got = mean_of(expr, chart2)
            assert sp.expand(got - mean) == 0, (expr, got)
            assert not got.free_symbols & set(chart2.xs)
            for y_point in [(0.3, -0.7), (-0.9, 0.4)]:
                at = {y1: y_point[0], y2: y_point[1]}
                assert abs(grid_mean(expr, chart2, y_point) - complex(mean.subs(at))) < 1e-12

    def test_x_free_integrand_is_returned_as_is(self, chart2):
        y1 = chart2.ys[0]
        expr = as_field(1 / sp.sqrt(2 + y1 ** 2))
        assert fibre_mean(expr, chart2.n) is expr

    def test_other_integrands_go_to_quadrature(self, chart2, monkeypatch):
        reached = []

        def no_integrate(*args, **kwargs):
            reached.append(args)
            raise AssertionError("sympy integrate reached")

        monkeypatch.setattr(sp, "integrate", no_integrate)
        x1 = chart2.xs[0]
        for expr in [1 / (2 + sp.cos(2 * sp.pi * x1)), sp.sqrt(3 + sp.sin(2 * sp.pi * x1))]:
            assert fibre_mean(expr, chart2.n) is None
        with pytest.warns(UserWarning, match="not closed"):
            mm = mclean_metrics(fibre_dependent(chart2))
        assert mm["h"].provenance == "quadrature"
        assert mm["h_n"].provenance == "quadrature"
        assert mm["vol"] is None
        assert not reached

    def test_agrees_with_the_sympy_oracle(self):
        """Closed form or None alike, and equal closed forms under expand.
        The oracle splits a phase such as 2*y1 + pi/3 where fibre_mean keeps
        it whole, so the comparison expands sin/cos of sums too."""
        closed = 0
        for n, text in fourier_corpus():
            chart = Chart(n, ((-1, 1),) * n)
            node = parse_scalar(text, n)
            try:
                want = _fibre_symbolic_integral(to_sympy(node), chart)
            except _SymbolicIntegrationError:
                want = None
            got = mean_of(node, chart)
            assert (got is None) == (want is None), text
            if got is not None:
                closed += 1
                assert sp.expand(got - want, trig=True) == 0, (text, got, want)
        # both outcomes are exercised
        assert 50 < closed < 190

    def test_fibre_constant_metric_stays_closed_form(self, chart2):
        y1 = chart2.ys[0]
        bs = BetaStructure(chart2, [[I * (2 + y1 ** 2 / 4), 0], [0, 3 * I]])
        with pytest.warns(UserWarning, match="not closed"):
            mm = mclean_metrics(bs)
        assert mm["h"].provenance == "closed-form"
        assert sp.simplify(mm["vol"] - 1 / sp.sqrt(3 * (2 + y1 ** 2 / 4))) == 0


class TestClosedVolumeNote:
    def test_mclean_report_records_the_residual(self, chart2):
        with pytest.warns(UserWarning, match="not closed"):
            mm = mclean_metrics(fibre_dependent(chart2))
        assert mm["report"].notes["volume_form_closed_residual"] > 1e-3
        assert "volume_form_closed_residual" not in mm["report"].checks
        flat_mm = mclean_metrics(flat(chart2))
        assert flat_mm["report"].notes["volume_form_closed_residual"] == 0.0
        with pytest.warns(UserWarning, match="not closed"):
            rep = duality_identities(fibre_dependent(chart2), CycleSpec(1, (1, 0)),
                                     {1: sp.Integer(1)})
        assert rep.notes["volume_form_closed_residual"] > 1e-3

    def test_dualize_outputs_carry_the_residual(self):
        from syzlab.scenarios import run_scenario_doc

        doc = {"version": "1", "kind": "dualize", "payload": {
            "n": 1, "box": [[-1, 1]], "beta": [[{"im": "2 + y1^2/4"}]]}}
        with pytest.warns(UserWarning, match="not closed"):
            report = run_scenario_doc(doc)
        residual = report.outputs["volume_form_closed_residual"]
        assert residual > 1e-3
        assert not any("closed_residual" in c["name"] for c in report.checks)


class TestDualityChecksFail:
    """Each identity check reports a failure on an input that breaks it."""

    def test_period_embedding_and_class_fail_off_closedness(self, chart2):
        with pytest.warns(UserWarning, match="not closed"):
            rep = duality_identities(fibre_dependent(chart2), CycleSpec(1, (0, 1)),
                                     {1: sp.Integer(1)})
        assert rep.verdict("cycle_vs_fibre_pairing")
        for name in ("period_vs_metric_embedding", "normalised_class_vs_metric"):
            assert not rep.verdict(name)
            assert rep[name].value == pytest.approx(5.215078e-3, rel=1e-6)

    def test_cycle_pairing_fails_on_a_form_the_cycle_does_not_see(self, chart2):
        x2 = chart2.xs[1]
        with pytest.warns(UserWarning, match="not closed"):
            rep = duality_identities(fibre_dependent(chart2), CycleSpec(1, (1, 0)),
                                     {1: sp.Integer(1), 2: sp.cos(2 * sp.pi * x2)})
        assert not rep.verdict("cycle_vs_fibre_pairing")
        assert rep["cycle_vs_fibre_pairing"].value == pytest.approx(1.0, abs=1e-12)


class TestOneSampledCore:
    def test_no_check_calls_mclean_metrics_or_period_one_form(self):
        tree = ast.parse(inspect.getsource(duality))
        callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for call in ast.walk(fn) if isinstance(call, ast.Call)
                   and getattr(call.func, "id", None) in ("mclean_metrics", "period_one_form")}
        assert callers == set()

    def test_identities_build_im_omega_once(self, chart2, compile_calls, monkeypatch):
        builds = []
        raw = duality._im_omega_coefficient_forms

        def counted(bs):
            builds.append(bs)
            return raw(bs)

        monkeypatch.setattr(duality, "_im_omega_coefficient_forms", counted)
        with pytest.warns(UserWarning, match="not closed"):
            duality_identities(fibre_dependent(chart2), CycleSpec(1, (1, 0)),
                               {1: sp.Integer(1)})
        assert len(builds) == 1
        assert len(compile_calls) <= 5

    def test_dual_check_takes_no_metric_report(self, chart2, compile_calls, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reached")

        monkeypatch.setattr(duality, "mclean_metrics", refuse)
        monkeypatch.setattr(duality, "fibre_mean", refuse)
        y1 = chart2.ys[0]
        bs = BetaStructure(chart2, [[I * (2 + y1 ** 2 / 4), 0], [0, 3 * I]])
        with pytest.warns(UserWarning, match="not closed"):
            rep = dual_structure_check(bs)
        assert rep.all_passed
        assert rep.notes["volume_form_closed_residual"] > 1e-3
        assert len(compile_calls) <= 5



def _x_dependent(form):
    """y1 + sin(2 pi x1)/4 as a node or as a sympy expression."""
    from syzlab.fields import parse_scalar, to_sympy

    node = parse_scalar("y1 + sin(2*pi*x1)/4", 2)
    return node if form == "node" else to_sympy(node)


@pytest.mark.parametrize("form", ["node", "sympy"])
class TestFibreDependenceIsRefused:
    """Each y-only input refuses a fibre variable, whether it arrives as a
    node or as sympy: variables compare by name, so a node variable meeting
    a sympy symbol cannot slip through as an empty intersection."""

    def test_tensor_entries(self, chart2, form):
        with pytest.raises(DualityError, match="y only"):
            SymTensorField(chart2, [[_x_dependent(form), 0], [0, 1]])

    def test_potential(self, chart2, form):
        with pytest.raises(DualityError, match="base variables only"):
            HitchinPotential(chart2, _x_dependent(form))

    def test_section(self, chart2, form):
        bs = BetaStructure(chart2, [[I, 0], [0, I]])
        with pytest.raises(ValueError, match="y only"):
            translate_by_section(bs, [_x_dependent(form), 0])

    def test_period_form(self, chart2, form):
        from syzlab.semiflat import action_coordinates

        with pytest.raises(ValueError, match="y only"):
            action_coordinates([[_x_dependent(form), 0]], chart2)

    def test_dualised_metric(self, chart2, form):
        g = 2 + _x_dependent(form) / 4
        bs = BetaStructure(chart2, [[I * g, 0], [0, I]])
        with pytest.raises(DualityError, match="fibre-constant"):
            dual_structure_check(bs)
