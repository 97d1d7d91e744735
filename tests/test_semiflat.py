import numpy as np
import pytest
import sympy as sp

from syzlab.algebra import (
    BigradedElement,
    FormElement,
    standard_symplectic_form,
    to_form,
    wedge_one_forms,
)
from syzlab.charts import Chart
from syzlab.fields import to_sympy
from syzlab.semiflat import (
    BetaStructure,
    CompatibilityError,
    action_coordinates,
    base_one_form_differential,
    base_potential,
    build_omega,
    closedness_residuals,
    flatness_probe,
    integrability_residual,
    omega_form,
    pointwise_checks,
    reglue_check,
    structure_equations,
    translate_by_section,
)

from conftest import sympy_beta, sympy_volume

I = sp.I


def integrability_residual_indexed(bs: BetaStructure):
    """Componentwise form of the integrability residual, as an independent oracle.

    Coefficient of dy_j ^ dy_k (x) d/dx_l, j < k:
    d(beta_lk)/dy_j - d(beta_lj)/dy_k
    - sum_i (d(beta_lk)/dx_i * beta_ij - d(beta_lj)/dx_i * beta_ik).
    """
    n, ys, xs, beta = bs.n, bs.chart.ys, bs.chart.xs, sympy_beta(bs)
    coeffs = {}
    for l in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                blk = beta[l - 1][k - 1]
                blj = beta[l - 1][j - 1]
                val = sp.diff(blk, ys[j - 1]) - sp.diff(blj, ys[k - 1])
                for i in range(1, n + 1):
                    val -= sp.diff(blk, xs[i - 1]) * beta[i - 1][j - 1]
                    val += sp.diff(blj, xs[i - 1]) * beta[i - 1][k - 1]
                coeffs[((j, k), (l,))] = sp.expand(val)
    return BigradedElement(bs.chart, coeffs)


def symplectic_pullback_defect(sigma, chart: Chart) -> FormElement:
    """T_sigma^* omega - omega for the standard symplectic form (oracle).

    Computed by honest pullback: omega = sum d(x_i) ^ d(y_i) with
    x_i -> x_i + sigma_i(y); the defect equals d(sigma) as a base 2-form.
    """
    sigma = [sp.sympify(s) for s in sigma]
    ys = chart.ys
    one_forms = []
    for i in range(chart.n):
        # d(x_i + sigma_i) expressed in generators
        form = {("x", i + 1): sp.Integer(1)}
        for j in range(chart.n):
            ds = sp.diff(sigma[i], ys[j])
            if ds != 0:
                form[("y", j + 1)] = ds
        one_forms.append(form)
    pulled = FormElement(chart)
    for i in range(chart.n):
        dyi = {("y", i + 1): sp.Integer(1)}
        pulled = pulled + wedge_one_forms(chart, [one_forms[i], dyi])
    return pulled - standard_symplectic_form(chart)


@pytest.fixture
def chart2():
    return Chart(2, ((-1, 1), (-1, 1)))


def flat(chart):
    n = chart.n
    return BetaStructure(chart, [[I if i == j else 0 for j in range(n)]
                                 for i in range(n)])


class TestBuildOmega:
    def test_flat_torus(self, chart2):
        bs = flat(chart2)
        assert to_sympy(bs.volume_node) == 1
        form = to_form(build_omega(bs))
        # (dx1 + i dy1) ^ (dx2 + i dy2)
        assert form.coefficient(dxs=(1, 2)) == 1
        assert form.coefficient(dys=(1,), dxs=(2,)) == I
        assert form.coefficient(dys=(2,), dxs=(1,)) == -I
        assert form.coefficient(dys=(1, 2)) == -1

    def test_volume_normalisation(self, chart2):
        bs = BetaStructure(chart2, [[2 * I, 0], [0, 2 * I]])
        assert to_sympy(bs.volume_node) == sp.Rational(1, 2)
        assert sp.expand(to_sympy(bs.volume_node) ** 2 * to_sympy(bs.det_node)) == 1

    def test_rejects_asymmetric(self, chart2):
        with pytest.raises(CompatibilityError):
            build_omega(BetaStructure(chart2, [[I, 1], [0, I]]))

    def test_rejects_indefinite_with_worst_point(self, chart2):
        y1 = chart2.ys[0]
        with pytest.raises(CompatibilityError) as err:
            build_omega(BetaStructure(chart2, [[I * y1, 0], [0, I]]))
        assert "min eigenvalue" in str(err.value)

    def test_matches_wedge_form(self, chart2):
        y2 = chart2.ys[1]
        bs = BetaStructure(chart2, [[y2 + 2 * I, I / 2], [I / 2, I]])
        assert (to_form(build_omega(bs)) - omega_form(bs)).sup_norm(3, 4) < 1e-12


class TestPointwise:
    def test_flat_all_zero(self, chart2):
        bs = flat(chart2)
        rep = pointwise_checks(bs)
        assert rep["symmetry"].value == 0
        assert rep.notes["min_imbeta_eigenvalue"] == pytest.approx(1.0)
        assert sp.expand(to_sympy(bs.volume_node) ** 2 * to_sympy(bs.det_node) - 1) == 0

    def test_constructed_asymmetry(self, chart2):
        y1 = chart2.ys[0]
        bs = BetaStructure(chart2, [[I, y1 + I * 0], [0, I]])
        rep = pointwise_checks(bs)
        assert rep["symmetry"].value == pytest.approx(1.0)  # sup |y1| on the box


class TestIntegrability:
    def test_constant_beta(self, chart2):
        bs = BetaStructure(chart2, [[2 * I, I], [I, 3 * I]])
        assert integrability_residual(bs).is_zero()

    def test_y_dependent_diagonal(self, chart2):
        y2 = chart2.ys[1]
        bs = BetaStructure(chart2, [[I * (1 + y2 ** 2), 0], [0, I]])
        res = integrability_residual(bs)
        assert res.coefficient(dys=(1, 2), dxs=(1,)) == -2 * I * y2
        assert res.sup_norm() > 0.1

    def test_indexed_oracle_agrees(self, chart2):
        y1, y2 = chart2.ys
        x1 = chart2.xs[0]
        bs = BetaStructure(chart2, [
            [y2 + I * (2 + sp.sin(2 * sp.pi * x1) / 2), I / 3],
            [I / 3, y1 ** 2 + I],
        ])
        lhs = integrability_residual(bs)
        rhs = integrability_residual_indexed(bs)
        assert (lhs - rhs).is_zero()

    def test_hessian_potential_is_integrable(self, chart2):
        y1, y2 = chart2.ys
        phi = (y1 ** 2 + y2 ** 2) / 2 + y1 ** 2 * y2 / 8
        hess = [[sp.diff(phi, a, b) for b in (y1, y2)] for a in (y1, y2)]
        bs = BetaStructure(chart2, [[I * hess[i][j] for j in range(2)]
                                    for i in range(2)])
        assert integrability_residual(bs).is_zero()


class TestClosedness:
    def test_one_dim_y_only_connection(self):
        chart = Chart(1, ((-1, 1),))
        y1 = chart.ys[0]
        bs = BetaStructure(chart, [[y1 ** 3 + 2 * I]])
        rep = closedness_residuals(bs)
        assert rep.verdict("full_closedness")
        assert rep.notes["equivalence_consistent"]

    def test_one_dim_varying_volume(self):
        chart = Chart(1, ((-1, 1),))
        y1 = chart.ys[0]
        bs = BetaStructure(chart, [[y1 + I * (1 + y1 ** 2)]])
        rep = closedness_residuals(bs)
        assert not rep.verdict("full_closedness")
        assert rep.notes["equivalence_consistent"]

    def test_flat_all_zero(self, chart2):
        rep = closedness_residuals(flat(chart2))
        assert all(c.value == 0 for c in rep.checks.values())


class TestStructureEquations:
    def test_flat(self, chart2):
        rep = structure_equations(flat(chart2))
        assert all(c.value == 0 for c in rep.checks.values())

    def test_curvature_case(self, chart2):
        y2 = chart2.ys[1]
        bs = BetaStructure(chart2, [[y2 + I, 0], [0, I]])
        rep = structure_equations(bs)
        assert rep["connection_curvature"].value == pytest.approx(1.0)
        assert rep["covariant_metric"].value == 0
        assert rep["fibre_harmonic"].value == 0
        assert rep["parallel_volume"].value == 0

    def test_varying_hessian_volume(self, chart2):
        y1, y2 = chart2.ys
        eps = sp.Rational(1, 20)
        phi = (y1 ** 2 + y2 ** 2) / 2 + eps * y1 ** 3
        hess = [[sp.diff(phi, a, b) for b in (y1, y2)] for a in (y1, y2)]
        bs = BetaStructure(chart2, [[I * hess[i][j] for j in range(2)]
                                    for i in range(2)])
        rep = structure_equations(bs)
        assert rep["parallel_volume"].value > 1e-2
        assert rep["connection_curvature"].value == 0

    def test_decomposition_matches_complex_residuals(self, chart2):
        """Real/imaginary parts of the complex residuals reproduce the four
        named ones coefficientwise."""
        from syzlab.algebra import BigradedElement, bracket, d_x_prime, d_y

        y1, y2 = chart2.ys
        x1 = chart2.xs[0]
        bs = BetaStructure(chart2, [
            [y2 + I * (2 + sp.sin(2 * sp.pi * x1) / 2), y1 + I / 3],
            [y1 + I / 3, I],
        ])
        beta = bs.beta_element()
        b, g = bs.b_element(), bs.g_inv_element()
        integ = d_y(beta) - bracket(beta, beta).scale(sp.Rational(1, 2))
        curv = d_y(b) - bracket(b, b).scale(sp.Rational(1, 2)) \
            + bracket(g, g).scale(sp.Rational(1, 2))
        cov = d_y(g) - bracket(b, g)
        recombined = curv + cov.scale(I)
        assert (integ - recombined).sup_norm(3, 4) < 1e-10


class TestEquivalenceSuite:
    def build_suite(self):
        """Regression structures spanning closed and non-closed, n = 1..3."""
        suite = []
        c1 = Chart(1, ((-1, 1),))
        y = c1.ys[0]
        suite.append(("n1 flat", BetaStructure(c1, [[I]])))
        suite.append(("n1 closed b", BetaStructure(c1, [[y ** 2 + 2 * I]])))
        suite.append(("n1 open", BetaStructure(c1, [[I * (1 + y ** 2)]])))
        c2 = Chart(2, ((-1, 1), (-1, 1)))
        y1, y2 = c2.ys
        x1 = c2.xs[0]
        suite.append(("n2 flat", BetaStructure(c2, [[I, 0], [0, I]])))
        suite.append(("n2 scaled", BetaStructure(c2, [[2 * I, 0], [0, 2 * I]])))
        suite.append(("n2 open diag", BetaStructure(
            c2, [[I * (1 + y2 ** 2), 0], [0, I]])))
        t = sp.Rational(1, 3)
        suite.append(("n2 mixed hessian", BetaStructure(
            c2, [[I, I * t], [I * t, I]])))
        suite.append(("n2 twisted", BetaStructure(
            c2, [[1 + I, t + I * t], [t + I * t, 2 + I]])))
        suite.append(("n2 curved connection", BetaStructure(
            c2, [[y2 + I, 0], [0, I]])))
        suite.append(("n2 fibre wobble", BetaStructure(
            c2, [[I * (2 + sp.sin(2 * sp.pi * x1) / 2), 0], [0, I]])))
        c3 = Chart(3, ((-1, 1),) * 3)
        z1, z2, z3 = c3.ys
        suite.append(("n3 flat", BetaStructure(
            c3, [[I, 0, 0], [0, I, 0], [0, 0, I]])))
        a = sp.Rational(1, 2)
        suite.append(("n3 constant mix", BetaStructure(
            c3, [[I, I * a, 0], [I * a, I, 0], [0, 0, I]])))
        suite.append(("n3 open", BetaStructure(
            c3, [[I * (1 + z3 ** 2), 0, 0], [0, I, 0], [0, 0, I]])))
        return suite

    def test_equivalence_of_verdicts(self):
        suite = self.build_suite()
        assert len(suite) >= 12
        for name, bs in suite:
            rep = closedness_residuals(bs, tol=1e-8)
            lhs = rep.verdict("full_closedness")
            rhs = rep.verdict("integrability") and rep.verdict("volume_divergence")
            assert lhs == rhs, name
            assert rep.notes["equivalence_consistent"], name


class TestTranslations:
    def test_identity_section(self, chart2):
        bs = flat(chart2)
        out = translate_by_section(bs, [0, 0])
        assert all(sp.expand(sympy_beta(out)[i][j] - sympy_beta(bs)[i][j]) == 0
                   for i in range(2) for j in range(2))

    def test_gradient_section_adds_hessian(self, chart2):
        y1, y2 = chart2.ys
        H = [[2 * I, I], [I, 3 * I]]
        bs = BetaStructure(chart2, H)
        F = y1 ** 2 / 2 + y1 * y2 / 3 + y2 ** 2 / 2
        sigma = [sp.diff(F, y1), sp.diff(F, y2)]
        out = translate_by_section(bs, sigma)
        hess = [[sp.diff(F, a, b) for b in (y1, y2)] for a in (y1, y2)]
        for i in range(2):
            for j in range(2):
                assert sp.expand(sympy_beta(out)[i][j] - H[i][j] - hess[i][j]) == 0
        assert closedness_residuals(out).verdict("full_closedness")

    def test_x_shift_moves_phases(self, chart2):
        x1 = chart2.xs[0]
        y1 = chart2.ys[0]
        bs = BetaStructure(chart2, [
            [I * (2 + sp.sin(2 * sp.pi * x1) / 2), 0], [0, I]])
        out = translate_by_section(bs, [y1, 0])
        # substitution shifts the phase; the section Jacobian adds 1
        expected = I * (2 + sp.sin(2 * sp.pi * (x1 + y1)) / 2) + 1
        assert sp.expand(sympy_beta(out)[0][0] - expected) == 0

    def test_closed_section_preserves_symplectic_form(self, chart2):
        y1, y2 = chart2.ys
        sigma = [sp.diff(y1 * y2, y1), sp.diff(y1 * y2, y2)]
        assert symplectic_pullback_defect(sigma, chart2).is_zero()

    def test_nonclosed_defect_is_exterior_derivative(self, chart2):
        y2 = chart2.ys[1]
        sigma = [y2, 0]
        defect = symplectic_pullback_defect(sigma, chart2)
        dsigma = base_one_form_differential(sigma, chart2)
        assert (defect - dsigma).is_zero()
        assert defect.coefficient(dys=(1, 2)) == -1

    def test_rejects_fibre_dependent_section(self, chart2):
        with pytest.raises(ValueError):
            translate_by_section(flat(chart2), [chart2.xs[0], 0])


class TestActionCoordinates:
    def test_identity_periods(self, chart2):
        u = action_coordinates([[1, 0], [0, 1]], chart2)
        assert [sp.expand(v) for v in u] == [chart2.ys[0], chart2.ys[1]]

    def test_product_potential(self):
        chart = Chart(2, ((1, 2), (1, 2)))
        y1, y2 = chart.ys
        u = action_coordinates([[y2, y1], [0, 1]], chart)
        assert sp.expand(u[0] - (y1 * y2 - sp.Rational(9, 4))) == 0

    def test_rejects_nonclosed(self, chart2):
        with pytest.raises(ValueError):
            action_coordinates([[chart2.ys[1], 0], [0, 1]], chart2)

    def test_closed_once_multiplied_out(self):
        """d(lambda) = (y1 + 1)^2 - (y1^2 + 2*y1 + 1) is zero only expanded."""
        chart = Chart(2, ((0.5, 1.5), (0.5, 1.5)))
        y1, y2 = chart.ys
        lam = [y2 * (y1 + 1) ** 2, y1 ** 3 / 3 + y1 ** 2 + y1]
        u = action_coordinates([lam, [0, 1]], chart)
        assert all(sp.expand(sp.diff(u[0], to_sympy(y)) - to_sympy(c)) == 0
                   for y, c in zip(chart.ys, lam))

    def test_rejects_degenerate(self, chart2):
        with pytest.raises(ValueError):
            action_coordinates([[chart2.ys[0], 0], [0, 1]], chart2)


def _potential_inputs(chart):
    """Closed base forms: gradients of scalars and differentials of one-forms
    with polynomial, sin and exp coefficients (degree n forms are closed too)."""
    ys = chart.ys
    y1, y2, yn = ys[0], ys[1], ys[-1]
    scalars = [y1 ** 2 * y2 - 3 * y2 * yn + y1, sp.sin(2 * y1 - y2) + y2 * sp.cos(yn),
               sp.exp(y1 + 3 * yn) / 5 + y1 * sp.exp(y2)]
    forms = []
    for f in scalars:
        for dys in [()] + [(k,) for k in range(1, chart.n + 1)]:
            forms.append(FormElement(chart, {(dys, ()): f}).exterior_derivative())
    if chart.n == 3:
        forms.append(FormElement(chart, {((1, 2, 3), ()): sp.exp(y1) * sp.sin(y2 * yn)}))
    return forms


class TestBasePotential:
    @pytest.mark.parametrize("n", [2, 3])
    def test_differential_of_potential_is_the_form(self, n):
        chart = Chart(n, ((-1, 2), (0, 1), (-3, -1))[:n])
        for form in _potential_inputs(chart):
            assert not form.is_zero() and form.exterior_derivative().is_zero()
            potential = base_potential(form)
            assert (potential.exterior_derivative() - form).is_zero(), form

    def test_symmetric_class_gauge(self, chart2):
        """The potentials of the antisymmetric parts of the symmetric-class
        test inputs, pinned as the earlier recursive gauge produced them."""
        chart3 = Chart(3, ((-1, 1),) * 3)
        y1, y2, y3 = chart3.ys
        cases = [
            (chart2, {}, [0, 0]),
            (chart2, {(1, 2): -1}, [0, -y1]),
            (chart2, {(1, 2): -y1}, [0, -y1 ** 2 / 2]),
            (chart3, {(1, 2): -y3, (2, 3): y1 - 1}, [0, -y1 * y3, -y2]),
        ]
        for chart, rho, expected in cases:
            form = FormElement(chart, {(key, ()): c for key, c in rho.items()})
            potential = base_potential(form)
            assert [potential.coefficient(dys=(j,)) for j in range(1, chart.n + 1)] == expected


class TestReglue:
    def test_gradient_cocycle_valid(self, chart2):
        y1, y2 = chart2.ys
        ok, transition = reglue_check([sp.diff(y1 * y2, y1), sp.diff(y1 * y2, y2)],
                                      chart2)
        assert ok and transition["kind"] == "fibre_translation"

    def test_nonclosed_invalid(self, chart2):
        ok, _ = reglue_check([chart2.ys[1], 0], chart2)
        assert not ok

    def test_constant_shift_valid(self, chart2):
        ok, transition = reglue_check([sp.Rational(1, 3), 2], chart2)
        assert ok
        assert transition["shift"] == ["1/3", "2"]


class TestFlatnessProbe:
    def test_constant_passes(self, chart2):
        rep = flatness_probe(flat(chart2))
        assert rep.notes["hypotheses_hold"]
        assert rep.notes["conclusion_holds"]

    def test_hypothesis_failure_makes_no_claim(self, chart2):
        x2 = chart2.xs[1]
        bs = BetaStructure(chart2, [
            [I * (2 + sp.sin(2 * sp.pi * x2) / 2), 0], [0, I]])
        rep = flatness_probe(bs)
        assert not rep.notes["hypotheses_hold"]
        assert rep.notes["conclusion_holds"] is None

    def test_hessian_closed_case(self, chart2):
        y1, y2 = chart2.ys
        t = sp.Rational(1, 4)
        phi = (y1 ** 2 + y2 ** 2) / 2 + t * y1 * y2
        hess = [[sp.diff(phi, a, b) for b in (y1, y2)] for a in (y1, y2)]
        bs = BetaStructure(chart2, [[I * hess[i][j] for j in range(2)]
                                    for i in range(2)])
        rep = flatness_probe(bs)
        assert rep.notes["hypotheses_hold"] and rep.notes["conclusion_holds"]


class TestCompatibilityOnce:
    BETA3 = [[{"re": "1/3", "im": "5/2"}, {"re": "-1/2", "im": "1/8"}, 0],
             [{"re": "-1/2", "im": "1/8"}, {"im": "3"}, {"re": "1/4"}],
             [0, {"re": "1/4"}, {"re": "-1", "im": "7/2"}]]

    @staticmethod
    def _walks(monkeypatch, doc):
        """The report of doc, and how many times beta's jets were walked."""
        from syzlab.scenarios import run_scenario_doc

        calls = []
        raw = BetaStructure._beta_jets

        def counted(self):
            calls.append(self)
            return raw(self)

        monkeypatch.setattr(BetaStructure, "_beta_jets", counted)
        return run_scenario_doc(doc), len(calls)

    def test_semiflat_scenario_computes_pointwise_once(self, monkeypatch):
        """pointwise_checks takes positivity and symmetry in one walk, and
        closedness_residuals its three residuals in a second; require_compatible
        and structure_equations read the table."""
        doc = {"version": "1", "kind": "semiflat-check", "payload": {
            "n": 3, "box": [[-1, 1]] * 3, "beta": self.BETA3}}
        report, walks = self._walks(monkeypatch, doc)
        assert report.passed
        assert walks == 2

    @pytest.mark.parametrize("demo, walks", [
        ("flat_torus", 2), ("hitchin_cubic", 2), ("yukawa_n2", 1), ("dualize_n2", 3)])
    def test_one_walk_per_sampling_request(self, demo, walks, monkeypatch):
        """yukawa samples only positivity; dualize walks the structure, then
        the dual's positivity with symmetry and its d(Omega)."""
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / f"{demo}.json"
        report, got = self._walks(monkeypatch, json.loads(path.read_text()))
        assert report.checks
        assert got == walks

    def test_cached_report_is_a_copy(self, chart2):
        bs = flat(chart2)
        first = pointwise_checks(bs)
        first.notes["min_imbeta_eigenvalue"] = -5.0
        first.checks.clear()
        again = pointwise_checks(bs)
        assert again.notes["min_imbeta_eigenvalue"] == pytest.approx(1.0)
        assert again.all_passed and "symmetry" in again.checks

    def test_samples_belong_to_one_structure(self, chart2):
        """A flat structure passes the volume divergence and one whose Im beta
        grows with y1 fails it; each keeps its own table of samples, so
        neither verdict reaches the other, in either order."""
        y1 = chart2.ys[0]
        bs = BetaStructure(chart2, [[I, 0], [0, I]])
        assert closedness_residuals(bs).verdict("volume_divergence")
        wrong = BetaStructure(chart2, [[I * (1 + y1 ** 2), 0], [0, I]])
        assert not closedness_residuals(wrong).verdict("volume_divergence")
        assert not closedness_residuals(wrong).verdict("volume_divergence")
        assert closedness_residuals(bs).verdict("volume_divergence")
        assert bs._samples["volume_divergence"] == 0
        assert wrong._samples["volume_divergence"] > 0.1

    def test_settings_are_part_of_the_key(self, chart2):
        y1 = chart2.ys[0]
        bs = BetaStructure(chart2, [[I, y1 / 1000], [0, I]])
        assert not pointwise_checks(bs).verdict("symmetry")
        assert pointwise_checks(bs, tol=1e-2).verdict("symmetry")
        assert not pointwise_checks(bs).verdict("symmetry")

    @pytest.mark.parametrize("seed_cache", [False, True])
    def test_incompatible_beta_raises_everywhere(self, chart2, seed_cache):
        from syzlab.duality import mclean_metrics

        x1 = chart2.xs[0]
        bs = BetaStructure(chart2, [[I * sp.sin(2 * sp.pi * x1), 0], [0, I]])
        if seed_cache:
            assert not pointwise_checks(bs).verdict("positivity")
        for entry in (closedness_residuals, structure_equations, mclean_metrics,
                      flatness_probe):
            with pytest.raises(CompatibilityError):
                entry(bs)


class TestOneEvaluatorPerReport:
    @staticmethod
    def structure(chart2):
        x1 = chart2.xs[0]
        y1, y2 = chart2.ys
        return BetaStructure(chart2, [[I * (3 + sp.sin(4 * sp.pi * x1) / 2), y2 / 5],
                                      [y2 / 5, I * (2 + y1 ** 2 / 3)]])

    def test_each_report_compiles_once(self, chart2, compile_calls):
        """The first report compiles the structure's one evaluator, of beta
        and its first partials; every later report samples through it."""
        bs = self.structure(chart2)
        pointwise_checks(bs)
        assert len(compile_calls) == 1
        for report in (closedness_residuals, structure_equations, flatness_probe):
            compile_calls.clear()
            rep = report(bs)
            assert not rep.all_passed
            assert compile_calls == [], report.__name__

    def test_structure_equations_after_closedness_compile_nothing(self, chart2,
                                                                  compile_calls):
        bs = self.structure(chart2)
        closedness_residuals(bs)
        compile_calls.clear()
        assert not structure_equations(bs).all_passed
        assert compile_calls == []

    def test_semiflat_scenario_builds_each_residual_once(self, monkeypatch, compile_calls):
        """pointwise, closedness and structure reports of one n = 2 scenario
        (one block of jets) build each closedness residual once and compile
        one evaluator, of beta and its first partials, which the eigenvalue
        check and the residuals share."""
        import syzlab.semiflat as semiflat
        from syzlab.scenarios import run_scenario_doc

        built = []
        for name in ("_connection_curvature", "_volume_divergence_residual", "_d_omega"):
            raw = getattr(semiflat, name)
            monkeypatch.setattr(semiflat, name, lambda *args, raw=raw, name=name:
                                built.append(name) or raw(*args))
        doc = {"version": "1", "kind": "semiflat-check", "payload": {
            "n": 2, "box": [[-1, 1], [-1, 1]],
            "beta": [[{"re": "y2/3", "im": "2+y1^2/4"}, {"im": "1/5"}],
                     [{"im": "1/5"}, {"im": "3+sin(2*pi*x1)/2"}]]}}
        run_scenario_doc(doc)
        assert sorted(built) == ["_connection_curvature", "_d_omega",
                                 "_volume_divergence_residual"]
        assert len(compile_calls) == 1

    def test_duality_builds_d_omega_once(self, chart2, monkeypatch):
        import syzlab.duality as duality
        import syzlab.semiflat as semiflat
        from syzlab.duality import CycleSpec, duality_identities, mclean_metrics

        built = []
        raw = semiflat._d_omega
        for module in (semiflat, duality):
            if getattr(module, "_d_omega", None) is raw:
                monkeypatch.setattr(module, "_d_omega",
                                    lambda *args: built.append(args) or raw(*args))
        bs = BetaStructure(chart2, [[2 * I, I / 3], [I / 3, 3 * I]])
        mclean_metrics(bs)
        duality_identities(bs, CycleSpec(1, (1, 0)), {2: 1})
        # one build, on the jets of this structure's one block of samples
        assert len(built) == 1 and built[0][0] == bs.chart


def _hand_structure_residuals(bs):
    """The four structure residuals from their componentwise formulas (oracle)."""
    from syzlab.algebra import bracket, d_y

    half = sp.Rational(1, 2)
    b, ginv = bs.b_element(), bs.g_inv_element()
    curv = d_y(b) - bracket(b, b).scale(half) + bracket(ginv, ginv).scale(half)
    covariant = d_y(ginv) - bracket(b, ginv)
    V, n = sympy_volume(bs), bs.n
    xs, ys = bs.chart.xs, bs.chart.ys
    b, g_inv = sympy_beta(bs, "re"), sympy_beta(bs, "im")
    harmonic = [sp.expand(sum(sp.diff(V * g_inv[i][j], xs[i]) for i in range(n)))
                for j in range(n)]
    parallel = [sp.expand(sp.diff(V, ys[j]) - sum(
        sp.diff(V * b[i][j], xs[i]) for i in range(n))) for j in range(n)]
    return {"connection_curvature": list(curv.terms.values()),
            "covariant_metric": list(covariant.terms.values()),
            "fibre_harmonic": harmonic,
            "parallel_volume": parallel}


class TestStructureEquationsAreViews:
    def test_values_match_hand_formulas_on_regression_suite(self):
        from syzlab.fields import sup_norms

        for name, bs in TestEquivalenceSuite().build_suite():
            rep = structure_equations(bs)
            oracle = _hand_structure_residuals(bs)
            expect = dict(zip(oracle, sup_norms(oracle.values(), bs.chart)))
            assert set(rep.checks) == set(expect), name
            for check, value in expect.items():
                assert rep[check].value == pytest.approx(value, rel=1e-12, abs=1e-14), \
                    (name, check)

    def test_structure_equations_derive_nothing_of_their_own(self):
        import ast
        import inspect

        import syzlab.semiflat as semiflat

        def calls(fn):
            tree = ast.parse(inspect.getsource(fn))
            return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Name, ast.Attribute))}

        made = calls(semiflat.structure_equations)
        assert not made & {"bracket", "diff", "real_imag", "sup_norms"}
        assert "_sampled" in made
        assert not hasattr(semiflat, "_volume_parts")

    def test_duality_reads_omega_from_semiflat(self):
        import syzlab.duality as duality

        assert not {"to_form", "build_omega"} & set(vars(duality))

    @pytest.mark.parametrize("kind, payload, dets", [
        # the semi-flat residuals are sampled from jets, and dualize and
        # hitchin take det gInv as a node: no symbolic det gInv at all
        ("semiflat-check", {"beta": [[{"re": "y2/3", "im": "2+y1^2/4"}, {"im": "1/5"}],
                                     [{"im": "1/5"}, {"im": "3+sin(2*pi*x1)/2"}]]}, 0),
        ("dualize", {"beta": [[{"re": "1/2", "im": "2"}, {"im": "1/5"}],
                              [{"im": "1/5"}, {"im": "3"}]]}, 0),
        ("hitchin", {"potential": "(y1^2 + y2^2)/2 + y1^3/10"}, 0),
    ])
    def test_one_determinant_per_structure(self, monkeypatch, kind, payload, dets):
        from syzlab.scenarios import run_scenario_doc

        calls = []
        raw = sp.Matrix.det

        def counted(self, *args, **kwargs):
            calls.append(self.shape)
            return raw(self, *args, **kwargs)

        monkeypatch.setattr(sp.Matrix, "det", counted)
        doc = {"version": "1", "kind": kind,
               "payload": {"n": 2, "box": [[-1, 1], [-1, 1]], **payload}}
        run_scenario_doc(doc)
        assert len(calls) == dets

    def test_singular_structure_constructs(self, chart2):
        y1 = chart2.ys[0]
        bs = BetaStructure(chart2, [[I * y1 ** 2, 0], [0, I]])
        with pytest.raises(CompatibilityError):
            structure_equations(bs)

    def test_singular_volume_is_a_compatibility_failure(self, chart2):
        """det Im beta is identically 0: V has no value, and omega_form says
        so as the compatibility failure it is."""
        y1 = chart2.ys[0]
        bs = BetaStructure(chart2, [[I * y1 ** 2, 0], [0, 0]])
        with pytest.raises(CompatibilityError, match="det Im"):
            omega_form(bs)
