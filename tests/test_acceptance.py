"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and match the library defaults.
"""

import random
import time

import numpy as np
import pytest
import sympy as sp

from syzlab.charts import Chart
from syzlab.algebra import (
    BigradedElement,
    bracket,
    d_x,
    d_x_prime,
    d_y,
    decomposable_form,
    exp_nilpotent,
    phi2,
    phi3,
    to_form,
    vector_field_bracket,
)
from syzlab.semiflat import (
    BetaStructure,
    closedness_residuals,
    structure_equations,
    translate_by_section,
)
from syzlab.duality import (
    CycleSpec,
    HitchinPotential,
    SymTensorField,
    YukawaFamily,
    dual_structure_check,
    duality_identities,
    hitchin,
    yukawa,
)

from conftest import chart_of_dim, grid_rows, lambdify_values, sympy_beta, sympy_volume

I = sp.I


def report(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{criterion}] {tag} {detail}")
    assert passed, f"{criterion} failed: {detail}"


def _grid_for(n):
    # at least 100 deterministic sample points per dimension
    return {1: (10, 10), 2: (4, 3), 3: (2, 3)}[n]


def _sup(element, n):
    base_k, fibre_k = _grid_for(n)
    return element.sup_norm(base_k, fibre_k)


def _rand_term(chart, rng, bidegree=None):
    n = chart.n
    if bidegree is None:
        jset = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        iset = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
    else:
        p, q = bidegree
        jset = tuple(sorted(rng.sample(range(1, n + 1), q)))
        iset = tuple(sorted(rng.sample(range(1, n + 1), -p)))
    ys, xs = chart.ys, chart.xs
    coeffs = [
        sp.Rational(rng.randint(-3, 3)),
        ys[rng.randrange(n)],
        sp.sin(2 * sp.pi * xs[rng.randrange(n)]),
        ys[rng.randrange(n)] * sp.cos(2 * sp.pi * xs[rng.randrange(n)]),
    ]
    coeff = coeffs[rng.randrange(len(coeffs))]
    if coeff == 0:
        coeff = sp.Rational(1, 2)
    return BigradedElement.term(chart, coeff, dys=jset, dxs=iset)


def _deg_sign(a, b):
    (pa, qa), = a.bidegrees()
    (pb, qb), = b.bidegrees()
    return (-1) ** (pa * pb + qa * qb)


def test_criterion_01_graded_calculus_suite():
    """Product rules, operator orders, square-zero, and the bracket formula
    on >= 50 randomised inputs per dimension, residuals < 1e-10."""
    t0 = time.monotonic()
    tol = 1e-10
    worst = 0.0
    rng = random.Random(2024)
    for n in (1, 2, 3):
        chart = chart_of_dim(n)
        for _ in range(50):
            a = _rand_term(chart, rng)
            b = _rand_term(chart, rng)
            c = _rand_term(chart, rng)
            if a.is_zero() or b.is_zero() or c.is_zero():
                continue
            sign_ab = _deg_sign(a, b)
            # fibre-operator product rule with bracket defect
            res = d_x_prime(a * b) - bracket(a, b) - d_x_prime(a) * b \
                - (d_x_prime(b) * a).scale(sign_ab)
            worst = max(worst, _sup(res, n))
            # bracket is a derivation in its second slot
            sign_bc = _deg_sign(b, c)
            res = bracket(a, b * c) - bracket(a, b) * c \
                - (bracket(a, c) * b).scale(sign_bc)
            worst = max(worst, _sup(res, n))
            # base-operator product rule
            res = d_y(a * b) - d_y(a) * b - (d_y(b) * a).scale(sign_ab)
            worst = max(worst, _sup(res, n))
            # operator orders
            worst = max(worst, _sup(phi3(d_x_prime, a, b, c), n))
            worst = max(worst, _sup(phi2(d_y, a, b), n))
            # differentials square to zero and anticommute
            worst = max(worst, _sup(d_x(d_x(a)), n))
            worst = max(worst, _sup(d_y(d_y(a)), n))
            worst = max(worst, _sup(d_x(d_y(a)) + d_y(d_x(a)), n))
            # the transported differential matches the exterior derivative
            base_k, fibre_k = _grid_for(n)
            oracle_gap = (to_form(d_x(a) + d_y(a))
                          - to_form(a).exterior_derivative())
            worst = max(worst, oracle_gap.sup_norm(base_k, fibre_k))
            # bracket matches the vector-field formula on (-1, 1) terms
            u = _rand_term(chart, rng, bidegree=(-1, 1))
            v = _rand_term(chart, rng, bidegree=(-1, 1))
            diff = bracket(u, v) - vector_field_bracket(u, v)
            if not diff.is_zero():
                worst = max(worst, _sup(diff, n))
    elapsed = time.monotonic() - t0
    report("AC-01 graded calculus",
           worst < tol and elapsed < 60.0,
           f"max residual {worst:.2e} (tol 1e-10), {elapsed:.1f}s (< 60s)")


def test_criterion_02_exponential_matches_wedge():
    """to_form(exp(beta)) equals the direct wedge expansion exactly for
    rational-polynomial matrices, n <= 3."""
    rng = random.Random(7)
    exact = True
    for n in (1, 2, 3):
        chart = chart_of_dim(n)
        ys = chart.ys
        for _ in range(8):
            matrix = [[sp.Rational(rng.randint(-3, 3), rng.randint(1, 4))
                       + sp.Rational(rng.randint(-2, 2))
                       * ys[rng.randrange(n)] ** rng.randint(1, 2)
                       + I * sp.Rational(rng.randint(-2, 2))
                       * (1 + ys[rng.randrange(n)])
                       for _ in range(n)] for _ in range(n)]
            beta = BigradedElement.from_matrix(chart, matrix)
            diff = to_form(exp_nilpotent(beta)) - decomposable_form(chart, matrix)
            exact &= diff.is_zero()
    report("AC-02 exponential vs wedge", exact, "coefficientwise exact")


def _regression_suite():
    suite = []
    c1 = Chart(1, ((-1, 1),))
    y = c1.ys[0]
    suite += [BetaStructure(c1, [[I]]),
              BetaStructure(c1, [[y ** 2 + 2 * I]]),
              BetaStructure(c1, [[I * (1 + y ** 2)]])]
    c2 = Chart(2, ((-1, 1), (-1, 1)))
    y1, y2 = c2.ys
    x1 = c2.xs[0]
    t = sp.Rational(1, 3)
    suite += [
        BetaStructure(c2, [[I, 0], [0, I]]),
        BetaStructure(c2, [[2 * I, 0], [0, 2 * I]]),
        BetaStructure(c2, [[I * (1 + y2 ** 2), 0], [0, I]]),
        BetaStructure(c2, [[I, I * t], [I * t, I]]),
        BetaStructure(c2, [[1 + I, t + I * t], [t + I * t, 2 + I]]),
        BetaStructure(c2, [[y2 + I, 0], [0, I]]),
        BetaStructure(c2, [[I * (2 + sp.sin(2 * sp.pi * x1) / 2), 0], [0, I]]),
    ]
    c3 = Chart(3, ((-1, 1),) * 3)
    z3 = c3.ys[2]
    a = sp.Rational(1, 2)
    suite += [
        BetaStructure(c3, [[I, 0, 0], [0, I, 0], [0, 0, I]]),
        BetaStructure(c3, [[I, I * a, 0], [I * a, I, 0], [0, 0, I]]),
        BetaStructure(c3, [[I * (1 + z3 ** 2), 0, 0], [0, I, 0], [0, 0, I]]),
    ]
    return suite


def test_criterion_03_closedness_equivalence():
    """Closedness verdict equals integrability + divergence verdict on the
    regression suite; real/imaginary split matches < 1e-10."""
    suite = _regression_suite()
    assert len(suite) >= 12
    tol = 1e-8
    equiv_ok = True
    split_worst = 0.0
    for bs in suite:
        rep = closedness_residuals(bs, tol=tol)
        lhs = rep.verdict("full_closedness")
        rhs = rep.verdict("integrability") and rep.verdict("volume_divergence")
        equiv_ok &= (lhs == rhs)
        # complex residuals recombine from the named real/imaginary parts
        beta_el = bs.beta_element()
        b_el, g_el = bs.b_element(), bs.g_inv_element()
        integ = d_y(beta_el) - bracket(beta_el, beta_el).scale(sp.Rational(1, 2))
        curv = d_y(b_el) - bracket(b_el, b_el).scale(sp.Rational(1, 2)) \
            + bracket(g_el, g_el).scale(sp.Rational(1, 2))
        cov = d_y(g_el) - bracket(b_el, g_el)
        split_worst = max(split_worst,
                          (integ - curv - cov.scale(I)).sup_norm(3, 4))
        V = sympy_volume(bs)
        beta, b, g_inv = sympy_beta(bs), sympy_beta(bs, "re"), sympy_beta(bs, "im")
        xs, ys = bs.chart.xs, bs.chart.ys
        n = bs.n
        for j in range(n):
            cj = sp.expand(sp.diff(V, ys[j]) - sum(
                sp.diff(V * beta[i][j], xs[i]) for i in range(n)))
            parallel = sp.expand(sp.diff(V, ys[j]) - sum(
                sp.diff(V * b[i][j], xs[i]) for i in range(n)))
            harmonic = sp.expand(sum(
                sp.diff(V * g_inv[i][j], xs[i]) for i in range(n)))
            re_c, im_c = cj.as_real_imag()
            # as_real_imag writes Abs and atan2, which sympy's lambdify evaluates
            Y, X = grid_rows(bs.chart, 3, 4)
            split = lambdify_values([re_c - parallel, im_c + harmonic], bs.chart, Y, X)
            split_worst = max(split_worst, float(np.max(np.abs(split))))
    report("AC-03 closedness equivalence",
           equiv_ok and split_worst < 1e-10,
           f"{len(suite)} structures, split residual {split_worst:.2e}")


def test_criterion_04_hitchin_criterion():
    chart = Chart(2, ((-1, 1), (-1, 1)))
    y1, y2 = chart.ys
    t = sp.Rational(1, 2)
    phi_flat = (y1 ** 2 + y2 ** 2) / 2 + t * y1 * y2
    _, info_flat = hitchin(HitchinPotential(chart, phi_flat))
    closed_val = info_flat["closedness"]["full_closedness"].value

    phi_cubic = (y1 ** 2 + y2 ** 2) / 2 + y1 ** 3 / 10
    _, info_cubic = hitchin(HitchinPotential(chart, phi_cubic))
    cubic_val = info_cubic["closedness"]["full_closedness"].value

    phi0 = (y1 ** 2 + y2 ** 2) / 2 + sp.Rational(1, 5) * y1 * y2
    F = y1 ** 2 / 2 + y1 * y2 / 3 + y2 ** 2 / 4
    hess = [[sp.diff(F, a, b) for b in (y1, y2)] for a in (y1, y2)]
    twisted, _ = hitchin(HitchinPotential(chart, phi0),
                         SymTensorField(chart, hess))
    translated = translate_by_section(
        hitchin(HitchinPotential(chart, phi0))[0],
        [sp.diff(F, y1), sp.diff(F, y2)])
    twisted, translated = sympy_beta(twisted), sympy_beta(translated)
    twist_defect = max(
        abs(complex(sp.expand(twisted[i][j] - translated[i][j])))
        for i in range(2) for j in range(2))
    ok = closed_val < 1e-9 and cubic_val > 1e-3 and twist_defect < 1e-10
    report("AC-04 potential criterion", ok,
           f"closed {closed_val:.1e} < 1e-9, cubic {cubic_val:.1e} > 1e-3, "
           f"twist {twist_defect:.1e} < 1e-10")


def test_criterion_05_duality_identities():
    tol = 1e-8
    worst_pairing = 0.0
    worst_embedding = 0.0
    cases = []
    c2 = Chart(2, ((-1, 1), (-1, 1)))
    cases.append(BetaStructure(c2, [[I, 0], [0, I]]))
    cases.append(BetaStructure(c2, [[2 * I, 0], [0, 3 * I]]))
    for bs in cases:
        for cyc, alpha in [
            (CycleSpec(1, (1, 0)), {1: sp.Integer(1)}),
            (CycleSpec(1, (0, 1)), {1: sp.Integer(1), 2: sp.Integer(1)}),
            (CycleSpec(1, (1, -1)), {2: sp.Integer(1)}),
        ]:
            rep = duality_identities(bs, cyc, alpha)
            worst_pairing = max(worst_pairing, rep["cycle_vs_fibre_pairing"].value)
            worst_embedding = max(worst_embedding,
                                  rep["period_vs_metric_embedding"].value)
    dual_flat = dual_structure_check(cases[0])
    dual_diag = dual_structure_check(cases[1])
    metric_match = max(dual_flat["dual_metric_match"].value,
                       dual_diag["dual_metric_match"].value)
    reciprocity = max(dual_flat["volume_reciprocity"].value,
                      dual_diag["volume_reciprocity"].value)
    ok = (worst_pairing < tol and worst_embedding < tol
          and metric_match < tol and reciprocity < 1e-10)
    report("AC-05 duality identities", ok,
           f"pairing {worst_pairing:.1e}, embedding {worst_embedding:.1e}, "
           f"metric {metric_match:.1e}, reciprocity {reciprocity:.1e}")


def test_criterion_06_coupling_integral():
    t0 = time.monotonic()
    rel_worst = 0.0
    c2 = Chart(2, ((-1, 1), (-1, 1)))
    flat2 = BetaStructure(c2, [[I, 0], [0, I]])
    fam2 = YukawaFamily(flat2, [
        [[1, 0], [0, 0]],
        [[0, sp.Rational(1, 2)], [sp.Rational(1, 2), 1]],
    ])
    value, oracle = yukawa(fam2)
    rel_worst = max(rel_worst, abs(value - oracle) / max(abs(oracle), 1.0))

    c3 = Chart(3, ((-1, 1),) * 3)
    flat3 = BetaStructure(c3, [[I, 0, 0], [0, I, 0], [0, 0, I]])
    fam3 = YukawaFamily(flat3, [
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, sp.Rational(1, 3)], [0, 0, 0], [sp.Rational(1, 3), 0, 2]],
    ])
    value, oracle = yukawa(fam3, resolution=8, base_resolution=4)
    rel_worst = max(rel_worst, abs(value - oracle) / max(abs(oracle), 1.0))
    elapsed = time.monotonic() - t0
    report("AC-06 coupling integral",
           rel_worst < 1e-8 and elapsed < 120.0,
           f"relative error {rel_worst:.2e}, {elapsed:.1f}s (< 120s)")


def test_criterion_07_fibre_models():
    from syzlab.fibre_models import MODEL_TABLE, fibre_type_report, model_cohomology

    t0 = time.monotonic()
    rep = fibre_type_report()
    sphere = model_cohomology("M00")
    sphere_ok = sphere.ranks == [1, 0, 0, 1] and all(not t for t in sphere.torsion)
    elapsed = time.monotonic() - t0
    ok = rep["expected_match"] and rep["pairing_ok"] and sphere_ok and elapsed < 60
    types = {row["model"]: row["type"] for row in rep["rows"]}
    report("AC-07 fibre models", ok, f"{types}, {elapsed:.1f}s (< 60s)")


def test_criterion_08_local_systems():
    from syzlab.k3 import basis_vector, k3_lattice, sublattice_quotient
    from syzlab.sheaf import LocalSystemOnSphere, euler_characteristic, pushforward_cohomology
    from test_sheaf import random_system, twenty_four_nodal_system

    triv = pushforward_cohomology(LocalSystemOnSphere(1, [[[1]], [[1]], [[1]]]))
    trivial_ok = triv.ranks == (1, 0, 1)

    push = pushforward_cohomology(twenty_four_nodal_system())
    nodal_ok = push.ranks == (0, 20, 0) and push.groups[1][1] == []

    quotient, _ = sublattice_quotient(k3_lattice(), basis_vector(22, 0))
    lattice_ok = quotient.rank == push.ranks[1] == 20

    rng = random.Random(55)
    euler_ok = True
    for _ in range(20):
        system = random_system(rng)
        groups = pushforward_cohomology(system)
        chi = groups.ranks[0] - groups.ranks[1] + groups.ranks[2]
        euler_ok &= chi == euler_characteristic(system)
    ok = trivial_ok and nodal_ok and lattice_ok and euler_ok
    report("AC-08 local systems", ok,
           f"trivial {triv.ranks}, nodal {push.ranks}, quotient rank {quotient.rank}")


def test_criterion_09_torsion_duality():
    import copy

    from syzlab.sheaf import E2Table, duality_checks
    from test_sheaf import consistent_pair

    rng = random.Random(99)
    menu = [(), (2,), (3,), (2, 2), (2, 4), (5,), (6,)]
    pass_ok = True
    fail_ok = True
    for _ in range(10):
        table, dual = consistent_pair(
            h11=rng.randint(1, 8), h12=rng.randint(1, 8),
            t11=rng.choice(menu), t21=rng.choice(menu), t20=rng.choice(menu[:3]))
        pass_ok &= duality_checks(table, dual)["all_passed"]
        for (i, j) in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (2, 0), (2, 3)]:
            grid = copy.deepcopy(table.grid)
            rank_, tors = grid[j][i]
            grid[j][i] = (rank_, tuple(list(tors) + [7]))
            fail_ok &= not duality_checks(E2Table(3, grid), dual)["all_passed"]
    report("AC-09 torsion duality", pass_ok and fail_ok,
           "10 consistent pairs pass; every single-entry perturbation fails")


def test_criterion_10_k3_mirror_map():
    from syzlab.k3 import double_mirror_check, mirror_classes, validate_and_align
    from test_k3 import U3, full_input, random_valid_input

    rng = random.Random(4242)
    identities_ok = True
    for _ in range(100):
        inp = validate_and_align(random_valid_input(rng))
        mc = mirror_classes(inp)
        identities_ok &= all(mc.identities.values())
        identities_ok &= sp.expand(mc.vol * mc.vol_mirror - 1) == 0

    double_ok = double_mirror_check(full_input())["all_passed"]
    double_ok &= double_mirror_check(full_input(B=(0, 0, 1, -1, 0, 0)))["all_passed"]

    # canonical-coordinate identities, once, through the chart calculus
    from syzlab.algebra import standard_symplectic_form, wedge_one_forms, FormElement

    chart = Chart(2, ((-1, 1), (-1, 1)))
    dw = {("x", 1): sp.Integer(1), ("x", 2): I}
    dz = {("y", 1): sp.Integer(1), ("y", 2): -I}
    omega_c = wedge_one_forms(chart, [dw, dz])
    re, im = omega_c.real_imag()
    relabeled = FormElement(chart)
    for (jset, kset), coeff in standard_symplectic_form(chart).terms.items():
        sign = -1 if 2 in jset else 1
        new_k = tuple(sorted({1: 2, 2: 1}[k] for k in kset))
        relabeled.add_term(jset, new_k, sign * coeff)
    canonical_ok = (relabeled - im).is_zero()
    canonical_ok &= re.coefficient(dys=(1,), dxs=(1,)) == -1
    canonical_ok &= re.coefficient(dys=(2,), dxs=(2,)) == -1

    ok = identities_ok and double_ok and canonical_ok
    report("AC-10 mirror map", ok,
           "100 exact randomised inputs; double mirror exact; "
           "canonical-form identities hold")
