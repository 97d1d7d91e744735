import copy
import json
import random
from pathlib import Path

import pytest

from syzlab import intlinalg, sheaf
from syzlab.intlinalg import identity, invert_unimodular, kernel_basis, mat_mul
from syzlab.scenarios import run_scenario_doc
from syzlab.sheaf import (
    E2Table,
    LocalSystemError,
    LocalSystemOnSphere,
    dual_table,
    duality_checks,
    e2_assemble,
    euler_characteristic,
    pushforward_cohomology,
)

UNIPOTENT = [[1, 1], [0, 1]]
UNIPOTENT_CONJ = [[1, 0], [-1, 1]]


def twenty_four_nodal_system():
    mats = []
    for _ in range(12):
        mats += [UNIPOTENT, UNIPOTENT_CONJ]
    return LocalSystemOnSphere(2, mats)


def random_system(rng, max_rank=3, max_punctures=5):
    m = rng.randint(1, max_rank)
    k = rng.randint(2, max_punctures)

    def rand_glx():
        t = identity(m)
        for _ in range(4):
            if m == 1:
                break
            i, j = rng.sample(range(m), 2)
            e = identity(m)
            e[i][j] = rng.randint(-2, 2)
            t = mat_mul(t, e)
        return t

    mats = [rand_glx() for _ in range(k - 1)]
    prod = identity(m)
    for t in mats:
        prod = mat_mul(t, prod)
    mats.append(invert_unimodular(prod))
    return LocalSystemOnSphere(m, mats)


class TestValidation:
    def test_relation_enforced(self):
        with pytest.raises(LocalSystemError):
            LocalSystemOnSphere(2, [UNIPOTENT, UNIPOTENT])

    def test_invertibility_enforced(self):
        with pytest.raises(LocalSystemError):
            LocalSystemOnSphere(1, [[[2]], [[1]]])

    def test_shape_enforced(self):
        with pytest.raises(LocalSystemError):
            LocalSystemOnSphere(2, [[[1, 0]], [[1, 0], [0, 1]]])

    def test_entries_are_integers(self):
        """A non-integral entry is an error naming it, not truncated (to the
        unipotent pair, whose ranks are (1, 0, 1)); 1.0 is the integer 1."""
        with pytest.raises(LocalSystemError,
                           match=r"monodromy 0 entry \[0\]\[1\] = 1.5 is not an integer"):
            LocalSystemOnSphere(2, [[[1, 1.5], [0, 1]], [[1, -1], [0, 1]]])
        system = LocalSystemOnSphere(2, [[[1, 1.0], [0, 1]], [[1, -1.0], [0, 1.0]]])
        assert system.monodromies == [[[1, 1], [0, 1]], [[1, -1], [0, 1]]]
        assert all(type(x) is int for t in system.monodromies for row in t for x in row)


class TestPushforward:
    def test_trivial_system(self):
        system = LocalSystemOnSphere(1, [[[1]], [[1]], [[1]]])
        push = pushforward_cohomology(system)
        assert push.ranks == (1, 0, 1)
        assert euler_characteristic(system) == 2

    def test_twenty_four_nodal_fibres(self):
        system = twenty_four_nodal_system()
        push = pushforward_cohomology(system)
        assert push.ranks == (0, 20, 0)
        assert push.groups[1][1] == []
        assert euler_characteristic(system) == -20

    def test_inverse_pair(self):
        inverse = [[1, -1], [0, 1]]
        system = LocalSystemOnSphere(2, [UNIPOTENT, inverse])
        push = pushforward_cohomology(system)
        assert push.ranks[0] == 1
        assert push.ranks[0] - push.ranks[1] + push.ranks[2] == 2

    def test_euler_identity_randomised(self):
        rng = random.Random(13)
        for _ in range(20):
            system = random_system(rng)
            push = pushforward_cohomology(system)
            chi = push.ranks[0] - push.ranks[1] + push.ranks[2]
            assert chi == euler_characteristic(system)

    def test_h0_is_invariant_sublattice_rank(self):
        rng = random.Random(17)
        for _ in range(10):
            system = random_system(rng)
            push = pushforward_cohomology(system)
            stacked = [[v - (i == j) for j, v in enumerate(row)]
                       for t in system.monodromies for i, row in enumerate(t)]
            assert push.ranks[0] == len(kernel_basis(stacked))

    def test_conjugation_invariance(self):
        rng = random.Random(19)
        for _ in range(8):
            system = random_system(rng, max_rank=2)
            m = system.rank
            p = identity(m)
            if m > 1:
                p[0][1] = 2
            pinv = invert_unimodular(p)
            conj = [mat_mul(mat_mul(p, t), pinv) for t in system.monodromies]
            other = pushforward_cohomology(LocalSystemOnSphere(m, conj))
            assert other.groups == pushforward_cohomology(system).groups


class TestComputeOnce:
    def test_sheaf_scenario_computes_pushforward_once(self, monkeypatch):
        calls = []
        original = sheaf._prefix_weights

        def counting(mats, m):
            calls.append(len(mats))
            return original(mats, m)

        monkeypatch.setattr(sheaf, "_prefix_weights", counting)
        mats = [UNIPOTENT, UNIPOTENT_CONJ] * 12
        doc = {"version": "1", "kind": "sheaf",
               "payload": {"rank": 2, "monodromy": mats, "expected_ranks": [0, 20, 0]}}
        report = run_scenario_doc(doc)
        assert all(c["passed"] for c in report.checks)
        assert report.outputs["e2_table"][1][1] == {"rank": 20, "torsion": []}
        assert calls == [24]

    def test_one_smith_diagonal_per_differential(self, monkeypatch):
        """Past the 2 x 2 stalks, the 24-puncture system costs two unit-pivot
        reductions, one per glued differential.  Both leave nothing, so the
        dense Smith form runs on neither."""
        path = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "sheaf_24I1.json"
        payload = json.loads(path.read_text())
        system = LocalSystemOnSphere(payload["rank"], payload["monodromy"])
        reductions, forms = [], []
        reduce, form = intlinalg._eliminate_units, intlinalg.smith_normal_form

        def counted_reduce(columns, nrows):
            pivots, rest = reduce(columns, nrows)
            reductions.append((nrows, len(columns), pivots, rest))
            return pivots, rest

        def counted_form(matrix, *, transforms=True):
            forms.append((len(matrix), len(matrix[0]) if matrix else 0, transforms))
            return form(matrix, transforms=transforms)

        monkeypatch.setattr(intlinalg, "_eliminate_units", counted_reduce)
        monkeypatch.setattr(intlinalg, "smith_normal_form", counted_form)
        groups = pushforward_cohomology(system).groups
        # d0 injective and d1 onto: H^0 = 26 - 26, H^1 = 94 - 26 - 48, H^2 = 0
        assert sorted(r for r in reductions if r[:2] != (2, 2)) == [
            (48, 94, 48, []), (94, 26, 26, [])]
        assert [f for f in forms if f[:2] != (2, 2)] == []
        assert groups == [(0, []), (20, []), (0, [])]

    def test_cached_result_is_a_copy(self):
        system = LocalSystemOnSphere(1, [[[-1]], [[-1]]])
        first = pushforward_cohomology(system)
        expected = [(r, list(t)) for r, t in first.groups]
        first.groups[1][1].append(99)
        first.groups.append((5, []))
        assert pushforward_cohomology(system).groups == expected

    def test_euler_from_ranks_matches_kernels(self):
        rng = random.Random(29)
        for _ in range(15):
            system = random_system(rng)
            m = system.rank
            via_kernels = 2 * m - sum(
                m - len(kernel_basis([[t[i][j] - (i == j) for j in range(m)]
                                      for i in range(m)]))
                for t in system.monodromies)
            assert euler_characteristic(system) == via_kernels

    def test_unimodularity_by_smith_form(self):
        swap = [[0, 1], [1, 0]]  # determinant -1 is invertible over Z
        assert pushforward_cohomology(LocalSystemOnSphere(2, [swap, swap])).ranks[0] == 1
        with pytest.raises(LocalSystemError, match="invertible"):
            LocalSystemOnSphere(2, [[[1, 1], [1, 4]], [[1, 1], [1, 4]]])


class TestE2Assembly:
    def test_k3_table(self):
        table = e2_assemble("S2", twenty_four_nodal_system())
        assert table.entry(1, 1) == (20, ())
        assert table.entry(0, 0) == (1, ())
        table.validate()

    def test_abstract_threefold(self):
        table = e2_assemble("abstract-n3", {"h11": 3, "h12": 3})
        table.validate()
        assert table.rank(1, 1) == table.rank(2, 2) == 3

    def test_pattern_rejection(self):
        table = e2_assemble("abstract-n3", {"h11": 2, "h12": 5})
        grid = copy.deepcopy(table.grid)
        grid[3][2] = (1, ())  # a free part where only torsion may sit
        with pytest.raises(LocalSystemError):
            E2Table(3, grid).validate()


def consistent_pair(h11=3, h12=5, t11=(2,), t21=(3,), t20=()):
    inputs = {
        "h11": h11, "h12": h12,
        "torsion": {
            "T11": list(t11), "T32": list(t11),
            "T12": [], "T31": [],
            "T21": list(t21), "T22": list(t21),
            "T20": list(t20), "T23": list(t20),
        },
    }
    table = e2_assemble("abstract-n3", inputs)
    return table, dual_table(table)


class TestDualityCheckers:
    def test_torsion_free_pair(self):
        table, dual = consistent_pair(t11=(), t21=())
        assert duality_checks(table, dual)["all_passed"]

    def test_torsion_pair(self):
        table, dual = consistent_pair()
        out = duality_checks(table, dual)
        assert out["all_passed"]

    def test_each_relation_detected(self):
        table, dual = consistent_pair()
        perturbed = copy.deepcopy(table.grid)
        perturbed[2][2] = (perturbed[2][2][0], (9,))
        bad = E2Table(3, perturbed)
        out = duality_checks(bad, dual)
        assert not out["torsion_T21_T22"]
        assert not out["all_passed"]

    def test_synthetic_sweep(self):
        rng = random.Random(23)
        torsion_menu = [(), (2,), (3,), (2, 2), (2, 4), (5,)]
        for _ in range(10):
            table, dual = consistent_pair(
                h11=rng.randint(1, 6), h12=rng.randint(1, 6),
                t11=rng.choice(torsion_menu), t21=rng.choice(torsion_menu),
                t20=rng.choice(torsion_menu[:3]))
            assert duality_checks(table, dual)["all_passed"]
            # perturb one torsion slot and require a failure
            slots = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (2, 0), (2, 3)]
            i, j = rng.choice(slots)
            grid = copy.deepcopy(table.grid)
            rank_, tors = grid[j][i]
            grid[j][i] = (rank_, tuple(list(tors) + [7]))
            assert not duality_checks(E2Table(3, grid), dual)["all_passed"]


def test_e2_corner_check_always_runs():
    table = e2_assemble("S2", twenty_four_nodal_system())
    grid = copy.deepcopy(table.grid)
    grid[0][0] = (0, ())
    with pytest.raises(LocalSystemError, match="corner"):
        E2Table(2, grid).validate()
    with pytest.raises(TypeError):
        table.validate(with_section=False)
