import random

import pytest

from syzlab import intlinalg
from syzlab.complexes import ChainComplex
from syzlab.fibre_models import build_model
from syzlab.intlinalg import (
    homology_groups,
    is_unimodular,
    mat_mul,
    smith_normal_form,
    snf_diagonal,
)


def random_matrix(rng, rows, cols, density=0.5, bound=4):
    return [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


def naive_product(a, b):
    if not a or not b:
        return [[]] if not a else [[0] * (len(b[0]) if b else 0) for _ in a]
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def full_diagonal(matrix):
    d, _, _ = smith_normal_form(matrix)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


SHAPES = [(0, 0), (1, 0), (3, 0), (1, 1), (1, 7), (7, 1), (4, 4), (3, 8), (9, 5), (8, 8)]


class TestSnfDiagonal:
    @pytest.mark.parametrize("rows,cols", SHAPES)
    def test_matches_full_form(self, rows, cols):
        rng = random.Random(rows * 100 + cols)
        for density in (0.0, 0.2, 0.6, 1.0):
            for _ in range(6):
                m = random_matrix(rng, rows, cols, density)
                assert snf_diagonal(m) == full_diagonal(m)

    def test_empty_and_zero(self):
        assert snf_diagonal([]) == []
        assert snf_diagonal([[0, 0, 0], [0, 0, 0]]) == [0, 0]
        assert snf_diagonal([[0, 4, 0, 6]]) == [2]

    def test_divisor_chain_and_transforms(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_matrix(rng, 5, 6, 0.7, bound=9)
            d, u, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == d
            diag = snf_diagonal(m)
            nonzero = [x for x in diag if x]
            assert all(x >= 0 for x in diag)
            assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))

    def test_no_transforms_built(self):
        d, u, v = smith_normal_form([[2, 4], [6, 8]], transforms=False)
        assert u is None and v is None
        assert [d[0][0], d[1][1]] == [2, 4]

    def test_unimodular(self):
        assert is_unimodular([[2, 1], [1, 1]])
        assert is_unimodular([[0, -1], [1, 0]])
        assert not is_unimodular([[2, 0], [0, 1]])
        assert not is_unimodular([[1, 0, 0], [0, 1, 0]])
        assert not is_unimodular([[1, 1], [1, 1]])


class TestZeroSkippingProduct:
    @pytest.mark.parametrize("m,k,n", [(3, 4, 5), (1, 1, 1), (6, 2, 1), (1, 6, 6),
                                       (4, 0, 3), (0, 3, 2), (5, 5, 0)])
    def test_matches_naive(self, m, k, n):
        rng = random.Random(m * 49 + k * 7 + n)
        for density in (0.0, 0.3, 1.0):
            a = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(k)]
                 for _ in range(m)]
            b = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]
                 for _ in range(k)]
            assert mat_mul(a, b) == naive_product(a, b)

    def test_empty_rows_and_columns(self):
        a = [[0, 0, 0], [1, 0, 2], [0, 0, 0]]
        b = [[0, 1], [5, 5], [0, 0]]
        assert mat_mul(a, b) == naive_product(a, b) == [[0, 0], [0, 1], [0, 0]]
        assert mat_mul([], [[1, 2]]) == [[]]
        assert mat_mul([[1], [2]], []) == [[], []]


class TestOneSmithFormPerMap:
    def count_forms(self, monkeypatch):
        calls = []
        original = intlinalg.smith_normal_form

        def counting(matrix, **kwargs):
            calls.append(len(matrix))
            return original(matrix, **kwargs)

        monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
        return calls

    @pytest.mark.parametrize("name", ["T3", "M21", "M00"])
    def test_homology_of_models(self, monkeypatch, name):
        cx = build_model(name, 2)
        bnds = [[]] + [cx.boundary_matrix(k) for k in range(1, cx.dim + 1)]
        calls = self.count_forms(monkeypatch)
        homology_groups(bnds, cx.cell_counts())
        assert len(calls) == sum(1 for b in bnds if b) == cx.dim

    def test_klein_bottle(self, monkeypatch):
        v, a, b = ("v", 0), ("a", 0), ("b", 0)
        cx = ChainComplex([[v], [a, b], [("F", 0)]],
                          {(2, ("F", 0)): [(a, 1), (b, 1), (a, -1), (b, 1)]}, "klein")
        calls = self.count_forms(monkeypatch)
        assert cx.homology() == [(1, []), (1, [2]), (0, [])]
        assert len(calls) == 2
