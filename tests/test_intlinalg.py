import random
from collections import Counter

import numpy as np
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


def dense_diagonal(matrix):
    d, _, _ = smith_normal_form(matrix, transforms=False)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def has_unit(matrix):
    return any(x in (1, -1) for row in matrix for x in row)


def count_reductions(monkeypatch):
    """Record each unit-pivot reduction as (shape, pivots, remainder) and
    each dense Smith form as (a copy of its input, transforms)."""
    reductions, forms = [], []
    reduce, form = intlinalg._eliminate_units, intlinalg.smith_normal_form

    def counting_reduce(columns, nrows):
        pivots, rest = reduce(columns, nrows)
        reductions.append(((nrows, len(columns)), pivots, rest))
        return pivots, rest

    def counting_form(matrix, **kwargs):
        forms.append(([list(row) for row in matrix], kwargs.get("transforms", True)))
        return form(matrix, **kwargs)

    monkeypatch.setattr(intlinalg, "_eliminate_units", counting_reduce)
    monkeypatch.setattr(intlinalg, "smith_normal_form", counting_form)
    return reductions, forms


class TestOneSmithFormPerMap:
    """One unit-pivot reduction per nonzero boundary map; the dense Smith
    form runs only on a non-empty remainder."""

    @pytest.mark.parametrize("name", ["T3", "M21", "M00"])
    def test_homology_of_models(self, monkeypatch, name):
        cx = build_model(name, 2)
        nonzero = [k for k in range(1, cx.dim + 1) if any(map(any, cx.boundary_matrix(k)))]
        reductions, forms = count_reductions(monkeypatch)
        cx.homology()
        assert [shape for shape, _, _ in reductions] == [
            (len(cx.cells[k - 1]), len(cx.cells[k])) for k in nonzero]
        assert len(nonzero) == cx.dim
        assert forms == [(rest, False) for _, _, rest in reductions if rest]
        assert all(not has_unit(rest) for _, _, rest in reductions)

    def test_klein_bottle(self, monkeypatch):
        v, a, b = ("v", 0), ("a", 0), ("b", 0)
        cx = ChainComplex([[v], [a, b], [("F", 0)]],
                          {(2, ("F", 0)): [(a, 1), (b, 1), (a, -1), (b, 1)]}, "klein")
        reductions, forms = count_reductions(monkeypatch)
        assert cx.homology() == [(1, []), (1, [2]), (0, [])]
        # d_1 is zero, so only d_2 = (0, 2)^T is reduced; it has no unit
        # pivot and its remainder is the 2-torsion
        assert reductions == [((2, 1), 0, [[2]])]
        assert forms == [([[2]], False)]


def planted(rng, rows, cols):
    """Unit-free blocks (2I, [[2,1],[1,2]], 3, [[2,4],[6,8]]) down the
    diagonal, with sparse noise in -3..3 outside them, 1.5 per column."""
    blocks = [[[2, 0], [0, 2]], [[2, 1], [1, 2]], [[3]], [[2, 4], [6, 8]], [[2]]]
    m = [[0] * cols for _ in range(rows)]
    t = 0
    while True:
        block = rng.choice(blocks)
        if t + len(block) > min(rows, cols):
            break
        for i, row in enumerate(block):
            m[t + i][t:t + len(row)] = row
        t += len(block)
    for i in range(rows):
        for j in range(cols):
            if (i >= t or j >= t) and rng.random() < 1.5 / rows:
                m[i][j] = rng.randint(-3, 3)
    return m


def reduction_corpus(seed=17):
    """Seeded sparse integer matrices from 0 x 0 to 40 x 40: random entries
    in -3..3 at several densities with a zeroed row and column, the same
    doubled (no unit entry at all), and planted unit-free blocks."""
    rng = random.Random(seed)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (7, 7), (12, 9),
              (9, 12), (20, 20), (25, 31), (33, 40), (40, 40)]
    out = []
    for rows, cols in shapes:
        # the dense form's entries grow fast on dense input (a 40 x 40 with
        # six entries per column ran past 3 s), so past 10 x 10 the columns
        # hold 1 to 2 entries on average, as boundary maps do
        small = rows * cols <= 100
        for per_column in (0.2, 0.5, 0.9) if small else (1, 1.5, 2):
            density = per_column if small else per_column / rows
            for _ in range(3):
                m = random_matrix(rng, rows, cols, density, bound=3)
                if rows > 2 and cols > 2:
                    m[rng.randrange(rows)] = [0] * cols
                    j = rng.randrange(cols)
                    for row in m:
                        row[j] = 0
                out += [m, [[2 * x for x in row] for row in m]]
        out += [planted(rng, rows, cols) for _ in range(3)]
    return out


def reduction_mismatches():
    return [m for m in reduction_corpus() if snf_diagonal(m) != dense_diagonal(m)]


class TestUnitPivotReduction:
    def test_corpus_matches_dense_form(self, monkeypatch):
        reductions, _ = count_reductions(monkeypatch)
        assert reduction_mismatches() == []
        # every path ran: unit pivots only, no unit pivot at all, and unit
        # pivots that leave a remainder
        paths = Counter((pivots > 0, bool(rest)) for _, pivots, rest in reductions)
        assert min(paths[True, False], paths[False, True], paths[True, True]) >= 10

    def test_sign_error_in_the_update_is_caught(self, monkeypatch):
        add_row = intlinalg._add_row
        monkeypatch.setattr(intlinalg, "_add_row",
                            lambda rows, cols, src, dst, f: add_row(rows, cols, src, dst, -f))
        assert reduction_mismatches()

    def test_homology_groups_take_sparse_columns(self):
        # the projective plane: a two-vertex circle and a disc glued twice
        # around it
        groups = homology_groups([[], [[(0, -1), (1, 1)], [(0, 1), (1, -1)]],
                                  [[(0, 2), (1, 2)]]], [2, 2, 1])
        assert groups == [(1, []), (0, [2]), (0, [])]


# every public entry point that reads a matrix, with that matrix as its argument
READERS = {
    "as_int_matrix": intlinalg.as_int_matrix,
    "smith_normal_form": smith_normal_form,
    "smith_normal_form_diagonal_only": lambda m: smith_normal_form(m, transforms=False),
    "snf_diagonal": snf_diagonal,
    "rank": intlinalg.rank,
    "rank_and_divisors": intlinalg.rank_and_divisors,
    "is_unimodular": is_unimodular,
    "kernel_basis": intlinalg.kernel_basis,
    "invert_unimodular": intlinalg.invert_unimodular,
    "solve_int_matrix": lambda m: intlinalg.solve_int(m, [[1], [1]]),
    "solve_int_rhs": lambda m: intlinalg.solve_int([[1, 0], [0, 1]], m),
}


@pytest.mark.parametrize("name", READERS)
def test_non_integral_entries_are_refused(name):
    """An entry that int() would truncate is a ValueError naming its row and
    column; an entry equal to an int is read."""
    read = READERS[name]
    for bad, where in (([[1, 0], [1.5, 1]], r"\[1\]\[0\] = 1.5"),
                       ([[1, float("nan")], [0, 1]], r"\[0\]\[1\] = nan"),
                       ([[1, 0], [0, "1"]], r"\[1\]\[1\] = '1'")):
        with pytest.raises(ValueError, match=where + " is not an integer"):
            read(bad)
    read([[1.0, 0], [np.int64(0), 1]])


def test_integral_floats_and_numpy_ints_read_as_ints():
    m = intlinalg.as_int_matrix([[2.0, np.int64(3)], (True, -4)])
    assert m == [[2, 3], [1, -4]] and all(type(x) is int for row in m for x in row)
