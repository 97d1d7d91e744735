"""Exact integer linear algebra: Smith normal form, kernels, unimodular inverses.

All routines work on Python-int matrices so intermediate entries never
overflow.  Boundary maps of the fibre models reach 648 x 648 at grid 6 (d_2
of the 3-torus) with at most six nonzero entries per column, and nearly
every pivot of a cellular boundary is +-1.  So the routines that need only
invariants (``snf_diagonal``, and through it rank, elementary divisors,
unimodularity and ``homology_groups``) first eliminate the unit pivots of a
sparse copy with integer row operations, each pivot a 1 on the Smith
diagonal, and hand only the unit-free remainder to the dense
``smith_normal_form``.  ``smith_normal_form`` with transforms (kernels,
solves, inverses) is the one dense elimination routine.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress, islice
from operator import ne


def _is_integral(x):
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def as_int_matrix(rows):
    """The matrix as lists of ints.  An entry equal to an int (2.0, a numpy
    integer) is read as that int; any other entry is a ValueError naming it."""
    out = []
    for i, row in enumerate(rows):
        try:
            ints = list(map(int, row))
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints is None or any(map(ne, ints, row)):
            j, x = next((j, x) for j, x in enumerate(row) if not _is_integral(x))
            raise ValueError(f"entry [{i}][{j}] = {x!r} is not an integer")
        out.append(ints)
    return out


def _support(row, start=0):
    """Indices j >= start with row[j] != 0."""
    return list(compress(range(start, len(row)), islice(row, start, None)))


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Dense product that multiplies only nonzero a[i][k] by nonzero b[k][j]."""
    if not a or not b:
        return [[]] if not a else [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = len(b[0])
    b_support = [_support(row) for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for k in _support(row):
            x, brow = row[k], b[k]
            for j in b_support[k]:
                acc[j] += x * brow[j]
        out.append(acc)
    return out


def sparse_image(chain, columns):
    """sum of c * columns[j] over the (j, c) of chain, for columns given as
    sparse columns of (row index, coeff), as {row index: coeff}; a
    coefficient that cancels stays as 0."""
    acc = {}
    for j, c in chain:
        for i, x in columns[j]:
            acc[i] = acc.get(i, 0) + c * x
    return acc


def composes_to_zero(outer, inner):
    """Whether outer * inner = 0 for two maps given as sparse columns of
    (row index, coeff), the rows of inner indexing the columns of outer."""
    return not any(any(sparse_image(column, outer).values()) for column in inner)


def smith_normal_form(matrix, *, transforms=True):
    """Return (d, u, v) with u * matrix * v = d, u and v unimodular,
    d diagonal with d[i] | d[i+1], diagonal entries nonnegative.

    With transforms=False the same elimination runs without accumulating
    u and v, and both come back as None.
    """
    a = as_int_matrix(matrix)
    m = len(a)
    n = len(a[0]) if a else 0
    u = identity(m) if transforms else None
    v = identity(n) if transforms else None
    # Invariant: before pivot t, a is diag(d_0..d_{t-1}) (+) the trailing
    # block, so row and column operations touch only indices >= t.

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in range(t, m):
            row = a[r]
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c, src_support):
        s, d = a[src], a[dst]
        for j in src_support:
            d[j] += c * s[j]
        if u is not None:
            u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c, src_support):
        for r in src_support:
            row = a[r]
            row[dst] += c * row[src]
        if v is not None:
            for row in v:
                row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # move a pivot of least absolute value into (t, t); the first entry
        # of absolute value 1 is that pivot, so the scan may stop there
        pivot = None
        best = None
        for i in range(t, m):
            row = a[i]
            for j in compress(range(t, n), islice(row, t, None)):
                x = row[j]
                if best is None or abs(x) < best:
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            changed = False
            row_t = _support(a[t], t)
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]), row_t)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        row_t = _support(a[t], t)
                        changed = True
            if changed:
                continue
            col_t = [r for r in range(t, m) if a[r][t]]
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]), col_t)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        col_t = [r for r in range(t, m) if a[r][t]]
                        changed = True
            if changed:
                continue
            # pivot now alone in its row and column; make it divide the rest
            p = a[t][t]
            bad = None
            if abs(p) != 1:
                for i in range(t + 1, m):
                    row = a[i]
                    if any(row[j] % p for j in range(t + 1, n)):
                        bad = i
                        break
            if bad is None:
                break
            add_row(bad, t, 1, _support(a[bad], t))
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return a, u, v


def sparse_columns(matrix):
    """The nonzero (row index, coeff) pairs of each column of a dense matrix."""
    cols = [[] for _ in range(len(matrix[0]) if matrix else 0)]
    for i, row in enumerate(matrix):
        for j in _support(row):
            cols[j].append((i, row[j]))
    return cols


def _add_row(rows, cols, src, dst, f):
    """Row dst += f * row src, kept in both the row and the column dicts."""
    target = rows[dst]
    for j, y in rows[src].items():
        x = target.get(j, 0) + f * y
        if x:
            target[j] = cols[j][dst] = x
        else:
            del target[j], cols[j][dst]


def _eliminate_units(columns, nrows):
    """Eliminate every +-1 pivot of a sparse integer matrix.

    columns[j] lists the (row index, coeff) entries of column j.  Columns
    are taken shortest first and, in each, the unit entry in the shortest
    row; row operations clear the rest of the pivot's column, after which
    its row and column leave the matrix.  Returns the number of pivots and
    the dense remainder (its nonzero rows and columns), which holds no unit
    entry and is empty when nothing is left.
    """
    cols = [{i: x for i, x in col if x} for col in columns]
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapify(heap)
    pivots = 0
    while heap:
        size, c = heappop(heap)
        col = cols[c]
        if len(col) != size:
            continue  # a later push holds this column's current length
        units = [i for i, x in col.items() if x == 1 or x == -1]
        if not units:
            continue  # pushed again if an elimination changes it
        r = units[0] if len(units) == 1 else min(units, key=lambda i: len(rows[i]))
        u = col[r]
        for i, x in list(col.items()):
            if i != r:
                _add_row(rows, cols, r, i, -x * u)
        for j in rows[r]:
            del cols[j][r]
            if j != c and cols[j]:
                heappush(heap, (len(cols[j]), j))
        rows[r] = {}
        pivots += 1
    live = [j for j, col in enumerate(cols) if col]
    rest = [[row.get(j, 0) for j in live] for row in rows if row]
    return pivots, rest


def _sparse_diagonal(columns, nrows):
    """Smith diagonal of the nrows x len(columns) matrix given by its columns."""
    ones, rest = _eliminate_units(columns, nrows)
    diag = [1] * ones
    if rest:
        d, _, _ = smith_normal_form(rest, transforms=False)
        diag += [d[i][i] for i in range(min(len(d), len(d[0])))]
    return diag + [0] * (min(nrows, len(columns)) - len(diag))


def _rank_and_divisors(diag):
    return sum(1 for x in diag if x), [x for x in diag if x > 1]


def snf_diagonal(matrix):
    """Diagonal of the Smith normal form, without the transforms."""
    a = as_int_matrix(matrix)
    return _sparse_diagonal(sparse_columns(a), len(a))


def rank(matrix):
    return sum(1 for x in snf_diagonal(matrix) if x != 0)


def rank_and_divisors(matrix):
    """Rank and nontrivial elementary divisors from one Smith diagonal."""
    return _rank_and_divisors(snf_diagonal(matrix))


def is_unimodular(matrix):
    """Square with an all-ones Smith diagonal, i.e. determinant +-1."""
    a = as_int_matrix(matrix)
    return all(len(row) == len(a) for row in a) and all(x == 1 for x in snf_diagonal(a))


def kernel_basis(matrix):
    """Basis of the integer kernel (saturated) as a list of column vectors."""
    a = as_int_matrix(matrix)
    m = len(a)
    n = len(a[0]) if a else 0
    if n == 0:
        return []
    d, u, v = smith_normal_form(a)
    r = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    basis = []
    for j in range(r, n):
        basis.append([v[i][j] for i in range(n)])
    return basis


def solve_int(matrix, rhs_columns):
    """Solve matrix * X = rhs for integer X; raises if no integer solution.

    rhs_columns is a matrix whose columns are the right-hand sides.
    """
    a = as_int_matrix(matrix)
    m = len(a)
    n = len(a[0]) if a else 0
    d, u, v = smith_normal_form(a)
    b = mat_mul(u, as_int_matrix(rhs_columns))
    ncols = len(b[0]) if b else 0
    ymat = [[0] * ncols for _ in range(n)]
    for c in range(ncols):
        for i in range(m):
            di = d[i][i] if i < min(m, n) else 0
            if di == 0:
                if i < m and b[i][c] != 0:
                    raise ValueError("no solution")
            else:
                if b[i][c] % di != 0:
                    raise ValueError("no integer solution")
                ymat[i][c] = b[i][c] // di
    return mat_mul(v, ymat)


def invert_unimodular(mat):
    """Inverse of a unimodular integer matrix, exactly."""
    a = as_int_matrix(mat)
    n = len(a)
    d, u, v = smith_normal_form(a)
    for i in range(n):
        if d[i][i] != 1:
            raise ValueError("matrix is not unimodular")
    # u a v = I  ->  a^{-1} = v u
    return mat_mul(v, u)


def homology_groups(boundaries, cells_per_dim):
    """Integer homology from boundary maps d_k: C_k -> C_{k-1}.

    boundaries[k] gives d_k as sparse columns, one list of (row index,
    coeff) per k-cell, the rows indexing the (k-1)-cells; boundaries[0] is
    [].  Returns a list of (free_rank, divisors) per degree.  Each nonzero
    map gets one Smith diagonal (unit pivots eliminated sparsely, the rest
    densely), shared by degrees k (its rank) and k-1 (rank and torsion).
    """
    dims = len(cells_per_dim)
    maps = [_rank_and_divisors(_sparse_diagonal(boundaries[k], cells_per_dim[k - 1]))
            if 0 < k < len(boundaries) and any(boundaries[k]) else (0, [])
            for k in range(dims + 1)]
    out = []
    for k in range(dims):
        rank_dk = maps[k][0] if cells_per_dim[k] else 0
        rank_dk1, tors = maps[k + 1]
        out.append((cells_per_dim[k] - rank_dk - rank_dk1, tors))
    return out
