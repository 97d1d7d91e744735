"""Exact integer linear algebra: Smith normal form, kernels, unimodular inverses.

All routines work on Python-int matrices (lists of lists) so intermediate
entries never overflow.  Matrices here are small (tens of rows), so the
classical pivoting algorithm is plenty.
"""

from __future__ import annotations


def as_int_matrix(rows):
    return [[int(v) for v in row] for row in rows]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[]] if not a else [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = len(b[0])
    inner = len(b)
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(len(a))]


def mat_transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_is_zero(a):
    return all(v == 0 for row in a for v in row)


def smith_normal_form(matrix):
    """Return (d, u, v) with u * matrix * v = d, u and v unimodular,
    d diagonal with d[i] | d[i+1], diagonal entries nonnegative."""
    a = as_int_matrix(matrix)
    m = len(a)
    n = len(a[0]) if a else 0
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # move a pivot of least absolute value into (t, t)
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            changed = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        changed = True
            if changed:
                continue
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        changed = True
            if changed:
                continue
            # pivot now alone in its row and column; make it divide the rest
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return a, u, v


def snf_diagonal(matrix):
    d, _, _ = smith_normal_form(matrix)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def elementary_divisors(matrix):
    """Nontrivial diagonal entries (> 1) of the Smith form."""
    return [x for x in snf_diagonal(matrix) if x > 1]


def rank(matrix):
    return sum(1 for x in snf_diagonal(matrix) if x != 0)


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

    boundaries[k] is the matrix of d_k (or [] when trivial); returns a list
    of (free_rank, divisors) per degree.
    """
    dims = len(cells_per_dim)
    out = []
    for k in range(dims):
        nk = cells_per_dim[k]
        dk = boundaries[k] if k < len(boundaries) else []
        dk1 = boundaries[k + 1] if k + 1 < len(boundaries) else []
        rank_dk = rank(dk) if dk and nk else 0
        rank_dk1 = rank(dk1) if dk1 else 0
        free = nk - rank_dk - rank_dk1
        tors = elementary_divisors(dk1) if dk1 else []
        out.append((free, tors))
    return out
