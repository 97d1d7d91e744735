"""Cohomology of pushforward local systems on the 2-sphere and Leray tables.

A local system of rank m on the sphere minus k marked points is given by
monodromy matrices T_1..T_k around counterclockwise loops, with the product
relation T_k * ... * T_1 = I taken right to left.  The pushforward sheaf
extends across each puncture with stalk ker(T_i - I), and discs around the
punctures contribute no higher cohomology; this is the definition of the
sheaf computed here.

Cohomology comes from the total complex of the cover by k discs and the
k-holed sphere, glued over k annuli:

  degree 0:  (+) ker(T_i - I)  (+)  M
  degree 1:  M^(k-1)  (+)  M^k
  degree 2:  M^k

The k-holed sphere contributes the free-group cochain complex
M -> M^(k-1), m |-> ((T_i - I) m).  A cochain c on the free group is
determined by its loop values c_i = c(loop_i), i < k; its restriction to the
k-th annulus follows from the product relation and the cocycle rule
c(gh) = c(g) + g.c(h):

  c(loop_k) = -T_k * sum_{j<k} (T_{k-1} ... T_{j+1}) c_j.

This prefix-product weighting is the word-derivative convention used by the
degree-1 gluing block below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import (
    as_int_matrix,
    homology_groups,
    identity,
    is_unimodular,
    kernel_basis,
    mat_is_zero,
    mat_mul,
    rank,
    sparse_columns,
)


class LocalSystemError(ValueError):
    pass


@dataclass
class LocalSystemOnSphere:
    """Rank-m integer local system with k marked points on the sphere."""

    rank: int
    monodromies: list

    def __post_init__(self):
        mats = []
        for k, t in enumerate(self.monodromies):
            try:
                mats.append(as_int_matrix(t))
            except ValueError as exc:
                raise LocalSystemError(f"monodromy {k} {exc}") from None
        m = self.rank
        for t in mats:
            if len(t) != m or any(len(row) != m for row in t):
                raise LocalSystemError("monodromy matrices must be rank x rank")
            if not is_unimodular(t):
                raise LocalSystemError("monodromy matrices must be invertible over Z")
        prod = identity(m)
        for t in mats:
            prod = mat_mul(t, prod)  # right-to-left product relation
        if prod != identity(m):
            raise LocalSystemError("monodromy product (right to left) must be the identity")
        self.monodromies = mats
        self._pushforward = None  # groups, filled by pushforward_cohomology

    @property
    def punctures(self):
        return len(self.monodromies)


def _minus_identity(t):
    m = len(t)
    return [[t[i][j] - (1 if i == j else 0) for j in range(m)] for i in range(m)]


def euler_characteristic(system: LocalSystemOnSphere) -> int:
    """2m - sum_i (m - dim ker(T_i - I)) = 2m - sum_i rank(T_i - I)."""
    return 2 * system.rank - sum(rank(_minus_identity(t)) for t in system.monodromies)


def _prefix_weights(mats, m):
    """Weights W_j = -T_k * T_{k-1} * ... * T_{j+1} for the last loop value."""
    k = len(mats)
    weights = []
    acc = [row[:] for row in mats[k - 1]]  # T_k
    # W_{k-1} = -T_k ; W_j = -T_k T_{k-1} ... T_{j+1}
    for j in range(k - 2, -1, -1):
        weights.append([[-v for v in row] for row in acc])
        acc = mat_mul(acc, mats[j])
    weights.reverse()
    return weights  # weights[j] multiplies c_j, j = 0..k-2


@dataclass
class PushforwardCohomology:
    groups: list  # [(rank, divisors)] for degrees 0..2

    @property
    def ranks(self):
        return tuple(r for r, _ in self.groups)

    def as_dict(self):
        return {"groups": [{"rank": r, "torsion": list(t)} for r, t in self.groups]}


def pushforward_cohomology(system: LocalSystemOnSphere) -> PushforwardCohomology:
    """Exact integer cohomology of the pushforward sheaf on the sphere.

    Computed once per system; later calls get a copy of the first result.
    """
    if system._pushforward is not None:
        return PushforwardCohomology([(r, list(t)) for r, t in system._pushforward])
    m = system.rank
    mats = system.monodromies
    k = len(mats)
    if k == 0:
        raise LocalSystemError("need at least one marked point")

    inv_bases = [kernel_basis(_minus_identity(t)) for t in mats]
    n_inv = [len(b) for b in inv_bases]
    dim0 = sum(n_inv) + m
    dim1 = (k - 1) * m + k * m
    dim2 = k * m

    # degree-0 differential: (lambda(v); u_i - v) with u_i in invariant coords
    d0 = [[0] * dim0 for _ in range(dim1)]
    for i in range(k - 1):
        ti = _minus_identity(mats[i])
        for r in range(m):
            for c in range(m):
                d0[i * m + r][sum(n_inv) + c] = ti[r][c]
    row0 = (k - 1) * m
    col = 0
    for i in range(k):
        basis = inv_bases[i]
        for bcol, vec in enumerate(basis):
            for r in range(m):
                d0[row0 + i * m + r][col + bcol] = vec[r]
        for r in range(m):
            d0[row0 + i * m + r][sum(n_inv) + r] -= 1
        col += n_inv[i]

    # degree-1 differential: (loop value of c at annulus i) + (T_i - I) w_i
    weights = _prefix_weights(mats, m)
    d1 = [[0] * dim1 for _ in range(dim2)]
    for i in range(k):
        if i < k - 1:
            for r in range(m):
                d1[i * m + r][i * m + r] += 1
        else:
            for j in range(k - 1):
                w = weights[j]
                for r in range(m):
                    for c in range(m):
                        d1[i * m + r][j * m + c] += w[r][c]
        ti = _minus_identity(mats[i])
        for r in range(m):
            for c in range(m):
                d1[i * m + r][(k - 1) * m + i * m + c] += ti[r][c]

    if not mat_is_zero(mat_mul(d1, d0)):
        raise RuntimeError("internal: glued differentials do not compose to zero")

    # read C^0 -> C^1 -> C^2 as the chain complex C^2 <- C^1 <- C^0, each
    # differential as sparse columns: one Smith diagonal per differential;
    # H^1 carries the divisors of d0, since ker(d1) is saturated
    groups = homology_groups([[], sparse_columns(d1), sparse_columns(d0)],
                             [dim2, dim1, dim0])[::-1]
    chi = groups[0][0] - groups[1][0] + groups[2][0]
    if chi != euler_characteristic(system):
        raise RuntimeError("internal: euler characteristic mismatch")
    system._pushforward = groups
    return PushforwardCohomology([(r, list(t)) for r, t in groups])


# ---------------------------------------------------------------------------
# Leray-style tables and torsion duality checkers
# ---------------------------------------------------------------------------

def _group(rank_, torsion=()):
    return (int(rank_), tuple(int(t) for t in torsion))


@dataclass
class E2Table:
    """Grid of abelian groups (rank, divisors); entry(i, j) = row j, column i.

    Indexing matches cohomological degree: i is the base degree (column),
    j the fibre degree (row).  For n = 2 the grid is 3 x 3, for n = 3 it is
    4 x 4.
    """

    n: int
    grid: list

    def entry(self, i, j):
        return self.grid[j][i]

    def torsion(self, i, j):
        return tuple(self.grid[j][i][1])

    def rank(self, i, j):
        return self.grid[j][i][0]

    def as_json_grid(self):
        """Rows of {"rank": r, "torsion": [d1, ...]} cells, top row first."""
        return [[{"rank": r, "torsion": list(t)} for (r, t) in row]
                for row in self.grid]

    def validate(self):
        """Check the degenerate-table zero pattern and duplicated ranks."""
        size = self.n + 1
        if len(self.grid) != size or any(len(r) != size for r in self.grid):
            raise LocalSystemError(f"table must be {size} x {size}")
        corners = [(0, 0), (0, self.n), (self.n, 0), (self.n, self.n)]
        for (i, j) in corners:
            if self.entry(i, j) != (1, ()):
                raise LocalSystemError(f"corner ({i},{j}) must be Z for a fibration with section")
        if self.n == 2:
            for (i, j) in [(1, 0), (0, 1), (2, 1), (1, 2)]:
                if self.entry(i, j) != (0, ()):
                    raise LocalSystemError(f"entry ({i},{j}) must vanish in the degenerate table")
        if self.n == 3:
            zero_slots = [(1, 0), (0, 1), (0, 2), (1, 3)]
            for (i, j) in zero_slots:
                if self.entry(i, j) != (0, ()):
                    raise LocalSystemError(f"entry ({i},{j}) must vanish")
            for (i, j) in [(2, 0), (2, 3), (3, 1), (3, 2)]:
                if self.rank(i, j) != 0:
                    raise LocalSystemError(f"entry ({i},{j}) must be pure torsion")
            if self.rank(1, 1) != self.rank(2, 2) or self.rank(1, 2) != self.rank(2, 1):
                raise LocalSystemError("middle ranks must appear in dual pairs")
        return True


def e2_assemble(base, inputs) -> E2Table:
    """Assemble a degenerate Leray table.

    base = "S2": inputs is a LocalSystemOnSphere for the degree-1 direct
    image; the fibre degrees 0 and 2 are constant Z (integral fibration with
    a section).  base = "abstract-n3": inputs supplies h11, h12 and the
    torsion parts keyed "T<i><j>".
    """
    if base == "S2":
        system = inputs
        push = pushforward_cohomology(system)
        h1 = push.groups[1]
        z, o = _group(1), _group(0)
        grid = [
            [z, o, z],
            [o, _group(*h1), o],
            [z, o, z],
        ]
        table = E2Table(2, grid)
        table.validate()
        return table
    if base == "abstract-n3":
        h11 = int(inputs["h11"])
        h12 = int(inputs["h12"])
        tors = {key: tuple(val) for key, val in inputs.get("torsion", {}).items()}

        def T(i, j):
            return tors.get(f"T{i}{j}", ())

        z, o = _group(1), _group(0)
        grid = [
            [z, o, _group(0, T(2, 0)), z],
            [o, _group(h11, T(1, 1)), _group(h12, T(2, 1)), _group(0, T(3, 1))],
            [o, _group(h12, T(1, 2)), _group(h11, T(2, 2)), _group(0, T(3, 2))],
            [z, o, _group(0, T(2, 3)), z],
        ]
        table = E2Table(3, grid)
        table.validate()
        return table
    raise LocalSystemError(f"unknown base {base!r}")


def dual_table(table: E2Table) -> E2Table:
    """The table of the dual fibration: degree j swaps with n - j."""
    size = table.n + 1
    grid = [[table.entry(i, table.n - j) for i in range(size)] for j in range(size)]
    return E2Table(table.n, grid)


def _tors_count(groups):
    total = 1
    for t in groups:
        for d in t:
            total *= d
    return total


def duality_checks(table: E2Table, dual: E2Table) -> dict:
    """Rank symmetry, torsion pairings, cross-table relation, and the
    even/odd torsion cardinality balance for a dual pair of 3-fold tables."""
    if table.n != 3 or dual.n != 3:
        raise LocalSystemError("duality checks apply to threefold tables")
    out = {}
    out["rank_symmetry"] = all(
        table.rank(i, j) == table.rank(3 - i, 3 - j)
        for i in range(4) for j in range(4)
    ) and all(
        dual.rank(i, j) == dual.rank(3 - i, 3 - j)
        for i in range(4) for j in range(4)
    )
    out["torsion_T11_T32"] = table.torsion(1, 1) == table.torsion(3, 2)
    out["torsion_T12_T31"] = table.torsion(1, 2) == table.torsion(3, 1)
    out["torsion_T21_T22"] = table.torsion(2, 1) == table.torsion(2, 2)
    out["torsion_T23_T20"] = table.torsion(2, 3) == table.torsion(2, 0)
    out["cross_table"] = all(
        dual.torsion(i, j) == table.torsion(i, 3 - j) and
        dual.rank(i, j) == table.rank(i, 3 - j)
        for i in range(4) for j in range(4)
    )

    # total-space torsion cardinalities assembled from the table extensions:
    # degree 3 and 4 torsion both have cardinality #T21 * #T12; degree 2
    # carries T11 and T20; degree 5 carries T23 and T32.
    def even_odd(t):
        h2 = _tors_count([t.torsion(1, 1), t.torsion(2, 0)])
        h3 = _tors_count([t.torsion(2, 1), t.torsion(1, 2)])
        h4 = h3
        h5 = _tors_count([t.torsion(2, 3), t.torsion(3, 2)])
        return h2 * h4, h3 * h5

    even_x, odd_x = even_odd(table)
    even_d, odd_d = even_odd(dual)
    out["even_vs_dual_odd"] = even_x == odd_d
    out["odd_vs_dual_even"] = odd_x == even_d
    out["all_passed"] = all(bool(v) for v in out.values())
    return out
