"""Finite cellular chain complexes over the integers.

Complexes carry labelled cells per dimension and integer boundary matrices.
Products use the tensor rule d(s x t) = d(s) x t + (-1)^dim(s) s x d(t).
Quotients are pushouts along a cellular chain map defined on a subcomplex:
the quotient keeps the target's cells plus the source cells outside the
subcomplex, rewriting boundaries through the map.  Tori come from periodic
cubical grids, so one complex family serves both the coarse models and
their subdivided versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .intlinalg import homology_groups, mat_is_zero, mat_mul


class ComplexError(ValueError):
    pass


@dataclass
class ChainComplex:
    """cells[k] is a list of hashable labels; boundary(k): C_k -> C_{k-1}."""

    cells: list
    boundaries: list  # boundaries[k] maps C_k to C_{k-1}; boundaries[0] = []
    name: str = ""

    def __post_init__(self):
        self.index = [
            {label: i for i, label in enumerate(layer)} for layer in self.cells
        ]
        self._faces = {}  # k -> per k-cell faces, built on first use

    @property
    def dim(self):
        return len(self.cells) - 1

    def cell_counts(self):
        return [len(layer) for layer in self.cells]

    def total_cells(self):
        return sum(self.cell_counts())

    def euler_characteristic(self):
        return sum((-1) ** k * len(layer) for k, layer in enumerate(self.cells))

    def faces(self, k, label):
        """Nonzero boundary entries of a k-cell as ((face label, coeff), ...)."""
        if k <= 0:
            return ()
        cols = self._faces.get(k)
        if cols is None:
            layer = self.cells[k - 1]
            cols = [tuple([(layer[i], col[i]) for i in compress(range(len(layer)), col)])
                    for col in zip(*self.boundaries[k])]
            cols += [()] * (len(self.cells[k]) - len(cols))
            self._faces[k] = cols
        return cols[self.index[k][label]]

    def validate(self):
        """Check d o d = 0 for every pair of consecutive boundary maps."""
        for k in range(2, self.dim + 1):
            dk = self.boundaries[k]
            dk1 = self.boundaries[k - 1]
            if dk and dk1 and not mat_is_zero(mat_mul(dk1, dk)):
                raise ComplexError(f"boundary square nonzero at degree {k} in {self.name}")
        return True

    def homology(self):
        """List of (free_rank, divisors) per degree."""
        bnds = [[]] + [self.boundaries[k] for k in range(1, self.dim + 1)]
        return homology_groups(bnds, self.cell_counts())


def _empty_boundaries(cells):
    out = [[]]
    for k in range(1, len(cells)):
        rows = len(cells[k - 1])
        cols = len(cells[k])
        out.append([[0] * cols for _ in range(rows)])
    return out


def build_complex(cells, boundary_entries, name=""):
    """Build from {(k, cell_label): [(face_label, coeff), ...]}."""
    bnds = _empty_boundaries(cells)
    index = [{label: i for i, label in enumerate(layer)} for layer in cells]
    for (k, label), faces in boundary_entries.items():
        j = index[k][label]
        for face, coeff in faces:
            bnds[k][index[k - 1][face]][j] += coeff
    cx = ChainComplex([list(layer) for layer in cells], bnds, name)
    cx.validate()
    return cx


def circle_complex(segments=1, name="circle"):
    """Periodic 1-dimensional grid: `segments` vertices and edges."""
    if segments < 1:
        raise ComplexError("need at least one segment")
    verts = [("v", k) for k in range(segments)]
    edges = [("e", k) for k in range(segments)]
    entries = {}
    for k in range(segments):
        entries[(1, ("e", k))] = [(("v", (k + 1) % segments), 1), (("v", k), -1)]
    return build_complex([verts, edges], entries, name)


def product_complex(a: ChainComplex, b: ChainComplex, name="") -> ChainComplex:
    """Tensor product with cells (s, t) and the graded Leibniz boundary."""
    dim = a.dim + b.dim
    cells = [[] for _ in range(dim + 1)]
    for ka, layer_a in enumerate(a.cells):
        for kb, layer_b in enumerate(b.cells):
            for s in layer_a:
                for t in layer_b:
                    cells[ka + kb].append((s, t))
    index = [{label: i for i, label in enumerate(layer)} for layer in cells]
    bnds = _empty_boundaries(cells)
    for ka, layer_a in enumerate(a.cells):
        for kb, layer_b in enumerate(b.cells):
            k = ka + kb
            if k == 0:
                continue
            sign = (-1) ** ka
            for s in layer_a:
                for t in layer_b:
                    col = index[k][(s, t)]
                    for face, c in a.faces(ka, s):
                        bnds[k][index[k - 1][(face, t)]][col] += c
                    for face, c in b.faces(kb, t):
                        bnds[k][index[k - 1][(s, face)]][col] += sign * c
    cx = ChainComplex(cells, bnds, name or f"{a.name}x{b.name}")
    cx.validate()
    return cx


def torus_complex(n, segments=1, name=None):
    """Cubical n-torus as an n-fold product of periodic circles."""
    cx = circle_complex(segments, "S1")
    for _ in range(n - 1):
        cx = product_complex(cx, circle_complex(segments, "S1"))
    cx.name = name or f"T{n}(grid {segments})"
    return cx


@dataclass
class CellularMap:
    """Chain-level cellular map: cell label -> [(image label, coeff), ...].

    Cells mapped degenerately (image of lower dimension) map to the empty
    list.  Only needs to be defined on the cells it is used on.
    """

    images: dict

    def __call__(self, label):
        return self.images.get(label, [])


def quotient_complex(total: ChainComplex, sub_labels, target: ChainComplex,
                     chain_map: CellularMap, name="") -> ChainComplex:
    """Pushout of total <- sub -> target along a cellular surjection.

    sub_labels: set of labels per dimension (or flat set) forming a
    subcomplex of total; chain_map sends those cells to target chains.
    The result keeps target's cells and total's cells outside the
    subcomplex; boundary chains through the subcomplex are rewritten by the
    map.
    """
    flat_sub = set()
    for item in sub_labels:
        flat_sub.add(item)

    # subcomplex closure check: faces of sub cells must be sub cells
    for k in range(1, total.dim + 1):
        for label in total.cells[k]:
            if label not in flat_sub:
                continue
            for face, _ in total.faces(k, label):
                if face not in flat_sub:
                    raise ComplexError(
                        f"{label} is in the subcomplex but its face {face} is not")

    # the identification map must commute with boundaries on the subcomplex
    for k in range(1, total.dim + 1):
        for label in total.cells[k]:
            if label not in flat_sub:
                continue
            push = {}
            for face, c in total.faces(k, label):
                for img, ic in chain_map(face):
                    push[img] = push.get(img, 0) + c * ic
            pull = {}
            for img, ic in chain_map(label):
                for tface, c in target.faces(k, img):
                    pull[tface] = pull.get(tface, 0) + ic * c
            keys = set(push) | set(pull)
            if any(push.get(key, 0) != pull.get(key, 0) for key in keys):
                raise ComplexError(f"identification map is not cellular at {label}")

    dim = max(total.dim, target.dim)
    cells = [[] for _ in range(dim + 1)]
    for k in range(target.dim + 1):
        for label in target.cells[k]:
            cells[k].append(("t", label))
    for k in range(total.dim + 1):
        for label in total.cells[k]:
            if label not in flat_sub:
                cells[k].append(("x", label))
    index = [{label: i for i, label in enumerate(layer)} for layer in cells]
    bnds = _empty_boundaries(cells)

    for k in range(1, target.dim + 1):
        for label in target.cells[k]:
            col = index[k][("t", label)]
            for face, c in target.faces(k, label):
                bnds[k][index[k - 1][("t", face)]][col] += c

    for k in range(1, total.dim + 1):
        for label in total.cells[k]:
            if label in flat_sub:
                continue
            col = index[k][("x", label)]
            for face, c in total.faces(k, label):
                if face in flat_sub:
                    for img, ic in chain_map(face):
                        bnds[k][index[k - 1][("t", img)]][col] += c * ic
                else:
                    bnds[k][index[k - 1][("x", face)]][col] += c

    cx = ChainComplex(cells, bnds, name or f"{total.name}/~")
    cx.validate()
    return cx


def point_complex(name="pt"):
    return ChainComplex([[("v", 0)]], [[]], name)


