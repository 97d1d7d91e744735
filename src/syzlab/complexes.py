"""Finite cellular chain complexes over the integers.

Complexes work on cell indices: the boundary of the j-th k-cell is a sparse
column of d_k, and labels only name the cells.  Products use the tensor rule
d(s x t) = d(s) x t + (-1)^dim(s) s x d(t).  Quotients are pushouts along a
cellular chain map defined on a subcomplex: the quotient keeps the target's
cells plus the source cells outside the subcomplex, rewriting boundaries
through the map.  Tori come from periodic cubical grids, so one complex
family serves both the coarse models and their subdivided versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .intlinalg import composes_to_zero, homology_groups, sparse_image


class ComplexError(ValueError):
    pass


class ChainComplex:
    """A chain complex that is valid by construction.

    cells[k] is a list of hashable labels.  chains holds the boundaries
    either as columns, per degree one ((face index, coeff), ...) per cell,
    ordered by face index without zeros (the form homology() hands to
    homology_groups), or as a dict mapping (k, label) to [(face label,
    coeff), ...], which is read into columns: repeated faces summed, zeros
    dropped, a cell missing from it with zero boundary, an unknown cell or
    face a ComplexError.  The constructor checks d o d = 0, raising
    ComplexError on a nonzero square.
    """

    def __init__(self, cells, chains, name=""):
        self.cells = [list(layer) for layer in cells]
        self.name = name
        self._chains = self._columns(chains) if isinstance(chains, dict) else chains
        self.validate()

    def _columns(self, chains):
        columns = [[()] * len(layer) for layer in self.cells]
        for (k, label), faces in chains.items():
            j = self.index[k].get(label) if 0 < k <= self.dim else None
            if j is None:
                raise ComplexError(f"{label} is not a {k}-cell with a boundary in {self.name}")
            lower, acc = self.index[k - 1], {}
            for face, c in faces:
                i = lower.get(face)
                if i is None:
                    raise ComplexError(
                        f"face {face} of {label} is not a {k - 1}-cell of {self.name}")
                acc[i] = acc.get(i, 0) + c
            columns[k][j] = tuple((i, acc[i]) for i in sorted(acc) if acc[i])
        return columns

    @cached_property
    def index(self):
        """Per degree, {label: cell index}, built on first use."""
        return [{label: i for i, label in enumerate(layer)} for layer in self.cells]

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
        chain, layer = self._chains[k][self.index[k][label]], self.cells[k - 1]
        return tuple((layer[i], c) for i, c in chain)

    def validate(self):
        """Check d o d = 0: d_{k-1} d_k as a sparse product."""
        for k in range(2, self.dim + 1):
            if not composes_to_zero(self._chains[k - 1], self._chains[k]):
                raise ComplexError(f"boundary square nonzero at degree {k} in {self.name}")
        return True

    def boundary_matrix(self, k):
        """Dense integer matrix of d_k: C_k -> C_{k-1}, one column per k-cell."""
        mat = [[0] * len(self.cells[k]) for _ in self.cells[k - 1]]
        for j, chain in enumerate(self._chains[k]):
            for i, c in chain:
                mat[i][j] = c
        return mat

    def homology(self):
        """List of (free_rank, divisors) per degree."""
        return homology_groups(self._chains, self.cell_counts())


def circle_complex(segments=1, name="circle"):
    """Periodic 1-dimensional grid: `segments` vertices and edges."""
    if segments < 1:
        raise ComplexError("need at least one segment")
    verts = [("v", k) for k in range(segments)]
    edges = [("e", k) for k in range(segments)]
    entries = {(1, ("e", k)): [(("v", (k + 1) % segments), 1), (("v", k), -1)]
               for k in range(segments)}
    return ChainComplex([verts, edges], entries, name)


def product_complex(a: ChainComplex, b: ChainComplex, name="") -> ChainComplex:
    """Tensor product with cells (s, t) and the graded Leibniz boundary.

    Degree k holds the blocks a_ka x b_kb with ka + kb = k in order of ka,
    each s-major, so cell (s, t) of block (ka, kb) has index
    start[ka, kb] + s * len(b_kb) + t.  A column is its d(s) x t faces, in
    block (ka - 1, kb), then its s x d(t) faces, in block (ka, kb - 1), so
    it comes out sorted.
    """
    nb = b.cell_counts()
    cells = [[] for _ in range(a.dim + b.dim + 1)]
    columns = [[] for _ in cells]
    start = {}
    for ka, (layer_a, cols_a) in enumerate(zip(a.cells, a._chains)):
        for kb, (layer_b, cols_b) in enumerate(zip(b.cells, b._chains)):
            start[ka, kb] = len(cells[ka + kb])
            cells[ka + kb] += [(s, t) for s in layer_a for t in layer_b]
            left, right, sign = start.get((ka - 1, kb)), start.get((ka, kb - 1)), (-1) ** ka
            cols_b = [[(i, sign * c) for i, c in col] for col in cols_b]
            for s, col_a in enumerate(cols_a):
                base = [(left + i * nb[kb], c) for i, c in col_a]
                shift = right + s * nb[kb - 1] if kb else 0
                columns[ka + kb] += [tuple([(i + t, c) for i, c in base]
                                           + [(shift + i, c) for i, c in col_b])
                                     for t, col_b in enumerate(cols_b)]
    return ChainComplex(cells, columns, name or f"{a.name}x{b.name}")


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
    map.  It works on per-degree subcomplex masks and index remaps.
    """
    flat_sub = set(sub_labels)
    pad = range(max(total.dim, target.dim) - target.dim)
    cells = [[("t", label) for label in layer] for layer in target.cells] + [[] for _ in pad]
    columns = [list(layer) for layer in target._chains] + [[] for _ in pad]
    # per degree: which cells are in the subcomplex, their images in target
    # and the new index of each kept cell; degree-0 columns are empty, so
    # the values for the degree below are read only from degree 1 on
    below, images_below, remap_below = [], {}, {}
    for k, (layer, chains) in enumerate(zip(total.cells, total._chains)):
        index, boundaries = ((target.index[k], target._chains[k]) if k <= target.dim
                             else ({}, []))
        inside, images = [label in flat_sub for label in layer], {}
        # the subcomplex must be closed under faces, and the identification
        # map must commute with boundaries on it
        for j in compress(range(len(layer)), inside):
            for i, _ in chains[j]:
                if not below[i]:
                    raise ComplexError(f"{layer[j]} is in the subcomplex "
                                       f"but its face {total.cells[k - 1][i]} is not")
            images[j] = [(index.get(img), c) for img, c in chain_map(layer[j])]
            if any(i is None for i, _ in images[j]):
                raise ComplexError(f"identification map sends {layer[j]} outside the "
                                   f"{k}-cells of {target.name}: {chain_map(layer[j])}")
            push, pull = sparse_image(chains[j], images_below), sparse_image(images[j], boundaries)
            if any(push.get(i, 0) != pull.get(i, 0) for i in push.keys() | pull.keys()):
                raise ComplexError(f"identification map is not cellular at {layer[j]}")

        # the kept cells follow the target's, in order; a face in the
        # subcomplex goes through the map
        kept = [j for j, x in enumerate(inside) if not x]
        remap = dict(zip(kept, range(len(cells[k]), len(cells[k]) + len(kept))))
        cells[k] += [("x", layer[j]) for j in kept]
        for j in kept:
            column = tuple((remap_below[i], c) for i, c in chains[j] if not below[i])
            if len(column) < len(chains[j]):
                through = [(i, c) for i, c in chains[j] if below[i]]
                pushed = sparse_image(through, images_below).items()
                column = tuple(sorted((i, x) for i, x in pushed if x)) + column
            columns[k].append(column)
        below, images_below, remap_below = inside, images, remap
    return ChainComplex(cells, columns, name or f"{total.name}/~")


def point_complex(name="pt"):
    return ChainComplex([[("v", 0)]], {}, name)
