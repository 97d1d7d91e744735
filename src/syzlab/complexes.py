"""Finite cellular chain complexes over the integers.

Complexes carry labelled cells per dimension and sparse boundary chains.
Products use the tensor rule d(s x t) = d(s) x t + (-1)^dim(s) s x d(t).
Quotients are pushouts along a cellular chain map defined on a subcomplex:
the quotient keeps the target's cells plus the source cells outside the
subcomplex, rewriting boundaries through the map.  Tori come from periodic
cubical grids, so one complex family serves both the coarse models and
their subdivided versions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import homology_groups


class ComplexError(ValueError):
    pass


class ChainComplex:
    """A chain complex that is valid by construction.

    cells[k] is a list of hashable labels.  chains maps (k, label) to the
    boundary of that k-cell as [(face label, coeff), ...]; a cell missing
    from it has zero boundary.  The constructor sums repeated faces, drops
    zero coefficients, orders each chain by face index and checks d o d = 0,
    raising ComplexError on an unknown cell or face or a nonzero square.
    Each chain is stored as ((face index, coeff), ...), a sparse column of
    d_k, which is the form homology() hands to homology_groups.
    """

    def __init__(self, cells, chains, name=""):
        self.cells = [list(layer) for layer in cells]
        self.name = name
        self.index = [{label: i for i, label in enumerate(layer)} for layer in self.cells]
        self._chains = [[()] * len(layer) for layer in self.cells]
        for (k, label), faces in chains.items():
            j = self.index[k].get(label) if 0 < k <= self.dim else None
            if j is None:
                raise ComplexError(f"{label} is not a {k}-cell with a boundary in {name}")
            lower, acc = self.index[k - 1], {}
            for face, c in faces:
                i = lower.get(face)
                if i is None:
                    raise ComplexError(f"face {face} of {label} is not a {k - 1}-cell of {name}")
                acc[i] = acc.get(i, 0) + c
            self._chains[k][j] = tuple((i, acc[i]) for i in sorted(acc) if acc[i])
        self.validate()

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
        """Check d o d = 0 cell by cell over the nonzero boundary entries."""
        for k in range(2, self.dim + 1):
            below = self._chains[k - 1]
            for chain in self._chains[k]:
                acc = {}
                for face, c in chain:
                    for f2, c2 in below[face]:
                        acc[f2] = acc.get(f2, 0) + c * c2
                if any(acc.values()):
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
    entries = {}
    for k in range(segments):
        entries[(1, ("e", k))] = [(("v", (k + 1) % segments), 1), (("v", k), -1)]
    return ChainComplex([verts, edges], entries, name)


def product_complex(a: ChainComplex, b: ChainComplex, name="") -> ChainComplex:
    """Tensor product with cells (s, t) and the graded Leibniz boundary."""
    dim = a.dim + b.dim
    cells = [[] for _ in range(dim + 1)]
    for ka, layer_a in enumerate(a.cells):
        for kb, layer_b in enumerate(b.cells):
            for s in layer_a:
                for t in layer_b:
                    cells[ka + kb].append((s, t))
    chains = {}
    for ka, layer_a in enumerate(a.cells):
        for kb, layer_b in enumerate(b.cells):
            if ka + kb == 0:
                continue
            sign = (-1) ** ka
            for s in layer_a:
                faces_s = a.faces(ka, s)
                for t in layer_b:
                    chains[(ka + kb, (s, t))] = (
                        [((face, t), c) for face, c in faces_s]
                        + [((s, face), sign * c) for face, c in b.faces(kb, t)])
    return ChainComplex(cells, chains, name or f"{a.name}x{b.name}")


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
    flat_sub = set(sub_labels)

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
    chains = {}
    for k in range(1, target.dim + 1):
        for label in target.cells[k]:
            chains[(k, ("t", label))] = [(("t", face), c)
                                         for face, c in target.faces(k, label)]

    for k in range(1, total.dim + 1):
        for label in total.cells[k]:
            if label in flat_sub:
                continue
            chain = chains[(k, ("x", label))] = []
            for face, c in total.faces(k, label):
                if face in flat_sub:
                    chain += [(("t", img), c * ic) for img, ic in chain_map(face)]
                else:
                    chain.append((("x", face), c))

    return ChainComplex(cells, chains, name or f"{total.name}/~")


def point_complex(name="pt"):
    return ChainComplex([[("v", 0)]], {}, name)


