"""Integer cohomology of the singular torus-fibre models.

Each model is a quotient of the cubical 3-torus by collapsing a coordinate
subcomplex, built as a pushout along an explicit cellular map.  The grid
parameter subdivides every circle factor, so each model can be computed in
a coarse and a refined cell structure and the answers compared.

Cell lists at grid 1 (labels are nested circle cells, v = vertex, e = edge):

  T3     v, three e's, three 2-cells, one 3-cell          (1, 3, 3, 1)
  nodal  2-torus with one coordinate circle collapsed     (1, 1, 1)
  onepoint  2-torus with both coordinate circles collapsed (1, 0, 1); sphere
  M22 = nodal x circle
  M12 = T3 with {x1 = 0} 2-torus collapsed to a point
  M21 = T3 with (fig-eight) x circle projected onto the fig-eight
  M11a = onepoint x circle
  M11b = M21 with one loop of the fig-eight collapsed
  M01 = T3 with (fig-eight) x circle collapsed to a point
  M10 = T3 with (fig-eight) x circle projected to the last circle and the
        {x3 = 0} 2-torus collapsed to that circle's base vertex
  M00 = T3 with the whole 2-skeleton collapsed; a 3-sphere pattern
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import MODEL_TABLE
from .complexes import (
    CellularMap,
    ChainComplex,
    ComplexError,
    circle_complex,
    point_complex,
    product_complex,
    quotient_complex,
)

V0 = ("v", 0)

MODEL_NAMES = tuple(MODEL_TABLE)


class ModelError(ValueError):
    pass


def axis_components(label, n):
    """Flatten a nested product-cell label into its per-axis circle cells."""
    return (label,) if n == 1 else axis_components(label[0], n - 1) + (label[1],)


def cells_where(cells, predicate):
    """Labels of the (label, axis components) pairs whose components satisfy
    the predicate."""
    return [label for label, comps in cells if predicate(comps)]


def extract_subcomplex(cx: ChainComplex, labels, name=""):
    keep = set(labels)
    cells = [[l for l in layer if l in keep] for layer in cx.cells]
    while cells and not cells[-1]:
        cells.pop()
    # a face outside the kept cells makes the constructor raise ComplexError
    chains = {(k, label): [(cx.cells[k - 1][i], c) for i, c in chain]
              for k in range(1, len(cells))
              for label, chain in zip(cx.cells[k], cx._chains[k]) if label in keep}
    return ChainComplex(cells, chains, name)


def _fig8_predicate(comps):
    return comps[0] == V0 or comps[1] == V0


class Tori:
    """The circle, 2-torus and 3-torus of one grid, the (label, axis
    components) pairs of each torus's cells in cell order, and the M21
    quotient, each built on first use.

    One fibre request makes one and passes it to every model it builds, so
    all eight models share one 3-torus, M22 and M11a build none, and M11b
    pinches the request's M21.  It lives as long as the request.
    """

    def __init__(self, grid=1):
        self.grid = grid

    @cached_property
    def circle(self):
        return circle_complex(self.grid, "S1")

    @cached_property
    def t2(self):
        return product_complex(self.circle, self.circle, "T2")

    @cached_property
    def t3(self):
        return product_complex(self.t2, self.circle, "T3")

    @cached_property
    def t2_cells(self):
        return [(label, axis_components(label, 2)) for layer in self.t2.cells for label in layer]

    @cached_property
    def t3_cells(self):
        return [(label, axis_components(label, 3)) for layer in self.t3.cells for label in layer]

    @cached_property
    def m21(self):
        """T3 with (fig-eight) x circle projected onto the fig-eight."""
        fig8 = extract_subcomplex(self.t2, cells_where(self.t2_cells, _fig8_predicate), "fig8")
        images = {label: [((c1, c2), 1)] if c3[0] == "v" else []
                  for label, (c1, c2, c3) in self.t3_cells if _fig8_predicate((c1, c2))}
        return quotient_complex(self.t3, list(images), fig8, CellularMap(images), name="M21")


def _nodal(tori):
    return _pinch(tori.t2, cells_where(tori.t2_cells, lambda c: c[0] == V0), "nodal")


def _one_point(tori):
    return _pinch(tori.t2, cells_where(tori.t2_cells, _fig8_predicate), "onepoint")


def nodal_curve_complex(grid=1):
    """2-torus with the {x1 = 0} circle collapsed to a point."""
    return _nodal(Tori(grid))


def one_point_curve_complex(grid=1):
    """2-torus with both coordinate circles collapsed; a 2-sphere."""
    return _one_point(Tori(grid))


def _pinch(cx: ChainComplex, labels, name):
    """cx with the subcomplex on labels collapsed to the point's vertex V0."""
    vertices = set(cx.cells[0])
    collapse = CellularMap({l: [(V0, 1)] if l in vertices else [] for l in labels})
    return quotient_complex(cx, labels, point_complex(), collapse, name=name)


def build_model(name, grid=1, tori=None) -> ChainComplex:
    """Build the named quotient model as a validated chain complex, on the
    request's tori of that grid when given, else on new ones."""
    tori = tori or Tori(grid)
    if tori.grid != grid:
        raise ModelError(f"tori of grid {tori.grid} given for grid {grid}")
    if name == "T3":
        return tori.t3
    if name not in MODEL_TABLE:
        raise ModelError(f"unknown model {name!r}; choose from {MODEL_NAMES} or T3")

    if name == "M22":
        return product_complex(_nodal(tori), tori.circle, "M22")

    if name == "M11a":
        return product_complex(_one_point(tori), tori.circle, "M11a")

    t3 = tori.t3
    if name == "M12":
        return _pinch(t3, cells_where(tori.t3_cells, lambda c: c[0] == V0), "M12")

    if name == "M01":
        return _pinch(t3, cells_where(tori.t3_cells, _fig8_predicate), "M01")

    if name == "M00":
        return _pinch(t3, cells_where(tori.t3_cells, lambda c: V0 in c), "M00")

    if name == "M21":
        return tori.m21

    if name == "M11b":
        # contract the {x2 = 0} loop of the figure eight to the base point
        loop = [("t", l) for l in cells_where(tori.t2_cells, lambda c: c[1] == V0)]
        return _pinch(tori.m21, loop, "M11b")

    if name == "M10":
        images = {label: [(c3, 1)] if c1[0] == c2[0] == "v" else []
                  for label, (c1, c2, c3) in tori.t3_cells
                  if _fig8_predicate((c1, c2)) or c3 == V0}
        return quotient_complex(t3, list(images), tori.circle, CellularMap(images), name="M10")

    raise ModelError(f"unhandled model {name!r}")


@dataclass
class CohomologyResult:
    """Integer cohomology: free rank and torsion divisors per degree."""

    ranks: list
    torsion: list

    def as_dict(self):
        return {
            "ranks": list(self.ranks),
            "torsion": [list(t) for t in self.torsion],
        }


def integral_cohomology(cx: ChainComplex) -> CohomologyResult:
    """Exact cohomology over the integers via Smith normal form.

    Free parts match homology; the degree-k torsion equals the degree-(k-1)
    homology torsion by universal coefficients.
    """
    hom = cx.homology()
    ranks = [free for free, _ in hom]
    torsion = [[]]
    for k in range(1, len(hom)):
        torsion.append(list(hom[k - 1][1]))
    # euler characteristic cross-check against the cell counts
    chi_cells = cx.euler_characteristic()
    chi_ranks = sum((-1) ** k * r for k, r in enumerate(ranks))
    if chi_cells != chi_ranks:
        raise ComplexError(
            f"euler characteristic mismatch: cells {chi_cells} vs ranks {chi_ranks}")
    return CohomologyResult(ranks, torsion)


def model_cohomology(name, grid=1) -> CohomologyResult:
    return integral_cohomology(build_model(name, grid))


def cohomology_of_models(names, grid=1):
    """{name: CohomologyResult} for one request, its models sharing one
    circle, 2-torus and 3-torus."""
    tori = Tori(grid)
    return {name: integral_cohomology(build_model(name, grid, tori)) for name in names}


def fibre_type_report(results=None):
    """Table of (b1, b2) per model with the expected values and duality audit.

    results may be a precomputed {name: CohomologyResult}; missing models
    make the pairing audit fail.
    """
    if results is None:
        results = cohomology_of_models(MODEL_NAMES)
    rows = []
    all_match = True
    for name in results:
        if name not in MODEL_TABLE:
            raise ModelError(f"unknown model {name!r} in results")
    for name, (expected, desc) in MODEL_TABLE.items():
        if name not in results:
            continue
        res = results[name]
        ranks = res.ranks + [0] * (4 - len(res.ranks))
        got = (ranks[1], ranks[2])
        match = got == expected
        all_match &= match
        rows.append({
            "model": name,
            "b": tuple(ranks[:4]),
            "type": got,
            "expected": expected,
            "matches": match,
            "torsion": [list(t) for t in res.torsion],
            "description": desc,
        })
    present = {row["type"] for row in rows}
    pairing = {}
    for (m, n) in sorted(present):
        pairing[f"({m},{n})"] = (n, m) in present
    return {
        "rows": rows,
        "expected_match": all_match,
        "pairing_audit": pairing,
        "pairing_ok": all(pairing.values()),
    }
