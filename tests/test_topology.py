import ast
import re
from pathlib import Path

import pytest

from syzlab import complexes, fibre_models
from syzlab.complexes import (
    CellularMap,
    ChainComplex,
    ComplexError,
    circle_complex,
    point_complex,
    product_complex,
    quotient_complex,
    torus_complex,
)
from syzlab.fibre_models import (
    MODEL_NAMES,
    V0,
    MODEL_TABLE,
    ModelError,
    Tori,
    build_model,
    cohomology_of_models,
    fibre_type_report,
    integral_cohomology,
    model_cohomology,
    nodal_curve_complex,
    one_point_curve_complex,
)
from syzlab.intlinalg import mat_mul, rank_and_divisors, smith_normal_form
from syzlab.scenarios import run_scenario_doc


class TestComplexMachinery:
    def test_circle(self):
        c = circle_complex(1)
        assert c.cell_counts() == [1, 1]
        assert c.homology() == [(1, []), (1, [])]
        c2 = circle_complex(3)
        assert c2.homology() == [(1, []), (1, [])]

    def test_torus_minimal(self):
        t2 = torus_complex(2, 1)
        assert t2.cell_counts() == [1, 2, 1]
        assert t2.homology() == [(1, []), (2, []), (1, [])]
        t3 = torus_complex(3, 1)
        assert t3.cell_counts() == [1, 3, 3, 1]
        assert t3.homology() == [(1, []), (3, []), (3, []), (1, [])]

    def test_boundary_squares_vanish(self):
        for n in (1, 2, 3):
            for grid in (1, 2):
                torus_complex(n, grid).validate()

    def test_faces_are_boundary_columns(self):
        t2 = torus_complex(2, 2)
        for k in (1, 2):
            matrix = t2.boundary_matrix(k)
            for j, label in enumerate(t2.cells[k]):
                column = tuple((face, matrix[i][j])
                               for i, face in enumerate(t2.cells[k - 1])
                               if matrix[i][j])
                assert t2.faces(k, label) == column
        assert t2.faces(0, t2.cells[0][0]) == ()

    def test_nonzero_square_rejected_at_construction(self):
        # the disc's edge boundary is v1 - v0, but the face claims 2e
        v0, v1, e, f = ("v", 0), ("v", 1), ("e", 0), ("F", 0)
        with pytest.raises(ComplexError, match="boundary square nonzero"):
            ChainComplex([[v0, v1], [e], [f]],
                         {(1, e): [(v1, 1), (v0, -1)], (2, f): [(e, 2)]})

    def test_unknown_face_rejected_at_construction(self):
        with pytest.raises(ComplexError, match="not a 0-cell"):
            ChainComplex([[("v", 0)], [("e", 0)]], {(1, ("e", 0)): [(("v", 1), 1)]})

    def test_chains_are_summed_and_ordered(self):
        v0, v1, e = ("v", 0), ("v", 1), ("e", 0)
        cx = ChainComplex([[v0, v1], [e]],
                          {(1, e): [(v1, 1), (v0, 2), (v1, 0), (v0, -3)]})
        assert cx.faces(1, e) == ((v0, -1), (v1, 1))
        assert cx.boundary_matrix(1) == [[-1], [1]]

    def test_quotient_rejects_non_subcomplex(self):
        t2 = torus_complex(2, 2)
        # a single edge without its endpoints is not closed under faces
        edge = [l for l in t2.cells[1]][0]
        with pytest.raises(ComplexError):
            quotient_complex(t2, [edge], point_complex(), CellularMap({edge: []}))

    def test_quotient_rejects_non_cellular_map(self):
        t2 = torus_complex(2, 1)
        sub = [l for l in t2.cells[0]] + [l for l in t2.cells[1]]
        # vertices mapped inconsistently with edge boundaries
        images = {l: [] for l in sub}
        c = circle_complex(2)
        images[t2.cells[0][0]] = [(("v", 0), 1)]
        images[t2.cells[1][0]] = [(("e", 0), 1)]
        images[t2.cells[1][1]] = [(("e", 0), 1)]
        with pytest.raises(ComplexError):
            quotient_complex(t2, sub, c, CellularMap(images))

    @pytest.mark.parametrize("total, sub, image", [
        (circle_complex(1), [("v", 0)], ("w", 9)),
        # a vertex and its loop, the loop sent to an edge the target lacks
        (circle_complex(1), [("v", 0), ("e", 0)], ("e", 3)),
    ])
    def test_quotient_rejects_image_outside_target(self, total, sub, image):
        images = {label: [] for label in sub}
        images[sub[-1]] = [(image, 1)]
        with pytest.raises(ComplexError, match=re.escape(
                f"sends {sub[-1]} outside the {len(sub) - 1}-cells of pt: {[(image, 1)]}")):
            quotient_complex(total, sub, point_complex(), CellularMap(images))

    def test_product_torus_agrees(self):
        direct = torus_complex(2, 2)
        via_product = product_complex(circle_complex(2), circle_complex(2))
        assert direct.homology() == via_product.homology()


class TestCurveModels:
    def test_nodal_curve(self):
        c = nodal_curve_complex()
        assert c.homology() == [(1, []), (1, []), (1, [])]

    def test_one_point_curve_is_sphere(self):
        c = one_point_curve_complex()
        assert c.homology() == [(1, []), (0, []), (1, [])]


class TestFibreModels:
    def test_t3_smooth_fibre(self):
        res = integral_cohomology(build_model("T3"))
        assert res.ranks == [1, 3, 3, 1]
        assert all(not t for t in res.torsion)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_expected_types(self, name):
        res = model_cohomology(name)
        expected = MODEL_TABLE[name][0]
        assert (res.ranks[1], res.ranks[2]) == expected

    def test_sphere_pattern(self):
        res = model_cohomology("M00")
        assert res.ranks == [1, 0, 0, 1]
        assert all(not t for t in res.torsion)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_top_and_bottom_classes(self, name):
        res = model_cohomology(name)
        assert res.ranks[0] == 1
        assert res.ranks[3] == 1

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_subdivision_invariance(self, name):
        """One grid refinement must not change the cohomology."""
        coarse = model_cohomology(name, 1)
        fine = model_cohomology(name, 2)
        pad = lambda r: (r.ranks + [0] * (4 - len(r.ranks)),
                         [list(t) for t in r.torsion] + [[]] * (4 - len(r.torsion)))
        assert pad(coarse) == pad(fine)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_subdivision_invariance_grid3(self, name):
        """Two more refinements (grid 1 against grid 3) keep the cohomology."""
        coarse = model_cohomology(name, 1)
        fine = model_cohomology(name, 3)
        pad = lambda r: (r.ranks + [0] * (4 - len(r.ranks)),
                         [list(t) for t in r.torsion] + [[]] * (4 - len(r.torsion)))
        assert pad(coarse) == pad(fine)

    @pytest.mark.parametrize("grid", [4, 5, 6])
    def test_subdivision_invariance_fine_grids(self, grid):
        """All eight models at grids 4 to 6, on one shared set of tori,
        match grid 1."""
        pad = lambda r: (r.ranks + [0] * (4 - len(r.ranks)),
                         [list(t) for t in r.torsion] + [[]] * (4 - len(r.torsion)))
        coarse = cohomology_of_models(MODEL_NAMES, 1)
        fine = cohomology_of_models(MODEL_NAMES, grid)
        assert {n: pad(r) for n, r in fine.items()} == {n: pad(r) for n, r in coarse.items()}

    def test_torsion_reported_not_asserted(self):
        # the reports carry torsion lists; the models happen to be torsion-free
        rep = fibre_type_report()
        for row in rep["rows"]:
            assert isinstance(row["torsion"], list)

    def test_unknown_model(self):
        with pytest.raises(ModelError):
            build_model("M99")


class TestReport:
    def test_full_report(self):
        rep = fibre_type_report()
        assert rep["expected_match"]
        assert rep["pairing_ok"]
        assert len(rep["rows"]) == 8

    def test_pairing_fails_without_partner(self):
        partial = {name: model_cohomology(name) for name in MODEL_NAMES
                   if name != "M10"}
        rep = fibre_type_report(partial)
        assert not rep["pairing_ok"]
        assert rep["pairing_audit"]["(0,1)"] is False

    def test_two_models_of_middle_type(self):
        both = [name for name, (t, _) in MODEL_TABLE.items() if t == (1, 1)]
        assert len(both) == 2
        a, b = (model_cohomology(name) for name in both)
        # report any cohomological difference between the two realisations
        assert a.as_dict() == b.as_dict()


class TestOneTorusPerRequest:
    def built(self, monkeypatch):
        names = []
        init = ChainComplex.__init__

        def counting_init(self, cells, chains, name=""):
            names.append(name)
            init(self, cells, chains, name)

        monkeypatch.setattr(ChainComplex, "__init__", counting_init)
        return names

    def test_all_models_share_one_circle_and_torus(self, monkeypatch):
        names = self.built(monkeypatch)
        cohomology_of_models(MODEL_NAMES, 3)
        assert [names.count(n) for n in ("S1", "T2", "T3")] == [1, 1, 1]

    def test_all_models_build_one_m21(self, monkeypatch):
        """M11b pinches the request's M21 quotient rather than a second one."""
        names = self.built(monkeypatch)
        cohomology_of_models(MODEL_NAMES, 2)
        assert names.count("M21") == 1

    def test_report_and_scenario_requests(self, monkeypatch):
        names = self.built(monkeypatch)
        fibre_type_report()
        assert names.count("T3") == 1
        names.clear()
        run_scenario_doc({"version": "1", "kind": "fibre",
                          "payload": {"models": "all", "grid": 2}})
        assert names.count("T3") == 1

    def test_tori_of_another_grid_rejected(self):
        with pytest.raises(ModelError, match="grid 3 given for grid 2"):
            build_model("M21", 2, Tori(3))

    def test_m22_and_m11a_build_no_three_torus(self, monkeypatch):
        names = self.built(monkeypatch)
        cohomology_of_models(["M22", "M11a"], 2)
        assert "T3" not in names
        assert [names.count(n) for n in ("S1", "T2")] == [1, 1]


class TestSmithApplications:
    def test_klein_bottle_torsion(self):
        # one vertex, two edges, one face attached along a b a^-1 b
        from syzlab.complexes import ChainComplex

        v, a, b = ("v", 0), ("a", 0), ("b", 0)
        cx = ChainComplex([[v], [a, b], [("F", 0)]],
                          {(1, a): [(v, 1), (v, -1)],
                           (2, ("F", 0)): [(a, 1), (b, 1), (a, -1), (b, 1)]},
                          "klein")
        assert cx.boundary_matrix(1) == [[0, 0]]
        assert cx.boundary_matrix(2) == [[0], [2]]
        assert cx.homology() == [(1, []), (1, [2]), (0, [])]
        res = integral_cohomology(cx)
        assert res.ranks == [1, 1, 0]
        assert res.torsion == [[], [], [2]]

    def test_divisor_chain(self):
        _, d = rank_and_divisors([[2, 0], [0, 4]])
        assert d == [2, 4]
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))


class TestValidateOnce:
    def test_one_square_check_per_complex_built(self, monkeypatch):
        built, checked = [], []
        init, validate = ChainComplex.__init__, ChainComplex.validate

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counting_validate(self):
            checked.append(1)
            return validate(self)

        monkeypatch.setattr(ChainComplex, "__init__", counting_init)
        monkeypatch.setattr(ChainComplex, "validate", counting_validate)
        integral_cohomology(build_model("M21", 2))
        assert built and len(checked) == len(built)

    def test_validate_called_only_in_the_constructor(self):
        """No builder or consumer re-checks a complex it did not construct."""
        src = Path(complexes.__file__).resolve().parent
        for name in ("complexes.py", "fibre_models.py"):
            tree = ast.parse((src / name).read_text())
            inits = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
            allowed = {id(call) for fn in inits for call in ast.walk(fn)}
            for call in ast.walk(tree):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "validate"):
                    assert id(call) in allowed, f"validate() at {name}:{call.lineno}"


# The label-form builders the index form replaced, kept as the oracle: they
# build each chain from nested labels through faces() and let the label
# constructor sum, order and index it.
def _label_product(a, b, name=""):
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


def _label_quotient(total, sub_labels, target, chain_map, name=""):
    flat_sub = set(sub_labels)
    for k in range(1, total.dim + 1):
        for label in total.cells[k]:
            if label not in flat_sub:
                continue
            for face, _ in total.faces(k, label):
                if face not in flat_sub:
                    raise ComplexError(
                        f"{label} is in the subcomplex but its face {face} is not")
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


def _label_extract(cx, labels, name=""):
    keep = set(labels)
    cells = [[l for l in layer if l in keep] for layer in cx.cells]
    while cells and not cells[-1]:
        cells.pop()
    chains = {(k, label): cx.faces(k, label)
              for k in range(1, len(cells)) for label in cells[k]}
    return ChainComplex(cells, chains, name)


def _all_complexes(grid):
    tori = Tori(grid)
    out = {name: build_model(name, grid, tori) for name in MODEL_NAMES + ("T3",)}
    out["T2"] = tori.t2
    out["nodal"] = fibre_models.nodal_curve_complex(grid)
    out["onepoint"] = fibre_models.one_point_curve_complex(grid)
    return out


class TestIndexForm:
    @pytest.mark.parametrize("grid", [1, 2, 3, 4, 5, 6])
    def test_cells_and_chains_match_the_label_form(self, grid, monkeypatch):
        index_form = _all_complexes(grid)
        monkeypatch.setattr(fibre_models, "product_complex", _label_product)
        monkeypatch.setattr(fibre_models, "quotient_complex", _label_quotient)
        monkeypatch.setattr(fibre_models, "extract_subcomplex", _label_extract)
        label_form = _all_complexes(grid)
        assert set(index_form) == set(label_form)
        for name, cx in index_form.items():
            assert cx.cells == label_form[name].cells, name
            assert cx._chains == label_form[name]._chains, name
            assert cx.name == label_form[name].name

    @pytest.mark.parametrize("n, grid", [(2, 1), (2, 3), (3, 1), (3, 2), (3, 4)])
    def test_tori_match_the_label_form(self, n, grid):
        cx = circle_complex(grid, "S1")
        for _ in range(n - 1):
            cx = _label_product(cx, circle_complex(grid, "S1"))
        torus = torus_complex(n, grid)
        assert (torus.cells, torus._chains) == (cx.cells, cx._chains)

    def test_product_columns_are_sorted_and_merged(self):
        for cx in (torus_complex(3, 3), product_complex(nodal_curve_complex(2), circle_complex(2))):
            for layer in cx._chains:
                for column in layer:
                    rows = [i for i, _ in column]
                    assert rows == sorted(set(rows)) and all(c for _, c in column)

    def test_cancelled_faces_leave_no_zero_entry(self):
        """Both ends of each edge of a two-edge circle go to one vertex, so
        the rewritten boundaries cancel to empty columns: a wedge of two
        circles."""
        circle = circle_complex(2)
        collapse = CellularMap({v: [(("v", 0), 1)] for v in circle.cells[0]})
        args = circle, circle.cells[0], point_complex(), collapse
        wedge = quotient_complex(*args)
        assert wedge._chains == _label_quotient(*args)._chains == [[()], [(), ()]]
        assert wedge.homology() == [(1, []), (2, [])]

    def test_non_closed_subcomplex_rejected(self):
        tori = Tori(2)
        sub = [label for label, comps in tori.t3_cells if V0 in comps]
        sub.remove(((V0, V0), V0))
        with pytest.raises(ComplexError, match=r"is in the subcomplex but its face "
                                               r"\(\(\('v', 0\), \('v', 0\)\), \('v', 0\)\) is not"):
            quotient_complex(tori.t3, sub, point_complex(), CellularMap({}))

    def test_non_cellular_map_rejected(self):
        tori = Tori(2)
        images = {label: [(c3, 1)] if c1[0] == c2[0] == "v" else []
                  for label, (c1, c2, c3) in tori.t3_cells
                  if c1 == V0 or c2 == V0 or c3 == V0}
        quotient_complex(tori.t3, list(images), tori.circle, CellularMap(images))
        edge = ((V0, V0), ("e", 1))
        images[edge] = [(("e", 1), -1)]
        with pytest.raises(ComplexError, match=r"identification map is not cellular at "
                                               + re.escape(str(edge))):
            quotient_complex(tori.t3, list(images), tori.circle, CellularMap(images))

    def test_nonzero_square_rejected_from_columns(self):
        t2 = torus_complex(2, 2)
        columns = [list(layer) for layer in t2._chains]
        ChainComplex(t2.cells, columns, "good")
        columns[2][0] = tuple((i, 2 * c if i == columns[2][0][0][0] else c)
                              for i, c in columns[2][0])
        with pytest.raises(ComplexError, match="boundary square nonzero at degree 2 in bad"):
            ChainComplex(t2.cells, columns, "bad")

    def test_models_read_no_labelled_faces(self, monkeypatch):
        calls = []
        faces = ChainComplex.faces

        def counting(self, k, label):
            calls.append((self.name, k))
            return faces(self, k, label)

        monkeypatch.setattr(ChainComplex, "faces", counting)
        cohomology_of_models(MODEL_NAMES, 2)
        assert calls == []
