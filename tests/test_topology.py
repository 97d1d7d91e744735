import ast
from pathlib import Path

import pytest

from syzlab import complexes
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
