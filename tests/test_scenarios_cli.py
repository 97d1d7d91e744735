import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from syzlab.cli import main
from syzlab.scenarios import (
    ScenarioError,
    load_scenario,
    run_scenario,
    run_scenario_doc,
    validate_scenario,
)

FLAT_SCENARIO = {
    "version": "1",
    "kind": "semiflat-check",
    "settings": {"grid": 8, "tol": 1e-8},
    "payload": {
        "n": 2,
        "box": [[-1, 1], [-1, 1]],
        "beta": [[{"im": "1"}, 0], [0, {"im": "1"}]],
        "flags": {"compatible": True},
    },
}

HITCHIN_CUBIC = {
    "version": "1",
    "kind": "hitchin",
    "payload": {
        "n": 2,
        "box": [[-1, 1], [-1, 1]],
        "potential": "(y1^2 + y2^2)/2 + y1^3/10",
    },
}


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSchema:
    def test_unknown_top_level_field_rejected(self):
        doc = dict(FLAT_SCENARIO)
        doc["extra"] = 1
        with pytest.raises(ScenarioError):
            validate_scenario(doc)

    def test_unknown_payload_field_rejected(self):
        doc = json.loads(json.dumps(FLAT_SCENARIO))
        doc["payload"]["mystery"] = True
        with pytest.raises(ScenarioError):
            validate_scenario(doc)

    def test_bad_version_rejected(self):
        doc = dict(FLAT_SCENARIO, version="2")
        with pytest.raises(ScenarioError):
            validate_scenario(doc)

    def test_settings_validated(self):
        doc = json.loads(json.dumps(FLAT_SCENARIO))
        doc["settings"]["tol"] = -1
        with pytest.raises(ScenarioError):
            validate_scenario(doc)

    @pytest.mark.parametrize("value, ok", [
        ("1/2", True), (3, True), (0.25, True),
        ({"re": "1/3", "im": 2}, True), ({"im": 0.5}, True),
        (True, False), (None, False), ([1, 2], False),
        ({"re": 1, "im": 2, "phase": 0}, False), ({"re": [1]}, False),
    ])
    def test_scalar_value_types(self, value, ok):
        doc = json.loads(json.dumps(FLAT_SCENARIO))
        doc["payload"]["beta"][0][1] = value
        k3 = {"version": "1", "kind": "k3", "payload": {
            "lattice": "U3", "E": [1, 0, 0, 0, 0, 0], "sigma0": [-1, 1, 0, 0, 0, 0],
            "omega": [value, 0, 1, 1, 0, 0]}}
        rational = not isinstance(value, dict)
        for doc, accepted in ((doc, ok), (k3, ok and rational)):
            if accepted:
                validate_scenario(doc)
            else:
                with pytest.raises(ScenarioError):
                    validate_scenario(doc)

    def test_seed_rejected(self):
        doc = json.loads(json.dumps(FLAT_SCENARIO))
        doc["settings"]["seed"] = 0
        with pytest.raises(ScenarioError):
            validate_scenario(doc)

    @pytest.mark.parametrize("kind, payload", [
        ("fibre", {"models": ["M21"]}),
        ("sheaf", {"rank": 1, "monodromy": [[[1]]]}),
        ("k3", {"lattice": "U2", "E": [1, 0, 0, 0], "sigma0": [-1, 1, 0, 0],
                "omega": [0, 0, 1, 1]}),
    ])
    def test_exact_kinds_take_no_settings(self, kind, payload):
        doc = {"version": "1", "kind": kind, "payload": payload}
        validate_scenario(doc)
        for settings in ({"grid": 9}, {"tol": 5}, {}):
            with pytest.raises(ScenarioError, match="take no settings"):
                validate_scenario(dict(doc, settings=settings))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))


class TestRunner:
    def test_flat_scenario_passes(self, tmp_path):
        report = run_scenario(write(tmp_path, FLAT_SCENARIO))
        assert report.passed
        names = {c["name"] for c in report.checks}
        assert "closedness.full_closedness" in names
        assert "structure.connection_curvature" in names

    def test_hitchin_cubic_fails_closedness(self, tmp_path):
        report = run_scenario(write(tmp_path, HITCHIN_CUBIC))
        assert not report.passed
        failing = {c["name"] for c in report.checks if not c["passed"]}
        assert "closedness.full_closedness" in failing

    def test_determinism_excluding_timings(self, tmp_path):
        path = write(tmp_path, FLAT_SCENARIO)
        a = run_scenario(path).as_dict()
        b = run_scenario(path).as_dict()
        a.pop("timings")
        b.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_fibre_scenario(self):
        doc = {"version": "1", "kind": "fibre",
               "payload": {"models": ["M21", "M12"], "grid": 1}}
        report = run_scenario_doc(doc)
        assert report.passed  # per-model matches and the (2,1)/(1,2) pairing

    def test_sheaf_scenario(self):
        mats = []
        for _ in range(12):
            mats += [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]]
        doc = {"version": "1", "kind": "sheaf",
               "payload": {"rank": 2, "monodromy": mats,
                           "expected_ranks": [0, 20, 0]}}
        report = run_scenario_doc(doc)
        assert report.passed
        assert report.outputs["euler_characteristic"] == -20

    def test_k3_scenario_with_double_mirror(self):
        doc = {
            "version": "1",
            "kind": "k3",
            "payload": {
                "lattice": "U3",
                "E": [1, 0, 0, 0, 0, 0],
                "sigma0": [-1, 1, 0, 0, 0, 0],
                "omega": [0, 0, 1, 1, 0, 0],
                "B": [0, 0, "1/2", "-1/2", 0, 0],
                "re_omega": [1, 1, 0, 0, 0, 0],
                "im_omega": [0, 0, 0, 0, 1, 1],
                "double_mirror": True,
            },
        }
        report = run_scenario_doc(doc)
        assert report.passed

    def test_k3_double_mirror_computes_first_mirror_once(self, monkeypatch):
        import syzlab.k3 as k3

        calls = []
        raw = k3.mirror_classes

        def counted(inp):
            calls.append(inp)
            return raw(inp)

        monkeypatch.setattr(k3, "mirror_classes", counted)
        doc = {"version": "1", "kind": "k3", "payload": {
            "lattice": "U3", "E": [1, 0, 0, 0, 0, 0], "sigma0": [-1, 1, 0, 0, 0, 0],
            "omega": [0, 0, 1, 1, 0, 0], "re_omega": [1, 1, 0, 0, 0, 0],
            "im_omega": [0, 0, 0, 0, 1, 1], "double_mirror": True}}
        report = run_scenario_doc(doc)
        assert report.passed
        assert any(c["name"].startswith("identity.") for c in report.checks)
        assert len(calls) == 2

    def test_k3_double_mirror_validates_each_input_once(self, monkeypatch):
        """The given input and the second mirror's input are each checked
        once, when they are constructed; everything else checks alignment."""
        import syzlab.k3 as k3

        calls = []
        raw = k3.validate

        def counted(inp):
            calls.append(inp)
            return raw(inp)

        monkeypatch.setattr(k3, "validate", counted)
        doc = {"version": "1", "kind": "k3", "payload": {
            "lattice": "U3", "E": [1, 0, 0, 0, 0, 0], "sigma0": [-1, 1, 0, 0, 0, 0],
            "omega": [0, 0, 1, 1, 0, 0], "B": [0, 0, "1/2", "-1/2", 0, 0],
            "re_omega": [1, 1, 0, 0, 0, 0], "im_omega": [0, 0, 0, 0, 1, 1],
            "double_mirror": True}}
        report = run_scenario_doc(doc)
        assert report.passed
        assert len(calls) == 2

    def test_dualize_scenario(self):
        doc = {
            "version": "1",
            "kind": "dualize",
            "payload": {
                "n": 2,
                "box": [[-1, 1], [-1, 1]],
                "beta": [[{"im": "2"}, 0], [0, {"im": "3"}]],
            },
        }
        report = run_scenario_doc(doc)
        assert report.passed


# a fibre run lists at least one of the eight models; an empty list would
# run no check and pass, and T3, the smooth fibre, is not a model
BAD_MODEL_LISTS = {"unknown_fibre_model": ["M99"], "smooth_fibre": ["T3"], "no_model": []}


class TestCli:
    def test_run_pass_exit_zero(self, tmp_path, capsys):
        code = main(["run", write(tmp_path, FLAT_SCENARIO)])
        assert code == 0
        assert "result: pass" in capsys.readouterr().out

    def test_verdict_failure_exit_one(self, tmp_path, capsys):
        code = main(["run", write(tmp_path, HITCHIN_CUBIC)])
        assert code == 1

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        assert main(["run", str(path)]) == 2

    def test_schema_error_exit_two(self, tmp_path):
        doc = dict(FLAT_SCENARIO, kind="unknown-kind")
        assert main(["run", write(tmp_path, doc)]) == 2

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_LISTS))
    def test_fibre_model_list_exit_two(self, case, tmp_path, capsys):
        """The schema rejects these before any cohomology runs; a bad entry
        is named by its own pointer."""
        doc = {"version": "1", "kind": "fibre", "payload": {"models": BAD_MODEL_LISTS[case]}}
        pointer = "/payload/models/0" if BAD_MODEL_LISTS[case] else "/payload/models"
        with pytest.raises(ScenarioError, match=f"^{pointer}: "):
            validate_scenario(doc)
        assert main(["run", write(tmp_path, doc)]) == 2
        assert f"scenario error: {pointer}: " in capsys.readouterr().err

    def test_seed_setting_and_flag_exit_two(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FLAT_SCENARIO))
        doc["settings"]["seed"] = 0
        assert main(["run", write(tmp_path, doc)]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["run", write(tmp_path, FLAT_SCENARIO), "--seed", "0"])
        assert exc.value.code == 2
        assert "result:" not in capsys.readouterr().out

    @pytest.mark.parametrize("kind, payload, failing", [
        ("semiflat-check", {"n": 2, "box": [[-1, 1], [-1, 1]],
                            "beta": [[{"im": "1"}, 1], [0, {"im": "1"}]]},
         {"compatible", "pointwise.symmetry"}),
        ("semiflat-check", {"n": 1, "box": [[-1, 1]], "beta": [[{"im": "-1"}]]},
         {"compatible", "pointwise.positivity"}),
        ("hitchin", {"n": 1, "box": [[-1, 1]], "potential": "-y1^2"}, {"compatible"}),
        # singular Im beta: V = 1/sqrt(det Im beta) is not finite
        ("semiflat-check", {"n": 2, "box": [[-1, 1], [-1, 1]],
                            "beta": [[{"im": "1"}, 0], [0, 0]]},
         {"compatible", "pointwise.positivity"}),
    ])
    def test_incompatible_beta_is_a_failed_verdict(self, tmp_path, capsys,
                                                   kind, payload, failing):
        doc = {"version": "1", "kind": kind, "payload": payload}
        assert main(["run", write(tmp_path, doc), "--format", "json"]) == 1

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        # strict JSON: a NaN or an infinity in the report is an error
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert {c["name"] for c in report["checks"] if not c["passed"]} == failing
        assert report["outputs"]["compatibility_error"]

    @pytest.mark.parametrize("argv", [
        ["fibre", "--model", "M21", "--grid", "9"],
        ["fibre", "--model", "M21", "--tol", "5"],
        ["sheaf", "--monodromy", "m.json", "--tol", "5"],
        ["k3", "--input", "k3.json", "--grid", "9"],
    ])
    def test_exact_subcommands_have_no_grid_or_tol(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_grid_on_exact_scenario_exit_two(self, tmp_path, capsys):
        doc = {"version": "1", "kind": "fibre", "payload": {"models": ["M21"]}}
        assert main(["run", write(tmp_path, doc), "--tol", "5"]) == 2
        assert "result:" not in capsys.readouterr().out

    def test_compatible_false_is_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FLAT_SCENARIO))
        doc["payload"]["flags"]["compatible"] = False
        assert main(["run", write(tmp_path, doc)]) == 2
        assert "result:" not in capsys.readouterr().out

    def test_json_output_and_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", write(tmp_path, FLAT_SCENARIO),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["tool"]["name"] == "syzlab"

    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 8

    def test_list_models_filter(self, capsys):
        assert main(["list-models", "--type", "1,1"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2

    def test_list_models_json(self, capsys):
        assert main(["list-models", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["model"] for row in rows} >= {"M00", "M22"}

    def test_fibre_subcommand(self, capsys):
        assert main(["fibre", "--model", "M21", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["outputs"]["table"][0]
        assert row["type"] == [2, 1]

    def test_sheaf_subcommand(self, tmp_path, capsys):
        mats = []
        for _ in range(12):
            mats += [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]]
        path = tmp_path / "monodromy.json"
        path.write_text(json.dumps({"rank": 2, "monodromy": mats}))
        assert main(["sheaf", "--monodromy", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ranks = [g["rank"] for g in payload["outputs"]["cohomology"]["groups"]]
        assert ranks == [0, 20, 0]

    def test_k3_subcommand(self, tmp_path, capsys):
        doc = {
            "lattice": "U2",
            "E": [1, 0, 0, 0],
            "sigma0": [-1, 1, 0, 0],
            "omega": [0, 0, 1, 1],
        }
        path = tmp_path / "mirror.json"
        path.write_text(json.dumps(doc))
        assert main(["k3", "--input", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"]["classes"]["omega_n_mirror_re"] == ["1", "1", "0", "0"]

    def test_conventions(self, capsys):
        assert main(["conventions"]) == 0
        text = capsys.readouterr().out
        assert "front slots" in text
        assert "omega = sum_i dx_i ^ dy_i" in text
        assert "(-1)^M" in text


def _beta_doc(kind, n, beta, **extra):
    payload = {"n": n, "box": [[-1, 1]] * n, "beta": beta, **extra}
    return {"version": "1", "kind": kind, "payload": payload}


_U2_K3 = {"lattice": "U2", "E": [1, 0, 0, 0], "sigma0": [-1, 1, 0, 0],
          "omega": [0, 0, 1, 1]}

# documents that pass the schema but whose data the library rejects
INVALID_DATA = {
    "grammar": _beta_doc("semiflat-check", 1, [[{"im": "2+tan(y1)"}]]),
    "periodicity": _beta_doc("semiflat-check", 1, [[{"im": "2+x1"}]]),
    "division_by_zero": _beta_doc("semiflat-check", 1, [[{"im": "1/0"}]]),
    "pole_on_sample_grid": _beta_doc("semiflat-check", 1, [[{"im": "1/y1^2"}]]),
    "box_not_matching_n": {"version": "1", "kind": "semiflat-check", "payload": {
        "n": 2, "box": [[-1, 1]], "beta": [[{"im": "1"}, 0], [0, {"im": "1"}]]}},
    "beta_not_n_by_n": _beta_doc("semiflat-check", 2, [[{"im": "1"}]]),
    "dualize_fibre_metric": _beta_doc(
        "dualize", 2, [[{"im": "2+sin(2*pi*x1)/2"}, 0], [0, {"im": "3"}]]),
    "yukawa_one_direction": _beta_doc(
        "yukawa", 2, [[{"im": "2"}, 0], [0, {"im": "3"}]],
        directions=[[[1, 0], [0, 1]]]),
    "monodromy_product_not_identity": {"version": "1", "kind": "sheaf", "payload": {
        "rank": 2, "monodromy": [[[1, 1], [0, 1]]]}},
    "monodromy_not_invertible": {"version": "1", "kind": "sheaf", "payload": {
        "rank": 2, "monodromy": [[[2, 0], [0, 1]]]}},
    "k3_fibre_not_isotropic": {"version": "1", "kind": "k3", "payload": dict(
        _U2_K3, E=[1, 1, 0, 0])},
    # lattice presets are spelled exactly: no aliases, no case folding
    "k3_lattice_alias": {"version": "1", "kind": "k3", "payload": dict(
        _U2_K3, lattice="U+U")},
    "k3_lattice_lower_case": {"version": "1", "kind": "k3", "payload": dict(
        _U2_K3, lattice="u2")},
    "k3_double_mirror_without_holomorphic_classes": {
        "version": "1", "kind": "k3", "payload": dict(_U2_K3, double_mirror=True)},
}


class TestInvalidData:
    @pytest.mark.parametrize("case", sorted(INVALID_DATA))
    def test_invalid_data_exit_two(self, case, tmp_path, capsys):
        doc = INVALID_DATA[case]
        validate_scenario(doc)
        assert main(["run", write(tmp_path, doc)]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_pole_on_sample_grid_is_named_without_warnings(self, tmp_path, capsys):
        path = write(tmp_path, INVALID_DATA["pole_on_sample_grid"])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main(["run", path]) == 2
        # a RuntimeWarning raised here is what would reach stderr
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        assert "not finite at the sample point y = (0.0,), x = (0.0,)" in capsys.readouterr().err

    def test_k3_double_mirror_is_never_skipped(self, tmp_path, capsys):
        path = tmp_path / "mirror.json"
        path.write_text(json.dumps(dict(_U2_K3, double_mirror=True)))
        assert main(["k3", "--input", str(path)]) == 2
        assert "holomorphic" in capsys.readouterr().err

    def test_internal_invariant_is_not_an_input_error(self, monkeypatch, tmp_path):
        import syzlab.sheaf as sheaf

        # a wrong sign on the prefix weight breaks d1 * d0 = 0
        weights = sheaf._prefix_weights
        monkeypatch.setattr(sheaf, "_prefix_weights", lambda mats, m: [
            [[-x for x in row] for row in w] for w in weights(mats, m)])
        doc = {"version": "1", "kind": "sheaf", "payload": {
            "rank": 2, "monodromy": [[[1, 1], [0, 1]], [[1, -1], [0, 1]]]}}
        assert main(["run", write(tmp_path, doc)]) == 3


SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
RANK_ONE = {"version": "1", "kind": "sheaf",
            "payload": {"rank": 1, "monodromy": [[[1]], [[1]]]}}


def _as_float(doc, key):
    out = json.loads(json.dumps(doc))
    payload = out["payload"] if "payload" in out else out
    payload[key] = float(payload[key])
    return out


@pytest.mark.parametrize("command, doc, key", [
    ("run", "flat_torus.json", "n"),
    ("run", "yukawa_n2.json", "n"),
    ("run", "hitchin_cubic.json", "n"),
    ("sheaf", "sheaf_24I1.json", "rank"),
    ("run", RANK_ONE, "rank"),
])
def test_integral_float_runs_as_its_integer(command, doc, key, tmp_path, capsys):
    """The schema's integers admit integral floats (2.0): such a document
    gives the same report, apart from its echo of the input and its
    timings, and exit code as its integer form."""
    if isinstance(doc, str):
        doc = json.loads((SCENARIOS / doc).read_text())
    results = []
    for version in (doc, _as_float(doc, key)):
        path = write(tmp_path, version)
        argv = ["sheaf", "--monodromy", path] if command == "sheaf" else ["run", path]
        code = main([*argv, "--format", "json"])
        captured = capsys.readouterr()
        assert "internal error" not in captured.err
        report = json.loads(captured.out)
        del report["scenario"], report["timings"]
        results.append((code, report))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1)


class TestThreadCap:
    def test_parallel_fibre_run(self):
        doc = {"version": "1", "kind": "fibre", "payload": {"models": "all"}}
        report = run_scenario_doc(doc)
        assert report.passed


def _with(doc, path, value):
    """A deep copy of doc with the entry at path (a key sequence) replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_NAN, _INF = float("nan"), float("inf")
_K3_DOC = {"version": "1", "kind": "k3", "payload": _U2_K3}

# (document, extra argv, JSON-pointer path the error names); Python's json
# reads NaN and Infinity, and the schema's number type admits them
NON_FINITE = {
    "tol_flag_nan": (FLAT_SCENARIO, ["--tol", "nan"], "/settings/tol"),
    "tol_flag_inf": (HITCHIN_CUBIC, ["--tol", "inf"], "/settings/tol"),
    "settings_tol_nan": (_with(FLAT_SCENARIO, ["settings", "tol"], _NAN), [],
                         "/settings/tol"),
    "box_nan": (_with(FLAT_SCENARIO, ["payload", "box", 0], [_NAN, 1]), [],
                "/payload/box/0/0"),
    "box_infinity": (_with(FLAT_SCENARIO, ["payload", "box", 0], [-1, _INF]), [],
                     "/payload/box/0/1"),
    "beta_im_nan": (_with(FLAT_SCENARIO, ["payload", "beta", 0, 0], {"im": _NAN}), [],
                    "/payload/beta/0/0/im"),
    "k3_omega_nan": (_with(_K3_DOC, ["payload", "omega", 0], _NAN), [],
                     "/payload/omega/0"),
    "k3_omega_infinity": (_with(_K3_DOC, ["payload", "omega", 2], _INF), [],
                          "/payload/omega/2"),
}


class TestCliContract:
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_number_exit_two(self, case, tmp_path, capsys):
        doc, flags, where = NON_FINITE[case]
        assert main(["run", write(tmp_path, doc), *flags]) == 2
        captured = capsys.readouterr()
        assert f"non-finite number at {where}" in captured.err
        assert "result:" not in captured.out

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["run", write(tmp_path, FLAT_SCENARIO), "--out", str(out)]) == 2
        assert "cannot write report" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["a,b", "1", "1,1,1", "-1,0", ""])
    def test_malformed_type_filter_exit_two(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["list-models", f"--type={value}"])
        assert exc.value.code == 2
        assert "b1,b2" in capsys.readouterr().err

    def test_validates_once_per_run(self, tmp_path, monkeypatch, capsys):
        import syzlab.scenarios as scenarios

        calls = []
        raw = scenarios.validate_scenario

        def counted(doc):
            calls.append(doc)
            return raw(doc)

        monkeypatch.setattr(scenarios, "validate_scenario", counted)
        assert main(["run", write(tmp_path, FLAT_SCENARIO), "--tol", "1e-6"]) == 0
        assert len(calls) == 1
        assert calls[0]["settings"] == {"grid": 8, "tol": 1e-6}

    @pytest.mark.parametrize("flags", [[], ["--tol", "1e-3"]])
    def test_top_level_array_exit_two(self, tmp_path, capsys, flags):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        assert main(["run", str(path), *flags]) == 2
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", "{nope"])
    def test_malformed_monodromy_file_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "monodromy.json"
        path.write_text(text)
        assert main(["sheaf", "--monodromy", str(path)]) == 2
        assert "scenario error" in capsys.readouterr().err


# Python that reaches open() from y1 by attribute access and subscripts; an
# evaluating parser runs it and writes the marker file
_WRITE_MARKER = "y1.diff.__globals__['__builtins__']['open']({marker!r}, 'w').close()"
INJECTIONS = {
    "attribute": "y1.__class__",
    "attribute_call": _WRITE_MARKER,
    "subscript": "[y1, {payload}][0]",
    "conditional": "2 if 1 else y1",
    "conditional_call": "y1 if {payload} else y1",
    "lambda": "(lambda: {payload})()",
    "keyword_argument": "sin(y1, evaluate={payload})",
    "comprehension": "[{payload} for _ in (1,)][0]",
}

_YUKAWA_N2 = {"version": "1", "kind": "yukawa", "payload": {
    "n": 2, "box": [[-1, 1], [-1, 1]], "beta": [[{"im": "1"}, 0], [0, {"im": "1"}]],
    "directions": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}}
_HITCHIN_N1 = {"version": "1", "kind": "hitchin", "payload": {
    "n": 1, "box": [[-1, 1]], "potential": "y1^2/2"}}

# every string-bearing field of every kind: (document, key path to the string)
STRING_FIELDS = {
    "beta": (FLAT_SCENARIO, ["payload", "beta", 0, 1]),
    "beta_im": (FLAT_SCENARIO, ["payload", "beta", 0, 0, "im"]),
    "potential": (_HITCHIN_N1, ["payload", "potential"]),
    "twist_potential": (_HITCHIN_N1, ["payload", "twist_potential"]),
    "directions": (_YUKAWA_N2, ["payload", "directions", 1, 0, 1]),
    "k3_omega": (_K3_DOC, ["payload", "omega", 0]),
    "k3_B": (_with(_K3_DOC, ["payload", "B"], [0, 0, 0, 0]), ["payload", "B", 2]),
}


class TestClosedGrammar:
    @pytest.mark.parametrize("shape", sorted(INJECTIONS))
    @pytest.mark.parametrize("where", sorted(STRING_FIELDS))
    def test_injection_is_a_grammar_error(self, shape, where, tmp_path, capsys):
        marker = tmp_path / "marker"
        payload = _WRITE_MARKER.format(marker=str(marker))
        text = INJECTIONS[shape].format(marker=str(marker), payload=payload)
        doc, path = STRING_FIELDS[where]
        assert main(["run", write(tmp_path, _with(doc, path, text))]) == 2
        assert "scenario error" in capsys.readouterr().err
        assert not marker.exists()

    @pytest.mark.parametrize("where", ["beta", "potential", "directions"])
    def test_deep_nesting_exit_two(self, where, tmp_path, capsys):
        doc, path = STRING_FIELDS[where]
        assert main(["run", write(tmp_path, _with(doc, path, "-" * 5000 + "y1"))]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_complex_value_enters_only_as_re_im(self, tmp_path, capsys):
        """A string building to I is refused, not run as the flat torus beta = i."""
        assert main(["run", write(tmp_path, _beta_doc(
            "semiflat-check", 1, [["(-1)^(1/2)"]]))]) == 2
        assert "complex values enter only as" in capsys.readouterr().err
        assert main(["run", write(tmp_path, _beta_doc(
            "semiflat-check", 1, [[{"im": "1"}]]))]) == 0

    @pytest.mark.parametrize("text", ["sqrt(4)", "2**1", "1/0", "0.5.1"])
    def test_k3_coordinate_strings_are_rational_only(self, text, tmp_path, capsys):
        path = tmp_path / "mirror.json"
        path.write_text(json.dumps(dict(_U2_K3, omega=[0, text, 1, 1])))
        assert main(["k3", "--input", str(path)]) == 2
        assert "not a rational number" in capsys.readouterr().err


class TestHitchinTwist:
    def test_twisting_equals_translating(self, monkeypatch):
        """A twist potential F adds Hess(F) to Re(beta), which is the
        translation by the section dF."""
        import syzlab.semiflat as semiflat
        from syzlab.charts import Chart
        from syzlab.semiflat import translate_by_section

        built = []
        raw = semiflat.hitchin

        def spy(potential, b_field=None, tol=1e-8):
            bs, info = raw(potential, b_field, tol)
            built.append(bs)
            return bs, info

        monkeypatch.setattr(semiflat, "hitchin", spy)
        payload = {"n": 2, "box": [[-1, 1], [-1, 1]],
                   "potential": "(y1^2 + y2^2)/2 + y1*y2/5"}
        plain = run_scenario_doc({"version": "1", "kind": "hitchin", "payload": payload})
        twist = "y1^2/2 + y1*y2/3 + y2^2/4"
        twisted = run_scenario_doc({"version": "1", "kind": "hitchin",
                                    "payload": dict(payload, twist_potential=twist)})
        assert plain.passed and twisted.passed
        y1, y2 = Chart(2, ((-1, 1), (-1, 1))).ys
        translated = translate_by_section(built[0], [y1 + y2 / 3, y1 / 3 + y2 / 2])
        assert built[1].pairs == translated.pairs
        assert built[1].pairs != built[0].pairs

    def test_fibre_dependent_twist_potential_exit_two(self, tmp_path, capsys):
        doc = _with(_HITCHIN_N1, ["payload", "twist_potential"], "sin(2*pi*x1)")
        assert main(["run", write(tmp_path, doc)]) == 2
        assert "base variables only" in capsys.readouterr().err


class TestUncoveredKinds:
    def test_yukawa_constant_integrand_matches_closed_form(self):
        report = run_scenario_doc(_YUKAWA_N2)
        assert report.passed
        assert [c["name"] for c in report.checks] == ["matches_constant_integrand"]
        assert report.outputs["closed_form"]["re"] == pytest.approx(-4.0)
        assert report.outputs["coupling"]["re"] == pytest.approx(-4.0)

    def test_yukawa_non_constant_integrand_is_evaluated(self):
        doc = _with(_YUKAWA_N2, ["payload", "beta", 0, 0], {"im": "2 + y1^2/4"})
        report = run_scenario_doc(doc)
        assert report.passed
        assert [c["name"] for c in report.checks] == ["evaluated"]
        assert "closed_form" not in report.outputs

    @pytest.mark.parametrize("classes, obstructed", [
        ([[1, 0, 0, 0, 0, 0]], []),
        ([[0, 0, 1, -1, 0, 0], [0, 0, 1, 1, 0, 0]], [[0, 0, 1, -1, 0, 0]]),
    ])
    def test_k3_declared_algebraic_classes(self, classes, obstructed):
        doc = {"version": "1", "kind": "k3", "payload": {
            "lattice": "U3", "E": [1, 0, 0, 0, 0, 0], "sigma0": [-1, 1, 0, 0, 0, 0],
            "omega": [0, 0, 1, 1, 0, 0], "algebraic_classes": classes}}
        report = run_scenario_doc(doc)
        check = {c["name"]: c["passed"] for c in report.checks}
        assert check["no_declared_kaehler_obstruction"] is (not obstructed)
        assert report.passed is (not obstructed)
        assert report.outputs["kaehler_obstructions"] == obstructed


class TestFailClosedReport:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("planted", ["nan", "fraction"])
    def test_unserialisable_output_exits_three_with_empty_stdout(
            self, planted, fmt, tmp_path, monkeypatch, capsys):
        """An output JSON cannot hold exactly is an internal error, never a
        stringified value or a NaN token in the report."""
        from fractions import Fraction

        import syzlab.scenarios as scenarios

        value = float("nan") if planted == "nan" else Fraction(1, 3)
        raw = scenarios._DISPATCH["semiflat-check"]

        def planting(doc, report):
            raw(doc, report)
            report.outputs["planted"] = value

        monkeypatch.setitem(scenarios._DISPATCH, "semiflat-check", planting)
        out = tmp_path / "report.json"
        code = main(["run", write(tmp_path, FLAT_SCENARIO), "--format", fmt, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "internal error" in captured.err
        assert not out.exists()


class TestHessianDeterminantText:
    @pytest.mark.parametrize("box, potential, text", [
        ([[-1, 1], [-1, 1]], "(y1^2 + y2^2)/2 + y1^3/10", "1"),
        ([[1, 2], [-1, 1]], "y1^3/6 + y2^2/2 + y1*y2/5", "73/50"),
        ([[-1, 1], [-1, 1]], "exp(y1) + pi*y2^2", "2*pi"),
    ], ids=["demo", "rational", "exp_pi"])
    def test_value_is_sympy_sstr_at_the_box_centre(self, box, potential, text):
        """outputs.hessian_determinant_value is the text of the exact
        determinant of the Hessian at the box centre, which on these values
        is sympy's sstr of it."""
        import sympy as sp

        ys = sp.symbols("y1 y2", real=True)
        phi = sp.sympify(potential.replace("^", "**"), locals={"y1": ys[0], "y2": ys[1]})
        hess = sp.Matrix(2, 2, lambda i, j: sp.diff(phi, ys[i], ys[j]))
        centre = {y: sp.Rational(lo + hi, 2) for y, (lo, hi) in zip(ys, box)}
        want = sp.sstr(sp.expand(hess.det()).subs(centre))
        doc = {"version": "1", "kind": "hitchin",
               "payload": {"n": 2, "box": box, "potential": potential}}
        got = run_scenario_doc(doc).outputs["hessian_determinant_value"]
        assert got == want == text


    @pytest.mark.parametrize("box, potential, text", [
        ([[0, 1]], "exp(y1)", "exp(1/2)"),
        ([[0, 1]], "2*exp(y1)/3", "2/3*exp(1/2)"),
        ([[1, 2]], "y1^3/3 + sin(y1)", "3 - sin(3/2)"),
        ([[1, 3]], "-4*y1^(1/2)", "1/4*2^(1/2)"),
    ], ids=["exp", "scaled_exp", "sin", "root"])
    def test_any_value_parses_back_to_itself(self, box, potential, text):
        """Any other determinant text is grammar text: parse_scalar reads it
        back to the node of the same value."""
        from syzlab.fields import parse_scalar

        doc = {"version": "1", "kind": "hitchin",
               "payload": {"n": 1, "box": box, "potential": potential}}
        got = run_scenario_doc(doc).outputs["hessian_determinant_value"]
        assert got == text
        hessian = parse_scalar(potential, 1).diff("y1", 2)
        centre = sum(map(Fraction, box[0])) / 2
        assert parse_scalar(got, 1) is hessian.subs({"y1": centre})


_YUKAWA_N3 = _beta_doc(
    "yukawa", 3, [[{"im": "2"}, "1/4", 0], ["1/4", {"im": "3"}, 0], [0, 0, {"im": "1"}]],
    directions=[[[1 if (i, j) == (k, k) else 0 for j in range(3)] for i in range(3)]
                for k in range(3)])


class TestGridReach:
    @pytest.mark.parametrize("grid, code", [(101, 0), (102, 2)])
    def test_yukawa_fibre_grid_is_bounded(self, grid, code, tmp_path, capsys):
        """grid^n fibre samples per base point: 101^3 is within 2^20 and
        102^3 is not, which is a scenario error naming grid and n, raised
        before beta is decoded."""
        doc = _with(_YUKAWA_N3, ["settings"], {"grid": grid})
        if code:
            with pytest.raises(ScenarioError, match=r"grid 102 at n = 3"):
                run_scenario_doc(doc)
        else:
            assert run_scenario_doc(doc).passed
        path = write(tmp_path, _YUKAWA_N3)
        assert main(["run", path, "--grid", str(grid)]) == code
        if code:
            assert "grid 102 at n = 3" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        json.loads((SCENARIOS / "dualize_n2.json").read_text()),
        _beta_doc("dualize", 2, [[{"re": "sin(2*pi*x1)/5 + y2", "im": "2"}, 0],
                                 [0, {"im": "3 + y1/2"}]]),
    ], ids=["demo", "fibre_dependent_b"])
    def test_dualize_reads_no_grid(self, doc, tmp_path, capsys):
        """Every dualize integrand is fibre-constant, so --grid changes no
        byte of the report apart from the settings it echoes and timings."""
        path = write(tmp_path, doc)
        reports = []
        for grid in (2, 16, 64):
            main(["run", path, "--grid", str(grid), "--format", "json"])
            report = json.loads(capsys.readouterr().out)
            assert report["scenario"]["settings"]["grid"] == grid
            for key in ("timings", "scenario"):
                report.pop(key)
            reports.append(report)
        assert reports[0]["checks"]
        assert reports[0] == reports[1] == reports[2]
