"""The compiled scenario schema against jsonschema, its reference.

`scenarios` compiles each schema dict into plain-Python checks; here
jsonschema's Draft 2020-12 validator, applied to the same dicts, must reach
the same accept/reject decision on seeded mutants of every sample scenario
and of one document per kind.
"""

import copy
import json
import random
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from syzlab.scenarios import (
    _EXACT_KINDS,
    PAYLOAD_SCHEMAS,
    SCENARIO_SCHEMA,
    ScenarioError,
    _compile,
    validate_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

_TOP = Draft202012Validator(SCENARIO_SCHEMA)
_PAYLOADS = {kind: Draft202012Validator(schema) for kind, schema in PAYLOAD_SCHEMAS.items()}


def reference_accepts(doc):
    """validate_scenario's contract with jsonschema doing the schema checks."""
    if not _TOP.is_valid(doc):
        return False
    if "settings" in doc and doc["kind"] in _EXACT_KINDS:
        return False
    return _PAYLOADS[doc["kind"]].is_valid(doc["payload"])


def accepts(doc):
    try:
        validate_scenario(doc)
    except ScenarioError:
        return False
    return True


def _doc(kind, payload, **extra):
    return {"version": "1", "kind": kind, "payload": payload, **extra}


_BOX = [[-1, 1], [0, 2]]
_BETA = [[{"re": "1/2", "im": 2}, "y1/4"], [0.5, {"im": "1"}]]
# one document per kind, between them using every keyword of the schemas
BUILT = {
    "semiflat-check": _doc("semiflat-check", {
        "n": 2, "box": _BOX, "beta": _BETA, "flags": {"compatible": True}}),
    "dualize": _doc("dualize", {"n": 2, "box": _BOX, "beta": _BETA},
                    settings={"grid": 4, "tol": 1e-6}),
    "hitchin": _doc("hitchin", {"n": 1, "box": [[0, 1]], "potential": "y1^2/2",
                                "twist_potential": "y1^3"}, settings={"tol": 0.5}),
    "yukawa": _doc("yukawa", {"n": 2, "box": _BOX, "beta": _BETA,
                              "directions": [[[1, 0], [0, {"re": 1}]]]}),
    "fibre": _doc("fibre", {"models": ["M21", "M12"], "grid": 2}),
    "sheaf": _doc("sheaf", {"rank": 2, "monodromy": [[[1, 1], [0, 1]], [[1, -1], [0, 1]]],
                            "expected_ranks": [0, 3, 1]}),
    "k3": _doc("k3", {"lattice": [[0, 1], [1, 0]], "E": [1, 0], "sigma0": [-1, 1],
                      "omega": ["1/2", 1], "B": [0, "1/3"], "re_omega": [1, 1],
                      "im_omega": [0.5, 0], "double_mirror": False,
                      "algebraic_classes": [[1, 1]]}),
}


def _sample(path):
    doc = json.loads(path.read_text())
    # a bare payload is the input of `syzlab sheaf --monodromy`
    return doc if "kind" in doc else _doc("sheaf", doc)


DOCUMENTS = {**{p.stem: _sample(p) for p in sorted(SCENARIOS.glob("*.json"))},
             **{f"built-{kind}": doc for kind, doc in BUILT.items()}}

PALETTE = [None, True, 0, 2.0, 2.5, -1, "x", [], [[1]], {}, {"re": 1, "zz": 2}, 1e300]


def _nodes(node, path=()):
    """(path, node) for node and every value below it."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _nodes(child, (*path, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _nodes(child, (*path, i))


def _mutate(doc, rng):
    """doc with one random node replaced, deleted, given an unknown key or
    an appended item; the root is replaced by the value itself."""
    path, node = rng.choice(list(_nodes(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    ops = ["replace"] + (["delete"] if path and isinstance(parent, dict) else [])
    ops += ["add"] if isinstance(node, dict) else ["append"] if isinstance(node, list) else []
    op = rng.choice(ops)
    if op == "add":
        node["unknown_key"] = 0
    elif op == "append":
        node.append(copy.deepcopy(node[-1]) if node else 0)
    elif op == "delete":
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = copy.deepcopy(rng.choice(PALETTE))
    else:
        return copy.deepcopy(rng.choice(PALETTE))
    return doc


def mutants(doc, seed, count):
    """count seeded mutants of doc, each one to three mutations deep."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        mutant = copy.deepcopy(doc)
        for _ in range(rng.randint(1, 3)):
            if not isinstance(mutant, (dict, list)):
                break
            mutant = _mutate(mutant, rng)
        out.append(mutant)
    return out


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_mutants_match_reference(name):
    doc = DOCUMENTS[name]
    assert accepts(doc) and reference_accepts(doc)
    outcomes = set()
    for mutant in mutants(doc, seed=sorted(DOCUMENTS).index(name), count=300):
        expected = reference_accepts(mutant)
        assert accepts(mutant) == expected, json.dumps(mutant)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_every_kind_is_covered():
    assert {doc["kind"] for doc in DOCUMENTS.values()} == set(PAYLOAD_SCHEMAS)


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# values where JSON Schema's rules differ from Python's
TRAPS = {
    "n_float_is_integer": ("semiflat-check", ("payload", "n"), 2.0, True),
    "n_bool_is_not_integer": ("semiflat-check", ("payload", "n"), True, False),
    "box_end_bool_is_not_number": ("semiflat-check", ("payload", "box", 0, 0), False, False),
    "compatible_one_is_not_true": ("semiflat-check", ("payload", "flags", "compatible"), 1,
                                   False),
    "models_all": ("fibre", ("payload", "models"), "all", True),
    "models_other_string": ("fibre", ("payload", "models"), "M21", False),
    # no model would run no check and pass; T3 is the smooth fibre, not a model
    "models_empty": ("fibre", ("payload", "models"), [], False),
    "models_smooth_fibre": ("fibre", ("payload", "models"), ["T3"], False),
    "lattice_string": ("k3", ("payload", "lattice"), "U2", True),
    "lattice_integer_matrix": ("k3", ("payload", "lattice"), [[2, 1.0], [1, 2]], True),
    "lattice_rational_matrix": ("k3", ("payload", "lattice"), [[2, 0.5], [1, 2]], False),
    "tol_zero": ("dualize", ("settings", "tol"), 0, False),
    "tol_tiny": ("dualize", ("settings", "tol"), 1e-300, True),
    "grid_minimum": ("dualize", ("settings", "grid"), 2, True),
    "box_three_ends": ("dualize", ("payload", "box", 0), [0, 1, 2], False),
}


@pytest.mark.parametrize("trap", sorted(TRAPS))
def test_trap(trap):
    kind, path, value, ok = TRAPS[trap]
    doc = _with(BUILT[kind], path, value)
    assert reference_accepts(doc) == ok
    assert accepts(doc) == ok


def test_fibre_models_enum_is_the_model_list():
    from syzlab.fibre_models import MODEL_NAMES

    models = PAYLOAD_SCHEMAS["fibre"]["properties"]["models"]["oneOf"][1]
    assert models["items"]["enum"] == list(MODEL_NAMES)


def _error(doc):
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(doc)
    return str(exc.value)


def test_error_names_the_pointer_below_payload():
    doc = json.loads((SCENARIOS / "flat_torus.json").read_text())
    assert doc["payload"]["n"] == 2
    doc["payload"]["beta"][1][0] = {"re": ["1"]}
    assert _error(doc).startswith("/payload/beta/1/0/re: ")


def test_missing_property_names_its_object():
    doc = json.loads((SCENARIOS / "flat_torus.json").read_text())
    del doc["payload"]["box"]
    assert _error(doc) == "/payload: 'box' is a required property"


@pytest.mark.parametrize("trap, message", [
    ("models_smooth_fibre", "/payload/models/0: 'T3' is not one of "
                            "['M22', 'M12', 'M21', 'M11a', 'M11b', 'M01', 'M10', 'M00']"),
    ("lattice_rational_matrix", "/payload/lattice/0/1: 0.5 is not of type 'integer'"),
    ("models_other_string", "/payload/models: 'M21' matches 0 of the 2 oneOf alternatives, "
                            "not exactly one"),
])
def test_one_of_error_is_the_alternative_of_the_values_type(trap, message):
    """Where no oneOf alternative holds, the error is that of the one
    alternative whose type the value has; with none, the count."""
    kind, path, value, _ = TRAPS[trap]
    assert _error(_with(BUILT[kind], path, value)) == message


def test_errors_sorted_by_pointer():
    doc = _with(BUILT["k3"], ("payload", "omega"), [1, None])
    doc["payload"]["E"] = "x"
    doc["payload"]["zz"] = float("nan")
    assert [e.split(":")[0] for e in _error(doc).split("; ")] == [
        "/payload/E", "/payload/omega/1", "/payload/zz"]


# each keyword alone, including combinations the scenario schemas cannot
# reach, such as a value valid under two oneOf alternatives
KEYWORD_SCHEMAS = [
    {"type": "integer"}, {"type": "number"}, {"type": ["string", "boolean"]},
    {"const": True}, {"const": 0}, {"enum": ["x", 2]},
    {"minimum": 0}, {"maximum": 2}, {"exclusiveMinimum": 0},
    {"minItems": 1, "maxItems": 1}, {"items": {"type": "array"}},
    {"required": ["re"]}, {"properties": {"re": {"type": "string"}}},
    {"properties": {"re": {}}, "additionalProperties": False},
    {"oneOf": [{"type": "integer"}, {"type": "number"}]},
    {"oneOf": [{"const": 0}, {"type": "array"}]},
]


@pytest.mark.parametrize("schema", KEYWORD_SCHEMAS, ids=json.dumps)
def test_keyword_matches_reference(schema):
    check, reference = _compile(schema), Draft202012Validator(schema)
    for value in PALETTE:
        assert (not check(value)) == reference.is_valid(value), value


@pytest.mark.parametrize("where, keyword", [
    (("hitchin", "properties", "potential"), {"pattern": "^y"}),
    (("k3", "properties", "E", "items"), {"uniqueItems": True}),
    (("sheaf",), {"additionalProperties": {"type": "integer"}}),
    (("fibre", "properties", "grid"), {"type": "null"}),
])
def test_unimplemented_schema_is_refused(where, keyword):
    schemas = copy.deepcopy(PAYLOAD_SCHEMAS)
    node = schemas
    for key in where:
        node = node[key]
    node.update(keyword)
    with pytest.raises(NotImplementedError):
        _compile(schemas[where[0]])
