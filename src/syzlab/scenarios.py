"""Scenario-driven batch runner with machine-readable reports.

Scenarios are JSON documents validated against a fail-closed schema
(unknown fields are rejected).  Each kind dispatches to one module surface
and produces a RunReport: named checks with residuals and verdicts, plus
kind-specific outputs.  Reports are deterministic for a fixed scenario, up
to the separate timing block.
"""

from __future__ import annotations

import json
import math
import operator
import reprlib
import sys
import time
from dataclasses import dataclass, field

from . import MODEL_TABLE, __version__

SCHEMA_VERSION = "1"
# kinds whose verdicts are exact: no grid or tolerance acts on them
_EXACT_KINDS = ("fibre", "sheaf", "k3")
# the most fibre samples (grid^n) a yukawa quadrature holds per base point
_MAX_FIBRE_SAMPLES = 2 ** 20

_RATIONAL = {"type": ["string", "number"]}
# object keywords constrain only the {"re", "im"} form
_COMPLEX_VALUE = {
    "type": ["string", "number", "object"],
    "properties": {"re": _RATIONAL, "im": _RATIONAL},
    "additionalProperties": False,
}

_MATRIX = {"type": "array", "items": {"type": "array", "items": _COMPLEX_VALUE}}
_INT_MATRIX = {"type": "array",
               "items": {"type": "array", "items": {"type": "integer"}}}
_RATIONAL_VECTOR = {"type": "array", "items": _RATIONAL}

_BETA_FRAGMENT = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1, "maximum": 3},
        "box": {"type": "array",
                "items": {"type": "array", "items": {"type": "number"},
                          "minItems": 2, "maxItems": 2}},
        "beta": _MATRIX,
        "flags": {
            "type": "object",
            # every check always runs: a structure cannot opt out of them
            "properties": {"compatible": {"const": True}},
            "additionalProperties": False,
        },
    },
    "required": ["n", "box", "beta"],
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "kind": {"enum": ["semiflat-check", "dualize", "hitchin", "yukawa",
                          "fibre", "sheaf", "k3"]},
        "settings": {
            "type": "object",
            "properties": {
                "grid": {"type": "integer", "minimum": 2},
                "tol": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "payload": {"type": "object"},
    },
    "required": ["version", "kind", "payload"],
    "additionalProperties": False,
}

PAYLOAD_SCHEMAS = {
    "semiflat-check": _BETA_FRAGMENT,
    "dualize": _BETA_FRAGMENT,
    "hitchin": {
        "type": "object",
        "properties": {
            "n": {"type": "integer", "minimum": 1, "maximum": 3},
            "box": _BETA_FRAGMENT["properties"]["box"],
            "potential": {"type": "string"},
            "twist_potential": {"type": "string"},
        },
        "required": ["n", "box", "potential"],
        "additionalProperties": False,
    },
    "yukawa": {
        "type": "object",
        "properties": {
            "n": {"type": "integer", "minimum": 2, "maximum": 3},
            "box": _BETA_FRAGMENT["properties"]["box"],
            "beta": _MATRIX,
            "directions": {"type": "array", "items": _MATRIX},
        },
        "required": ["n", "box", "beta", "directions"],
        "additionalProperties": False,
    },
    "fibre": {
        "type": "object",
        "properties": {
            "models": {
                "oneOf": [
                    {"const": "all"},
                    {"type": "array", "items": {"enum": list(MODEL_TABLE)}, "minItems": 1},
                ]
            },
            "grid": {"type": "integer", "minimum": 1, "maximum": 3},
        },
        "required": ["models"],
        "additionalProperties": False,
    },
    "sheaf": {
        "type": "object",
        "properties": {
            "rank": {"type": "integer", "minimum": 1},
            "monodromy": {"type": "array", "items": _INT_MATRIX},
            "expected_ranks": {"type": "array", "items": {"type": "integer"},
                               "minItems": 3, "maxItems": 3},
        },
        "required": ["rank", "monodromy"],
        "additionalProperties": False,
    },
    "k3": {
        "type": "object",
        "properties": {
            "lattice": {"oneOf": [{"type": "string"}, _INT_MATRIX]},
            "E": {"type": "array", "items": {"type": "integer"}},
            "sigma0": {"type": "array", "items": {"type": "integer"}},
            "omega": _RATIONAL_VECTOR,
            "B": _RATIONAL_VECTOR,
            "re_omega": _RATIONAL_VECTOR,
            "im_omega": _RATIONAL_VECTOR,
            "double_mirror": {"type": "boolean"},
            "algebraic_classes": {"type": "array", "items": {
                "type": "array", "items": {"type": "integer"}}},
        },
        "required": ["lattice", "E", "sigma0", "omega"],
        "additionalProperties": False,
    },
}


# ---------------------------------------------------------------------------
# schema compiler: each schema dict above becomes one checker closure, once
# per process.  It implements exactly the keywords the schemas use, with JSON
# Schema 2020-12 semantics (tests/test_schema.py holds it to a reference
# validator), and rejects NaN and infinite numbers, which Python's json reads.
# ---------------------------------------------------------------------------

_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items",
             "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum",
             "const", "enum", "oneOf"}
_VALID = ()
_NON_FINITE = "non-finite number"


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
    "number": _is_number,
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}
# keyword: (test that the number violates it, what the message calls the bound)
_BOUNDS = {"minimum": (operator.lt, "less than"),
           "maximum": (operator.gt, "greater than"),
           "exclusiveMinimum": (operator.le, "not greater than")}


def _same(value, const):
    """JSON equality with a scalar: a bool equals only itself, 1 equals 1.0."""
    if isinstance(value, bool) or isinstance(const, bool):
        return value is const
    return value == const


def _nested(errors, key):
    return [((key, *path), message) for path, message in errors]


def _type_names(schema):
    names = schema.get("type", [])
    return [names] if isinstance(names, str) else names


def _compile(schema):
    """A checker for schema: value -> list of (path below value, message),
    empty when value is valid.  A keyword, type or const outside the
    implemented set raises, so none is ever silently ignored."""
    names = _type_names(schema)
    allowed = schema.get("enum", []) + ([schema["const"]] if "const" in schema else [])
    unknown = sorted(set(schema) - _KEYWORDS) + [n for n in names if n not in _TYPES]
    if schema.get("additionalProperties", False) is not False:
        unknown.append("additionalProperties")
    unknown += [c for c in allowed if isinstance(c, (list, dict))]
    if unknown:
        raise NotImplementedError(f"schema uses unimplemented {unknown}")

    parts = []
    if names:
        tests = [_TYPES[name] for name in names]
        test = tests[0] if len(tests) == 1 else lambda v: any(t(v) for t in tests)
        finite = "number" in names or "integer" in names
        expected = " or ".join(map(repr, names))

        def check_type(value):
            if finite and isinstance(value, float) and not math.isfinite(value):
                return [((), _NON_FINITE)]
            if test(value):
                return _VALID
            return [((), f"{reprlib.repr(value)} is not of type {expected}")]
        parts.append(check_type)
    if allowed:
        what = repr(schema["const"]) if "const" in schema else f"one of {allowed!r}"

        def check_value(value):
            if any(_same(value, c) for c in allowed):
                return _VALID
            return [((), f"{reprlib.repr(value)} is not {what}")]
        parts.append(check_value)
    bounds = [(fails, schema[k], text) for k, (fails, text) in _BOUNDS.items() if k in schema]
    if bounds:
        def check_bounds(value):
            if not _is_number(value):
                return _VALID
            return [((), f"{value!r} is {text} {limit!r}")
                    for fails, limit, text in bounds if fails(value, limit)]
        parts.append(check_bounds)
    if {"properties", "required", "additionalProperties"} & schema.keys():
        props = {k: _compile(s) for k, s in schema.get("properties", {}).items()}
        required, closed = schema.get("required", ()), "additionalProperties" in schema

        def check_object(value):
            if not isinstance(value, dict):
                return _VALID
            errors = [((), f"{k!r} is a required property") for k in required if k not in value]
            for key, child in value.items():
                sub = props.get(key)
                if sub is None:
                    if closed:
                        errors.append(((key,), "unknown property"))
                elif found := sub(child):
                    errors += _nested(found, key)
            return errors
        parts.append(check_object)
    if {"items", "minItems", "maxItems"} & schema.keys():
        item = _compile(schema["items"]) if "items" in schema else None
        low, high = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        limits = ", ".join(f"{k} {schema[k]}" for k in ("minItems", "maxItems") if k in schema)

        def check_array(value):
            if not isinstance(value, list):
                return _VALID
            errors = [] if low <= len(value) <= high else [
                ((), f"has {len(value)} items ({limits})")]
            if item is not None:
                for i, child in enumerate(value):
                    if found := item(child):
                        errors += _nested(found, i)
            return errors
        parts.append(check_array)
    if "oneOf" in schema:
        branches = [_compile(s) for s in schema["oneOf"]]
        typed = [[_TYPES[name] for name in _type_names(s)] for s in schema["oneOf"]]

        def check_one_of(value):
            errors = [branch(value) for branch in branches]
            valid = sum(not e for e in errors)
            if valid == 1:
                return _VALID
            # no alternative holds: the one the value's type selects says why
            chosen = [e for e, tests in zip(errors, typed) if any(t(value) for t in tests)]
            if valid == 0 and len(chosen) == 1:
                return chosen[0]
            return [((), f"{reprlib.repr(value)} matches {valid} of the "
                         f"{len(branches)} oneOf alternatives, not exactly one")]
        parts.append(check_one_of)

    if len(parts) == 1:
        return parts[0]

    def check(value):
        # the first failing keyword group is the error: a value of the wrong
        # type is reported for its type alone
        for part in parts:
            if errors := part(value):
                return errors
        return _VALID
    return check


_CHECK_SCENARIO = _compile(SCENARIO_SCHEMA)
_CHECK_PAYLOAD = {kind: _compile(schema) for kind, schema in PAYLOAD_SCHEMAS.items()}


class ScenarioError(ValueError):
    """Schema violations and unparseable scenario files."""


@dataclass
class RunReport:
    scenario: dict
    checks: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def add_report(self, prefix, rep):
        """Every check of a SemiflatReport, its name after the prefix."""
        for name, check in rep.checks.items():
            self.add_check(f"{prefix}.{name}", check.passed, check.value, check.tol,
                           check.worst_point)

    def add_check(self, name, passed, value=None, tol=None, worst_point=None):
        entry = {"name": name, "passed": bool(passed)}
        if value is not None:
            entry["value"] = float(value)
        if tol is not None:
            entry["tol"] = float(tol)
        if worst_point is not None:
            y, x = worst_point
            entry["worst_point"] = {"y": list(y), "x": list(x)}
        self.checks.append(entry)

    @property
    def passed(self):
        return all(c["passed"] for c in self.checks)

    def as_dict(self):
        return {
            "scenario": self.scenario,
            "tool": {"name": "syzlab", "version": __version__},
            "checks": sorted(self.checks, key=lambda c: c["name"]),
            "outputs": self.outputs,
            "passed": self.passed,
            "timings": self.timings,
        }

    def to_json(self):
        """The report as JSON; a value JSON cannot hold exactly (NaN, an
        infinity, a Fraction or an expression) raises instead of being
        stringified."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2, allow_nan=False)

    def to_text(self):
        lines = [f"scenario: {self.scenario.get('kind')}"]
        width = max((len(c["name"]) for c in self.checks), default=10)
        for c in sorted(self.checks, key=lambda c: c["name"]):
            value = f"{c.get('value', float('nan')):.3e}" if "value" in c else "-"
            tol = f"{c.get('tol', float('nan')):.1e}" if "tol" in c else "-"
            status = "pass" if c["passed"] else "FAIL"
            lines.append(f"  {c['name']:<{width}}  value={value:>10}  tol={tol:>8}  {status}")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def validate_scenario(doc):
    _raise_errors(_CHECK_SCENARIO(doc))
    if "settings" in doc and doc["kind"] in _EXACT_KINDS:
        raise ScenarioError(f"{doc['kind']} scenarios take no settings")
    _raise_errors(_CHECK_PAYLOAD[doc["kind"]](doc["payload"]), "/payload")
    return doc


def _raise_errors(errors, prefix=""):
    """Raise one ScenarioError naming every error, each at its JSON pointer."""
    if not errors:
        return
    lines = []
    for path, message in errors:
        pointer = prefix + "".join(
            "/" + str(key).replace("~", "~0").replace("/", "~1") for key in path) or "/"
        lines.append((pointer, f"{message} at {pointer}" if message is _NON_FINITE
                      else f"{pointer}: {message}"))
    raise ScenarioError("; ".join(line for _, line in sorted(lines)))


def _read_json(path):
    """The parsed JSON file; an unreadable or malformed file is a ScenarioError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}")


def load_scenario(path):
    return validate_scenario(_read_json(path))


def _settings(doc):
    from .semiflat import DEFAULT_TOL

    s = dict(doc.get("settings", {}))
    return {
        "grid": int(s.get("grid", 16)),
        "tol": float(s.get("tol", DEFAULT_TOL)),
    }


def _decode_chart(payload):
    from .charts import Chart

    # the schema's integers admit integral floats such as 2.0
    return Chart(int(payload["n"]), tuple(tuple(iv) for iv in payload["box"]))


def _decode_matrix(matrix, n):
    from .fields import parse_scalar

    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ScenarioError(f"matrices must be {n} x {n}")
    return [[parse_scalar(matrix[i][j], n) for j in range(n)] for i in range(n)]


def _decode_beta(payload):
    from .semiflat import BetaStructure

    chart = _decode_chart(payload)
    return BetaStructure(chart, _decode_matrix(payload["beta"], chart.n))


# library errors that mean the payload's data is invalid
_INPUT_ERRORS = ("fields.GrammarError", "fields.PeriodicityError", "charts.ChartError",
                 "fibre_models.ModelError", "sheaf.LocalSystemError",
                 "k3.K3ValidationError", "semiflat.DualityError")


def _loaded(*names):
    """The error classes named "module.Class" whose syzlab module is imported.

    An exception's class is loaded by the module that raised it, so a class
    whose module was never imported cannot be the one propagating; building
    an except tuple this way imports nothing, on the error path either.
    """
    found = []
    for name in names:
        module, _, cls = name.partition(".")
        mod = sys.modules.get(f"{__package__}.{module}")
        if mod is not None:
            found.append(getattr(mod, cls))
    return tuple(found)


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------

def _run_semiflat(doc, report):
    from .semiflat import closedness_residuals, pointwise_checks, structure_equations

    tol = _settings(doc)["tol"]
    bs = _decode_beta(doc["payload"])
    report.add_report("pointwise", pointwise_checks(bs, tol=tol))
    closed = closedness_residuals(bs, tol=tol)
    report.add_report("closedness", closed)
    report.add_check("closedness.equivalence", closed.notes["equivalence_consistent"])
    report.add_report("structure", structure_equations(bs, tol=tol))


def _run_dualize(doc, report):
    from .duality import dual_structure_check

    cfg = _settings(doc)
    bs = _decode_beta(doc["payload"])
    rep = dual_structure_check(bs, tol=cfg["tol"])
    report.add_report("dual", rep)
    for key in ("vol_samples", "dual_vol_samples", "volume_form_closed_residual"):
        report.outputs[key] = rep.notes[key]


def _run_hitchin(doc, report):
    from .fields import parse_scalar
    from .semiflat import HitchinPotential, hitchin

    cfg = _settings(doc)
    payload = doc["payload"]
    chart = _decode_chart(payload)
    pot = HitchinPotential(chart, parse_scalar(payload["potential"], chart.n))
    twist = None
    if "twist_potential" in payload:
        from .duality import SymTensorField

        f = parse_scalar(payload["twist_potential"], chart.n)
        twist = SymTensorField(chart, HitchinPotential(chart, f).hessian)
    bs, info = hitchin(pot, twist, tol=cfg["tol"])
    report.add_report("closedness", info["closedness"])
    report.add_check("determinant_criterion_consistent", info["criterion_consistent"])
    report.outputs["hessian_determinant_residual"] = info["determinant_residual"]
    # grammar text that parse_scalar reads back to the same value
    report.outputs["hessian_determinant_value"] = str(info["determinant_value"])


def _run_yukawa(doc, report):
    from .semiflat import YukawaFamily, yukawa

    cfg = _settings(doc)
    payload = doc["payload"]
    grid, n = cfg["grid"], int(payload["n"])
    if grid ** n > _MAX_FIBRE_SAMPLES:
        raise ScenarioError(f"grid {grid} at n = {n} asks for {grid ** n} fibre samples "
                            f"per base point; at most {_MAX_FIBRE_SAMPLES} are allowed")
    base = _decode_beta(payload)
    dirs = [_decode_matrix(d, base.n) for d in payload["directions"]]
    fam = YukawaFamily(base, dirs)
    value, oracle = yukawa(fam, resolution=cfg["grid"])
    report.outputs["coupling"] = {"re": value.real, "im": value.imag}
    if oracle is not None:
        rel = abs(value - oracle) / max(abs(oracle), 1.0)
        report.add_check("matches_constant_integrand", rel < cfg["tol"], rel, cfg["tol"])
        report.outputs["closed_form"] = {"re": oracle.real, "im": oracle.imag}
    else:
        report.add_check("evaluated", True)


def _run_fibre(doc, report):
    from .fibre_models import MODEL_NAMES, cohomology_of_models, fibre_type_report

    payload = doc["payload"]
    grid = int(payload.get("grid", 1))
    names = payload["models"]
    if names == "all":
        names = list(MODEL_NAMES)
    results = cohomology_of_models(names, grid)
    rep = fibre_type_report(results)
    for row in rep["rows"]:
        report.add_check(f"model.{row['model']}", row["matches"])
    if set(names) == set(MODEL_NAMES):
        report.add_check("pairing_audit", rep["pairing_ok"])
    report.outputs["table"] = [
        {k: (list(v) if isinstance(v, tuple) else v) for k, v in row.items()}
        for row in rep["rows"]
    ]


def _run_sheaf(doc, report):
    from .sheaf import (
        LocalSystemOnSphere,
        e2_assemble,
        euler_characteristic,
        pushforward_cohomology,
    )

    payload = doc["payload"]
    system = LocalSystemOnSphere(int(payload["rank"]), payload["monodromy"])
    push = pushforward_cohomology(system)
    chi = euler_characteristic(system)
    ranks = [r for r, _ in push.groups]
    report.add_check("euler_identity", ranks[0] - ranks[1] + ranks[2] == chi)
    if "expected_ranks" in payload:
        report.add_check("expected_ranks", ranks == list(payload["expected_ranks"]))
    report.outputs["cohomology"] = push.as_dict()
    report.outputs["euler_characteristic"] = chi
    if system.rank == 2:
        # surface-style degenerate table with Z in the corners
        report.outputs["e2_table"] = e2_assemble("S2", system).as_json_grid()


def _run_k3(doc, report):
    from .k3 import (
        GramLattice,
        K3MirrorInput,
        double_mirror_check,
        kahler_obstructions,
        mirror_classes,
        validate_and_align,
    )

    payload = doc["payload"]
    lat = payload["lattice"]
    lattice = (GramLattice.from_name(lat) if isinstance(lat, str)
               else GramLattice(tuple(map(tuple, lat))))
    inp = K3MirrorInput(
        lattice,
        E=payload["E"],
        sigma0=payload["sigma0"],
        omega=payload["omega"],
        B=payload.get("B"),
        re_omega=payload.get("re_omega"),
        im_omega=payload.get("im_omega"),
    )
    aligned = validate_and_align(inp)
    double = double_mirror_check(aligned) if payload.get("double_mirror") else None
    classes = double["first_classes"] if double else mirror_classes(aligned)
    for name, ok in classes.identities.items():
        report.add_check(f"identity.{name}", ok)
    report.outputs["classes"] = classes.as_dict()
    if "algebraic_classes" in payload:
        bad = kahler_obstructions(aligned, payload["algebraic_classes"])
        report.add_check("no_declared_kaehler_obstruction", not bad)
        report.outputs["kaehler_obstructions"] = [list(v) for v in bad]
    if double:
        for key in ("omega_recovered", "re_omega_recovered", "im_omega_recovered",
                    "twist_recovered", "negation_involutive"):
            report.add_check(f"double_mirror.{key}", double[key])


_DISPATCH = {
    "semiflat-check": _run_semiflat,
    "dualize": _run_dualize,
    "hitchin": _run_hitchin,
    "yukawa": _run_yukawa,
    "fibre": _run_fibre,
    "sheaf": _run_sheaf,
    "k3": _run_k3,
}


def run_scenario_doc(doc) -> RunReport:
    doc = validate_scenario(doc)
    report = RunReport(scenario=doc)
    start = time.monotonic()
    try:
        _DISPATCH[doc["kind"]](doc, report)
    except _loaded("semiflat.CompatibilityError") as exc:
        # an asymmetric beta or an Im(beta) that is not positive definite is
        # a failed verdict; checks recorded before it stay in the report
        report.add_check("compatible", False)
        report.outputs["compatibility_error"] = str(exc)
    except _loaded(*_INPUT_ERRORS) as exc:
        raise ScenarioError(str(exc)) from exc
    report.timings["total_s"] = time.monotonic() - start
    return report


def run_scenario(path) -> RunReport:
    return run_scenario_doc(_read_json(path))
