"""Command-line entry points.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 the scenario file
did not parse or validate or its data is invalid, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import MODEL_TABLE, __version__

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

CONVENTIONS = """\
sign and orientation ledger
---------------------------
contraction          i(v_1,...,v_q) a = a(v_1,...,v_q, . )  (front slots)
fibre volume slot    i(d/dx_I) dx_1^...^dx_n = (-1)^M dx_{I*},
                     I* the complement, M = #{(i,j) : i in I, j in I*, i > j}
symplectic form      omega = sum_i dx_i ^ dy_i on every chart
volume density       V = sqrt(det g) > 0, derived from Im(beta), never input
orientation          coordinates ordered so V > 0; dy_1^...^dy_n orients the base
normalisation        omega^n/n! = (-1)^(n(n-1)/2) (i/2)^n Omega ^ conj(Omega)
cycle pairing        e_i^* <-> (-1)^(i-1) e_1^...e_i-hat...^e_n
monodromy loops      counterclockwise; product relation taken right to left
twist-class lift     B normalised by B.sigma0 = 0 before computing classes
fibre volume (K3)    vol = ReOmega.E after phase alignment; vol * dual-vol = 1
"""


def _print_report(text, report, fmt, out):
    """Print the report (its JSON text given) and write the JSON to out;
    False if out cannot be written."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return False
    print(text if fmt == "json" else report.to_text())
    return True


def _apply_settings(doc, args):
    """Merge --grid/--tol into the settings; a document or settings value of
    the wrong type is left as it is, for validation to reject."""
    flags = {k: v for k in ("grid", "tol") if (v := getattr(args, k, None)) is not None}
    settings = doc.get("settings", {}) if isinstance(doc, dict) else None
    if flags and isinstance(settings, dict):
        doc["settings"] = {**settings, **flags}
    return doc


def _run_doc(read, args, kind=None):
    """Run the document read() returns, or with kind the scenario of that kind
    around the payload read() returns; validated once, after the flags merge."""
    from .scenarios import SCHEMA_VERSION, ScenarioError, run_scenario_doc

    try:
        doc = read()
        if kind is not None:
            doc = {"version": SCHEMA_VERSION, "kind": kind, "payload": doc}
        report = run_scenario_doc(_apply_settings(doc, args))
        # serialised before anything is printed: a report JSON cannot hold
        # is an internal error, with nothing on stdout
        text = report.to_json()
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # noqa: BLE001 - map to the documented exit code
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if not _print_report(text, report, args.format, args.out):
        return EXIT_PARSE
    return EXIT_OK if report.passed else EXIT_VERDICT


def cmd_run(args):
    from .scenarios import _read_json

    return _run_doc(lambda: _read_json(args.scenario), args)


def cmd_fibre(args):
    models = "all" if args.model is None else [args.model]
    return _run_doc(lambda: {"models": models, "grid": args.cells}, args, "fibre")


def cmd_sheaf(args):
    from .scenarios import _read_json

    return _run_doc(lambda: _read_json(args.monodromy), args, "sheaf")


def cmd_k3(args):
    from .scenarios import _read_json

    return _run_doc(lambda: _read_json(args.input), args, "k3")


def cmd_list_models(args):
    rows = []
    for name, (expected, desc) in MODEL_TABLE.items():
        if args.type is not None and args.type != tuple(expected):
            continue
        rows.append({"model": name, "b1": expected[0], "b2": expected[1],
                     "description": desc})
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for row in rows:
            print(f"{row['model']:<6} ({row['b1']},{row['b2']})  {row['description']}")
    return EXIT_OK


def cmd_conventions(_args):
    print(CONVENTIONS)
    return EXIT_OK


def _fibre_type(text):
    """argparse type of --type: two non-negative integers b1,b2."""
    parts = text.split(",")
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise argparse.ArgumentTypeError(f"expected two non-negative integers b1,b2, not {text!r}")
    return tuple(map(int, parts))


def _add_output(p):
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None, help="also write the JSON report here")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="syzlab",
        description="verification toolkit for semi-flat torus-fibration structures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario file")
    p.add_argument("scenario")
    p.add_argument("--grid", type=int, default=None,
                   help="yukawa fibre quadrature points per axis (default 16; "
                        "grid^n at most 2^20); no other kind reads it")
    p.add_argument("--tol", type=float, default=None,
                   help="residual tolerance (default 1e-8)")
    _add_output(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("fibre", help="cohomology of the singular fibre models")
    p.add_argument("--model", default=None, help="one model name (default: all)")
    p.add_argument("--cells", type=int, default=1, choices=(1, 2, 3),
                   help="grid subdivisions per circle")
    _add_output(p)
    p.set_defaults(fn=cmd_fibre)

    p = sub.add_parser("sheaf", help="pushforward cohomology of a local system")
    p.add_argument("--monodromy", required=True,
                   help="JSON sheaf payload: rank and monodromy matrices")
    _add_output(p)
    p.set_defaults(fn=cmd_sheaf)

    p = sub.add_parser("k3", help="lattice-level mirror map")
    p.add_argument("--input", required=True, help="JSON mirror-input file")
    _add_output(p)
    p.set_defaults(fn=cmd_k3)

    p = sub.add_parser("list-models", help="catalogue of fibre models")
    p.add_argument("--type", type=_fibre_type, default=None,
                   help="filter by type b1,b2, e.g. 1,1")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_list_models)

    p = sub.add_parser("conventions", help="print the sign/orientation ledger")
    p.set_defaults(fn=cmd_conventions)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
