"""Command-line entry points.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 the scenario file
did not parse or validate or its data is invalid, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__

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
                     (switchable to the opposite order; flips signs only)
monodromy loops      counterclockwise; product relation taken right to left
twist-class lift     B normalised by B.sigma0 = 0 before computing classes
fibre volume (K3)    vol = ReOmega.E after phase alignment; vol * dual-vol = 1
"""


def _print_report(report, fmt, out):
    text = report.to_json() if fmt == "json" else report.to_text()
    if out:
        with open(out, "w") as fh:
            fh.write(report.to_json())
    print(text)


def _apply_settings(doc, args):
    settings = dict(doc.get("settings", {}))
    if getattr(args, "grid", None) is not None:
        settings["grid"] = args.grid
    if getattr(args, "tol", None) is not None:
        settings["tol"] = args.tol
    if settings:
        doc["settings"] = settings
    return doc


def _run_doc(doc, args):
    from .scenarios import ScenarioError, run_scenario_doc

    try:
        report = run_scenario_doc(_apply_settings(doc, args))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # noqa: BLE001 - map to the documented exit code
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _print_report(report, args.format, args.out)
    return EXIT_OK if report.passed else EXIT_VERDICT


def cmd_run(args):
    from .scenarios import ScenarioError, load_scenario

    try:
        doc = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return _run_doc(doc, args)


def cmd_fibre(args):
    models = "all" if args.model is None else [args.model]
    doc = {"version": "1", "kind": "fibre",
           "payload": {"models": models, "grid": args.cells}}
    return _run_doc(doc, args)


def cmd_sheaf(args):
    try:
        with open(args.monodromy) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if isinstance(data, list):
        data = {"rank": len(data[0]) if data else 0, "monodromy": data}
    doc = {"version": "1", "kind": "sheaf", "payload": data}
    return _run_doc(doc, args)


def cmd_k3(args):
    try:
        with open(args.input) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    doc = {"version": "1", "kind": "k3", "payload": payload}
    return _run_doc(doc, args)


def cmd_list_models(args):
    from .fibre_models import MODEL_TABLE

    rows = []
    for name, (expected, desc) in MODEL_TABLE.items():
        if args.type and tuple(int(x) for x in args.type.split(",")) != expected:
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
                   help="fibre quadrature points per axis (default 16)")
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
    p.add_argument("--monodromy", required=True, help="JSON file of integer matrices")
    _add_output(p)
    p.set_defaults(fn=cmd_sheaf)

    p = sub.add_parser("k3", help="lattice-level mirror map")
    p.add_argument("--input", required=True, help="JSON mirror-input file")
    _add_output(p)
    p.set_defaults(fn=cmd_k3)

    p = sub.add_parser("list-models", help="catalogue of fibre models")
    p.add_argument("--type", default=None, help="filter by type, e.g. 1,1")
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
