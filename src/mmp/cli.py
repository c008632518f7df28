"""Command-line front end.

Subcommands: match, counterexample, classify, lemmas, experiment, svg.

Exit codes: 0 success, 1 input/parse errors (including out-of-threshold
construction parameters and trial or pair counts out of range), 2 no
certified exact optimum (an odd cycle sent more than 16 points to
enumeration), 3 a guaranteed invariant failed (for ``lemmas``: a
positive run recorded a violation, or a negative control recorded
none).  The MMP_TOL environment variable scales every tolerance band.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .classify import classify_three, witness_easy_case, EASY_LABELS, WitnessConstructionError
from .constructions import (
    ConstructionError,
    theorem2_instance,
    theorem3_instance,
)
from .docio import DocumentError, canonical_json, document_of, parse_document
from .experiment import run_campaign
from .geom import Point, Segment
from .lemmas import LEMMA_CHECKERS, SamplerStarvationError, run_checker
from .matching import Matching, SizeLimitError, max_sum
from .piercing import STRETCH_BOUNDS
from .report import analyze
from .svgfig import render_svg
from .tolerances import set_tolerance_factor

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SIZE = 2
EXIT_INVARIANT = 3


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text, encoding="utf-8")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _report_exit(report: dict) -> int:
    if not report["invariant_failures"]:
        return EXIT_OK
    print("invariant failures: " + "; ".join(report["invariant_failures"]), file=sys.stderr)
    return EXIT_INVARIANT


def cmd_match(args: argparse.Namespace) -> int:
    try:
        ps, name = parse_document(_read_input(args.input))
    except (OSError, DocumentError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    report = analyze(ps, name=name, selected_bound=args.bound)
    _write_output(canonical_json(report), args.out)
    return _report_exit(report)


def cmd_counterexample(args: argparse.Namespace) -> int:
    try:
        if args.family == "thm2":
            epsilon = 0.02 if args.epsilon is None else args.epsilon
            inst = theorem2_instance(epsilon)
            name = f"thm2_eps{epsilon:g}"
        else:
            n = 4 if args.n is None else args.n
            inst = theorem3_instance(n, args.epsilon)
            name = f"thm3_n{n}"
    except ConstructionError as exc:
        return _fail(str(exc), EXIT_INPUT)

    doc = document_of(inst.point_set, name)
    _write_output(canonical_json(doc), args.out)
    if args.report is None:
        return EXIT_OK
    report = analyze(inst.point_set, name=name)
    _write_output(canonical_json(report), args.report)
    return _report_exit(report)


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        ps, name = parse_document(_read_input(args.input))
    except (OSError, DocumentError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    # the A..J premise (convex position contradicts maximality) holds
    # only for uncolored matchings
    if ps.colors is not None:
        return _fail("classification applies to uncolored documents only", EXIT_INPUT)
    if ps.n_pairs != 3:
        return _fail(f"classification needs exactly 3 pairs, got {ps.n_pairs}", EXIT_INPUT)
    matching, _ = max_sum(ps)
    segs = [Segment(a, b) for a, b in matching.segments(ps)]
    cls = classify_three(segs)
    payload = {
        "name": name,
        "matching": [list(p) for p in matching.pairs],
        "label": cls.label.value,
        "group": cls.group,
        "fragile": cls.fragile,
        "relations": {
            "pairs": [[0, 1], [0, 2], [1, 2]],
            "kinds": [r.kind.value for r in cls.relations],
        },
    }
    if cls.label in EASY_LABELS:
        try:
            w = witness_easy_case(segs, cls)
            payload["witness"] = [w.x, w.y]
        except WitnessConstructionError as exc:
            payload["witness"] = None
            payload["witness_error"] = str(exc)
    _write_output(canonical_json(payload), args.out)
    return EXIT_OK


def cmd_lemmas(args: argparse.Namespace) -> int:
    if args.trials < 1:
        return _fail(f"--trials must be at least 1, got {args.trials}", EXIT_INPUT)
    try:
        report = run_checker(
            args.lemma, args.trials, args.seed, negative_control=args.negative_control
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except SamplerStarvationError as exc:
        return _fail(f"sampler starvation: {exc}", EXIT_INPUT)
    _write_output(canonical_json(report.to_dict()), args.out)
    # a control breaks the hypothesis, so it must record violations
    if (report.violations > 0) != report.negative_control:
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    try:
        n_values = [int(tok) for tok in args.n.split(",")]
    except ValueError:
        return _fail(f"bad --n value {args.n!r}; use e.g. 2,3,4", EXIT_INPUT)
    if min(n_values) < 2:
        return _fail(f"--n values must be at least 2, got {args.n!r}", EXIT_INPUT)
    if args.trials < 1:
        return _fail(f"--trials must be at least 1, got {args.trials}", EXIT_INPUT)
    report = run_campaign(n_values, args.trials, args.seed, colored=args.colored)
    _write_output(canonical_json(report), args.out)
    return EXIT_OK if report["total_violations"] == 0 else EXIT_INVARIANT


def cmd_svg(args: argparse.Namespace) -> int:
    try:
        ps, name = parse_document(_read_input(args.input))
    except (OSError, DocumentError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    report = analyze(ps, name=name)
    matching = Matching.of(ps, [tuple(p) for p in report["matching"]["pairs"]])
    witness = None
    if report["piercing"]["witness"] is not None:
        wx, wy = report["piercing"]["witness"]
        witness = Point(wx, wy)
    svg = render_svg(ps, matching, witness, ellipse_factor=args.ellipse_factor)
    _write_output(svg, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmp",
        description=(
            "Max-sum Euclidean matchings, diametral-disk piercing, and the "
            "stretch-constant ladder (2/sqrt(3), sqrt(2), sqrt(5), 2.5)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="max-sum matching, piercing, and stretch report")
    p.add_argument("--input", "-i", required=True, help="point-set JSON file or '-'")
    p.add_argument("--bound", choices=sorted(STRETCH_BOUNDS), default="sqrt2")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("counterexample", help="generate a verified fixture family instance")
    p.add_argument("family", choices=["thm2", "thm3"])
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="pairs for thm3 (default 4)")
    p.add_argument("--out", help="fixture output file (default stdout)")
    p.add_argument("--report", help="also write the full run report here")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("classify", help="label the configuration of a 3-pair matching")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("lemmas", help="run one inequality-ladder checker")
    p.add_argument("--lemma", required=True, help=f"one of: {', '.join(sorted(LEMMA_CHECKERS))}")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--negative-control", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("experiment", help="randomized verification campaign")
    p.add_argument("--n", default="2,3,4", help="comma-separated pair counts")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--colored", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("svg", help="render an instance (matching, disks, witness) as SVG")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--ellipse-factor", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_svg)

    return parser


def main(argv: list[str] | None = None) -> int:
    set_tolerance_factor(None)  # honor MMP_TOL at invocation time
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitError as exc:
        return _fail(str(exc), EXIT_SIZE)


if __name__ == "__main__":
    sys.exit(main())
