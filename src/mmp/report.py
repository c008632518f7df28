"""End-to-end analysis of one point set: matching, piercing, stretch
bounds, and (for 3-pair matchings) the configuration label.

The resulting dictionary serializes canonically (see docio) and is
reproducible bit-for-bit across runs apart from the ``timing_ms``
field.  ``invariant_failures`` lists any violated guarantee: a
max-sum matching of an uncolored set must have a pierceable disk
family, and a colored one must have pairwise-overlapping disks.
"""

from __future__ import annotations

import time

from .classify import EASY_LABELS, WitnessConstructionError, classify_three, witness_easy_case
from .docio import input_digest
from .geom import Disk, Point, Segment, dist
from .matching import PointSet, max_sum_2opt, max_sum_bruteforce
from .piercing import (
    STRETCH_BOUNDS,
    PairVerdict,
    PiercingVerdict,
    midpoint_shortest_edge,
    pairwise_intersect,
    pierce_disks,
    stretch_report,
)
from .tolerances import pierce_tol

__all__ = ["RUN_REPORT_SCHEMA", "analyze", "run_report"]

RUN_REPORT_SCHEMA = "mmp.run_report/2"


def _stretch_block(pairs, center: Point) -> dict:
    reports = {name: stretch_report(pairs, center, bound) for name, bound in STRETCH_BOUNDS.items()}
    any_report = next(iter(reports.values()))
    ratios = [s.ratio for s in any_report.pairs]
    return {
        "center": [center.x, center.y],
        "ratios": ratios,
        "max_ratio": any_report.max_ratio,
        "zero_length_pairs": list(any_report.zero_length_pairs),
        "segment_distance_within_half_length": all(s.within_half_length for s in any_report.pairs),
        "bounds": {name: reports[name].holds for name in sorted(reports)},
    }


def analyze(
    ps: PointSet,
    name: str | None = None,
    heuristic: bool = False,
    selected_bound: str = "sqrt2",
) -> dict:
    """Full pipeline on one point set; returns the run-report dict."""
    t0 = time.perf_counter()
    if heuristic:
        matching = max_sum_2opt(ps)
        is_unique = None
        method = "2opt-heuristic"
    else:
        matching, is_unique = max_sum_bruteforce(ps)
        method = "bruteforce"

    pairs = matching.segments(ps)
    disks = [Disk.diametral(a, b) for a, b in pairs]
    invariant_failures: list[str] = []

    piercing = pierce_disks(disks)
    pierce_block = {
        "verdict": piercing.verdict.value,
        "witness": None if piercing.witness is None else [piercing.witness.x, piercing.witness.y],
        "depth": piercing.depth,
        "iterations": piercing.iterations,
        "basis": list(piercing.basis),
    }

    if ps.is_colored:
        disjoint = []
        for i in range(len(disks)):
            for j in range(i + 1, len(disks)):
                if pairwise_intersect(disks[i], disks[j]) is PairVerdict.DISJOINT:
                    disjoint.append([i, j])
        if disjoint and not heuristic:
            invariant_failures.append("colored: matched-pair disks must pairwise intersect")
        pairwise_block = {"disjoint_pairs": disjoint}
    else:
        pairwise_block = None
        if piercing.verdict is PiercingVerdict.EMPTY and not heuristic:
            invariant_failures.append("uncolored: matching disks must share a common point")

    stretch: dict = {}
    if piercing.witness is not None:
        stretch["at_witness"] = _stretch_block(pairs, piercing.witness)
        if not heuristic and not ps.is_colored:
            scale = max(ps.scale(), max(d.radius for d in disks))
            tol = pierce_tol(scale)
            worst = max(dist(piercing.witness, d.center) - d.radius for d in disks)
            if worst > tol:
                invariant_failures.append("witness does not lie in every disk")
    stretch["at_shortest_midpoint"] = _stretch_block(pairs, midpoint_shortest_edge(pairs))

    case_block = None
    if len(pairs) == 3:
        cls = classify_three([Segment(a, b) for a, b in pairs])
        case_block = {
            "label": cls.label.value,
            "group": cls.group,
            "fragile": cls.fragile,
            "relations": [r.kind.value for r in cls.relations],
        }
        if cls.label in EASY_LABELS:
            try:
                w = witness_easy_case([Segment(a, b) for a, b in pairs], cls)
                case_block["easy_witness"] = [w.x, w.y]
            except WitnessConstructionError:
                case_block["easy_witness"] = None
                if not cls.fragile and not heuristic and not ps.is_colored:
                    invariant_failures.append("easy-case witness construction failed")

    report = {
        "schema": RUN_REPORT_SCHEMA,
        "name": name,
        "input_digest": input_digest(ps, name),
        "colored": ps.is_colored,
        "n_pairs": ps.n_pairs,
        "matching": {
            "pairs": [list(p) for p in matching.pairs],
            "cost": matching.cost,
            "method": method,
            "is_unique": is_unique,
        },
        "piercing": pierce_block,
        "pairwise": pairwise_block,
        "stretch": stretch,
        "selected_bound": selected_bound,
        "case": case_block,
        "invariant_failures": invariant_failures,
        "timing_ms": (time.perf_counter() - t0) * 1000.0,
    }
    return report


def run_report(ps: PointSet, **kwargs) -> dict:
    """Alias kept for symmetry with the CLI subcommand."""
    return analyze(ps, **kwargs)
