"""Per-instance guarantee checks and the end-to-end run report.

``check_instance`` decides, as named ``Check``s, every guarantee that
applies to a matched instance (the README lists them); ``analyze`` and
the campaigns both read them.  Lengths are compared within
``pierce_tol`` at the instance scale, ratios within ``ratio_tol``.  The
report serializes canonically and is bit-for-bit reproducible apart from
``timing_ms``; ``invariant_failures`` names the failing checks.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .classify import EASY_LABELS, CaseLabel, Classification, WitnessConstructionError
from .classify import classify_three, witness_easy_case
from .docio import input_digest
from .geom import Disk, Point, Segment, dist
from .matching import Matching, PointSet, _max_sum
from .piercing import STRETCH_BOUNDS, PairVerdict, PiercingResult, PiercingVerdict, StretchReport
from .piercing import midpoint_shortest_edge, pairwise_intersect, pierce_disks, stretch_report
from .tolerances import pierce_tol, ratio_tol

__all__ = ["RUN_REPORT_SCHEMA", "Check", "InstanceCheck", "check_instance", "analyze"]

RUN_REPORT_SCHEMA = "mmp.run_report/4"


@dataclass(frozen=True)
class Check:
    """One guarantee: the worst observed ``value`` (None if unmeasured or
    decided by a label), its ``bound`` and band ``tol``, and the number
    of ``violations`` (offending pairs for the colored checks, else 0/1)."""

    name: str
    value: float | None
    bound: float | None
    tol: float | None
    violations: int


@dataclass(frozen=True)
class InstanceCheck:
    """What ``check_instance`` computes once per instance, and its checks."""

    piercing: PiercingResult
    disjoint_pairs: tuple[tuple[int, int], ...] | None  # None for uncolored sets
    at_witness: StretchReport | None
    at_midpoint: StretchReport
    case: Classification | None  # uncolored 3-pair matchings only
    easy_witness: Point | None
    checks: tuple[Check, ...]


def _bound_check(name: str, value: float | None, bound: float, tol: float) -> Check:
    return Check(name, value, bound, tol, int(value is not None and value > bound + tol))


def check_instance(ps: PointSet, matching: Matching) -> InstanceCheck:
    """Decide every guarantee that applies to ``matching`` of ``ps``,
    measuring the stretch at the witness (if any) and at the midpoint
    of the shortest pair."""
    pairs = matching.segments(ps)
    disks = [Disk.diametral(a, b) for a, b in pairs]
    length_tol = pierce_tol(max(ps.scale(), max(d.radius for d in disks)))
    rtol = ratio_tol()
    piercing = pierce_disks(disks)
    witness = piercing.witness
    at_witness = None if witness is None else stretch_report(pairs, witness, STRETCH_BOUNDS["sqrt2"])
    at_midpoint = stretch_report(pairs, midpoint_shortest_edge(pairs), STRETCH_BOUNDS["sqrt5"])
    checks: list[Check] = []
    disjoint_pairs = case = easy_witness = None

    if ps.is_colored:
        disjoint, gaps, excess = [], [], []
        for i, j in itertools.combinations(range(len(disks)), 2):
            di, dj = disks[i], disks[j]
            if pairwise_intersect(di, dj) is PairVerdict.DISJOINT:
                disjoint.append((i, j))
            gaps.append(dist(di.center, dj.center) - di.radius - dj.radius)
            # Prop. 1, |(a + a') - (b + b')| <= |a - a'| + |b - b'|, is this
            # gap doubled; as a ratio it is relative to 1 + the right side
            excess.append(2.0 * gaps[-1] / (1.0 + 2.0 * (di.radius + dj.radius)))
        disjoint_pairs = tuple(disjoint)
        checks += [
            Check("pairwise_disjoint", max(gaps, default=None), 0.0, length_tol, len(disjoint)),
            Check("prop1_vector_inequality", max(excess, default=None), 0.0, rtol,
                  sum(e > rtol for e in excess)),
        ]
    else:
        empty = piercing.verdict is PiercingVerdict.EMPTY or witness is None
        checks.append(Check("empty_intersection", piercing.depth, 0.0, length_tol, int(empty)))
        worst_depth = seg_excess = max_ratio = None
        if at_witness is not None:
            worst_depth = max(dist(witness, d.center) - d.radius for d in disks)
            seg_excess = max(s.segment_distance - 0.5 * s.length for s in at_witness.pairs)
            max_ratio = at_witness.max_ratio
        checks.append(_bound_check("witness_invalid", worst_depth, 0.0, length_tol))
        checks.append(_bound_check("sqrt2_stretch", max_ratio, STRETCH_BOUNDS["sqrt2"], rtol))
        checks.append(_bound_check("segment_distance_above_half_length", seg_excess, 0.0, length_tol))
        if len(pairs) == 3:
            segs = [Segment(a, b) for a, b in pairs]
            case = classify_three(segs)
            if case.label in EASY_LABELS:
                try:
                    easy_witness = witness_easy_case(segs, case)
                except WitnessConstructionError:
                    pass
            # fragile configurations are excluded from both label checks
            sure = not case.fragile
            dichotomy = sure and case.label is CaseLabel.NOT_MAX_SUM
            easy_failed = sure and case.label in EASY_LABELS and easy_witness is None
            checks.append(Check("dichotomy", None, None, None, int(dichotomy)))
            checks.append(Check("easy_witness_failed", None, None, None, int(easy_failed)))

    for name, bound in (("sqrt5_midpoint", "sqrt5"), ("eppstein_midpoint", "eppstein")):
        checks.append(_bound_check(name, at_midpoint.max_ratio, STRETCH_BOUNDS[bound], rtol))
    return InstanceCheck(
        piercing, disjoint_pairs, at_witness, at_midpoint, case, easy_witness, tuple(checks)
    )


def _stretch_block(sr: StretchReport) -> dict:
    return {
        "center": [sr.center.x, sr.center.y],
        "ratios": [s.ratio for s in sr.pairs],
        "max_ratio": sr.max_ratio,
        "zero_length_pairs": list(sr.zero_length_pairs),
        "segment_distance_within_half_length": all(s.within_half_length for s in sr.pairs),
        "bounds": {
            name: sr.max_ratio is None or sr.max_ratio <= bound + ratio_tol()
            for name, bound in STRETCH_BOUNDS.items()
        },
    }


def analyze(ps: PointSet, name: str | None = None, selected_bound: str = "sqrt2") -> dict:
    """Full pipeline on one point set; returns the run-report dict."""
    t0 = time.perf_counter()
    matching, is_unique, method = _max_sum(ps)
    ic = check_instance(ps, matching)

    stretch = {"at_shortest_midpoint": _stretch_block(ic.at_midpoint)}
    if ic.at_witness is not None:
        stretch["at_witness"] = _stretch_block(ic.at_witness)
    case_block = None
    if ic.case is not None:
        case_block = {
            "label": ic.case.label.value,
            "group": ic.case.group,
            "fragile": ic.case.fragile,
            "relations": [r.kind.value for r in ic.case.relations],
        }
        if ic.case.label in EASY_LABELS:
            w = ic.easy_witness
            case_block["easy_witness"] = None if w is None else [w.x, w.y]
    witness = ic.piercing.witness

    return {
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
        "piercing": {
            "verdict": ic.piercing.verdict.value,
            "witness": None if witness is None else [witness.x, witness.y],
            "depth": ic.piercing.depth,
            "iterations": ic.piercing.iterations,
            "basis": list(ic.piercing.basis),
        },
        "pairwise": None if ic.disjoint_pairs is None else {
            "disjoint_pairs": [list(p) for p in ic.disjoint_pairs]
        },
        "stretch": stretch,
        "selected_bound": selected_bound,
        "case": case_block,
        "checks": {
            c.name: {"value": c.value, "bound": c.bound, "tol": c.tol, "violations": c.violations}
            for c in ic.checks
        },
        "invariant_failures": [c.name for c in ic.checks if c.violations],
        "timing_ms": (time.perf_counter() - t0) * 1000.0,
    }
