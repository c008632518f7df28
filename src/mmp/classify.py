"""Relative-position classification for the three segments of a 3-pair
matching, and constructive common-point witnesses for the easy cases.

Two segments of a max-sum matching either cross or one of them points
to the other (its head lies strictly inside the partner's triangle and
diametral disk); four endpoints in convex position would contradict
maximality.  For three segments this yields ten configuration classes,
labeled A through J.  The decision table below is keyed on the crossing
count, the pointing digraph, and which endpoint serves as each pointing
head:

    A  three pairwise crossings
    B  one crossing; the free segment points into both crossing
       segments with opposite heads
    C  two crossings; the doubly-crossed segment is bypassed by a
       single pointing between the other two
    D  one crossing; both crossing segments point into the free one
    E  no crossing; one oriented segment points to both others (same
       head), and the remaining pointing's head lies inside the
       source's disk
    F  as E but the remaining pointing's head lies outside the
       source's disk
    G  one crossing; the free segment points into both crossing
       segments with the same head
    H  no crossing; the pointing digraph is a 3-cycle
    I  one crossing; a pointing chain runs through the crossing pair
    J  no crossing; one segment points to both others with opposite
       heads

Labels A-G admit direct witness constructions (altitude feet and
pointing heads); H-J do not, but their disk families still share a
point.  The fine splits C/D and E/F/G are frozen conventions of this
library; the exposed group labels "CD" and "EFG" are stable regardless
of the fine split, and downstream checks use only the groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .geom import (
    Crossing,
    Disk,
    Point,
    Region,
    Segment,
    coordinate_scale,
    cross,
    dist,
    in_disk,
    point_segment_distance,
    segments_cross,
)
from .tolerances import boundary_tol, fragile_tol

__all__ = [
    "PairRelationKind",
    "PairRelation",
    "CaseLabel",
    "Classification",
    "WitnessConstructionError",
    "pair_relation",
    "classify_three",
    "witness_easy_case",
]


class PairRelationKind(Enum):
    CROSS = "cross"
    FIRST_POINTS_TO_SECOND = "first_points_to_second"
    SECOND_POINTS_TO_FIRST = "second_points_to_first"
    CONVEX_DISJOINT = "convex_disjoint"


@dataclass(frozen=True)
class PairRelation:
    """Relation of an ordered segment pair.

    For pointing relations ``head`` is the endpoint of the source
    segment that lies inside the partner's triangle and disk.
    ``CONVEX_DISJOINT`` covers both true convex position and the
    not-max-sum-compatible case of an interior endpoint outside the
    partner's disk.
    """

    kind: PairRelationKind
    head: Point | None = None
    improper: bool = False
    fragile: bool = False


class CaseLabel(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    G = "G"
    H = "H"
    I = "I"
    J = "J"
    NOT_MAX_SUM = "not-max-sum-compatible"


_GROUPS = {
    CaseLabel.A: "A",
    CaseLabel.B: "B",
    CaseLabel.C: "CD",
    CaseLabel.D: "CD",
    CaseLabel.E: "EFG",
    CaseLabel.F: "EFG",
    CaseLabel.G: "EFG",
    CaseLabel.H: "H",
    CaseLabel.I: "I",
    CaseLabel.J: "J",
    CaseLabel.NOT_MAX_SUM: "not-max-sum-compatible",
}

EASY_LABELS = frozenset(
    {CaseLabel.A, CaseLabel.B, CaseLabel.C, CaseLabel.D, CaseLabel.E, CaseLabel.F, CaseLabel.G}
)


@dataclass(frozen=True)
class Classification:
    label: CaseLabel
    group: str
    relations: tuple[PairRelation, PairRelation, PairRelation]  # pairs (0,1), (0,2), (1,2)
    fragile: bool


class WitnessConstructionError(RuntimeError):
    """The constructive witness recipe failed post-verification; the
    configuration was very likely misclassified (or fragile)."""


def _triangle_margin(e: Point, a: Point, b: Point, c: Point) -> float:
    """Signed distance from ``e`` to the triangle boundary; positive
    inside, negative outside, -inf for a degenerate triangle."""
    area = cross(a, b, c)
    if area == 0.0:
        return -math.inf
    sign = 1.0 if area > 0 else -1.0
    margin = math.inf
    for p, q in ((a, b), (b, c), (c, a)):
        base = dist(p, q)
        if base == 0.0:
            return -math.inf
        margin = min(margin, sign * cross(p, q, e) / base)
    return margin


def _pointing_check(head: Point, tail: Point, other: Segment) -> tuple[bool, float, float]:
    """Whether ``tail -> head`` points to ``other``; returns
    (holds, triangle margin, disk gap)."""
    tri_margin = _triangle_margin(head, tail, other.p, other.q)
    d = Disk.diametral(other.p, other.q)
    disk_gap = d.radius - dist(head, d.center)
    scale = coordinate_scale(head, tail, other.p, other.q)
    tol = boundary_tol(scale)
    holds = tri_margin > tol and disk_gap > tol and other.length() > 0.0
    return holds, tri_margin, disk_gap


def pair_relation(s1: Segment, s2: Segment) -> PairRelation:
    """Crossing / pointing / convex-disjoint relation of two segments.

    The pointing orientation is recomputed from the geometry (the head
    is whichever endpoint lies inside the partner triangle), so the
    relation does not depend on the input orientation of the segments.
    """
    # decision margins below ftol mark the relation fragile; fragile
    # instances are excluded from strict property statistics
    ftol = fragile_tol(coordinate_scale(s1.p, s1.q, s2.p, s2.q))

    crossing: Crossing = segments_cross(s1, s2)
    if crossing:
        return PairRelation(
            PairRelationKind.CROSS,
            improper=crossing.improper,
            fragile=crossing.improper,
        )

    fragile = False
    # near-contact without crossing is a fragile decision
    for e, seg in ((s1.p, s2), (s1.q, s2), (s2.p, s1), (s2.q, s1)):
        if point_segment_distance(e, seg) < ftol:
            fragile = True

    candidates = (
        (s1.q, s1.p, s2, PairRelationKind.FIRST_POINTS_TO_SECOND),
        (s1.p, s1.q, s2, PairRelationKind.FIRST_POINTS_TO_SECOND),
        (s2.q, s2.p, s1, PairRelationKind.SECOND_POINTS_TO_FIRST),
        (s2.p, s2.q, s1, PairRelationKind.SECOND_POINTS_TO_FIRST),
    )
    for head, tail, other, kind in candidates:
        holds, tri_margin, disk_gap = _pointing_check(head, tail, other)
        if math.isfinite(tri_margin) and abs(tri_margin) < ftol:
            fragile = True
        if tri_margin > 0 and abs(disk_gap) < ftol:
            fragile = True
        if holds:
            return PairRelation(kind, head=head, fragile=fragile)
    return PairRelation(PairRelationKind.CONVEX_DISJOINT, fragile=fragile)


def _line_intersection(s1: Segment, s2: Segment) -> Point | None:
    d1x, d1y = s1.q.x - s1.p.x, s1.q.y - s1.p.y
    d2x, d2y = s2.q.x - s2.p.x, s2.q.y - s2.p.y
    den = d1x * d2y - d1y * d2x
    if den == 0.0:
        return None
    t = ((s2.p.x - s1.p.x) * d2y - (s2.p.y - s1.p.y) * d2x) / den
    return Point(s1.p.x + t * d1x, s1.p.y + t * d1y)


def _crossing_point(s1: Segment, s2: Segment) -> Point:
    x = _line_intersection(s1, s2)
    if x is not None:
        return x
    # collinear contact: fall back to a shared endpoint
    for e in (s1.p, s1.q):
        if point_segment_distance(e, s2) <= boundary_tol(coordinate_scale(e, s2.p, s2.q)):
            return e
    return s2.p


def _foot_on_line(x: Point, a: Point, b: Point) -> Point:
    vx, vy = b.x - a.x, b.y - a.y
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return a
    t = ((x.x - a.x) * vx + (x.y - a.y) * vy) / vv
    return Point(a.x + t * vx, a.y + t * vy)


def classify_three(segments: Sequence[Segment]) -> Classification:
    """Label the relative position of three matching segments.

    Invariant under permutations of the segments and under swapping the
    endpoints within a segment.  Any convex-disjoint pair short-circuits
    to ``NOT_MAX_SUM``.
    """
    if len(segments) != 3:
        raise ValueError(f"need exactly three segments, got {len(segments)}")
    idx_pairs = ((0, 1), (0, 2), (1, 2))
    relations = tuple(pair_relation(segments[i], segments[j]) for i, j in idx_pairs)
    fragile = any(r.fragile for r in relations)

    if any(r.kind is PairRelationKind.CONVEX_DISJOINT for r in relations):
        return Classification(CaseLabel.NOT_MAX_SUM, _GROUPS[CaseLabel.NOT_MAX_SUM], relations, fragile)

    crossing_pairs = []
    pointings = []  # (src, dst, head)
    for (i, j), rel in zip(idx_pairs, relations):
        if rel.kind is PairRelationKind.CROSS:
            crossing_pairs.append((i, j))
        elif rel.kind is PairRelationKind.FIRST_POINTS_TO_SECOND:
            pointings.append((i, j, rel.head))
        else:
            pointings.append((j, i, rel.head))

    k = len(crossing_pairs)
    if k == 3:
        label = CaseLabel.A
    elif k == 2:
        label = CaseLabel.C
    elif k == 1:
        label = _classify_one_crossing(crossing_pairs[0], pointings)
    else:
        label = _classify_no_crossing(segments, pointings)
    return Classification(label, _GROUPS[label], relations, fragile)


def _classify_one_crossing(
    crossing: tuple[int, int], pointings: list[tuple[int, int, Point]]
) -> CaseLabel:
    free = ({0, 1, 2} - set(crossing)).pop()
    outgoing = [p for p in pointings if p[0] == free]
    if len(outgoing) == 2:
        same_head = outgoing[0][2] == outgoing[1][2]
        return CaseLabel.G if same_head else CaseLabel.B
    if len(outgoing) == 0:
        return CaseLabel.D
    return CaseLabel.I


def _classify_no_crossing(
    segments: Sequence[Segment], pointings: list[tuple[int, int, Point]]
) -> CaseLabel:
    outdeg = {0: 0, 1: 0, 2: 0}
    for src, _, _ in pointings:
        outdeg[src] += 1
    if all(v == 1 for v in outdeg.values()):
        return CaseLabel.H
    source = max(outdeg, key=lambda i: outdeg[i])
    src_heads = [head for s, _, head in pointings if s == source]
    if src_heads[0] != src_heads[1]:
        return CaseLabel.J
    third = next(p for p in pointings if p[0] != source)
    source_disk = Disk.diametral(segments[source].p, segments[source].q)
    inside = in_disk(third[2], source_disk) is Region.INTERIOR
    return CaseLabel.E if inside else CaseLabel.F


def _in_all_disks(x: Point, disks: Sequence[Disk]) -> bool:
    return all(in_disk(x, d) is not Region.EXTERIOR for d in disks)


def _first_valid(candidates: Sequence[Point], disks: Sequence[Disk]) -> Point | None:
    for x in candidates:
        if _in_all_disks(x, disks):
            return x
    return None


def witness_easy_case(
    segments: Sequence[Segment], classification: Classification | None = None
) -> Point:
    """Constructive common point for configurations labeled A through G.

    The recipe follows the direct arguments for the easy cases: altitude
    feet at crossing points (Thales) and pointing heads.  The result is
    post-verified against all three disks; failure raises
    ``WitnessConstructionError``.
    """
    if classification is None:
        classification = classify_three(segments)
    label = classification.label
    if label not in EASY_LABELS:
        raise ValueError(f"no constructive witness for label {label.value}")

    disks = [Disk.diametral(s.p, s.q) for s in segments]
    idx_pairs = ((0, 1), (0, 2), (1, 2))
    crossing_pairs = []
    pointings = []
    for (i, j), rel in zip(idx_pairs, classification.relations):
        if rel.kind is PairRelationKind.CROSS:
            crossing_pairs.append((i, j))
        elif rel.kind is PairRelationKind.FIRST_POINTS_TO_SECOND:
            pointings.append((i, j, rel.head))
        elif rel.kind is PairRelationKind.SECOND_POINTS_TO_FIRST:
            pointings.append((j, i, rel.head))

    candidates: list[Point] = []
    if label is CaseLabel.A:
        # feet of the altitudes of the triangle bounded by the segments
        u01 = _crossing_point(segments[0], segments[1])
        u02 = _crossing_point(segments[0], segments[2])
        u12 = _crossing_point(segments[1], segments[2])
        for apex, base in ((u12, (u01, u02)), (u02, (u01, u12)), (u01, (u02, u12))):
            candidates.append(_foot_on_line(apex, base[0], base[1]))
    elif label in (CaseLabel.B, CaseLabel.G):
        free = ({0, 1, 2} - set(crossing_pairs[0])).pop()
        u = _crossing_point(segments[crossing_pairs[0][0]], segments[crossing_pairs[0][1]])
        candidates.extend(head for _, _, head in pointings)
        candidates.append(_foot_on_line(u, segments[free].p, segments[free].q))
    elif label is CaseLabel.C:
        candidates.extend(head for _, _, head in pointings)
        u_pts = [_crossing_point(segments[i], segments[j]) for i, j in crossing_pairs]
        candidates.extend(u_pts)
        for u in u_pts:
            for s in segments:
                candidates.append(_foot_on_line(u, s.p, s.q))
    elif label is CaseLabel.D:
        u = _crossing_point(segments[crossing_pairs[0][0]], segments[crossing_pairs[0][1]])
        heads = [head for _, _, head in pointings]
        candidates.extend(heads)
        if len(heads) == 2:
            candidates.append(_foot_on_line(u, heads[0], heads[1]))
    else:  # E, F
        outdeg = {0: 0, 1: 0, 2: 0}
        for src, _, _ in pointings:
            outdeg[src] += 1
        source = max(outdeg, key=lambda i: outdeg[i])
        candidates.extend(head for src, _, head in pointings if src == source)

    witness = _first_valid(candidates, disks)
    if witness is None:
        # constructive fallback sweep over the same Thales-style family
        fallback: list[Point] = []
        for i, j in crossing_pairs:
            u = _crossing_point(segments[i], segments[j])
            fallback.append(u)
            for s in segments:
                fallback.append(_foot_on_line(u, s.p, s.q))
            for p1 in range(len(pointings)):
                for p2 in range(p1 + 1, len(pointings)):
                    fallback.append(_foot_on_line(u, pointings[p1][2], pointings[p2][2]))
        fallback.extend(head for _, _, head in pointings)
        witness = _first_valid(fallback, disks)
    if witness is None:
        raise WitnessConstructionError(
            f"no constructive witness verified for label {label.value}"
        )
    return witness
