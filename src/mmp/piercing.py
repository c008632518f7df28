"""Common-point (piercing) decisions for disk and ellipse families.

The quantity minimized everywhere is the convex depth function

    f(x) = max_i (|x - c_i| - r_i)          for disks, and
    g(x) = max_i (focal_sum_i(x) - 2 a_i)   for ellipse regions.

A family has a common point iff the minimum is <= 0; the minimizing
point is the reported witness.  Families of at most three disks are
solved exactly by candidate enumeration (centers, pair balance points,
circle-circle intersections, and equal-depth points of three cones).
Minimizing f is an LP-type problem of combinatorial dimension 3
(Matousek-Sharir-Welzl), so larger families run a violator loop whose
bases of at most three disks go to that exact solver; the final basis
is reported with the result and certifies an empty intersection.
Ellipse families run a central-cut ellipsoid loop that brackets the
minimum of g between the best centre and a subgradient lower bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .geom import Disk, EllipseRegion, Point, Segment, dist, midpoint, point_segment_distance
from .tolerances import pierce_tol, ratio_tol

__all__ = [
    "PiercingVerdict",
    "PairVerdict",
    "PiercingResult",
    "PairStretch",
    "StretchReport",
    "STRETCH_BOUNDS",
    "pairwise_intersect",
    "triple_intersect_exact",
    "pierce_disks",
    "pierce_ellipses",
    "stretch_report",
    "midpoint_shortest_edge",
    "circle_circle_points",
    "disk_depth",
]

# Stretch-factor bounds checked by reports and the CLI.
STRETCH_BOUNDS = {
    "fingerhut": 2.0 / math.sqrt(3.0),
    "sqrt2": math.sqrt(2.0),
    "sqrt5": math.sqrt(5.0),
    "eppstein": 2.5,
}


class PiercingVerdict(Enum):
    NONEMPTY = "nonempty"
    TANGENT = "tangent"
    EMPTY = "empty"


class PairVerdict(Enum):
    OVERLAP = "overlap"
    TANGENT = "tangent"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class PiercingResult:
    verdict: PiercingVerdict
    witness: Point | None
    depth: float
    iterations: int = 0
    basis: tuple[int, ...] = ()


def _disk_scale(disks: Sequence[Disk]) -> float:
    s = 0.0
    for d in disks:
        s = max(s, abs(d.center.x), abs(d.center.y), d.radius)
    return s


def disk_depth(x: Point, disks: Sequence[Disk]) -> float:
    """max_i (|x - c_i| - r_i); <= 0 iff x lies in every disk."""
    return max(dist(x, d.center) - d.radius for d in disks)


def pairwise_intersect(d1: Disk, d2: Disk) -> PairVerdict:
    """Overlap / external tangency / disjointness of two closed disks.

    Containment and internal tangency count as overlap.
    """
    tol = pierce_tol(_disk_scale((d1, d2)))
    gap = dist(d1.center, d2.center) - (d1.radius + d2.radius)
    if abs(gap) <= tol:
        return PairVerdict.TANGENT
    return PairVerdict.OVERLAP if gap < 0 else PairVerdict.DISJOINT


def circle_circle_points(d1: Disk, d2: Disk) -> list[Point]:
    """Intersection points of the two boundary circles (0, 1, or 2).

    A tangency within the tolerance band yields the single touching
    point.  Coincident circles yield nothing.
    """
    c1, c2 = d1.center, d2.center
    r1, r2 = d1.radius, d2.radius
    d = dist(c1, c2)
    tol = pierce_tol(_disk_scale((d1, d2)))
    if d == 0.0:
        return []
    if d > r1 + r2 + tol or d < abs(r1 - r2) - tol:
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    h = math.sqrt(h_sq) if h_sq > 0.0 else 0.0
    ux, uy = (c2.x - c1.x) / d, (c2.y - c1.y) / d
    base = Point(c1.x + a * ux, c1.y + a * uy)
    if h == 0.0:
        return [base]
    return [
        Point(base.x - h * uy, base.y + h * ux),
        Point(base.x + h * uy, base.y - h * ux),
    ]


def _pair_balance_point(d1: Disk, d2: Disk) -> Point | None:
    """Minimizer of max(f1, f2) when it lies strictly between the
    centers; ``None`` when one cone dominates (nested disks)."""
    d = dist(d1.center, d2.center)
    if d == 0.0:
        return None
    s1 = 0.5 * (d + d1.radius - d2.radius)
    if s1 < 0.0 or s1 > d:
        return None
    t = s1 / d
    return Point(
        d1.center.x + t * (d2.center.x - d1.center.x),
        d1.center.y + t * (d2.center.y - d1.center.y),
    )


def _equal_depth_points(d1: Disk, d2: Disk, d3: Disk) -> list[Point]:
    """Points where all three cone depths agree: |x-c_i| = t + r_i.

    Subtracting the squared equations pairwise leaves a linear system in
    (x, t); substituting back gives a quadratic in t.  Both real roots
    with nonnegative distances are returned.
    """
    c1, c2, c3 = d1.center, d2.center, d3.center
    r1, r2, r3 = d1.radius, d2.radius, d3.radius
    m = np.array(
        [
            [2.0 * (c1.x - c2.x), 2.0 * (c1.y - c2.y)],
            [2.0 * (c1.x - c3.x), 2.0 * (c1.y - c3.y)],
        ]
    )
    det = np.linalg.det(m)
    norm = max(abs(m).max(), 1e-300)
    if abs(det) <= 1e-14 * norm * norm:
        return []  # collinear centers; covered by pair candidates
    q1 = c1.x * c1.x + c1.y * c1.y - r1 * r1
    rhs = np.array(
        [
            q1 - (c2.x * c2.x + c2.y * c2.y - r2 * r2),
            q1 - (c3.x * c3.x + c3.y * c3.y - r3 * r3),
        ]
    )
    dvec = np.array([2.0 * (r1 - r2), 2.0 * (r1 - r3)])
    p = np.linalg.solve(m, rhs)
    q = np.linalg.solve(m, -dvec)
    # |p + q t - c1|^2 = (t + r1)^2
    ex, ey = p[0] - c1.x, p[1] - c1.y
    aa = q[0] * q[0] + q[1] * q[1] - 1.0
    bb = 2.0 * (ex * q[0] + ey * q[1] - r1)
    cc = ex * ex + ey * ey - r1 * r1
    roots: list[float] = []
    if abs(aa) < 1e-14:
        if abs(bb) > 1e-300:
            roots.append(-cc / bb)
    else:
        disc = bb * bb - 4.0 * aa * cc
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots.extend(((-bb - sq) / (2.0 * aa), (-bb + sq) / (2.0 * aa)))
    rmin = min(r1, r2, r3)
    out = []
    for t in roots:
        if t + rmin < -pierce_tol(rmin):
            continue  # would need a negative distance
        out.append(Point(float(p[0] + q[0] * t), float(p[1] + q[1] * t)))
    return out


def _containment_reduce(disks: list[Disk], tol: float) -> list[Disk]:
    """Drop disks that contain another disk of the family; the depth of
    a container is dominated everywhere, so this is exact."""
    keep = list(disks)
    changed = True
    while changed and len(keep) > 1:
        changed = False
        for i, j in itertools.permutations(range(len(keep)), 2):
            di, dj = keep[i], keep[j]
            if dist(di.center, dj.center) <= dj.radius - di.radius + tol:
                keep.pop(j)  # D_i inside D_j: drop the container D_j
                changed = True
                break
    return keep


def _candidate_points(disks: Sequence[Disk]) -> list[Point]:
    cands = [d.center for d in disks]
    for d1, d2 in itertools.combinations(disks, 2):
        bp = _pair_balance_point(d1, d2)
        if bp is not None:
            cands.append(bp)
        cands.extend(circle_circle_points(d1, d2))
    for trio in itertools.combinations(disks, 3):
        cands.extend(_equal_depth_points(*trio))
    return cands


def _best_candidate(
    cands: Sequence[Point], all_disks: Sequence[Disk]
) -> tuple[Point, float]:
    best: Point | None = None
    best_depth = math.inf
    for x in cands:
        depth = disk_depth(x, all_disks)
        if depth < best_depth - 1e-15 or (
            abs(depth - best_depth) <= 1e-15
            and best is not None
            and (x.x, x.y) < (best.x, best.y)
        ):
            best = x
            best_depth = depth
    assert best is not None
    return best, best_depth


def _exact_small(disks: Sequence[Disk]) -> tuple[Point, float]:
    """Exact minimax point for at most three disks."""
    assert 1 <= len(disks) <= 3
    tol = pierce_tol(_disk_scale(disks))
    reduced = _containment_reduce(list(disks), tol)
    cands = _candidate_points(reduced)
    return _best_candidate(cands, disks)


def _verdict(depth: float, tol: float) -> PiercingVerdict:
    if abs(depth) <= tol:
        return PiercingVerdict.TANGENT
    return PiercingVerdict.NONEMPTY if depth < 0 else PiercingVerdict.EMPTY


def _result(
    witness: Point, depth: float, tol: float, iterations: int, basis: tuple[int, ...] = ()
) -> PiercingResult:
    verdict = _verdict(depth, tol)
    if verdict is PiercingVerdict.EMPTY:
        witness = None
    return PiercingResult(verdict, witness, depth, iterations, basis)


def triple_intersect_exact(d1: Disk, d2: Disk, d3: Disk) -> PiercingResult:
    """Exact common-point decision for three disks.

    The deepest candidate point decides the verdict; candidates cover
    every possible support of the convex depth minimum.
    """
    tol = pierce_tol(_disk_scale((d1, d2, d3)))
    witness, depth = _exact_small((d1, d2, d3))
    return _result(witness, depth, tol, 0)


def pierce_disks(disks: Sequence[Disk]) -> PiercingResult:
    """Witness point, verdict and basis for an arbitrary disk family.

    Families of up to three disks are dispatched to the exact solver;
    their basis is every index.  Larger families run a violator loop
    from basis ``(0,)``: the most-violated disk ``h`` (lowest index on
    ties) enters, and the basis becomes the subset of at most three
    disks of ``basis + (h,)`` that contains ``h`` and whose exact point
    has the least depth over ``basis + (h,)``.  Each pivot raises the
    basis depth strictly, so the loop ends when no disk is violated or,
    under rounding, when the depth stops rising.  ``iterations`` counts
    the pivots, and ``basis`` holds the sorted indices of the disks that
    fix the optimum, a Helly certificate for an EMPTY verdict.
    """
    if not disks:
        raise ValueError("need at least one disk")
    disks = list(disks)
    tol = pierce_tol(_disk_scale(disks))
    if len(disks) <= 3:
        witness, depth = _exact_small(disks)
        return _result(witness, depth, tol, 0, tuple(range(len(disks))))

    basis: tuple[int, ...] = (0,)
    x, depth = _exact_small([disks[0]])
    pivots = 0
    while True:
        values = [dist(x, d.center) - d.radius for d in disks]
        h = max(range(len(disks)), key=values.__getitem__)
        if values[h] <= depth:
            break
        pool = [disks[i] for i in basis + (h,)]
        subsets = [
            tuple(sorted(rest + (h,)))
            for size in (0, 1, 2)
            for rest in itertools.combinations(basis, size)
        ]
        points = [_exact_small([disks[i] for i in s])[0] for s in subsets]
        depths = [disk_depth(p, pool) for p in points]
        j = min(range(len(subsets)), key=depths.__getitem__)
        if depths[j] <= depth:
            break
        basis, x, depth = subsets[j], points[j], depths[j]
        pivots += 1
    return _result(x, values[h], tol, pivots, basis)


def _ellipse_scale(regions: Sequence[EllipseRegion]) -> float:
    s = 0.0
    for e in regions:
        s = max(
            s,
            abs(e.focus_a.x),
            abs(e.focus_a.y),
            abs(e.focus_b.x),
            abs(e.focus_b.y),
            e.semimajor,
        )
    return s


# The central-cut loop stops once its depth bracket is this fraction of
# the verdict band, so the band, not the solver, decides the verdict.
_BRACKET_FRACTION = 1e-3


def _ellipse_value_grad(x: Point, regions: Sequence[EllipseRegion]) -> tuple[float, float, float]:
    """max_i (focal_sum_i(x) - 2 a_i) and one subgradient: the sum of
    the active region's unit vectors from its foci (lowest index on
    ties; a focus at ``x`` contributes zero)."""
    best = -math.inf
    bi = 0
    for i, e in enumerate(regions):
        v = dist(x, e.focus_a) + dist(x, e.focus_b) - 2.0 * e.semimajor
        if v > best:
            best = v
            bi = i
    e = regions[bi]
    gx = gy = 0.0
    for f in (e.focus_a, e.focus_b):
        dx, dy = x.x - f.x, x.y - f.y
        norm = math.hypot(dx, dy)
        if norm > 0.0:
            gx += dx / norm
            gy += dy / norm
    return best, gx, gy


def pierce_ellipses(regions: Sequence[EllipseRegion]) -> PiercingResult:
    """Common-point decision for ellipse regions.

    A single region is handled in closed form (any point of the focal
    segment is deepest; the midpoint is reported).  Families run a
    central-cut ellipsoid loop on the depth g.  The localizing ellipse
    ``{y : (y - c)^T P^-1 (y - c) <= 1}`` starts as the ball around
    region 0's focal midpoint ``m`` with radius ``a_0 + g(m)/2``; region
    0's confocal ellipse with that semimajor holds every point at least
    as deep as ``m``.  Each cut evaluates g and a subgradient ``s`` at
    the centre ``c``, keeps the centre of least depth as the witness
    (the upper bound), raises the lower bound to ``g(c) - sqrt(s^T P s)``
    and replaces the localizing ellipse by the smallest one holding its
    half ``{(y - c) . s <= 0}``.  The loop stops when ``s^T P s`` is 0
    (``c`` minimizes its active region's focal sum, hence g) or when the
    bracket is at most ``_BRACKET_FRACTION * pierce_tol``.
    ``iterations`` counts the cuts.
    """
    if not regions:
        raise ValueError("need at least one ellipse region")
    regions = list(regions)
    scale = _ellipse_scale(regions)
    tol = pierce_tol(scale)
    e = regions[0]
    center = midpoint(e.focus_a, e.focus_b)
    if len(regions) == 1:
        depth = dist(e.focus_a, e.focus_b) - 2.0 * e.semimajor
        return _result(center, depth, tol, 0)

    value, sx, sy = _ellipse_value_grad(center, regions)
    radius = e.semimajor + 0.5 * value
    p11, p12, p22 = radius * radius, 0.0, radius * radius
    witness, upper, lower = center, value, -math.inf
    cuts = 0
    while True:
        psx, psy = p11 * sx + p12 * sy, p12 * sx + p22 * sy
        sps = sx * psx + sy * psy
        if not sps > 0.0:
            break  # c minimizes its active function (NaN stops too)
        root = math.sqrt(sps)
        lower = max(lower, value - root)
        if upper - lower <= _BRACKET_FRACTION * tol:
            break
        bx, by = psx / root, psy / root
        center = Point(center.x - bx / 3.0, center.y - by / 3.0)
        p11 = 4.0 / 3.0 * (p11 - 2.0 / 3.0 * bx * bx)
        p12 = 4.0 / 3.0 * (p12 - 2.0 / 3.0 * bx * by)
        p22 = 4.0 / 3.0 * (p22 - 2.0 / 3.0 * by * by)
        cuts += 1
        value, sx, sy = _ellipse_value_grad(center, regions)
        if value < upper:
            witness, upper = center, value
    return _result(witness, upper, tol, cuts)


@dataclass(frozen=True)
class PairStretch:
    """Stretch statistics of one matched pair around a center point."""

    index: int
    length: float
    ratio: float | None  # None for zero-length pairs
    segment_distance: float
    within_half_length: bool


@dataclass(frozen=True)
class StretchReport:
    center: Point
    bound: float
    pairs: tuple[PairStretch, ...]
    max_ratio: float | None
    holds: bool
    zero_length_pairs: tuple[int, ...]


def stretch_report(
    pairs: Sequence[tuple[Point, Point]], o: Point, bound: float
) -> StretchReport:
    """Per-pair detour ratios (|a-o| + |b-o|) / |a-b| against a bound.

    Zero-length pairs have no ratio and are listed separately.  Each
    entry also records the distance from ``o`` to the pair's segment
    and whether it is at most half the pair length (the disk-membership
    equivalent, within ``pierce_tol``); ``holds`` compares the ratio
    with ``bound`` within the scale-free ``ratio_tol``.
    """
    scale = 0.0
    for a, b in pairs:
        scale = max(scale, abs(a.x), abs(a.y), abs(b.x), abs(b.y))
    scale = max(scale, abs(o.x), abs(o.y))
    tol = pierce_tol(scale)

    stats: list[PairStretch] = []
    zeros: list[int] = []
    max_ratio: float | None = None
    for idx, (a, b) in enumerate(pairs):
        length = dist(a, b)
        seg_dist = point_segment_distance(o, Segment(a, b))
        within = seg_dist <= 0.5 * length + tol
        if length == 0.0:
            zeros.append(idx)
            stats.append(PairStretch(idx, 0.0, None, seg_dist, within))
            continue
        ratio = (dist(a, o) + dist(b, o)) / length
        stats.append(PairStretch(idx, length, ratio, seg_dist, within))
        if max_ratio is None or ratio > max_ratio:
            max_ratio = ratio
    holds = max_ratio is None or max_ratio <= bound + ratio_tol()
    return StretchReport(o, bound, tuple(stats), max_ratio, holds, tuple(zeros))


def midpoint_shortest_edge(pairs: Sequence[tuple[Point, Point]]) -> Point:
    """Midpoint of a minimum-length pair; ties go to the lowest index."""
    if not pairs:
        raise ValueError("need at least one pair")
    best_idx = 0
    best_len = dist(pairs[0][0], pairs[0][1])
    for idx in range(1, len(pairs)):
        length = dist(pairs[idx][0], pairs[idx][1])
        if length < best_len:
            best_idx, best_len = idx, length
    a, b = pairs[best_idx]
    return midpoint(a, b)
