"""Parametric generators for the library's named fixture families.

Each generator verifies its own guarantees at construction time (the
exact max-sum optimum, disk-emptiness of the named triple, threshold
checks) and raises ``ConstructionError`` otherwise.

Families
--------
``thm2``       three red + three blue points whose unique max-sum
               matching induces three pairwise-overlapping disks with
               empty common intersection.
``thm3``       the n-pair extension of the same construction (n >= 4).
``equilateral``six uncolored points, two per vertex of an equilateral
               triangle; tightness instance for the 2/sqrt(3) ellipse
               factor.
``singleton``  a triangle plus three coincident interior points; the
               matching disks meet in exactly one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom import Disk, Point, dist
from .matching import Matching, PointSet, max_sum
from .piercing import PiercingVerdict, triple_intersect_exact
from .tolerances import cost_tol

__all__ = [
    "ConstructionError",
    "CounterexampleInstance",
    "THREE_PAIR_EPS_MAX",
    "many_pair_eps_max",
    "theorem2_instance",
    "theorem3_instance",
    "equilateral_tightness",
    "singleton_disk_instance",
]

# Largest epsilon for which the three-pair family keeps a unique optimum.
THREE_PAIR_EPS_MAX = (5.0 - math.sqrt(10.0) - math.sqrt(3.0)) / 4.0


def many_pair_eps_max(n: int) -> float:
    """Epsilon threshold for the n-pair family."""
    return 1.0 / (10.0 * (2 * n - 1))


class ConstructionError(ValueError):
    """Parameters outside a family's validity range, or a failed
    construction-time self check."""


@dataclass(frozen=True)
class CounterexampleInstance:
    """A generated colored instance with its verified optimum and the
    indices (into the optimum's pair list) of a disk triple with empty
    common intersection."""

    point_set: PointSet
    epsilon: float
    n: int
    claimed_optimum: Matching
    empty_triple: tuple[int, int, int]

    def triple_disks(self) -> tuple[Disk, Disk, Disk]:
        pts = self.point_set.points
        disks = []
        for k in self.empty_triple:
            i, j = self.claimed_optimum.pairs[k]
            disks.append(Disk.diametral(pts[i], pts[j]))
        return tuple(disks)


def _base_points(epsilon: float) -> tuple[Point, ...]:
    """The six base points: reds a, b, c and blues a', b', c'.

    a' sits on segment bc and b' on segment ac, both at distance
    ``epsilon`` from c.
    """
    a = Point(-1.0, 0.0)
    b = Point(1.0, 0.0)
    c = Point(0.0, math.sqrt(3.0))
    c_prime = Point(0.0, 3.0)
    # unit(b - c) = (1/2, -sqrt(3)/2); unit(a - c) is its mirror
    a_prime = Point(epsilon / 2.0, math.sqrt(3.0) * (1.0 - epsilon / 2.0))
    b_prime = Point(-epsilon / 2.0, math.sqrt(3.0) * (1.0 - epsilon / 2.0))
    return a, b, c, a_prime, b_prime, c_prime


def theorem2_instance(epsilon: float) -> CounterexampleInstance:
    """Three-pair family: unique max-sum matching, empty disk triple.

    Requires ``0 < epsilon < (5 - sqrt(10) - sqrt(3)) / 4``; outside the
    range the identity matching is no longer guaranteed unique.
    """
    if not (0.0 < epsilon < THREE_PAIR_EPS_MAX):
        raise ConstructionError(
            f"epsilon must lie strictly in (0, {THREE_PAIR_EPS_MAX!r}), got {epsilon!r}"
        )
    a, b, c, a_p, b_p, c_p = _base_points(epsilon)
    ps = PointSet.colored([a, b, c], [a_p, b_p, c_p])
    claimed = Matching.of(ps, [(0, 3), (1, 4), (2, 5)])

    optimum, unique = max_sum(ps)
    if optimum.pairs != claimed.pairs or not unique:
        raise ConstructionError(
            f"self check failed: exact optimum {optimum.pairs} "
            f"(unique={unique}) != expected identity matching"
        )
    inst = CounterexampleInstance(ps, epsilon, 3, claimed, (0, 1, 2))
    _check_triple_empty(inst)
    return inst


def theorem3_instance(n: int, epsilon: float | None = None) -> CounterexampleInstance:
    """n-pair family (n >= 4): empty triple among the optimum's disks.

    Blue fill points go evenly spaced on the open segment b'a'; red fill
    points go on the horizontal line through c, alternating sides, all
    within ``epsilon`` of c.  Defaults to 0.9x the threshold epsilon.
    """
    if n < 4:
        raise ConstructionError(f"family needs n >= 4, got {n}")
    eps_max = many_pair_eps_max(n)
    if epsilon is None:
        epsilon = 0.9 * eps_max
    if not (0.0 < epsilon < eps_max):
        raise ConstructionError(
            f"epsilon must lie strictly in (0, {eps_max!r}) for n={n}, got {epsilon!r}"
        )
    a, b, c, a_p, b_p, c_p = _base_points(epsilon)

    k = n - 3
    blues_fill = []
    for i in range(1, k + 1):
        t = i / (k + 1.0)
        blues_fill.append(
            Point(b_p.x + t * (a_p.x - b_p.x), b_p.y + t * (a_p.y - b_p.y))
        )
    reds_fill = []
    for i in range(1, k + 1):
        offset = epsilon * math.ceil(i / 2.0) / (n - 2.0)
        sign = 1.0 if i % 2 == 1 else -1.0
        reds_fill.append(Point(sign * offset, c.y))

    for p in reds_fill:
        if dist(p, c_p) < dist(c, c_p):
            raise ConstructionError("fill point closer to c' than c is")

    ps = PointSet.colored([a, b, c] + reds_fill, [a_p, b_p, c_p] + blues_fill)

    claimed, _ = max_sum(ps)
    _check_cost_bounds(ps, n, epsilon)

    pair_of = {}
    for idx, (i, j) in enumerate(claimed.pairs):
        pair_of[i] = idx
        pair_of[j] = idx
    # indices 0, 1 are a and b; index n + 2 is c'
    triple = (pair_of[0], pair_of[1], pair_of[n + 2])
    if len(set(triple)) != 3:
        raise ConstructionError("optimum matches c' to a or b; construction invalid")

    inst = CounterexampleInstance(ps, epsilon, n, claimed, triple)
    _check_triple_empty(inst)
    return inst


def _check_cost_bounds(ps: PointSet, n: int, epsilon: float) -> None:
    """The analytic cost comparison that forces the optimum's shape:
    any matching sending c' to c (or a fill red) beats any matching
    sending c' to a or b."""
    lower = 7.0 - math.sqrt(3.0) - 2.0 * epsilon
    upper = math.sqrt(10.0) + 2.0 + epsilon + 2.0 * (n - 2) * epsilon
    if not lower > upper:
        raise ConstructionError(
            f"cost bounds do not separate for n={n}, epsilon={epsilon}"
        )
    nested = _nested_matching(ps, n)
    if nested.cost < lower - cost_tol(nested.cost):
        raise ConstructionError("representative matching underruns the lower bound")


def _nested_matching(ps: PointSet, n: int) -> Matching:
    """The representative optimum shape: a-a', b-b', c-c', fills paired up."""
    pairs = [(0, n), (1, n + 1), (2, n + 2)]
    for i in range(n - 3):
        pairs.append((3 + i, n + 3 + i))
    return Matching.of(ps, pairs)


def _check_triple_empty(inst: CounterexampleInstance) -> None:
    result = triple_intersect_exact(*inst.triple_disks())
    if result.verdict is not PiercingVerdict.EMPTY:
        raise ConstructionError(
            f"named disk triple is not empty (verdict {result.verdict.value}, "
            f"depth {result.depth})"
        )


def equilateral_tightness(side: float) -> PointSet:
    """Six uncolored points, two per vertex of an equilateral triangle."""
    if not (side > 0 and math.isfinite(side)):
        raise ConstructionError(f"side must be positive, got {side!r}")
    v0 = Point(0.0, 0.0)
    v1 = Point(side, 0.0)
    v2 = Point(side / 2.0, side * math.sqrt(3.0) / 2.0)
    return PointSet.uncolored([v0, v0, v1, v1, v2, v2])


def singleton_disk_instance(a: Point, b: Point, c: Point, z: Point) -> PointSet:
    """A triangle a, b, c plus three copies of an interior point z.

    The max-sum matching joins each vertex to one copy of z, and the
    three disks meet exactly at z.
    """
    from .geom import strictly_inside_triangle

    if not strictly_inside_triangle(z, a, b, c):
        raise ConstructionError("z must lie strictly inside the triangle")
    ps = PointSet.uncolored([a, b, c, z, z, z])
    claimed = Matching.of(ps, [(0, 3), (1, 4), (2, 5)])
    optimum, _ = max_sum(ps)
    if abs(optimum.cost - claimed.cost) > cost_tol(optimum.cost):
        raise ConstructionError("spoke matching is not max-sum")
    return ps


def named_fixtures() -> dict[str, PointSet]:
    """The stable fixture exports: default instances of every family."""
    return {
        "thm2_eps0.02": theorem2_instance(0.02).point_set,
        "thm3_n4": theorem3_instance(4).point_set,
        "equilateral": equilateral_tightness(1.0),
        "singleton": singleton_disk_instance(
            Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 4.0), Point(1.0, 1.0)
        ),
    }
