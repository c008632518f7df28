"""Perfect matchings of planar point sets and the exact max-sum solver.

``max_sum`` is exact at every size: a shortest-augmenting-path
assignment solver (Kuhn's Hungarian method) on the red x blue distance
matrix, or, for an uncolored set, on the 2n x 2n matrix with a forbidden
diagonal, the bipartite double cover of the degree LP (Edmonds 1965).
An odd cycle in the cover optimum, seen only on tied inputs, falls back
to the brute-force enumerator, which is otherwise the test oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .geom import Point, dist
from .tolerances import cost_tol

__all__ = [
    "Color",
    "PointSet",
    "Matching",
    "MatchingError",
    "SizeLimitError",
    "cost",
    "iter_matchings",
    "max_sum",
    "max_sum_bruteforce",
    "BRUTE_FORCE_POINT_CAP",
]

BRUTE_FORCE_POINT_CAP = 16


class Color(Enum):
    RED = "red"
    BLUE = "blue"


class MatchingError(ValueError):
    """A pairing that is not a valid (bichromatic) perfect matching."""


class SizeLimitError(ValueError):
    """Point set too large for exhaustive enumeration."""


@dataclass(frozen=True)
class PointSet:
    """An even-sized list of points, optionally colored red/blue.

    Colored sets must be balanced; every matching of a colored set joins
    one red and one blue point.
    """

    points: tuple[Point, ...]
    colors: tuple[Color, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.points)
        if n < 2 or n % 2 != 0:
            raise ValueError(f"point set must have even size >= 2, got {n}")
        if self.colors is not None:
            if len(self.colors) != n:
                raise ValueError("one color per point required")
            reds = sum(1 for c in self.colors if c is Color.RED)
            if reds * 2 != n:
                raise ValueError(f"unbalanced coloring: {reds} red of {n}")

    @staticmethod
    def uncolored(points: Iterable[tuple[float, float] | Point]) -> "PointSet":
        return PointSet(tuple(_as_point(p) for p in points))

    @staticmethod
    def colored(
        red: Iterable[tuple[float, float] | Point],
        blue: Iterable[tuple[float, float] | Point],
    ) -> "PointSet":
        reds = tuple(_as_point(p) for p in red)
        blues = tuple(_as_point(p) for p in blue)
        return PointSet(
            reds + blues,
            (Color.RED,) * len(reds) + (Color.BLUE,) * len(blues),
        )

    @property
    def n_pairs(self) -> int:
        return len(self.points) // 2

    @property
    def is_colored(self) -> bool:
        return self.colors is not None

    def scale(self) -> float:
        return max(max(abs(p.x), abs(p.y)) for p in self.points)


def _as_point(p) -> Point:
    if isinstance(p, Point):
        return p
    x, y = p
    return Point(float(x), float(y))


def canonical_pairs(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sort each pair and the pair list; the canonical form used for
    lexicographic tie-breaking and serialization."""
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


@dataclass(frozen=True)
class Matching:
    """A perfect pairing of point indices with its total Euclidean cost."""

    pairs: tuple[tuple[int, int], ...]
    cost: float

    @staticmethod
    def of(ps: PointSet, pairs: Iterable[tuple[int, int]]) -> "Matching":
        pairs = canonical_pairs(pairs)
        _validate_pairs(ps, pairs)
        return Matching(pairs, _pair_cost(ps.points, pairs))

    def segments(self, ps: PointSet) -> list[tuple[Point, Point]]:
        return [(ps.points[i], ps.points[j]) for i, j in self.pairs]


def _validate_pairs(ps: PointSet, pairs: Sequence[tuple[int, int]]) -> None:
    n = len(ps.points)
    seen: set[int] = set()
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise MatchingError(f"invalid pair ({i}, {j}) for {n} points")
        if i in seen or j in seen:
            raise MatchingError(f"index reused in pair ({i}, {j})")
        seen.update((i, j))
        if ps.colors is not None and ps.colors[i] is ps.colors[j]:
            raise MatchingError(f"monochromatic pair ({i}, {j})")
    if len(seen) != n:
        raise MatchingError("pairs do not cover every point")


def _pair_cost(points: Sequence[Point], pairs: Sequence[tuple[int, int]]) -> float:
    # summed in ascending pair order for bit-reproducibility
    total = 0.0
    for i, j in pairs:
        total += dist(points[i], points[j])
    return total


def cost(ps: PointSet, m: Matching) -> float:
    """Total Euclidean length of the matching (validates it first)."""
    _validate_pairs(ps, m.pairs)
    return _pair_cost(ps.points, m.pairs)


def iter_matchings(ps: PointSet) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings in lexicographic order of their canonical
    pair lists.  Colored sets yield bichromatic matchings only."""
    if ps.colors is None:
        yield from _iter_uncolored(list(range(len(ps.points))))
    else:
        reds = [i for i, c in enumerate(ps.colors) if c is Color.RED]
        blues = [i for i, c in enumerate(ps.colors) if c is Color.BLUE]
        for perm in itertools.permutations(blues):
            yield canonical_pairs(zip(reds, perm))


def _iter_uncolored(indices: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not indices:
        yield ()
        return
    first = indices[0]
    rest = indices[1:]
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1 :]
        for tail in _iter_uncolored(remaining):
            yield ((first, partner),) + tail


def max_sum_bruteforce(ps: PointSet) -> tuple[Matching, bool]:
    """Exact max-sum matching by exhaustive enumeration: the test oracle.

    Returns the optimal matching (the first in enumeration order, i.e.
    the lexicographically smallest pair list, among exact ties) and
    whether it is unique, i.e. no other matching comes within the cost
    tie tolerance of the optimum.
    """
    if len(ps.points) > BRUTE_FORCE_POINT_CAP:
        raise SizeLimitError(f"{len(ps.points)} points exceed the enumeration cap of {BRUTE_FORCE_POINT_CAP}")
    best = second = -math.inf
    for pairs in iter_matchings(ps):
        c = _pair_cost(ps.points, pairs)
        if c > best:
            best_pairs, best, second = pairs, c, best
        elif c > second:
            second = c
    return Matching(best_pairs, best), best - second > cost_tol(best)


def _augment(a: list[list[float]], u: list[float], v: list[float], p: list[int], row: int) -> bool:
    """Assign the free ``row`` along a shortest augmenting path.

    Dijkstra over the reduced costs ``a[i][j] - u[i] - v[j]``, which the
    potentials keep nonnegative on assigned rows; ``p[j]`` is the row of
    column j (0 if free), and row and column 0 are the search root.  A
    forbidden cell holds inf and is never relaxed.  Returns False when no
    free column is reachable.
    """
    minv = [math.inf] * len(v)
    way = [0] * len(v)
    done, todo = [0], list(range(1, len(v)))
    p[0], j0 = row, 0
    while p[j0]:
        ai, ui = a[p[j0]], u[p[j0]]
        delta, j1 = math.inf, 0
        for j in todo:
            cur = ai[j] - ui - v[j]
            if cur < minv[j]:
                minv[j], way[j] = cur, j0
            if minv[j] < delta:
                delta, j1 = minv[j], j
        if not j1:
            return False
        for j in done:
            u[p[j]] += delta
            v[j] -= delta
        for j in todo:
            minv[j] -= delta
        todo.remove(j1)
        done.append(j1)
        j0 = j1
    while j0:
        p[j0] = p[way[j0]]
        j0 = way[j0]
    return True


def _cells(p: list[int], colored: bool) -> list[tuple[int, int]] | None:
    """The (row, column) cells of the matching in the assignment ``p``,
    or None if the uncolored cover has an odd cycle.  An even cycle
    contributes the alternate edges that start at its smallest index;
    by optimality both halves weigh the same."""
    col_of = [0] * len(p)
    for j in range(1, len(p)):
        col_of[p[j]] = j
    if colored:
        return [(i, col_of[i]) for i in range(1, len(p))]
    cells, seen = [], [False] * len(p)
    for start in range(1, len(p)):
        cycle, k = [], start
        while not seen[k]:
            seen[k] = True
            cycle.append(k)
            k = col_of[k]
        if len(cycle) % 2:
            return None
        cells += zip(cycle[::2], cycle[1::2])
    return cells


def _max_sum(ps: PointSet) -> tuple[Matching, bool, str]:
    """``max_sum`` and its method: ``"assignment"``, or ``"bruteforce"``
    after an odd cycle."""
    colored = ps.colors is not None
    rows = cols = list(range(len(ps.points)))
    if colored:
        rows = [i for i, c in enumerate(ps.colors) if c is Color.RED]
        cols = [i for i, c in enumerate(ps.colors) if c is Color.BLUE]
    a = [[0.0] * (len(cols) + 1)]
    for r in rows:
        a.append([0.0] + [math.inf if r == c else -dist(ps.points[r], ps.points[c]) for c in cols])
    u, v, p = [0.0] * len(a), [0.0] * len(a), [0] * len(a)
    for i in range(1, len(a)):
        _augment(a, u, v, p, i)

    def pairs_of(cells):
        return canonical_pairs((rows[i - 1], cols[j - 1]) for i, j in cells)

    cells = _cells(p, colored)
    if cells is None:
        return (*max_sum_bruteforce(ps), "bruteforce")
    pairs = pairs_of(cells)
    best = _pair_cost(ps.points, pairs)
    # The runner-up avoids some optimal pair: forbid each in turn and
    # re-augment only the freed rows from the optimal potentials.
    second = -math.inf
    for i, j in cells:
        b, uu, vv, pp = list(a), list(u), list(v), list(p)
        freed = []
        for r, c in [(i, j)] if colored else [(i, j), (j, i)]:
            b[r] = list(b[r])
            b[r][c] = math.inf
            if pp[c] == r:
                pp[c] = 0
                freed.append(r)
        if not all(_augment(b, uu, vv, pp, r) for r in freed):
            continue  # every perfect matching uses this pair
        alt = _cells(pp, colored)
        if alt is not None:
            second = max(second, _pair_cost(ps.points, pairs_of(alt)))
        elif best + 0.5 * sum(b[pp[c]][c] for c in range(1, len(pp))) <= cost_tol(best):
            # an odd cycle, whose half weight only bounds the runner-up
            return (*max_sum_bruteforce(ps), "bruteforce")
    return Matching(pairs, best), best - second > cost_tol(best), "assignment"


def max_sum(ps: PointSet) -> tuple[Matching, bool]:
    """Exact max-sum matching at every size.

    Returns the optimal matching and whether it is unique, i.e. no other
    matching comes within the cost tie tolerance of the optimum; among
    exact ties, the solver's deterministic choice.  Raises
    ``SizeLimitError`` only when an odd cycle sends more than
    ``BRUTE_FORCE_POINT_CAP`` points to enumeration.
    """
    return _max_sum(ps)[:2]
