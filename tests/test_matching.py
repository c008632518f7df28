import itertools
import math

import numpy as np
import pytest

from mmp.constructions import named_fixtures
from mmp.geom import Point, dist
from mmp.matching import (
    Matching,
    MatchingError,
    PointSet,
    SizeLimitError,
    _max_sum,
    cost,
    iter_matchings,
    max_sum,
    max_sum_bruteforce,
)
from mmp.tolerances import cost_tol

SQRT3 = math.sqrt(3.0)


def uncolored(*pts):
    return PointSet.uncolored(pts)


def random_set(rng, n, colored):
    pts = [tuple(p) for p in rng.uniform(-1, 1, (2 * n, 2))]
    return PointSet.colored(pts[:n], pts[n:]) if colored else PointSet.uncolored(pts)


def two_opt_gains(ps, m):
    """Gains above the tie tolerance of every rematch of two pairs of
    ``m``; an optimum has none."""
    pts = ps.points
    gains = []
    for (i, j), (k, l) in itertools.combinations(m.pairs, 2):
        current = dist(pts[i], pts[j]) + dist(pts[k], pts[l])
        for (a, b), (c, d) in (((i, k), (j, l)), ((i, l), (j, k))):
            # in a colored set both new pairs are bichromatic or neither is
            if ps.colors is not None and ps.colors[a] is ps.colors[b]:
                continue
            gain = dist(pts[a], pts[b]) + dist(pts[c], pts[d]) - current
            if gain > cost_tol(m.cost):
                gains.append(gain)
    return gains


class TestCost:
    def test_coincident_pair(self):
        ps = uncolored((0, 0), (0, 0))
        assert cost(ps, Matching.of(ps, [(0, 1)])) == 0.0

    def test_square_diagonals(self):
        ps = uncolored((0, 0), (1, 0), (1, 1), (0, 1))
        m = Matching.of(ps, [(0, 2), (1, 3)])
        assert cost(ps, m) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_three_pair_family_cost(self):
        # 2|a-a'| + (3 - sqrt(3)) at epsilon = 0.02
        eps = 0.02
        ps = PointSet.colored(
            [(-1, 0), (1, 0), (0, SQRT3)],
            [
                (eps / 2, SQRT3 * (1 - eps / 2)),
                (-eps / 2, SQRT3 * (1 - eps / 2)),
                (0, 3),
            ],
        )
        m = Matching.of(ps, [(0, 3), (1, 4), (2, 5)])
        expected = 2 * math.hypot(1 + eps / 2, SQRT3 * (1 - eps / 2)) + 3 - SQRT3
        assert m.cost == pytest.approx(expected, abs=1e-12)
        assert m.cost >= 7 - SQRT3 - 2 * eps

    def test_invalid_partition_rejected(self):
        ps = uncolored((0, 0), (1, 0), (2, 0), (3, 0))
        with pytest.raises(MatchingError):
            Matching.of(ps, [(0, 1), (1, 2)])
        with pytest.raises(MatchingError):
            Matching.of(ps, [(0, 1)])

    def test_monochromatic_pair_rejected(self):
        ps = PointSet.colored([(0, 0), (1, 0)], [(2, 0), (3, 0)])
        with pytest.raises(MatchingError):
            Matching.of(ps, [(0, 1), (2, 3)])


class TestBruteForce:
    def test_equilateral_doubled_three_edges(self):
        ps = uncolored((0, 0), (0, 0), (1, 0), (1, 0), (0.5, SQRT3 / 2), (0.5, SQRT3 / 2))
        m, unique = max_sum_bruteforce(ps)
        assert m.cost == pytest.approx(3.0, abs=1e-12)
        assert not unique  # copy swaps give the same cost

    def test_two_coincident_pairs_cross(self):
        ps = uncolored((0, 0), (0, 0), (1, 0), (1, 0))
        m, _ = max_sum_bruteforce(ps)
        assert m.cost == pytest.approx(2.0, abs=1e-12)
        assert m.pairs == ((0, 2), (1, 3))

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            pts = rng.uniform(-1, 1, (2 * n, 2))
            ps = PointSet.uncolored([tuple(p) for p in pts])
            m, _ = max_sum_bruteforce(ps)
            best = max(cost(ps, Matching.of(ps, pairs)) for pairs in iter_matchings(ps))
            assert m.cost == pytest.approx(best, abs=1e-12)

    def test_colored_pairs_are_bichromatic(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            pts = rng.uniform(-1, 1, (2 * n, 2))
            ps = PointSet.colored([tuple(p) for p in pts[:n]], [tuple(p) for p in pts[n:]])
            m, _ = max_sum_bruteforce(ps)
            for i, j in m.pairs:
                assert ps.colors[i] is not ps.colors[j]

    def test_similarity_equivariance(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            pts = rng.uniform(-1, 1, (6, 2))
            ps = PointSet.uncolored([tuple(p) for p in pts])
            m, unique = max_sum_bruteforce(ps)
            scale, theta = 2.5, 0.7
            c, s = math.cos(theta), math.sin(theta)
            moved = [
                (scale * (c * x - s * y) + 3.0, scale * (s * x + c * y) - 1.0)
                for x, y in pts
            ]
            ps2 = PointSet.uncolored(moved)
            m2, _ = max_sum_bruteforce(ps2)
            assert m2.cost == pytest.approx(scale * m.cost, rel=1e-9)
            if unique:
                assert m2.pairs == m.pairs

    def test_size_cap(self):
        pts = [(float(i), 0.0) for i in range(18)]
        with pytest.raises(SizeLimitError):
            max_sum_bruteforce(PointSet.uncolored(pts))


class TestTwoOpt:
    """No rematch of two pairs improves an optimum: a necessary condition
    checked independently of either solver."""

    def test_optimum_has_no_violations(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pts = rng.uniform(-1, 1, (8, 2))
            ps = PointSet.uncolored([tuple(p) for p in pts])
            m, _ = max_sum_bruteforce(ps)
            assert two_opt_gains(ps, m) == []
        for colored in (False, True):
            for _ in range(3):
                ps = random_set(rng, 20, colored)
                assert two_opt_gains(ps, max_sum(ps)[0]) == []

    def test_square_sides_violation(self):
        # sides cost 2; the diagonal rematch costs 2*sqrt(2)
        ps = PointSet.colored([(1, 0), (1, 1)], [(0, 0), (0, 1)])
        m = Matching.of(ps, [(0, 2), (1, 3)])
        gains = two_opt_gains(ps, m)
        assert len(gains) == 1
        assert gains[0] == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-12)

    def test_rotated_family_matching_violates(self):
        eps = 0.02
        ps = PointSet.colored(
            [(-1, 0), (1, 0), (0, SQRT3)],
            [
                (eps / 2, SQRT3 * (1 - eps / 2)),
                (-eps / 2, SQRT3 * (1 - eps / 2)),
                (0, 3),
            ],
        )
        rotated = Matching.of(ps, [(0, 4), (1, 5), (2, 3)])
        assert two_opt_gains(ps, rotated) != []


def _polygon_and_center(m):
    return PointSet.uncolored(
        [(math.cos(2 * math.pi * k / m), math.sin(2 * math.pi * k / m)) for k in range(m)] + [(0.0, 0.0)]
    )


_rng = np.random.default_rng(43)
_base = [tuple(p) for p in _rng.uniform(-1, 1, (4, 2))]
_red = [tuple(p) for p in _rng.uniform(-1, 1, (3, 2))]
TIED = {
    "equilateral": named_fixtures()["equilateral"],
    "singleton": named_fixtures()["singleton"],
    "duplicates": PointSet.uncolored(_base + _base),
    "duplicates-colored": PointSet.colored(_red, _red),
    "coincident-colored": PointSet.colored([(0.0, 0.0)] * 3, [(1.0, 0.0)] * 3),
    "collinear": PointSet.uncolored([(t / 8.0, 0.5 * t / 8.0 + 0.25) for t in (-13, -7, -2, 0, 3, 5, 11, 16)]),
    "polygon5+center": _polygon_and_center(5),
    "polygon7+center": _polygon_and_center(7),
}


class TestMaxSum:
    @pytest.mark.parametrize("colored", [False, True], ids=["uncolored", "colored"])
    def test_matches_bruteforce(self, colored):
        rng = np.random.default_rng(41 + colored)
        for n in range(1, 7):
            for _ in range(12):
                ps = random_set(rng, n, colored)
                m, unique, method = _max_sum(ps)
                ref, ref_unique = max_sum_bruteforce(ps)
                assert method == "assignment"
                assert m.pairs == ref.pairs
                assert m.cost == ref.cost
                assert unique == ref_unique

    @pytest.mark.parametrize("name", sorted(TIED))
    def test_tied_inputs(self, name):
        ps = TIED[name]
        m, unique = max_sum(ps)
        ref, ref_unique = max_sum_bruteforce(ps)
        assert abs(m.cost - ref.cost) <= cost_tol(ref.cost)
        assert cost(ps, m) == m.cost
        assert unique == ref_unique

    def test_odd_cycle_falls_back_to_enumeration(self):
        # the doubled triangle's cover optimum is two 3-cycles
        _, unique, method = _max_sum(TIED["equilateral"])
        assert method == "bruteforce" and not unique
        # an integral optimum, but forbidding one of its pairs leaves a
        # cover optimum with an odd cycle as heavy as the optimum itself
        ps = PointSet.uncolored([(0.0, 0.0), (1.0, 0.0)] + [(0.5, SQRT3 / 2)] * 4)
        m, unique, method = _max_sum(ps)
        ref, ref_unique = max_sum_bruteforce(ps)
        assert method == "bruteforce"
        assert (m, unique) == (ref, ref_unique)
        tripled = PointSet.uncolored([p for p in TIED["equilateral"].points for _ in range(3)])
        with pytest.raises(SizeLimitError):
            max_sum(tripled)

    @pytest.mark.parametrize("n", [10, 25, 50])
    def test_uncolored_cost_matches_networkx(self, n):
        nx = pytest.importorskip("networkx")
        ps = random_set(np.random.default_rng(n), n, False)
        m, _ = max_sum(ps)
        g = nx.Graph()
        for i, j in itertools.combinations(range(2 * n), 2):
            g.add_edge(i, j, weight=dist(ps.points[i], ps.points[j]))
        ref_pairs = nx.max_weight_matching(g, maxcardinality=True)
        ref = math.fsum(dist(ps.points[i], ps.points[j]) for i, j in ref_pairs)
        assert len(ref_pairs) == n
        assert abs(m.cost - ref) <= cost_tol(ref)
        assert cost(ps, m) == m.cost


def _metamorphic_cases():
    rng = np.random.default_rng(61)
    return [random_set(rng, n, colored) for n in range(2, 7) for colored in (False, True) for _ in range(4)]


def _moved(ps, f):
    return PointSet(tuple(Point(*f(p.x, p.y)) for p in ps.points), ps.colors)


class TestMaxSumMetamorphic:
    """Transforms exact in floating point relabel the optimum, scale its
    cost exactly and keep ``is_unique``."""

    def test_scaling_by_powers_of_two(self):
        for ps in _metamorphic_cases():
            m, unique = max_sum(ps)
            for k in range(-20, 21):
                s = 2.0**k
                m2, unique2 = max_sum(_moved(ps, lambda x, y: (s * x, s * y)))
                assert (m2.pairs, m2.cost, unique2) == (m.pairs, s * m.cost, unique)

    def test_rotation_by_90_degrees(self):
        for ps in _metamorphic_cases():
            m, unique = max_sum(ps)
            m2, unique2 = max_sum(_moved(ps, lambda x, y: (-y, x)))
            assert (m2.pairs, m2.cost, unique2) == (m.pairs, m.cost, unique)

    def test_point_permutation(self):
        rng = np.random.default_rng(62)
        for ps in _metamorphic_cases():
            perm = [int(k) for k in rng.permutation(len(ps.points))]  # point i moves to perm[i]
            inverse = sorted(range(len(perm)), key=perm.__getitem__)
            colors = None if ps.colors is None else tuple(ps.colors[i] for i in inverse)
            moved = PointSet(tuple(ps.points[i] for i in inverse), colors)
            self._same_up_to_relabeling(ps, moved, perm)

    def test_red_blue_swap(self):
        for ps in _metamorphic_cases():
            if ps.colors is not None:
                n = ps.n_pairs
                swapped = PointSet.colored(ps.points[n:], ps.points[:n])
                self._same_up_to_relabeling(ps, swapped, [(i + n) % (2 * n) for i in range(2 * n)])

    @staticmethod
    def _same_up_to_relabeling(ps, moved, label):
        m, unique = max_sum(ps)
        m2, unique2 = max_sum(moved)
        assert unique2 == unique
        if unique:
            assert m2.pairs == Matching.of(moved, [(label[i], label[j]) for i, j in m.pairs]).pairs
        # the cost is summed in label order, so it agrees only to rounding
        assert m2.cost == pytest.approx(m.cost, rel=1e-14, abs=0)


class TestExtensionInvariant:
    def test_extension_preserves_optimality(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            pts = rng.uniform(-1, 1, (6, 2))
            ps = PointSet.uncolored([tuple(p) for p in pts])
            m, _ = max_sum_bruteforce(ps)
            i, j = m.pairs[0]
            a, b = ps.points[i], ps.points[j]
            c = Point(a.x + 1.5 * (b.x - a.x), a.y + 1.5 * (b.y - a.y))
            new_points = list(ps.points)
            new_points[j] = c
            ps2 = PointSet(tuple(new_points))
            extended = Matching.of(ps2, m.pairs)
            best, _ = max_sum_bruteforce(ps2)
            assert extended.cost == pytest.approx(best.cost, abs=1e-9)
