import math

import pytest

from mmp.constructions import (
    THREE_PAIR_EPS_MAX,
    ConstructionError,
    equilateral_tightness,
    many_pair_eps_max,
    singleton_disk_instance,
    theorem2_instance,
    theorem3_instance,
)
from mmp.geom import Disk, Point, dist
from mmp.matching import Matching, max_sum_bruteforce
from mmp.tolerances import cost_tol
from mmp.piercing import (
    PairVerdict,
    PiercingVerdict,
    circle_circle_points,
    pairwise_intersect,
    pierce_disks,
    pierce_ellipses,
    triple_intersect_exact,
)
from mmp.geom import EllipseRegion

SQRT3 = math.sqrt(3.0)
SQRT10 = math.sqrt(10.0)


class TestThreePairFamily:
    def test_threshold_value(self):
        assert THREE_PAIR_EPS_MAX == pytest.approx((5 - SQRT10 - SQRT3) / 4, abs=1e-15)

    def test_coordinates(self):
        inst = theorem2_instance(0.02)
        pts = inst.point_set.points
        assert pts[0] == Point(-1, 0) and pts[1] == Point(1, 0)
        assert pts[2] == Point(0, SQRT3) and pts[5] == Point(0, 3)
        # a' = c + eps * unit(b - c), unit(b - c) = (1/2, -sqrt(3)/2)
        assert pts[3].x == pytest.approx(0.01, abs=1e-15)
        assert pts[3].y == pytest.approx(SQRT3 * 0.99, abs=1e-12)
        assert pts[4].x == pytest.approx(-0.01, abs=1e-15)
        # a' on segment bc, b' on segment ac, both at distance eps from c
        assert dist(pts[3], pts[2]) == pytest.approx(0.02, abs=1e-12)
        assert dist(pts[4], pts[2]) == pytest.approx(0.02, abs=1e-12)

    def test_identity_matching_is_unique_optimum(self):
        inst = theorem2_instance(0.02)
        m, unique = max_sum_bruteforce(inst.point_set)
        assert m.pairs == inst.claimed_optimum.pairs == ((0, 3), (1, 4), (2, 5))
        assert unique

    def test_rotated_matchings_cost_identity(self):
        inst = theorem2_instance(0.02)
        ps = inst.point_set
        rot1 = Matching.of(ps, [(0, 4), (1, 5), (2, 3)])  # a-b', b-c', c-a'
        rot2 = Matching.of(ps, [(0, 5), (1, 3), (2, 4)])  # a-c', b-a', c-b'
        assert rot1.cost == pytest.approx(2 + SQRT10, abs=1e-9)
        assert rot2.cost == pytest.approx(2 + SQRT10, abs=1e-9)

    def test_swap_matchings_bounded(self):
        eps = 0.02
        inst = theorem2_instance(eps)
        ps = inst.point_set
        swap1 = Matching.of(ps, [(0, 5), (1, 4), (2, 3)])  # a-c', b-b', c-a'
        swap2 = Matching.of(ps, [(0, 3), (1, 5), (2, 4)])  # a-a', b-c', c-b'
        assert swap1.cost == pytest.approx(swap2.cost, abs=1e-9)
        assert swap1.cost <= 2 + SQRT10 + 2 * eps + 1e-9

    def test_disks_pairwise_overlap_but_triple_empty(self):
        inst = theorem2_instance(0.02)
        d1, d2, d3 = inst.triple_disks()
        for a, b in ((d1, d2), (d1, d3), (d2, d3)):
            assert pairwise_intersect(a, b) is not PairVerdict.DISJOINT
        res = triple_intersect_exact(d1, d2, d3)
        assert res.verdict is PiercingVerdict.EMPTY

    def test_lens_x_sign_separation(self):
        inst = theorem2_instance(0.02)
        d_aa, d_bb, d_cc = inst.triple_disks()
        left_lens = circle_circle_points(d_aa, d_cc)
        right_lens = circle_circle_points(d_bb, d_cc)
        assert left_lens and all(p.x < 0 for p in left_lens)
        assert right_lens and all(p.x > 0 for p in right_lens)

    def test_threshold_acceptance(self):
        theorem2_instance(0.026)  # accepted
        with pytest.raises(ConstructionError):
            theorem2_instance(0.027)
        with pytest.raises(ConstructionError):
            theorem2_instance(0.0)
        with pytest.raises(ConstructionError):
            theorem2_instance(-0.01)


class TestManyPairFamily:
    def test_epsilon_threshold_rejection(self):
        for n in range(4, 9):
            limit = many_pair_eps_max(n)
            assert limit == pytest.approx(1 / (10 * (2 * n - 1)), abs=1e-15)
            theorem3_instance(n, 0.99 * limit)
            with pytest.raises(ConstructionError):
                theorem3_instance(n, limit)
            with pytest.raises(ConstructionError):
                theorem3_instance(n, 1.01 * limit)

    def test_small_n_rejected(self):
        with pytest.raises(ConstructionError):
            theorem3_instance(3)

    def test_n4_instance(self):
        inst = theorem3_instance(4)
        ps = inst.point_set
        assert len(ps.points) == 8
        c, c_prime = ps.points[2], ps.points[6]
        # fill points sit within epsilon of c and no closer to c' than c
        for idx in (3, 7):
            assert dist(ps.points[idx], c) <= inst.epsilon + 1e-12
        assert dist(ps.points[3], c_prime) >= dist(c, c_prime) - 1e-12
        # the optimum never matches c' to a or b
        m, _ = max_sum_bruteforce(ps)
        partner = {i: j for i, j in m.pairs} | {j: i for i, j in m.pairs}
        assert partner[6] not in (0, 1)

    def test_n4_named_triple_empty(self):
        inst = theorem3_instance(4)
        res = triple_intersect_exact(*inst.triple_disks())
        assert res.verdict is PiercingVerdict.EMPTY

    def test_lens_x_sign_separation(self):
        # the two lenses against the c' disk straddle the y-axis
        for inst in (theorem3_instance(4), theorem3_instance(6)):
            d_a, d_b, d_top = inst.triple_disks()
            left_lens = circle_circle_points(d_a, d_top)
            right_lens = circle_circle_points(d_b, d_top)
            assert left_lens and all(p.x < 0 for p in left_lens)
            assert right_lens and all(p.x > 0 for p in right_lens)

    def test_cost_bound_separation(self):
        for n in (4, 5, 6):
            inst = theorem3_instance(n)
            eps = inst.epsilon
            lower = 7 - SQRT3 - 2 * eps
            upper = SQRT10 + 2 + eps + 2 * (n - 2) * eps
            assert lower > upper + 1e-9
            assert inst.claimed_optimum.cost >= lower - 1e-9

    def test_m2_form_matchings_within_upper_bound(self):
        inst = theorem3_instance(4)
        ps = inst.point_set
        eps = inst.epsilon
        upper = SQRT10 + 2 + eps + 2 * (4 - 2) * eps
        # c' (index 6) matched to a (0): b pairs with a blue neighbor of c
        for b_partner in (4, 5, 7):
            rest = [5, 7, 4]
            rest.remove(b_partner)
            m2 = Matching.of(ps, [(0, 6), (1, b_partner), (2, rest[0]), (3, rest[1])])
            assert m2.cost <= upper + 1e-9

    def test_exact_optimum_for_larger_n(self, monkeypatch):
        # n = 5..10 comes from the assignment solver, never enumeration,
        # and matches an independent blossom solver
        nx = pytest.importorskip("networkx")
        import mmp.matching as matching_mod

        def no_enumeration(ps):
            raise AssertionError("fell back to enumeration")

        monkeypatch.setattr(matching_mod, "max_sum_bruteforce", no_enumeration)
        for n in range(5, 11):
            inst = theorem3_instance(n)
            pts = inst.point_set.points
            g = nx.Graph()
            for i in range(n):
                for j in range(n, 2 * n):
                    g.add_edge(i, j, weight=dist(pts[i], pts[j]))
            ref = math.fsum(dist(pts[i], pts[j]) for i, j in nx.max_weight_matching(g, maxcardinality=True))
            assert abs(inst.claimed_optimum.cost - ref) <= cost_tol(ref)
            assert inst.claimed_optimum == matching_mod.max_sum(inst.point_set)[0]

    def test_larger_n_self_checks(self):
        inst = theorem3_instance(6)
        assert inst.point_set.n_pairs == 6
        res = triple_intersect_exact(*inst.triple_disks())
        assert res.verdict is PiercingVerdict.EMPTY


class TestEquilateral:
    def test_cost_three_sides(self):
        ps = equilateral_tightness(1.0)
        m, unique = max_sum_bruteforce(ps)
        assert m.cost == pytest.approx(3.0, abs=1e-12)
        assert not unique

    def test_ellipse_singleton_at_centroid(self):
        ps = equilateral_tightness(1.0)
        m, _ = max_sum_bruteforce(ps)
        regions = [EllipseRegion(a, b, dist(a, b) / SQRT3) for a, b in m.segments(ps)]
        res = pierce_ellipses(regions)
        assert res.verdict is PiercingVerdict.TANGENT
        assert dist(res.witness, Point(0.5, SQRT3 / 6)) < 1e-6

    def test_scaling(self):
        ps = equilateral_tightness(2.0)
        m, _ = max_sum_bruteforce(ps)
        assert m.cost == pytest.approx(6.0, abs=1e-12)

    def test_bad_side(self):
        with pytest.raises(ConstructionError):
            equilateral_tightness(0.0)
        with pytest.raises(ConstructionError):
            equilateral_tightness(-1.0)


class TestSingleton:
    def test_pierce_tangent_at_interior_point(self):
        ps = singleton_disk_instance(Point(0, 0), Point(4, 0), Point(0, 4), Point(1, 1))
        m, _ = max_sum_bruteforce(ps)
        disks = [Disk.diametral(a, b) for a, b in m.segments(ps)]
        res = pierce_disks(disks)
        assert res.verdict is PiercingVerdict.TANGENT
        assert dist(res.witness, Point(1, 1)) < 1e-9

    def test_boundary_point_rejected(self):
        with pytest.raises(ConstructionError):
            singleton_disk_instance(Point(0, 0), Point(4, 0), Point(0, 4), Point(2, 0))

    def test_collinear_triangle_rejected(self):
        with pytest.raises(ConstructionError):
            singleton_disk_instance(Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 0))
