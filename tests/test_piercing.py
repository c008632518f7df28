import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmp
from mmp.geom import Disk, EllipseRegion, Point, dist
from mmp.matching import PointSet, max_sum_bruteforce
from mmp.piercing import (
    PairVerdict,
    PiercingVerdict,
    circle_circle_points,
    disk_depth,
    midpoint_shortest_edge,
    pairwise_intersect,
    pierce_disks,
    pierce_ellipses,
    stretch_report,
    triple_intersect_exact,
)
from mmp.tolerances import pierce_tol

SQRT3 = math.sqrt(3.0)


def P(x, y):
    return Point(float(x), float(y))


def family_disks(eps=0.02):
    a, b, c = P(-1, 0), P(1, 0), P(0, SQRT3)
    ap = P(eps / 2, SQRT3 * (1 - eps / 2))
    bp = P(-eps / 2, SQRT3 * (1 - eps / 2))
    cp = P(0, 3)
    return Disk.diametral(a, ap), Disk.diametral(b, bp), Disk.diametral(c, cp)


def family_tol(disks):
    return pierce_tol(max(max(abs(d.center.x), abs(d.center.y), d.radius) for d in disks))


def random_disks(rng, n, r_lo, r_hi):
    return [Disk(P(*rng.uniform(-1, 1, 2)), float(rng.uniform(r_lo, r_hi))) for _ in range(n)]


def assert_basis_certifies(disks, res):
    """The at most three basis disks alone reproduce the verdict and the
    depth; an EMPTY basis is re-checked by the exact triple solver."""
    assert len(res.basis) <= 3
    sub = [disks[i] for i in res.basis]
    again = pierce_disks(sub)
    assert again.verdict is res.verdict
    assert abs(again.depth - res.depth) <= family_tol(disks)
    if res.verdict is PiercingVerdict.EMPTY:
        trio = sub + [sub[0]] * (3 - len(sub))
        assert triple_intersect_exact(*trio).verdict is PiercingVerdict.EMPTY


def equilateral_pairs(side):
    a, b, c = P(0, 0), P(side, 0), P(side / 2, side * SQRT3 / 2)
    return [(a, b), (b, c), (c, a)]


def random_regions(rng, n, circles=False):
    regions = []
    for _ in range(n):
        a, b = P(*rng.uniform(-1, 1, 2)), P(*rng.uniform(-1, 1, 2))
        if circles:
            b = a
        semimajor = 0.5 * dist(a, b) * float(rng.uniform(1.0, 1.6)) + float(rng.uniform(0.0, 0.3))
        regions.append(EllipseRegion(a, b, semimajor))
    return regions


def ellipse_value(x, regions):
    return max(dist(x, e.focus_a) + dist(x, e.focus_b) - 2.0 * e.semimajor for e in regions)


def ellipse_tol(regions):
    return pierce_tol(
        max(
            max(abs(e.focus_a.x), abs(e.focus_a.y), abs(e.focus_b.x), abs(e.focus_b.y), e.semimajor)
            for e in regions
        )
    )


class TestPairwise:
    def test_overlap(self):
        assert pairwise_intersect(Disk(P(0, 0), 1), Disk(P(1, 0), 1)) is PairVerdict.OVERLAP

    def test_tangent(self):
        assert pairwise_intersect(Disk(P(0, 0), 1), Disk(P(2, 0), 1)) is PairVerdict.TANGENT

    def test_disjoint(self):
        assert (
            pairwise_intersect(Disk(P(0, 0), 0.5), Disk(P(2, 0), 0.5)) is PairVerdict.DISJOINT
        )

    def test_containment_is_overlap(self):
        assert pairwise_intersect(Disk(P(0, 0), 2), Disk(P(0.5, 0), 0.1)) is PairVerdict.OVERLAP


class TestTripleExact:
    def test_unit_triangle_nonempty(self):
        d1 = Disk(P(0, 0), 1)
        d2 = Disk(P(1, 0), 1)
        d3 = Disk(P(0.5, SQRT3 / 2), 1)
        res = triple_intersect_exact(d1, d2, d3)
        assert res.verdict is PiercingVerdict.NONEMPTY
        assert res.witness is not None

    def test_family_triple_empty(self):
        res = triple_intersect_exact(*family_disks())
        assert res.verdict is PiercingVerdict.EMPTY
        assert res.witness is None
        assert res.depth > 1e-3

    def test_spoke_triple_singleton(self):
        z = P(1, 1)
        disks = [Disk.diametral(v, z) for v in (P(0, 0), P(4, 0), P(0, 4))]
        res = triple_intersect_exact(*disks)
        assert res.verdict is PiercingVerdict.TANGENT
        assert res.witness is not None
        assert dist(res.witness, z) < 1e-9
        assert abs(res.depth) < 1e-9

    def test_nested_disks(self):
        res = triple_intersect_exact(Disk(P(0, 0), 3), Disk(P(1, 0), 2), Disk(P(2, 0), 1))
        assert res.verdict is PiercingVerdict.NONEMPTY
        assert res.depth == pytest.approx(-1.0, abs=1e-12)

    def test_matches_bruteforce_grid_probe(self):
        # independent probe: dense grid minimum of the depth function
        rng = np.random.default_rng(2)
        for _ in range(20):
            disks = [
                Disk(P(*rng.uniform(-1, 1, 2)), float(rng.uniform(0.2, 1.2)))
                for _ in range(3)
            ]
            res = triple_intersect_exact(*disks)
            xs = np.linspace(-2.5, 2.5, 101)
            grid_depth = min(
                disk_depth(P(x, y), disks) for x in xs for y in xs
            )
            # the exact depth can only improve on any grid point
            assert res.depth <= grid_depth + 1e-9
            # and the grid cannot beat it by more than one cell diagonal
            assert grid_depth <= res.depth + 0.08


class TestPierceDisks:
    def test_single_disk(self):
        res = pierce_disks([Disk(P(3, 4), 2)])
        assert res.verdict is PiercingVerdict.NONEMPTY
        assert res.witness == P(3, 4)
        assert res.depth == pytest.approx(-2.0)

    def test_two_tangent_disks(self):
        res = pierce_disks([Disk(P(0, 0), 1), Disk(P(2, 0), 1)])
        assert res.verdict is PiercingVerdict.TANGENT
        assert dist(res.witness, P(1, 0)) < 1e-9
        assert abs(res.depth) < 1e-9

    def test_max_sum_disks_share_point(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            pts = rng.uniform(-1, 1, (6, 2))
            ps = PointSet.uncolored([tuple(p) for p in pts])
            m, _ = max_sum_bruteforce(ps)
            disks = [Disk.diametral(a, b) for a, b in m.segments(ps)]
            res = pierce_disks(disks)
            assert res.verdict is not PiercingVerdict.EMPTY
            triple = triple_intersect_exact(*disks)
            assert triple.verdict is not PiercingVerdict.EMPTY

    def test_helly_consistency_random_families(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            n = int(rng.integers(4, 8))
            disks = [
                Disk(P(*rng.uniform(-1, 1, 2)), float(rng.uniform(0.3, 1.5)))
                for _ in range(n)
            ]
            res = pierce_disks(disks)
            triples_ok = all(
                triple_intersect_exact(*trio).verdict is not PiercingVerdict.EMPTY
                for trio in itertools.combinations(disks, 3)
            )
            assert (res.verdict is not PiercingVerdict.EMPTY) == triples_ok
            assert_basis_certifies(disks, res)

    def test_witness_validity(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            disks = [
                Disk(P(*rng.uniform(-1, 1, 2)), float(rng.uniform(0.4, 1.6)))
                for _ in range(n)
            ]
            res = pierce_disks(disks)
            if res.verdict is not PiercingVerdict.EMPTY:
                assert disk_depth(res.witness, disks) <= 1e-8
            assert_basis_certifies(disks, res)

    @pytest.mark.parametrize("n", [16, 32])
    def test_large_family_depth_is_max_triple_depth(self, n):
        # Helly / LP-type value: the family depth is the worst triple's
        rng = np.random.default_rng(47 + n)
        for r_lo, r_hi in ((0.5, 1.5), (1.0, 3.0), (2.0, 4.0)):
            disks = random_disks(rng, n, r_lo, r_hi)
            res = pierce_disks(disks)
            helly = max(
                triple_intersect_exact(*trio).depth for trio in itertools.combinations(disks, 3)
            )
            assert abs(res.depth - helly) <= family_tol(disks)
            assert_basis_certifies(disks, res)

    def test_metamorphic_permutation_translation_scaling(self):
        rng = np.random.default_rng(48)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            disks = random_disks(rng, n, 0.5, 2.0)
            res = pierce_disks(disks)

            perm = [int(i) for i in rng.permutation(n)]
            shuffled = [disks[i] for i in perm]
            moved = pierce_disks(shuffled)
            assert moved.verdict is res.verdict
            assert sorted(perm[i] for i in moved.basis) == list(res.basis)
            assert abs(moved.depth - res.depth) <= family_tol(disks)
            if moved.verdict is not PiercingVerdict.EMPTY:
                assert disk_depth(moved.witness, disks) <= family_tol(disks)

            # power-of-two scaling commutes with every rounding step
            k = int(rng.integers(-8, 9))
            f = 2.0**k
            scaled = pierce_disks([Disk(P(d.center.x * f, d.center.y * f), d.radius * f) for d in disks])
            assert scaled.depth == res.depth * f
            assert scaled.basis == res.basis
            if res.witness is not None:
                assert scaled.witness == P(res.witness.x * f, res.witness.y * f)

            # a dyadic shift rounds centers and witness at their new
            # magnitude, so the depth holds to the band, not bit for bit
            tx, ty = (float(v) / 8.0 for v in rng.integers(-32, 33, 2))
            shifted = pierce_disks([Disk(P(d.center.x + tx, d.center.y + ty), d.radius) for d in disks])
            assert shifted.verdict is res.verdict
            assert shifted.basis == res.basis
            assert abs(shifted.depth - res.depth) <= family_tol(disks)

    def test_sqrt2_chain_inside_disk(self):
        # any point of a diametral disk detours by at most sqrt(2)
        rng = np.random.default_rng(46)
        for _ in range(300):
            a, b = P(*rng.uniform(-1, 1, 2)), P(*rng.uniform(-1, 1, 2))
            if dist(a, b) < 1e-6:
                continue
            d = Disk.diametral(a, b)
            r = d.radius * math.sqrt(rng.uniform(0, 1))
            t = rng.uniform(0, 2 * math.pi)
            x = P(d.center.x + r * math.cos(t), d.center.y + r * math.sin(t))
            assert dist(a, x) + dist(b, x) <= math.sqrt(2) * dist(a, b) + 1e-9


class TestLens:
    def test_tangent_circles_single_point(self):
        pts = circle_circle_points(Disk(P(0, 0), 1), Disk(P(2, 0), 1))
        assert len(pts) == 1
        assert dist(pts[0], P(1, 0)) < 1e-9

    def test_unit_circles_lens(self):
        pts = circle_circle_points(Disk(P(0, 0), 1), Disk(P(1, 0), 1))
        assert len(pts) == 2
        for p in pts:
            assert abs(dist(p, P(0, 0)) - 1) < 1e-12
            assert abs(dist(p, P(1, 0)) - 1) < 1e-12


class TestStretch:
    def test_point_on_segment_ratio_one(self):
        rep = stretch_report([(P(0, 0), P(2, 0))], P(0.5, 0), math.sqrt(2))
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.holds

    def test_equilateral_centroid_exact_fingerhut_ratio(self):
        pairs = [
            (P(0, 0), P(1, 0)),
            (P(1, 0), P(0.5, SQRT3 / 2)),
            (P(0.5, SQRT3 / 2), P(0, 0)),
        ]
        centroid = P(0.5, SQRT3 / 6)
        rep = stretch_report(pairs, centroid, 2 / SQRT3)
        assert rep.holds
        for s in rep.pairs:
            assert s.ratio == pytest.approx(2 / SQRT3, abs=1e-12)

    def test_zero_length_pairs_reported_separately(self):
        rep = stretch_report([(P(0, 0), P(0, 0)), (P(0, 0), P(1, 0))], P(5, 5), 2.5)
        assert rep.zero_length_pairs == (0,)
        assert rep.pairs[0].ratio is None
        assert rep.max_ratio is not None

    def test_holds_is_scale_free(self):
        # ratio sqrt(2) + 5e-4 on the bisector of (-k, 0), (k, 0): the
        # verdict must not flip when the instance is scaled by 2^20
        y = math.sqrt((math.sqrt(2) + 5e-4) ** 2 - 1)
        reps = [
            stretch_report([(P(-k, 0), P(k, 0))], P(0, k * y), math.sqrt(2))
            for k in (1.0, 2.0**20)
        ]
        assert reps[0].max_ratio == reps[1].max_ratio
        assert not reps[0].holds
        assert reps[1].holds == reps[0].holds

    def test_segment_distance_flag(self):
        rep = stretch_report([(P(0, 0), P(2, 0))], P(1, 0.9), math.sqrt(2))
        assert rep.pairs[0].within_half_length
        rep2 = stretch_report([(P(0, 0), P(2, 0))], P(1, 1.1), math.sqrt(2))
        assert not rep2.pairs[0].within_half_length


class TestMidpointShortest:
    def test_basic(self):
        assert midpoint_shortest_edge([(P(0, 0), P(2, 0)), (P(5, 0), P(5.5, 0))]) == P(5.25, 0)

    def test_tie_lowest_index(self):
        assert midpoint_shortest_edge([(P(0, 0), P(1, 0)), (P(10, 0), P(11, 0))]) == P(0.5, 0)

    def test_family_shortest_is_top_pair(self):
        eps = 0.02
        pairs = [
            (P(-1, 0), P(eps / 2, SQRT3 * (1 - eps / 2))),
            (P(1, 0), P(-eps / 2, SQRT3 * (1 - eps / 2))),
            (P(0, SQRT3), P(0, 3)),
        ]
        mid = midpoint_shortest_edge(pairs)
        assert mid == P(0, (3 + SQRT3) / 2)


class TestPierceEllipses:
    def test_single_region_midpoint(self):
        res = pierce_ellipses([EllipseRegion(P(0, 0), P(2, 0), 2.0)])
        assert res.witness == P(1, 0)
        assert res.verdict is PiercingVerdict.NONEMPTY

    def test_equilateral_tight_factor_singleton(self):
        pairs = [
            (P(0, 0), P(1, 0)),
            (P(1, 0), P(0.5, SQRT3 / 2)),
            (P(0.5, SQRT3 / 2), P(0, 0)),
        ]
        regions = [EllipseRegion(a, b, dist(a, b) / SQRT3) for a, b in pairs]
        res = pierce_ellipses(regions)
        assert res.verdict is PiercingVerdict.TANGENT
        assert dist(res.witness, P(0.5, SQRT3 / 6)) < 1e-6

    def test_equilateral_below_tight_factor_empty(self):
        pairs = [
            (P(0, 0), P(1, 0)),
            (P(1, 0), P(0.5, SQRT3 / 2)),
            (P(0.5, SQRT3 / 2), P(0, 0)),
        ]
        regions = [EllipseRegion(a, b, 0.99 * dist(a, b) / SQRT3) for a, b in pairs]
        res = pierce_ellipses(regions)
        assert res.verdict is PiercingVerdict.EMPTY

    @pytest.mark.parametrize("k", range(-4, 5))
    def test_equilateral_closed_form_depth(self, k):
        # by symmetry the centroid is the minimizer, at focal sum
        # 2 side / sqrt(3) for every region
        side = 2.0**k
        for factor, verdict in (
            (0.9, PiercingVerdict.EMPTY),
            (0.99, PiercingVerdict.EMPTY),
            (1.0, PiercingVerdict.TANGENT),
            (1.01, PiercingVerdict.NONEMPTY),
            (1.1, PiercingVerdict.NONEMPTY),
        ):
            f = factor / SQRT3
            regions = [EllipseRegion(a, b, f * side) for a, b in equilateral_pairs(side)]
            res = pierce_ellipses(regions)
            assert abs(res.depth - 2.0 * side * (1.0 / SQRT3 - f)) <= ellipse_tol(regions)
            assert res.verdict is verdict

    def test_invariance_permutation_and_scaling(self):
        rng = np.random.default_rng(81)
        families = [
            [EllipseRegion(a, b, f * dist(a, b) / SQRT3) for a, b in equilateral_pairs(1.0)]
            for f in (0.99, 1.0, 1.01)
        ]
        families += [random_regions(rng, int(rng.integers(2, 7))) for _ in range(20)]
        for regions in families:
            res = pierce_ellipses(regions)
            perm = [int(i) for i in rng.permutation(len(regions))]
            moved = pierce_ellipses([regions[i] for i in perm])
            assert moved.verdict is res.verdict
            assert abs(moved.depth - res.depth) <= ellipse_tol(regions)

            k = int(rng.integers(-8, 9))
            f = 2.0**k
            scaled_regions = [
                EllipseRegion(
                    P(e.focus_a.x * f, e.focus_a.y * f),
                    P(e.focus_b.x * f, e.focus_b.y * f),
                    e.semimajor * f,
                )
                for e in regions
            ]
            scaled = pierce_ellipses(scaled_regions)
            assert scaled.verdict is res.verdict
            assert abs(scaled.depth - res.depth * f) <= ellipse_tol(scaled_regions)

    def test_optimality_random_families(self):
        # families include circles (coincident foci) and duplicates;
        # growing every semimajor by d lowers the depth by 2 d everywhere
        # and keeps the minimizers, so an EMPTY family is probed around
        # the witness of its grown copy
        rng = np.random.default_rng(82)
        for trial in range(60):
            regions = random_regions(rng, int(rng.integers(2, 8)), circles=trial % 3 == 1)
            if trial % 3 == 2:
                regions += regions[:2]  # duplicate regions
            res = pierce_ellipses(regions)
            assert res.iterations < 400
            tol = ellipse_tol(regions)
            witness = res.witness
            if witness is None:
                grow = res.depth
                grown = pierce_ellipses(
                    [EllipseRegion(e.focus_a, e.focus_b, e.semimajor + grow) for e in regions]
                )
                assert abs(grown.depth - (res.depth - 2.0 * grow)) <= tol
                witness = grown.witness
            assert ellipse_value(witness, regions) <= res.depth + tol
            for radius in (1e-2, 1e-4, 1e-6, 1e-8):
                for dx, dy in rng.normal(0.0, radius, (20, 2)):
                    probe = P(witness.x + dx, witness.y + dy)
                    assert ellipse_value(probe, regions) >= res.depth - tol


def test_import_mmp_loads_no_scipy():
    # scipy.optimize alone costs most of a second at import
    src = str(Path(mmp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, mmp; mmp.max_sum(mmp.PointSet.uncolored([(0, 0), (1, 0), (0, 1), (1, 1)]));"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
