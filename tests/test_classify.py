import math

import numpy as np
import pytest

from mmp import tolerances
from mmp.classify import (
    EASY_LABELS,
    CaseLabel,
    PairRelationKind,
    classify_three,
    pair_relation,
    witness_easy_case,
)
from mmp.geom import Disk, Point, Region, Segment, in_disk
from mmp.lemmas import _sample_right_angle_segments, _seven_point_hypothesis
from mmp.matching import PointSet, max_sum_bruteforce
from mmp.piercing import PiercingVerdict, pierce_disks


def P(x, y):
    return Point(float(x), float(y))


def seg(a, b):
    return Segment(P(*a), P(*b))


def random_max_sum_segments(rng):
    pts = rng.uniform(-1, 1, (6, 2))
    ps = PointSet.uncolored([tuple(p) for p in pts])
    m, _ = max_sum_bruteforce(ps)
    return [Segment(a, b) for a, b in m.segments(ps)]


class TestPairRelation:
    def test_cross(self):
        rel = pair_relation(seg((0, 0), (2, 2)), seg((0, 2), (2, 0)))
        assert rel.kind is PairRelationKind.CROSS

    def test_second_points_to_first(self):
        rel = pair_relation(seg((0, 0), (4, 0)), seg((1, 3), (2, 0.5)))
        assert rel.kind is PairRelationKind.SECOND_POINTS_TO_FIRST
        assert rel.head == P(2, 0.5)

    def test_parallel_disjoint_convex(self):
        rel = pair_relation(seg((0, 0), (1, 0)), seg((0, 2), (1, 2)))
        assert rel.kind is PairRelationKind.CONVEX_DISJOINT

    def test_orientation_independent(self):
        s1, s2 = seg((0, 0), (4, 0)), seg((1, 3), (2, 0.5))
        for a in (s1, s1.reversed()):
            for b in (s2, s2.reversed()):
                assert pair_relation(a, b).kind is PairRelationKind.SECOND_POINTS_TO_FIRST

    def test_interior_point_outside_disk_not_compatible(self):
        # head inside the triangle but outside the partner disk
        rel = pair_relation(seg((0, 0), (4, 0)), seg((2, 3), (2, 2.2)))
        assert rel.kind is PairRelationKind.CONVEX_DISJOINT

    def test_fragile_band_follows_tolerance_factor(self):
        # the head sits 5e-7 above the partner segment: outside the
        # fragile band at factor 1, inside it at factor 10
        s1, s2 = seg((0, 0), (2, 0)), seg((1, 1), (1, 5e-7))
        rel = pair_relation(s1, s2)
        assert rel.kind is PairRelationKind.SECOND_POINTS_TO_FIRST
        assert not rel.fragile
        previous = tolerances.set_tolerance_factor(10.0)
        try:
            rel = pair_relation(s1, s2)
        finally:
            tolerances.set_tolerance_factor(previous)
        assert rel.kind is PairRelationKind.SECOND_POINTS_TO_FIRST
        assert rel.fragile


class TestPointInDiskLemma:
    def test_interior_endpoint_of_max_sum_matching_is_in_disk(self):
        from mmp.geom import strictly_inside_triangle

        rng = np.random.default_rng(3)
        seen = 0
        for _ in range(400):
            pts = rng.uniform(-1, 1, (4, 2))
            ps = PointSet.uncolored([tuple(p) for p in pts])
            m, _ = max_sum_bruteforce(ps)
            (i, j), (k, l) = m.pairs
            a, b = ps.points[i], ps.points[j]
            c, d = ps.points[k], ps.points[l]
            for head, tail, u, v in ((d, c, a, b), (c, d, a, b), (b, a, c, d), (a, b, c, d)):
                if strictly_inside_triangle(head, tail, u, v):
                    assert in_disk(head, Disk.diametral(u, v)) is Region.INTERIOR
                    seen += 1
        assert seen > 50


class TestClassifyThree:
    def test_three_crossings_is_a(self):
        segs = [seg((0, 0), (2, 2)), seg((0, 2), (2, 0)), seg((1, -2), (1, 4))]
        cls = classify_three(segs)
        assert cls.label is CaseLabel.A
        assert cls.group == "A"

    def test_convex_disjoint_not_max_sum(self):
        segs = [seg((0, 0), (1, 0)), seg((0, 2), (1, 2)), seg((0, 4), (1, 4))]
        cls = classify_three(segs)
        assert cls.label is CaseLabel.NOT_MAX_SUM

    def test_invariance_under_permutation_and_flip(self):
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(60):
            segs = random_max_sum_segments(rng)
            cls = classify_three(segs)
            if cls.fragile:
                continue
            checked += 1
            for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                for flip in range(8):
                    arranged = []
                    for slot, idx in enumerate(perm):
                        s = segs[idx]
                        arranged.append(s.reversed() if (flip >> slot) & 1 else s)
                    assert classify_three(arranged).label is cls.label
        assert checked >= 40

    def test_invariance_under_similarity(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            segs = random_max_sum_segments(rng)
            cls = classify_three(segs)
            if cls.fragile:
                continue
            scale, theta, shift = 3.0, 1.1, (5.0, -2.0)
            c, s = math.cos(theta), math.sin(theta)

            def move(p):
                return P(
                    scale * (c * p.x - s * p.y) + shift[0],
                    scale * (s * p.x + c * p.y) + shift[1],
                )

            moved = [Segment(move(g.p), move(g.q)) for g in segs]
            assert classify_three(moved).label is cls.label

    def test_dichotomy_and_witnesses_on_random_optima(self):
        rng = np.random.default_rng(12)
        labels_seen = set()
        for _ in range(500):
            segs = random_max_sum_segments(rng)
            cls = classify_three(segs)
            if cls.fragile:
                continue
            assert cls.label is not CaseLabel.NOT_MAX_SUM
            labels_seen.add(cls.label)
            disks = [Disk.diametral(s.p, s.q) for s in segs]
            if cls.label in EASY_LABELS:
                w = witness_easy_case(segs, cls)
                for d in disks:
                    assert in_disk(w, d) is not Region.EXTERIOR
            else:
                assert pierce_disks(disks).verdict is not PiercingVerdict.EMPTY
        assert CaseLabel.A in labels_seen
        assert len(labels_seen) >= 5


class TestLabelsMatchLemmaHypotheses:
    """The seven-point hypothesis shapes of the contradiction arguments
    must land exactly on the labels H, I, and J."""

    @pytest.mark.parametrize(
        "which,expected",
        [("7", CaseLabel.H), ("8", CaseLabel.I), ("9-adjacent", CaseLabel.J)],
    )
    def test_hypothesis_shape_label(self, which, expected):
        rng = np.random.default_rng(77)
        found = 0
        for _ in range(4000):
            raw = _sample_right_angle_segments(rng, which)
            if not _seven_point_hypothesis(which, raw):
                continue
            segs = [Segment(P(*tail), P(*head)) for tail, head in raw]
            cls = classify_three(segs)
            if cls.fragile:
                continue
            assert cls.label is expected, (which, cls.label)
            found += 1
            if found >= 25:
                break
        assert found >= 25


class TestEasyWitnessExamples:
    def test_source_head_for_efg_group(self):
        rng = np.random.default_rng(13)
        seen = 0
        for _ in range(1500):
            segs = random_max_sum_segments(rng)
            cls = classify_three(segs)
            if cls.fragile or cls.label not in (CaseLabel.E, CaseLabel.F, CaseLabel.G):
                continue
            assert cls.group == "EFG"
            w = witness_easy_case(segs, cls)
            disks = [Disk.diametral(s.p, s.q) for s in segs]
            for d in disks:
                assert in_disk(w, d) is not Region.EXTERIOR
            seen += 1
        assert seen >= 20

    def test_no_witness_for_hard_labels(self):
        rng = np.random.default_rng(77)
        for _ in range(3000):
            raw = _sample_right_angle_segments(rng, "7")
            if not _seven_point_hypothesis("7", raw):
                continue
            segs = [Segment(P(*tail), P(*head)) for tail, head in raw]
            cls = classify_three(segs)
            if cls.label is CaseLabel.H:
                with pytest.raises(ValueError):
                    witness_easy_case(segs, cls)
                return
        pytest.fail("no cyclic-pointing instance found")
