import pytest

import mmp.report as report_mod
from mmp.constructions import named_fixtures, theorem2_instance
from mmp.matching import PointSet, max_sum, max_sum_bruteforce
from mmp.piercing import PiercingResult, PiercingVerdict
from mmp.report import RUN_REPORT_SCHEMA, analyze, check_instance

UNCOLORED_BASE = [
    "empty_intersection",
    "witness_invalid",
    "sqrt2_stretch",
    "segment_distance_above_half_length",
]
MIDPOINT = ["sqrt5_midpoint", "eppstein_midpoint"]

SIX = PointSet.uncolored([(0, 0), (1, 0), (0.3, 0.9), (0.8, -0.4), (-0.5, 0.2), (0.1, 0.6)])


def checked(ps):
    return check_instance(ps, max_sum_bruteforce(ps)[0])


def failures(ic):
    return [c.name for c in ic.checks if c.violations]


class TestCheckInstance:
    def test_uncolored_three_pairs(self):
        ic = checked(SIX)
        names = [c.name for c in ic.checks]
        assert names == UNCOLORED_BASE + ["dichotomy", "easy_witness_failed"] + MIDPOINT
        assert failures(ic) == []
        assert ic.case is not None and ic.disjoint_pairs is None
        assert ic.at_witness is not None

    def test_uncolored_two_pairs_has_no_case(self):
        ic = checked(PointSet.uncolored([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert [c.name for c in ic.checks] == UNCOLORED_BASE + MIDPOINT
        assert ic.case is None

    def test_colored_family_is_not_classified(self):
        ic = checked(theorem2_instance(0.02).point_set)
        assert [c.name for c in ic.checks] == ["pairwise_disjoint", "prop1_vector_inequality"] + MIDPOINT
        assert ic.piercing.verdict is PiercingVerdict.EMPTY
        assert ic.case is None and ic.at_witness is None
        assert ic.disjoint_pairs == ()
        assert failures(ic) == []

    def test_values_are_the_stretch_maxima(self):
        ic = checked(SIX)
        by_name = {c.name: c for c in ic.checks}
        assert by_name["sqrt2_stretch"].value == ic.at_witness.max_ratio
        assert by_name["sqrt5_midpoint"].value == ic.at_midpoint.max_ratio
        assert by_name["eppstein_midpoint"].value == ic.at_midpoint.max_ratio
        assert by_name["sqrt5_midpoint"].bound == pytest.approx(5**0.5)


class TestAnalyze:
    @pytest.mark.parametrize("name", sorted(named_fixtures()))
    def test_named_fixtures_have_no_failures(self, name):
        ps = named_fixtures()[name]
        rep = analyze(ps, name=name)
        assert rep["schema"] == RUN_REPORT_SCHEMA == "mmp.run_report/4"
        assert rep["invariant_failures"] == []
        assert set(rep["checks"]) == {c.name for c in checked(ps).checks}
        assert (rep["case"] is None) == (ps.is_colored or ps.n_pairs != 3)

    def test_failing_check_is_named(self, monkeypatch):
        def fake_pierce(disks):
            return PiercingResult(verdict=PiercingVerdict.EMPTY, witness=None, depth=1.0)

        monkeypatch.setattr(report_mod, "pierce_disks", fake_pierce)
        rep = analyze(SIX)
        assert rep["invariant_failures"] == ["empty_intersection"]
        assert "at_witness" not in rep["stretch"]

    def test_method_names_the_exact_solver(self):
        rep = analyze(SIX)
        assert rep["matching"]["method"] == "assignment"
        assert rep["matching"]["is_unique"] is True
        m, _ = max_sum(SIX)
        assert rep["matching"]["pairs"] == [list(p) for p in m.pairs]
        assert rep["matching"]["cost"] == max_sum_bruteforce(SIX)[0].cost
        # the doubled triangle's cover optimum has odd cycles
        tied = analyze(named_fixtures()["equilateral"])
        assert tied["matching"]["method"] == "bruteforce"
        assert tied["matching"]["is_unique"] is False
