import pytest

from mmp import tolerances
from mmp.geom import Disk, Point, Region, in_disk


class TestToleranceFactor:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MMP_TOL", "1000")
        previous = tolerances.set_tolerance_factor(None)
        try:
            assert tolerances.tolerance_factor() == 1000.0
            assert tolerances.boundary_tol(0.0) == pytest.approx(1e-6)
        finally:
            tolerances.set_tolerance_factor(previous)

    def test_invalid_env_ignored(self, monkeypatch):
        monkeypatch.setenv("MMP_TOL", "not-a-number")
        previous = tolerances.set_tolerance_factor(None)
        try:
            assert tolerances.tolerance_factor() == 1.0
        finally:
            tolerances.set_tolerance_factor(previous)

    def test_wider_band_changes_classification(self):
        p = Point(1.0 + 1e-8, 0.0)
        d = Disk(Point(0.0, 0.0), 1.0)
        assert in_disk(p, d) is Region.EXTERIOR
        previous = tolerances.set_tolerance_factor(100.0)
        try:
            assert in_disk(p, d) is Region.BOUNDARY
        finally:
            tolerances.set_tolerance_factor(previous)

    def test_scaling_shapes(self):
        assert tolerances.collinear_tol(2.0) == pytest.approx(4e-12)
        assert tolerances.pierce_tol(3.0) == pytest.approx(4e-9)
        assert tolerances.cost_tol(9.0) == pytest.approx(9e-9)
        assert tolerances.cost_tol(2.0**-20) == 2.0**-20 * tolerances.cost_tol(1.0)
