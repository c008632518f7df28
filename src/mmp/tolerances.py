"""Tolerance model shared by every predicate and solver.

All geometric decisions are made in double precision with explicit
tolerance bands that scale with the magnitude of the input coordinates
(``ratio_tol``, for dimensionless ratios, does not; ``cost_tol`` is
relative to the cost).  The global factor can be overridden through the
``MMP_TOL`` environment variable (a plain multiplier; ``MMP_TOL=10``
makes every band ten times wider).
"""

from __future__ import annotations

import os

_DEF_FACTOR = 1.0


def _read_env_factor() -> float:
    raw = os.environ.get("MMP_TOL")
    if raw is None:
        return _DEF_FACTOR
    try:
        value = float(raw)
    except ValueError:
        return _DEF_FACTOR
    return value if value > 0 else _DEF_FACTOR


_factor = _read_env_factor()


def tolerance_factor() -> float:
    """Current global multiplier applied to every tolerance band."""
    return _factor


def set_tolerance_factor(value: float | None) -> float:
    """Override the global factor (``None`` re-reads ``MMP_TOL``).

    Returns the previous factor so callers can restore it.
    """
    global _factor
    previous = _factor
    _factor = _read_env_factor() if value is None else float(value)
    return previous


def boundary_tol(scale: float) -> float:
    """Band width for interior/boundary/exterior classifications."""
    return 1e-9 * (1.0 + abs(scale)) * _factor


def collinear_tol(scale: float) -> float:
    """Cross-product magnitude below which three points count as collinear.

    Quadratic in the coordinate scale because the cross product is.
    """
    return 1e-12 * scale * scale * _factor


def pierce_tol(scale: float) -> float:
    """Depth band separating NonEmpty / Tangent / Empty piercing verdicts."""
    return 1e-9 * (1.0 + abs(scale)) * _factor


def fragile_tol(scale: float) -> float:
    """Decision margin below which a configuration label is fragile."""
    return 1e-7 * (1.0 + abs(scale)) * _factor


def ratio_tol() -> float:
    """Band for dimensionless comparisons, such as a stretch ratio
    against its bound; it does not depend on the coordinate scale."""
    return 1e-9 * _factor


def cost_tol(cost: float) -> float:
    """Tie tolerance for matching costs (the gap that makes an optimum
    unique); relative, so a rescaling never changes a tie decision."""
    return 1e-9 * abs(cost) * _factor
