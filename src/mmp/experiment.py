"""Randomized verification campaigns over exact max-sum matchings.

Each campaign samples point sets uniformly from [-1, 1]^2, computes the
exact max-sum matching, and aggregates the per-instance guarantee checks
of ``report.check_instance``: violation counts per check name (they must
be zero), the largest witness and midpoint stretch, a histogram of the
witness stretch, the 3-pair configuration labels, and how many instances
had an empty disk intersection (for colored sets this is reported, not a
failure).

Reports are deterministic for a given seed (no timing fields) and
serialize canonically.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .matching import PointSet, max_sum
from .piercing import PiercingVerdict
from .report import check_instance

__all__ = ["run_campaign", "CAMPAIGN_SCHEMA"]

CAMPAIGN_SCHEMA = "mmp.campaign/1"

# Fixed histogram bins for the witness stretch ratio (1 .. sqrt(2)).
_HIST_BINS = 16
_HIST_LO = 1.0
_HIST_HI = 1.45


def _hist_index(ratio: float) -> int:
    if ratio <= _HIST_LO:
        return 0
    if ratio >= _HIST_HI:
        return _HIST_BINS - 1
    return min(int((ratio - _HIST_LO) / (_HIST_HI - _HIST_LO) * _HIST_BINS), _HIST_BINS - 1)


def run_campaign(
    n_values: list[int],
    trials: int,
    seed: int,
    colored: bool = False,
) -> dict:
    """Run ``trials`` random instances per n and aggregate the checks."""
    rng = np.random.default_rng(seed)
    per_n: dict[str, dict] = {}
    total_violations = 0

    for n in n_values:
        if n < 2:
            raise ValueError(f"campaign needs n >= 2, got {n}")
        violations: Counter[str] = Counter()
        label_counts: Counter[str] = Counter()
        fragile_count = 0
        empty_observed = 0
        max_witness_ratio = 0.0
        max_midpoint_ratio = 0.0
        hist = [0] * _HIST_BINS

        for _ in range(trials):
            coords = rng.uniform(-1.0, 1.0, (2 * n, 2))
            if colored:
                ps = PointSet.colored(
                    [tuple(p) for p in coords[:n]], [tuple(p) for p in coords[n:]]
                )
            else:
                ps = PointSet.uncolored([tuple(p) for p in coords])
            ic = check_instance(ps, max_sum(ps)[0])
            violations.update({c.name: c.violations for c in ic.checks if c.violations})
            if ic.piercing.verdict is PiercingVerdict.EMPTY:
                empty_observed += 1
            ratios = {c.name: c.value for c in ic.checks}
            witness_ratio = ratios.get("sqrt2_stretch")
            if witness_ratio is not None:
                max_witness_ratio = max(max_witness_ratio, witness_ratio)
                hist[_hist_index(witness_ratio)] += 1
            if ratios["sqrt5_midpoint"] is not None:
                max_midpoint_ratio = max(max_midpoint_ratio, ratios["sqrt5_midpoint"])
            if ic.case is not None:
                label_counts[ic.case.label.value] += 1
                fragile_count += int(ic.case.fragile)

        total_violations += sum(violations.values())
        per_n[str(n)] = {
            "trials": trials,
            "violations": dict(sorted(violations.items())),
            "max_witness_stretch": max_witness_ratio,
            "max_midpoint_stretch": max_midpoint_ratio,
            "stretch_histogram": hist,
            "label_counts": dict(sorted(label_counts.items())),
            "fragile_instances": fragile_count,
            "empty_intersections_observed": empty_observed,
        }

    return {
        "schema": CAMPAIGN_SCHEMA,
        "colored": colored,
        "seed": seed,
        "n_values": list(n_values),
        "trials_per_n": trials,
        "per_n": per_n,
        "total_violations": total_violations,
    }
