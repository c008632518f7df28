"""The benchmark's three closed-loop workloads: inputs, calls and checks.

A workload is a sequence of rounds.  Round ``r`` is a list of items
built from ``(seed, r)`` alone, so any two runs with the same seed
process the same inputs.  Each item is one call a waiting caller makes
into mmp; after the timed call its output is checked against the item's
expectations, outside the timed region.

* ``campaign``: ``run_campaign`` over uncolored n = 2..6 and colored
  n = 2..5 with equal trials per n, as in the acceptance campaigns.
* ``match``: the ``mmp match`` pipeline ``parse_document`` ->
  ``analyze`` -> ``canonical_json`` on one document per item.
* ``ladder``: every lemma checker at the acceptance 10:1 trial ratio,
  a negative control per checker, and the 2/sqrt(3) ellipse rung.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from mmp import constructions, docio, experiment, lemmas, piercing, report
from mmp.geom import EllipseRegion, dist
from mmp.matching import max_sum_bruteforce
from mmp.tolerances import cost_tol, pierce_tol

SQRT3 = math.sqrt(3.0)


def derive_seed(seed: int, *parts: object) -> int:
    """A 32-bit seed determined by the workload seed and ``parts``."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")


@dataclass
class Item:
    """One timed call, the number of instances it stands for, and what
    its output must satisfy."""

    label: str
    call: Callable[[], Any]
    instances: int
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------- campaign

UNCOLORED_NS = [2, 3, 4, 5, 6]
COLORED_NS = [2, 3, 4, 5]
CAMPAIGN_TRIALS = 4  # per n and call; a round takes about 0.5 s


def campaign_round(seed: int, r: int, trials: int = CAMPAIGN_TRIALS) -> list[Item]:
    items = []
    for colored, ns in ((False, UNCOLORED_NS), (True, COLORED_NS)):
        s = derive_seed(seed, "campaign", r, colored)
        items.append(
            Item(
                f"campaign-{'c' if colored else 'u'}",
                lambda ns=ns, s=s, colored=colored: experiment.run_campaign(ns, trials, s, colored=colored),
                trials * len(ns),
                {"n_values": ns, "trials": trials, "colored": colored},
            )
        )
    return items


def check_campaign(item: Item, out: dict) -> list[str]:
    exp = item.expect
    problems = []
    if out.get("total_violations") != 0:
        problems.append(f"total_violations {out.get('total_violations')}")
    if out.get("n_values") != exp["n_values"] or out.get("colored") != exp["colored"]:
        problems.append("campaign ran other sizes than requested")
    for n in exp["n_values"]:
        block = out.get("per_n", {}).get(str(n), {})
        if block.get("trials") != exp["trials"]:
            problems.append(f"n={n}: {block.get('trials')} trials, {exp['trials']} requested")
    return problems


# ------------------------------------------------------------------- match


def _coords(a) -> list[list[float]]:
    return [[float(x), float(y)] for x, y in a]


def match_documents(seed: int, r: int) -> list[tuple[str, dict]]:
    """(kind, document) pairs of one round; kinds name the expected
    verdict class (``thm`` documents must report an empty family)."""
    rng = np.random.default_rng(derive_seed(seed, "match", r))
    docs: list[tuple[str, dict]] = []
    for size in (4, 6, 8, 10, 12, 14):
        docs.append(("random", {"points": _coords(rng.uniform(-1, 1, (size, 2)))}))
    for k in range(2, 9):
        red = _coords(rng.uniform(-1, 1, (k, 2)))
        blue = _coords(rng.uniform(-1, 1, (k, 2)))
        docs.append(("random", {"red": red, "blue": blue}))
    for eps in rng.uniform(0.002, 0.025, 2):
        inst = constructions.theorem2_instance(float(eps))
        docs.append(("thm", docio.document_of(inst.point_set, f"thm2_eps{eps:.6f}")))
    for n in range(4, 9):
        eps = float(rng.uniform(0.3, 0.95)) * constructions.many_pair_eps_max(n)
        inst = constructions.theorem3_instance(n, eps)
        docs.append(("thm", docio.document_of(inst.point_set, f"thm3_n{n}")))
    for name, ps in constructions.named_fixtures().items():
        docs.append(("thm" if name.startswith("thm") else "fixture", docio.document_of(ps, name)))

    # Degenerate inputs: coincident points, collinear points, ties, and
    # exact power-of-two rescalings.
    base = _coords(rng.uniform(-1, 1, (4, 2)))
    docs.append(("degenerate", {"name": "duplicates", "points": base + base}))
    red = _coords(rng.uniform(-1, 1, (3, 2)))
    docs.append(("degenerate", {"name": "duplicates-colored", "red": red, "blue": red}))
    ts = sorted(int(t) / 8.0 for t in rng.choice(np.arange(-16, 17), 8, replace=False))
    docs.append(("degenerate", {"name": "collinear", "points": [[t, 0.5 * t + 0.25] for t in ts]}))
    for m in (5, 7):
        phase = float(rng.uniform(0, 2 * math.pi / m))
        angles = [phase + 2 * math.pi * k / m for k in range(m)]
        ring = [[math.cos(a), math.sin(a)] for a in angles]
        docs.append(("degenerate", {"name": f"polygon{m}+center", "points": ring + [[0.0, 0.0]]}))
    base = _coords(rng.uniform(-1, 1, (8, 2)))
    up = [[x * 2.0**20, y * 2.0**20] for x, y in base]
    docs.append(("degenerate", {"name": "scaled-up", "points": up}))
    red, blue = _coords(rng.uniform(-1, 1, (4, 2))), _coords(rng.uniform(-1, 1, (4, 2)))
    docs.append(("degenerate", {"name": "scaled-down", "red": [[x * 2.0**-20, y * 2.0**-20] for x, y in red],
                                "blue": [[x * 2.0**-20, y * 2.0**-20] for x, y in blue]}))
    return docs


def match_pipeline(text: str) -> str:
    ps, name = docio.parse_document(text)
    return docio.canonical_json(report.analyze(ps, name=name))


def match_round(seed: int, r: int) -> list[Item]:
    items = []
    for kind, doc in match_documents(seed, r):
        text = json.dumps(doc)
        expect = {"kind": kind, "doc": doc}
        items.append(Item(f"match-{kind}", lambda text=text: match_pipeline(text), 1, expect))
    return items


def _reference_cost(doc: dict) -> float:
    """Max-sum matching cost by an independent exact solver."""
    if "points" in doc:
        import networkx as nx

        pts = doc["points"]
        g = nx.Graph()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                g.add_edge(i, j, weight=math.dist(pts[i], pts[j]))
        pairs = nx.max_weight_matching(g, maxcardinality=True)
        return sum(math.dist(pts[i], pts[j]) for i, j in pairs)
    from scipy.optimize import linear_sum_assignment

    red, blue = doc["red"], doc["blue"]
    w = np.array([[math.dist(a, b) for b in blue] for a in red])
    rows, cols = linear_sum_assignment(w, maximize=True)
    return float(sum(w[i, j] for i, j in zip(rows, cols)))


def check_match(item: Item, out: str) -> list[str]:
    doc, kind = item.expect["doc"], item.expect["kind"]
    rep = json.loads(out)
    problems = [f"invariant: {f}" for f in rep.get("invariant_failures", [])]
    colored = "points" not in doc
    pts = doc["points"] if not colored else doc["red"] + doc["blue"]
    pairs = rep["matching"]["pairs"]
    if sorted(i for p in pairs for i in p) != list(range(len(pts))):
        return problems + ["matching is not a perfect matching of the input"]
    if colored and any((i < len(doc["red"])) == (j < len(doc["red"])) for i, j in pairs):
        problems.append("colored matching joins two points of one color")
    ref = _reference_cost(doc)
    cost = rep["matching"]["cost"]
    if abs(cost - ref) > cost_tol(ref):
        problems.append(f"matching cost {cost!r} differs from the optimum {ref!r}")
    own = sum(math.dist(pts[i], pts[j]) for i, j in pairs)
    if abs(cost - own) > cost_tol(own):
        problems.append(f"reported cost {cost!r} is not the cost {own!r} of the reported pairs")
    witness = rep["piercing"]["witness"]
    if witness is not None:
        centers = [((pts[i][0] + pts[j][0]) / 2, (pts[i][1] + pts[j][1]) / 2) for i, j in pairs]
        radii = [math.dist(pts[i], pts[j]) / 2 for i, j in pairs]
        scale = max(max(abs(c) for p in pts for c in p), max(radii))
        worst = max(math.dist(witness, c) - r for c, r in zip(centers, radii))
        if worst > pierce_tol(scale):
            problems.append(f"witness lies {worst!r} outside a disk")
    verdict = rep["piercing"]["verdict"]
    if kind == "thm" and verdict != "empty":
        problems.append(f"counterexample family reported {verdict}, expected empty")
    if not colored and verdict == "empty":
        problems.append("uncolored family reported empty")
    return problems


def match_stable(out: str) -> Any:
    rep = json.loads(out)
    rep.pop("timing_ms", None)
    return rep


# ------------------------------------------------------------------ ladder

# Acceptance runs 10^4 accepted trials per checker, 10^3 for the
# oracle-backed ones; a round runs 1/100 of that.  Negative controls
# detect a violation in at least about 40% of trials, so 40 control
# trials miss with probability below 1e-8.
LADDER_TRIALS = {
    "lemma1": 100,
    "lemma5": 100,
    "lemma6": 100,
    "monotone3": 100,
    "common-point-7": 10,
    "common-point-8": 10,
    "common-point-9-adjacent": 10,
    "prop2": 10,
    "extension": 10,
}
CONTROL_TRIALS = 40
ELLIPSE_FACTORS = {"tangent": 1.0 / SQRT3, "empty": 0.99 / SQRT3}


def _equilateral_regions(side: float, factor: float) -> list[EllipseRegion]:
    ps = constructions.equilateral_tightness(side)
    matching, _ = max_sum_bruteforce(ps)
    return [EllipseRegion(a, b, factor * dist(a, b)) for a, b in matching.segments(ps)]


def ladder_round(seed: int, r: int) -> list[Item]:
    items = []
    for lemma_id, trials in LADDER_TRIALS.items():
        for control, count in ((False, trials), (True, CONTROL_TRIALS)):
            s = derive_seed(seed, "control" if control else "ladder", r, lemma_id)
            items.append(Item(
                f"{'control' if control else 'lemma'}-{lemma_id}",
                lambda i=lemma_id, n=count, s=s, c=control: lemmas.run_checker(i, n, s, negative_control=c),
                count,
                {"control": control, "trials": count},
            ))
    # Power-of-two sides scale the family exactly.
    side = 2.0 ** int(np.random.default_rng(derive_seed(seed, "ellipse", r)).integers(-4, 5))
    for verdict, factor in ELLIPSE_FACTORS.items():
        regions = _equilateral_regions(side, factor)
        items.append(Item(f"ellipse-{verdict}", lambda regions=regions: piercing.pierce_ellipses(regions), 1,
                          {"verdict": verdict}))
    return items


def check_ladder(item: Item, out) -> list[str]:
    exp = item.expect
    if "verdict" in exp:
        got = out.verdict.value
        ok = got == "empty" if exp["verdict"] == "empty" else got in ("tangent", "nonempty")
        return [] if ok else [f"ellipse family at the {exp['verdict']} factor reported {got}"]
    problems = []
    if out.trials_accepted < exp["trials"]:
        problems.append(f"{out.trials_accepted} accepted trials, {exp['trials']} requested")
    if exp["control"] and out.violations < 1:
        problems.append("negative control detected no violation")
    if not exp["control"] and out.violations != 0:
        problems.append(f"{out.violations} violations")
    return problems


def ladder_instances(item: Item, out) -> int:
    """Accepted trials of a checker call, one per ellipse family."""
    return item.instances if "verdict" in item.expect else out.trials_accepted


def ladder_stable(out) -> Any:
    if isinstance(out, lemmas.LemmaTrialReport):
        return out.to_dict()
    witness = None if out.witness is None else [out.witness.x, out.witness.y]
    iterations = getattr(out, "iterations", None)
    return {"verdict": out.verdict.value, "witness": witness, "depth": out.depth, "iterations": iterations}


def _declared_instances(item: Item, out) -> int:
    return item.instances


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[int, int], list[Item]]
    check: Callable[[Item, Any], list[str]]
    stable: Callable[[Any], Any]
    instances: Callable[[Item, Any], int]
    # Latency samples: one per item on ``match`` (a document), one per
    # round, as milliseconds per instance, on the others.
    latency_per_item: bool


WORKLOADS = {
    "campaign": Workload(campaign_round, check_campaign, lambda out: out, _declared_instances, False),
    "match": Workload(match_round, check_match, match_stable, _declared_instances, True),
    "ladder": Workload(ladder_round, check_ladder, ladder_stable, ladder_instances, False),
}


def warm_up(name: str, seed: int) -> None:
    """Run each code path of a workload once on a tiny input."""
    if name == "campaign":
        experiment.run_campaign([2, 3, 4], 1, derive_seed(seed, "warm"))
        experiment.run_campaign([2, 3, 4], 1, derive_seed(seed, "warm"), colored=True)
    elif name == "match":
        for fixture, ps in constructions.named_fixtures().items():
            match_pipeline(json.dumps(docio.document_of(ps, fixture)))
    else:
        for lemma_id in LADDER_TRIALS:
            lemmas.run_checker(lemma_id, 1, derive_seed(seed, "warm", lemma_id))
