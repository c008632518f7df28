"""In-memory span tracing of mmp's public functions, and the per-layer
metrics computed from the spans.

The tracer replaces each traced function at every ``mmp`` module
attribute that refers to it (``mmp.report.max_sum_bruteforce``,
``mmp.lemmas.max_sum_bruteforce``, ...), so calls are recorded where
the callers make them and the mmp sources stay untouched.  A span is
``[name, start, end, parent, instance, info]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``instance`` the id of the
benchmark instance being timed (None during untimed input generation),
and ``info`` a small value read from the call's arguments or result.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from pathlib import Path

LEMMA_IDS = (
    "lemma1",
    "lemma5",
    "lemma6",
    "common-point-7",
    "common-point-8",
    "common-point-9-adjacent",
    "prop2",
    "extension",
    "monotone3",
)

CAMPAIGN_LABELS = ("u2", "u3", "u4", "u5", "u6", "c2", "c3", "c4", "c5")


def _bruteforce_info(args, kwargs, result):
    ps = args[0] if args else kwargs["ps"]
    return (ps.n_pairs, ps.is_colored, bool(result[1]))


# Span name -> extractor of the span's info from (args, kwargs, result).
TRACED = {
    "matching.max_sum_bruteforce": _bruteforce_info,
    # ``iterations`` is read with a default so that a PiercingResult
    # without it still traces; the iteration metrics then read 0.
    "piercing.pierce_disks": lambda a, k, r: (getattr(r, "iterations", None), r.verdict.value),
    "piercing.pierce_ellipses": lambda a, k, r: getattr(r, "iterations", None),
    "piercing.stretch_report": None,
    "piercing.pairwise_intersect": None,
    "piercing.triple_intersect_exact": None,
    "classify.classify_three": lambda a, k, r: bool(r.fragile),
    "classify.witness_easy_case": None,
    "report.analyze": None,
    "docio.parse_document": None,
    "docio.canonical_json": lambda a, k, r: len(r.encode("utf-8")),
    "experiment.run_campaign": None,
    "lemmas.run_checker": lambda a, k, r: (
        r.lemma_id, r.trials_attempted, r.trials_accepted, r.negative_control
    ),
    "constructions.theorem2_instance": None,
    "constructions.theorem3_instance": None,
}

# Functions doing geometric or serialization work, as opposed to the
# orchestrators (analyze, run_campaign, run_checker) that call them.
LEAF_LAYERS = (
    "matching.max_sum_bruteforce",
    "piercing.pierce_disks",
    "piercing.pierce_ellipses",
    "piercing.stretch_report",
    "piercing.pairwise_intersect",
    "piercing.triple_intersect_exact",
    "classify.classify_three",
    "classify.witness_easy_case",
    "docio.parse_document",
    "docio.canonical_json",
)


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for fn in ("matching.max_sum_bruteforce", "piercing.pierce_disks"):
        units.update(
            {f"{fn}.calls": "count", f"{fn}.busy_s": "s", f"{fn}.ms_p50": "ms", f"{fn}.ms_tail": "ms"}
        )
    units["matching.unique_fraction"] = "fraction"
    units["piercing.pierce_disks.iterations_mean"] = "iterations"
    units["piercing.pierce_disks.exact_fraction"] = "fraction"
    units["piercing.pierce_disks.empty_fraction"] = "fraction"
    units["piercing.pierce_ellipses.calls"] = "count"
    units["piercing.pierce_ellipses.busy_s"] = "s"
    units["piercing.pierce_ellipses.iterations_mean"] = "iterations"
    for fn in (
        "piercing.stretch_report",
        "piercing.pairwise_intersect",
        "piercing.triple_intersect_exact",
        "classify.classify_three",
        "classify.witness_easy_case",
    ):
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.busy_s"] = "s"
    units["classify.fragile_fraction"] = "fraction"
    units["report.analyze.busy_s"] = "s"
    units["report.analyze.self_s"] = "s"
    units["docio.parse_document.busy_s"] = "s"
    units["docio.canonical_json.busy_s"] = "s"
    units["docio.bytes_out"] = "bytes"
    units["experiment.run_campaign.self_s"] = "s"
    for label in CAMPAIGN_LABELS:
        units[f"experiment.trials_per_s.{label}"] = "1/s"
    for lemma_id in LEMMA_IDS:
        units[f"lemmas.{lemma_id}.busy_s"] = "s"
        units[f"lemmas.{lemma_id}.accept_ratio"] = "fraction"
    units["constructions.theorem2_instance.busy_s"] = "s"
    units["constructions.theorem3_instance.busy_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.layer_share"] = "fraction"
    return units


PER_LAYER_UNITS = _per_layer_units()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with at
    least ten samples beyond it; the maximum when there are fewer than
    eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self, new_instance_on: tuple[str, str] | None = None) -> None:
        # (child, parent): a call of ``child`` made directly inside
        # ``parent`` starts a new instance (a campaign trial).
        self.new_instance_on = new_instance_on
        self.spans: list[list] = []
        self.instance: int | None = None
        self._next_instance = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_instance(self) -> None:
        self.instance = self._next_instance
        self._next_instance += 1

    def end_instance(self) -> None:
        self.instance = None

    def _wrap(self, name: str, fn, info):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        marker = self.new_instance_on

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if marker is not None and name == marker[0] and parent >= 0 and spans[parent][0] == marker[1]:
                self.begin_instance()
            span = [name, 0.0, 0.0, parent, self.instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Patch every mmp module attribute bound to a traced function;
        returns the traced names that mmp no longer defines."""
        modules = [m for k, m in list(sys.modules.items()) if k == "mmp" or k.startswith("mmp.")]
        missing = []
        for name, info in TRACED.items():
            module_name, attr = name.split(".")
            home = sys.modules.get(f"mmp.{module_name}")
            fn = getattr(home, attr, None)
            if fn is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, fn, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, fn))
                        setattr(module, key, wrapper)
        return missing

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list], timed_s: float, overhead_s: float, speed: float) -> dict[str, float]:
    """Every per-layer metric, from the spans of a traced run whose
    timed instances took ``timed_s`` reference seconds; ``speed`` is the
    run's reference seconds per wall second."""
    n = len(spans)
    dur = [(s[2] - s[1]) * speed for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def outermost(i: int) -> bool:
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    timed: dict[str, list[int]] = {}
    untimed: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if outermost(i):
            (untimed if s[4] is None else timed).setdefault(s[0], []).append(i)

    def idx(name: str) -> list[int]:
        return timed.get(name, [])

    def busy(name: str) -> float:
        return sum(dur[i] for i in idx(name))

    def self_time(name: str) -> float:
        return sum(dur[i] - child[i] for i in idx(name))

    def ms(name: str) -> list[float]:
        return [dur[i] * 1000.0 for i in idx(name)]

    def share(name: str, pred) -> float:
        calls = idx(name)
        return sum(1 for i in calls if pred(spans[i][5])) / len(calls) if calls else 0.0

    def mean_info(name: str, key) -> float:
        values = [key(spans[i][5]) for i in idx(name)]
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else 0.0

    m: dict[str, float] = {}
    for fn in ("matching.max_sum_bruteforce", "piercing.pierce_disks"):
        m[f"{fn}.calls"] = len(idx(fn))
        m[f"{fn}.busy_s"] = busy(fn)
        m[f"{fn}.ms_p50"] = median(ms(fn))
        m[f"{fn}.ms_tail"] = tail(ms(fn))[0]
    m["matching.unique_fraction"] = share("matching.max_sum_bruteforce", lambda info: info[2])
    m["piercing.pierce_disks.iterations_mean"] = mean_info("piercing.pierce_disks", lambda info: info[0])
    m["piercing.pierce_disks.exact_fraction"] = share("piercing.pierce_disks", lambda info: info[0] == 0)
    m["piercing.pierce_disks.empty_fraction"] = share(
        "piercing.pierce_disks", lambda info: info[1] == "empty"
    )
    m["piercing.pierce_ellipses.calls"] = len(idx("piercing.pierce_ellipses"))
    m["piercing.pierce_ellipses.busy_s"] = busy("piercing.pierce_ellipses")
    m["piercing.pierce_ellipses.iterations_mean"] = mean_info("piercing.pierce_ellipses", lambda info: info)
    for fn in (
        "piercing.stretch_report",
        "piercing.pairwise_intersect",
        "piercing.triple_intersect_exact",
        "classify.classify_three",
        "classify.witness_easy_case",
    ):
        m[f"{fn}.calls"] = len(idx(fn))
        m[f"{fn}.busy_s"] = busy(fn)
    m["classify.fragile_fraction"] = share("classify.classify_three", lambda info: info)
    m["report.analyze.busy_s"] = busy("report.analyze")
    m["report.analyze.self_s"] = self_time("report.analyze")
    m["docio.parse_document.busy_s"] = busy("docio.parse_document")
    m["docio.canonical_json.busy_s"] = busy("docio.canonical_json")
    # Output bytes are those of documents the benchmark serializes, not
    # of digests computed inside analyze.
    m["docio.bytes_out"] = sum(spans[i][5] for i in idx("docio.canonical_json") if spans[i][3] < 0)
    m["experiment.run_campaign.self_s"] = self_time("experiment.run_campaign")
    m.update(_trial_rates(spans, idx("experiment.run_campaign"), speed))
    # busy_s covers a checker's positive runs and negative controls;
    # accept_ratio is the hypothesis sampler's, so positive runs only.
    for lemma_id in LEMMA_IDS:
        calls = [i for i in idx("lemmas.run_checker") if spans[i][5][0] == lemma_id]
        positive = [spans[i][5] for i in calls if not spans[i][5][3]]
        attempted = sum(info[1] for info in positive)
        m[f"lemmas.{lemma_id}.busy_s"] = sum(dur[i] for i in calls)
        accepted = sum(info[2] for info in positive)
        m[f"lemmas.{lemma_id}.accept_ratio"] = accepted / attempted if attempted else 0.0
    for fn in ("constructions.theorem2_instance", "constructions.theorem3_instance"):
        m[f"{fn}.busy_s"] = sum(dur[i] for i in untimed.get(fn, []) + idx(fn))
    m["trace.overhead_s"] = overhead_s
    m["trace.layer_share"] = sum(busy(fn) for fn in LEAF_LAYERS) / timed_s if timed_s > 0 else 0.0
    return m


def _trial_rates(spans: list[list], campaigns: list[int], speed: float) -> dict[str, float]:
    """Trials per second for each campaign size.  Inside a run_campaign
    span every trial makes exactly one brute-force call, so a trial is
    taken to last from its call to the next trial's (or the campaign's
    end)."""
    trials = dict.fromkeys(CAMPAIGN_LABELS, 0)
    seconds = dict.fromkeys(CAMPAIGN_LABELS, 0.0)
    starts: dict[int, list[int]] = {i: [] for i in campaigns}
    for i, s in enumerate(spans):
        if s[0] == "matching.max_sum_bruteforce" and s[3] in starts:
            starts[s[3]].append(i)
    for c, calls in starts.items():
        bounds = [spans[i][1] for i in calls] + [spans[c][2]]
        for k, i in enumerate(calls):
            n_pairs, colored, _ = spans[i][5]
            label = f"{'c' if colored else 'u'}{n_pairs}"
            if label in trials:
                trials[label] += 1
                seconds[label] += (bounds[k + 1] - bounds[k]) * speed
    return {
        f"experiment.trials_per_s.{label}": trials[label] / seconds[label] if seconds[label] > 0 else 0.0
        for label in CAMPAIGN_LABELS
    }
