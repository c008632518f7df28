"""One benchmark process: set up, run a workload's closed loop, check.

Started by ``run.py`` in a fresh interpreter, with ``src`` on the path
and the thread pools pinned.  Prints one JSON line.  ``--setup-only``
stops after set-up; otherwise the loop runs whole rounds until the
timed calls add up to ``--seconds``.  With ``--trace 1`` the loop runs
for half the time untraced, then repeats the same rounds traced, and
the per-layer metrics come from the traced pass.

On shared hosts, contention from other tenants changes the speed of
all code alike by tens of percent, over seconds to minutes.  A fixed
pure-Python reference loop therefore runs before and after every timed
item, and each item's time is reported in reference seconds: its wall
seconds times ``REFERENCE_LOOP_S`` over the mean duration of the loops
on its two sides.  Wall-clock figures are kept alongside.
"""

T0 = __import__("time").perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


# Nominal duration of reference_loop(); it sets the scale of reference
# seconds and cancels out of every comparison between two commits.
REFERENCE_LOOP_S = 0.0005
_REFERENCE_POINTS = [(math.cos(i * 0.37), math.sin(i * 0.91)) for i in range(48)]


def reference_loop() -> float:
    """Duration of a fixed float-and-loop workload, in seconds."""
    t = time.perf_counter()
    acc = 0.0
    for _ in range(3):
        for i, (xi, yi) in enumerate(_REFERENCE_POINTS):
            for xj, yj in _REFERENCE_POINTS[i + 1:]:
                acc += math.hypot(xi - xj, yi - yj)
    return time.perf_counter() - t


def reference_mark(loops: int = 3) -> float:
    """Median duration of a few reference loops; the median ignores a
    loop that was preempted."""
    return statistics.median(reference_loop() for _ in range(loops))


class Failure(str):
    """The last line of the traceback of an item that raised."""


class Loop:
    """Runs rounds of one workload and accumulates what they produce."""

    def __init__(self, workload, seed: int, tracer=None) -> None:
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.timed_s = 0.0
        self.timed_ref_s = 0.0
        self.speeds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: list[float] = []
        self.round_rates: list[float] = []
        self.round_digests: list[str] = []
        self.problems: list[str] = []

    def run_round(self, r: int, items=None) -> None:
        items = self.workload.make_round(self.seed, r) if items is None else items
        outputs = []
        item_s = []
        item_ref_s = []
        mark = reference_mark()
        for item in items:
            if self.tracer is not None:
                self.tracer.begin_instance()
            t = time.perf_counter()
            try:
                out = item.call()
            except Exception:  # a failed instance; the run goes on
                out = Failure(traceback.format_exc().strip().splitlines()[-1])
            dt = time.perf_counter() - t
            if self.tracer is not None:
                self.tracer.end_instance()
            previous, mark = mark, reference_mark()
            item_s.append(dt)
            item_ref_s.append(dt * 2.0 * REFERENCE_LOOP_S / (previous + mark))
            outputs.append(out)
        round_s = sum(item_ref_s)
        self.timed_s += sum(item_s)
        self.timed_ref_s += round_s
        self.speeds.append(round_s / sum(item_s))
        if self.workload.latency_per_item:
            self.latencies_ms.extend(dt * 1000.0 for dt in item_ref_s)

        stable = []
        round_instances = 0
        for item, out in zip(items, outputs):
            problems, instances = [str(out)], item.instances
            if not isinstance(out, Failure):
                try:
                    problems, instances = self.workload.check(item, out), self.workload.instances(item, out)
                    stable.append(self.workload.stable(out))
                except Exception as exc:  # malformed output
                    problems = [f"output not checkable: {exc!r}"]
            round_instances += instances
            self.attempted += instances
            if problems:
                self.failed += instances
                self.problems.extend(f"round {r} {item.label}: {p}" for p in problems)
        self.round_rates.append(round_instances / round_s)
        if not self.workload.latency_per_item:
            self.latencies_ms.append(round_s * 1000.0 / round_instances)
        text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
        self.round_digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())

    def run_for(self, seconds: float, first_round=None) -> int:
        r = 0
        while r == 0 or self.timed_s < seconds:
            self.run_round(r, first_round if r == 0 else None)
            r += 1
        return r


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    first_round = workload.make_round(args.seed, 0)
    workloads.warm_up(args.workload, args.seed)
    setup_wall_s = time.perf_counter() - T0
    setup_s = setup_wall_s * REFERENCE_LOOP_S / reference_mark(15)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    result: dict = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if args.trace == 0:
        loop = Loop(workload, args.seed)
        rounds = loop.run_for(args.seconds, first_round)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from spans import Tracer, layer_metrics

        loop = Loop(workload, args.seed)
        rounds = loop.run_for(args.seconds / 2.0, first_round)
        marker = ("matching.max_sum_bruteforce", "experiment.run_campaign")
        tracer = Tracer(new_instance_on=marker if args.workload == "campaign" else None)
        result["trace_missing"] = tracer.install()
        traced = Loop(workload, args.seed, tracer)
        try:
            for r in range(rounds):
                traced.run_round(r)
        finally:
            tracer.uninstall()
        # Tracing must not change any output.
        for r, (a, b) in enumerate(zip(loop.round_digests, traced.round_digests)):
            if a != b:
                traced.problems.append(f"round {r}: traced output differs from untraced output")
                traced.failed += 1
        overhead_s = traced.timed_ref_s - loop.timed_ref_s
        speed = traced.timed_ref_s / traced.timed_s
        result["per_layer"] = layer_metrics(tracer.spans, traced.timed_ref_s, overhead_s, speed)
        result["spans"] = len(tracer.spans)
        if args.spans_out is not None:
            tracer.write(args.spans_out)
        loop.attempted += traced.attempted
        loop.failed += traced.failed
        loop.problems += traced.problems

    result.update(
        rounds=rounds,
        timed_s=loop.timed_s,
        timed_ref_s=loop.timed_ref_s,
        speed_median=statistics.median(loop.speeds),
        attempted=loop.attempted,
        failed=loop.failed,
        latencies_ms=loop.latencies_ms,
        round_rates=loop.round_rates,
        digest=loop.round_digests[0],
        problems=loop.problems[:20],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
