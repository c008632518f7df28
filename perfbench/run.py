#!/usr/bin/env python3
"""Benchmark of mmp: end-to-end and per-layer metrics on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {campaign,match,ladder} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; ``setup_s`` is the median over several fresh processes.  With
``--trace 1`` it reports the per-layer metrics of a traced pass (see
``worker.py``).  Every output is checked, outside the timed region.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it a record of the environment, the output digest
and the latency percentiles.  The workers run single-threaded, with
the BLAS and OpenMP pools pinned to one thread.  The run refuses to
start when ``MMP_TOL`` is set, because that changes verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4  # extra fresh processes timed for setup_s
WORKER_TIMEOUT_S = 150
THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

sys.path.insert(0, str(HERE))
from spans import PER_LAYER_UNITS, median, tail  # noqa: E402

def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    versions = {}
    for module in ("numpy", "scipy", "networkx"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(root),
        "pinned": {var: "1" for var in THREAD_POOL_VARS},
    }


def run_worker(args: argparse.Namespace, env: dict, *extra: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=("campaign", "match", "ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "mmp" / "__init__.py").is_file():
        print("perfbench: src/mmp not found; run from the root of an mmp checkout", file=sys.stderr)
        return 2
    if "MMP_TOL" in os.environ:
        print("perfbench: MMP_TOL is set; it changes verdicts, so the run is refused", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("perfbench: --seconds must lie in (0, 60]", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_POOL_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    spans_out = root / ".bench_build" / "perfbench" / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    try:
        if args.trace:
            main_run = run_worker(args, env, "--spans-out", str(spans_out))
            setups = []
        else:
            setups = [run_worker(args, env, "--setup-only") for _ in range(SETUP_PROBES)]
            main_run = run_worker(args, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(main_run)

    latencies = main_run["latencies_ms"]
    tail_ms, tail_pct, samples = tail(latencies)
    if args.trace:
        metrics = {name: (main_run["per_layer"][name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": (median([s["setup_s"] for s in setups]), "s"),
            "instances_per_s": (median(main_run["round_rates"]), "1/s"),
            "peak_rss_mb": (main_run["peak_rss_mb"], "MB"),
            "instance_ms_p50": (median(latencies), "ms"),
            "instance_ms_tail": (tail_ms, "ms"),
        }
    attempted, failed = main_run["attempted"], main_run["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(root),
        "rounds": main_run["rounds"],
        "timed_s": main_run["timed_s"],
        "digest_round0": main_run["digest"],
        "failed_fraction": failed / attempted if attempted else 1.0,
        "problems": main_run["problems"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "wall_clock": {
            "setup_s": median([s["setup_wall_s"] for s in setups]),
            "instances_per_s": attempted / main_run["timed_s"],
            "reference_speed": main_run["speed_median"],
        },
        "instance_ms_tail": {"percentile": tail_pct, "samples": samples},
    }
    if args.trace:
        record["spans"] = main_run["spans"]
        record["trace_missing"] = main_run["trace_missing"]
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
