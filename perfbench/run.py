"""Benchmark entry point: one workload, one run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload contended --seed 1 --seconds 15
    python3 perfbench/run.py --workload browse --seed 1 --trace 1
    python3 perfbench/run.py --workload all     # every workload, a table

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same work untraced and traced and reports the
per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``# stamp``, records the host, versions, commit and seed.
The exit code is 0 when every output check passed, 1 when one failed
(the result line is still printed) and 2 when the program under test
cannot be imported (no result line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: end-to-end metrics (tracing off), measured on every workload
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "wait_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: per-layer metrics (``--trace 1``); 0 where a workload skips the layer
PER_LAYER: Dict[str, str] = {
    "simtime.scheduled": "count",
    "simtime.cancelled": "count",
    "simtime.fired": "count",
    "simtime.fired_ratio": "ratio",
    "simtime.compactions": "count",
    "simtime.self_s": "s",
    "network.flush_calls": "count",
    "network.flush_s": "s",
    "network.transfer_s": "s",
    "network.transfers": "count",
    "network.flows_rerated": "count",
    "network.events_rescheduled": "count",
    "network.coalesced": "count",
    "network.vectorized": "count",
    "network.fast_rated": "count",
    "scheduler.submit_calls": "count",
    "scheduler.submit_s": "s",
    "scheduler.batches_flushed": "count",
    "scheduler.scalar_fallbacks": "count",
    "scheduler.deduped": "count",
    "scheduler.promoted": "count",
    "scheduler.cancelled": "count",
    "lors.download_calls": "count",
    "lors.augment_calls": "count",
    "lors.lors_s": "s",
    "lors.failed": "count",
    "ibp.allocates": "count",
    "ibp.stores": "count",
    "ibp.loads": "count",
    "ibp.refusals": "count",
    "ibp.ibp_s": "s",
    "agent.requests": "count",
    "agent.request_s": "s",
    "agent.cache_hit_ratio": "ratio",
    "agent.prefetch_hit_ratio": "ratio",
    "staging.update_cursor_s": "s",
    "staging.staged": "count",
    "staging.bytes_staged": "bytes",
    "client.handle_cursor_s": "s",
    "session.access_latency_p50_s": "sim_s",
    "session.access_latency_p90_s": "sim_s",
    "session.qgr": "ratio",
    "compression.decompress_calls": "count",
    "compression.decompress_s": "s",
    "compression.decompress_mb_per_s": "MB/s",
    "compression.compress_s": "s",
    "compression.ratio": "ratio",
    "synthesis.render_s": "s",
    "synthesis.project_s": "s",
    "synthesis.atlas_views_filled": "count",
    "synthesis.gather_blend_s": "s",
    "synthesis.rays": "count",
    "synthesis.frame_ms_p50": "ms",
    "raycast.render_s": "s",
    "raycast.steps_per_ray": "steps",
    "raycast.prepare_s": "s",
    "trace.overhead_ratio": "ratio",
}

WORKLOAD_NAMES = ("contended", "fleet", "browse", "generate")

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _commit() -> str:
    # only this checkout's own history: never a repository above it
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _stamp(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload in this process and print its result."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    stamp = _stamp(workload, seed, trace)
    measure, traced = workloads.WORKLOADS[workload]
    try:
        out = (traced if trace else measure)(seed, seconds)
    except Exception as exc:  # recorded with the result, never dropped
        out = workloads.Outcome(attempted=1, failed=1)
        out.fail(repr(exc))
        out.notes["exception"] = repr(exc)
    names = PER_LAYER if trace else END_TO_END
    values = dict(out.metrics)
    if not trace:
        values["peak_rss_mb"] = _peak_rss_mb()
    metrics = {}
    for name, unit in names.items():
        v = float(values.get(name, 0.0))
        if not math.isfinite(v):
            out.fail(f"metric {name} is {v}")
            v = 0.0
        metrics[name] = {"value": v, "unit": unit}
    correct = not out.problems and out.attempted > 0
    stamp.update(out.notes)
    if out.trace is not None:
        path = OUT / f"spans-{workload}-{seed}.json"
        out.trace.dump(path, stamp)
        stamp["spans_file"] = str(path.relative_to(ROOT))
    for problem in out.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(out.attempted)),
        "failed": int(out.failed) if out.attempted else 1,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process; prints a metric table."""
    rows: List[str] = []
    status = 0
    combined: Dict[str, Dict[str, object]] = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        combined[name] = result
        status = max(status, done.returncode)
        rows.append(f"{name}: correct={result['correct']} "
                    f"attempted={result['attempted']} "
                    f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            rows.append(f"  {metric:34s} {v['value']:14.6g} {v['unit']}")
    print("\n".join(rows))
    print(json.dumps({
        "correct": all(r["correct"] for r in combined.values()),
        "attempted": sum(int(r["attempted"]) for r in combined.values()),
        "failed": sum(int(r["failed"]) for r in combined.values()),
        "metrics": {f"{w}.{m}": v for w, r in combined.items()
                    for m, v in r["metrics"].items()},
    }))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None and "PYTHONHASHSEED" not in os.environ:
        # string hashing decides dict and set layout; left random it moved
        # simulator throughput by +-9% between identical runs, so fix it
        # (override by setting PYTHONHASHSEED yourself)
        os.environ["PYTHONHASHSEED"] = "0"
        # one thread: a closed loop in one process.  OpenBLAS would
        # otherwise start a spinning pool per core for arrays of a few
        # dozen elements, which on a 2-core host slows the simulator and
        # makes it noisy
        for var in _THREAD_VARS:
            os.environ.setdefault(var, "1")
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under test at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
