"""CLI for the simulation-correctness analysis suite.

Usage::

    python -m repro.analysis lint src [tests ...] [--rule SIM001 ...]
    python -m repro.analysis determinism [--clients N] [--runs N] ...
    python -m repro.analysis races [--shards N] [--workers N] ...

``lint`` exits 0 when clean, 1 on findings, 2 on usage errors;
``determinism`` exits 0 when every scenario is bit-reproducible, 1 when any
run diverges (printing the first divergent event); ``races`` exits 0 when
the monitored boundary-exchange run is race-free (and, with ``--runs`` >
1, the access-log digests match), 1 on the first conflicting pair.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import lint
from .determinism import (
    check_determinism,
    compare_fingerprints,
    multiclient_fingerprint,
    session_fingerprint,
    sharded_fingerprint,
)


def _determinism_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis determinism",
        description="run seeded sessions twice and compare fingerprints",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--resolution", type=int, default=32)
    parser.add_argument("--runs", type=int, default=2,
                        help="repetitions per scenario (default 2)")
    parser.add_argument("--clients", type=int, default=8,
                        help="rig size for the multi-client scenario "
                             "(0 skips it)")
    parser.add_argument("--accesses", type=int, default=16,
                        help="cursor accesses for the single-client run")
    parser.add_argument("--skip-single", action="store_true",
                        help="skip the single-client scenario")
    parser.add_argument("--shards", type=int, default=2,
                        help="shard count for the sharded-vs-single-process "
                             "equivalence check (0 skips it)")
    args = parser.parse_args(argv)

    reports = []
    if not args.skip_single:
        reports.append(check_determinism(
            lambda: session_fingerprint(
                seed=args.seed,
                resolution=args.resolution,
                n_accesses=args.accesses,
            ),
            runs=args.runs,
        ))
    if args.clients > 0:
        reports.append(check_determinism(
            lambda: multiclient_fingerprint(
                seed=args.seed,
                n_clients=args.clients,
                resolution=args.resolution,
            ),
            runs=args.runs,
        ))
        if args.shards > 0:
            # parallel-execution equivalence: worker processes must merge
            # to the stream the sequential shard loop produces
            reports.append(compare_fingerprints(
                sharded_fingerprint(
                    seed=args.seed,
                    n_clients=args.clients,
                    n_shards=args.shards,
                    workers=1,
                    resolution=args.resolution,
                ),
                sharded_fingerprint(
                    seed=args.seed,
                    n_clients=args.clients,
                    n_shards=args.shards,
                    workers=args.shards,
                    resolution=args.resolution,
                ),
            ))
    if not reports:
        print("nothing to check (single skipped, --clients 0)")
        return 2
    failed = False
    for report in reports:
        print(report.render())
        failed = failed or not report.ok
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command == "lint":
        return lint.main(rest)
    if command == "determinism":
        return _determinism_main(rest)
    if command == "races":
        from .races import main as races_main

        return races_main(rest)
    print(f"unknown command {command!r}; expected 'lint', 'determinism' "
          "or 'races'",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
