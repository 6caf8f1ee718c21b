"""Assemblers: ordered sweep rows -> one ``repro-bench/1`` document.

An assembler is the pure merge step of the sweep engine: it receives the
spec, the deterministic rows (in run order, ``wall_clock`` stripped) and
the parallel list of quarantined wall sections, and returns
``(payload, wall_clock | None)`` for :func:`~repro.experiments.artifacts.
bench_document`.  Assemblers must be pure functions of their inputs —
resume correctness rests on the merged document depending on nothing but
(spec, rows) — and every host-timing-derived number they emit must land in
the returned wall section, never the payload.

Each ``assemble_*`` below reproduces the committed shape of one
``BENCH_*.json`` artifact so downstream consumers (the scale-regression
guard, EXPERIMENTS.md tables, report rendering) keep their keys.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .spec import SweepSpec

__all__ = [
    "assemble_ablations",
    "assemble_generation",
    "assemble_observability",
    "assemble_scale",
    "assemble_scheduling",
    "default_assemble",
    "run_labels",
]

Row = Dict[str, object]
Wall = Optional[Dict[str, object]]
Assembled = Tuple[Dict[str, object], Optional[Dict[str, object]]]


def run_labels(spec: SweepSpec) -> List[str]:
    """Unique human labels in run order (seed-suffixed when seeds > 1)."""
    runs = spec.expand()
    if len(spec.seeds) <= 1:
        return [run.label for run in runs]
    return [f"{run.label}@s{run.params.get('seed')}" for run in runs]


def default_assemble(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Rows as-is under ``rows``; any wall sections keyed by run label."""
    payload: Dict[str, object] = {"benchmark": spec.name, "rows": rows}
    if not any(w is not None for w in walls):
        return payload, None
    labels = run_labels(spec)
    wall: Dict[str, object] = {
        "runs": {
            label: w for label, w in zip(labels, walls) if w is not None
        }
    }
    return payload, wall


# ----------------------------------------------------------------------
# BENCH_generation.json
# ----------------------------------------------------------------------
def assemble_generation(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Kernel + zlib sweep + view-set timing -> the generation artifact."""
    by_stage = {str(row.get("stage")): (row, wall)
                for row, wall in zip(rows, walls)}
    kernel, kernel_wall = by_stage["kernel"]
    payload = {k: v for k, v in kernel.items() if k != "stage"}
    payload["zlib_levels"] = [
        {"level": row["level"], "ratio": row["ratio"]}
        for row, _ in (by_stage[s] for s in ("zlib-1", "zlib-6", "zlib-9"))
    ]
    wall: Dict[str, object] = dict(kernel_wall or {})
    wall["zlib_compress_s"] = {
        str(row["level"]): (w or {}).get("compress_s")
        for row, w in (by_stage[s] for s in ("zlib-1", "zlib-6", "zlib-9"))
    }
    viewset_row, viewset_wall = by_stage["viewset"]
    payload["viewset_generation"] = {
        k: v for k, v in viewset_row.items() if k != "stage"
    }
    for key in ("seconds_per_viewset", "full_db_hours_on_32cpu"):
        if viewset_wall and key in viewset_wall:
            wall[key] = viewset_wall[key]
    return payload, wall


# ----------------------------------------------------------------------
# BENCH_streaming.json
# ----------------------------------------------------------------------
def assemble_scheduling(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Per-arm scheduling rows -> the transfer-scheduling artifact."""
    arms = {
        str(row["arm"]): {k: v for k, v in row.items() if k != "arm"}
        for row in rows
    }
    off = float(arms["staging+off"]["demand_miss_latency_s"])  # type: ignore[arg-type]

    def speedup(arm: str) -> float:
        lat = float(arms[arm]["demand_miss_latency_s"])  # type: ignore[arg-type]
        return round(off / lat, 4) if lat else 0.0

    payload: Dict[str, object] = {
        "benchmark": "transfer_scheduling",
        "metric": "demand_miss_latency_s",
        "resolution": spec.fixed.get("resolution"),
        "arms": arms,
        "speedup_weighted_vs_off": speedup("staging+weighted"),
        "speedup_strict_vs_off": speedup("staging+strict"),
    }
    return payload, None


# ----------------------------------------------------------------------
# BENCH_observability.json
# ----------------------------------------------------------------------
def assemble_observability(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Session + fleet tiers -> the observability artifact.

    The single-session row keeps its historical top-level shape
    (``resolution``/``case``/``accesses``/``spans`` in the payload,
    ``untraced_s``/``traced_s``/``ratio`` in the wall section); the fleet
    tiers land under ``payload["fleet"]["<clients>/<shards>"]`` with their
    wall costs under ``wall_clock["fleet"]`` keyed the same way.
    """
    payload: Dict[str, object] = {"benchmark": "observability_overhead"}
    wall: Dict[str, object] = {}
    fleet_rows: Dict[str, Row] = {}
    fleet_walls: Dict[str, Dict[str, object]] = {}
    for row, w in zip(rows, walls):
        if "n_clients" in row:
            key = f"{row['n_clients']}/{row['n_shards']}"
            fleet_rows[key] = dict(row)
            if w is not None:
                fleet_walls[key] = dict(w)
        else:
            payload.update(row)
            if w is not None:
                wall.update(w)

    def tier(key: str) -> Tuple[int, int]:
        clients, shards = key.split("/")
        return (int(clients), int(shards))

    if fleet_rows:
        payload["fleet"] = {
            k: fleet_rows[k] for k in sorted(fleet_rows, key=tier)
        }
        wall["fleet"] = {
            k: fleet_walls[k] for k in sorted(fleet_walls, key=tier)
        }
    return payload, (wall or None)


# ----------------------------------------------------------------------
# BENCH_scale.json
# ----------------------------------------------------------------------
_CONTENDED_KEYS = ("accesses", "events_fired", "recomputes", "vectorized",
                   "coalesced", "full_recomputes",
                   "admission_batches_flushed",
                   "admission_submissions_coalesced",
                   "admission_scalar_fallbacks")


def assemble_scale(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Three regimes (scaling / contended / sharded) -> the scale curve.

    Reproduces the committed key structure the regression guard reads:
    ``wall_clock.runs["<N>/<arm>"]``, ``wall_clock.sharded["<S>"]`` and the
    ``speedups`` map (full-recompute wall over incremental wall per fleet
    size).
    """
    scaling = [(r, w) for r, w in zip(rows, walls)
               if r.get("regime") == "scaling"]
    contended = [(r, w) for r, w in zip(rows, walls)
                 if r.get("regime") == "contended"]
    sharded = [(r, w) for r, w in zip(rows, walls)
               if r.get("regime") == "sharded"]
    cross = [(r, w) for r, w in zip(rows, walls)
             if r.get("regime") == "cross_shard"]

    client_counts = sorted({int(r["n_clients"]) for r, _ in scaling})  # type: ignore[arg-type]
    n_max = client_counts[-1] if client_counts else 0
    payload: Dict[str, object] = {
        "benchmark": "multiclient_scaling",
        "case": 3,
        "client_counts": client_counts,
        "runs": [{k: v for k, v in r.items() if k != "regime"}
                 for r, _ in scaling],
    }
    wall_runs: Dict[str, object] = {}
    wall_by_key: Dict[Tuple[int, str], Dict[str, object]] = {}
    for r, w in scaling:
        key = (int(r["n_clients"]), str(r["rebalance"]))  # type: ignore[arg-type]
        wall_by_key[key] = dict(w or {})
        wall_runs[f"{key[0]}/{key[1]}"] = wall_by_key[key]
    speedups: Dict[str, float] = {}
    for n in client_counts:
        full = float(wall_by_key.get((n, "full"), {}).get("wall_s", 0.0))  # type: ignore[arg-type]
        inc = float(wall_by_key.get((n, "incremental"), {}).get("wall_s", 0.0))  # type: ignore[arg-type]
        speedups[str(n)] = round(full / inc, 2) if inc else 1.0

    def _contended_key(r: Row) -> str:
        # the full-recompute rows carry the admission A/B; incremental
        # keeps its historical single-arm key
        if str(r["rebalance"]) == "full":
            return f"full/{r.get('admission', 'on')}"
        return str(r["rebalance"])

    contended_walls: Dict[str, Dict[str, object]] = {}
    if contended:
        payload["contended"] = {
            "n_clients": contended[0][0]["n_clients"],
            "runs": {
                _contended_key(r): {
                    k: r[k] for k in _CONTENDED_KEYS if k in r
                }
                for r, _ in contended
            },
        }
        contended_walls = {
            _contended_key(r): dict(w or {}) for r, w in contended
        }

    wall: Dict[str, object] = {
        "runs": wall_runs,
        "speedups": speedups,
        "speedup_at_max": speedups.get(str(n_max), 1.0),
    }
    if contended_walls:
        wall["contended"] = contended_walls
        on = float(contended_walls.get("full/on", {}).get("wall_s", 0.0))  # type: ignore[union-attr]
        off = float(contended_walls.get("full/off", {}).get("wall_s", 0.0))  # type: ignore[union-attr]
        wall["admission_speedup"] = round(off / on, 2) if on else 1.0
    if sharded:
        payload["sharded"] = {
            "n_clients": sharded[0][0]["n_clients"],
            "shard_counts": [r["n_shards"] for r, _ in sharded],
            "events_fired": {str(r["n_shards"]): r["events_fired"]
                             for r, _ in sharded},
            "accesses": {str(r["n_shards"]): r["accesses"]
                         for r, _ in sharded},
        }
        wall["sharded"] = {str(r["n_shards"]): dict(w or {})
                           for r, w in sharded}
    if cross:
        payload["cross_shard"] = {
            "n_clients": cross[0][0]["n_clients"],
            "n_shards": cross[0][0]["n_shards"],
            "fractions": [r["cross_fraction"] for r, _ in cross],
            "runs": {
                str(r["cross_fraction"]): {
                    k: r[k] for k in (
                        "events_fired", "accesses",
                        "admission_batches_flushed",
                        "admission_submissions_coalesced",
                        "boundary_windows", "boundary_staleness_bound",
                        "boundary_max_oversubscription",
                    ) if k in r
                }
                for r, _ in cross
            },
        }
        wall["cross_shard"] = {str(r["cross_fraction"]): dict(w or {})
                              for r, w in cross}
    return payload, wall


# ----------------------------------------------------------------------
# BENCH_ablations.json
# ----------------------------------------------------------------------
def assemble_ablations(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Six ablation families -> one grouped artifact (codec walls kept)."""
    families: Dict[str, List[Row]] = {}
    codec_walls: Dict[str, object] = {}
    for row, w in zip(rows, walls):
        family = str(row.get("family"))
        families.setdefault(family, []).append(
            {k: v for k, v in row.items() if k != "family"}
        )
        if w is not None and family == "codec":
            codec_walls[str(row["codec"])] = w
    payload: Dict[str, object] = {
        "benchmark": "ablations",
        "families": families,
    }
    wall = {"codec": codec_walls} if codec_walls else None
    return payload, wall
