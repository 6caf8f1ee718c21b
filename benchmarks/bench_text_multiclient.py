"""Simulation-core scaling benchmark: N clients, two rebalancers, shards.

The multi-client harness is where the O(flows × links) full recompute stops
being affordable: every flow arrival/departure/pause re-rates *every* flow
and reschedules *every* completion event, so session cost grows
quadratically with client count.  The incremental rebalancer bounds each
trigger to the affected link/flow component, coalesces same-instant
triggers, epsilon-gates event rescheduling, vectorizes large water-filling
passes — and, in the window-capped steady state this workload lives in,
skips the flush entirely (``fast_rated``).

The three regimes — **scaling** (fleet-size ladder × two arms),
**contended** (a thin 40 Mb/s WAN with big windows, lighting up the
flush/coalesce/vectorize machinery) and **sharded** (the fleet partitioned
into independent depot groups) — are declared as points of the builtin
``scale`` sweep spec; this file executes that spec through the sweep
engine (sequentially, so the quarantined per-run wall clocks stay honest)
and asserts on the merged ``BENCH_scale.json``:

* the arms are *equivalent*: same per-client access counts (allocation
  equality to 1e-9 is covered by ``tests/lon/test_network_properties.py``,
  bit-equality of event streams by the determinism suite);
* incremental is never slower than full recompute, and at the largest N
  of a full-scale run it is >= 3x faster;
* the contended regime exercises the vectorized and coalesced flush
  paths (both counters > 0);
* the sharded curve is a measured run: its makespan is the elapsed time
  of the (sequential) shard loops and its CPU time never exceeds that.

Deterministic counters live in the payload; host timings live under
``wall_clock`` (CI guards the throughput keys against >25% regressions).

Run ``python benchmarks/bench_text_multiclient.py --profile`` for a
cProfile breakdown (top cumulative functions) of the largest
single-process run.
"""

import os

from repro.experiments import run_sweep, spec_named

_SMALL = os.environ.get("REPRO_SCALE", "default") == "small"


def test_multiclient_scaling(report):
    result = run_sweep(spec_named("scale"), workers=1)
    doc = result.doc
    wall = doc["wall_clock"]
    print(f"wrote {result.artifact_path}")

    scaling = [r for r in result.rows if r["regime"] == "scaling"]
    contended = {
        (f"full/{r['admission']}" if r["rebalance"] == "full"
         else r["rebalance"]): r
        for r in result.rows if r["regime"] == "contended"
    }
    sharded = [r for r in result.rows if r["regime"] == "sharded"]
    cross = {str(r["cross_fraction"]): r for r in result.rows
             if r["regime"] == "cross_shard"}
    client_counts = doc["client_counts"]
    arms = ("incremental", "full")
    n_max = client_counts[-1]
    by_key = {(r["n_clients"], r["rebalance"]): r for r in scaling}
    wall_runs = wall["runs"]

    # --- report ----------------------------------------------------------
    lines = [
        f"Multi-client scaling (case 3, {'small' if _SMALL else 'full'} "
        f"scale, {len(client_counts)} fleet sizes x {len(arms)} rebalance "
        "arms)",
        f"{'N':>4} {'arm':<12} {'wall s':>9} {'events':>9} "
        f"{'events/s':>10} {'speedup':>8}",
    ]
    for n in client_counts:
        for arm in arms:
            r = by_key[(n, arm)]
            w = wall_runs[f"{n}/{arm}"]
            speedup = (wall["speedups"][str(n)] if arm == "incremental"
                       else 1.0)
            lines.append(
                f"{n:>4} {arm:<12} {w['wall_s']:>9.4f} "
                f"{r['events_fired']:>9} "
                f"{w['events_per_second']:>10.0f} "
                f"{speedup:>7.2f}x"
            )
    lines.append("")
    lines.append(f"Contended regime ({doc['contended']['n_clients']} "
                 "clients, 40 Mb/s WAN, 256 KiB windows, 2 KiB blocks):")
    contended_runs = doc["contended"]["runs"]
    contended_walls = wall["contended"]
    for key, st in contended_runs.items():
        w = contended_walls[key]
        lines.append(
            f"  {key:<12} wall={w['wall_s']:.4f}s "
            f"ev/s={w['events_per_second']:.0f} "
            f"recomputes={st['recomputes']} "
            f"full={st['full_recomputes']} "
            f"vectorized={st['vectorized']} coalesced={st['coalesced']} "
            f"adm_batches={st['admission_batches_flushed']} "
            f"adm_coalesced={st['admission_submissions_coalesced']} "
            f"adm_scalar={st['admission_scalar_fallbacks']}"
        )
    lines.append(f"  admission batching speedup (full/off -> full/on): "
                 f"{wall['admission_speedup']:.2f}x")
    lines.append("")
    if "cross_shard" in doc:
        xs = doc["cross_shard"]
        lines.append(
            f"Cross-shard traffic ({xs['n_clients']} clients, "
            f"{xs['n_shards']} shards, backbone boundary link):")
        lines.append(f"{'frac':>6} {'events':>9} {'events/s':>10} "
                     f"{'windows':>8} {'oversub':>8}")
        for frac in map(str, xs["fractions"]):
            r = xs["runs"][frac]
            w = wall["cross_shard"][frac]
            lines.append(
                f"{frac:>6} {r['events_fired']:>9} "
                f"{w['events_per_second']:>10.0f} "
                f"{r.get('boundary_windows', 0):>8} "
                f"{r.get('boundary_max_oversubscription', 0.0):>8.3f}"
            )
        lines.append("")
    lines.append(f"Sharded fleet ({n_max} clients, incremental arm, "
                 "sequential workers):")
    lines.append(f"{'S':>4} {'events':>9} {'makespan s':>11} {'cpu s':>8} "
                 f"{'events/s':>10} {'ev/s-core':>10}")
    for row in sharded:
        w = wall["sharded"][str(row["n_shards"])]
        lines.append(
            f"{row['n_shards']:>4} {row['events_fired']:>9} "
            f"{w['makespan_s']:>11.4f} {w['cpu_s']:>8.3f} "
            f"{w['events_per_second']:>10.0f} "
            f"{w['events_per_core_second']:>10.0f}"
        )
    report("multiclient_scaling", "\n".join(lines))

    # --- assertions -------------------------------------------------------
    for n in client_counts:
        inc = by_key[(n, "incremental")]
        full = by_key[(n, "full")]
        # equivalence: both arms deliver every access for every client
        assert inc["accesses"] == full["accesses"]
        assert inc["per_client_accesses"] == full["per_client_accesses"]
        # the incremental arm actually ran incrementally: no whole-network
        # recomputes, every trigger either flushed a dirty component or was
        # absorbed outright by the quiet-link fast path
        assert inc["full_recomputes"] == 0
        assert inc["recomputes"] + inc["fast_rated"] > 0
        assert full["recomputes"] == 0
        assert full["full_recomputes"] > 0

    # contended regime proves the optimized paths are live, not dead code
    st = contended["incremental"]
    assert st["vectorized"] > 0, "vectorized water-fill is dead"
    assert st["coalesced"] > 0, "trigger coalescing is dead"
    # the admission plan formed real batches (the vectorized submission
    # path is live in the contended regime)
    assert st["admission_batches_flushed"] > 0, "admission batching is dead"
    assert st["admission_submissions_coalesced"] > 0

    # admission batching A/B under the full recompute: same deliveries,
    # same event stream size, and the off arm really ran scalar
    adm_on, adm_off = contended["full/on"], contended["full/off"]
    assert adm_on["accesses"] == adm_off["accesses"]
    assert adm_on["events_fired"] == adm_off["events_fired"]
    assert adm_on["per_client_accesses"] == adm_off["per_client_accesses"]
    assert adm_on["admission_batches_flushed"] > 0
    assert adm_off["admission_batches_flushed"] == 0
    assert adm_off["admission_scalar_fallbacks"] > 0
    # coalescing the per-submission recomputes is the measured win
    assert adm_on["full_recomputes"] < adm_off["full_recomputes"]
    min_speedup = 1.2 if _SMALL else 1.3
    assert wall["admission_speedup"] >= min_speedup, (
        f"admission batching speedup {wall['admission_speedup']:.2f}x "
        f"< {min_speedup}x in the contended full-recompute regime")

    # cross-shard axis: every fraction still delivers the whole workload;
    # crossing fractions exchanged boundary loads at the barrier
    if cross:
        for frac, row in cross.items():
            assert row["accesses"] == by_key[(n_max, "incremental")][
                "accesses"]
            if float(frac) > 0.0:
                assert row.get("boundary_windows", 0) > 0, (
                    f"{frac}: boundary exchange never ran")
                assert row["boundary_staleness_bound"] > 0.0
            else:
                assert "boundary_windows" not in row

    # sharding preserves the workload (every access delivered), and the
    # sequential shard loops are measured, not modelled: the CPU time
    # cannot exceed the elapsed time of the loops on every core
    for row in sharded:
        assert row["accesses"] == by_key[(n_max, "incremental")]["accesses"]
        w = wall["sharded"][str(row["n_shards"])]
        assert w["cpu_s"] <= w["makespan_s"] * (os.cpu_count() or 1), w

    # perf: incremental must never lose to the full recompute (10% + 50 ms
    # noise allowance at the tiny end where both are sub-second)
    for n in client_counts:
        full_wall = wall_runs[f"{n}/full"]["wall_s"]
        w = wall_runs[f"{n}/incremental"]["wall_s"]
        assert w <= full_wall * 1.10 + 0.05, (
            f"incremental slower than full at N={n}: "
            f"{w:.4f}s vs {full_wall:.4f}s"
        )
    if not _SMALL:
        assert wall["speedup_at_max"] >= 3.0, (
            f"incremental speedup at N={n_max} is "
            f"{wall['speedup_at_max']:.2f}x, expected >= 3x"
        )


def _profile_main(argv=None):
    """``--profile``: cProfile the largest single-process scaling run."""
    import argparse
    import cProfile
    import pstats

    from repro.experiments.scenarios import _scale_config, _scale_source
    from repro.streaming import run_multiclient_session

    counts = [1, 4, 8] if _SMALL else [1, 8, 32, 64]
    parser = argparse.ArgumentParser(
        description="profile the multi-client scaling workload")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print hot functions")
    parser.add_argument("--top", type=int, default=25,
                        help="rows of the cumulative-time table to print")
    parser.add_argument("--clients", type=int, default=counts[-1])
    parser.add_argument("--rebalance", default="incremental",
                        choices=["incremental", "full"])
    parser.add_argument("--regime", default="scaling",
                        choices=["scaling", "contended"])
    parser.add_argument("--admission", default="on", choices=["on", "off"],
                        help="vectorized admission batching arm")
    args = parser.parse_args(argv)
    if not args.profile:
        parser.error("this entry point only supports --profile; "
                     "run the benchmark itself via pytest")

    source = _scale_source()
    config = _scale_config(args.regime, args.clients, args.rebalance,
                           seed=7, admission=args.admission)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_multiclient_session(source, config)
    profiler.disable()
    adm = result.admission
    print(f"{args.clients} clients / {args.regime} / {args.rebalance} / "
          f"admission={args.admission}: "
          f"{result.events_fired} events in {result.wall_seconds:.3f}s "
          f"({result.events_per_second:.0f} events/s)")
    print(f"admission: batches_flushed={adm['batches_flushed']} "
          f"submissions_coalesced={adm['submissions_coalesced']} "
          f"scalar_fallbacks={adm['scalar_fallbacks']}\n")
    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(_profile_main())
