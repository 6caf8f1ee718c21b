"""Tests for the sharded parallel simulation layer (``repro.lon.shard``).

Three obligations, in increasing strength:

1. the partition is a proper ordered cover of the fleet;
2. a sharded run is a *re-execution*, not an approximation: shard 0 of a
   1-shard run reproduces the plain multi-client session exactly, and the
   merged per-client order equals global client order;
3. worker processes change nothing: ``workers=N`` produces the same event
   and transfer fingerprints as the sequential reference
   (``compare_fingerprints`` on ``sharded_fingerprint``).

Everything here uses modeled decompression cost — measured wall time fed
into sim time is the one thing that *would* legitimately differ across
processes.
"""

import os

import pytest

from repro.analysis.determinism import (
    MODELED_CPU_SECONDS_PER_BYTE,
    compare_fingerprints,
    sharded_fingerprint,
)
from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon.shard import (
    partition_clients,
    run_shard,
    run_sharded_session,
)
from repro.streaming import (
    MultiClientConfig,
    SessionConfig,
    run_multiclient_session,
)


class TestPartition:
    def test_even_split(self):
        assert partition_clients(8, 4) == [(0, 2), (2, 2), (4, 2), (6, 2)]

    def test_remainder_goes_to_leading_shards(self):
        assert partition_clients(10, 4) == [(0, 3), (3, 3), (6, 2), (8, 2)]

    def test_more_shards_than_clients_drops_empty_tail(self):
        assert partition_clients(3, 8) == [(0, 1), (1, 1), (2, 1)]

    def test_single_shard_is_identity(self):
        assert partition_clients(7, 1) == [(0, 7)]

    def test_blocks_cover_fleet_contiguously(self):
        for n, s in [(1, 1), (5, 2), (64, 8), (13, 5), (100, 7)]:
            blocks = partition_clients(n, s)
            covered = [g for start, count in blocks
                       for g in range(start, start + count)]
            assert covered == list(range(n))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            partition_clients(0, 2)
        with pytest.raises(ValueError):
            partition_clients(4, 0)


def _source():
    return SyntheticSource(CameraLattice(n_theta=9, n_phi=18, l=3),
                           resolution=32)


def _config(n_clients, **base_kw):
    base_kw.setdefault("cpu_seconds_per_byte", MODELED_CPU_SECONDS_PER_BYTE)
    return MultiClientConfig(
        base=SessionConfig(case=3, n_accesses=6, trace_seed=11, **base_kw),
        n_clients=n_clients,
        seed_stride=101,
        start_stagger=0.25,
    )


class TestShardExecution:
    def test_single_shard_reproduces_plain_session(self):
        """shards=1 is the plain multi-client run executed through the
        windowed loop: same per-client summaries, same event count."""
        source = _source()
        config = _config(4)
        plain = run_multiclient_session(source, config)
        sharded = run_sharded_session(source, config, n_shards=1, workers=1)
        assert [m.summary() for m in sharded.per_client] == \
               [m.summary() for m in plain.per_client]
        assert sharded.events_fired == plain.events_fired

    def test_merge_preserves_global_client_order(self):
        source = _source()
        sharded = run_sharded_session(source, _config(6), n_shards=3,
                                      workers=1)
        names = [m.case_name for m in sharded.per_client]
        assert names == [f"case3-client{g}" for g in range(6)]
        assert [s.n_clients for s in sharded.shards] == [2, 2, 2]
        assert [s.client_index_base for s in sharded.shards] == [0, 2, 4]

    def test_aggregate_sums_and_makespan(self):
        source = _source()
        sharded = run_sharded_session(source, _config(4), n_shards=2,
                                      workers=1)
        agg = sharded.aggregate()
        assert agg["n_clients"] == 4
        assert agg["n_shards"] == 2
        assert agg["accesses"] == sum(
            len(m.accesses) for m in sharded.per_client)
        assert agg["events_fired"] == sum(
            s.events_fired for s in sharded.shards)
        # sequential shards run one after another: the elapsed loop time
        # is their sum, and one process cannot burn more CPU than that
        assert sharded.wall_seconds == pytest.approx(sum(
            s.wall_seconds for s in sharded.shards))
        assert 0.0 < sharded.cpu_seconds <= (
            sharded.wall_seconds * (os.cpu_count() or 1) + 0.05)
        assert agg["cpu_count"] == os.cpu_count()

    def test_run_shard_matches_session_slice(self):
        """A single shard over clients [2, 4) equals the corresponding
        block of a client_index_base-shifted plain run."""
        source = _source()
        config = _config(4)
        shifted = run_multiclient_session(
            source, MultiClientConfig(
                base=config.base, n_clients=2,
                seed_stride=config.seed_stride,
                start_stagger=config.start_stagger,
                client_index_base=2,
            ))
        shard = run_shard(source, MultiClientConfig(
            base=config.base, n_clients=2,
            seed_stride=config.seed_stride,
            start_stagger=config.start_stagger,
            client_index_base=2,
        ), shard_id=1)
        assert [m.summary() for m in shard.per_client] == \
               [m.summary() for m in shifted.per_client]

    def test_stream_collection_is_optional(self):
        source = _source()
        without = run_sharded_session(source, _config(2), n_shards=2,
                                      workers=1)
        with pytest.raises(ValueError):
            without.merged_events()
        collected = run_sharded_session(source, _config(2), n_shards=2,
                                        workers=1, collect_streams=True)
        events = collected.merged_events()
        assert events and all(len(rec) == 3 for rec in events)


class TestWorkerEquivalence:
    def test_workers_bit_equal_to_sequential(self):
        """The whole point: worker processes + windowed barrier sync fire
        the same events at the same times as the sequential loop."""
        report = compare_fingerprints(
            sharded_fingerprint(seed=11, n_clients=4, n_shards=2,
                                workers=1, resolution=32, n_accesses=6),
            sharded_fingerprint(seed=11, n_clients=4, n_shards=2,
                                workers=2, resolution=32, n_accesses=6),
        )
        assert report.ok, report.render()

    def test_sharded_rebalance_modes_agree(self):
        """Under full rebalance too (the default mode is covered above),
        worker processes merge to the sequential stream."""
        report = compare_fingerprints(
            sharded_fingerprint(seed=11, n_clients=4, n_shards=2,
                                workers=1, resolution=32, n_accesses=6,
                                rebalance="full"),
            sharded_fingerprint(seed=11, n_clients=4, n_shards=2,
                                workers=2, resolution=32, n_accesses=6,
                                rebalance="full"),
        )
        assert report.ok, report.render()
