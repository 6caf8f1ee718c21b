"""The network-wide completion timer: pinned event streams and invariants.

Four small rigs fire a fixed stream of ``(time.hex(), seq, label)``
triples.  Their SHA-256 digests and fired counts below were recorded
with the per-flow completion events the timer replaced; the timer must
reproduce them bit for bit.  Run this module as a script to print the
current values (for re-pinning after a deliberate model change)::

    PYTHONPATH=src python tests/lon/test_completion_timer.py
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon import gbps, mbps
from repro.lon.network import REBALANCE_MODES, Network, NoRouteError
from repro.lon.simtime import EventQueue
from repro.streaming import (
    MultiClientConfig,
    SessionConfig,
    run_multiclient_session,
)

#: modelled decode cost (s/byte): host timing never reaches sim time
_CPU = 2e-9

_CONTENDED = dict(wan_bandwidth=mbps(40.0), wan_latency=0.08,
                  depot_access_bandwidth=mbps(50.0), tcp_window=256 * 1024,
                  block_size=2048, max_streams=8, staging_concurrency=24,
                  staging_streams=12, network_vectorize_threshold=12,
                  prefetch_policy="all-neighbors")

_FLEET = dict(wan_bandwidth=gbps(2.0), wan_latency=0.08,
              depot_access_bandwidth=mbps(400.0), tcp_window=8 * 1024,
              block_size=16 * 1024, staging_concurrency=16,
              staging_streams=4, prefetch_policy="all-neighbors")

#: name -> (clients, accesses, SessionConfig overrides)
RIGS: Dict[str, Tuple[int, int, dict]] = {
    "contended": (3, 8, _CONTENDED),
    "fleet": (12, 5, _FLEET),
    "full": (2, 6, dict(_CONTENDED, network_rebalance="full")),
    "preempt": (3, 8, dict(_CONTENDED, scheduling_policy="strict")),
}

#: name -> (fired events, SHA-256 of the event stream)
GOLDEN: Dict[str, Tuple[int, str]] = {
    "contended": (2072, "177c4470c752e4ca676ccf6bf80d8854"
                        "4d2d6028f5795abb6775acd416ca8ae5"),
    "fleet": (3921, "325a8ea39459482049239e0680f5d17d"
                    "b38fa4a75995e1c6364d33669d5a49cc"),
    "full": (837, "e3040a3cdcabe465cfd15dcd3b2850cc"
                  "ad6572684d918e890ddf329bc46fe3e6"),
    "preempt": (2130, "f931cb2c273ca15d8dc7a9cc5010801f"
                      "9c7c68d42e14514ee39956a5272181fd"),
}


def _stream(name: str, seed: int = 5) -> Tuple[int, str, object]:
    """Fired count, stream digest and the rig of one golden run."""
    n_clients, n_accesses, overrides = RIGS[name]
    base = SessionConfig(case=3, n_accesses=n_accesses, trace_seed=seed,
                         cpu_seconds_per_byte=_CPU, **overrides)
    config = MultiClientConfig(base=base, n_clients=n_clients,
                               seed_stride=101, start_stagger=0.25)
    source = SyntheticSource(CameraLattice(12, 24, 3), resolution=32,
                             seed=2003)
    h = hashlib.sha256()
    box: Dict[str, object] = {}
    count = [0]

    def on_fire(ev) -> None:
        count[0] += 1
        h.update(f"{ev.time.hex()} {ev.seq} {ev.label}\n".encode())

    def hook(rig) -> None:
        box["rig"] = rig
        rig.queue.on_fire = on_fire

    run_multiclient_session(source, config, rig_hook=hook)
    return count[0], h.hexdigest(), box["rig"]


@pytest.mark.parametrize("name", sorted(RIGS))
def test_golden_event_stream(name):
    fired, digest, _ = _stream(name)
    assert (fired, digest) == GOLDEN[name]


# ----------------------------------------------------------------------
# timer invariants under random operation sequences
# ----------------------------------------------------------------------
class CountingQueue(EventQueue):
    """Counts calls of the two methods a probe would wrap."""

    def __init__(self) -> None:
        super().__init__()
        self.scheduled = 0
        self.cancelled = 0

    def schedule(self, *args, **kwargs):
        self.scheduled += 1
        return super().schedule(*args, **kwargs)

    def cancel(self, event):
        if not (event.cancelled or event.fired):
            self.cancelled += 1
        super().cancel(event)


def assert_timer_at_minimum(net: Network) -> None:
    n = len(net._slot_flow)
    eta, aseq = net._eta[:n], net._aseq[:n]
    armed = np.flatnonzero(eta != np.inf)
    for slot in armed:
        assert net._slot_flow[slot] is not None, "armed slot has no flow"
        assert eta[slot] >= net.queue.now, "armed ETA in the past"
    if not len(armed):
        assert net._timer is None
        return
    best = min(armed, key=lambda s: (eta[s], aseq[s]))
    timer = net._timer
    assert timer is not None and not timer.cancelled and not timer.fired
    assert (timer.time, timer.seq) == (eta[best], aseq[best])
    assert timer.label == f"flow:{net._slot_flow[best].label}"


OPS = st.lists(
    st.tuples(
        st.sampled_from(["admit", "admit", "cancel", "pause", "resume",
                         "weight", "link", "advance"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=5, max_size=40,
)


@pytest.mark.parametrize("mode", REBALANCE_MODES)
@given(ops=OPS, window=st.sampled_from([None, 64 * 1024]))
@settings(max_examples=40, deadline=None)
def test_timer_invariants_under_random_ops(mode, ops, window):
    q = CountingQueue()
    net = Network(q, tcp_window=window, rebalance=mode,
                  vectorize_threshold=4)
    leaves = [f"leaf{i}" for i in range(5)]
    for i, leaf in enumerate(leaves):
        net.add_link(leaf, "hub", mbps(5 + 5 * i), 0.001 * (i + 1))
    flows = []
    for op, x in ops:
        live = [f for f in flows if not (f.done or f.failed)]
        if op == "admit":
            a = leaves[x % 5]
            b = leaves[(x % 5 + 1 + (x // 5) % 4) % 5]
            try:
                flows.append(net.transfer(a, b, 20_000 + x % 400_000,
                                          lambda f: None, label=f"f{x}",
                                          weight=1.0 + x % 3))
            except NoRouteError:  # an endpoint's link is down
                pass
        elif op == "advance":
            q.run_until(q.now + (x % 1000) * 1e-4)
        elif live:
            f = live[x % len(live)]
            if op == "cancel":
                net.cancel_flow(f)
            elif op == "pause":
                net.pause_flow(f)
            elif op == "resume":
                net.resume_flow(f)
            elif op == "weight":
                net.set_flow_weight(f, 0.5 + x % 4)
            elif op == "link":
                leaf = leaves[x % 5]
                net.set_link_up(leaf, "hub", not net.link_between(
                    leaf, "hub").up)
        assert_timer_at_minimum(net)
        net.flush()
        assert_timer_at_minimum(net)
    for f in flows:
        if f.paused:
            net.resume_flow(f)
    for leaf in leaves:
        net.set_link_up(leaf, "hub", True)
    q.run()
    assert all(f is None for f in net._slot_flow)
    assert net._timer is None and not net.active_flows
    assert q.scheduled == q.fired_total + q.cancelled + len(q)


if __name__ == "__main__":
    for rig_name in sorted(RIGS):
        n, d, rig = _stream(rig_name)
        s = rig.scheduler.stats
        print(f"    {rig_name!r}: ({n}, {d!r}),  # preempted={s.preempted} "
              f"resumed={s.resumed} promoted={s.promoted} "
              f"vec={rig.network.stats.vectorized}")
