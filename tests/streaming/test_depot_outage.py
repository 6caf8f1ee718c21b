"""A LAN depot going down mid-session is a replica failure, not a crash.

While ``lan-depot-0``'s link is down, downloads that picked a replica on
it cannot even send their request; the LoRS job must fail over to
another replica, and staging copies onto it must back off until the
next tick.  The session has to finish every access and drain cleanly.
"""

from repro.analysis.determinism import MODELED_CPU_SECONDS_PER_BYTE
from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon.faults import DepotOutage
from repro.streaming import (
    MultiClientConfig,
    SessionConfig,
    run_multiclient_session,
)

N_CLIENTS = 8
N_ACCESSES = 12


def _run(seed=3):
    source = SyntheticSource(CameraLattice(9, 18, 3), resolution=32,
                             seed=2003)
    config = MultiClientConfig(
        base=SessionConfig(case=3, n_accesses=N_ACCESSES, trace_seed=seed,
                           cpu_seconds_per_byte=MODELED_CPU_SECONDS_PER_BYTE),
        n_clients=N_CLIENTS, seed_stride=101, start_stagger=0.25)
    box = {}
    events = []

    def hook(rig):
        box["rig"] = rig
        for start in (1.0, 9.0, 17.0):
            DepotOutage(rig.network, "lan-depot-0", "lan-switch").schedule(
                rig.queue, start, 6.0)
        rig.queue.on_fire = lambda ev: events.append(
            (ev.time.hex(), ev.seq, ev.label))

    result = run_multiclient_session(source, config, rig_hook=hook)
    return result, box["rig"], events


def test_outage_session_completes_and_drains():
    result, rig, _ = _run()
    assert [len(m.accesses) for m in result.per_client] == \
        [N_ACCESSES] * N_CLIENTS
    # the outage really bit: copies onto the downed depot failed
    assert sum(s.stats.failed for s in rig.stagings) > 0
    net = rig.network
    assert net.active_flows == ()
    assert len(rig.scheduler.registry) == 0
    assert all(f is None for f in net._slot_flow)
    assert net._timer is None


def test_outage_session_is_deterministic():
    a, _, events_a = _run()
    b, _, events_b = _run()
    assert events_a == events_b
    assert [[(r.index, r.total_latency.hex()) for r in m.accesses]
            for m in a.per_client] == \
        [[(r.index, r.total_latency.hex()) for r in m.accesses]
         for m in b.per_client]
