"""Unit tests for trigger coalescing and the array flush.

The scaling benchmark drives these paths at fleet size; this module pins
the accounting down at the smallest scale that can exercise it, so a
regression shows up as a named assertion instead of a dead counter in
``BENCH_scale.json``.
"""

from repro.lon.network import Network, mbps
from repro.lon.simtime import EventQueue


def star(queue, n_leaves=4, bandwidth=mbps(10), **kw):
    net = Network(queue, **kw)
    for i in range(n_leaves):
        net.add_link(f"leaf{i}", "hub", bandwidth, 0.001)
    return net


class TestCoalescing:
    def test_same_instant_triggers_coalesce_into_one_flush(self):
        """Two transfers started at one timestamp arm a single flush event;
        the second trigger is absorbed and counted, and the flush itself
        recomputes the component exactly once."""
        q = EventQueue()
        net = star(q)
        assert net.stats.coalesced == 0
        net.transfer("leaf0", "leaf1", 500_000, lambda f: None)
        net.transfer("leaf2", "leaf1", 500_000, lambda f: None)
        # second _poke at the same instant was absorbed into the pending
        # flush instead of arming another event
        assert net.stats.coalesced == 1
        before = net.stats.recomputes
        net.flush()
        assert net.stats.recomputes == before + 1
        # the armed event is now a no-op; draining the queue must not
        # recompute again for this instant
        q.run_until(q.now)
        assert net.stats.recomputes == before + 1

    def test_triggers_at_distinct_instants_do_not_coalesce(self):
        q = EventQueue()
        net = star(q)
        net.transfer("leaf0", "leaf1", 500_000, lambda f: None)
        q.run_until(q.now + 0.01)  # flush fires, time advances
        net.transfer("leaf2", "leaf1", 500_000, lambda f: None)
        assert net.stats.coalesced == 0
        q.run()

    def test_full_mode_never_coalesces(self):
        q = EventQueue()
        net = star(q, rebalance="full")
        net.transfer("leaf0", "leaf1", 500_000, lambda f: None)
        net.transfer("leaf2", "leaf1", 500_000, lambda f: None)
        assert net.stats.coalesced == 0
        assert net.stats.full_recomputes == 2
        q.run()


class TestArrayFlush:
    """The one incremental flush: settle, re-rate and re-arm a component
    as array operations, completing flows through the one timer."""

    #: completion times and stats of the rig below, recorded when every
    #: flow still owned its own completion event in the queue
    PINNED_FINISH = [
        "0x1.483126e978d50p+0", "0x1.89ba5e353f7cfp+0",
        "0x1.cb4395810624ep+0", "0x1.dba5e353f7cedp+0",
        "0x1.0e978d4fdf3b6p+1", "0x1.1ef9db22d0e56p+1",
        "0x1.2f5c28f5c28f5p+1", "0x1.378d4fdf3b645p+1",
        "0x1.3fbe76c8b4395p+1", "0x1.5851eb851eb85p+1",
        "0x1.6083126e978d4p+1", "0x1.7916872b020c4p+1",
    ]
    PINNED_STATS = {"recomputes": 10, "coalesced": 11, "vectorized": 1,
                    "flows_rerated": 30, "events_rescheduled": 30,
                    "component_flows": 30}

    def _contended(self, run=True):
        """Saturated hub: every flush really re-rates the component."""
        q = EventQueue()
        net = star(q, n_leaves=6, bandwidth=mbps(5),
                   vectorize_threshold=4)
        done = []
        for i in range(12):
            net.transfer(f"leaf{i % 3}", f"leaf{3 + i % 3}",
                         200_000 + 40_000 * i,
                         lambda f: done.append(f.finish_time))
        if run:
            q.run()
        return net, done

    def test_flush_rerates_whole_component(self):
        net, done = self._contended(run=False)
        net.flush()
        assert net.stats.recomputes == 1
        # the one flush saw the whole coalesced flow set and armed it all
        assert net.stats.component_flows == 12
        assert net.stats.events_rescheduled == 12

    def test_one_timer_event_for_all_armed_flows(self):
        net, _ = self._contended(run=False)
        net.flush()
        # twelve armed flows, one live queue event: the timer
        assert len(net.queue) == 1
        assert net._timer is not None
        assert net._timer.label.startswith("flow:")

    def test_completions_match_per_flow_events(self):
        _, done = self._contended()
        assert [t.hex() for t in done] == self.PINNED_FINISH

    def test_stats_match_per_flow_events(self):
        """Same triggers, same epsilon gating, same water-fill dispatch
        and the same number of armings as per-flow completion events."""
        net, _ = self._contended()
        for name, value in self.PINNED_STATS.items():
            assert getattr(net.stats, name) == value, name
        assert net.queue.fired_total == 37


class TestFullModeAdmissionPlan:
    """Full rebalance has no quiet fast path — every scalar transfer pays
    a synchronous ``_rebalance_full``.  An admission plan defers those
    into one ``finish()`` flush; same-timestamp full recomputes are
    idempotent on settle/max-min state, so completions stay bit-equal."""

    ITEMS = [("leaf0", "leaf3", 300_000), ("leaf1", "leaf4", 500_000),
             ("leaf2", "leaf5", 250_000), ("leaf0", "leaf4", 400_000)]

    def _run(self, batched):
        q = EventQueue()
        net = star(q, n_leaves=6, bandwidth=mbps(5), rebalance="full")
        done = []
        if batched:
            plan = net.admission_plan(self.ITEMS)
            assert plan.vector_ok
            for j in range(len(self.ITEMS)):
                plan.admit(j, lambda f: done.append(f.finish_time),
                           None, f"x{j}", 1.0)
            plan.finish()
        else:
            for j, (src, dst, size) in enumerate(self.ITEMS):
                net.transfer(src, dst, size,
                             lambda f: done.append(f.finish_time),
                             label=f"x{j}")
        q.run()
        return net, done

    def test_completions_bit_equal_to_scalar(self):
        _, scalar = self._run(batched=False)
        _, batched = self._run(batched=True)
        assert [t.hex() for t in scalar] == [t.hex() for t in batched]

    def test_one_flush_replaces_per_item_recomputes(self):
        s_net, _ = self._run(batched=False)
        b_net, _ = self._run(batched=True)
        # scalar: one synchronous recompute per admit; batched: one for
        # the whole plan (completion-time recomputes are identical)
        saved = len(self.ITEMS) - 1
        assert s_net.stats.full_recomputes - b_net.stats.full_recomputes \
            == saved
        assert b_net.stats.coalesced == saved

    def test_degraded_plan_reverts_to_scalar_pokes(self):
        q = EventQueue()
        net = star(q, n_leaves=6, bandwidth=mbps(5), rebalance="full")
        done = []
        plan = net.admission_plan(self.ITEMS)
        plan.admit(0, lambda f: done.append(f.finish_time), None, "x0", 1.0)
        plan.skip()  # a mid-batch divergence degrades the plan...
        for j in range(1, len(self.ITEMS)):
            plan.admit(j, lambda f: done.append(f.finish_time),
                       None, f"x{j}", 1.0)
        plan.finish()
        q.run()
        # ...so later admits poke immediately and nothing stays deferred
        _, scalar = self._run(batched=False)
        assert [t.hex() for t in done] == [t.hex() for t in scalar]


