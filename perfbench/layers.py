"""Per-layer attribution for the traced benchmark run.

The traced run never edits the program: it replaces methods on the
*instances* one run builds (through ``run_multiclient_session``'s
``rig_hook`` for the simulator, or on the objects the benchmark itself
constructs for the client and generator workloads) with wrappers that
record a span per call.  :meth:`LayerTrace.remove` puts every original
back, so a traced object behaves exactly like an untraced one afterwards.

A span is ``(name, start, end, parent)`` in host seconds; ``parent`` is
the index of the enclosing span or -1.  A layer's self time is the sum of
its spans' durations minus the time covered by their child spans, so the
self times of all layers add up to the time of the outermost spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int]

_MISSING = object()


class LayerTrace:
    """In-memory span recorder plus the instance wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self._stack: List[List[float]] = []  # [span index, start, child s]
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so each call records one span called ``name``."""
        spans, stack = self.spans, self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = int(stack[-1][0]) if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                spans[index] = (name, frame[1], end, parent)
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def counted(self, name: str, fn: Callable[..., Any],
                when: Optional[Callable[..., bool]] = None
                ) -> Callable[..., Any]:
        """``fn`` wrapped to count calls (those ``when`` accepts) only.

        For calls too frequent to span one by one (event-heap pushes and
        cancellations): their time stays in the calling layer's self time.
        """
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if when is None or when(*args, **kwargs):
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    def install(self, obj: object, attr: str,
                wrapper: Callable[..., Any]) -> None:
        """Shadow ``obj.attr`` with ``wrapper`` on this instance only."""
        self._undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, wrapper)

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Record a span named ``name`` around every ``obj.attr(...)``."""
        self.install(obj, attr, self.timed(name, getattr(obj, attr)))

    def count(self, obj: object, attr: str, name: str,
              when: Optional[Callable[..., bool]] = None) -> None:
        """Count calls of ``obj.attr(...)`` under ``name``."""
        self.install(obj, attr, self.counted(name, getattr(obj, attr), when))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            obj, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)

    @property
    def installed(self) -> int:
        """Number of wrappers currently in place."""
        return len(self._undo)

    # ------------------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        """Self time of every span whose name starts with ``layer.``."""
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def root_s(self) -> float:
        """Summed duration of the outermost spans."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def dump(self, path: Path, meta: Dict[str, object]) -> None:
        """Write the spans (and ``meta``) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "fields": ["name", "start", "end", "parent"],
               "spans": self.spans}
        path.write_text(json.dumps(doc))


# ----------------------------------------------------------------------
# the simulator rig
# ----------------------------------------------------------------------
class RigProbe:
    """Wrappers on one multi-client rig's layers (see :func:`attach_rig`)."""

    def __init__(self, trace: LayerTrace, rig: Any) -> None:
        self.trace = trace
        self.rig = rig
        queue = rig.queue
        self.pending0 = len(queue)
        self.fired0 = queue.fired_total
        self.compactions0 = queue.compactions
        net = rig.network.stats
        self.net0 = {k: getattr(net, k) for k in _NET_FIELDS}
        sched = rig.scheduler
        self.sched0 = {
            "batches_flushed": sched.stats.batches_flushed,
            "scalar_fallbacks": sched.stats.scalar_fallbacks,
            "cancelled": sched.stats.cancelled,
            "deduped": sched.registry.stats.deduped,
            "promoted": sched.registry.stats.promoted,
        }
        self.depots0 = {
            d.name: {k: getattr(d.stats, k) for k in _IBP_FIELDS}
            for d in rig.lan_depots + rig.wan_depots
        }
        self.lors_failed = 0
        self.planned_flows = 0

    def _note_plan(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        # a vectorized plan commits its flows without Network.transfer
        def wrapper(items: Any) -> Any:
            plan = fn(items)
            if plan.vector_ok:
                self.planned_flows += len(items)
            return plan
        return wrapper

    def _note_deferred(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            deferred = fn(*args, **kwargs)
            deferred.add_callback(self._on_done)
            return deferred
        return wrapper

    def _on_done(self, deferred: Any) -> None:
        if deferred.failed:
            self.lors_failed += 1

    def counters(self) -> Dict[str, int]:
        """The simtime counts the invariant test checks."""
        queue = self.rig.queue
        return {
            "pending0": self.pending0,
            "scheduled": self.trace.calls["simtime.schedule"],
            "cancelled": self.trace.calls["simtime.cancel"],
            "fired": queue.fired_total - self.fired0,
            "pending": len(queue),
        }

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the rig, run phase only."""
        t, rig = self.trace, self.rig
        c = self.counters()
        scheduled = c["scheduled"]
        net = rig.network.stats
        sched = rig.scheduler
        out: Dict[str, float] = {
            "simtime.scheduled": scheduled,
            "simtime.cancelled": c["cancelled"],
            "simtime.fired": c["fired"],
            "simtime.fired_ratio": c["fired"] / scheduled if scheduled else 0.0,
            "simtime.compactions": rig.queue.compactions - self.compactions0,
            "simtime.self_s": t.layer_self_s("simtime"),
            "network.flush_calls": t.calls["network.flush"],
            "network.flush_s": t.self_s["network.flush"],
            "network.transfer_s": (t.self_s["network.transfer"]
                                   + t.self_s["network.admission_plan"]),
            "network.transfers": (t.calls["network.transfer"]
                                  + self.planned_flows),
        }
        for k in _NET_FIELDS:
            out[f"network.{k}"] = getattr(net, k) - self.net0[k]
        out.update({
            "scheduler.submit_calls": (t.calls["scheduler.submit"]
                                       + t.calls["scheduler.submit_batch"]),
            "scheduler.submit_s": t.layer_self_s("scheduler"),
            "scheduler.batches_flushed": (sched.stats.batches_flushed
                                          - self.sched0["batches_flushed"]),
            "scheduler.scalar_fallbacks": (sched.stats.scalar_fallbacks
                                           - self.sched0["scalar_fallbacks"]),
            "scheduler.deduped": (sched.registry.stats.deduped
                                  - self.sched0["deduped"]),
            "scheduler.promoted": (sched.registry.stats.promoted
                                   - self.sched0["promoted"]),
            "scheduler.cancelled": (sched.stats.cancelled
                                    - self.sched0["cancelled"]),
            "lors.download_calls": t.calls["lors.download"],
            "lors.augment_calls": t.calls["lors.augment"],
            "lors.lors_s": t.layer_self_s("lors"),
            "lors.failed": self.lors_failed,
        })
        for k in _IBP_FIELDS:
            out[f"ibp.{k}"] = sum(
                getattr(d.stats, k) - self.depots0[d.name][k]
                for d in rig.lan_depots + rig.wan_depots
            )
        out["ibp.ibp_s"] = t.layer_self_s("ibp")
        agents = [a.stats for a in rig.client_agents]
        requests = sum(a.requests for a in agents)
        issued = sum(a.prefetches_issued for a in agents)
        out.update({
            "agent.requests": requests,
            "agent.request_s": t.layer_self_s("agent"),
            "agent.cache_hit_ratio": (sum(a.hits for a in agents) / requests
                                      if requests else 0.0),
            "agent.prefetch_hit_ratio": (sum(a.prefetch_hits for a in agents)
                                         / issued if issued else 0.0),
            "staging.update_cursor_s": t.layer_self_s("staging"),
            "staging.staged": sum(s.stats.staged for s in rig.stagings),
            "staging.bytes_staged": sum(s.stats.bytes_staged
                                        for s in rig.stagings),
            "client.handle_cursor_s": t.layer_self_s("client"),
        })
        return out


_NET_FIELDS = ("flows_rerated", "events_rescheduled", "coalesced",
               "vectorized", "fast_rated")
_IBP_FIELDS = ("allocates", "stores", "loads", "refusals")


def attach_rig(trace: LayerTrace, rig: Any) -> RigProbe:
    """Wrap the layers of a freshly built multi-client rig.

    Only instance attributes change.  ``Client.on_cursor`` holds the
    staging pump's bound method from construction time, so it is replaced
    by a timed copy rather than the pump's own attribute.
    """
    probe = RigProbe(trace, rig)
    queue = rig.queue
    trace.wrap(queue, "run_until", "simtime.run_until")
    trace.count(queue, "schedule", "simtime.schedule")
    trace.count(queue, "cancel", "simtime.cancel",
                when=lambda ev: not ev.cancelled and not ev.fired)
    net = rig.network
    trace.wrap(net, "flush", "network.flush")
    trace.wrap(net, "transfer", "network.transfer")
    trace.install(net, "admission_plan", probe._note_plan(
        trace.timed("network.admission_plan", net.admission_plan)))
    trace.wrap(rig.scheduler, "submit", "scheduler.submit")
    trace.wrap(rig.scheduler, "submit_batch", "scheduler.submit_batch")
    lors = rig.lors
    trace.install(lors, "download", probe._note_deferred(
        trace.timed("lors.download", lors.download)))
    trace.install(lors, "augment", probe._note_deferred(
        trace.timed("lors.augment", lors.augment)))
    for depot in rig.lan_depots + rig.wan_depots:
        for op in ("allocate", "store", "load", "copy_out"):
            trace.wrap(depot, op, f"ibp.{op}")
    for agent in rig.client_agents:
        trace.wrap(agent, "request", "agent.request")
    for client in rig.clients:
        trace.wrap(client, "handle_cursor", "client.handle_cursor")
        if client.on_cursor is not None:
            trace.install(client, "on_cursor", trace.timed(
                "staging.update_cursor", client.on_cursor))
    return probe


# ----------------------------------------------------------------------
# the client and generator workloads
# ----------------------------------------------------------------------
class TimedSpheres:
    """A :class:`~repro.lightfield.sphere.TwoSphere` stand-in whose
    ``project_rays`` is timed; every other attribute is the real one's.

    ``TwoSphere`` is frozen, so the synthesizer is handed this proxy
    instead of having a method shadowed on the instance.
    """

    def __init__(self, trace: LayerTrace, spheres: Any) -> None:
        self._spheres = spheres
        self.project_rays = trace.timed("synthesis.project",
                                        spheres.project_rays)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._spheres, name)
