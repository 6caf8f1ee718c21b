"""Priority-aware transfer scheduling: one choke point for every byte moved.

The paper's Section 4.3 observes that "prefetching ... places a burden" on
the network: aggressive staging competes with foreground view-set misses for
the same WAN links.  In the seed reproduction that interference was an
accident of four independent transfer paths (demand downloads, agent
prefetches, third-party staging copies, uploads) each driving
:class:`~repro.lon.network.Network` flows directly.  This module makes it a
*scheduled* behaviour:

* every transfer is submitted through a :class:`TransferScheduler` carrying a
  :class:`Priority` class (``DEMAND > PREFETCH > STAGING > MAINTENANCE``) and
  an optional :class:`CancelToken`;
* the ``weighted`` policy maps priority classes to weighted max-min fair
  shares, so a demand miss sharing the WAN with staging still gets most of
  the bottleneck; ``strict`` additionally pauses background flows whose path
  overlaps a live higher-class flow (they resume, with progress kept, when
  the foreground drains); ``off`` reproduces the seed's priority-blind equal
  sharing;
* an :class:`InFlightRegistry` shared by the client agent, the prefetcher and
  the staging pump deduplicates cross-layer fetches of the same view set and
  lets a demand arrival *promote* an in-flight background transfer instead of
  starting a duplicate download;
* every lifecycle step (queued → admitted → re-rated → paused/resumed →
  promoted → completed/cancelled/failed) is emitted as a
  :class:`TransferEvent` so experiments can attribute client latency to
  scheduling interference.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..obs.tracer import NOOP_SPAN, NULL_TRACER, SpanLike, Tracer
from .network import AdmissionPlan, Flow, Network

__all__ = [
    "Priority",
    "CancelToken",
    "TransferEvent",
    "TransferHandle",
    "TransferSpec",
    "InFlightEntry",
    "InFlightRegistry",
    "RegistryStats",
    "SchedulerStats",
    "TransferScheduler",
    "DEFAULT_CLASS_WEIGHTS",
    "SCHEDULING_POLICIES",
]


class Priority(IntEnum):
    """Transfer urgency classes, most urgent first (lower value = hotter)."""

    DEMAND = 0       # a user is waiting on this right now
    PREFETCH = 1     # speculative warm-up of the agent cache
    STAGING = 2      # third-party background copies to the LAN depot
    MAINTENANCE = 3  # uploads, lease upkeep, replica repair


#: default weighted-fair-share weights per priority class.  An 8:2:1:0.5
#: split gives a lone demand flow ~70% of a bottleneck it shares with one
#: prefetch and one staging flow, without starving the background entirely.
DEFAULT_CLASS_WEIGHTS: Dict[Priority, float] = {
    Priority.DEMAND: 8.0,
    Priority.PREFETCH: 2.0,
    Priority.STAGING: 1.0,
    Priority.MAINTENANCE: 0.5,
}

#: recognized scheduling policies (the experiment ablation knob).
SCHEDULING_POLICIES = ("off", "weighted", "strict")


class CancelToken:
    """A shared cancellation flag for a group of related transfers.

    Jobs register teardown callbacks with :meth:`on_cancel`; calling
    :meth:`cancel` fires them once.  Tokens let a cursor move kill a whole
    staging copy (every block flow plus its retry logic) in one call.
    """

    def __init__(self) -> None:
        self._cancelled = False
        self._callbacks: List[Callable[[], None]] = []

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    def cancel(self) -> None:
        """Trip the token and fire registered callbacks (idempotent)."""
        if self._cancelled:
            return
        self._cancelled = True
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb()

    def on_cancel(self, cb: Callable[[], None]) -> None:
        """Run ``cb()`` when cancelled (immediately if already tripped)."""
        if self._cancelled:
            cb()
        else:
            self._callbacks.append(cb)


@dataclass
class TransferEvent:
    """One lifecycle step of a scheduled transfer (for latency attribution)."""

    time: float
    label: str
    priority: str        # Priority name, JSON-friendly
    event: str           # queued|admitted|rerated|paused|resumed|promoted|
    #                      completed|cancelled|failed
    detail: str = ""
    #: id of the span owning this transfer (None when tracing is off), so
    #: dedup/promotion can be read inside the demand trace that benefited
    span_id: Optional[int] = None


@dataclass
class SchedulerStats:
    """Counters over a scheduler's lifetime."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    promoted: int = 0
    preempted: int = 0   # strict-policy pauses
    resumed: int = 0
    rerates: int = 0
    # batched-admission counters (see TransferScheduler.submit_batch):
    batches_flushed: int = 0        # batches that took the array path
    submissions_coalesced: int = 0  # specs admitted through array batches
    scalar_fallbacks: int = 0       # specs that fell back to scalar submit
                                    # (below threshold, strict policy, or
                                    # an unplannable batch)
    #: per-class spec counts over array batches (numpy bincount output)
    batched_by_class: Dict[str, int] = field(default_factory=dict)


class TransferHandle:
    """A scheduled transfer: the scheduler client's view of one flow."""

    def __init__(
        self,
        scheduler: TransferScheduler,
        priority: Priority,
        label: str,
        token: Optional[CancelToken],
    ) -> None:
        self.scheduler = scheduler
        self.priority = priority
        self.label = label
        self.token = token
        self.flow: Optional[Flow] = None
        self.state = "queued"  # queued|active|completed|cancelled|failed
        #: per-transfer span (real when tracing is on)
        self.span: SpanLike = NOOP_SPAN

    @property
    def done(self) -> bool:
        """True once the transfer reached a terminal state."""
        return self.state in ("completed", "cancelled", "failed")

    def cancel(self) -> None:
        """Abort this transfer; completion callbacks never fire."""
        self.scheduler.cancel(self)

    def promote(self, priority: Priority) -> bool:
        """Raise urgency mid-flight (returns True if anything changed)."""
        return self.scheduler.promote(self, priority)


@dataclass
class TransferSpec:
    """One transfer request, as an inert value for batched admission.

    Field-for-field the arguments of :meth:`TransferScheduler.submit`,
    plus an optional ``dedup_key``: when set, a spec whose key is already
    held in the scheduler's :class:`InFlightRegistry` — or was claimed by
    an earlier spec of the same batch — is suppressed (its handle comes
    back already cancelled with detail ``"deduped"``) instead of admitted.
    """

    src: str
    dst: str
    size: int
    on_complete: Callable[[Flow], None]
    on_fail: Optional[Callable[[Flow, Exception], None]] = None
    label: str = ""
    priority: Priority = Priority.DEMAND
    token: Optional[CancelToken] = None
    span: Optional[SpanLike] = None
    dedup_key: Optional[str] = None


@dataclass
class InFlightEntry:
    """One resource (view set) currently being transferred by some layer."""

    key: str
    kind: str            # "demand" | "prefetch" | "staging"
    priority: Priority
    promote_cb: Optional[Callable[[Priority], None]] = None
    cancel_cb: Optional[Callable[[], None]] = None
    subscribers: List[Callable[[bool], None]] = field(default_factory=list)
    #: span of the layer moving the bytes; dedup/promotion events land here
    span: SpanLike = NOOP_SPAN


@dataclass
class RegistryStats:
    """Cross-layer coordination counters."""

    registered: int = 0
    deduped: int = 0     # duplicate fetches suppressed
    promoted: int = 0    # background entries promoted to DEMAND
    cancelled: int = 0   # entries cancelled as no longer useful


class InFlightRegistry:
    """Shared index of resources in flight across every transfer path.

    The client agent (demand + prefetch), the staging pump and any other
    byte-moving layer register here under the resource key (a view-set id),
    so no two layers ever fetch the same bytes concurrently, and a demand
    arrival can promote — rather than duplicate — background work.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, InFlightEntry] = {}
        self.stats = RegistryStats()

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[InFlightEntry]:
        """The in-flight entry for ``key``, if any."""
        return self._entries.get(key)

    def register(
        self,
        key: str,
        kind: str,
        priority: Priority,
        promote_cb: Optional[Callable[[Priority], None]] = None,
        cancel_cb: Optional[Callable[[], None]] = None,
        span: SpanLike = NOOP_SPAN,
    ) -> InFlightEntry:
        """Claim ``key``; raises if another layer already holds it."""
        if key in self._entries:
            raise ValueError(f"resource {key!r} is already in flight")
        entry = InFlightEntry(
            key=key, kind=kind, priority=priority,
            promote_cb=promote_cb, cancel_cb=cancel_cb,
            span=span if span is not None else NOOP_SPAN,
        )
        self._entries[key] = entry
        self.stats.registered += 1
        return entry

    def note_deduped(self, key: str) -> None:
        """Record that a duplicate fetch of ``key`` was suppressed."""
        self.stats.deduped += 1
        entry = self._entries.get(key)
        if entry is not None:
            entry.span.event("deduped", key=key)

    def promote(self, key: str, priority: Priority) -> bool:
        """Raise the urgency of an in-flight entry (e.g. to DEMAND)."""
        entry = self._entries.get(key)
        if entry is None or priority >= entry.priority:
            return False
        entry.priority = priority
        self.stats.promoted += 1
        entry.span.event("promoted", priority=Priority(priority).name)
        if entry.promote_cb is not None:
            entry.promote_cb(priority)
        return True

    def subscribe(self, key: str, cb: Callable[[bool], None]) -> bool:
        """Run ``cb(success)`` when the entry completes; False if absent."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.subscribers.append(cb)
        return True

    def complete(self, key: str, success: bool = True) -> None:
        """Release ``key`` and notify subscribers (no-op if absent)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for cb in entry.subscribers:
            cb(success)

    def cancel(self, key: str) -> bool:
        """Cancel the in-flight work holding ``key`` (via its cancel_cb).

        The holder's teardown is expected to call :meth:`complete`; if it
        does not, the entry is dropped here with ``success=False``.  Only
        *this* entry is dropped: a teardown that synchronously resubmits
        the key (retarget cancellation racing a fresh demand) re-registers
        a new entry, which must survive the old entry's cleanup — a plain
        ``key in self._entries`` check here would tear the new entry down
        and leave the resource permanently unfetchable.
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        self.stats.cancelled += 1
        if entry.cancel_cb is not None:
            entry.cancel_cb()
        if self._entries.get(key) is entry:
            self.complete(key, success=False)
        return True


class TransferScheduler:
    """Admission point mapping priority classes onto network flow shares.

    Parameters
    ----------
    network:
        The simulated network every flow runs over.
    policy:
        ``"off"`` — priority-blind equal sharing (the seed behaviour);
        ``"weighted"`` — weighted max-min fair sharing by class weight;
        ``"strict"`` — weighted, plus background flows sharing a link with a
        live higher-class flow are paused (progress kept) until it drains.
    weights:
        Optional per-:class:`Priority` weight overrides.
    on_event:
        Optional ``callback(TransferEvent)`` receiving lifecycle events.
    tracer:
        Observability tracer; per-transfer spans are opened under the parent
        span passed to :meth:`submit`.  Defaults to the shared disabled
        tracer (no spans, negligible overhead).
    vectorize_threshold:
        Batch size (specs) at which :meth:`submit_batch` switches from the
        scalar per-spec loop to array admission (class counting, weight
        assignment, dedup-key hashing and initial rate seeding as numpy
        operations feeding one coalesced rebalance flush).  Mirrors
        ``Network(vectorize_threshold=...)`` for the water-fill; both
        paths are bit-identical, this only moves the crossover.
    """

    def __init__(
        self,
        network: Network,
        policy: str = "weighted",
        weights: Optional[Dict[Priority, float]] = None,
        on_event: Optional[Callable[[TransferEvent], None]] = None,
        tracer: Optional[Tracer] = None,
        vectorize_threshold: int = 6,
    ) -> None:
        if policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; "
                f"choose from {SCHEDULING_POLICIES}"
            )
        if vectorize_threshold < 2:
            raise ValueError("vectorize_threshold must be >= 2")
        self.network = network
        self.policy = policy
        self.weights = dict(DEFAULT_CLASS_WEIGHTS)
        if weights:
            self.weights.update(weights)
        for prio, w in self.weights.items():
            if w <= 0:
                raise ValueError(f"weight for {prio!r} must be positive")
        self.on_event = on_event
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.vectorize_threshold = vectorize_threshold
        self.registry = InFlightRegistry()
        self.stats = SchedulerStats()
        self._active: List[TransferHandle] = []

    # ------------------------------------------------------------------
    def weight_for(self, priority: Priority) -> float:
        """The fair-share weight a flow of this class runs at."""
        if self.policy == "off":
            return 1.0
        return self.weights[Priority(priority)]

    @property
    def active_handles(self) -> List[TransferHandle]:
        """Transfers currently admitted (snapshot)."""
        return list(self._active)

    # ------------------------------------------------------------------
    def submit(
        self,
        src: str,
        dst: str,
        size: int,
        on_complete: Callable[[Flow], None],
        on_fail: Optional[Callable[[Flow, Exception], None]] = None,
        label: str = "",
        priority: Priority = Priority.DEMAND,
        token: Optional[CancelToken] = None,
        span: Optional[SpanLike] = None,
        dedup_key: Optional[str] = None,
    ) -> TransferHandle:
        """Admit one transfer at a priority class.

        Semantics match :meth:`Network.transfer` (``NoRouteError`` raises
        immediately, callbacks fire at simulated delivery time) with the
        flow's bandwidth share governed by the scheduling policy.  A tripped
        ``token`` yields an already-cancelled handle whose callbacks never
        fire.  ``span`` (optional) becomes the parent of this transfer's own
        span, linking the flow into the request trace that caused it.
        ``dedup_key`` (optional) suppresses the submission when the key is
        already held in :attr:`registry` (see :class:`TransferSpec`).
        """
        spec = TransferSpec(
            src, dst, size, on_complete, on_fail, label,
            Priority(priority), token, span, dedup_key,
        )
        return self._submit_spec(spec, set(), self._admit_scalar)

    def submit_batch(
        self, specs: Sequence[TransferSpec]
    ) -> List[TransferHandle]:
        """Admit a same-timestamp batch of transfers, vectorized.

        Below ``vectorize_threshold`` specs (or under the ``strict``
        policy, whose pause/resume interleaving is inherently scalar) this
        is exactly a loop of :meth:`submit` calls.  At or above it, class
        counting, weight assignment, dedup-key hashing and initial rate
        seeding run as numpy array operations over the whole batch
        (:meth:`Network.admission_plan`), feeding the network's single
        coalesced rebalance flush.  Under incremental rebalance,
        event streams, transfer events, stats other than the batch
        counters, and every float are bit-identical to the scalar loop —
        the property suite and ``compare_fingerprints`` hold this line.
        Under ``full`` rebalance the batch defers the scalar path's
        per-submission synchronous recompute into one coalesced
        ``_rebalance_full`` (the perf point of batching there): final
        rates, completion times and transfer outcomes stay bit-equal,
        but the intermediate recompute count — and with it
        ``full_recomputes`` and traced ``rerated`` granularity — is
        coarser.

        Handles are returned in spec order.  Like :meth:`submit`,
        ``NoRouteError`` propagates from the offending spec's position;
        earlier specs remain admitted.
        """
        specs = list(specs)
        n = len(specs)
        if n == 0:
            return []
        if n < self.vectorize_threshold or self.policy == "strict":
            self.stats.scalar_fallbacks += n
            seen: Set[str] = set()
            return [
                self._submit_spec(s, seen, self._admit_scalar)
                for s in specs
            ]

        # -- array phase: everything derivable before any callback runs --
        # class counting + weight assignment via a per-class LUT
        prio_vals = np.fromiter(
            (int(Priority(s.priority)) for s in specs),
            dtype=np.intp, count=n,
        )
        if self.policy == "off":
            weights = np.ones(n, dtype=float)
        else:
            lut = np.array(
                [self.weights[p] for p in Priority], dtype=float
            )
            weights = lut[prio_vals]
        class_counts = np.bincount(prio_vals, minlength=len(Priority))
        # dedup-key hashing: one vectorized pass decides whether any
        # intra-batch duplicate is possible at all; the (rare) positive
        # case confirms by string equality below, so hash collisions
        # cannot mis-suppress
        keyed = [s.dedup_key for s in specs]
        if any(k is not None for k in keyed):
            # crc32, not hash(): builtin str hashing is salted per
            # process (PYTHONHASHSEED), and this pre-pass must reach the
            # same may_collide verdict in every worker.  crc32 is
            # non-negative, so the -(i + 1) no-key sentinels stay
            # distinct from every real key.
            hashes = np.fromiter(
                (zlib.crc32(k.encode()) if k is not None else -(i + 1)
                 for i, k in enumerate(keyed)),
                dtype=np.int64, count=n,
            )
            may_collide = len(np.unique(hashes)) < n
        else:
            may_collide = False

        # entry pre-checks: which specs will actually admit a flow (a
        # tripped token or a dedup hit admits nothing).  Re-checked per
        # spec at its turn — a mid-batch callback can trip a token — and
        # any divergence degrades the plan, preserving exactness.
        registry = self.registry
        pre_seen: Set[str] = set()
        plan_items: List[Tuple[str, str, int]] = []
        plan_index: Dict[int, int] = {}
        for i, s in enumerate(specs):
            if s.token is not None and s.token.cancelled:
                continue
            k = s.dedup_key
            if k is not None:
                if k in registry or (may_collide and k in pre_seen):
                    continue
                if may_collide:
                    pre_seen.add(k)
            plan_index[i] = len(plan_items)
            plan_items.append((s.src, s.dst, s.size))
        plan = self.network.admission_plan(plan_items)
        if plan.vector_ok:
            self.stats.batches_flushed += 1
            self.stats.submissions_coalesced += n
            for p, c in zip(Priority, class_counts):
                if c:
                    self.stats.batched_by_class[p.name] = (
                        self.stats.batched_by_class.get(p.name, 0)
                        + int(c)
                    )
        else:
            self.stats.scalar_fallbacks += n

        handles: List[TransferHandle] = []
        run_seen: Set[str] = set()
        for i, s in enumerate(specs):
            j = plan_index.get(i)
            if j is None:
                admit = self._unplanned_admit(plan)
                handles.append(self._submit_spec(s, run_seen, admit))
            else:
                admit = self._planned_admit(plan, j, float(weights[i]))
                handles.append(
                    self._submit_spec(s, run_seen, admit,
                                      on_skip=plan.skip)
                )
        plan.finish()
        return handles

    def _admit_scalar(
        self,
        spec: TransferSpec,
        on_complete: Callable[[Flow], None],
        on_fail: Callable[[Flow, Exception], None],
        weight: float,
    ) -> Flow:
        return self.network.transfer(
            spec.src, spec.dst, spec.size,
            on_complete=on_complete,
            on_fail=on_fail,
            label=spec.label,
            weight=weight,
        )

    def _planned_admit(
        self, plan: AdmissionPlan, j: int, weight: float
    ) -> Callable[
        [TransferSpec, Callable[[Flow], None],
         Callable[[Flow, Exception], None], float], Flow
    ]:
        # the vectorized weight shadows the scalar weight_for() value —
        # same LUT, same float — factory form keeps the closure out of the
        # batch loop (B023)
        def admit(
            spec: TransferSpec,
            on_complete: Callable[[Flow], None],
            on_fail: Callable[[Flow, Exception], None],
            _weight: float,
        ) -> Flow:
            return plan.admit(j, on_complete, on_fail, spec.label, weight)
        return admit

    def _unplanned_admit(
        self, plan: AdmissionPlan
    ) -> Callable[
        [TransferSpec, Callable[[Flow], None],
         Callable[[Flow, Exception], None], float], Flow
    ]:
        # a spec the pre-check filtered out nevertheless reached admission
        # (its registry entry completed mid-batch): admit it scalar and
        # degrade the plan, which assumed this flow absent
        def admit(
            spec: TransferSpec,
            on_complete: Callable[[Flow], None],
            on_fail: Callable[[Flow, Exception], None],
            weight: float,
        ) -> Flow:
            plan.skip()
            return self._admit_scalar(spec, on_complete, on_fail, weight)
        return admit

    def _submit_spec(
        self,
        spec: TransferSpec,
        seen: Set[str],
        admit: Callable[
            [TransferSpec, Callable[[Flow], None],
             Callable[[Flow, Exception], None], float], Flow
        ],
        on_skip: Optional[Callable[[], None]] = None,
    ) -> TransferHandle:
        """The one admission sequence both scalar and batched paths share.

        ``seen`` carries dedup keys claimed by earlier specs of the same
        batch (a fresh set for single submits).  ``admit`` performs the
        actual network admission; ``on_skip`` fires if this spec turns out
        to admit nothing (batched admission uses it to degrade the plan).
        """
        priority = Priority(spec.priority)
        handle = TransferHandle(self, priority, spec.label, spec.token)
        handle.span = self.tracer.begin(
            f"xfer:{spec.label}" if spec.label else "xfer",
            parent=spec.span,
            category="transfer",
            src=spec.src, dst=spec.dst, bytes=spec.size,
            priority=priority.name,
        )
        self._emit("queued", handle)
        if spec.token is not None and spec.token.cancelled:
            if on_skip is not None:
                on_skip()
            handle.state = "cancelled"
            self._emit("cancelled", handle, detail="token tripped")
            handle.span.finish(state="cancelled")
            return handle
        key = spec.dedup_key
        if key is not None:
            if key in self.registry or key in seen:
                if on_skip is not None:
                    on_skip()
                self.registry.note_deduped(key)
                handle.state = "cancelled"
                self._emit("cancelled", handle, detail="deduped")
                handle.span.finish(state="cancelled")
                return handle
            seen.add(key)
        self.stats.submitted += 1
        on_complete = spec.on_complete
        on_fail = spec.on_fail

        def _complete(flow: Flow) -> None:
            if handle.done:
                return
            handle.state = "completed"
            self.stats.completed += 1
            self._retire(handle, "completed")
            on_complete(flow)

        def _fail(flow: Flow, exc: Exception) -> None:
            if handle.done:
                return
            handle.state = "failed"
            self.stats.failed += 1
            self._retire(handle, "failed", detail=str(exc))
            if on_fail is not None:
                on_fail(flow, exc)

        flow = admit(spec, _complete, _fail, self.weight_for(priority))
        handle.flow = flow
        handle.state = "active"
        if self.on_event is not None:
            def _rerated(fl: Flow, old_rate: float) -> None:
                self.stats.rerates += 1
                self._emit(
                    "rerated", handle,
                    detail=f"{old_rate:.0f}->{fl.rate:.0f}B/s",
                )
            flow.on_rate_change = _rerated
        if spec.token is not None:
            spec.token.on_cancel(handle.cancel)
        self._active.append(handle)
        self._emit("admitted", handle)
        if self.policy == "strict":
            self._apply_strict()
        return handle

    def cancel(self, handle: TransferHandle) -> None:
        """Abort a scheduled transfer (no-op once terminal)."""
        if handle.done:
            return
        handle.state = "cancelled"
        self.stats.cancelled += 1
        if handle.flow is not None:
            self.network.cancel_flow(handle.flow)
        self._retire(handle, "cancelled")

    def promote(self, handle: TransferHandle, priority: Priority) -> bool:
        """Raise a transfer's class mid-flight; re-rates immediately."""
        priority = Priority(priority)
        if handle.done or priority >= handle.priority:
            return False
        handle.priority = priority
        self.stats.promoted += 1
        if handle.flow is not None:
            self.network.set_flow_weight(
                handle.flow, self.weight_for(priority)
            )
        handle.span.annotate(priority=priority.name)
        self._emit("promoted", handle, detail=priority.name)
        if self.policy == "strict":
            self._apply_strict()
        return True

    # ------------------------------------------------------------------
    def _retire(self, handle: TransferHandle, event: str,
                detail: str = "") -> None:
        if handle in self._active:
            self._active.remove(handle)
        self._emit(event, handle, detail=detail)
        handle.span.finish(state=handle.state)
        if self.policy == "strict":
            self._apply_strict()

    def _apply_strict(self) -> None:
        """Pause background flows sharing a link with hotter live flows.

        Flows are visited in urgency order; links claimed by running flows
        of strictly higher classes force lower-class flows off the network
        (paused, progress kept).  When the foreground drains, the next
        admission change resumes the survivors.
        """
        live = [
            h for h in self._active
            if h.flow is not None
            and not (h.flow.done or h.flow.failed)
            and h.flow.path_links
        ]
        live.sort(key=lambda h: h.priority)
        claimed: Set[object] = set()
        tier_links: Set[object] = set()
        tier: Optional[Priority] = None
        for h in live:
            if tier is None or h.priority != tier:
                claimed |= tier_links
                tier_links = set()
                tier = h.priority
            preempted = any(lk in claimed for lk in h.flow.path_links)
            if preempted and not h.flow.paused:
                self.network.pause_flow(h.flow)
                self.stats.preempted += 1
                self._emit("paused", h)
            elif not preempted and h.flow.paused:
                self.network.resume_flow(h.flow)
                self.stats.resumed += 1
                self._emit("resumed", h)
            if not preempted:
                tier_links |= set(h.flow.path_links)

    def _emit(self, event: str, handle: TransferHandle,
              detail: str = "") -> None:
        # span events are kept distinct from the open/close pair; "queued"
        # and the terminal event already bound the span itself
        if event not in ("queued", "completed", "cancelled", "failed"):
            handle.span.event(event, detail=detail)
        if self.on_event is None:
            return
        self.on_event(TransferEvent(
            time=self.network.queue.now,
            label=handle.label,
            priority=handle.priority.name,
            event=event,
            detail=detail,
            span_id=handle.span.span_id,
        ))
