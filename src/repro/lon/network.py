"""Simulated network: topology, links, and max-min fair flow transfers.

This module stands in for the real Internet path between the client LAN at UT
Knoxville and the IBP depots in California.  It models exactly the properties
the paper's evaluation depends on:

* **propagation latency** per link (WAN ~tens of ms, LAN ~sub-ms), which
  dominates small control messages (DVS queries, IBP manage calls);
* **bandwidth** per link, shared **max-min fairly** among concurrent flows,
  which is what makes LoRS multi-stream downloads faster than a single socket
  and what makes aggressive staging slow down foreground misses (the
  "prefetching ... places a burden" observation in Section 4.3);
* **weighted sharing**: each flow carries a ``weight``; link capacity is
  divided by weighted max-min fairness (weight 1.0 everywhere reproduces the
  classic equal-share behaviour).  :class:`repro.lon.scheduler` maps transfer
  priority classes onto weights so a demand miss sharing the WAN with
  background staging still gets most of the pipe;
* **pause/resume**: a flow can be taken out of bandwidth contention without
  losing its progress (strict-preemption scheduling) and resumed later;
* **dynamic re-rating**: whenever a flow starts, finishes, pauses, resumes or
  changes weight, affected flow rates are recomputed and completion times
  re-armed.

Routing is shortest-path by latency over a :mod:`networkx` graph.  Transfers
deliver their completion callback after ``path propagation latency +
serialization time at the allocated rate``.

Two rebalancing modes govern how re-rating scales (``rebalance=``):

* ``"incremental"`` (default) — per-link flow membership is tracked; a
  change marks its links dirty, triggers at the same timestamp coalesce
  into one recompute (a flush event), water-filling runs only over the
  connected component of links/flows reachable from the dirty set, large
  components take a vectorized numpy path, and the flush settles flows,
  gates rate changes by ``rate_epsilon`` and computes completion times as
  array operations over the component.  Rates and completion times are
  authoritative once :meth:`Network.flush` has run — which happens
  automatically before any event at a later timestamp fires; synchronous
  callers inspecting ``Flow.rate`` right after a change should call
  ``flush()`` first.
* ``"full"`` — every change synchronously recomputes all flows and
  re-arms every completion time (O(flows × links) per change); kept as
  the reference implementation.

Both modes complete flows through one **completion timer**.  Each admitted
flow owns a slot in arrays holding its completion time (ETA) and an *arm
sequence number*; arming a flow reserves that number from the event queue
(:meth:`EventQueue.reserve_seq`) exactly where a per-flow completion event
would have been scheduled.  The only queue event is the timer, placed at
the lexicographic minimum ``(eta, seq)`` over the armed flows and labelled
``flow:<label>`` after the flow it points at, so the fired event stream is
the one per-flow events would produce, while heap traffic scales with
completions rather than re-ratings.  Firing drains that one flow and
re-aims the timer; a flush re-arms its component as array writes and
moves the timer at most once.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx
import numpy as np

from .simtime import Event, EventQueue

__all__ = [
    "Link",
    "Flow",
    "Network",
    "NetworkError",
    "NoRouteError",
    "RebalanceStats",
    "AdmissionPlan",
    "REBALANCE_MODES",
    "mbps",
    "gbps",
]

#: accepted values for ``Network(rebalance=...)``
REBALANCE_MODES = ("incremental", "full")


def mbps(x: float) -> float:
    """Convert megabits/second to bytes/second."""
    return x * 1e6 / 8.0


def gbps(x: float) -> float:
    """Convert gigabits/second to bytes/second."""
    return x * 1e9 / 8.0


class NetworkError(RuntimeError):
    """Base class for simulated-network failures."""


class NoRouteError(NetworkError):
    """No path exists between the requested endpoints."""


@dataclass
class Link:
    """A duplex link between two named nodes.

    ``bandwidth`` is in bytes/second, ``latency`` in seconds (one-way
    propagation).  ``up`` toggles availability for fault injection.
    """

    a: str
    b: str
    bandwidth: float
    latency: float
    up: bool = True

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"link bandwidth must be positive: {self}")
        if self.latency < 0:
            raise ValueError(f"link latency must be non-negative: {self}")

    @property
    def key(self) -> FrozenSet[str]:
        """Unordered endpoint pair identifying this link."""
        return frozenset((self.a, self.b))


_SLOT = operator.attrgetter("slot")
_ROWS = operator.attrgetter("link_row_ids")
_REMAINING = operator.attrgetter("remaining")
_RATE = operator.attrgetter("rate")
_LAST_UPDATE = operator.attrgetter("last_update")
_DRAINED_AT = operator.attrgetter("drained_at")
_ON_RATE_CHANGE = operator.attrgetter("on_rate_change")

@dataclass(eq=False)
class Flow:
    """An in-progress bulk transfer along a fixed path.

    Bookkeeping invariant: ``remaining`` is exact as of ``last_update``;
    between rate changes the flow drains linearly at ``rate`` bytes/second.

    ``eq=False``: flows compare (and hash) by identity.  The generated
    field-wise ``__eq__`` was never meaningful — two distinct transfers are
    never "equal" — and it made every admitted-set membership test an O(n)
    deep comparison over paths and callbacks on the hot trigger path.
    """

    src: str
    dst: str
    size: int
    path_links: Tuple[FrozenSet[str], ...]
    on_complete: Callable[["Flow"], None]
    on_fail: Optional[Callable[["Flow", Exception], None]] = None
    label: str = ""
    #: stable per-network admission sequence number.  All rebalancer
    #: bookkeeping keys on this (never ``id(flow)``): memory addresses
    #: differ between runs, which would leak allocator state into set
    #: iteration order and break bit-reproducible replays.
    fid: int = field(default=-1, init=False)
    rate_cap: float = float("inf")  # TCP window / RTT ceiling
    weight: float = 1.0             # share of weighted max-min fairness
    remaining: float = field(init=False)
    rate: float = field(default=0.0, init=False)
    last_update: float = field(default=0.0, init=False)
    start_time: float = field(default=0.0, init=False)
    finish_time: Optional[float] = field(default=None, init=False)
    prop_latency: float = field(default=0.0, init=False)
    drained_at: Optional[float] = field(default=None, init=False)
    #: pending delivery (or same-node copy) event; the drain itself is
    #: armed on the network's completion timer, not in the queue
    _completion_event: Optional[Event] = field(default=None, init=False)
    #: row of the network's per-slot arrays while admitted, else -1
    slot: int = field(default=-1, init=False)
    done: bool = field(default=False, init=False)
    failed: bool = field(default=False, init=False)
    paused: bool = field(default=False, init=False)
    #: optional observer fired as ``hook(flow, old_rate)`` whenever a
    #: rebalance changes this flow's allocated rate.  Observers must only
    #: record — starting/cancelling flows from the hook is undefined.
    on_rate_change: Optional[Callable[["Flow", float], None]] = field(
        default=None, init=False
    )
    #: path_links as rows of the network's global link table, used by the
    #: membership/BFS bookkeeping where int hashing beats frozenset hashing
    link_row_ids: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("flow size must be non-negative")
        if self.weight <= 0:
            raise ValueError("flow weight must be positive")
        self.remaining = float(self.size)

    @property
    def elapsed(self) -> Optional[float]:
        """Total transfer duration, once finished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time


@dataclass
class RebalanceStats:
    """Counters sizing the rebalancer's work (for benchmarks and tests)."""

    recomputes: int = 0          # incremental flush passes that did work
    full_recomputes: int = 0     # whole-network recomputes (full mode)
    coalesced: int = 0           # triggers absorbed into a pending flush
    component_flows: int = 0     # flows water-filled by incremental passes
    flows_rerated: int = 0       # flows whose allocated rate changed
    events_rescheduled: int = 0  # completion times (re-)armed
    vectorized: int = 0          # recomputes that took the numpy path
    all_capped: int = 0          # recomputes resolved by the window-cap
                                 # fast path (no water-filling rounds)
    fast_rated: int = 0          # triggers absorbed without any flush: the
                                 # flow's links all had cap-sum headroom


class AdmissionPlan:
    """Vectorized same-timestamp admission over one batch of transfers.

    Built by :meth:`Network.admission_plan` from the ``(src, dst, size)``
    triples of one scheduler batch.  Path resolution and TCP-window
    initial rate seeding are resolved once per ``(src, dst)`` pair;
    :meth:`admit` then commits flows one at a time, in submission order,
    reading each quiet-link verdict from the row state ``_admit`` keeps,
    so it produces exactly the event schedule the scalar
    :meth:`Network.transfer` path would have (the fingerprint suite holds
    this line).

    Under ``full`` rebalance mode there is no quiet fast path (every
    scalar ``transfer`` pokes a synchronous :meth:`Network._rebalance_full`),
    so the plan instead defers the recompute: flows commit without
    re-rating and :meth:`finish` feeds one coalesced full rebalance for
    the whole batch.  Same-timestamp full rebalances are idempotent on
    settle/max-min state, so rates, completion times and transfer
    outcomes stay bit-equal to the scalar path's per-submission
    recomputes — only the recompute count (and hence the granularity of
    ``rerated`` rate-change history under tracing) is coarser.

    ``vector_ok`` is False when the batch cannot be planned (no TCP
    window outside full mode, a same-node or unroutable item);
    :meth:`admit` then simply delegates to scalar ``transfer``.
    """

    __slots__ = (
        "net", "items", "vector_ok", "degraded",
        "_links", "_props", "_caps",
        "_row_ids",
        "_full", "_full_pokes",
    )

    def __init__(self, net: "Network",
                 items: List[Tuple[str, str, int]]) -> None:
        self.net = net
        self.items = items
        self.vector_ok = False
        self.degraded = False
        self._links: List[Tuple[FrozenSet[str], ...]] = []
        self._props: List[float] = []
        self._caps: List[float] = []
        self._row_ids: List[Tuple[int, ...]] = []
        self._full = False
        self._full_pokes = 0

    def skip(self) -> None:
        """Note that a planned item admitted nothing (a token tripped or
        a dedup key appeared mid-batch): under full rebalance the rest of
        the batch then recomputes immediately, like scalar admission."""
        self.degraded = True

    def finish(self) -> None:
        """Flush the one coalesced recompute a full-mode batch deferred.

        No-op outside full rebalance mode (the incremental flush event
        already coalesces same-timestamp pokes) and for plans that
        admitted nothing.  The deferred pokes land as a single
        :meth:`Network._rebalance_full`, replacing the scalar path's
        one-recompute-per-submission cascade with bit-equal final rates.
        """
        if self._full and self._full_pokes:
            # one recompute stands in for this many scalar ones
            self.net.stats.coalesced += self._full_pokes - 1
            self._full_pokes = 0
            self.net._rebalance_full()

    def admit(
        self,
        j: int,
        on_complete: Callable[[Flow], None],
        on_fail: Optional[Callable[[Flow, Exception], None]],
        label: str,
        weight: float,
    ) -> Flow:
        """Commit planned item ``j`` (bit-equal to scalar ``transfer``)."""
        net = self.net
        src, dst, size = self.items[j]
        if not self.vector_ok:
            return net.transfer(src, dst, size, on_complete=on_complete,
                                on_fail=on_fail, label=label, weight=weight)
        now = net.queue.now
        flow = Flow(src, dst, size, self._links[j], on_complete, on_fail,
                    label, weight=weight)
        flow.fid = next(net._fid_counter)
        flow.start_time = now
        flow.last_update = now
        flow.prop_latency = self._props[j]
        flow.rate_cap = self._caps[j]
        flow.link_row_ids = self._row_ids[j]
        net._register(flow)
        net._admit(flow)
        if self._full:
            # scalar transfer would _poke -> synchronous _rebalance_full
            # right here; defer it so finish() recomputes once for the
            # whole batch.  A degraded plan reverts to the scalar poke
            # (the immediate recompute also re-rates any flows deferred
            # so far, so nothing stays stale past this point).
            if self.degraded:
                self._full_pokes = 0
                net._poke(self._row_ids[j])
            else:
                self._full_pokes += 1
            return flow
        if net._quiet(flow):
            net._pin_at_cap(flow, now)
        else:
            net._poke(self._row_ids[j])
        return flow


class Network:
    """Topology container + flow scheduler.

    Nodes are plain strings.  Add links with :meth:`add_link`, then move bytes
    with :meth:`transfer` (bulk, bandwidth-shared) or ask for
    :meth:`rpc_delay` (small control messages that only pay propagation).
    """

    #: fixed per-message processing overhead applied to RPCs (seconds); stands
    #: in for kernel + daemon request handling on 2003-era hardware.
    RPC_OVERHEAD = 0.0005

    def __init__(self, queue: EventQueue,
                 tcp_window: Optional[float] = None,
                 rebalance: str = "incremental",
                 rate_epsilon: float = 1e-9,
                 vectorize_threshold: int = 24) -> None:
        """``tcp_window`` (bytes) caps each flow at window/RTT — the
        single-stream TCP throughput ceiling that makes multi-stream LoRS
        downloads and third-party staging worthwhile.  None = uncapped.

        ``rebalance`` selects the re-rating strategy (see module docstring);
        ``rate_epsilon`` is the relative rate change below which a flow's
        completion event is left in place (the drain check self-corrects);
        ``vectorize_threshold`` is the component size (flows) at which
        water-filling switches to the numpy incidence-matrix path.
        """
        if rebalance not in REBALANCE_MODES:
            raise ValueError(
                f"rebalance must be one of {REBALANCE_MODES}, "
                f"got {rebalance!r}"
            )
        if rate_epsilon < 0:
            raise ValueError("rate_epsilon must be non-negative")
        self.queue = queue
        self.tcp_window = tcp_window
        self.rebalance_mode = rebalance
        self.rate_epsilon = rate_epsilon
        self.vectorize_threshold = vectorize_threshold
        self.stats = RebalanceStats()
        self.graph = nx.Graph()
        self._links: Dict[FrozenSet[str], Link] = {}
        # admitted flows by stable fid (insertion order = admission order,
        # which the full-recompute iteration depends on).  A dict rather
        # than a list: membership tests and removal on the trigger path
        # are O(1) int hashes instead of O(n) scans.
        self._flows: Dict[int, Flow] = {}
        self._fid_counter = itertools.count()
        self._route_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        # (path links, propagation latency) per endpoint pair: transfer()
        # and rpc_delay() resolve their whole path in one dict hit instead
        # of re-walking link objects per call
        self._path_cache: Dict[
            Tuple[str, str], Tuple[Tuple[FrozenSet[str], ...], float]
        ] = {}
        # admission-plan per-pair cache: (path links, propagation latency,
        # TCP-window rate cap, link row ids).  Everything here is route-
        # and window-derived (never load-derived), so it invalidates
        # exactly with the path cache.
        self._plan_cache: Dict[
            Tuple[str, str],
            Tuple[Tuple[FrozenSet[str], ...], float, float, Tuple[int, ...]],
        ] = {}
        # incremental-rebalance state: link row -> ids of *contending*
        # flows (admitted, not paused, not drained), the dirty row seeds,
        # and the pending same-timestamp flush.  Links are identified by
        # their stable int row from ``_row_of`` so the hot closure walk
        # hashes ints, not frozensets.
        self._members: Dict[int, Set[int]] = {}
        self._dirty: Set[int] = set()
        self._flush_event: Optional[Event] = None
        # stable global link rows for the vectorized water-fill: each link
        # key gets a permanent row index and a bandwidth slot, so per-call
        # incidence construction is pure numpy indexing
        self._row_of: Dict[FrozenSet[str], int] = {}
        self._row_bw: List[float] = []
        self._row_bw_arr: Optional[np.ndarray] = None
        # per-row admission accounting for the quiet fast path: the sum of
        # member TCP-window ceilings, the number of uncapped members, and
        # whether the row could possibly constrain anyone ("over": some
        # member is uncapped, or the ceilings alone oversubscribe it).  A
        # flow whose rows are all not-over is pinned at its own ceiling by
        # max-min fairness, and admitting/removing it cannot re-rate any
        # other flow — so those triggers skip the flush entirely.
        self._row_capload: List[float] = []
        self._row_unc: List[int] = []
        self._row_over: List[bool] = []
        # completion timer: per-slot ETA and arm seq of every admitted flow
        # (inf / -1: not armed); slots recycle when flows leave.
        # ``_cands`` heaps (eta, seq, slot) candidates, stale ones dropped
        # when they surface (None: rebuild from the arrays after a flush
        # re-armed in bulk); ``_timer`` is the one queue event.
        self._slot_flow: List[Optional[Flow]] = []
        self._free_slots: List[int] = []
        self._eta = np.full(16, np.inf)
        self._aseq = np.full(16, -1, dtype=np.int64)
        # per-slot water-fill inputs, gathered by slot instead of per flow:
        # rate cap, weight and the index of the flow's path among the
        # distinct link-row paths seen (``_path_table``: their rows, padded
        # with -1; None until rebuilt after a new path)
        self._cap = np.zeros(16)
        self._wt = np.zeros(16)
        self._slot_path = np.zeros(16, dtype=np.intp)
        self._path_ids: Dict[Tuple[int, ...], int] = {}
        self._path_table: Optional[np.ndarray] = None
        self._cands: Optional[List[Tuple[float, int, int]]] = []
        self._timer: Optional[Event] = None

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> None:
        """Register a host (idempotent)."""
        self.graph.add_node(name)

    def add_link(
        self, a: str, b: str, bandwidth: float, latency: float
    ) -> Link:
        """Create a duplex link; replaces any existing a<->b link."""
        link = Link(a=a, b=b, bandwidth=bandwidth, latency=latency)
        self._links[link.key] = link
        self.graph.add_edge(a, b, latency=latency)
        self._route_cache.clear()
        self._path_cache.clear()
        self._plan_cache.clear()
        row = self._row_of.get(link.key)
        if row is None:
            self._row_of[link.key] = len(self._row_bw)
            self._row_bw.append(link.bandwidth)
            self._row_capload.append(0.0)
            self._row_unc.append(0)
            self._row_over.append(False)
        else:  # replaced link: keep the row, refresh its bandwidth
            self._row_bw[row] = link.bandwidth
            self._row_over[row] = (
                self._row_unc[row] > 0
                or self._row_capload[row] > link.bandwidth
            )
        self._row_bw_arr = None
        return link

    def link_between(self, a: str, b: str) -> Link:
        """The link object joining two adjacent nodes."""
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise NoRouteError(f"no direct link {a} <-> {b}") from None

    def set_link_up(self, a: str, b: str, up: bool) -> None:
        """Fault injection: take a link down or bring it back.

        Downing a link fails every flow currently routed over it and
        invalidates the route cache.
        """
        link = self.link_between(a, b)
        if link.up == up:
            return
        link.up = up
        self._route_cache.clear()
        self._path_cache.clear()
        self._plan_cache.clear()
        if up:
            self.graph.add_edge(a, b, latency=link.latency)
        else:
            self.graph.remove_edge(a, b)
            doomed = [f for f in self._flows.values()
                      if link.key in f.path_links]
            for f in doomed:
                self._fail_flow(f, NetworkError(f"link {a}<->{b} went down"))

    def route(self, src: str, dst: str) -> Tuple[str, ...]:
        """Latency-shortest node path from src to dst (cached)."""
        if src == dst:
            return (src,)
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        try:
            path = tuple(
                nx.shortest_path(self.graph, src, dst, weight="latency")
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            raise NoRouteError(f"no route {src} -> {dst}") from None
        self._route_cache[key] = path
        return path

    def _resolve_path(
        self, src: str, dst: str
    ) -> Tuple[Tuple[FrozenSet[str], ...], float]:
        """(path link keys, one-way propagation latency), cached.

        transfer() and rpc_delay() both need the same two facts about an
        endpoint pair; resolving them through one dict hit keeps the
        per-call cost off the hot path (the cache is invalidated with the
        route cache on any topology change).
        """
        key = (src, dst)
        hit = self._path_cache.get(key)
        if hit is not None:
            return hit
        path = self.route(src, dst)
        links = tuple(
            self._links[frozenset((u, v))].key
            for u, v in zip(path, path[1:])
        )
        # same accumulation order as summing along the path: parity with
        # the uncached computation matters for bit-reproducible replays
        latency = 0.0
        for lk in links:
            latency += self._links[lk].latency
        entry = (links, latency)
        self._path_cache[key] = entry
        return entry

    def path_latency(self, src: str, dst: str) -> float:
        """One-way propagation latency along the current route."""
        if src == dst:
            return 0.0
        return self._resolve_path(src, dst)[1]

    def rpc_delay(self, src: str, dst: str) -> float:
        """Round-trip delay for a small request/response exchange."""
        if src == dst:
            return self.RPC_OVERHEAD
        return 2.0 * self.path_latency(src, dst) + self.RPC_OVERHEAD

    def link_utilization(self) -> Dict[Tuple[str, str], float]:
        """Instantaneous utilization (allocated rate / capacity) per link.

        Served from the rebalancer's cached membership and rate map (after
        flushing any pending rebalance) instead of re-deriving fair shares,
        so obs samplers can tick cheaply.  Paused flows and flows in their
        propagation tail consume no bandwidth; a downed link reads 0.
        Values are clamped to [0, 1] (transient float excess from
        water-filling rounds down).
        """
        self.flush()
        return {
            (link.a, link.b): (min(1.0, self._row_load(key) / link.bandwidth)
                               if link.up else 0.0)
            for key, link in self._links.items()
        }

    def _row_load(self, key: FrozenSet[str]) -> float:
        """Sum of the finite allocated rates of a link's contending flows."""
        load = 0.0
        # sorted: float accumulation order must not depend on set order
        for fid in sorted(self._members.get(self._row_of[key], ())):
            rate = self._flows[fid].rate
            if 0 < rate < float("inf"):
                load += rate
        return load

    # ------------------------------------------------------------------
    # cross-shard boundary links
    # ------------------------------------------------------------------
    #: floor for a boundary link's effective bandwidth (bytes/s): even a
    #: fully oversubscribed boundary keeps draining so local flows cannot
    #: stall forever on remote load alone
    MIN_EFFECTIVE_BANDWIDTH = 1.0

    def link_load(self, a: str, b: str) -> float:
        """Locally allocated rate over one link (bytes/s), post-flush.

        This is the per-shard "rate summary" exchanged at the windowed
        barrier: each shard publishes its own allocation on a boundary
        link, and peers subtract the remote total from the link's
        effective capacity via :meth:`set_remote_load`.  Returns 0.0 when
        this network has no such link (a shard with no crossing clients).
        """
        key = frozenset((a, b))
        if key not in self._links:
            return 0.0
        self.flush()
        return self._row_load(key)

    def set_remote_load(self, a: str, b: str, load: float) -> None:
        """Reserve remote (cross-shard) load on a boundary link.

        The link's *effective* bandwidth seen by every water-fill path
        becomes ``max(physical - load, MIN_EFFECTIVE_BANDWIDTH)``; the
        physical capacity (and :meth:`link_utilization` denominators) are
        unchanged.  Local flows over the link are re-rated when the
        effective value moves.  The remote figure is one barrier window
        stale by construction — the bounded-staleness contract measured by
        :mod:`repro.lon.shard`.
        """
        if load < 0:
            raise ValueError("remote load must be non-negative")
        key = frozenset((a, b))
        link = self._links.get(key)
        if link is None:
            raise NoRouteError(f"no direct link {a} <-> {b}")
        row = self._row_of[key]
        eff = max(link.bandwidth - load, self.MIN_EFFECTIVE_BANDWIDTH)
        if eff == self._row_bw[row]:
            return
        self._row_bw[row] = eff
        self._row_bw_arr = None
        self._row_over[row] = (
            self._row_unc[row] > 0 or self._row_capload[row] > eff
        )
        if row in self._members:
            self._poke((row,))

    def has_link(self, a: str, b: str) -> bool:
        """Whether a direct link ``a <-> b`` exists in this topology."""
        return frozenset((a, b)) in self._links

    def link_capacity(self, a: str, b: str) -> float:
        """Physical bandwidth of a direct link (0.0 when absent)."""
        link = self._links.get(frozenset((a, b)))
        return link.bandwidth if link is not None else 0.0

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> Tuple[Flow, ...]:
        """Currently in-flight transfers."""
        return tuple(self._flows.values())

    def transfer(
        self,
        src: str,
        dst: str,
        size: int,
        on_complete: Callable[[Flow], None],
        on_fail: Optional[Callable[[Flow, Exception], None]] = None,
        label: str = "",
        weight: float = 1.0,
    ) -> Flow:
        """Start a bulk transfer of ``size`` bytes from src to dst.

        ``on_complete(flow)`` fires at simulated delivery time.  Same-node
        transfers complete after a nominal memcpy delay.  ``weight`` scales
        this flow's share under weighted max-min fairness (1.0 = classic
        equal share).  Raises :class:`NoRouteError` immediately if the
        endpoints are partitioned.
        """
        now = self.queue.now
        if src == dst:
            flow = Flow(src, dst, size, (), on_complete, on_fail, label,
                        weight=weight)
            flow.fid = next(self._fid_counter)
            flow.start_time = now
            memcpy = 1e-4 + size / gbps(8.0)  # local copy at ~8 Gb/s
            flow.finish_time = now + memcpy
            flow._completion_event = self.queue.schedule_in(
                memcpy, lambda: self._finish_flow(flow), f"flow:{label}"
            )
            return flow

        links, prop_latency = self._resolve_path(src, dst)
        flow = Flow(src, dst, size, links, on_complete, on_fail, label,
                    weight=weight)
        flow.fid = next(self._fid_counter)
        flow.start_time = now
        flow.last_update = now
        flow.prop_latency = prop_latency
        if self.tcp_window is not None:
            rtt = max(2.0 * flow.prop_latency, 1e-6)
            flow.rate_cap = self.tcp_window / rtt
        self._register(flow)
        self._admit(flow)
        if flow.rate_cap != float("inf") and self._quiet(flow):
            self._pin_at_cap(flow, now)
        else:
            self._poke(self._rows_for(flow))
        return flow

    def admission_plan(
        self, items: Sequence[Tuple[str, str, int]]
    ) -> AdmissionPlan:
        """Precompute an admission plan for one same-timestamp
        batch of ``(src, dst, size)`` transfers.

        Path/row resolution and initial rate seeding (``tcp_window /
        rtt``) happen here, once per unique path, so
        :meth:`AdmissionPlan.admit` only commits per-flow state.  Falls
        back to a pass-through plan (``vector_ok`` False) when any item
        cannot be planned; the batch then admits through scalar
        :meth:`transfer` item by item.
        """
        plan = AdmissionPlan(self, list(items))
        n = len(plan.items)
        full = self.rebalance_mode == "full"
        if n == 0 or (not full and self.tcp_window is None):
            return plan
        # per-pair plan cache: path, propagation, TCP rate cap and link
        # rows resolve once per (src, dst) across *all* batches (the
        # common case — one batch drains one depot, and depots recur).
        # The cap is the exact scalar expression so cached and uncached
        # admissions stay bit-equal.
        plan_cache = self._plan_cache
        links_list: List[Tuple[FrozenSet[str], ...]] = []
        props: List[float] = []
        caps_list: List[float] = []
        row_ids: List[Tuple[int, ...]] = []
        for src, dst, size in plan.items:
            if src == dst or size < 0:
                return plan
            pair = (src, dst)
            hit = plan_cache.get(pair)
            if hit is None:
                try:
                    links, prop = self._resolve_path(src, dst)
                except NoRouteError:
                    return plan
                ids = tuple(self._row_of[lk] for lk in links)
                cap = (
                    float("inf") if self.tcp_window is None
                    else self.tcp_window / max(2.0 * prop, 1e-6)
                )
                hit = (links, prop, cap, ids)
                plan_cache[pair] = hit
            links_list.append(hit[0])
            props.append(hit[1])
            caps_list.append(hit[2])
            row_ids.append(hit[3])
        # full mode has no quiet fast path: every item commits "loud" and
        # finish() feeds one coalesced _rebalance_full for the batch
        plan._full = full
        plan._links = links_list
        plan._props = props
        plan._caps = caps_list
        plan._row_ids = row_ids
        plan.vector_ok = True
        return plan

    def cancel_flow(self, flow: Flow) -> None:
        """Abort an in-flight transfer without invoking callbacks."""
        if flow.done or flow.failed:
            return
        flow.failed = True
        if flow._completion_event is not None:
            self.queue.cancel(flow._completion_event)
            flow._completion_event = None
        if flow.fid in self._flows:
            quiet = self._quiet(flow)
            self._remove(flow)
            self._retrigger(flow, quiet)

    def pause_flow(self, flow: Flow) -> None:
        """Take a flow out of bandwidth contention, keeping its progress.

        A paused flow stops draining (rate 0) but stays admitted; survivors
        sharing its links are re-rated.  Used by the transfer scheduler's
        strict-preemption policy.  No-op on finished flows.
        """
        if flow.done or flow.failed or flow.paused:
            return
        flow.paused = True
        if flow.fid not in self._flows:
            return
        self._settle_flow(flow, self.queue.now)
        if flow.drained_at is not None:
            return  # propagation tail: already out of contention
        quiet = self._quiet(flow)
        self._expel(flow)
        old_rate = flow.rate
        flow.rate = 0.0
        self._disarm(flow.slot)
        if flow.on_rate_change is not None and old_rate != 0.0:
            flow.on_rate_change(flow, old_rate)
        self._retrigger(flow, quiet)

    def resume_flow(self, flow: Flow) -> None:
        """Re-admit a paused flow to bandwidth contention."""
        if flow.done or flow.failed or not flow.paused:
            return
        flow.paused = False
        if flow.fid not in self._flows or flow.drained_at is not None:
            return
        flow.last_update = self.queue.now  # no progress while paused
        self._admit(flow)
        if flow.rate_cap != float("inf") and self._quiet(flow):
            self._pin_at_cap(flow, self.queue.now)
        else:
            self._poke(self._rows_for(flow))

    def set_flow_weight(self, flow: Flow, weight: float) -> None:
        """Change a flow's fair-share weight mid-transfer (re-rates peers)."""
        if weight <= 0:
            raise ValueError("flow weight must be positive")
        if flow.weight == weight:
            return
        flow.weight = weight
        if flow.fid in self._flows and not (flow.done or flow.failed):
            self._wt[flow.slot] = weight
            # on quiet links every member sits at its own window ceiling
            # regardless of weight: nothing to re-rate
            self._retrigger(flow, self._quiet(flow))

    def _pin_at_cap(self, flow: Flow, now: float) -> None:
        """Run a newly contending flow at its window ceiling.

        Only for quiet links: every link keeps cap-sum headroom even with
        this flow at its ceiling, so nobody else is re-rated.
        """
        flow.rate = flow.rate_cap
        self.stats.flows_rerated += 1
        self.stats.fast_rated += 1
        if flow.on_rate_change is not None:
            flow.on_rate_change(flow, 0.0)
        self._reschedule(flow, now)

    def _retrigger(self, flow: Flow, quiet: bool) -> None:
        """After a flow joins, leaves or changes: re-rate its component
        unless ``quiet`` proved nobody can move, then re-aim the timer."""
        if quiet:
            self.stats.fast_rated += 1
        else:
            self._poke(self._rows_for(flow))
        self._aim()

    # -- incremental-rebalance bookkeeping -------------------------------
    def _rows_for(self, flow: Flow) -> Tuple[int, ...]:
        """The flow's path as stable link-table row ids (cached)."""
        rows = flow.link_row_ids
        if rows is None:
            row_of = self._row_of
            rows = tuple(row_of[lk] for lk in flow.path_links)
            flow.link_row_ids = rows
        return rows

    def _admit(self, flow: Flow) -> None:
        """Add a contending flow to its links' membership sets."""
        fid = flow.fid
        cap = flow.rate_cap
        finite = cap != float("inf")
        capload, unc, over, bw = (
            self._row_capload, self._row_unc, self._row_over, self._row_bw,
        )
        for row in self._rows_for(flow):
            self._members.setdefault(row, set()).add(fid)
            if finite:
                capload[row] += cap
            else:
                unc[row] += 1
            over[row] = unc[row] > 0 or capload[row] > bw[row]

    def _expel(self, flow: Flow) -> None:
        """Drop a flow from membership (paused, drained or gone)."""
        fid = flow.fid
        cap = flow.rate_cap
        finite = cap != float("inf")
        capload, unc, over, bw = (
            self._row_capload, self._row_unc, self._row_over, self._row_bw,
        )
        for row in self._rows_for(flow):
            fids = self._members.get(row)
            if fids is not None:
                fids.discard(fid)
                if not fids:
                    del self._members[row]
            if finite:
                capload[row] -= cap
            else:
                unc[row] -= 1
            if row not in self._members:
                capload[row] = 0.0  # idle row: shed any float drift
                unc[row] = 0
            over[row] = unc[row] > 0 or capload[row] > bw[row]

    def _quiet(self, flow: Flow) -> bool:
        """True when none of the flow's links can constrain any flow.

        On every not-over row the member ceilings sum below bandwidth, so
        the row is not a bottleneck for anyone: every member (this flow
        included, once admitted) sits at its own TCP-window ceiling, and
        adding or removing this flow cannot re-rate the others.  Callers
        must evaluate this *before* an expel (the rows' pre-removal state
        is what proves nobody was constrained) and *after* an admit.
        """
        if self.rebalance_mode == "full":
            return False
        row_over = self._row_over
        for row in self._rows_for(flow):
            if row_over[row]:
                return False
        return True

    def _register(self, flow: Flow) -> None:
        """Admit a flow to the flow table and give it a slot."""
        self._flows[flow.fid] = flow
        if self._free_slots:
            slot = self._free_slots.pop()
            self._slot_flow[slot] = flow
        else:
            slot = len(self._slot_flow)
            self._slot_flow.append(flow)
            if slot == len(self._eta):
                self._grow_slots()
        rows = self._rows_for(flow)
        path = self._path_ids.get(rows)
        if path is None:
            path = self._path_ids[rows] = len(self._path_ids)
            self._path_table = None
        self._slot_path[slot] = path
        self._cap[slot] = flow.rate_cap
        self._wt[slot] = flow.weight
        flow.slot = slot

    def _grow_slots(self) -> None:
        """Double every per-slot array."""
        for name in ("_eta", "_aseq", "_cap", "_wt", "_slot_path"):
            old = getattr(self, name)
            setattr(self, name, np.concatenate([old, np.full_like(
                old, np.inf if name == "_eta" else -1)]))

    def _remove(self, flow: Flow) -> None:
        """Take a flow out of the admitted set entirely."""
        del self._flows[flow.fid]
        self._expel(flow)
        slot = flow.slot
        self._disarm(slot)
        self._slot_flow[slot] = None
        self._free_slots.append(slot)
        flow.slot = -1

    # -- completion timer ---------------------------------------------------
    def _arm(self, flow: Flow, eta: float) -> None:
        """Arm an unarmed flow to drain at ``eta``.

        Reserves the queue sequence number a per-flow completion event
        would have taken here, so ties order exactly as they would have.
        """
        slot = flow.slot
        seq = self.queue.reserve_seq()
        self._eta[slot] = eta
        self._aseq[slot] = seq
        if self._cands is not None:
            heapq.heappush(self._cands, (eta, seq, slot))

    def _disarm(self, slot: int) -> None:
        """Clear a slot's arming (no-op when it is not armed)."""
        if self._aseq[slot] >= 0:
            self._eta[slot] = np.inf
            self._aseq[slot] = -1

    def _earliest(self) -> Optional[Tuple[float, int, int]]:
        """The lexicographically least ``(eta, seq, slot)`` arming."""
        cands = self._cands
        if cands is None:
            # a sorted list is a heap: rebuild it from the arrays
            armed = np.flatnonzero(self._aseq >= 0)
            eta, seq = self._eta[armed], self._aseq[armed]
            order = np.lexsort((seq, eta))
            cands = self._cands = list(zip(
                eta[order].tolist(), seq[order].tolist(),
                armed[order].tolist()))
        aseq = self._aseq
        while cands:
            if aseq[cands[0][2]] == cands[0][1]:
                return cands[0]
            heapq.heappop(cands)  # re-armed or disarmed since pushed
        return None

    def _aim(self) -> None:
        """Point the timer event at the earliest armed flow.

        Every operation that arms or disarms ends here before control
        returns to the event loop; the timer moves (one cancel, one
        schedule) only when its target changed.
        """
        best = self._earliest()
        timer = self._timer
        if timer is not None:
            if best is not None and timer.seq == best[1]:
                return
            self.queue.cancel(timer)
            self._timer = None
        if best is not None:
            eta, seq, slot = best
            flow = self._slot_flow[slot]
            assert flow is not None
            self._timer = self.queue.schedule(
                eta, self._on_timer, f"flow:{flow.label}", seq=seq)

    def _on_timer(self) -> None:
        """The earliest armed flow's drain time has come (every path of
        :meth:`_drain_check` re-aims the timer)."""
        timer, best = self._timer, self._earliest()
        assert timer is not None and best is not None and best[1] == timer.seq
        self._timer = None
        slot = best[2]
        flow = self._slot_flow[slot]
        assert flow is not None
        self._disarm(slot)
        self._drain_check(flow)

    def _poke(self, rows: Iterable[int]) -> None:
        """Register a rebalance trigger for the given link rows.

        Full mode recomputes synchronously (the seed behaviour).
        Incremental mode marks the links dirty and arms one flush event at
        the current timestamp, coalescing every further trigger at this
        instant into a single recompute.
        """
        if self.rebalance_mode == "full":
            self._rebalance_full()
            return
        self._dirty.update(rows)
        if self._flush_event is None:
            self._flush_event = self.queue.schedule(
                self.queue.now, self._run_flush, "net-rebalance"
            )
        else:
            self.stats.coalesced += 1

    def _run_flush(self) -> None:
        self._flush_event = None
        self.flush()

    def flush(self) -> None:
        """Apply any pending rebalance now (no-op when nothing is dirty).

        Runs automatically (via a same-timestamp event) before simulation
        time can advance past a trigger; call it directly before reading
        ``Flow.rate`` synchronously after starting or altering flows.
        """
        if self._flush_event is not None:
            self.queue.cancel(self._flush_event)
            self._flush_event = None
        if not self._dirty:
            return
        now = self.queue.now
        # closure: walk the bipartite link/flow graph from the dirty seeds;
        # the component is closed (its flows touch only its links and vice
        # versa), so water-filling it in isolation matches a global pass
        members = self._members
        flow_by_id = self._flows
        comp_rows: Set[int] = set()
        comp: List[Flow] = []
        seen: Set[int] = set()
        # sorted: the BFS visit order decides the order flows are appended
        # to ``comp`` and therefore the order completion times are armed —
        # same-timestamp ties break by arm order, so set iteration here
        # would leak hash-seed state into the event stream.  The walk is a
        # stack that pushes the path rows of each newly seen flow in turn;
        # only the last push of a row can be popped before the row is
        # walked, so each batch pushes its rows deduplicated to their last
        # occurrence, minus the rows already walked.
        stack = sorted(row for row in self._dirty if row in members)
        self._dirty.clear()
        while stack:
            row = stack.pop()
            if row in comp_rows:
                continue
            comp_rows.add(row)
            fids = members[row] - seen
            if not fids:
                continue
            seen |= fids
            flows = list(map(flow_by_id.__getitem__, sorted(fids)))
            comp += flows
            pushed = list(itertools.chain.from_iterable(map(_ROWS, flows)))
            top_first = [r for r in dict.fromkeys(reversed(pushed))
                         if r not in comp_rows and r in members]
            top_first.reverse()
            stack += top_first
        if not comp:
            return
        self.stats.recomputes += 1
        self.stats.component_flows += len(comp)
        slots = np.fromiter(map(_SLOT, comp), dtype=np.intp, count=len(comp))
        self._rerate(comp, slots, now)
        self._aim()

    def _rerate(self, comp: List[Flow], slots: np.ndarray,
                now: float) -> None:
        """Settle, re-rate and re-arm one coalesced flow set as arrays.

        Drain detection, settling, the epsilon gate and the completion
        ETAs run as numpy operations over the component's slots; flows
        are touched one by one only to store their settled state, retire
        drained ones and call rate observers.  Each per-flow expression is
        the one :meth:`_settle_flow` / :meth:`_reschedule` evaluate, in the
        same order, and flows are armed in component order, so the event
        stream matches a flow-by-flow pass bit for bit.
        """
        n = len(comp)
        rem = np.fromiter(map(_REMAINING, comp), dtype=float, count=n)
        rate = np.fromiter(map(_RATE, comp), dtype=float, count=n)
        lu = np.fromiter(map(_LAST_UPDATE, comp), dtype=float, count=n)
        drained_at = list(map(_DRAINED_AT, comp))
        dead = (np.zeros(n, dtype=bool) if drained_at.count(None) == n
                else np.array([d is not None for d in drained_at]))
        # _settle_flow's test: rem -= rate * (now - last_update) when rate > 0
        dead |= np.where(rate > 0.0, rem - rate * (now - lu), rem) <= 1e-9
        if dead.any():
            for i in np.flatnonzero(dead).tolist():
                self._settle_flow(comp[i], now)
                self._retire(comp[i])
            alive = ~dead
            live = list(itertools.compress(comp, alive.tolist()))
            rem = rem[alive]
            rate = rate[alive]
            lu = lu[alive]
            slots = slots[alive]
        else:
            live = comp
        if not live:
            return
        new = self._component_rates(live, slots)
        old = rate
        # vectorized _settle_flow at the *old* rate (live flows all have
        # drained_at None — drained ones were retired above)
        dt = now - lu
        pos = rate > 0.0
        t_drain = lu + rem / np.where(pos, rate, 1.0)
        drained_now = (dt > 0.0) & pos & (t_drain <= now + 1e-12)
        rem_settled = np.where(
            dt > 0.0,
            np.where(drained_now, 0.0,
                     np.maximum(0.0, rem - rate * dt)),
            rem,
        )
        changed = new != old
        ch = np.flatnonzero(changed)
        if len(ch):
            moved = changed & (dt > 0.0)
            for i in np.flatnonzero(moved & drained_now).tolist():
                live[i].drained_at = float(t_drain[i])
            for f, settled in zip(itertools.compress(live, moved.tolist()),
                                  rem_settled[moved].tolist()):
                f.remaining = settled
                f.last_update = now
            for f, r in zip(itertools.compress(live, changed.tolist()),
                            new[changed].tolist()):
                f.rate = r
            self.stats.flows_rerated += len(ch)
            if any(map(_ON_RATE_CHANGE, live)):
                for i in ch.tolist():
                    f = live[i]
                    if f.on_rate_change is not None:
                        f.on_rate_change(f, float(old[i]))
        # epsilon gate: identical (or nearly identical) rates keep their
        # arming — the drain check self-corrects any sub-epsilon drift
        keep = (self._aseq[slots] >= 0) & (
            np.abs(new - old)
            <= self.rate_epsilon * np.maximum(np.abs(new), np.abs(old))
        )
        need = np.flatnonzero(~keep)
        if not len(need):
            return
        # unchanged flows re-arm from their unsettled remaining, the
        # same bytes _reschedule would read off the object
        rem_final = np.where(changed & (dt > 0.0), rem_settled, rem)
        ser = np.where(
            np.isinf(new), 0.0,
            rem_final / np.where(new > 0.0, new, 1.0),
        )
        eta = np.maximum(now + ser, now)
        self._eta[slots[need]] = np.inf
        self._aseq[slots[need]] = -1
        # stalled flows (rate 0) stay disarmed until a trigger frees
        # bandwidth; the rest take consecutive seqs in component order
        arm = need[new[need] > 0.0]
        if len(arm):
            arm_slots = slots[arm]
            self._eta[arm_slots] = eta[arm]
            self._aseq[arm_slots] = (
                self.queue.reserve_seq(len(arm)) + np.arange(len(arm))
            )
            self.stats.events_rescheduled += len(arm)
            self._cands = None

    def _settle_flow(self, f: Flow, now: float) -> None:
        """Drain one flow's progress up to ``now`` at its current rate."""
        dt = now - f.last_update
        if dt > 0:
            if f.rate > 0 and f.drained_at is None:
                t_drain = f.last_update + f.remaining / f.rate
                if t_drain <= now + 1e-12:
                    f.drained_at = t_drain
            if f.drained_at is not None:
                f.remaining = 0.0  # exact: no float residue
            else:
                f.remaining = max(0.0, f.remaining - f.rate * dt)
            f.last_update = now

    def _reschedule(self, f: Flow, now: float) -> None:
        """Re-arm one flow's completion time from its current rate."""
        self._disarm(f.slot)
        if f.rate > 0:
            # the timer fires when the last byte leaves the bottleneck; the
            # flow then stops consuming bandwidth and delivery happens one
            # propagation delay later.
            self._arm(f, self._eta_of(f, now))
            self.stats.events_rescheduled += 1
        # stalled flows stay disarmed until a trigger frees bandwidth
        self._aim()

    @staticmethod
    def _eta_of(f: Flow, now: float) -> float:
        """Drain time of a flow's remaining bytes at its current rate."""
        serialization = (
            0.0 if f.rate == float("inf") else f.remaining / f.rate
        )
        return max(now + serialization, now)

    # -- water-filling ----------------------------------------------------
    def _bw_arr(self) -> np.ndarray:
        """Effective bandwidth per link row, as an array (cached)."""
        bw = self._row_bw_arr
        if bw is None:
            bw = self._row_bw_arr = np.array(self._row_bw, dtype=float)
        return bw

    def _component_rates(
        self, flows: List[Flow], slots: np.ndarray
    ) -> np.ndarray:
        """Weighted max-min fair rates for one closed component, aligned
        with ``flows`` (whose timer slots are ``slots``)."""
        capped = self._rates_all_capped(slots)
        if capped is not None:
            return capped
        if len(flows) >= self.vectorize_threshold:
            self.stats.vectorized += 1
            return self._rates_vectorized(slots)
        rates = self._rates_scalar(flows)
        return np.fromiter((rates[f.fid] for f in flows), dtype=float,
                           count=len(flows))

    def _slot_incidence(
        self, slots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(link rows, path lengths) of the slots' flows; the rows are
        each flow's path in order, flows concatenated in slot order."""
        table = self._path_table
        if table is None:
            width = max(map(len, self._path_ids))
            table = self._path_table = np.array(
                [rows + (-1,) * (width - len(rows))
                 for rows in self._path_ids], dtype=np.intp)
        paths = table[self._slot_path[slots]]
        on_path = paths >= 0
        return paths[on_path], on_path.sum(axis=1)

    def _rates_all_capped(self, slots: np.ndarray) -> Optional[np.ndarray]:
        """Fast path: every flow pinned at its TCP-window ceiling.

        When each flow has a finite ``rate_cap`` and no physical link is
        oversubscribed even with every member at its cap, max-min fairness
        assigns exactly ``rate_cap`` to everyone (each virtual cap link
        saturates before any shared link does).  This is the steady state
        of a well-provisioned WAN with window-limited streams — detecting
        it costs one pass over the component, no water-filling rounds.
        """
        caps = self._cap[slots]
        if np.isinf(caps).any():
            return None
        rows, lens = self._slot_incidence(slots)
        # bincount sums each row's caps in flow order, starting from 0.0
        load = np.bincount(rows, weights=np.repeat(caps, lens))
        if (load > self._bw_arr()[:len(load)]).any():
            return None
        self.stats.all_capped += 1
        return caps

    def _rates_scalar(self, flows: Iterable[Flow]) -> Dict[int, float]:
        """Water-filling over an explicit flow set (reference path).

        Each bottleneck link's capacity is split proportionally to flow
        weights; with all weights 1.0 this is the classic equal-share
        max-min allocation.
        """
        active = {f.fid: f for f in flows}
        weight = {fid: f.weight for fid, f in active.items()}
        caps: Dict[object, float] = {}
        members: Dict[object, List[int]] = {}
        # per-link sum of still-unassigned member weights, maintained
        # decrementally so level selection is O(links) per round instead
        # of O(links x members)
        live_weight: Dict[object, float] = {}
        for fid, f in active.items():
            w = weight[fid]
            for lk in f.path_links:
                if lk not in caps:
                    # effective row bandwidth, not Link.bandwidth: all
                    # three water-fill paths must see the same capacity,
                    # including any cross-shard remote-load reservation
                    caps[lk] = self._row_bw[self._row_of[lk]]
                    members[lk] = []
                    live_weight[lk] = 0.0
                members[lk].append(fid)
                live_weight[lk] += w
            if f.rate_cap != float("inf"):
                # a flow's TCP-window ceiling is a virtual single-flow link
                # (level = cap/weight, share = level*weight = rate_cap)
                cap_key = ("cap", fid)
                caps[cap_key] = f.rate_cap
                members[cap_key] = [fid]
                live_weight[cap_key] = w
        rates: Dict[int, float] = {}
        unassigned = set(active)
        while unassigned:
            # water level currently offered by each constrained link: the
            # per-unit-weight rate if the link alone were the bottleneck
            best_level = None
            for lk, lw in live_weight.items():
                if lw <= 1e-15:
                    continue
                level = caps[lk] / lw
                if best_level is None or level < best_level:
                    best_level = level
            if best_level is None:
                # remaining flows traverse no capacity-constrained link
                for fid in unassigned:
                    rates[fid] = float("inf")
                break
            # saturate every link sitting exactly at the water level in one
            # round: uniform-window uncongested fleets (all levels equal)
            # then finish in a single pass instead of one round per flow
            best_links = [
                lk for lk, lw in live_weight.items()
                if lw > 1e-15 and caps[lk] / lw == best_level
            ]
            for best_link in best_links:
                for fid in members[best_link]:
                    if fid not in unassigned:
                        continue
                    w = weight[fid]
                    share = best_level * w
                    rates[fid] = share
                    unassigned.discard(fid)
                    for lk in active[fid].path_links:
                        if lk != best_link:
                            caps[lk] = max(0.0, caps[lk] - share)
                            if lk in live_weight:
                                live_weight[lk] -= w
                    cap_key = ("cap", fid)
                    if cap_key != best_link and cap_key in live_weight:
                        live_weight[cap_key] = 0.0
                caps[best_link] = 0.0
                live_weight.pop(best_link, None)
                members.pop(best_link, None)
        return rates

    def _rates_vectorized(self, slots: np.ndarray) -> np.ndarray:
        """Water-filling over a links×flows incidence matrix (numpy).

        Used for large components, where the python inner loop dominates;
        results match :meth:`_rates_scalar` up to float summation order.
        """
        n = len(slots)
        bw = self._bw_arr()
        global_rows, lens = self._slot_incidence(slots)
        weights = self._wt[slots]
        flow_caps = self._cap[slots]
        cols = np.repeat(np.arange(n), lens)
        uniq, inv = np.unique(global_rows, return_inverse=True)
        m = len(uniq)
        # TCP-window ceilings are virtual single-flow links appended below
        # the physical rows (level = cap/weight, share = rate_cap)
        capped = np.flatnonzero(np.isfinite(flow_caps))
        k = len(capped)
        incidence = np.zeros((m + k, n), dtype=float)
        incidence[inv, cols] = 1.0
        caps = bw[uniq]
        if k:
            incidence[m + np.arange(k), capped] = 1.0
            caps = np.concatenate([caps, flow_caps[capped]])
        live_link = np.ones(m + k, dtype=bool)
        unassigned = np.ones(n, dtype=bool)
        rates = np.full(n, np.inf)
        while unassigned.any():
            live_weight = incidence @ (weights * unassigned)
            candidates = live_link & (live_weight > 0)
            if not candidates.any():
                break  # leftovers traverse no constrained link: rate inf
            levels = np.where(
                candidates,
                caps / np.where(live_weight > 0, live_weight, 1.0),
                np.inf,
            )
            level = float(levels.min())
            # every link already sitting at the water level saturates in
            # this round (uniform-cap fleets collapse to a single pass)
            bottlenecks = levels == level
            assigned = (incidence[bottlenecks].any(axis=0)) & unassigned
            share = level * weights
            rates[assigned] = share[assigned]
            caps -= incidence @ np.where(assigned, share, 0.0)
            np.maximum(caps, 0.0, out=caps)
            caps[bottlenecks] = 0.0
            live_link &= ~bottlenecks
            unassigned &= ~assigned
        return rates

    # -- full recompute (reference) ----------------------------------------
    def _rebalance_full(self) -> None:
        """Recompute all rates and re-arm every completion time."""
        now = self.queue.now
        self.stats.full_recomputes += 1
        for f in self._flows.values():
            self._settle_flow(f, now)
        # retire any flow whose bytes drained since the last event; its
        # delivery is pinned at drained_at + propagation.
        for f in [f for f in self._flows.values()
                  if f.drained_at is not None or f.remaining <= 1e-9]:
            self._retire(f)
        rates = self._rates_scalar(
            f for f in self._flows.values()
            if f.drained_at is None and not f.paused
        )
        for f in list(self._flows.values()):
            old_rate = f.rate
            f.rate = rates.get(f.fid, 0.0)
            if f.on_rate_change is not None and f.rate != old_rate:
                f.on_rate_change(f, old_rate)
            self._disarm(f.slot)
            if f.rate > 0:  # stalled flows re-arm on the next rebalance
                self._arm(f, self._eta_of(f, now))
        self._aim()

    # -- drain / delivery --------------------------------------------------
    def _drain_check(self, flow: Flow) -> None:
        """Retire a flow the timer fired for, or re-arm it if bytes remain."""
        now = self.queue.now
        self._settle_flow(flow, now)
        if flow.remaining > 1e-6:
            # full mode: rates changed since the flow was armed; otherwise
            # sub-epsilon rate drift fired the timer slightly early
            if self.rebalance_mode == "full":
                self._rebalance_full()
            else:
                self._reschedule(flow, now)
            return
        quiet = self._quiet(flow)
        self._retire(flow)
        self._retrigger(flow, quiet)

    def _retire(self, flow: Flow) -> None:
        """Remove a fully drained flow and schedule its delivery."""
        now = self.queue.now
        if flow.drained_at is None:
            flow.drained_at = now
        self._remove(flow)
        # keep the delivery event on the flow so a late cancel_flow() during
        # the propagation tail still suppresses on_complete
        flow._completion_event = self.queue.schedule(
            max(now, flow.drained_at + flow.prop_latency),
            lambda: self._finish_flow(flow),
            f"deliver:{flow.label}",
        )

    def _finish_flow(self, flow: Flow) -> None:
        flow.done = True
        flow.finish_time = self.queue.now
        flow._completion_event = None
        flow.on_complete(flow)

    def _fail_flow(self, flow: Flow, exc: Exception) -> None:
        if flow.done or flow.failed:
            return
        flow.failed = True
        if flow._completion_event is not None:
            self.queue.cancel(flow._completion_event)
            flow._completion_event = None
        if flow.fid in self._flows:
            quiet = self._quiet(flow)
            self._remove(flow)
            self._retrigger(flow, quiet)
        elif self.rebalance_mode == "full":
            self._poke(self._rows_for(flow))  # seed parity: recompute anyway
        if flow.on_fail is not None:
            flow.on_fail(flow, exc)


def build_dumbbell(
    queue: EventQueue,
    lan_hosts: Iterable[str],
    wan_hosts: Iterable[str],
    lan_bandwidth: float = gbps(1.0),
    lan_latency: float = 0.0002,
    wan_bandwidth: float = mbps(100.0),
    wan_latency: float = 0.035,
) -> Network:
    """Convenience topology: a client LAN and a remote site joined by a WAN.

    Matches the paper's setup: client + client agent + LAN depots on a 1 Gb/s
    LAN in Knoxville; server depots behind an Abilene-class WAN path (~70 ms
    RTT Knoxville-California, ~100 Mb/s achievable).
    """
    net = Network(queue)
    lan = list(lan_hosts)
    wan = list(wan_hosts)
    net.add_node("lan-switch")
    net.add_node("wan-router")
    for h in lan:
        net.add_link(h, "lan-switch", lan_bandwidth, lan_latency)
    net.add_link("lan-switch", "wan-router", wan_bandwidth, wan_latency)
    for h in wan:
        net.add_link(h, "wan-router", wan_bandwidth, 0.002)
    return net
