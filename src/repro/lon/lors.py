"""Logistical Runtime System (LoRS): upload, download, augment, trim.

LoRS is the layer of the Network Storage Stack that composes raw IBP
operations into file-level tools.  The paper leans on three of its behaviours:

* **upload with striping + replication** — view sets "striped across three
  depots in California", replicas registered in one exNode;
* **multi-stream download** — "multi-threaded algorithms for high-performance
  downloads of wide-area, replicated data ... over 100Mb/s" [Plank et al.];
  here each block fetch is a concurrent simulated flow, so aggregate
  throughput genuinely rises with stream count until a shared link saturates;
* **augment (third-party copy)** — copying an exNode's blocks depot-to-depot
  without data touching the client, which implements the aggressive staging
  of Section 4.3.

All operations are asynchronous against the simulation event queue and report
through callbacks; :class:`Deferred` is a minimal result holder for callers
(and tests) that drive the queue to completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exnode import ExNode, Extent, Mapping
from .ibp import Depot, IBPError
from .lbone import LBone
from .network import Flow, Network, NetworkError
from .scheduler import (
    CancelToken,
    Priority,
    TransferHandle,
    TransferScheduler,
    TransferSpec,
)
from .simtime import EventQueue

__all__ = [
    "Deferred",
    "LoRS",
    "LoRSError",
    "DownloadJob",
    "CopyJob",
    "DEFAULT_BLOCK_SIZE",
]

#: default stripe block size (512 KiB — the LoRS tools' historical default).
DEFAULT_BLOCK_SIZE = 512 * 1024


class LoRSError(RuntimeError):
    """Unrecoverable LoRS operation failure."""


class Deferred:
    """A write-once result slot for asynchronous LoRS operations."""

    def __init__(self) -> None:
        self._value: object = None
        self._error: Optional[Exception] = None
        self._done = False
        self._callbacks: List[Callable[["Deferred"], None]] = []

    @property
    def done(self) -> bool:
        """True once resolved or failed."""
        return self._done

    @property
    def failed(self) -> bool:
        """True if resolved with an error."""
        return self._done and self._error is not None

    def resolve(self, value: object) -> None:
        """Set the success value (idempotence violation raises)."""
        if self._done:
            raise LoRSError("Deferred already completed")
        self._value = value
        self._done = True
        for cb in self._callbacks:
            cb(self)

    def reject(self, error: Exception) -> None:
        """Set the failure (idempotence violation raises)."""
        if self._done:
            raise LoRSError("Deferred already completed")
        self._error = error
        self._done = True
        for cb in self._callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Deferred"], None]) -> None:
        """Run ``cb(self)`` on completion (immediately if already done)."""
        if self._done:
            cb(self)
        else:
            self._callbacks.append(cb)

    def result(self) -> object:
        """The value; raises the stored error, or if not yet complete."""
        if not self._done:
            raise LoRSError("Deferred not yet completed")
        if self._error is not None:
            raise self._error
        return self._value


@dataclass
class _BlockFetch:
    """One outstanding block read within a download."""

    mapping: Mapping
    alternates: List[Mapping]
    handle: Optional[TransferHandle] = None
    attempts: int = 0


class DownloadJob:
    """Parallel, replica-aware download of an exNode to a network node.

    Blocks (one per covering mapping) are fetched concurrently up to
    ``max_streams``; each block prefers the lowest-latency replica and fails
    over to alternates on depot or network errors.  The result delivered to
    the deferred is the reassembled ``bytes``.
    """

    def __init__(
        self,
        lors: LoRS,
        exnode: ExNode,
        dest: str,
        max_streams: int,
        deferred: Deferred,
        priority: Priority = Priority.DEMAND,
        token: Optional[CancelToken] = None,
        span: object = None,
    ) -> None:
        self.lors = lors
        self.exnode = exnode
        self.dest = dest
        self.max_streams = max(1, max_streams)
        self.deferred = deferred
        self.priority = Priority(priority)
        self.token = token if token is not None else CancelToken()
        self.span = span  # parent span for every block-fetch flow
        #: sim time the first block flow was admitted (queue-wait boundary)
        self.t_first_flow: Optional[float] = None
        self.buffer = bytearray(exnode.length)
        self._pending: List[_BlockFetch] = []
        self._inflight = 0
        self._failed = False
        self._cancelled = False
        self._remaining_blocks = 0
        self.bytes_fetched = 0
        self.per_depot_bytes: Dict[str, int] = {}
        self.token.on_cancel(self.cancel)

    # -- plan -----------------------------------------------------------
    def start(self) -> None:
        """Choose a covering set of mappings and launch the first streams."""
        try:
            plan = self._plan_blocks()
        except LoRSError as exc:
            self.deferred.reject(exc)
            return
        self._pending = plan
        self._remaining_blocks = len(plan)
        if not plan:
            self.deferred.resolve(bytes(self.buffer))
            return
        self._pump()

    def cancel(self) -> None:
        """Abort the download; the deferred is rejected."""
        if self.deferred.done or self._cancelled:
            return
        self._cancelled = True
        for bf in self._pending:
            if bf.handle is not None:
                bf.handle.cancel()
        self.token.cancel()
        self.deferred.reject(LoRSError("download cancelled"))

    def promote(self, priority: Priority) -> None:
        """Raise the urgency of every outstanding and future block fetch."""
        priority = Priority(priority)
        if priority >= self.priority:
            return
        self.priority = priority
        for bf in self._pending:
            if bf.handle is not None:
                bf.handle.promote(priority)

    def _plan_blocks(self) -> List[_BlockFetch]:
        """Greedy minimal cover of [0, length) by mapping extents.

        Replicas for each chosen extent are ranked by latency from the
        destination; ties by depot name for determinism.
        """
        if self.exnode.length == 0:
            return []
        by_extent: Dict[Tuple[int, int], List[Mapping]] = {}
        for m in self.exnode.mappings:
            by_extent.setdefault(
                (m.extent.offset, m.extent.length), []
            ).append(m)
        blocks: List[_BlockFetch] = []
        covered_to = 0
        for off, ln in sorted(by_extent):
            replicas = by_extent[(off, ln)]
            if off > covered_to:
                raise LoRSError(
                    f"exNode {self.exnode.name!r} has a coverage hole at "
                    f"byte {covered_to}"
                )
            if off + ln <= covered_to:
                continue  # fully shadowed by earlier extents
            ranked = sorted(
                replicas,
                key=lambda m: (
                    self.lors.lbone.latency_from(self.dest, m.depot),
                    m.depot,
                ),
            )
            blocks.append(_BlockFetch(mapping=ranked[0],
                                      alternates=ranked[1:]))
            covered_to = off + ln
        if covered_to < self.exnode.length:
            raise LoRSError(
                f"exNode {self.exnode.name!r} covers only {covered_to} of "
                f"{self.exnode.length} bytes"
            )
        return blocks

    # -- stream pump ------------------------------------------------------
    def _pump(self) -> None:
        """Launch every runnable block, one RPC event per distinct delay.

        Blocks whose depot request round-trips are identical (the common
        case: replicas striped across equidistant depots) arrive together
        and admit as one :meth:`TransferScheduler.submit_batch` — the
        flash-crowd batch the vectorized admission path is built for —
        while also collapsing per-block ``lors-dl-rpc`` events into one.
        """
        if self._failed or self._cancelled:
            return
        groups: Dict[float, List[Tuple[_BlockFetch, bytes]]] = {}
        order: List[float] = []
        for bf in self._pending:
            if self._inflight >= self.max_streams:
                break
            if bf.handle is not None or bf.attempts != 0:
                continue
            bf.attempts += 1
            self._inflight += 1
            m = bf.mapping
            try:
                # an unreachable replica (NoRouteError) fails over too
                rpc = self.lors.network.rpc_delay(self.dest, m.depot)
                depot = self.lors.lbone.lookup(m.depot)
                data = depot.load(m.read_cap, 0, m.extent.length)
            except (IBPError, Exception) as exc:  # noqa: BLE001 - failover
                self._inflight -= 1
                self._failover(bf, exc)
                if self._failed or self._cancelled:
                    return
                continue
            bucket = groups.get(rpc)
            if bucket is None:
                groups[rpc] = bucket = []
                order.append(rpc)
            bucket.append((bf, data))
        for rpc in order:
            blocks = groups[rpc]
            self.lors.queue.schedule_in(
                rpc,
                lambda blocks=blocks: self._begin_flows(blocks),
                "lors-dl-rpc",
            )

    def _launch(self, bf: _BlockFetch) -> None:
        """Failover relaunch of a single block (its own RPC round-trip)."""
        bf.attempts += 1
        self._inflight += 1
        m = bf.mapping
        try:
            # request round-trip then bulk flow back to the destination;
            # an unreachable replica (NoRouteError) fails over too
            rpc = self.lors.network.rpc_delay(self.dest, m.depot)
            depot = self.lors.lbone.lookup(m.depot)
            data = depot.load(m.read_cap, 0, m.extent.length)
        except (IBPError, Exception) as exc:  # noqa: BLE001 - failover path
            self._inflight -= 1
            self._failover(bf, exc)
            return
        blocks = [(bf, data)]
        self.lors.queue.schedule_in(
            rpc, lambda: self._begin_flows(blocks), "lors-dl-rpc"
        )

    def _begin_flows(
        self, blocks: List[Tuple[_BlockFetch, bytes]]
    ) -> None:
        """Admit one RPC group's block flows as a single batch."""
        if self._failed or self._cancelled:
            return
        specs: List[TransferSpec] = []
        live: List[_BlockFetch] = []
        for bf, data in blocks:
            m = bf.mapping
            try:
                self.lors.network.route(m.depot, self.dest)
            except NetworkError as exc:
                # the depot was partitioned between request and response
                self._inflight -= 1
                self._failover(bf, exc)
                if self._failed or self._cancelled:
                    return
                continue
            specs.append(TransferSpec(
                m.depot,
                self.dest,
                m.extent.length,
                on_complete=lambda fl, bf=bf, data=data:
                    self._block_done(bf, data),
                on_fail=lambda fl, exc, bf=bf: self._block_failed(bf, exc),
                label=f"dl:{self.exnode.name}:{m.extent.offset}",
                priority=self.priority,
                token=self.token,
                span=self.span,
            ))
            live.append(bf)
        if not specs:
            return
        handles = self.lors.scheduler.submit_batch(specs)
        for bf, handle in zip(live, handles):
            bf.handle = handle
        if self.t_first_flow is None:
            self.t_first_flow = self.lors.queue.now

    def _block_done(self, bf: _BlockFetch, data: bytes) -> None:
        if self._failed or self._cancelled:
            return
        self._inflight -= 1
        m = bf.mapping
        self.buffer[m.extent.offset:m.extent.end] = data
        self.bytes_fetched += m.extent.length
        self.per_depot_bytes[m.depot] = (
            self.per_depot_bytes.get(m.depot, 0) + m.extent.length
        )
        self._pending.remove(bf)
        self._remaining_blocks -= 1
        if self._remaining_blocks == 0:
            self.deferred.resolve(bytes(self.buffer))
        else:
            self._pump()

    def _block_failed(self, bf: _BlockFetch, exc: Exception) -> None:
        if self._failed or self._cancelled:
            return
        self._inflight -= 1
        self._failover(bf, exc)

    def _failover(self, bf: _BlockFetch, exc: Exception) -> None:
        if bf.alternates:
            bf.mapping = bf.alternates.pop(0)
            bf.handle = None
            self._launch(bf)
            return
        self._failed = True
        for other in self._pending:
            if other.handle is not None:
                other.handle.cancel()
        self.deferred.reject(
            LoRSError(
                f"download of {self.exnode.name!r} failed at extent "
                f"{bf.mapping.extent}: {exc}"
            )
        )


class CopyJob:
    """Third-party copy of an exNode's blocks onto a target depot.

    Used by aggressive staging: data moves depot→depot; the initiating node
    only pays small manage RPCs.  On success the deferred resolves with the
    list of new :class:`Mapping` objects (the caller augments its exNode or
    registers them with the DVS).
    """

    def __init__(
        self,
        lors: LoRS,
        exnode: ExNode,
        target: Depot,
        duration: float,
        soft: bool,
        deferred: Deferred,
        max_streams: int = 4,
        priority: Priority = Priority.STAGING,
        token: Optional[CancelToken] = None,
        span: object = None,
    ) -> None:
        self.lors = lors
        self.exnode = exnode
        self.target = target
        self.duration = duration
        self.soft = soft
        self.deferred = deferred
        self.max_streams = max(1, max_streams)
        self.priority = Priority(priority)
        self.token = token if token is not None else CancelToken()
        self.span = span  # parent span for every block-copy flow
        self.new_mappings: List[Mapping] = []
        self._remaining = 0
        self._failed = False
        self._cancelled = False
        self._handles: List[TransferHandle] = []
        self._queue_blocks: List[Tuple[Mapping, List[Mapping]]] = []
        self._inflight = 0
        self.token.on_cancel(self.cancel)

    def start(self) -> None:
        """Launch depot→depot block copies, ``max_streams`` at a time."""
        # reuse the download planner's greedy cover via a throwaway job
        probe = DownloadJob(self.lors, self.exnode, self.target.name, 1,
                            Deferred())
        try:
            blocks = probe._plan_blocks()
        except LoRSError as exc:
            self.deferred.reject(exc)
            return
        if not blocks:
            self.deferred.resolve([])
            return
        self._remaining = len(blocks)
        self._queue_blocks = [(bf.mapping, list(bf.alternates))
                              for bf in blocks]
        self._pump()

    def _pump(self) -> None:
        """Fill free stream slots; first-attempt copies admit as one batch.

        Depot-side work (``copy_out`` + target allocation) is synchronous,
        so hoisting it ahead of the batched admission reorders nothing;
        failovers retry through the scalar :meth:`_copy_block` path.
        """
        specs: List[TransferSpec] = []
        while (
            self._queue_blocks
            and self._inflight < self.max_streams
            and not (self._failed or self._cancelled)
        ):
            m, alternates = self._queue_blocks.pop(0)
            self._inflight += 1
            spec = self._copy_spec(m, alternates)
            if spec is not None:
                specs.append(spec)
        if not specs or self._failed or self._cancelled:
            return
        handles = self.lors.scheduler.submit_batch(specs)
        self._handles.extend(handles)

    def _copy_spec(
        self, m: Mapping, alternates: List[Mapping]
    ) -> Optional[TransferSpec]:
        """Depot-side work + spec for one block copy; None on failover."""
        try:
            src_depot = self.lors.lbone.lookup(m.depot)
            data = src_depot.copy_out(m.read_cap, 0, m.extent.length)
            rcap, wcap, mcap = self.target.allocate(
                m.extent.length, self.duration, soft=self.soft
            )
            # routability pre-check so a partitioned depot fails over here
            # (the scalar path learns it from submit raising NoRouteError)
            self.lors.network.route(m.depot, self.target.name)
        except (IBPError, Exception) as exc:  # noqa: BLE001 - failover path
            self._block_copy_failed(m, alternates, exc)
            return None

        def deliver(fl: Flow) -> None:
            if self._failed or self._cancelled:
                return
            try:
                self.target.store(wcap, data)
            except IBPError as exc:
                self._block_copy_failed(m, alternates, exc)
                return
            self.new_mappings.append(
                Mapping(
                    extent=m.extent,
                    read_cap=rcap,
                    write_cap=wcap,
                    manage_cap=mcap,
                )
            )
            self._remaining -= 1
            self._inflight -= 1
            if self._remaining == 0 and not self.deferred.done:
                self.deferred.resolve(list(self.new_mappings))
            else:
                self._pump()

        return TransferSpec(
            m.depot,
            self.target.name,
            m.extent.length,
            on_complete=deliver,
            on_fail=lambda fl, exc: self._block_copy_failed(
                m, alternates, exc
            ),
            label=f"copy:{self.exnode.name}:{m.extent.offset}",
            priority=self.priority,
            token=self.token,
            span=self.span,
        )

    def cancel(self) -> None:
        """Abort outstanding block copies; rejects the deferred."""
        if self.deferred.done or self._cancelled:
            return
        self._cancelled = True
        for h in self._handles:
            h.cancel()
        self.token.cancel()
        self.deferred.reject(LoRSError("copy cancelled"))

    def promote(self, priority: Priority) -> None:
        """Raise the urgency of every outstanding and future block copy."""
        priority = Priority(priority)
        if priority >= self.priority:
            return
        self.priority = priority
        for h in self._handles:
            h.promote(priority)

    def _copy_block(self, m: Mapping, alternates: List[Mapping]) -> None:
        """Scalar (failover) admission of one block copy."""
        spec = self._copy_spec(m, alternates)
        if spec is None:
            return
        handle = self.lors.scheduler.submit(
            spec.src,
            spec.dst,
            spec.size,
            on_complete=spec.on_complete,
            on_fail=spec.on_fail,
            label=spec.label,
            priority=spec.priority,
            token=spec.token,
            span=spec.span,
        )
        self._handles.append(handle)

    def _block_copy_failed(
        self, m: Mapping, alternates: List[Mapping], exc: Exception
    ) -> None:
        if self._failed or self._cancelled:
            return
        if alternates:
            self._copy_block(alternates[0], alternates[1:])
            return
        self._failed = True
        for h in self._handles:
            h.cancel()
        if not self.deferred.done:
            self.deferred.reject(
                LoRSError(
                    f"third-party copy of {self.exnode.name!r} failed: {exc}"
                )
            )


class LoRS:
    """Facade tying the network, L-Bone and depots into file operations.

    Every byte-moving operation issues its flows through a
    :class:`~repro.lon.scheduler.TransferScheduler`.  When the caller does
    not supply one, a private ``policy="off"`` scheduler reproduces the
    historical priority-blind behaviour exactly.
    """

    def __init__(
        self,
        queue: EventQueue,
        network: Network,
        lbone: LBone,
        scheduler: Optional[TransferScheduler] = None,
    ) -> None:
        self.queue = queue
        self.network = network
        self.lbone = lbone
        self.scheduler = (
            scheduler if scheduler is not None
            else TransferScheduler(network, policy="off")
        )

    # ------------------------------------------------------------------
    # placement (offline pre-distribution, as the paper's server does)
    # ------------------------------------------------------------------
    def place(
        self,
        name: str,
        data: bytes,
        depots: Sequence[Depot],
        stripe_width: int = 1,
        replicas: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        duration: float = 3600.0,
        soft: bool = False,
        metadata: Optional[Dict[str, str]] = None,
    ) -> ExNode:
        """Synchronously stripe + replicate ``data`` across ``depots``.

        This models the *offline* pre-distribution step ("the server
        generates the light field database ... then uploaded to IBP depots");
        no simulated network time elapses.  Blocks are laid out round-robin
        over the first ``stripe_width`` depots; replica ``r`` of block ``i``
        goes to depot ``(i + r) % stripe_width`` offset into the depot list,
        guaranteeing distinct depots per replica when enough are supplied.
        """
        if not depots:
            raise LoRSError("place() requires at least one depot")
        if stripe_width < 1:
            raise LoRSError("stripe_width must be >= 1")
        if replicas < 1:
            raise LoRSError("replicas must be >= 1")
        if replicas > len(depots):
            raise LoRSError(
                f"cannot place {replicas} distinct replicas on "
                f"{len(depots)} depots"
            )
        if block_size <= 0:
            raise LoRSError("block_size must be positive")
        stripe_width = min(stripe_width, len(depots))
        exnode = ExNode(name=name, length=len(data), metadata=metadata)
        n_blocks = (len(data) + block_size - 1) // block_size
        for i in range(n_blocks):
            off = i * block_size
            chunk = data[off:off + block_size]
            extent = Extent(off, len(chunk))
            for r in range(replicas):
                depot = depots[(i % stripe_width + r) % len(depots)]
                rcap, wcap, mcap = depot.allocate(
                    len(chunk), duration, soft=soft
                )
                depot.store(wcap, chunk)
                exnode.add_mapping(
                    Mapping(
                        extent=extent,
                        read_cap=rcap,
                        write_cap=wcap,
                        manage_cap=mcap,
                    )
                )
        return exnode

    # ------------------------------------------------------------------
    # online operations
    # ------------------------------------------------------------------
    def upload(
        self,
        name: str,
        data: bytes,
        source: str,
        depots: Sequence[Depot],
        stripe_width: int = 1,
        replicas: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        duration: float = 3600.0,
        soft: bool = False,
        priority: Priority = Priority.MAINTENANCE,
        token: Optional[CancelToken] = None,
        span: object = None,
    ) -> Deferred:
        """Asynchronous upload from ``source``: place + pay for the flows.

        The layout matches :meth:`place`; the deferred resolves with the
        resulting :class:`ExNode` once every block flow has been delivered.
        Uploads default to the MAINTENANCE class: database upkeep should
        never crowd out a user-facing fetch.
        """
        deferred = Deferred()
        try:
            exnode = self.place(
                name, data, depots, stripe_width, replicas, block_size,
                duration, soft,
            )
        except (LoRSError, IBPError) as exc:
            deferred.reject(exc)
            return deferred
        remaining = len(exnode.mappings)
        if remaining == 0:
            deferred.resolve(exnode)
            return deferred
        state = {"left": remaining, "failed": False}

        def done(_fl: Flow) -> None:
            if state["failed"]:
                return
            state["left"] -= 1
            if state["left"] == 0:
                deferred.resolve(exnode)

        def fail(_fl: Flow, exc: Exception) -> None:
            if state["failed"]:
                return
            state["failed"] = True
            deferred.reject(LoRSError(f"upload of {name!r} failed: {exc}"))

        self.scheduler.submit_batch([
            TransferSpec(
                source, m.depot, m.extent.length,
                on_complete=done, on_fail=fail,
                label=f"ul:{name}:{m.extent.offset}",
                priority=Priority(priority),
                token=token,
                span=span,
            )
            for m in exnode.mappings
        ])
        return deferred

    def download(
        self,
        exnode: ExNode,
        dest: str,
        max_streams: int = 8,
        priority: Priority = Priority.DEMAND,
        token: Optional[CancelToken] = None,
        span: object = None,
    ) -> Deferred:
        """Fetch a whole exNode to node ``dest``; resolves with ``bytes``.

        ``priority`` sets the scheduling class of every block flow (DEMAND
        for a waiting user, PREFETCH for speculative warm-up); the returned
        deferred's ``job`` can be promoted mid-flight via ``job.promote``.
        ``span`` (optional) parents every block-fetch transfer span.
        """
        deferred = Deferred()
        job = DownloadJob(self, exnode, dest, max_streams, deferred,
                          priority=priority, token=token, span=span)
        deferred.job = job  # type: ignore[attr-defined]
        job.start()
        return deferred

    def augment(
        self,
        exnode: ExNode,
        target: Depot,
        duration: float = 3600.0,
        soft: bool = True,
        max_streams: int = 4,
        priority: Priority = Priority.STAGING,
        token: Optional[CancelToken] = None,
        span: object = None,
    ) -> Deferred:
        """Third-party copy onto ``target``; resolves with new mappings.

        Staged copies default to *soft* allocations: the LAN depot may
        reclaim them under pressure, exactly the revocable idle-resource
        sharing LoN advertises.  ``max_streams`` bounds concurrent block
        flows (the staging aggressiveness knob).  Copies run in the STAGING
        class by default and can be promoted to DEMAND mid-flight.
        """
        deferred = Deferred()
        job = CopyJob(self, exnode, target, duration, soft, deferred,
                      max_streams=max_streams, priority=priority, token=token,
                      span=span)
        deferred.job = job  # type: ignore[attr-defined]
        job.start()
        return deferred

    def trim(self, exnode: ExNode, depot_name: str) -> int:
        """Drop the replica on ``depot_name``: decrement refs, strip mappings."""
        depot = self.lbone.lookup(depot_name)
        for m in exnode.mappings:
            if m.depot == depot_name and m.manage_cap is not None:
                try:
                    depot.manage_decrement(m.manage_cap)
                except IBPError:
                    pass  # already expired/reclaimed — trimming is best effort
        return exnode.remove_depot(depot_name)
