"""The four benchmark workloads.

Each workload is a closed loop in one process: the next operation starts
when the previous one has finished.  ``run_<name>(seed, seconds)``
measures with tracing off; ``trace_<name>(seed, seconds)`` runs the same
work untraced and then traced and returns per-layer metrics.  Both return
an :class:`Outcome`.  Inputs (cursor traces, view-set picks) come from
``seed`` alone; check work runs outside the timed regions.

* ``contended`` / ``fleet`` — the LoN event core: multi-client sessions
  over the simulated network (:mod:`repro.streaming.multiclient`).
* ``browse`` — the client: decode + light-field synthesis per cursor
  sample, no simulator.
* ``generate`` — the generator: ray-cast + zlib-compress view sets.

Every run does its work twice (or more) on identical inputs and keeps,
item by item, the fastest of the repetitions (:func:`best_of`).  On a
shared host other tenants slow a process down in bursts of a few seconds;
interference only ever adds time, so the per-item minimum is the least
disturbed measurement of each item.  The repetition doubles as a check:
identical inputs must give identical outputs.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import statistics
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from repro.analysis.determinism import MODELED_CPU_SECONDS_PER_BYTE
from repro.lightfield import (
    CameraLattice,
    DictProvider,
    LightFieldBuilder,
    LightFieldSynthesizer,
    SyntheticSource,
    ViewSet,
    ZlibCodec,
)
from repro.lon import gbps, mbps
from repro.obs import fleet_qgr
from repro.render import RaycastRenderer, RenderSettings, orbit_camera, to_uint8
from repro.streaming import (
    MultiClientConfig,
    SessionConfig,
    build_multiclient_rig,
    run_multiclient_session,
    standard_trace,
)
from repro.volume import neg_hip, preset

from layers import LayerTrace, RigProbe, TimedSpheres, attach_rig

#: Seed kept out of development; check a claimed gain on it as well.
HELD_OUT_SEED = 20031117

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: description of every failed output check (empty = correct)
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: digests, exceptions and other facts for the run's stamp line
    notes: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[LayerTrace] = None

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    def crashed(self, exc: Exception, planned: int) -> None:
        """Record an exception: every planned operation counts as failed."""
        self.attempted += planned
        self.failed += planned
        self.fail(repr(exc))
        self.notes["exception"] = repr(exc)


def best_of(rows: List[List[float]]) -> List[float]:
    """Per-item minimum over repetitions of identical work."""
    return [min(col) for col in zip(*rows)]


def _p90(values: List[float]) -> float:
    # "inclusive" interpolates inside the sample; the default method
    # extrapolates past the maximum when there are few values
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _timed_setups(build: Callable[[], Any]) -> Tuple[List[float], Any]:
    """Run ``build`` :data:`SETUPS` times; its times and last result."""
    times, built = [], None
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
    return times, built


def _passes(seconds: float, run_pass: Callable[[], Any],
            minimum: int = 2) -> List[Any]:
    """At least ``minimum`` passes, more while ``seconds`` have not passed."""
    passes = []
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        passes.append(run_pass())
    return passes


# ----------------------------------------------------------------------
# simulator workloads: contended, fleet
# ----------------------------------------------------------------------
#: fired events per timing slice of a simulator session
SLICE_EVENTS = 1024


@dataclass(frozen=True)
class SimSpec:
    """One multi-client rig: ``seeds`` distinct sessions per run, each
    repeated ``reps`` or more times."""

    n_clients: int
    n_accesses: int
    session: Dict[str, Any]
    seeds: int
    reps: int
    lattice: Tuple[int, int, int] = (30, 60, 3)
    resolution: int = 64

    def source(self) -> SyntheticSource:
        return SyntheticSource(CameraLattice(*self.lattice),
                               resolution=self.resolution)

    def config(self, seed: int) -> MultiClientConfig:
        base = SessionConfig(
            case=3, n_accesses=self.n_accesses, trace_seed=seed,
            # modelled decode cost: host timing never reaches sim time
            cpu_seconds_per_byte=MODELED_CPU_SECONDS_PER_BYTE,
            prefetch_policy="all-neighbors", **self.session,
        )
        return MultiClientConfig(base=base, n_clients=self.n_clients,
                                 seed_stride=101, start_stagger=0.25)

    @property
    def planned(self) -> int:
        """Accesses of one pass over the distinct sessions."""
        return self.seeds * self.n_clients * self.n_accesses


#: bandwidth-scarce flash crowd: big windows over a thin WAN keep the
#: rate solver re-rating shared components (flush-bound).  Its cost per
#: event depends on how the 4 cursor walks overlap: single sessions of
#: one seed took from 4.8 s to 9.4 s, so each run averages 3 of them
CONTENDED = SimSpec(
    n_clients=4, n_accesses=25, seeds=3, reps=1,
    session=dict(wan_bandwidth=mbps(40.0), wan_latency=0.08,
                 depot_access_bandwidth=mbps(50.0), tcp_window=256 * 1024,
                 block_size=2048, max_streams=8, staging_concurrency=24,
                 staging_streams=12, network_vectorize_threshold=12),
)

#: window-capped steady state: the quiet-link fast path absorbs every
#: rate trigger, so staging, scheduling, LoRS and IBP bookkeeping dominate.
#: 64 walks already average out; repeating the session filters host noise
FLEET = SimSpec(
    n_clients=64, n_accesses=15, seeds=1, reps=2,
    session=dict(wan_bandwidth=gbps(2.0), wan_latency=0.08,
                 depot_access_bandwidth=mbps(400.0), tcp_window=8 * 1024,
                 block_size=256 * 1024, staging_concurrency=16,
                 staging_streams=4),
)


def sim_setup(spec: SimSpec, seed: int) -> SyntheticSource:
    """Build and warm the payload source, then wire one rig.

    Wiring includes the server's ``pre_distribute`` placement; the rig is
    discarded, sessions wire their own.
    """
    source = spec.source()
    for key in source.lattice.all_viewsets():
        source.payload(key)
    build_multiclient_rig(source, spec.config(seed))
    return source


@dataclass
class SimSession:
    """One session: its timings, access records and attempt counts."""

    seed: int
    loop_s: float
    #: host seconds per :data:`SLICE_EVENTS` fired events (untraced only)
    slices: List[float]
    fired: int
    attempted: List[int]
    records: List[List[Any]]
    probe: Optional[RigProbe] = None

    @property
    def latencies(self) -> List[float]:
        return [a.total_latency for client in self.records for a in client]

    def digest(self) -> str:
        """Hash of every access record, floats bit-exact."""
        h = hashlib.sha256()
        for c, client in enumerate(self.records):
            for a in client:
                h.update(repr((
                    c, a.index, a.viewset_id, a.source.value,
                    a.request_time.hex(), a.comm_latency.hex(),
                    a.decompress_seconds.hex(), a.total_latency.hex(),
                )).encode())
        return h.hexdigest()


def _slicer(marks: List[float]) -> Callable[[Any], None]:
    """``EventQueue.on_fire`` observer stamping every SLICE_EVENTS events."""
    count = itertools.count(1)
    clock = time.perf_counter

    def on_fire(_event: Any) -> None:
        if next(count) % SLICE_EVENTS == 0:
            marks.append(clock())

    return on_fire


def sim_session(spec: SimSpec, source: SyntheticSource, seed: int,
                trace: Optional[LayerTrace] = None) -> SimSession:
    """One session on a warm source, timed from ``rig_hook`` to return."""
    # the previous session's rig is garbage full of reference cycles;
    # collect it now rather than inside this session's timed loop
    gc.collect()
    box: Dict[str, Any] = {}
    marks: List[float] = []

    def hook(rig: Any) -> None:
        box["rig"] = rig
        if trace is not None:
            box["probe"] = attach_rig(trace, rig)
        else:
            rig.queue.on_fire = _slicer(marks)
        marks.append(time.perf_counter())

    try:
        result = run_multiclient_session(source, spec.config(seed),
                                         rig_hook=hook)
    finally:
        if trace is not None:
            trace.remove()
    marks.append(time.perf_counter())
    rig = box["rig"]
    return SimSession(
        seed=seed,
        loop_s=marks[-1] - marks[0],
        slices=[b - a for a, b in zip(marks, marks[1:])],
        fired=result.events_fired,
        attempted=[len(t.viewset_accesses(source.lattice))
                   for t in rig.traces],
        records=[list(m.accesses) for m in result.per_client],
        probe=box.get("probe"),
    )


def _check_session(out: Outcome, spec: SimSpec,
                   r: SimSession) -> SimSession:
    out.attempted += sum(r.attempted)
    for c, (want, got) in enumerate(zip(r.attempted, r.records)):
        out.failed += max(0, want - len(got))
        if len(got) != want:
            out.fail(f"seed {r.seed} client {c}: {len(got)} of {want} "
                     "accesses completed")
    if r.attempted != [spec.n_accesses] * spec.n_clients:
        out.fail(f"seed {r.seed}: traces attempt {r.attempted}, expected "
                 f"{spec.n_accesses} each")
    return r


def _sub_seed(seed: int, k: int) -> int:
    """Trace seed of a run's ``k``-th distinct session."""
    return seed * 100_003 + k * 10_007


def run_sim(spec: SimSpec, seed: int, seconds: float) -> Outcome:
    """``spec.seeds`` distinct sessions, each ``spec.reps`` times; then
    more repetitions, in the same order, while time remains.

    The simulated figures come from the first pass over the distinct
    sessions, so they never depend on host speed.
    """
    out = Outcome()
    seeds = [_sub_seed(seed, k) for k in range(spec.seeds)]
    try:
        setups, source = _timed_setups(lambda: sim_setup(spec, seeds[0]))
        passes = _passes(seconds, lambda: [
            _check_session(out, spec, sim_session(spec, source, s))
            for s in seeds
        ], minimum=spec.reps)
    except Exception as exc:  # recorded, never dropped
        out.crashed(exc, spec.planned)
        return out
    first = passes[0]
    best_s = 0.0
    for k, s in enumerate(seeds):
        reps = [p[k] for p in passes]
        if any(r.digest() != reps[0].digest()
               or len(r.slices) != len(reps[0].slices) for r in reps):
            out.fail(f"seed {s}: a repeated session diverged")
            return out
        best_s += sum(best_of([r.slices for r in reps]))
    out.metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(r.fired for r in first) / best_s,
        "wait_p90_ms": 1e3 * _p90([x for r in first for x in r.latencies]),
    }
    out.notes.update(
        passes=len(passes), events_fired=[r.fired for r in first],
        loop_s=[[r.loop_s for r in p] for p in passes], best_loop_s=best_s,
        access_digests=[r.digest()[:16] for r in first],
    )
    return out


def trace_sim(spec: SimSpec, seed: int, seconds: float) -> Outcome:
    """One session untraced, then the same session traced."""
    out = Outcome()
    trace = LayerTrace()
    seed = _sub_seed(seed, 0)
    try:
        source = sim_setup(spec, seed)
        plain = sim_session(spec, source, seed)
        traced = sim_session(spec, source, seed, trace)
    except Exception as exc:
        out.crashed(exc, 2 * spec.n_clients * spec.n_accesses)
        return out
    for r in (plain, traced):
        _check_session(out, spec, r)
    if plain.digest() != traced.digest():
        out.fail("traced run changed the access records")
    if trace.installed:
        out.fail(f"{trace.installed} wrappers left installed")
    assert traced.probe is not None
    c = traced.probe.counters()
    if c["pending0"] + c["scheduled"] != (c["fired"] + c["cancelled"]
                                          + c["pending"]):
        out.fail(f"event accounting does not balance: {c}")
    accesses = [a for client in traced.records for a in client]
    out.metrics = traced.probe.metrics()
    out.metrics.update({
        "session.access_latency_p50_s": statistics.median(
            traced.latencies),
        "session.access_latency_p90_s": _p90(traced.latencies),
        "session.qgr": fleet_qgr(accesses),
        "trace.overhead_ratio": traced.loop_s / plain.loop_s,
    })
    out.notes.update(
        traced_wall_s=traced.loop_s, untraced_wall_s=plain.loop_s,
        access_digest=traced.digest()[:16], spans=len(trace.spans),
    )
    out.trace = trace
    return out


# ----------------------------------------------------------------------
# client workload: browse
# ----------------------------------------------------------------------
#: decoded view sets the browse console keeps (LRU); a frame needs <= 4
BROWSE_RESIDENT = 8


@dataclass(frozen=True)
class BrowseSpec:
    """The paper's client loop over a synthetic light field database."""

    lattice: Tuple[int, int, int] = (12, 24, 3)
    resolution: int = 300
    #: frames per pass: the first samples of the seed's cursor trace
    frames: int = 48


def browse_setup(spec: BrowseSpec) -> SyntheticSource:
    """The database: every view set's compressed payload, warm."""
    source = SyntheticSource(CameraLattice(*spec.lattice),
                             resolution=spec.resolution)
    for key in source.lattice.all_viewsets():
        source.payload(key)
    return source


class Viewer:
    """Console state: resident view sets and the synthesizer."""

    def __init__(self, spec: BrowseSpec, source: SyntheticSource,
                 trace: Optional[LayerTrace] = None) -> None:
        self.spec = spec
        self.source = source
        self.trace = trace
        self.provider = DictProvider({})
        self.resident: OrderedDict = OrderedDict()
        spheres = (source.spheres if trace is None
                   else TimedSpheres(trace, source.spheres))
        self.synth = LightFieldSynthesizer(
            source.lattice, spheres, spec.resolution, self.provider,
            interpolation="quadrilinear",
        )
        self.codec = ZlibCodec()
        self.decoded_bytes = 0
        if trace is not None:
            trace.wrap(self.synth, "render_rays", "synthesis.render")
            trace.wrap(self.codec, "decompress", "compression.decompress")
        self._radius = source.spheres.r_outer * 2.0
        self._fov = source.spheres.camera_fov_deg() * 0.5

    def frame(self, theta: float, phi: float) -> Tuple[np.ndarray, float]:
        """Decode what the view needs, then synthesize it."""
        cam = orbit_camera(theta, phi, radius=self._radius,
                           resolution=self.spec.resolution,
                           fov_deg=self._fov)
        origins, dirs = cam.rays()
        changed = False
        for key in sorted(self.synth.required_viewsets(origins, dirs)):
            if key in self.resident:
                self.resident.move_to_end(key)
                continue
            vs, _ = self.codec.decompress(self.source.payload(key))
            self.decoded_bytes += vs.nbytes
            if self.trace is not None:
                self.trace.count(vs, "view_for_camera",
                                 "synthesis.view_for_camera")
            self.provider.add(vs)
            self.resident[key] = None
            changed = True
            while len(self.resident) > BROWSE_RESIDENT:
                self.provider.remove(self.resident.popitem(last=False)[0])
        if changed:
            self.synth.invalidate_cache()
        colors, coverage, _ = self.synth.render_rays(origins, dirs)
        return colors, coverage


@dataclass
class BrowsePass:
    """Frames from a cold console over one cursor trace."""

    frame_ms: List[float]
    #: SHA-256 of each frame's pixels
    digests: List[str]
    #: raw bytes of the view sets the pass decoded
    decoded_bytes: int


def browse_samples(spec: BrowseSpec, source: SyntheticSource,
                   seed: int) -> List[Any]:
    """The first ``spec.frames`` cursor samples of the seed's trace."""
    trace = standard_trace(source.lattice, n_accesses=spec.frames,
                           seed=seed)
    return list(trace)[:spec.frames]


def browse_pass(spec: BrowseSpec, source: SyntheticSource,
                samples: List[Any], out: Outcome,
                trace: Optional[LayerTrace] = None) -> BrowsePass:
    """One frame per sample, from a cold console.

    A frame's time runs from its cursor sample to the frame being ready,
    including any decode it waits on.
    """
    viewer = Viewer(spec, source, trace)
    frame_ms: List[float] = []
    digests: List[str] = []
    for s in samples:
        t0 = time.perf_counter()
        colors, coverage = viewer.frame(s.theta, s.phi)
        frame_ms.append(1e3 * (time.perf_counter() - t0))
        digests.append(hashlib.sha256(colors.tobytes()).hexdigest())
        out.attempted += 1
        if coverage != 1.0:
            out.failed += 1
            out.fail(f"frame {len(frame_ms)}: coverage {coverage}")
    return BrowsePass(frame_ms, digests, viewer.decoded_bytes)


def _check_replay(out: Outcome, passes: List[BrowsePass]) -> None:
    if any(p.digests != passes[0].digests for p in passes):
        out.fail("frames differ when replayed from a cold console")
    whole = "".join(passes[0].digests).encode()
    out.notes["frame_digest"] = hashlib.sha256(whole).hexdigest()[:16]


def run_browse(spec: BrowseSpec, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    setups, source = _timed_setups(lambda: browse_setup(spec))
    samples = browse_samples(spec, source, seed)
    passes = _passes(seconds,
                     lambda: browse_pass(spec, source, samples, out))
    _check_replay(out, passes)
    best = best_of([p.frame_ms for p in passes])
    out.metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1e3 * len(best) / sum(best),
        "wait_p90_ms": _p90(best),
    }
    out.notes.update(passes=len(passes),
                     frame_ms_p50=statistics.median(best))
    return out


def trace_browse(spec: BrowseSpec, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    source = browse_setup(spec)
    samples = browse_samples(spec, source, seed)
    plain = browse_pass(spec, source, samples, out)
    trace = LayerTrace()
    try:
        traced = browse_pass(spec, source, samples, out, trace=trace)
    finally:
        trace.remove()
    _check_replay(out, [plain, traced])
    t = trace
    decode_s = t.total_s["compression.decompress"]
    out.metrics = {
        "compression.decompress_calls": t.calls["compression.decompress"],
        "compression.decompress_s": decode_s,
        "compression.decompress_mb_per_s": (
            traced.decoded_bytes / 1e6 / decode_s if decode_s
            else 0.0),
        "synthesis.render_s": t.total_s["synthesis.render"],
        "synthesis.project_s": t.total_s["synthesis.project"],
        "synthesis.atlas_views_filled": t.calls["synthesis.view_for_camera"],
        "synthesis.gather_blend_s": t.self_s["synthesis.render"],
        "synthesis.rays": len(traced.frame_ms) * spec.resolution ** 2,
        "synthesis.frame_ms_p50": statistics.median(traced.frame_ms),
        "trace.overhead_ratio": sum(traced.frame_ms) / sum(plain.frame_ms),
    }
    out.notes.update(frames=len(traced.frame_ms), spans=len(trace.spans))
    out.trace = trace
    return out


# ----------------------------------------------------------------------
# generator workload: generate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GenerateSpec:
    """Ray-cast + compress view sets of the negHip volume, one process."""

    volume_size: int = 64
    resolution: int = 200


GENERATE_LATTICE = CameraLattice(12, 24, 3)


@dataclass
class Generator:
    """The generator's kernel and codec, as ``LightFieldBuilder`` wires
    them with ``workers=1``: one ``RaycastRenderer`` renders every sample
    view inline.  The builder supplies camera geometry and compression;
    rendering goes through the ray caster directly so each view is timed.
    """

    builder: LightFieldBuilder
    renderer: RaycastRenderer
    prepare_s: float

    @classmethod
    def build(cls, spec: GenerateSpec) -> "Generator":
        volume, transfer = neg_hip(size=spec.volume_size), preset("neghip")
        builder = LightFieldBuilder(volume, transfer, GENERATE_LATTICE,
                                    resolution=spec.resolution, workers=1)
        renderer = RaycastRenderer(volume, transfer)
        t0 = time.perf_counter()
        renderer.prepare()  # the macrocell grid
        return cls(builder, renderer, time.perf_counter() - t0)


def generate_cycle(seed: int) -> List[Tuple[int, int]]:
    """One view set from every lattice row, columns spread evenly.

    A view's ray-casting cost depends on where its camera looks, so the
    columns sit evenly around the sphere; ``seed`` picks their offset and
    which row gets which column.  Free random picks left the per-view p90
    spread 0.19 (IQR/median) over 10 seeds.
    """
    rng = np.random.default_rng(seed)
    rows, cols = GENERATE_LATTICE.n_viewsets
    stride = cols // rows
    offset = int(rng.integers(stride))
    return [(i, offset + int(c) * stride)
            for i, c in enumerate(rng.permutation(rows))]


@dataclass
class GeneratePass:
    """View sets rendered and compressed."""

    view_ms: List[float]
    compress_ms: List[float]
    payloads: List[bytes]
    #: key, camera, float render of the first sample view, its view set
    first: Tuple[Any, ...]

    @property
    def total_ms(self) -> float:
        return sum(self.view_ms) + sum(self.compress_ms)


def generate_pass(gen: Generator, keys: List[Tuple[int, int]], out: Outcome,
                  on_view: Optional[Callable[[Any], None]] = None
                  ) -> GeneratePass:
    """Render and compress the view sets ``keys``.

    A view's time is its render plus quantization to the stored pixels.
    """
    lattice, l, r = GENERATE_LATTICE, GENERATE_LATTICE.l, gen.builder.resolution
    view_ms: List[float] = []
    compress_ms: List[float] = []
    payloads: List[bytes] = []
    first: Tuple[Any, ...] = ()
    for key in keys:
        images = np.empty((l, l, r, r, 3), dtype=np.uint8)
        for idx, (i, j) in enumerate(lattice.cameras_in_viewset(key)):
            cam = gen.builder.camera_for(i, j)
            t0 = time.perf_counter()
            frame = gen.renderer.render(cam)
            images[idx // l, idx % l] = to_uint8(frame)
            view_ms.append(1e3 * (time.perf_counter() - t0))
            if on_view is not None:
                on_view(gen.renderer.last_render_stats)
            if idx == 0:
                cam0, frame0 = cam, frame
        vs = ViewSet(key=key, images=images)
        t0 = time.perf_counter()
        payloads.append(gen.builder.compress_viewset(vs).payload)
        compress_ms.append(1e3 * (time.perf_counter() - t0))
        if not first:
            first = (key, cam0, frame0, vs)
    out.attempted += len(view_ms)
    return GeneratePass(view_ms, compress_ms, payloads, first)


def _check_generated(gen: Generator, passes: List[GeneratePass],
                     out: Outcome) -> None:
    if any(p.payloads != passes[0].payloads for p in passes):
        out.fail("repeated view sets compress to different payloads")
    key, cam, frame, vs = passes[0].first
    decoded, _ = ZlibCodec().decompress(passes[0].payloads[0])
    if decoded != vs:
        out.fail(f"zlib round trip of view set {key} differs")
    brute = RaycastRenderer(gen.builder.volume, gen.builder.transfer,
                            RenderSettings(accelerated=False))
    err = float(np.abs(frame - brute.render(cam)).max())
    out.notes["accel_max_abs_err"] = err
    if err != 0.0:
        out.fail(f"accelerated view differs from brute force by {err}")


def run_generate(spec: GenerateSpec, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    setups, gen = _timed_setups(lambda: Generator.build(spec))
    keys = generate_cycle(seed)
    passes = _passes(seconds, lambda: generate_pass(gen, keys, out))
    _check_generated(gen, passes, out)
    views = best_of([p.view_ms for p in passes])
    compress = best_of([p.compress_ms for p in passes])
    out.metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1e3 * len(views) / (sum(views) + sum(compress)),
        "wait_p90_ms": _p90(views),
    }
    out.notes.update(passes=len(passes), views=len(views),
                     compression_ratio=gen.builder.stats.compression_ratio)
    return out


def trace_generate(spec: GenerateSpec, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    keys = generate_cycle(seed)
    gen = Generator.build(spec)
    plain = generate_pass(gen, keys, out)
    gen = Generator.build(spec)
    trace = LayerTrace()
    trace.wrap(gen.renderer, "render", "raycast.render")
    trace.wrap(gen.builder, "compress_viewset", "compression.compress")
    steps = [0, 0]

    def on_view(stats: Any) -> None:
        steps[0] += stats.steps
        steps[1] += stats.rays

    try:
        traced = generate_pass(gen, keys, out, on_view=on_view)
    finally:
        trace.remove()
    _check_generated(gen, [plain, traced], out)
    out.metrics = {
        "compression.compress_s": trace.total_s["compression.compress"],
        "compression.ratio": gen.builder.stats.compression_ratio,
        "raycast.render_s": trace.total_s["raycast.render"],
        "raycast.steps_per_ray": steps[0] / steps[1] if steps[1] else 0.0,
        "raycast.prepare_s": gen.prepare_s,
        "trace.overhead_ratio": traced.total_ms / plain.total_ms,
    }
    out.notes.update(views=len(traced.view_ms), spans=len(trace.spans))
    out.trace = trace
    return out


WORKLOADS = {
    "contended": (lambda seed, s: run_sim(CONTENDED, seed, s),
                  lambda seed, s: trace_sim(CONTENDED, seed, s)),
    "fleet": (lambda seed, s: run_sim(FLEET, seed, s),
              lambda seed, s: trace_sim(FLEET, seed, s)),
    "browse": (lambda seed, s: run_browse(BrowseSpec(), seed, s),
               lambda seed, s: trace_browse(BrowseSpec(), seed, s)),
    "generate": (lambda seed, s: run_generate(GenerateSpec(), seed, s),
                 lambda seed, s: trace_generate(GenerateSpec(), seed, s)),
}
