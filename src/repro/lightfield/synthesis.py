"""Novel-view synthesis from resident view sets (the client's renderer).

"The rendering process of a light field database is simply a sequence of
table lookup operations" — this module implements those lookups, vectorized:

1. each novel-view ray is mapped to ``(s, t, u, v)`` via the two-sphere
   parameterization;
2. the lattice cameras surrounding ``(u, v)`` are found (bilinear in the
   camera lattice, phi-periodic);
3. the ray's inner-sphere point is *reprojected* into each sample view and
   the stored image is sampled there (bilinear in ``(s, t)``) — together the
   quadrilinear interpolation of the 4-D ray space the paper describes;
4. contributions blend; cameras whose view set is not resident drop out and
   the remaining weights renormalize, so a missing neighbor degrades
   smoothly instead of leaving holes.

Performance: a frame projects its rays once.  :meth:`required_viewsets`
keeps that projection (ray hits, corner cameras and weights) and the
following :meth:`~LightFieldSynthesizer.render_rays` reuses it when it is
handed equal rays, then releases it.  All resident sample views a frame
touches live in a *camera atlas*: a pool of ``r·r``-texel slots, one
uint32 of packed RGBX per texel, so the four bilinear taps of a corner are
one int32 index array and one ``np.take``.  Rays are blended in blocks of
planar ``(3, n)`` float32 work arrays kept across frames.  Lattice camera
bases are computed once per synthesizer.  The atlas is reused while the
camera stays over the same view sets, which is exactly the locality view
sets exist to create; a rebuild keeps every slot whose view set is the same
object and refills only the rest.

Interpolation modes trade fidelity for speed, mirroring the paper's "table
lookup" fast path:

* ``"quadrilinear"`` — 4 cameras × 4 pixel taps (highest quality);
* ``"uv-nearest"``   — nearest camera, bilinear pixel taps (4 taps total);
* ``"nearest"``      — nearest camera, nearest pixel (1 tap, pure lookup).
"""

from __future__ import annotations

import mmap
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Set, Tuple

import numpy as np

from ..render.camera import Camera, look_at
from .lattice import CameraLattice, ViewSetKey
from .sphere import TwoSphere, angles_to_cartesian
from .viewset import ViewSet

__all__ = [
    "ViewSetProvider",
    "DictProvider",
    "SynthesisResult",
    "LightFieldSynthesizer",
]

_MODES = ("quadrilinear", "uv-nearest", "nearest")
_INV255 = np.float32(1.0 / 255.0)
#: valid rays blended per block: keeps every work array small and in cache
_BLOCK = 16384


class ViewSetProvider(Protocol):
    """Anything that can hand over resident view sets."""

    def get_resident(self, key: ViewSetKey) -> Optional[ViewSet]:
        """The view set if locally resident, else None (no I/O implied)."""
        ...


class DictProvider:
    """Trivial provider over a dict — used by tests and examples."""

    def __init__(self, viewsets: Dict[ViewSetKey, ViewSet]) -> None:
        self._viewsets = dict(viewsets)

    def get_resident(self, key: ViewSetKey) -> Optional[ViewSet]:
        return self._viewsets.get(key)

    def add(self, vs: ViewSet) -> None:
        """Insert/replace a view set."""
        self._viewsets[vs.key] = vs

    def remove(self, key: ViewSetKey) -> None:
        """Drop a view set if present."""
        self._viewsets.pop(key, None)


@dataclass
class SynthesisResult:
    """A synthesized frame plus diagnostics."""

    image: np.ndarray            # (H, W, 3) float32
    coverage: float              # fraction of valid rays with full support
    missing_keys: Set[ViewSetKey] = field(default_factory=set)


@dataclass
class _Projection:
    """A ray bundle mapped onto the camera lattice."""

    n: int                      # rays in the bundle
    vidx: np.ndarray            # (V,) indices of rays through both spheres
    p_in: np.ndarray            # (3, V) float32 inner-sphere entry points
    codes: List[np.ndarray]     # per corner: (V,) int32 camera codes
    weights: List[np.ndarray]   # per corner: (V,) float32 blend weights
    needed: np.ndarray          # sorted camera codes any ray touches


@dataclass
class _Atlas:
    """Gather tables for the cameras the recent frames touch."""

    codes: np.ndarray       # (K,) sorted camera codes the atlas covers
    slot_lut: np.ndarray    # (n_theta*n_phi,) int32 slot, -1 where absent
    pixels: np.ndarray      # (n_slots*r*r,) uint32 packed RGBX texels
    present: np.ndarray     # (n_slots+1,) bool — slot holds a resident view
    # per view set: a weak reference to the provider's object the slots
    # were filled from, None where it was missing
    sources: Dict[ViewSetKey, Optional[weakref.ref]]
    missing_keys: Set[ViewSetKey]

    @property
    def n_slots(self) -> int:
        return len(self.present) - 1

    @property
    def all_present(self) -> bool:
        return not self.missing_keys


class LightFieldSynthesizer:
    """Renders novel views by 4-D lookup into resident view sets."""

    def __init__(
        self,
        lattice: CameraLattice,
        spheres: TwoSphere,
        resolution: int,
        provider: ViewSetProvider,
        background: float = 0.0,
        interpolation: str = "quadrilinear",
    ) -> None:
        if resolution < 1:
            raise ValueError("resolution must be positive")
        if interpolation not in _MODES:
            raise ValueError(
                f"interpolation must be one of {_MODES}, got {interpolation!r}"
            )
        self.lattice = lattice
        self.spheres = spheres
        self.resolution = int(resolution)
        self.provider = provider
        self.background = float(background)
        self.interpolation = interpolation
        self._tan_half = np.tan(np.radians(spheres.camera_fov_deg()) / 2.0)
        n_cams = lattice.n_theta * lattice.n_phi
        # eye, right, up and forward of every lattice camera, one row per
        # camera so a frame gathers all twelve numbers at once
        self._basis = np.zeros((n_cams, 4, 3), dtype=np.float32)
        self._basis_ready = np.zeros(n_cams, dtype=bool)
        self._atlas: Optional[_Atlas] = None
        # slots an atlas holds: ~2 view sets' worth of cameras
        self._atlas_cap = 2 * lattice.l * lattice.l + 16
        self._stale = False
        # the last required_viewsets projection, with the rays it was
        # made from (see _origin_key)
        self._shared: Optional[
            Tuple[np.ndarray, np.ndarray, _Projection]
        ] = None
        self._buffers: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Re-read residency on the next render (call after it changes).

        Atlas slots whose view set is still the same object are kept;
        the rest are refilled from the provider.
        """
        self._stale = True

    def render(self, camera: Camera) -> SynthesisResult:
        """Synthesize the frame seen by ``camera``."""
        origins, dirs = camera.rays()
        colors, cov, missing = self.render_rays(origins, dirs)
        return SynthesisResult(
            image=colors.reshape(camera.height, camera.width, 3),
            coverage=cov,
            missing_keys=missing,
        )

    def render_rays(
        self, origins: np.ndarray, dirs: np.ndarray
    ) -> Tuple[np.ndarray, float, Set[ViewSetKey]]:
        """Synthesize arbitrary ray bundles.

        Returns ``(colors (N,3) float32, coverage, missing view-set keys)``.
        Coverage is the fraction of volume-intersecting rays whose blend
        had full weight support (1.0 when everything needed was resident).
        """
        origins = np.asarray(origins, dtype=np.float64)
        dirs = np.asarray(dirs, dtype=np.float64)
        proj = self._take_projection(origins, dirs)
        colors = np.full((proj.n, 3), self.background, dtype=np.float32)
        n_valid = len(proj.vidx)
        if not n_valid:
            return colors, 1.0, set()
        atlas = self._ensure_atlas(proj.needed)

        full = 0
        for lo in range(0, n_valid, _BLOCK):
            full += self._blend_block(
                atlas, proj, slice(lo, min(lo + _BLOCK, n_valid)), colors
            )
        return colors, full / n_valid, atlas.missing_keys

    def _blend_block(
        self,
        atlas: _Atlas,
        proj: _Projection,
        block: slice,
        colors: np.ndarray,
    ) -> int:
        """Blend one block of valid rays into ``colors``; returns how many
        of them had full weight support.

        Work arrays are planar, ``(3, n)``, so every per-ray factor
        broadcasts along contiguous rows.
        """
        p_in = proj.p_in[:, block]
        n = p_in.shape[1]
        acc = self._scratch("acc", (3, n), np.float32)
        wsum = self._scratch("wsum", (n,), np.float32)
        acc.fill(0.0)
        wsum.fill(0.0)
        for codes, weights in zip(proj.codes, proj.weights):
            code = codes[block]
            w = weights[block]
            slots = atlas.slot_lut[code]
            sel = None
            if not atlas.all_present:
                sel = np.flatnonzero(atlas.present[slots])
                if not len(sel):
                    continue
                if len(sel) == n:
                    sel = None
            if sel is None:
                samples = self._sample_atlas(atlas, code, slots, p_in)
                samples *= w
                acc += samples
                wsum += w
            else:
                samples = self._sample_atlas(
                    atlas, code[sel], slots[sel], p_in[:, sel]
                )
                wf = w[sel]
                acc[:, sel] += wf * samples
                wsum[sel] += wf
        have = wsum > 1e-6
        np.divide(acc, wsum, out=acc, where=have)
        acc[:, ~have] = self.background
        colors[proj.vidx[block]] = acc.T
        return int(np.count_nonzero(wsum > 0.999))

    def required_viewsets(
        self, origins: np.ndarray, dirs: np.ndarray
    ) -> Set[ViewSetKey]:
        """Which view sets a ray bundle would touch (prefetch planning).

        The projection is kept for a following :meth:`render_rays` of the
        same rays, so a frame that asks first and then renders projects
        once.
        """
        origins = np.asarray(origins, dtype=np.float64)
        dirs = np.asarray(dirs, dtype=np.float64)
        self._shared = None
        proj = self._project(origins, dirs)
        self._shared = (_origin_key(origins), dirs.copy(), proj)
        n_phi = self.lattice.n_phi
        return {
            self.lattice.viewset_of(int(c) // n_phi, int(c) % n_phi)
            for c in proj.needed
        }

    # ------------------------------------------------------------------
    # projection
    # ------------------------------------------------------------------
    def _take_projection(
        self, origins: np.ndarray, dirs: np.ndarray
    ) -> _Projection:
        """The shared projection if it was made from equal rays, else a
        fresh one; either way nothing is kept."""
        shared, self._shared = self._shared, None
        if shared is not None:
            o, d, proj = shared
            if (origins.shape == dirs.shape and np.array_equal(d, dirs)
                    and _same_origins(o, origins)):
                return proj
        return self._project(origins, dirs)

    def _project(self, origins: np.ndarray, dirs: np.ndarray) -> _Projection:
        """Hit points, corner cameras and weights of the valid rays."""
        p_in_all, u, v, valid = self.spheres.project_rays(origins, dirs)
        vidx = np.flatnonzero(valid)
        p_in = np.take(p_in_all.T, vidx, axis=1).astype(np.float32)
        corners = self._corner_cameras(u[vidx], v[vidx])
        touched = np.zeros(self.lattice.n_theta * self.lattice.n_phi, bool)
        for code, _ in corners:
            touched[code] = True
        return _Projection(
            n=len(valid),
            vidx=vidx,
            p_in=p_in,
            codes=[code for code, _ in corners],
            weights=[w for _, w in corners],
            needed=np.flatnonzero(touched),
        )

    # ------------------------------------------------------------------
    # lattice corner selection
    # ------------------------------------------------------------------
    def _corner_cameras(
        self, u: np.ndarray, v: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """(camera code, float32 weight) per corner for the configured
        interpolation mode; a code is ``i * n_phi + j``."""
        n_theta, n_phi = self.lattice.n_theta, self.lattice.n_phi
        fi, fj = self.lattice.continuous_index(u, v)
        if self.interpolation in ("uv-nearest", "nearest"):
            i = np.clip(np.rint(fi), 0, n_theta - 1).astype(np.int32)
            j = np.rint(fj).astype(np.int32) % n_phi
            return [(i * n_phi + j, np.ones(len(fi), dtype=np.float32))]
        i0 = np.clip(np.floor(fi).astype(np.int32), 0, n_theta - 1)
        i1 = np.minimum(i0 + 1, n_theta - 1)
        wi = np.clip(fi - i0, 0.0, 1.0)
        j0 = np.floor(fj).astype(np.int32) % n_phi
        j1 = (j0 + 1) % n_phi
        wj = np.clip(fj - np.floor(fj), 0.0, 1.0)
        i0 *= n_phi
        i1 *= n_phi
        ui, uj = 1 - wi, 1 - wj
        return [
            (i0 + j0, (ui * uj).astype(np.float32)),
            (i0 + j1, (ui * wj).astype(np.float32)),
            (i1 + j0, (wi * uj).astype(np.float32)),
            (i1 + j1, (wi * wj).astype(np.float32)),
        ]

    # ------------------------------------------------------------------
    # atlas construction
    # ------------------------------------------------------------------
    def _ensure_atlas(self, needed: np.ndarray) -> _Atlas:
        """Reuse the atlas unless residency changed or a camera is new.

        The atlas grows by union while the camera roams; past ~2 view
        sets' worth of cameras it restarts from what is needed now.
        """
        atlas = self._atlas
        codes = needed
        if atlas is not None and not self._stale:
            if (atlas.slot_lut[needed] >= 0).all():
                return atlas
            union = np.union1d(needed, atlas.codes)
            if len(union) <= self._atlas_cap:
                codes = union
        self._atlas = self._build_atlas(codes, atlas)
        self._stale = False
        return self._atlas

    def _build_atlas(
        self, codes: np.ndarray, old: Optional[_Atlas]
    ) -> _Atlas:
        """The atlas over ``codes``, in the old atlas's texel pool if it fits.

        A camera keeps its slot while its view set is the same object it
        was filled from; every other resident camera is filled into a free
        slot.  Cameras whose view set is missing share one extra slot that
        is never present.
        """
        r = self.resolution
        rr = r * r
        n_phi = self.lattice.n_phi
        if old is None or old.n_slots < len(codes):
            old = None
            n_slots = max(self._atlas_cap, len(codes))
            if n_slots * rr > np.iinfo(np.int32).max:
                raise ValueError(
                    f"atlas of {n_slots} views at {r}x{r} exceeds int32 "
                    "texel indices"
                )
            # an anonymous mapping, not the heap: a slot's pages become
            # resident when it is first filled, and the whole pool goes
            # back to the OS when the atlas is dropped
            pixels = np.frombuffer(
                mmap.mmap(-1, 4 * n_slots * rr), dtype=np.uint32
            )
        else:
            n_slots, pixels = old.n_slots, old.pixels
        slot_lut = np.full(self.lattice.n_theta * n_phi, -1, dtype=np.int32)
        present = np.zeros(n_slots + 1, dtype=bool)
        sources: Dict[ViewSetKey, Optional[weakref.ref]] = {}
        resident: Dict[ViewSetKey, Optional[ViewSet]] = {}
        missing: Set[ViewSetKey] = set()
        fill: List[Tuple[int, ViewSet]] = []
        for code in codes.tolist():
            key = self.lattice.viewset_of(code // n_phi, code % n_phi)
            if key not in resident:
                vs = self.provider.get_resident(key)
                if vs is not None and vs.resolution != r:
                    # checked before any slot of a shared pool is written
                    raise ValueError(
                        f"view set {key} resolution {vs.resolution} != "
                        f"synthesizer resolution {r}"
                    )
                resident[key] = vs
                sources[key] = None if vs is None else weakref.ref(vs)
            vs = resident[key]
            if vs is None:
                missing.add(key)
                slot_lut[code] = n_slots
                continue
            if old is not None:
                prev = old.slot_lut[code]
                ref = old.sources.get(key)
                if prev >= 0 and old.present[prev] and ref is not None and (
                    ref() is vs
                ):
                    slot_lut[code] = prev
                    present[prev] = True
                    continue
            fill.append((code, vs))
        free = np.flatnonzero(~present[:n_slots])
        texels = pixels.view(np.uint8).reshape(n_slots, r, r, 4)
        for slot, (code, vs) in zip(free.tolist(), fill):
            img = vs.view_for_camera(code // n_phi, code % n_phi)
            for c in range(3):  # one channel at a time: long inner loops
                texels[slot, :, :, c] = img[:, :, c]
            slot_lut[code] = slot
            present[slot] = True
        self._fill_basis(codes)
        return _Atlas(
            codes=codes,
            slot_lut=slot_lut,
            pixels=pixels,
            present=present,
            sources=sources,
            missing_keys=missing,
        )

    def _fill_basis(self, codes: np.ndarray) -> None:
        """Compute the basis of each lattice camera the first time it is
        needed."""
        n_phi = self.lattice.n_phi
        for code in codes[~self._basis_ready[codes]].tolist():
            i, j = divmod(code, n_phi)
            theta, phi = self.lattice.angles(i, j)
            eye = angles_to_cartesian(
                np.array(theta), np.array(phi), self.spheres.r_outer
            )
            up = np.array([0.0, 0.0, 1.0])
            if abs(np.cos(theta)) > 0.999:
                up = np.array([1.0, 0.0, 0.0])
            right, true_up, forward = look_at(eye, np.zeros(3), up)
            self._basis[code] = (eye, right, true_up, forward)
            self._basis_ready[code] = True

    def _scratch(
        self, name: str, shape: Tuple[int, ...], dtype: type
    ) -> np.ndarray:
        """A work array kept across frames, grown when a frame needs more."""
        size = int(np.prod(shape))
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)

    # ------------------------------------------------------------------
    # vectorized reprojection + image sampling
    # ------------------------------------------------------------------
    def _sample_atlas(
        self,
        atlas: _Atlas,
        codes: np.ndarray,
        slots: np.ndarray,
        points: np.ndarray,
    ) -> np.ndarray:
        """Reproject ``(3, n)`` ``points`` into each ray's camera and sample
        its image; returns ``(3, n)`` float32 colours in [0, 1], in a work
        array that the next call reuses."""
        eye, right, up, forward = np.take(
            self._basis, codes, axis=0
        ).transpose(1, 2, 0)
        rel = points - eye
        z = np.maximum(_dot(rel, forward), np.float32(1e-9))
        inv = 1.0 / (z * np.float32(self._tan_half))
        x = _dot(rel, right) * inv
        y = _dot(rel, up) * inv
        r = self.resolution
        px = (x + 1.0) * (0.5 * r) - 0.5
        py = (1.0 - y) * (0.5 * r) - 0.5
        np.clip(px, 0.0, r - 1.0, out=px)
        np.clip(py, 0.0, r - 1.0, out=py)
        n = len(slots)
        base = slots * np.int32(r * r)
        if self.interpolation == "nearest":
            base += np.rint(py).astype(np.int32) * np.int32(r)
            base += np.rint(px).astype(np.int32)
            rgb = self._unpack(np.take(atlas.pixels, base))
            rgb *= _INV255
            return rgb
        x0 = np.floor(px).astype(np.int32)
        y0 = np.floor(py).astype(np.int32)
        if r > 1:
            np.minimum(x0, r - 2, out=x0)
            np.minimum(y0, r - 2, out=y0)
        # px - x0 is exact in float32 (Sterbenz), as it would be in float64
        fx = px - x0.astype(np.float32)
        fy = py - y0.astype(np.float32)
        base += y0 * np.int32(r)
        base += x0
        dx = 1 if r > 1 else 0
        dy = r if r > 1 else 0
        index = self._scratch("index", (4, n), np.int32)
        index[0] = base
        np.add(base, dx, out=index[1])
        np.add(base, dy, out=index[2])
        np.add(base, dx + dy, out=index[3])
        taps = np.take(
            atlas.pixels, index, out=self._scratch("taps", (4, n), np.uint32)
        )
        c00, c01, c10, c11 = self._unpack(taps)
        # top = c00 + (c01 - c00) * fx, and so on, computed in place
        c01 -= c00
        c01 *= fx
        c01 += c00
        c11 -= c10
        c11 *= fx
        c11 += c10
        c11 -= c01
        c11 *= fy
        c11 += c01
        c11 *= _INV255
        return c11

    def _unpack(self, taps: np.ndarray) -> np.ndarray:
        """Planar float32 RGB of packed RGBX texels: ``(..., n)`` taps give
        ``(..., 3, n)`` channels, in a work array."""
        rgbx = taps.view(np.uint8).reshape(taps.shape + (4,))
        shape = taps.shape[:-1] + (3, taps.shape[-1])
        # transpose as bytes first: a quarter of the traffic of floats
        planar = self._scratch("rgb8", shape, np.uint8)
        np.copyto(planar, np.moveaxis(rgbx[..., :3], -1, -2))
        rgb = self._scratch("rgb", shape, np.float32)
        np.copyto(rgb, planar, casting="unsafe")
        return rgb


def _origin_key(origins: np.ndarray) -> np.ndarray:
    """Enough of ``origins`` to test a later bundle for equality: a single
    row when every ray starts at the same point (a pinhole camera)."""
    if len(origins) > 1 and np.array_equal(origins[1:], origins[:-1]):
        return origins[:1].copy()
    return origins.copy()


def _same_origins(key: np.ndarray, origins: np.ndarray) -> bool:
    """Whether ``origins`` equals the bundle ``key`` was made from, given
    that it has as many rays as that bundle."""
    if len(key) == len(origins):
        return np.array_equal(key, origins)
    return np.array_equal(key, origins[:1]) and np.array_equal(
        origins[1:], origins[:-1]
    )


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of ``(3, n)`` planar vectors, summed in index
    order: ``(a0*b0 + a1*b1) + a2*b2``."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out
