"""Vectorized volume ray caster (the paper's "generator" kernel).

Front-to-back emission-absorption compositing with opacity correction and
early ray termination.  The paper's generator is "a parallel ray-caster on 32
processors"; this is the per-processor kernel — :mod:`repro.render.parallel`
distributes it over worker processes.

The marching loop is over *steps*, not rays: at each step every still-active
ray samples the volume once, so all heavy work is numpy array operations over
the active-ray batch.  The batch is *compacted* with index arrays as rays
terminate — dead rays are physically dropped from the state arrays rather
than masked out, so late steps only touch the few rays still marching.

Acceleration (``RenderSettings.accelerated``, on by default) clips each
ray's march to the span of *active macrocells* it can intersect, via the
min-max grid in :mod:`repro.volume.accel`.  Sample positions lie on the
same ``t_near + (k + 0.5) * step`` lattice in both paths and skipped
samples have exactly zero extinction, so the accelerated image is
bit-identical to the brute-force one (the only semantic difference is that
``max_steps`` budgets marched steps, and the accelerated path spends none
on empty space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Tuple, Union, overload

import numpy as np

from ..volume.accel import ActiveCells, MacrocellGrid
from ..volume.grid import VolumeGrid
from ..volume.transfer import TransferFunction
from .camera import Camera
from .lighting import Light, shade_blinn_phong

__all__ = ["RaycastRenderer", "RenderSettings", "RenderStats"]


@dataclass(frozen=True)
class RenderSettings:
    """Knobs for the ray caster.

    ``step`` defaults to half a voxel of the target volume.  ``opacity_cutoff``
    is the transmittance below which a ray is terminated early.
    ``accelerated`` enables macrocell empty-space skipping (bit-identical
    output; see the module docstring); ``macrocell_size`` is the
    macrocell edge in voxels.
    """

    step: Optional[float] = None
    opacity_cutoff: float = 1e-3
    max_steps: int = 4096
    shaded: bool = True
    background: float = 0.0
    accelerated: bool = True
    macrocell_size: int = 4


@dataclass
class RenderStats:
    """Work counters for the last ``render_rays`` call.

    ``steps`` counts ray-samples actually taken (the unit the macrocell
    skipping saves); ``skipped_rays`` counts rays proven empty by the
    interval pass and never marched at all.
    """

    rays: int = 0
    marched_rays: int = 0
    skipped_rays: int = 0
    steps: int = 0
    accelerated: bool = False

    @property
    def steps_per_ray(self) -> float:
        """Mean marched samples per ray over the whole bundle."""
        return self.steps / self.rays if self.rays else 0.0


class RaycastRenderer:
    """Renders a :class:`VolumeGrid` through a transfer function."""

    def __init__(
        self,
        volume: VolumeGrid,
        transfer: TransferFunction,
        settings: RenderSettings = RenderSettings(),
        light: Light = Light(),
    ) -> None:
        self.volume = volume
        self.transfer = transfer
        self.settings = settings
        self.light = light
        if settings.step is not None and settings.step <= 0:
            raise ValueError("step must be positive")
        self._step = (
            settings.step
            if settings.step is not None
            else volume._voxel * 0.5
        )
        self._cells: Optional[ActiveCells] = None
        self.last_render_stats = RenderStats()

    # ------------------------------------------------------------------
    # acceleration structure
    # ------------------------------------------------------------------
    def prepare(self) -> Optional[ActiveCells]:
        """Build the macrocell activity mask now (idempotent).

        Called lazily on the first accelerated render; the parallel
        front end calls it eagerly in the parent process so the structure
        is built once and shared with workers instead of per-process.
        Returns the classified cells (or ``None`` when acceleration is off).
        """
        if not self.settings.accelerated:
            return None
        if self._cells is None:
            grid = MacrocellGrid.build(
                self.volume, cell_size=self.settings.macrocell_size
            )
            self._cells = grid.classify(self.transfer)
        return self._cells

    # ------------------------------------------------------------------
    def render(self, camera: Camera) -> np.ndarray:
        """Render an ``(H, W, 3)`` float32 image in [0, 1]."""
        origins, dirs = camera.rays()
        rgb = self.render_rays(origins, dirs)
        return rgb.reshape(camera.height, camera.width, 3)

    @overload
    def render_rays(
        self,
        origins: np.ndarray,
        dirs: np.ndarray,
        return_transmittance: Literal[False] = ...,
    ) -> np.ndarray: ...

    @overload
    def render_rays(
        self,
        origins: np.ndarray,
        dirs: np.ndarray,
        return_transmittance: Literal[True],
    ) -> Tuple[np.ndarray, np.ndarray]: ...

    def render_rays(
        self,
        origins: np.ndarray,
        dirs: np.ndarray,
        return_transmittance: bool = False,
    ) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Composite arbitrary ray bundles; returns ``(N, 3)`` colors.

        With ``return_transmittance=True`` returns ``(colors, trans)`` where
        ``trans`` is the per-ray remaining transmittance (1 = empty space).
        """
        origins = np.asarray(origins, dtype=np.float64)
        dirs = np.asarray(dirs, dtype=np.float64)
        n = len(origins)
        color = np.full((n, 3), self.settings.background, dtype=np.float32)
        trans = np.ones(n, dtype=np.float32)
        stats = RenderStats(rays=n, accelerated=self.settings.accelerated)
        self.last_render_stats = stats

        t_near, t_far = self.volume.intersect_rays(origins, dirs)
        sel = np.nonzero(t_near < t_far)[0]
        if sel.size == 0:
            return (color, trans) if return_transmittance else color

        if self.settings.accelerated:
            cells = self.prepare()
            assert cells is not None  # accelerated on ⇒ prepare() built it
            seg_t0, seg_t1, ray_ptr = cells.ray_segments(
                origins[sel], dirs[sel], t_near[sel], t_far[sel]
            )
            hit = ray_ptr[1:] > ray_ptr[:-1]
            stats.skipped_rays = int(sel.size - hit.sum())
            # rays with no reachable active cell composite pure background,
            # exactly as a zero-extinction march would
            cur = ray_ptr[:-1][hit].copy()
            hi = ray_ptr[1:][hit]
            sel = sel[hit]
            if sel.size == 0:
                return (color, trans) if return_transmittance else color
        else:
            # brute force: one segment per ray spanning the whole bbox hit
            seg_t0, seg_t1 = t_near[sel], t_far[sel]
            cur = np.arange(sel.size, dtype=np.intp)
            hi = cur + 1

        stats.marched_rays = int(sel.size)
        col, tr = self._march(
            origins[sel], dirs[sel], t_near[sel], t_far[sel],
            seg_t0, seg_t1, cur, hi, stats,
        )

        # composite over background
        bg = self.settings.background
        col += tr[:, None] * bg
        color[sel] = col
        trans[sel] = tr
        return (color, trans) if return_transmittance else color

    # ------------------------------------------------------------------
    def _march(
        self,
        o: np.ndarray,
        d: np.ndarray,
        t_base: np.ndarray,
        t_far: np.ndarray,
        seg_t0: np.ndarray,
        seg_t1: np.ndarray,
        cur: np.ndarray,
        hi: np.ndarray,
        stats: RenderStats,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Front-to-back march of one compacted ray batch over segments.

        Ray ``i`` marches the segments ``seg_t0/seg_t1[cur[i]:hi[i]]`` in
        order.  Samples lie at ``t_base + (k + 0.5) * dt``; ``k`` jumps
        forward (never backward) between segments but the position lattice
        is always computed from the step *index*, never accumulated — so
        brute-force (one whole-span segment) and accelerated (active-cell
        segments) runs sample bit-identical positions, and the samples the
        accelerated run skips carry exactly zero extinction.  A sample is
        only taken while its midpoint is short of both the current segment
        end (plus a half-step margin) and ``t_far`` — vacuum beyond the
        volume is never composited.  State arrays are compacted (gather via
        index arrays) whenever rays terminate, so late steps only touch the
        few rays still marching.
        """
        m = len(o)
        dt = self._step
        cutoff = self.settings.opacity_cutoff
        col_out = np.zeros((m, 3), dtype=np.float32)
        tr_out = np.ones(m, dtype=np.float32)

        live = np.arange(m)          # positions in the caller's batch
        o, d = o.copy(), d.copy()
        t_base, t_far = t_base.copy(), t_far.copy()
        cur, hi = cur.copy(), hi.copy()
        tr = np.ones(m, dtype=np.float32)
        col = np.zeros((m, 3), dtype=np.float32)
        # enter the first segment: align k down onto the shared lattice,
        # end at the segment exit plus a half-step margin (so a bound that
        # lands exactly on a midpoint still includes it), capped at t_far
        k = np.maximum(0.0, np.floor((seg_t0[cur] - t_base) / dt))
        t_end = np.minimum(seg_t1[cur] + 0.5 * dt, t_far)

        for _ in range(self.settings.max_steps):
            if live.size == 0:
                break
            mid = t_base + (k + 0.5) * dt
            # advance rays whose next midpoint passed their segment end to
            # their next segment (possibly chaining through short ones);
            # rays out of segments get t_end = -inf and retire below
            adv = mid >= t_end
            while adv.any():
                ai = np.nonzero(adv)[0]
                cur[ai] += 1
                more = cur[ai] < hi[ai]
                good = ai[more]
                if good.size:
                    k[good] = np.maximum(
                        k[good],
                        np.floor((seg_t0[cur[good]] - t_base[good]) / dt),
                    )
                    t_end[good] = np.minimum(
                        seg_t1[cur[good]] + 0.5 * dt, t_far[good]
                    )
                    mid[good] = t_base[good] + (k[good] + 0.5) * dt
                t_end[ai[~more]] = -np.inf
                adv = np.zeros_like(adv)
                adv[good] = mid[good] >= t_end[good]
            # terminate BEFORE sampling: a ray samples only while its
            # transmittance survives and the midpoint is inside a segment
            keep = (tr > cutoff) & (mid < t_end)
            if not keep.all():
                dead = np.nonzero(~keep)[0]
                col_out[live[dead]] = col[dead]
                tr_out[live[dead]] = tr[dead]
                kept = np.nonzero(keep)[0]
                live = live[kept]
                o, d = o[kept], d[kept]
                t_base, t_far = t_base[kept], t_far[kept]
                cur, hi = cur[kept], hi[kept]
                k, t_end, mid = k[kept], t_end[kept], mid[kept]
                tr, col = tr[kept], col[kept]
                if live.size == 0:
                    break
            pos = o + mid[:, None] * d
            vals = self.volume.sample(pos)
            sample_rgb, sigma = self.transfer(vals)
            if self.settings.shaded:
                lit = sigma > 1e-6
                if lit.any():
                    grads = self.volume.gradient(pos[lit])
                    sample_rgb[lit] = shade_blinn_phong(
                        sample_rgb[lit], grads, d[lit], self.light
                    )
            # Beer-Lambert opacity correction: step opacity from extinction
            a = 1.0 - np.exp(-sigma * dt)
            w = (tr * a).astype(np.float32)
            col += w[:, None] * sample_rgb
            tr *= (1.0 - a).astype(np.float32)
            k += 1.0
            stats.steps += int(live.size)

        if live.size:  # max_steps exhausted with rays still marching
            col_out[live] = col
            tr_out[live] = tr
        return col_out, tr_out

    def render_with_alpha(self, camera: Camera) -> np.ndarray:
        """Render an ``(H, W, 4)`` image; alpha = 1 - transmittance.

        The alpha channel is what occlusion-based view-set sparsity keys on:
        a sample view whose every pixel has alpha 0 never intersects the
        dataset and need not be stored.
        """
        origins, dirs = camera.rays()
        rgb, trans = self.render_rays(origins, dirs, return_transmittance=True)
        alpha = (1.0 - trans)[:, None]
        out = np.concatenate([rgb, alpha], axis=1)
        return out.reshape(camera.height, camera.width, 4)
