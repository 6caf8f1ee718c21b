"""Regular-grid scalar volumes with trilinear sampling and gradients.

The paper's generator ray-casts a volume dataset (the 64³ negHip electric
potential field) into light field sample views.  This module provides that
volume substrate: a dense scalar grid positioned in world space, with
vectorized trilinear interpolation and central-difference gradients — the two
sampling primitives the ray caster needs.

All sampling functions take ``(N, 3)`` arrays of world-space points and return
per-point values/gradients; there are no per-point Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["VolumeGrid"]


def _lerp(a: np.ndarray, b: np.ndarray, ga: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """``a * ga + b * fb``, computed in place in ``a`` (``b`` is clobbered)."""
    a *= ga
    b *= fb
    a += b
    return a


@dataclass
class VolumeGrid:
    """A dense scalar field on a regular grid, centered in world space.

    Parameters
    ----------
    data:
        ``(nx, ny, nz)`` float array of scalar samples, C-contiguous.
    extent:
        World-space half-width of the largest axis; the volume is scaled
        uniformly so its largest dimension spans ``[-extent, +extent]`` and
        centered at the origin (this matches the concentric-sphere
        parameterization, which wants the dataset near the origin).
    name:
        Identifier used in database metadata.
    """

    data: np.ndarray
    extent: float = 1.0
    name: str = "volume"

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise ValueError(f"volume must be 3-D, got shape {self.data.shape}")
        if min(self.data.shape) < 2:
            raise ValueError("each volume axis needs at least 2 samples")
        if not np.isfinite(self.data).all():
            raise ValueError("volume contains non-finite samples")
        if self.extent <= 0:
            raise ValueError("extent must be positive")
        shape = np.asarray(self.data.shape, dtype=np.float64)
        # uniform scale: world units per voxel along the largest axis
        self._voxel = 2.0 * self.extent / (shape.max() - 1.0)
        self._half_size = (shape - 1.0) * self._voxel / 2.0
        # largest continuous index per axis (the far face), as a column
        # that broadcasts along planar (3, N) index rows
        self._index_max = (shape - 1.0)[:, None]

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int]:
        """Grid dimensions (nx, ny, nz)."""
        return self.data.shape  # type: ignore[return-value]

    @property
    def world_min(self) -> np.ndarray:
        """Lower corner of the bounding box in world space."""
        return -self._half_size

    @property
    def world_max(self) -> np.ndarray:
        """Upper corner of the bounding box in world space."""
        return self._half_size

    @property
    def bounding_radius(self) -> float:
        """Radius of the sphere circumscribing the bounding box."""
        return float(np.linalg.norm(self._half_size))

    @property
    def value_range(self) -> Tuple[float, float]:
        """(min, max) of the scalar field."""
        return float(self.data.min()), float(self.data.max())

    def world_to_index(self, points: np.ndarray) -> np.ndarray:
        """Map world coordinates to continuous voxel indices."""
        pts = np.asarray(points, dtype=np.float64)
        return (pts + self._half_size) / self._voxel

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self, points: np.ndarray) -> np.ndarray:
        """Trilinear interpolation at ``(N, 3)`` world points.

        Points outside the bounding box return 0 (vacuum), which is how the
        ray caster composites empty space without branching.
        """
        return self._sample_index(self._planar_index(points))

    def _planar_index(self, points: np.ndarray) -> np.ndarray:
        """:meth:`world_to_index` as a C-ordered ``(3, N)`` array.

        Per-axis offsets and bounds then broadcast along whole rows of N
        points instead of along rows of 3.
        """
        pts = np.asarray(points, dtype=np.float64)
        idx = np.add(pts.T, self._half_size[:, None], order="C")
        idx /= self._voxel
        return idx

    def _sample_index(self, idx: np.ndarray) -> np.ndarray:
        """:meth:`sample` at ``(3, N)`` continuous voxel indices."""
        # tolerate float rounding at the faces: a point computed as lying on
        # the bounding box (e.g. a ray's exact exit t) may land 1 ulp past
        # it, and must sample the boundary plane, not the vacuum sentinel
        eps = 1e-6
        upper = self._index_max + eps
        if idx.size and idx.min() >= -eps and (idx <= upper).all():
            # the common case (a march's midpoints): no vacuum to scatter
            return self._trilinear(idx)
        inside = ((idx >= -eps) & (idx <= upper)).all(axis=0)
        out = np.zeros(idx.shape[1], dtype=np.float32)
        if inside.any():
            out[inside] = self._trilinear(idx[:, inside])
        return out

    def _trilinear(self, idx: np.ndarray) -> np.ndarray:
        """Trilinear values at planar ``(3, N)`` indices in the face band.

        Each point's lower corner becomes one flat index into the
        C-ordered data; its eight corners are eight ``take``s of that index
        from views of the flat data shifted by the constant corner strides.
        """
        d = self.data
        _, ny, nz = d.shape
        sx, sy = ny * nz, nz
        p = np.minimum(np.maximum(idx, 0.0), self._index_max)
        i0 = np.minimum(np.floor(p), self._index_max - 1.0)
        fx, fy, fz = f = (p - i0).astype(np.float32)
        gx, gy, gz = 1 - f
        base = (np.array([sx, sy, 1.0]) @ i0).astype(np.intp)
        flat = d.reshape(-1)
        c00 = _lerp(flat.take(base), flat[sx:].take(base), gx, fx)
        c10 = _lerp(flat[sy:].take(base), flat[sx + sy:].take(base), gx, fx)
        c01 = _lerp(flat[1:].take(base), flat[sx + 1:].take(base), gx, fx)
        c11 = _lerp(
            flat[sy + 1:].take(base), flat[sx + sy + 1:].take(base), gx, fx
        )
        c0 = _lerp(c00, c10, gy, fy)
        c1 = _lerp(c01, c11, gy, fy)
        return _lerp(c0, c1, gz, fz)

    def gradient(self, points: np.ndarray, h: Optional[float] = None) -> np.ndarray:
        """Central-difference gradient of the field at ``(N, 3)`` points.

        Used for shading normals.  ``h`` defaults to half a voxel.  The six
        stencil points of every input point are sampled in one batch.
        """
        pts = np.asarray(points, dtype=np.float64)
        if h is None:
            h = self._voxel * 0.5
        n = len(pts)
        half = self._half_size
        # stencil[:, 2a] = index of pts + h e_a, stencil[:, 2a + 1] = of
        # pts - h e_a; only axis a moves, so the other rows are pts' own
        stencil = np.empty((3, 6, n))
        stencil[:] = self._planar_index(pts)[:, None, :]
        for axis in range(3):
            stencil[axis, 2 * axis] = (pts[:, axis] + h + half[axis]) / self._voxel
            stencil[axis, 2 * axis + 1] = (
                (pts[:, axis] - h + half[axis]) / self._voxel
            )
        vals = self._sample_index(stencil.reshape(3, -1)).reshape(6, n)
        grad = np.empty((n, 3), dtype=np.float32)
        for axis in range(3):
            grad[:, axis] = (vals[2 * axis] - vals[2 * axis + 1]) / (2.0 * h)
        return grad

    # ------------------------------------------------------------------
    # ray intersection
    # ------------------------------------------------------------------
    def intersect_rays(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Slab-method intersection of rays with the bounding box.

        Returns ``(t_near, t_far)`` arrays; rays that miss have
        ``t_near > t_far``.  Directions need not be normalized.
        """
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(directions, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = 1.0 / d
            t1 = (self.world_min[None, :] - o) * inv
            t2 = (self.world_max[None, :] - o) * inv
        tmin = np.minimum(t1, t2)
        tmax = np.maximum(t1, t2)
        # axes with zero direction: ray parallel to slab — inside iff origin
        # within bounds, else miss
        par = d == 0.0
        if par.any():
            inside = (o >= self.world_min) & (o <= self.world_max)
            tmin = np.where(par & inside, -np.inf, tmin)
            tmax = np.where(par & inside, np.inf, tmax)
            tmin = np.where(par & ~inside, np.inf, tmin)
            tmax = np.where(par & ~inside, -np.inf, tmax)
        t_near = np.maximum(tmin.max(axis=1), 0.0)
        t_far = tmax.min(axis=1)
        return t_near, t_far

    def normalized(self) -> VolumeGrid:
        """A copy with samples linearly rescaled to [0, 1]."""
        lo, hi = self.value_range
        span = hi - lo
        if span == 0:
            data = np.zeros_like(self.data)
        else:
            data = (self.data - lo) / span
        return VolumeGrid(data=data, extent=self.extent, name=self.name)
