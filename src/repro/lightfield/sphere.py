"""Two-sphere (spherical) light field parameterization.

The original light field used two parallel planes, which forces the camera to
stay behind one boundary plane.  Section 3.2 of the paper replaces this with
**two concentric spheres** around the volume: any viewing ray that intersects
the volume pierces both spheres, and the two intersection points — each
described by spherical angles (theta, phi) — give the 4-D ray index
``(s, t, u, v)``.  By convention here:

* ``(u, v)`` = (theta, phi) of the ray's entry point on the **outer** sphere,
  where the camera lattice lives;
* ``(s, t)`` = (theta, phi) of the ray's entry point on the **inner** sphere,
  which tightly bounds the dataset.

All functions are vectorized over ``(N, 3)`` ray bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["TwoSphere", "cartesian_to_angles", "angles_to_cartesian"]


def cartesian_to_angles(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of points (relative to the origin).

    theta in [0, pi] from +z; phi in [0, 2pi) from +x toward +y.
    """
    p = np.asarray(points, dtype=np.float64)
    return _angles(p[..., 0], p[..., 1], p[..., 2])


def _angles(
    x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    # |p| sums x², y², z² in that order, as np.linalg.norm does
    r = np.sqrt(x * x + y * y + z * z)
    r = np.where(r == 0, 1.0, r)
    theta = np.arccos(np.clip(z / r, -1.0, 1.0))
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0, phi + 2.0 * np.pi, phi)
    return theta, phi


def angles_to_cartesian(
    theta: np.ndarray, phi: np.ndarray, radius: float = 1.0
) -> np.ndarray:
    """Points on a sphere of ``radius`` from spherical angles."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    st = np.sin(theta)
    return radius * np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1
    )


@dataclass(frozen=True)
class TwoSphere:
    """Concentric parameter spheres: cameras on the outer, data in the inner.

    Parameters
    ----------
    r_inner:
        Radius of the inner sphere; must enclose the dataset (typically the
        volume's bounding radius plus a small margin).
    r_outer:
        Radius of the outer sphere, the camera-lattice sphere.
    """

    r_inner: float
    r_outer: float

    def __post_init__(self) -> None:
        if self.r_inner <= 0:
            raise ValueError("r_inner must be positive")
        if self.r_outer <= self.r_inner:
            raise ValueError("r_outer must exceed r_inner")

    # ------------------------------------------------------------------
    def intersect_sphere(
        self, origins: np.ndarray, dirs: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First non-negative intersection parameter with a centered sphere.

        Returns ``(t, hit)``: ray parameter of the first intersection with
        ``t >= 0`` and a boolean hit mask.  Directions must be unit length.
        """
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(dirs, dtype=np.float64)
        b = np.einsum("ij,ij->i", o, d)
        c = np.einsum("ij,ij->i", o, o) - radius * radius
        disc = b * b - c
        hit = disc >= 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t0 = -b - sq
        t1 = -b + sq
        # first intersection at t >= 0: prefer entry point, else exit
        t = np.where(t0 >= 0.0, t0, t1)
        hit &= t >= 0.0
        return t, hit

    def ray_to_stuv(
        self, origins: np.ndarray, dirs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Map rays to ``(s, t, u, v)`` plus a validity mask.

        A ray is *valid* when it pierces both spheres going inward — the
        paper's point that "not all (s,t,u,v) combinations are valid, due to
        occlusion" of the inner sphere by itself.  Invalid rays get NaN
        angles.

        Returns ``(s, t, u, v, valid)`` where (s, t) are inner-sphere and
        (u, v) outer-sphere (theta, phi) angles.
        """
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(dirs, dtype=np.float64)
        t_in, hit_in = self.intersect_sphere(o, d, self.r_inner)
        t_out, hit_out = self.intersect_sphere(o, d, self.r_outer)
        valid = hit_in & hit_out
        nan = np.full(o.shape[0], np.nan)
        if not valid.any():
            return nan, nan.copy(), nan.copy(), nan.copy(), valid
        p_in = o[valid] + t_in[valid, None] * d[valid]
        p_out = o[valid] + t_out[valid, None] * d[valid]
        s_ang = nan.copy()
        t_ang = nan.copy()
        u_ang = nan.copy()
        v_ang = nan.copy()
        s_ang[valid], t_ang[valid] = cartesian_to_angles(p_in)
        u_ang[valid], v_ang[valid] = cartesian_to_angles(p_out)
        return s_ang, t_ang, u_ang, v_ang, valid

    def project_rays(
        self, origins: np.ndarray, dirs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Synthesis fast path: inner hit *points* plus outer angles.

        Returns ``(p_in, u, v, valid)`` where ``p_in`` is the (N, 3) array
        of inner-sphere entry points (garbage where invalid; a transposed
        view of ``(3, N)`` rows), and (u, v) the outer-sphere entry angles.
        Skips the inner-sphere angle conversion that :meth:`ray_to_stuv`
        performs, and exploits a shared ray origin (a pinhole camera) to
        collapse the intersection quadratic's constant term to a scalar.
        """
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(dirs, dtype=np.float64)
        n = o.shape[0]
        shared = n > 1 and np.array_equal(o[1:], o[:-1])
        if shared:
            eye = o[0]
            b = d @ eye
            c_in = float(eye @ eye) - self.r_inner**2
            c_out = float(eye @ eye) - self.r_outer**2
        else:
            b = np.einsum("ij,ij->i", o, d)
            oo = np.einsum("ij,ij->i", o, o)
            c_in = oo - self.r_inner**2
            c_out = oo - self.r_outer**2
        disc_in = b * b - c_in
        disc_out = b * b - c_out
        valid = (disc_in >= 0.0) & (disc_out >= 0.0)
        sq_in = np.sqrt(np.where(valid, disc_in, 0.0))
        sq_out = np.sqrt(np.where(valid, disc_out, 0.0))
        t_in = -b - sq_in
        t_in = np.where(t_in >= 0.0, t_in, -b + sq_in)
        t_out = -b - sq_out
        t_out = np.where(t_out >= 0.0, t_out, -b + sq_out)
        valid &= (t_in >= 0.0) & (t_out >= 0.0)
        # planar (3, N) rows, so each per-ray factor broadcasts along a
        # contiguous row; p_in is handed back as its (N, 3) transpose
        d_rows = d.T.copy()
        o_rows = o[:1].T if shared else o.T
        p_in = (t_in * d_rows + o_rows).T
        u, v = _angles(*(t_out * d_rows + o_rows))
        return p_in, u, v, valid

    def stuv_to_ray(
        self,
        s: np.ndarray,
        t: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse mapping: the ray from outer point (u,v) to inner (s,t).

        Returns unit-direction rays originating on the outer sphere.
        """
        p_out = angles_to_cartesian(np.asarray(u), np.asarray(v), self.r_outer)
        p_in = angles_to_cartesian(np.asarray(s), np.asarray(t), self.r_inner)
        d = p_in - p_out
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        if np.any(n == 0):
            raise ValueError("degenerate ray: coincident sphere points")
        return p_out, d / n

    def camera_fov_deg(self, margin: float = 1.02) -> float:
        """Field of view for a lattice camera to just cover the inner sphere.

        A camera on the outer sphere looking at the center sees the inner
        sphere under half-angle ``asin(r_inner / r_outer)``; ``margin``
        scales in a small safety border so bilinear taps near the silhouette
        stay inside the image.
        """
        half = np.arcsin(min(1.0, margin * self.r_inner / self.r_outer))
        return float(np.degrees(2.0 * half))

    def contains_viewpoint(self, point: np.ndarray) -> bool:
        """True if a viewpoint is outside the outer sphere (supported zone)."""
        return float(np.linalg.norm(np.asarray(point, float))) > self.r_outer
