"""VolumeGrid sampling against a reference implementation.

``reference_sample`` is the straightforward form of trilinear sampling:
clip the inside points, gather the eight corners with three-array fancy
indexes, and scatter into a zero-filled output.  ``reference_gradient`` is
six such samples, one per stencil point.  The grid's flat-index gather and
one-batch stencil must reproduce both bit for bit.
"""

import pickle
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.volume.grid import VolumeGrid


# ----------------------------------------------------------------------
# the reference sampler
# ----------------------------------------------------------------------
def reference_sample(grid: VolumeGrid, points: np.ndarray) -> np.ndarray:
    idx = grid.world_to_index(points)
    nx, ny, nz = grid.data.shape
    eps = 1e-6
    inside = (
        (idx[:, 0] >= -eps) & (idx[:, 0] <= nx - 1 + eps)
        & (idx[:, 1] >= -eps) & (idx[:, 1] <= ny - 1 + eps)
        & (idx[:, 2] >= -eps) & (idx[:, 2] <= nz - 1 + eps)
    )
    out = np.zeros(len(idx), dtype=np.float32)
    if not inside.any():
        return out
    p = np.clip(
        idx[inside], 0.0, np.array([nx - 1, ny - 1, nz - 1], dtype=np.float64)
    )
    i0 = np.floor(p).astype(np.intp)
    i0[:, 0] = np.clip(i0[:, 0], 0, nx - 2)
    i0[:, 1] = np.clip(i0[:, 1], 0, ny - 2)
    i0[:, 2] = np.clip(i0[:, 2], 0, nz - 2)
    f = (p - i0).astype(np.float32)
    x0, y0, z0 = i0[:, 0], i0[:, 1], i0[:, 2]
    d = grid.data
    c000 = d[x0, y0, z0]
    c100 = d[x0 + 1, y0, z0]
    c010 = d[x0, y0 + 1, z0]
    c110 = d[x0 + 1, y0 + 1, z0]
    c001 = d[x0, y0, z0 + 1]
    c101 = d[x0 + 1, y0, z0 + 1]
    c011 = d[x0, y0 + 1, z0 + 1]
    c111 = d[x0 + 1, y0 + 1, z0 + 1]
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    out[inside] = c0 * (1 - fz) + c1 * fz
    return out


def reference_gradient(
    grid: VolumeGrid, points: np.ndarray, h: Optional[float] = None
) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if h is None:
        h = grid._voxel * 0.5
    grad = np.empty((len(pts), 3), dtype=np.float32)
    for axis in range(3):
        dp = np.zeros(3)
        dp[axis] = h
        grad[:, axis] = (
            reference_sample(grid, pts + dp) - reference_sample(grid, pts - dp)
        ) / (2.0 * h)
    return grad


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
# axes of 2 samples (one cell) and non-cubic shapes, so every stride matters
axis_len = st.sampled_from([2, 3, 5, 8])


@st.composite
def grids(draw):
    shape = (draw(axis_len), draw(axis_len), draw(axis_len))
    seed = draw(st.integers(0, 2**16))
    extent = draw(st.sampled_from([0.5, 1.0, 3.0]))
    data = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
    return VolumeGrid(data=data, extent=extent)


def _top(grid):
    """Largest continuous voxel index per axis."""
    return np.asarray(grid.shape, dtype=np.float64) - 1.0


def _face_points(grid, rng, n):
    """Points on a face, or within (and just beyond) its ±1e-6 index band."""
    top = _top(grid)
    idx = rng.uniform(0.0, 1.0, size=(n, 3)) * top
    axis = rng.integers(0, 3, size=n)
    far = rng.random(n) < 0.5
    face = np.where(far, top[axis], 0.0)
    jitter = rng.choice([0.0, 5e-7, -5e-7, 2e-6, -2e-6, 1e-6, -1e-6], size=n)
    idx[np.arange(n), axis] = face + jitter
    return idx * grid._voxel - grid._half_size


def _points(grid, kind, seed, n):
    rng = np.random.default_rng(seed)
    lo, hi = grid.world_min, grid.world_max
    inside = rng.uniform(lo, hi, size=(n, 3))
    if kind == "inside":
        return inside
    if kind == "faces":
        return _face_points(grid, rng, n)
    if kind == "far":
        sign = np.where(rng.random((n, 3)) < 0.5, -1.0, 1.0)
        return sign * (hi + rng.uniform(1.0, 1e3, size=(n, 3)))
    # mixed: inside, face-band, far outside and grid vertices interleaved
    vertices = (
        rng.integers(0, _top(grid) + 1, size=(n, 3)) * grid._voxel
        - grid._half_size
    )
    pool = np.concatenate([
        inside, _face_points(grid, rng, n), vertices,
        rng.uniform(-5.0, 5.0, size=(n, 3)) * (hi + 1.0),
    ])
    return pool[rng.permutation(len(pool))[:n]]


KINDS = st.sampled_from(["inside", "faces", "far", "mixed"])


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(grid=grids(), kind=KINDS, seed=st.integers(0, 2**16),
       n=st.integers(0, 300))
def test_sample_matches_reference(grid, kind, seed, n):
    pts = _points(grid, kind, seed, n)
    want = reference_sample(grid, pts)
    got = grid.sample(pts)
    assert got.dtype == want.dtype == np.float32
    np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(grid=grids(), kind=KINDS, seed=st.integers(0, 2**16),
       n=st.integers(0, 200),
       h=st.sampled_from([None, 0.01, 0.3]))
def test_gradient_matches_reference(grid, kind, seed, n, h):
    pts = _points(grid, kind, seed, n)
    want = reference_gradient(grid, pts, h)
    got = grid.gradient(pts, h)
    assert got.shape == (n, 3) and got.dtype == np.float32
    np.testing.assert_array_equal(got, want)


def test_exact_faces_and_vertices_of_a_non_cubic_grid():
    rng = np.random.default_rng(3)
    grid = VolumeGrid(data=rng.normal(size=(2, 5, 3)).astype(np.float32))
    corners = np.array(
        [[x, y, z] for x in (0, 1) for y in (0, 4) for z in (0, 2)], dtype=float
    )
    pts = corners * grid._voxel - grid._half_size
    np.testing.assert_array_equal(grid.sample(pts), reference_sample(grid, pts))
    # every corner is a grid vertex: trilinear returns the stored sample
    np.testing.assert_array_equal(
        grid.sample(pts),
        grid.data[tuple(corners.astype(int).T)],
    )
    np.testing.assert_array_equal(
        grid.gradient(pts), reference_gradient(grid, pts)
    )


def test_all_inside_and_mixed_batches_agree_pointwise():
    """A point's value does not depend on the rest of its batch."""
    rng = np.random.default_rng(11)
    grid = VolumeGrid(data=rng.normal(size=(7, 4, 6)).astype(np.float32))
    inside = _points(grid, "inside", 1, 64)
    mixed = np.concatenate([inside, _points(grid, "far", 2, 16)])
    alone = grid.sample(inside)
    np.testing.assert_array_equal(grid.sample(mixed)[:64], alone)
    np.testing.assert_array_equal(grid.sample(mixed)[64:], 0.0)
    np.testing.assert_array_equal(alone, reference_sample(grid, inside))


@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize("order", ["C", "F"])
def test_inputs_are_not_modified(n, order):
    """Sampling reads its points; the planar index copy is its own, even
    where the transposed input happens to be contiguous (one point, or a
    Fortran-ordered batch)."""
    rng = np.random.default_rng(n)
    grid = VolumeGrid(data=rng.normal(size=(6, 5, 4)).astype(np.float32))
    pts = np.asarray(_points(grid, "mixed", n, n), order=order)
    before = pts.copy()
    want = reference_sample(grid, before)
    np.testing.assert_array_equal(grid.sample(pts), want)
    np.testing.assert_array_equal(grid.sample(pts), want)
    np.testing.assert_array_equal(
        grid.gradient(pts), reference_gradient(grid, before)
    )
    np.testing.assert_array_equal(pts, before)


def test_sampling_state_is_not_pickled_twice():
    """Sampling derives its flat view per call: a grid that has sampled
    pickles to its data plus a few small vectors, not a second copy."""
    rng = np.random.default_rng(5)
    grid = VolumeGrid(data=rng.normal(size=(32, 24, 16)).astype(np.float32))
    grid.gradient(_points(grid, "mixed", 4, 100))
    assert len(pickle.dumps(grid)) < grid.data.nbytes * 1.05
