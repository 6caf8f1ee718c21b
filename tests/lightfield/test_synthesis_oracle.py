"""The synthesizer against a reference implementation of its lookups.

``reference_render_rays`` is the straightforward form of the renderer: a
per-render ``(K, r, r, 3)`` uint8 camera atlas sampled with three-channel
fancy-index gathers, one camera basis per slot, and a ``sel``
read-modify-write per lattice corner.  The synthesizer's packed atlas,
shared projection and planar blend must reproduce its colours bit for bit.
"""

import gc
import hashlib
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lightfield import synthesis
from repro.lightfield.lattice import CameraLattice
from repro.lightfield.multifield import CellSynthesizer, FieldCell
from repro.lightfield.source import SyntheticSource
from repro.lightfield.sphere import TwoSphere, angles_to_cartesian
from repro.lightfield.synthesis import DictProvider, LightFieldSynthesizer
from repro.lightfield.viewset import ViewSet
from repro.render.camera import Camera, look_at, orbit_camera

MODES = ("quadrilinear", "uv-nearest", "nearest")


# ----------------------------------------------------------------------
# the reference renderer
# ----------------------------------------------------------------------
def _reference_corners(synth, u, v):
    lattice = synth.lattice
    fi, fj = lattice.continuous_index(u, v)
    if synth.interpolation in ("uv-nearest", "nearest"):
        i = np.clip(np.rint(fi), 0, lattice.n_theta - 1).astype(np.intp)
        j = np.rint(fj).astype(np.intp) % lattice.n_phi
        return [(i, j, np.ones(len(fi)))]
    i0 = np.clip(np.floor(fi).astype(np.intp), 0, lattice.n_theta - 1)
    i1 = np.minimum(i0 + 1, lattice.n_theta - 1)
    wi = np.clip(fi - i0, 0.0, 1.0)
    j0 = np.floor(fj).astype(np.intp) % lattice.n_phi
    j1 = (j0 + 1) % lattice.n_phi
    wj = np.clip(fj - np.floor(fj), 0.0, 1.0)
    return [
        (i0, j0, (1 - wi) * (1 - wj)),
        (i0, j1, (1 - wi) * wj),
        (i1, j0, wi * (1 - wj)),
        (i1, j1, wi * wj),
    ]


def _reference_atlas(synth, codes):
    lattice, r = synth.lattice, synth.resolution
    K = len(codes)
    atlas = {
        "images": np.zeros((K, r, r, 3), dtype=np.uint8),
        "eyes": np.zeros((K, 3), dtype=np.float32),
        "rights": np.zeros((K, 3), dtype=np.float32),
        "ups": np.zeros((K, 3), dtype=np.float32),
        "forwards": np.zeros((K, 3), dtype=np.float32),
        "present": np.zeros(K, dtype=bool),
        "slot_lut": np.full(lattice.n_theta * lattice.n_phi, -1, np.intp),
        "missing": set(),
    }
    for slot, code in enumerate(codes):
        i, j = divmod(code, lattice.n_phi)
        key = lattice.viewset_of(i, j)
        theta, phi = lattice.angles(i, j)
        eye = angles_to_cartesian(
            np.array(theta), np.array(phi), synth.spheres.r_outer
        )
        up = np.array([0.0, 0.0, 1.0])
        if abs(np.cos(theta)) > 0.999:
            up = np.array([1.0, 0.0, 0.0])
        right, true_up, forward = look_at(eye, np.zeros(3), up)
        atlas["eyes"][slot], atlas["rights"][slot] = eye, right
        atlas["ups"][slot], atlas["forwards"][slot] = true_up, forward
        atlas["slot_lut"][code] = slot
        vs = synth.provider.get_resident(key)
        if vs is None:
            atlas["missing"].add(key)
            continue
        atlas["images"][slot] = vs.view_for_camera(i, j)
        atlas["present"][slot] = True
    return atlas


def _reference_sample(synth, atlas, slots, points):
    rel = points - atlas["eyes"][slots]
    z = np.einsum("ij,ij->i", rel, atlas["forwards"][slots])
    z = np.maximum(z, np.float32(1e-9))
    tan_half = np.tan(np.radians(synth.spheres.camera_fov_deg()) / 2.0)
    inv = 1.0 / (z * np.float32(tan_half))
    x = np.einsum("ij,ij->i", rel, atlas["rights"][slots]) * inv
    y = np.einsum("ij,ij->i", rel, atlas["ups"][slots]) * inv
    r = synth.resolution
    px = (x + 1.0) * (0.5 * r) - 0.5
    py = (1.0 - y) * (0.5 * r) - 0.5
    np.clip(px, 0.0, r - 1.0, out=px)
    np.clip(py, 0.0, r - 1.0, out=py)
    img = atlas["images"]
    if synth.interpolation == "nearest":
        xi = np.rint(px).astype(np.intp)
        yi = np.rint(py).astype(np.intp)
        return img[slots, yi, xi].astype(np.float32) * np.float32(1 / 255)
    x0 = np.floor(px).astype(np.intp)
    y0 = np.floor(py).astype(np.intp)
    if r > 1:
        np.minimum(x0, r - 2, out=x0)
        np.minimum(y0, r - 2, out=y0)
    fx = (px - x0).astype(np.float32)[:, None]
    fy = (py - y0).astype(np.float32)[:, None]
    x1 = x0 + 1 if r > 1 else x0
    y1 = y0 + 1 if r > 1 else y0
    c00 = img[slots, y0, x0].astype(np.float32)
    c01 = img[slots, y0, x1].astype(np.float32)
    c10 = img[slots, y1, x0].astype(np.float32)
    c11 = img[slots, y1, x1].astype(np.float32)
    top = c00 + (c01 - c00) * fx
    bot = c10 + (c11 - c10) * fx
    return (top + (bot - top) * fy) * np.float32(1.0 / 255.0)


def reference_render_rays(synth, origins, dirs):
    """``(colors, coverage, missing keys)`` as a fresh synthesizer would
    render them, computed the slow, obvious way."""
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    colors = np.full((len(origins), 3), synth.background, dtype=np.float32)
    p_in_all, u, v, valid = synth.spheres.project_rays(origins, dirs)
    if not valid.any():
        return colors, 1.0, set()
    vidx = np.nonzero(valid)[0]
    p_in = p_in_all[vidx].astype(np.float32)
    n_phi = synth.lattice.n_phi
    corners = _reference_corners(synth, u[vidx], v[vidx])
    codes = sorted({int(c) for ci, cj, _ in corners
                    for c in np.unique(ci * n_phi + cj)})
    atlas = _reference_atlas(synth, codes)
    acc = np.zeros((len(vidx), 3), dtype=np.float32)
    wsum = np.zeros(len(vidx), dtype=np.float32)
    for ci, cj, w in corners:
        slots = atlas["slot_lut"][ci * n_phi + cj]
        ok = atlas["present"][slots]
        if not ok.any():
            continue
        sel = np.nonzero(ok)[0]
        samples = _reference_sample(synth, atlas, slots[sel], p_in[sel])
        wf = w[sel].astype(np.float32)
        acc[sel] += wf[:, None] * samples
        wsum[sel] += wf
    have = wsum > 1e-6
    out = np.full((len(vidx), 3), synth.background, dtype=np.float32)
    out[have] = acc[have] / wsum[have, None]
    colors[vidx] = out
    return colors, float(np.mean(wsum > 0.999)), atlas["missing"]


# ----------------------------------------------------------------------
# scenes
# ----------------------------------------------------------------------
def random_viewsets(lattice, resolution, seed=0):
    """Every view set of ``lattice`` filled with uniform noise, so any
    mis-addressed texel shows."""
    rng = np.random.default_rng(seed)
    l = lattice.l
    return {
        key: ViewSet(key=key, images=rng.integers(
            0, 256, (l, l, resolution, resolution, 3), dtype=np.uint8))
        for key in lattice.all_viewsets()
    }


def cameras(spheres, resolution, n=4, seed=3):
    """Orbit cameras looking at the volume from spread-out directions."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        theta = rng.uniform(0.3, np.pi - 0.3)
        phi = rng.uniform(0.0, 2 * np.pi)
        out.append(orbit_camera(
            theta, phi, radius=spheres.r_outer * rng.uniform(1.3, 2.5),
            resolution=resolution, fov_deg=spheres.camera_fov_deg() * 0.6,
        ))
    return out


@pytest.fixture(scope="module")
def noise_scene():
    lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
    return lattice, TwoSphere(1.0, 2.5), random_viewsets(lattice, 9)


def assert_matches_reference(synth, origins, dirs):
    colors, coverage, missing = synth.render_rays(origins, dirs)
    ref_colors, ref_coverage, ref_missing = reference_render_rays(
        synth, origins, dirs
    )
    np.testing.assert_array_equal(colors, ref_colors)
    assert colors.dtype == np.float32
    assert coverage == ref_coverage
    assert missing == ref_missing
    return coverage


class TestMatchesReference:
    @pytest.mark.parametrize("mode", MODES)
    def test_all_resident(self, noise_scene, mode):
        lattice, spheres, viewsets = noise_scene
        synth = LightFieldSynthesizer(
            lattice, spheres, 9, DictProvider(viewsets), interpolation=mode
        )
        for cam in cameras(spheres, 24):
            o, d = cam.rays()
            assert synth.required_viewsets(o, d)
            assert assert_matches_reference(synth, o, d) == 1.0

    @pytest.mark.parametrize("mode", MODES)
    def test_partial_residency_runs_the_sel_path(self, noise_scene, mode):
        lattice, spheres, viewsets = noise_scene
        for cam in cameras(spheres, 24):
            o, d = cam.rays()
            probe = LightFieldSynthesizer(
                lattice, spheres, 9, DictProvider(viewsets),
                interpolation=mode,
            )
            needed = sorted(probe.required_viewsets(o, d))
            # keep every other view set the frame needs
            resident = {k: viewsets[k] for k in needed[::2]}
            synth = LightFieldSynthesizer(
                lattice, spheres, 9, DictProvider(resident),
                interpolation=mode, background=0.25,
            )
            coverage = assert_matches_reference(synth, o, d)
            if len(needed) > 1:
                assert coverage < 1.0

    @pytest.mark.parametrize("mode", MODES)
    def test_many_blocks(self, noise_scene, mode, monkeypatch):
        # rays blend in blocks; a small block puts many boundaries (and a
        # ragged last block) inside one frame, with and without residency
        monkeypatch.setattr(synthesis, "_BLOCK", 257)
        lattice, spheres, viewsets = noise_scene
        cam = cameras(spheres, 40, n=1, seed=8)[0]
        o, d = cam.rays()
        for resident in (viewsets, dict(list(viewsets.items())[::2])):
            synth = LightFieldSynthesizer(
                lattice, spheres, 9, DictProvider(resident),
                interpolation=mode,
            )
            synth.required_viewsets(o, d)
            assert_matches_reference(synth, o, d)

    @pytest.mark.parametrize("resolution", [1, 2, 5])
    @pytest.mark.parametrize("mode", MODES)
    def test_tiny_and_odd_resolutions(self, resolution, mode):
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        spheres = TwoSphere(1.0, 2.5)
        viewsets = random_viewsets(lattice, resolution, seed=resolution)
        synth = LightFieldSynthesizer(
            lattice, spheres, resolution, DictProvider(viewsets),
            interpolation=mode,
        )
        for cam in cameras(spheres, 16, n=3):
            assert_matches_reference(synth, *cam.rays())

    @pytest.mark.parametrize("mode", MODES)
    def test_rays_from_many_origins(self, noise_scene, mode):
        lattice, spheres, viewsets = noise_scene
        rng = np.random.default_rng(11)
        n = 2000
        origins = angles_to_cartesian(
            rng.uniform(0.2, np.pi - 0.2, n), rng.uniform(0, 2 * np.pi, n),
            spheres.r_outer * 1.5,
        )
        targets = rng.uniform(-0.6, 0.6, (n, 3))
        dirs = targets - origins
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        synth = LightFieldSynthesizer(
            lattice, spheres, 9, DictProvider(viewsets), interpolation=mode
        )
        synth.required_viewsets(origins, dirs)
        assert_matches_reference(synth, origins, dirs)
        # a bundle that is mostly invalid: rays pointing away
        assert_matches_reference(synth, origins, -dirs)

    def test_multifield_cell(self, noise_scene):
        lattice, _, viewsets = noise_scene
        cell = FieldCell(name="c", center=(0.5, -0.25, 0.1),
                         spheres=TwoSphere(0.4, 1.0))
        cell_synth = CellSynthesizer(cell, lattice, 9,
                                     DictProvider(viewsets))
        cam = Camera(eye=np.array([2.6, 0.4, 0.7]),
                     target=np.array(cell.center), up=np.array([0, 0, 1.0]),
                     fov_deg=30.0, width=20, height=20)
        got = cell_synth.render(cam)
        o, d = cam.rays()
        shifted = o - np.asarray(cell.center, float)
        ref, ref_coverage, _ = reference_render_rays(
            cell_synth.synthesizer, shifted, d
        )
        np.testing.assert_array_equal(got.image.reshape(-1, 3), ref)
        assert got.coverage == ref_coverage


# ----------------------------------------------------------------------
# the projection shared by required_viewsets and render_rays
# ----------------------------------------------------------------------
def noise_synth(noise_scene):
    lattice, spheres, viewsets = noise_scene
    return LightFieldSynthesizer(lattice, spheres, 9, DictProvider(viewsets))


class TestSharedProjection:
    @pytest.mark.parametrize("mutation", ["dirs", "origins", "one ray"])
    def test_rays_mutated_in_place_are_projected_again(
        self, noise_scene, mutation
    ):
        cam, other = cameras(noise_scene[1], 24, n=2)
        o, d = (a.copy() for a in cam.rays())
        stale = noise_synth(noise_scene).render_rays(o, d)[0]
        synth = noise_synth(noise_scene)
        synth.required_viewsets(o, d)
        if mutation == "dirs":
            d[:] = other.rays()[1]
        elif mutation == "origins":
            o += 0.3  # still one shared origin
        else:
            d[np.flatnonzero(stale.any(axis=1))[0]] *= -1.0
        got = synth.render_rays(o, d)
        fresh = noise_synth(noise_scene).render_rays(o, d)
        np.testing.assert_array_equal(got[0], fresh[0])
        assert got[1:] == fresh[1:]
        assert not np.array_equal(got[0], stale)

    def test_projection_is_released_by_render(self, noise_scene):
        synth = noise_synth(noise_scene)
        o, d = cameras(noise_scene[1], 24, n=1)[0].rays()
        synth.required_viewsets(o, d)
        kept = [weakref.ref(a) for a in synth._shared[:2]]
        kept.append(weakref.ref(synth._shared[2].p_in))
        synth.render_rays(o, d)
        assert synth._shared is None
        gc.collect()
        assert all(ref() is None for ref in kept)

    def test_render_alone_keeps_nothing(self, noise_scene):
        synth = noise_synth(noise_scene)
        synth.render_rays(*cameras(noise_scene[1], 24, n=1)[0].rays())
        assert synth._shared is None

    def test_other_rays_do_not_use_the_shared_projection(self, noise_scene):
        first, second = cameras(noise_scene[1], 24, n=2)
        synth = noise_synth(noise_scene)
        synth.required_viewsets(*first.rays())
        o, d = second.rays()
        assert_matches_reference(synth, o, d)

    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.floats(0.05, np.pi - 0.05),
        phi=st.floats(0.0, 2 * np.pi),
        distance=st.floats(1.05, 4.0),
        fov=st.floats(5.0, 80.0),
        mode=st.sampled_from(MODES),
    )
    def test_required_viewsets_are_what_render_misses(
        self, theta, phi, distance, fov, mode
    ):
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        spheres = TwoSphere(1.0, 2.5)
        cam = orbit_camera(theta, phi, radius=spheres.r_outer * distance,
                           resolution=12, fov_deg=fov)
        o, d = cam.rays()

        def empty():
            return LightFieldSynthesizer(lattice, spheres, 9,
                                         DictProvider({}),
                                         interpolation=mode)

        synth = empty()
        required = synth.required_viewsets(o, d)
        assert synth.render_rays(o, d)[2] == required
        assert empty().render_rays(o, d)[2] == required


# ----------------------------------------------------------------------
# atlas slots across rebuilds
# ----------------------------------------------------------------------
def count_fills(viewsets, calls=None):
    """Count ``view_for_camera`` calls per view-set key."""
    calls = Counter() if calls is None else calls
    for vs in viewsets.values():
        def counted(i, j, _fill=vs.view_for_camera, _key=vs.key):
            calls[_key] += 1
            return _fill(i, j)
        vs.view_for_camera = counted
    return calls


class TestAtlasSlots:
    def setup_scene(self, noise_scene):
        lattice, spheres, _ = noise_scene
        viewsets = random_viewsets(lattice, 9, seed=5)
        calls = count_fills(viewsets)
        provider = DictProvider(viewsets)
        synth = LightFieldSynthesizer(lattice, spheres, 9, provider)
        o, d = cameras(spheres, 24, n=1)[0].rays()
        needed = sorted(synth.required_viewsets(o, d))
        synth.render_rays(o, d)
        assert all(calls[key] for key in needed)
        return synth, provider, o, d, needed, calls

    def render_counting(self, synth, o, d, calls):
        """Render, check against the reference, and return the fills the
        render made."""
        calls.clear()
        colors, coverage, missing = synth.render_rays(o, d)
        filled = dict(calls)
        ref = reference_render_rays(synth, o, d)
        np.testing.assert_array_equal(colors, ref[0])
        assert (coverage, missing) == ref[1:]
        return filled

    def test_replaced_viewset_is_refilled(self, noise_scene):
        synth, provider, o, d, needed, calls = self.setup_scene(noise_scene)
        key = needed[0]
        l = synth.lattice.l
        replacement = ViewSet(key=key, images=np.random.default_rng(
            99).integers(0, 256, (l, l, 9, 9, 3), dtype=np.uint8))
        count_fills({key: replacement}, calls)
        provider.add(replacement)
        synth.invalidate_cache()
        # only the replaced view set's cameras are filled again
        assert set(self.render_counting(synth, o, d, calls)) == {key}

    def test_unchanged_residency_refills_nothing(self, noise_scene):
        synth, _, o, d, _, calls = self.setup_scene(noise_scene)
        synth.invalidate_cache()
        assert not self.render_counting(synth, o, d, calls)

    def test_evicted_then_restored_viewset(self, noise_scene):
        synth, provider, o, d, needed, calls = self.setup_scene(noise_scene)
        gone = provider.get_resident(needed[-1])
        provider.remove(needed[-1])
        synth.invalidate_cache()
        assert not self.render_counting(synth, o, d, calls)
        assert needed[-1] in synth.render_rays(o, d)[2]
        provider.add(gone)
        synth.invalidate_cache()
        assert set(self.render_counting(synth, o, d, calls)) == {needed[-1]}


# ----------------------------------------------------------------------
# pinned frames
# ----------------------------------------------------------------------
def pinned_frames_digest():
    """SHA-256 over a fixed sequence of frames: three modes, full and
    partial residency, one synthesizer per mode reused across cameras."""
    source = SyntheticSource(CameraLattice(n_theta=6, n_phi=12, l=3),
                             resolution=24)
    lattice, spheres = source.lattice, source.spheres
    viewsets = {k: source.viewset(k) for k in lattice.all_viewsets()}
    digest = hashlib.sha256()
    for mode in MODES:
        provider = DictProvider(viewsets)
        synth = LightFieldSynthesizer(lattice, spheres, 24, provider,
                                      interpolation=mode)
        for k, cam in enumerate(cameras(spheres, 32, n=6, seed=20031117)):
            if k == 3:
                provider.remove((0, 1))
                provider.remove((1, 2))
                synth.invalidate_cache()
            colors, coverage, _ = synth.render_rays(*cam.rays())
            digest.update(colors.tobytes())
            digest.update(np.float64(coverage).tobytes())
    return digest.hexdigest()


def test_pinned_frames_digest():
    # recorded with the per-render (K, r, r, 3) atlas and
    # three-channel gathers that reference_render_rays spells out
    assert pinned_frames_digest() == PINNED_DIGEST


PINNED_DIGEST = (
    "c870d7b280beb971c620747e4bf69aefe375afef9e51fa5717da044dd08834fc"
)
