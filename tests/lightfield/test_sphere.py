"""Tests for the two-sphere parameterization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lightfield.sphere import (
    TwoSphere,
    angles_to_cartesian,
    cartesian_to_angles,
)


class TestAngleConversions:
    def test_poles(self):
        th, ph = cartesian_to_angles(np.array([[0.0, 0.0, 1.0]]))
        assert th[0] == pytest.approx(0.0)
        th, ph = cartesian_to_angles(np.array([[0.0, 0.0, -1.0]]))
        assert th[0] == pytest.approx(np.pi)

    def test_equator(self):
        th, ph = cartesian_to_angles(np.array([[1.0, 0.0, 0.0]]))
        assert th[0] == pytest.approx(np.pi / 2)
        assert ph[0] == pytest.approx(0.0)

    def test_phi_in_0_2pi(self):
        th, ph = cartesian_to_angles(np.array([[0.0, -1.0, 0.0]]))
        assert ph[0] == pytest.approx(3 * np.pi / 2)

    @given(
        theta=st.floats(0.01, np.pi - 0.01),
        phi=st.floats(0.0, 2 * np.pi - 0.01),
        radius=st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, theta, phi, radius):
        p = angles_to_cartesian(np.array(theta), np.array(phi), radius)
        th, ph = cartesian_to_angles(p[None, :])
        assert th[0] == pytest.approx(theta, abs=1e-9)
        assert ph[0] == pytest.approx(phi, abs=1e-7)
        assert np.linalg.norm(p) == pytest.approx(radius)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200))
def test_angles_match_norm_reference_bit_for_bit(seed, n):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(n, 3)) * rng.uniform(1e-3, 1e3)
    p[0] = 0.0  # the origin maps to theta = pi/2, phi = 0
    for a, b in zip(cartesian_to_angles(p), reference_angles(p)):
        np.testing.assert_array_equal(a, b)


class TestTwoSphereValidation:
    def test_inner_must_be_positive(self):
        with pytest.raises(ValueError):
            TwoSphere(r_inner=0.0, r_outer=1.0)

    def test_outer_must_exceed_inner(self):
        with pytest.raises(ValueError):
            TwoSphere(r_inner=1.0, r_outer=1.0)


class TestSphereIntersection:
    @pytest.fixture()
    def ts(self):
        return TwoSphere(r_inner=1.0, r_outer=2.0)

    def test_head_on_entry(self, ts):
        o = np.array([[-5.0, 0.0, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])
        t, hit = ts.intersect_sphere(o, d, 2.0)
        assert hit[0]
        assert t[0] == pytest.approx(3.0)  # enters outer sphere at x=-2

    def test_miss(self, ts):
        o = np.array([[-5.0, 3.0, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])
        _, hit = ts.intersect_sphere(o, d, 2.0)
        assert not hit[0]

    def test_origin_inside_returns_exit(self, ts):
        o = np.array([[0.0, 0.0, 0.0]])
        d = np.array([[0.0, 0.0, 1.0]])
        t, hit = ts.intersect_sphere(o, d, 2.0)
        assert hit[0]
        assert t[0] == pytest.approx(2.0)

    def test_behind_ray_misses(self, ts):
        o = np.array([[5.0, 0.0, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])  # sphere is behind
        _, hit = ts.intersect_sphere(o, d, 2.0)
        assert not hit[0]


class TestRayToSTUV:
    @pytest.fixture()
    def ts(self):
        return TwoSphere(r_inner=1.0, r_outer=2.0)

    def test_central_ray(self, ts):
        """A ray straight at the center hits both spheres on the same axis."""
        o = np.array([[-5.0, 0.0, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])
        s, t, u, v, valid = ts.ray_to_stuv(o, d)
        assert valid[0]
        # entry points are at -x: theta = pi/2, phi = pi
        assert s[0] == pytest.approx(np.pi / 2)
        assert t[0] == pytest.approx(np.pi)
        assert u[0] == pytest.approx(np.pi / 2)
        assert v[0] == pytest.approx(np.pi)

    def test_ray_missing_inner_sphere_invalid(self, ts):
        o = np.array([[-5.0, 1.5, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])  # passes between the spheres
        s, t, u, v, valid = ts.ray_to_stuv(o, d)
        assert not valid[0]
        assert np.isnan(s[0])

    def test_ray_missing_everything(self, ts):
        o = np.array([[-5.0, 10.0, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])
        _, _, _, _, valid = ts.ray_to_stuv(o, d)
        assert not valid[0]

    @given(
        theta_o=st.floats(0.1, np.pi - 0.1),
        phi_o=st.floats(0.0, 2 * np.pi - 1e-6),
        theta_i=st.floats(0.1, np.pi - 0.1),
        phi_i=st.floats(0.0, 2 * np.pi - 1e-6),
    )
    @settings(max_examples=100, deadline=None)
    def test_stuv_indexes_the_same_geometric_ray(
        self, theta_o, phi_o, theta_i, phi_i
    ):
        """ray -> stuv -> ray reproduces the same oriented line.

        Not every (s,t,u,v) is a *canonical* index (the paper: occluded
        combinations are invalid — an inner point on the far hemisphere is
        the ray's exit, not entry), but the stuv returned by ray_to_stuv
        must always rebuild the identical ray.
        """
        from hypothesis import assume

        ts = TwoSphere(r_inner=1.0, r_outer=3.0)
        o, d = ts.stuv_to_ray(
            np.array(theta_i), np.array(phi_i),
            np.array(theta_o), np.array(phi_o),
        )
        o_out = o[None, :] - 0.5 * d[None, :]
        assume(np.linalg.norm(o_out) > 3.0 + 1e-9)  # start outside
        s, t, u, v, valid = ts.ray_to_stuv(o_out, d[None, :])
        assume(bool(valid[0]))
        o2, d2 = ts.stuv_to_ray(s[:1], t[:1], u[:1], v[:1])
        # same direction ...
        np.testing.assert_allclose(d2[0], d[None, :][0], atol=1e-7)
        # ... and o2 lies on the original ray
        w = o2[0] - o_out[0]
        cross = np.linalg.norm(np.cross(w, d[None, :][0]))
        assert cross == pytest.approx(0.0, abs=1e-6)

    def test_entry_side_roundtrip_exact(self):
        """For a near-side inner point, angles round-trip exactly."""
        ts = TwoSphere(r_inner=1.0, r_outer=3.0)
        theta_o, phi_o = 1.2, 0.7
        theta_i, phi_i = 1.25, 0.74  # close to the outer point: near side
        o, d = ts.stuv_to_ray(
            np.array(theta_i), np.array(phi_i),
            np.array(theta_o), np.array(phi_o),
        )
        o_out = o[None, :] - 0.5 * d[None, :]
        s, t, u, v, valid = ts.ray_to_stuv(o_out, d[None, :])
        assert valid[0]
        assert u[0] == pytest.approx(theta_o, abs=1e-6)
        assert s[0] == pytest.approx(theta_i, abs=1e-6)
        assert np.cos(v[0] - phi_o) == pytest.approx(1.0, abs=1e-9)
        assert np.cos(t[0] - phi_i) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_stuv_raises(self):
        ts = TwoSphere(r_inner=1.0, r_outer=2.0)
        # coincident points are impossible on distinct spheres, but a zero
        # direction can be engineered with r_outer == r_inner only; the
        # guard still must not be reachable without raising
        o, d = ts.stuv_to_ray(
            np.array(0.5), np.array(0.5), np.array(0.5), np.array(0.5)
        )
        assert np.isfinite(d).all()


def reference_project_rays(ts, origins, dirs):
    """``TwoSphere.project_rays`` in its row-major form: ``(N, 3)`` points,
    angles of the outer hits from their ``np.linalg.norm`` radius."""
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(dirs, dtype=np.float64)
    if len(o) > 1 and (o[0] == o).all():
        b = d @ o[0]
        c_in = float(o[0] @ o[0]) - ts.r_inner**2
        c_out = float(o[0] @ o[0]) - ts.r_outer**2
    else:
        b = np.einsum("ij,ij->i", o, d)
        oo = np.einsum("ij,ij->i", o, o)
        c_in, c_out = oo - ts.r_inner**2, oo - ts.r_outer**2
    disc_in, disc_out = b * b - c_in, b * b - c_out
    valid = (disc_in >= 0.0) & (disc_out >= 0.0)
    sq_in = np.sqrt(np.where(valid, disc_in, 0.0))
    sq_out = np.sqrt(np.where(valid, disc_out, 0.0))
    t_in = np.where(-b - sq_in >= 0.0, -b - sq_in, -b + sq_in)
    t_out = np.where(-b - sq_out >= 0.0, -b - sq_out, -b + sq_out)
    valid &= (t_in >= 0.0) & (t_out >= 0.0)
    u, v = reference_angles(o + t_out[:, None] * d)
    return o + t_in[:, None] * d, u, v, valid


def reference_angles(p):
    """``cartesian_to_angles`` with the radius from ``np.linalg.norm``."""
    r = np.linalg.norm(p, axis=-1)
    r = np.where(r == 0, 1.0, r)
    phi = np.arctan2(p[..., 1], p[..., 0])
    return (np.arccos(np.clip(p[..., 2] / r, -1.0, 1.0)),
            np.where(phi < 0, phi + 2.0 * np.pi, phi))


class TestProjectRays:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        shared=st.booleans(),
    )
    def test_matches_row_major_reference_bit_for_bit(self, seed, n, shared):
        ts = TwoSphere(r_inner=1.0, r_outer=2.5)
        rng = np.random.default_rng(seed)
        radius = rng.uniform(0.5, 6.0)
        if shared:
            origins = np.repeat(
                angles_to_cartesian(rng.uniform(0, np.pi),
                                    rng.uniform(0, 2 * np.pi), radius)[None],
                n, axis=0)
        else:
            origins = angles_to_cartesian(
                rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n),
                radius)
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        got = ts.project_rays(origins, dirs)
        for a, b in zip(got, reference_project_rays(ts, origins, dirs)):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    def test_agrees_with_ray_to_stuv(self):
        ts = TwoSphere(r_inner=1.0, r_outer=2.5)
        rng = np.random.default_rng(4)
        origins = angles_to_cartesian(
            rng.uniform(0, np.pi, 500), rng.uniform(0, 2 * np.pi, 500), 4.0)
        dirs = rng.uniform(-0.8, 0.8, (500, 3)) - origins
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        p_in, u, v, valid = ts.project_rays(origins, dirs)
        s, t, u_ref, v_ref, valid_ref = ts.ray_to_stuv(origins, dirs)
        np.testing.assert_array_equal(valid, valid_ref)
        assert valid.any() and not valid.all()
        np.testing.assert_allclose(u[valid], u_ref[valid], atol=1e-12)
        np.testing.assert_allclose(v[valid], v_ref[valid], atol=1e-12)
        s2, t2 = cartesian_to_angles(p_in[valid])
        np.testing.assert_allclose(s2, s[valid], atol=1e-12)
        np.testing.assert_allclose(t2, t[valid], atol=1e-12)


class TestFov:
    def test_fov_covers_inner_sphere(self):
        ts = TwoSphere(r_inner=1.0, r_outer=2.5)
        fov = np.radians(ts.camera_fov_deg(margin=1.0))
        assert fov / 2 == pytest.approx(np.arcsin(1.0 / 2.5))

    def test_margin_increases_fov(self):
        ts = TwoSphere(r_inner=1.0, r_outer=2.5)
        assert ts.camera_fov_deg(1.05) > ts.camera_fov_deg(1.0)

    def test_contains_viewpoint(self):
        ts = TwoSphere(r_inner=1.0, r_outer=2.0)
        assert ts.contains_viewpoint(np.array([3.0, 0.0, 0.0]))
        assert not ts.contains_viewpoint(np.array([1.5, 0.0, 0.0]))
