"""Pinned SHA-256s of rendered views.

The ray caster's images are a pure function of volume, transfer function,
settings and camera.  These digests of the float32 renders (and the marched
step counts) were recorded before the sampler moved to flat-index gathers
and one-batch gradient stencils; any change to sampling, shading, the
transfer function or the march that moves one output bit fails here.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.render.camera import orbit_camera
from repro.render.raycast import RaycastRenderer, RenderSettings
from repro.volume.grid import VolumeGrid
from repro.volume.synthetic import neg_hip
from repro.volume.transfer import preset

SETTINGS = RenderSettings()


def _sha(image):
    data = np.ascontiguousarray(image, dtype=np.float32).tobytes()
    return hashlib.sha256(data).hexdigest()


def _volume(name):
    vol = neg_hip(size=24)
    if name == "slab":  # non-cubic: every index stride differs
        return VolumeGrid(vol.data[:, 3:20, 5:15], name="slab")
    return vol


# name: (volume, preset, settings, (theta, phi), sha256, steps)
VIEWS = {
    "shaded-accel": (
        "neghip", "neghip", SETTINGS, (1.1, 0.7),
        "66606681293234e6e907edbf08f6f7493eab90281cceda55f2d0ffaa01623ca7",
        60977,
    ),
    "shaded-brute": (
        "neghip", "neghip", replace(SETTINGS, accelerated=False), (1.1, 0.7),
        "66606681293234e6e907edbf08f6f7493eab90281cceda55f2d0ffaa01623ca7",
        61389,
    ),
    "unshaded-accel": (
        "neghip", "neghip", replace(SETTINGS, shaded=False), (2.0, 4.0),
        "af6b273259058b0aae55a884a5ccc272441173312209bbce7f8b3d62e9b29a2b",
        61151,
    ),
    "unshaded-brute": (
        "neghip", "neghip", replace(SETTINGS, shaded=False, accelerated=False),
        (2.0, 4.0),
        "af6b273259058b0aae55a884a5ccc272441173312209bbce7f8b3d62e9b29a2b",
        61658,
    ),
    "slab-ramp-accel": (
        "slab", "ramp", replace(SETTINGS, background=0.2), (0.6, 2.5),
        "3d795382e11b5c7fd819b5a7b4641634c280b540cfadf927160d6f5f251d5369",
        17756,
    ),
    "slab-hotcore-brute": (
        "slab", "hot-core", replace(SETTINGS, accelerated=False), (1.9, 5.5),
        "21e1214ec25e340d8252702e6a95818eec81c2b428e67e48cfbb69a2408ee5ca",
        18126,
    ),
}


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_render_digest(name):
    vol, tf, settings, (theta, phi), digest, steps = VIEWS[name]
    r = RaycastRenderer(_volume(vol), preset(tf), settings)
    image = r.render(orbit_camera(theta, phi, radius=4.0, resolution=40))
    assert _sha(image) == digest
    assert r.last_render_stats.steps == steps


def test_render_with_alpha_digest():
    r = RaycastRenderer(
        _volume("neghip"), preset("opaque-shell"),
        replace(SETTINGS, background=0.3),
    )
    image = r.render_with_alpha(orbit_camera(1.4, 3.1, radius=4.0, resolution=40))
    assert image.shape == (40, 40, 4)
    assert _sha(image) == (
        "d75443d2f50f7dfdc7955ee904374a1026c7836f9c4c24911e17fd202171193c"
    )
    assert r.last_render_stats.steps == 39888
