"""Section 4.1 text claims: generation time and per-view-set sizes.

Paper: the full database takes 2-4.5 h on 32 processors (dominated by I/O)
and compressed view sets run 1.2 MB (200²) to 7.8 MB (600²).  We time real
view-set generation, extrapolate to 288 view sets / 32 workers, and check
the measured per-view-set sizes against the quoted band.

``test_generation_acceleration`` executes the builtin ``generation`` sweep
spec (macrocell kernel vs brute marcher, the zlib level sweep, and the
per-view-set timing) through the sweep engine, which merges the runs into
``BENCH_generation.json`` at the repo root.
"""

import os

import pytest

from repro.experiments import (
    PAPER,
    format_table,
    run_sweep,
    spec_named,
    text_generation_time,
)

_SMALL = os.environ.get("REPRO_SCALE", "default") == "small"
RESOLUTION = 64 if _SMALL else 200


@pytest.fixture(scope="module")
def gen_stats():
    return text_generation_time(
        resolution=RESOLUTION, volume_size=32, sample_viewsets=2, workers=1
    )


def test_text_generation(benchmark, gen_stats, report):
    wall = gen_stats["wall_clock"]
    table = format_table(
        headers=["metric", "measured", "paper"],
        rows=[
            ["resolution", gen_stats["resolution"], "200-600"],
            ["s per view set (1 worker)",
             wall["seconds_per_viewset"], "-"],
            ["full DB hours (32 cpu)",
             wall["full_db_hours_on_32cpu"],
             f"{PAPER.generation_hours_band[0]}-"
             f"{PAPER.generation_hours_band[1]}"],
            ["compression ratio", gen_stats["compression_ratio"],
             "5-7"],
        ],
        title="Section 4.1 — database generation time",
    )
    report("text_generation", table)

    assert wall["seconds_per_viewset"] > 0
    assert gen_stats["compression_ratio"] > 2.0
    # our numpy generator extrapolates to within a couple orders of
    # magnitude of the paper's 32-CPU cluster; the lower edge accounts for
    # macrocell empty-space skipping, which the paper's generator lacked
    if not _SMALL:
        assert 0.005 < wall["full_db_hours_on_32cpu"] < 50

    # representative kernel: rendering one sample view
    from repro.lightfield import CameraLattice, LightFieldBuilder
    from repro.render.raycast import RenderSettings
    from repro.volume import neg_hip, preset

    builder = LightFieldBuilder(
        neg_hip(size=32), preset("neghip"), CameraLattice(72, 144, 6),
        resolution=RESOLUTION, workers=1,
        settings=RenderSettings(shaded=False),
    )
    cam = builder.camera_for(36, 72)
    frame = benchmark(builder.renderer._inline.render, cam)
    assert frame.shape == (RESOLUTION, RESOLUTION, 3)


def test_generation_acceleration(report):
    """Brute vs macrocell-accelerated generator kernel on the negHip scene.

    Runs the builtin ``generation`` sweep: wall-clock per sample view,
    marched steps per ray before/after, empty-macrocell fraction, speedup,
    the zlib speed/ratio sweep, and the per-view-set generation timing —
    merged by the engine into BENCH_generation.json.
    """
    result = run_sweep(spec_named("generation"), workers=1)
    doc = result.doc
    wall = doc["wall_clock"]
    print(f"wrote {result.artifact_path}")

    report("generation_acceleration", format_table(
        headers=["metric", "brute", "accelerated"],
        rows=[
            ["s / view", wall["brute_seconds_per_view"],
             wall["accelerated_seconds_per_view"]],
            ["steps / ray", doc["brute"]["steps_per_ray"],
             doc["accelerated"]["steps_per_ray"]],
            ["speedup", 1.0, wall["speedup"]],
            ["max |err|", 0.0, doc["max_abs_error"]],
        ],
        title="Generator kernel — macrocell empty-space skipping",
    ))

    # the macrocell classification must be effective on this scene and the
    # skipping lossless: skipped samples carry exactly zero extinction, so
    # the accelerated views equal the brute-force ones bit for bit
    assert doc["empty_cell_fraction"] >= 0.5
    assert doc["max_abs_error"] == 0.0
    assert (doc["accelerated"]["steps_per_ray"]
            < doc["brute"]["steps_per_ray"])
    # at the tiny smoke volume the kernel is too cheap for a stable
    # speedup bar; the full-scale bar matches the original benchmark
    if not _SMALL:
        assert wall["speedup"] > 1.5
    # zlib never compresses worse at a higher level (monotone ratios)
    ratios = [r["ratio"] for r in doc["zlib_levels"]]
    assert ratios[-1] >= ratios[0] * 0.99
    assert wall["seconds_per_viewset"] > 0
