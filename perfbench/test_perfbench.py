"""Tests of the benchmark itself (small rigs; a few seconds each).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTrace  # noqa: E402

SMALL = dict(lattice=(9, 18, 3), resolution=32)
CONTENDED = replace(workloads.CONTENDED, n_clients=2, n_accesses=6, **SMALL)
FLEET = replace(workloads.FLEET, n_clients=6, n_accesses=5, **SMALL)

#: time of a traced session spent outside ``EventQueue.run_until``
#: (wiring the traces, starting the pumps, collecting results) may leave
#: at most this share of the wall time unattributed
ATTRIBUTION_TOLERANCE = 0.10


def _traced_session(spec, seed):
    trace = LayerTrace()
    source = workloads.sim_setup(spec, seed)
    return trace, workloads.sim_session(spec, source, seed, trace)


def test_wrappers_are_removed_after_a_traced_session():
    trace, r = _traced_session(CONTENDED, 3)
    assert trace.installed == 0
    rig = r.probe.rig
    wrapped = [rig.queue, rig.network, rig.scheduler, rig.lors,
               *rig.lan_depots, *rig.wan_depots, *rig.client_agents]
    for obj in wrapped:
        assert not [k for k, v in vars(obj).items()
                    if callable(v) and getattr(v, "__name__", "") == "wrapper"]
    for client, staging in zip(rig.clients, rig.stagings):
        assert "handle_cursor" not in vars(client)
        assert client.on_cursor == staging.update_cursor


def test_scheduled_equals_fired_plus_cancelled_plus_pending():
    for spec in (CONTENDED, FLEET):
        c = _traced_session(spec, 5)[1].probe.counters()
        assert c["scheduled"] > 0 and c["fired"] > 0
        assert (c["pending0"] + c["scheduled"]
                == c["fired"] + c["cancelled"] + c["pending"])


def test_layer_self_times_sum_to_the_traced_wall_time():
    trace, r = _traced_session(CONTENDED, 7)
    m = r.probe.metrics()
    layers = ["simtime.self_s", "network.flush_s", "network.transfer_s",
              "scheduler.submit_s", "lors.lors_s", "ibp.ibp_s",
              "agent.request_s", "staging.update_cursor_s",
              "client.handle_cursor_s"]
    attributed = sum(m[k] for k in layers)
    # the layers partition the outermost spans exactly ...
    assert abs(attributed - trace.root_s()) < 1e-6 * max(1.0, attributed)
    # ... and those cover the run but for the stated tolerance
    assert attributed <= r.loop_s
    assert attributed >= (1 - ATTRIBUTION_TOLERANCE) * r.loop_s


def test_traced_and_untraced_sessions_record_identical_accesses():
    out = workloads.trace_sim(FLEET, 2, 0)
    assert out.problems == []
    assert out.metrics["simtime.fired"] > 0
    assert out.metrics["trace.overhead_ratio"] > 0


def test_sim_run_repeats_its_sessions_and_counts_every_access():
    spec = replace(CONTENDED, seeds=2, reps=2)
    out = workloads.run_sim(spec, 4, 0)
    assert out.problems == []
    assert out.notes["passes"] == spec.reps
    assert out.attempted == spec.reps * spec.planned
    assert out.failed == 0
    assert all(out.metrics[k] > 0 for k in ("setup_s", "ops_per_s",
                                            "wait_p90_ms"))
    loops = out.notes["loop_s"]
    assert out.notes["best_loop_s"] <= min(sum(p) for p in loops)
    again = workloads.run_sim(spec, 4, 0)
    assert again.notes["access_digests"] == out.notes["access_digests"]
    assert again.metrics["wait_p90_ms"] == out.metrics["wait_p90_ms"]


def test_best_of_keeps_the_fastest_repetition_per_item():
    assert workloads.best_of([[3.0, 1.0, 2.0], [2.0, 4.0, 2.5]]) == [
        2.0, 1.0, 2.0]


def test_a_failing_session_counts_all_its_accesses_failed():
    bad = replace(CONTENDED, session={**CONTENDED.session,
                                      "wan_bandwidth": -1.0})
    out = workloads.run_sim(bad, 1, 0)
    assert out.failed == out.attempted == bad.planned
    assert out.problems and "exception" in out.notes


def test_browse_frames_are_covered_and_reproducible():
    spec = replace(workloads.BrowseSpec(), resolution=48, frames=12)
    out = workloads.run_browse(spec, 3, 0.5)
    assert out.problems == []
    assert out.attempted == out.notes["passes"] * spec.frames
    assert out.failed == 0
    again = workloads.run_browse(spec, 3, 0.5)
    assert again.notes["frame_digest"] == out.notes["frame_digest"]
    traced = workloads.trace_browse(spec, 3, 0.5)
    assert traced.problems == []
    assert traced.metrics["synthesis.atlas_views_filled"] > 0
    assert traced.metrics["compression.decompress_calls"] > 0


def test_generate_checks_its_output():
    spec = replace(workloads.GenerateSpec(), volume_size=24, resolution=24)
    out = workloads.run_generate(spec, 1, 0.0)
    assert out.problems == []
    assert out.notes["accel_max_abs_err"] == 0.0
    traced = workloads.trace_generate(spec, 1, 0.0)
    assert traced.problems == []
    assert traced.metrics["raycast.steps_per_ray"] > 0


def test_benchmark_json_declares_what_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m.pop("bound") for m in doc["end_to_end"]}
    setup = bounds.pop("setup_s")
    assert all(b < setup <= 0.25 for b in bounds.values())


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "browse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
