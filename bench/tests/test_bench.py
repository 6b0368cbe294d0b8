"""Tests of the benchmark's own code: spans, metric names, wrapping, outputs."""

import json
import math
import re
from array import array
from pathlib import Path

import pytest

import run
import vortex_align.channel as channel
import vortex_align.estimator as estimator
import vortex_align.harness as harness
from vortex_align.geometry import RxPose, Scenario, UcaGeometry
from layers import Probe, per_layer
from spans import NO_PARENT, Tracer, self_times
from workloads import WORKLOADS, _non_finite, check_chunk, run_chunk

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_a_synthetic_span_tree():
    #  0: [0, 10]
    #  1: [1, 4]   child of 0
    #  2: [2, 3]   child of 1
    #  3: [3, 6]   child of 0, overlaps 1 on [3, 4]
    #  4: [9, 12]  child of 0, sticks out of it past 10
    start = [0.0, 1.0, 2.0, 3.0, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [NO_PARENT, 0, 1, 0, 0]
    own = self_times(start, end, parent)
    # Children of 0 cover [1, 6] and [9, 10]: 6 of its 10 seconds.
    assert own == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_self_times_sum_to_the_root_duration_without_overlap():
    start = array("d", [0.0, 0.5, 0.6, 2.0])
    end = array("d", [3.0, 1.5, 0.9, 2.5])
    parent = array("i", [NO_PARENT, 0, 1, 0])
    assert sum(self_times(start, end, parent)) == pytest.approx(3.0)


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in [*run.END_TO_END_UNITS, *run.PER_LAYER_UNITS, *WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_per_layer_reports_every_declared_metric_even_without_spans():
    metrics = per_layer(Tracer(), Probe(), items=0, traced_s=1.0, untraced_s=1.0,
                        output_bytes=0, quality={})
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert all(math.isfinite(v) for v in metrics.values())


def test_wrapping_reaches_names_imported_into_other_modules():
    original = channel.delta
    original_gamma = channel.pose_gamma
    assert estimator.delta is original
    tracer = Tracer()
    with tracer:
        # estimator imported delta by name; channel imported geometry.gamma
        # under another name.  Both references are wrapped.
        assert estimator.delta is channel.delta is not original
        assert channel.pose_gamma is not original_gamma
        estimator.delta(0.1, 0.2, 0.3)
        channel.delta(0.1, 0.2, 0.3)
    assert estimator.delta is original and channel.delta is original
    assert channel.pose_gamma is original_gamma
    assert [tracer.span_name(i) for i in range(len(tracer))] == [
        "channel.delta", "channel.delta"
    ]


def test_nested_calls_record_their_parent():
    pose = RxPose.from_tilt(1.0, 0.1, 0.2)
    tracer = Tracer()
    with tracer:
        harness.misalignment_angles(pose)
        channel.farfield_antenna_vector(
            Scenario(UcaGeometry(8, 0.01), UcaGeometry(8, 0.01), pose, 120e9, [120e9]),
            pose, 1, channel.wavenumber(120e9),
        )
    names = [tracer.span_name(i) for i in range(len(tracer))]
    top = names.index("channel.farfield_antenna_vector")
    inner = names.index("channel.farfield_received_signal")
    assert tracer.parent[names.index("geometry.misalignment_angles")] == NO_PARENT
    assert tracer.parent[inner] == top


def tiny_spec(tmp_path, out, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"poses": [{"rot_y_deg": 25.0, "rot_x_deg": 18.0}]}))
    return harness.load_spec("ccdf", config_path=str(config), out_dir=str(tmp_path / out),
                             seed=seed, trials=1)


def test_same_seed_gives_same_fingerprints(tmp_path):
    a = run_chunk(harness, tiny_spec(tmp_path, "a", 7))
    b = run_chunk(harness, tiny_spec(tmp_path, "b", 7))
    c = run_chunk(harness, tiny_spec(tmp_path, "c", 8))
    assert a.error is None and a.completed == a.attempted == 1
    assert "results.csv" in a.files
    assert a.files == b.files
    assert a.files["results.csv"] != c.files["results.csv"]


def test_outputs_of_a_good_chunk_pass_the_checks(tmp_path):
    spec = tiny_spec(tmp_path, "out", 3)
    chunk = run_chunk(harness, spec)
    problems, rows = check_chunk(chunk, spec)
    assert problems == [] and len(rows) == 1


def test_a_raising_runner_fails_its_whole_chunk(tmp_path, monkeypatch):
    def broken(spec):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(harness, "run_ccdf", broken)
    chunk = run_chunk(harness, tiny_spec(tmp_path, "out", 1))
    assert chunk.error == "ZeroDivisionError"
    assert chunk.completed == 0 and chunk.attempted == 1


def test_non_finite_summary_values_are_reported():
    found = _non_finite({"a": 1.0, "b": [2.0, float("nan")], "c": {"d": float("inf")}},
                        "summary")
    assert found == ["summary.b[1] is nan", "summary.c.d is inf"]
