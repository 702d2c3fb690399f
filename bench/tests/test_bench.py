"""The benchmark's own tests: tiny runs of each workload, the output check,
and the span arithmetic. Run from the repository root with

    python -m pytest -q bench/tests
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import run
import spans
import workloads
from immcda import scenario

TINY = {
    "mc_cda_on": dict(batch_episodes=3, quality_batches=2),
    "mc_cda_off_traces": dict(batch_episodes=3, quality_batches=2),
    "episode_long": dict(steps=60, quality_batches=2),
}
SPEC = json.loads(run.SPEC_PATH.read_text())


def tiny(name):
    return replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_of_each_workload(name, tmp_path):
    w = tiny(name)
    p = run.run_pass(w, 7, 0.0, tmp_path / "untraced", time.monotonic() + 60)
    assert p.failed == 0 and not p.problems
    assert p.attempted == w.quality_batches * w.batch_episodes
    values, quality = run.end_to_end(w, p, [0.2])
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(math.isfinite(v) and v > 0 for v in values.values())
    assert quality["rmse_position_est"] < quality["rmse_position_meas"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_reports_every_per_layer_metric(name, tmp_path):
    w = tiny(name)
    deadline = time.monotonic() + 60
    untraced = run.run_pass(w, 7, 0.0, tmp_path / "u", deadline)
    tracer = spans.Tracer()
    traced = run.run_pass(w, 7, 0.0, tmp_path / "t", deadline, tracer=tracer)
    assert traced.failed == 0
    steps = traced.attempted * w.steps
    summary = tracer.summarize(traced.prefix_mark, steps, steps)
    names = [m["name"] for m in SPEC["per_layer"]]
    values, absent = run.per_layer(w, untraced, traced, summary, names)
    assert set(names) <= set(values) and absent == []
    assert values["imm.calls_per_step"] > 0
    assert values["dynamics.step_truth.us_per_call"] > 0
    if w.cda_enabled:
        assert values["avoidance.calls_per_step"] > 0
    else:
        assert values["avoidance.calls_per_step"] == 0
    if w.kind == "cli":
        assert values["traceio.bytes_per_episode"] > 0
        assert values["traceio.write_mb_per_s"] > 0
        assert values["cli.calls_per_step"] > 0
    else:
        assert values["traceio.calls_per_step"] == 0
    # the package is restored once the traced calls are done
    assert scenario.run_episode is tracer._originals[tracer.names.index("scenario.run_episode")]


def test_deleted_function_reads_as_absent(tmp_path):
    w = tiny("episode_long")
    tracer = spans.Tracer(layers=("scenario", "dynamics"))
    deadline = time.monotonic() + 60
    traced = run.run_pass(w, 1, 0.0, tmp_path, deadline, tracer=tracer)
    steps = traced.attempted * w.steps
    summary = tracer.summarize(traced.prefix_mark, steps, steps)
    names = ["imm.kf_update.us_per_call", "dynamics.step_truth.us_per_call"]
    values, absent = run.per_layer(w, traced, traced, summary, names)
    assert absent == ["imm.kf_update.us_per_call"]
    assert values["imm.kf_update.us_per_call"] == 0.0
    assert values["dynamics.step_truth.us_per_call"] > 0.0


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100] holds a [10, 40] (which holds c [20, 30]) and b [50, 60]
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0, 10, 20, 50, 200])
    end = np.array([100, 40, 30, 60, 205])
    np.testing.assert_array_equal(
        spans.self_times(parent, start, end), [60.0, 20.0, 10.0, 10.0, 5.0]
    )


def test_layer_sums_on_a_synthetic_trace():
    tracer = spans.Tracer(layers=())
    tracer.names = ["scenario.run", "imm.step", "dynamics.step"]
    tracer.layer_of = ["scenario", "imm", "dynamics"]
    tracer.layers = ("scenario", "imm", "dynamics")
    for fid, parent, s, e in [(0, -1, 0, 100), (1, 0, 10, 60), (2, 1, 20, 30), (1, 0, 70, 90)]:
        tracer.fn.append(fid)
        tracer.parent.append(parent)
        tracer.start.append(s)
        tracer.end.append(e)
    # the first three spans are the prefix: one imm call over two steps
    out = tracer.summarize((3, 0), prefix_steps=2, steps=4)
    assert out["layers"]["imm"]["calls_per_step"] == 0.5
    assert out["layers"]["imm"]["self_us_per_step"] == pytest.approx(60 / 1e3 / 4)
    assert out["layers"]["scenario"]["self_share"] == pytest.approx(30 / 100)
    assert out["functions"]["imm.step"]["us_per_call"] == pytest.approx(35 / 1e3)


def reference_episode():
    return dict(workloads.load_reference("mc_cda_on")["episodes"][0])


@pytest.mark.parametrize(
    "field, change",
    [
        ("breached", lambda v: not v),
        ("min_separation", lambda v: v * (1.0 + 1e-6)),
        ("advisory_count", lambda v: v + 1),
        ("est_mode", lambda v: "2" + v[1:]),
        ("trigger_j", lambda v: v.replace("0x", "1x", 1)),
    ],
)
def test_output_check_catches_a_perturbed_episode(field, change):
    ref = reference_episode()
    got = dict(ref, **{field: change(ref[field])})
    assert workloads.compare_records(ref, got)


def test_output_check_tolerates_rounding_below_the_rule():
    ref = reference_episode()
    got = dict(ref, min_separation=ref["min_separation"] * (1.0 + 1e-12))
    assert workloads.compare_records(ref, got) == []


def test_output_check_catches_shifted_quality():
    quality = workloads.load_reference("mc_cda_on")["quality"]
    shifted = dict(quality, rmse_position_est=quality["rmse_position_est"] * (1.0 + 1e-6))
    assert workloads.compare_quality(quality, shifted)


def test_reference_matches_a_fresh_episode():
    w = workloads.WORKLOADS["mc_cda_on"]
    ref = reference_episode()
    trace = scenario.run_episode(w.config(ref["seed"]))
    got = workloads.episode_record(
        ref["seed"], trace.separation, trace.est_mode, trace.trigger_j, trace.config.r_safe
    )
    assert workloads.compare_records(ref, got) == []


def test_flipped_breached_flag_fails_the_batch():
    w = tiny("mc_cda_on")
    result = workloads.run_batch(w, 5, None)
    assert workloads.check_batch(w, 5, result, None, False).failed == 0
    result.breached[1] = not result.breached[1]
    assert workloads.check_batch(w, 5, result, None, False).failed == 1


def _rewrite(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_cli_check_catches_an_altered_csv_and_summary(tmp_path):
    w = tiny("mc_cda_off_traces")
    assert workloads.run_batch(w, 5, tmp_path) == 0
    assert workloads.check_batch(w, 5, 0, tmp_path, False).failed == 0

    csv_path = tmp_path / "episode_6.csv"
    sep = repr(float(csv_path.read_text().splitlines()[3].split(",")[-1]))
    _rewrite(csv_path, sep, repr(float(np.nextafter(float(sep), np.inf))))
    stats = workloads.check_batch(w, 5, 0, tmp_path, False)
    assert stats.failed == 1 and "read-back" in stats.problems[0]

    summary = tmp_path / "summary.json"
    data = json.loads(summary.read_text())
    data["mode_accuracy"] *= 1.0 + 1e-6
    summary.write_text(json.dumps(data))
    assert workloads.check_batch(w, 5, 0, tmp_path, False).failed == w.batch_episodes


def test_reference_for_other_params_is_refused():
    w = tiny("mc_cda_on")
    ref = workloads.load_reference("mc_cda_on")
    assert workloads.reference_problems(ref, w, [])
