"""Full episodes on fixed seeds against a recorded golden.

tests/data/golden.json holds one record per episode: seeds 0..49 of the
default encounter with avoidance on and off, plus one dt=0.1 episode of
1000 steps. Discrete outputs (true and estimated mode, advisory trigger
horizon, per-step flags) must match exactly; continuous outputs (minimum
separation, position RMSE, fused estimate and mode probabilities at a few
steps) must match within RTOL.

The golden is a fixture of intended behaviour: regenerate it only for a
change that is meant to move results, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from immcda.scenario import CHUNK_EPISODES, ScenarioConfig, run_episode, run_monte_carlo

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.json"
RTOL = 1e-9
# mode probabilities far below any decision threshold may carry a larger
# relative error; below this magnitude they are compared absolutely
ATOL = 1e-12

SEEDS = range(50)
LONG = {"dt": 0.1, "steps": 1000, "seed": 0, "cda_enabled": True}


def _cases() -> list[dict]:
    short = [
        {"seed": seed, "cda_enabled": cda} for cda in (True, False) for seed in SEEDS
    ]
    return short + [LONG]


def _digits(values: np.ndarray) -> str:
    return "".join(str(int(v)) for v in values)


def _record(case: dict) -> dict:
    return _summarize(case, run_episode(ScenarioConfig(**case)))


def _summarize(case: dict, trace) -> dict:
    metrics = trace.metrics()
    steps = sorted({1, 10, 30, trace.config.steps - 1})
    return {
        "case": case,
        "true_mode": _digits(trace.true_mode),
        "est_mode": _digits(trace.est_mode),
        "trigger_j": _digits(trace.trigger_j),
        "flags": {str(k): list(f) for k, f in enumerate(trace.flags) if f},
        "min_separation": metrics.min_separation,
        "rmse_position_est": metrics.rmse_position_est,
        "est": {str(k): trace.est[k].tolist() for k in steps},
        "mode_probs": {str(k): trace.mode_probs[k].tolist() for k in steps},
    }


def _group(case: dict) -> str:
    if "dt" in case:
        return "long"
    return "cda_on" if case["cda_enabled"] else "cda_off"


@pytest.mark.parametrize("group", ["cda_on", "cda_off", "long"])
def test_episodes_match_golden(group):
    golden = json.loads(GOLDEN.read_text())
    records = [r for r in golden if _group(r["case"]) == group]
    assert records
    for expected in records:
        actual = _record(expected["case"])
        where = f"case {expected['case']}"
        for key in ("true_mode", "est_mode", "trigger_j", "flags"):
            assert actual[key] == expected[key], f"{where}: {key} differs"
        for key in ("min_separation", "rmse_position_est"):
            assert actual[key] == pytest.approx(expected[key], rel=RTOL), (
                f"{where}: {key} differs"
            )
        for key in ("est", "mode_probs"):
            assert actual[key].keys() == expected[key].keys()
            for step, values in expected[key].items():
                np.testing.assert_allclose(
                    actual[key][step],
                    values,
                    rtol=RTOL,
                    atol=ATOL,
                    err_msg=f"{where}: {key} at step {step}",
                )


def _assert_matches(actual: dict, expected: dict) -> None:
    where = f"case {expected['case']}"
    for key in ("true_mode", "est_mode", "trigger_j", "flags"):
        assert actual[key] == expected[key], f"{where}: {key} differs"
    for key in ("min_separation", "rmse_position_est"):
        assert actual[key] == pytest.approx(expected[key], rel=RTOL), f"{where}: {key} differs"
    for key in ("est", "mode_probs"):
        assert actual[key].keys() == expected[key].keys()
        for step, values in expected[key].items():
            np.testing.assert_allclose(
                actual[key][step], values, rtol=RTOL, atol=ATOL,
                err_msg=f"{where}: {key} at step {step}",
            )


@pytest.mark.parametrize("group", ["cda_on", "cda_off"])
def test_batched_episodes_match_golden(group):
    """run_monte_carlo advances the 50 golden episodes in lockstep; each
    trace must still match its golden record."""
    golden = json.loads(GOLDEN.read_text())
    records = [r for r in golden if _group(r["case"]) == group]
    cda = group == "cda_on"
    result = run_monte_carlo(ScenarioConfig(seed=0, cda_enabled=cda), len(SEEDS), keep_traces=True)
    assert [r["case"]["seed"] for r in records] == result.seeds
    for expected, trace in zip(records, result.traces):
        _assert_matches(_summarize(expected["case"], trace), expected)


def test_batch_composition_does_not_change_traces():
    """A batch spanning several engine chunks and the same seeds split over
    two calls give identical traces."""
    config = ScenarioConfig(seed=3)
    n = CHUNK_EPISODES + 7
    whole = run_monte_carlo(config, n, keep_traces=True).traces
    head = run_monte_carlo(config, n // 2, keep_traces=True).traces
    tail = run_monte_carlo(ScenarioConfig(seed=3 + n // 2), n - n // 2, keep_traces=True).traces
    assert len(whole) == len(head + tail) == n
    for a, b in zip(whole, head + tail):
        assert a.config.seed == b.config.seed
        for key in ("truth", "z", "est", "mode_probs", "separation", "advisory_theta"):
            assert np.array_equal(getattr(a, key), getattr(b, key), equal_nan=True), key
        for key in ("true_mode", "est_mode", "trigger_j"):
            assert np.array_equal(getattr(a, key), getattr(b, key)), key
        assert a.flags == b.flags


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(_record(c)) for c in _cases())
    GOLDEN.write_text(f"[\n{lines}\n]\n")
