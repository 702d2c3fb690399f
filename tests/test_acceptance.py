"""Acceptance tests: the top-level behavioral claims, one per test.

Each test prints a single PASS/FAIL line (bypassing capture) so a plain
pytest run shows the scorecard, then asserts. The expensive episode
batches are computed once per module and shared; the invariants are the
functions of immcda.checks, run here at full size.
"""

import time

import numpy as np
import pytest

from immcda import checks
from immcda.avoidance import MAX_BANK_ANGLE
from immcda.scenario import ScenarioConfig, run_monte_carlo

N_BATCH = 500
N_PAIRED = 200


def _report(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


@pytest.fixture(scope="module")
def batch500():
    """500 default-config episodes (avoidance on), with wall time."""
    t0 = time.perf_counter()
    result = run_monte_carlo(ScenarioConfig(seed=0), N_BATCH, keep_traces=True)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def off200():
    """200 avoidance-off episodes on the same base seeds."""
    config = ScenarioConfig(seed=0, cda_enabled=False)
    return run_monte_carlo(config, N_PAIRED, keep_traces=True)


def _per_axis_errors(traces):
    est = np.concatenate([t.est[:, [0, 2]] - t.truth[:, [0, 2]] for t in traces])
    meas = np.concatenate([t.z - t.truth[:, [0, 2]] for t in traces])
    return est, meas


def test_estimation_beats_raw_measurement(batch500, capsys):
    result, elapsed = batch500
    est_err, meas_err = _per_axis_errors(result.traces)
    rmse_est = np.sqrt(np.mean(est_err**2, axis=0))
    rmse_meas = np.sqrt(np.mean(meas_err**2, axis=0))
    std_est = np.std(est_err, axis=0)
    std_meas = np.std(meas_err, axis=0)
    ratio = float(np.max(rmse_est / rmse_meas))
    ok = (
        bool(np.all(rmse_est < rmse_meas))
        and bool(np.all(std_est < std_meas))
        and bool(np.all(np.abs(rmse_meas - 50.0) < 5.0))
        and elapsed < 60.0
    )
    _report(
        capsys,
        ok,
        "estimation accuracy",
        f"rmse est {rmse_est[0]:.2f}/{rmse_est[1]:.2f} m vs meas "
        f"{rmse_meas[0]:.2f}/{rmse_meas[1]:.2f} m (ratio {ratio:.3f}, "
        f"0.8 anticipated), {N_BATCH} episodes in {elapsed:.1f} s",
    )
    assert np.all(rmse_est < rmse_meas)
    assert np.all(std_est < std_meas)
    assert np.all(np.abs(rmse_meas - 50.0) < 5.0)
    assert elapsed < 60.0


def test_mode_tracking_accuracy(off200, capsys):
    hits = 0
    total = 0
    for trace in off200.traces:
        hits += int(np.sum(trace.est_mode[5:] == trace.true_mode[5:]))
        total += trace.est_mode[5:].size
    accuracy = hits / total
    ok = accuracy >= 0.6
    _report(
        capsys,
        ok,
        "mode tracking",
        f"argmax-mode accuracy {accuracy:.4f} over {N_PAIRED} episodes "
        f"(steps >= 5, chance 0.333)",
    )
    assert accuracy >= 0.6


def test_filter_bank_degenerates_to_kalman_filter(capsys):
    """Identity mode transitions and a point-mass prior must reproduce a
    plain Kalman filter bit for bit over a long run."""
    worst = checks.kalman_reduction(100, 2024)
    ok = worst <= 1e-12
    _report(
        capsys,
        ok,
        "single-mode reduction",
        f"max deviation from standalone Kalman filter {worst:.3g} over 100 steps",
    )
    assert worst <= 1e-12


def test_escape_angle_tangency(capsys):
    worst_rel, worst_theta = checks.escape_tangency(10_000, 99)
    clamped = worst_theta <= MAX_BANK_ANGLE + 1e-15
    ok = worst_rel <= 1e-6 and clamped
    _report(
        capsys,
        ok,
        "escape tangency",
        f"worst relative tangency error {worst_rel:.3g} over 10000 triples, "
        f"clamp {'held' if clamped else 'violated'}",
    )
    assert worst_rel <= 1e-6
    assert clamped


def test_avoidance_reduces_breaches(batch500, off200, capsys):
    result, _ = batch500
    on_frac = float(np.mean(result.breached[:N_PAIRED]))
    off_frac = float(np.mean(off200.breached))
    ok = on_frac < off_frac and off_frac >= 0.9 and on_frac <= 0.2
    _report(
        capsys,
        ok,
        "avoidance efficacy",
        f"breach fraction {on_frac:.3f} enabled vs {off_frac:.3f} disabled "
        f"over {N_PAIRED} paired seeds",
    )
    assert on_frac < off_frac
    assert off_frac >= 0.9
    assert on_frac <= 0.2


def test_dynamics_invariants(capsys):
    # turn matrix velocity block orthogonality over a rate/step sweep
    worst_orth = checks.turn_matrix_orthogonality(241, 7)
    # continuity into the straight-flight matrix at vanishing turn rate
    worst_cont = checks.turn_matrix_continuity(54, 7)
    # Markov sampling frequencies against each transition row
    n_draws = 100_000
    worst_freq = checks.markov_frequencies(n_draws, 7)
    # fuzzed estimator cycles keep covariances PSD and mode probs on the simplex
    n_cycles = 10_000
    worst_simplex = checks.fuzzed_imm_steps(n_cycles, 7)
    ok = (
        worst_orth <= 1e-10
        and worst_cont <= 1e-8
        and worst_freq <= 0.01
        and worst_simplex <= 1e-12
    )
    _report(
        capsys,
        ok,
        "dynamics invariants",
        f"orthogonality {worst_orth:.2g}, zero-rate continuity {worst_cont:.2g}, "
        f"frequency deviation {worst_freq:.4f} at {n_draws} draws, "
        f"simplex deviation {worst_simplex:.2g} over {n_cycles} cycles",
    )
    assert worst_orth <= 1e-10
    assert worst_cont <= 1e-8
    assert worst_freq <= 0.01
    assert worst_simplex <= 1e-12


def test_determinism_and_round_trip(capsys):
    identical = not checks.episode_determinism(11, 60)
    csv_differ, json_dev = checks.trace_roundtrip(11, 2, 60)
    csv_ok = not csv_differ
    json_ok = json_dev <= 1e-9
    ok = identical and csv_ok and json_ok
    _report(
        capsys,
        ok,
        "determinism and round trip",
        f"repeat run identical: {identical}; CSV round trip bit-exact: {csv_ok}; "
        f"JSON round trip within 1e-9: {json_ok}",
    )
    assert identical
    assert csv_ok
    assert json_ok
