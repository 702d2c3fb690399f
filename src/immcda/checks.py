"""Invariant checks, shared by the ``check`` subcommand and the test suite.

Each invariant has one implementation here. It takes its sample size and
seed and returns its worst deviation (a number, or the outputs that
differ), so ``immcda check`` runs it at desk size and
``tests/test_acceptance.py`` at full size, each against its own bound. An
invariant that fails outright (a covariance that is not PSD, a fused mean
outside its bank) raises ValueError.
"""

from __future__ import annotations

import math
import os
import tempfile
from typing import Callable

import numpy as np

from . import avoidance, dynamics, imm, traceio
from .scenario import EpisodeTrace, ScenarioConfig, run_episode, run_monte_carlo


# Equivalence rule for two traces of one episode, as the golden test
# applies it: discrete outputs identical, continuous ones within tolerance.
TRACE_RTOL = 1e-9
TRACE_ATOL = 1e-12
_DISCRETE_OUTPUTS = ("true_mode", "est_mode", "trigger_j")
_CONTINUOUS_OUTPUTS = ("truth", "z", "est", "mode_probs", "advisory_theta", "separation")
_FIXED_STEPS = (0.1, 0.5, 1.0, 2.0)  # s
_CHAIN = 100  # cycles each fuzzed bank runs from its start


def trace_differences(a: EpisodeTrace, b: EpisodeTrace) -> list[str]:
    """Outputs in which two traces of one episode disagree under the
    equivalence rule; empty when they agree."""
    diffs = [k for k in _DISCRETE_OUTPUTS if not np.array_equal(getattr(a, k), getattr(b, k))]
    if a.flags != b.flags:
        diffs.append("flags")
    diffs.extend(
        k
        for k in _CONTINUOUS_OUTPUTS
        if not np.allclose(
            getattr(a, k), getattr(b, k), rtol=TRACE_RTOL, atol=TRACE_ATOL, equal_nan=True
        )
    )
    return diffs


def _time_steps(rng: np.random.Generator, n: int) -> np.ndarray:
    # the fixed steps, then random ones in [0.05, 4] s up to n in all
    return np.concatenate([_FIXED_STEPS, rng.uniform(0.05, 4.0, n - len(_FIXED_STEPS))])


def turn_matrix_orthogonality(n_rates: int, seed: int) -> float:
    """Worst deviation from orthogonality of the velocity block of
    coordinated_turn_matrix, over n_rates rates in [-2.5, 2.5] rad/s
    (rate 0, +-1e-6 and +-pi/4 among them) at 8 time steps."""
    rng = np.random.default_rng(seed)
    special = [0.0, 1e-6, -1e-6, math.pi / 4, -math.pi / 4]
    rates = np.concatenate([special, rng.uniform(-2.5, 2.5, n_rates - len(special))])
    worst = 0.0
    for dt in _time_steps(rng, 8):
        v = dynamics.coordinated_turn_matrix(rates, dt)[:, 1::2, 1::2]
        gram = v.swapaxes(-1, -2) @ v
        worst = max(worst, float(np.abs(gram - np.eye(2)).max()))
    return worst


def turn_matrix_continuity(n_steps: int, seed: int) -> float:
    """Worst entry gap between coordinated_turn_matrix at rates +-1e-9 and
    the straight-flight matrix, over n_steps time steps in [0.05, 4] s."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dt in _time_steps(rng, n_steps):
        near = dynamics.coordinated_turn_matrix(np.array([1e-9, -1e-9]), dt)
        exact = dynamics.coordinated_turn_matrix(0.0, dt)
        worst = max(worst, float(np.abs(near - exact).max()))
    return worst


def markov_frequencies(n_draws: int, seed: int) -> float:
    """Worst gap between sampled successor frequencies and the rows of
    TRANSITION_MATRIX, over n_draws draws of sample_next_mode per mode."""
    rng = np.random.default_rng(seed)
    pi = dynamics.TRANSITION_MATRIX
    edges = dynamics.transition_edges(pi)
    worst = 0.0
    for mode in dynamics.Mode:
        nxt = dynamics.sample_next_mode(np.full(n_draws, int(mode)), edges, rng.random(n_draws))
        freq = np.bincount(nxt - 1, minlength=3) / n_draws
        worst = max(worst, float(np.abs(freq - pi[int(mode) - 1]).max()))
    return worst


def mode_distribution_simplex(n: int, seed: int) -> float:
    """Worst distance from the simplex of evolve_mode_distribution over n
    random mode distributions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        m = rng.random(3)
        m /= m.sum()
        out = dynamics.evolve_mode_distribution(dynamics.TRANSITION_MATRIX, m)
        worst = max(worst, abs(float(out.sum()) - 1.0), float(max(0.0, -out.min())))
    return worst


def _random_banks(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
    # means around the encounter scale, random PSD covariances, random mu
    scale = np.array([3000.0, 300.0, 3000.0, 300.0, 0.3])
    means = rng.normal(0.0, 1.0, (n, 3, 5)) * scale
    root = rng.normal(0.0, 1.0, (n, 3, 5, 5))
    shape = np.diag([50.0, 10.0, 50.0, 10.0, 0.1])
    covs = shape @ (root @ root.swapaxes(-1, -2) + 1e-3 * np.eye(5)) @ shape
    mu = rng.random((n, 3)) + 1e-3
    return means, covs, mu / mu.sum(axis=1, keepdims=True)


def fuzzed_imm_steps(n_cycles: int, seed: int) -> float:
    """Worst simplex deviation of the mode probabilities over n_cycles
    estimator cycles on fixes uniform in [-6000, 6000]^2 m.

    Banks run in chains of _CHAIN cycles (whole chains, so n_cycles rounds
    up), half of them from a track initialization at a random fix and half
    from a random bank. Raises ValueError if a per-mode or fused
    covariance leaves the PSD cone, a mode probability turns negative, or
    a fused mean leaves the box of its bank's means.
    """
    rng = np.random.default_rng(seed)
    n_banks = -(-n_cycles // _CHAIN)
    means, covs, mu = imm.initial_banks(rng.uniform(-5000.0, 5000.0, (n_banks, 2)))
    random_means, random_covs, random_mu = _random_banks(rng, n_banks)
    odd = np.arange(n_banks) % 2 == 1
    means[odd], covs[odd], mu[odd] = random_means[odd], random_covs[odd], random_mu[odd]
    model = imm.ImmModel()
    worst = 0.0
    for _ in range(_CHAIN):
        out = imm.imm_step(means, covs, mu, rng.uniform(-6000.0, 6000.0, (n_banks, 2)), model)
        means, covs, mu = out.means, out.covs, out.mode_probs
        if np.any(mu < 0.0):
            raise ValueError("negative mode probability")
        worst = max(worst, float(np.abs(mu.sum(axis=1) - 1.0).max()))
        fused_mean, fused_cov = imm.fuse_estimates(means, covs, mu)
        imm.check_covariance(covs, "per-mode covariance")
        imm.check_covariance(fused_cov, "fused covariance")
        lo, hi = means.min(axis=1), means.max(axis=1)
        slack = 1e-9 * (1.0 + np.abs(hi) + np.abs(lo))
        if np.any(fused_mean < lo - slack) or np.any(fused_mean > hi + slack):
            raise ValueError("fused mean left the box of the bank's means")
    return worst


def kalman_reduction(n_steps: int, seed: int) -> float:
    """Worst gap between a single-mode bank and a plain Kalman filter.

    Identity mode transitions and a point-mass prior on straight flight pin
    the bank to one model, so over n_steps fixes of a straight track from
    a random start its fused mean and covariance must equal the filter's.
    """
    rng = np.random.default_rng(seed)
    model = imm.ImmModel(pi=np.eye(3))
    start = rng.uniform(-5000.0, 5000.0, 2)
    velocity = rng.uniform(-300.0, 300.0, 2)
    truth = np.array([start[0], velocity[0], start[1], velocity[1], 0.0])
    means, covs, _ = imm.initial_banks(start[None])
    mu = np.array([[1.0, 0.0, 0.0]])
    kf_mean, kf_cov = means[:, :1], covs[:, :1]  # one bank holding one filter
    a = dynamics.mode_matrix(dynamics.Mode.STRAIGHT, 0.0, 1.0)
    worst = 0.0
    for _ in range(n_steps):
        truth = dynamics.step_truth(truth, dynamics.Mode.STRAIGHT, 1.0)
        z = dynamics.measure(truth, 50.0 * rng.standard_normal(2))[None]
        out = imm.imm_step(means, covs, mu, z, model)
        means, covs, mu = out.means, out.covs, out.mode_probs
        fused_mean, fused_cov = imm.fuse_estimates(means, covs, mu)
        kf_mean, kf_cov = imm.kf_predict(kf_mean, kf_cov, a, model.process_cov)
        kf_mean, kf_cov, *_ = imm.kf_update(kf_mean, kf_cov, z, model.meas_matrix, model.meas_cov)
        worst = max(
            worst,
            float(np.abs(fused_mean - kf_mean[:, 0]).max()),
            float(np.abs(fused_cov - kf_cov[:, 0]).max()),
        )
    return worst


def escape_tangency(n: int, seed: int) -> tuple[float, float]:
    """Worst relative tangency error of escape_angle, and its largest
    |theta|, over n random encounters.

    r_safe is uniform in [100, 5000] m, the track's range in
    [1.001, 10] r_safe and its predicted step in [10 m, 3 r_safe], with
    uniform bearings. Each prediction deflected by theta_unclamped must
    pass the origin at exactly r_safe ahead of the track; a closest
    approach behind it counts as the track's current range.
    """
    rng = np.random.default_rng(seed)
    r_safe = rng.uniform(100.0, 5000.0, n)
    b_range = r_safe * rng.uniform(1.001, 10.0, n)
    bearing = rng.uniform(0.0, 2.0 * math.pi, n)
    b = b_range[:, None] * np.stack([np.cos(bearing), np.sin(bearing)], axis=1)
    step = rng.uniform(10.0, 3.0 * r_safe)
    heading = rng.uniform(0.0, 2.0 * math.pi, n)
    along = step[:, None] * np.stack([np.cos(heading), np.sin(heading)], axis=1)
    adv = avoidance.escape_angle(b, b + along, r_safe, np.ones(n, dtype=int))
    track = np.stack([b[:, 0], along[:, 0], b[:, 1], along[:, 1], np.zeros(n)], axis=1)
    d = avoidance.deflect_track(track, adv.theta_unclamped)[:, 1::2]
    d /= np.hypot(d[:, 0], d[:, 1])[:, None]
    foot_ahead = -(d * b).sum(axis=1) > 0.0
    miss = np.where(foot_ahead, np.abs(d[:, 0] * b[:, 1] - d[:, 1] * b[:, 0]), b_range)
    return float((np.abs(miss - r_safe) / r_safe).max()), float(np.abs(adv.theta).max())


def episode_determinism(seed: int, steps: int) -> list[str]:
    """Outputs that differ between two runs of one episode."""
    config = ScenarioConfig(seed=seed, steps=steps)
    a, b = run_episode(config), run_episode(config)
    return [
        k
        for k in _DISCRETE_OUTPUTS + _CONTINUOUS_OUTPUTS
        if not np.array_equal(getattr(a, k), getattr(b, k), equal_nan=True)
    ] + (["flags"] if a.flags != b.flags else [])


def batch_differences(seed: int, n_episodes: int) -> list[str]:
    """Outputs in which an episode of a run_monte_carlo batch differs from
    run_episode for its seed, with avoidance on and off."""
    for cda in (True, False):
        config = ScenarioConfig(seed=seed, cda_enabled=cda)
        for trace in run_monte_carlo(config, n_episodes, keep_traces=True).traces:
            diffs = trace_differences(trace, run_episode(trace.config))
            if diffs:
                return [f"cda_enabled={cda} seed {trace.config.seed} {k}" for k in diffs]
    return []


def trace_roundtrip(seed: int, n_episodes: int, steps: int) -> tuple[list[str], float]:
    """Write and read back a batch's episode CSVs and summary.json.

    Returns the CSV columns that do not read back bit for bit (NaN
    advisories included), and the worst relative read-back error of the
    summary's breach fraction, mean minimum separation and position RMSE
    (inf if its episode count differs).
    """
    config = ScenarioConfig(seed=seed, steps=steps)
    result = run_monte_carlo(config, n_episodes, keep_traces=True)
    differ: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for trace in result.traces:
            path = os.path.join(tmp, f"episode_{trace.config.seed}.csv")
            traceio.write_episode_csv(trace, path)
            back = traceio.read_episode_csv(path)
            differ.extend(
                f"episode_{trace.config.seed}.{name}"
                for name, col in traceio.trace_columns(trace).items()
                if back[name].dtype != col.dtype or back[name].tobytes() != col.tobytes()
            )
            paths.append(path)
        json_path = os.path.join(tmp, "summary.json")
        manifest = traceio.make_manifest(config, result.seeds, paths)
        traceio.write_summary_json(result, manifest, json_path)
        payload = traceio.read_summary_json(json_path)
    if payload["n_episodes"] != result.n_episodes:
        return differ, math.inf
    pairs = (
        (payload["breach_fraction"], result.breach_fraction),
        (payload["min_separation"]["mean"], result.min_separation_mean),
        (payload["rmse_position_est"], result.rmse_position_est),
    )
    return differ, max(abs(read - value) / max(abs(value), 1.0) for read, value in pairs)


def _at_most(deviation: float, bound: float) -> tuple[bool, str]:
    return deviation <= bound, f"max dev {deviation:.3g}"


def _none_differ(differ: list[str]) -> tuple[bool, str]:
    return not differ, f"{', '.join(differ)} differ"


def _desk_tangency() -> tuple[bool, str]:
    rel, theta = escape_tangency(2000, 11)
    return rel <= 1e-6 and theta <= avoidance.MAX_BANK_ANGLE + 1e-12, (
        f"max rel dev {rel:.3g}, max |theta| {theta!r}"
    )


def _desk_roundtrip() -> tuple[bool, str]:
    differ, summary_dev = trace_roundtrip(3, 2, 10)
    return not differ and summary_dev == 0.0, (
        f"read-back differs in {differ}, summary.json max rel dev {summary_dev:.3g}"
    )


# Each desk check returns whether it passed and what it measured.
_DESK_CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("turn_matrix_velocity_orthogonality", lambda: _at_most(turn_matrix_orthogonality(41, 5), 1e-10)),
    ("turn_matrix_zero_rate_continuity", lambda: _at_most(turn_matrix_continuity(8, 5), 1e-8)),
    ("markov_transition_frequencies", lambda: _at_most(markov_frequencies(20_000, 20240817), 0.02)),
    ("mode_distribution_simplex", lambda: _at_most(mode_distribution_simplex(200, 7), 1e-12)),
    ("fuzzed_imm_steps", lambda: _at_most(fuzzed_imm_steps(300, 99), 1e-12)),
    ("single_mode_reduces_to_kf", lambda: _at_most(kalman_reduction(40, 5), 1e-12)),
    ("escape_tangency", _desk_tangency),
    ("episode_determinism", lambda: _none_differ(episode_determinism(5, 12))),
    ("batched_matches_single", lambda: _none_differ(batch_differences(11, 4))),
    ("trace_roundtrip", _desk_roundtrip),
)


def run_all_checks(report: Callable[[str], None] = print) -> bool:
    """Runs every check at desk size, reporting one line each."""
    all_ok = True
    for name, check in _DESK_CHECKS:
        try:
            passed, detail = check()
        except ValueError as exc:
            passed, detail = False, str(exc)
        report(f"{'PASS' if passed else 'FAIL'} {name}" + ("" if passed else f": {detail}"))
        all_ok = all_ok and passed
    return all_ok
