"""Desk-scale invariant self-tests behind the ``check`` subcommand.

Each check exercises one module invariant at a size that finishes in
seconds. The full-size versions live in the test suite; this module lets
an installed copy prove itself without pytest.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


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


def _check_turn_matrix_orthogonality() -> CheckResult:
    worst = 0.0
    for omega in (-2.5, -1.0, -math.pi / 4, -1e-6, 0.0, 1e-6, 0.5, math.pi / 4, 2.0):
        for dt in (0.1, 0.5, 1.0, 2.0):
            a = dynamics.coordinated_turn_matrix(omega, dt)
            v = a[np.ix_([1, 3], [1, 3])]
            worst = max(worst, float(np.abs(v.T @ v - np.eye(2)).max()))
    return CheckResult(
        "turn_matrix_velocity_orthogonality", worst <= 1e-10, f"max dev {worst:.3g}"
    )


def _check_turn_matrix_continuity() -> CheckResult:
    a1 = dynamics.coordinated_turn_matrix(0.0, 1.0)
    worst = 0.0
    for omega in (1e-9, -1e-9, 5e-9, 9.9e-9):
        a = dynamics.coordinated_turn_matrix(omega, 1.0)
        worst = max(worst, float(np.abs(a - a1).max()))
    return CheckResult(
        "turn_matrix_zero_rate_continuity", worst <= 1e-8, f"max dev {worst:.3g}"
    )


def _check_markov_frequencies() -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(20240817))
    n = 20000
    worst = 0.0
    for mode in dynamics.Mode:
        counts = np.zeros(3)
        for _ in range(n):
            nxt = dynamics.sample_next_mode(
                mode, dynamics.TRANSITION_MATRIX, rng.random()
            )
            counts[int(nxt) - 1] += 1
        row = dynamics.TRANSITION_MATRIX[int(mode) - 1]
        worst = max(worst, float(np.abs(counts / n - row).max()))
    return CheckResult(
        "markov_transition_frequencies", worst <= 0.02, f"max dev {worst:.4f}"
    )


def _check_mode_distribution_simplex() -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(7))
    worst = 0.0
    for _ in range(200):
        m = rng.random(3)
        m /= m.sum()
        out = dynamics.evolve_mode_distribution(dynamics.TRANSITION_MATRIX, m)
        worst = max(worst, abs(float(out.sum()) - 1.0), float(max(0.0, -out.min())))
    return CheckResult(
        "mode_distribution_simplex", worst <= 1e-12, f"max dev {worst:.3g}"
    )


def _random_belief(rng: np.random.Generator) -> imm.ImmBelief:
    per_mode = []
    for _ in range(3):
        mean = np.concatenate(
            [rng.normal(0.0, 3000.0, 1), rng.normal(0.0, 300.0, 1)] * 2
            + [rng.normal(0.0, 0.3, 1)]
        )
        root = rng.normal(0.0, 1.0, (5, 5))
        cov = root @ root.T + np.eye(5) * 1e-3
        scale = np.diag([50.0, 10.0, 50.0, 10.0, 0.1])
        per_mode.append(imm.GaussianBelief(mean, scale @ cov @ scale))
    mu = rng.random(3) + 1e-3
    return imm.ImmBelief(per_mode, mu / mu.sum())


def _check_fuzzed_imm_steps() -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(99))
    model = imm.ImmModel()
    worst_simplex = 0.0
    for i in range(300):
        belief = _random_belief(rng)
        z = belief.per_mode[0].mean[[0, 2]] + rng.normal(0.0, 100.0, 2)
        out = imm.imm_step(belief, z, model)
        worst_simplex = max(
            worst_simplex, abs(float(out.belief.mode_probs.sum()) - 1.0)
        )
        try:
            for b in out.belief.per_mode:
                b.check_valid()
            out.fused.check_valid()
        except ValueError as exc:
            return CheckResult("fuzzed_imm_steps", False, f"iter {i}: {exc}")
        lo = np.min([b.mean for b in out.belief.per_mode], axis=0)
        hi = np.max([b.mean for b in out.belief.per_mode], axis=0)
        slack = 1e-9 * (1.0 + np.abs(hi) + np.abs(lo))
        if np.any(out.fused.mean < lo - slack) or np.any(out.fused.mean > hi + slack):
            return CheckResult(
                "fuzzed_imm_steps", False, f"iter {i}: fused mean left convex hull"
            )
    return CheckResult(
        "fuzzed_imm_steps", worst_simplex <= 1e-12, f"max simplex dev {worst_simplex:.3g}"
    )


def _check_degenerate_kf_equivalence() -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(5))
    model = imm.ImmModel(pi=np.eye(3))
    z0 = np.array([4000.0, 100.0])
    belief = imm.initial_belief(z0)
    belief = imm.ImmBelief(belief.per_mode, np.array([1.0, 0.0, 0.0]))
    kf = imm.GaussianBelief(belief.per_mode[0].mean.copy(), imm.INITIAL_COV.copy())
    a1 = dynamics.coordinated_turn_matrix(0.0, 1.0)
    worst = 0.0
    for _ in range(40):
        z = z0 + rng.normal(0.0, 50.0, 2)
        out = imm.imm_step(belief, z, model)
        belief = out.belief
        kf, _, _ = imm.kf_update(
            imm.kf_predict(kf, a1, model.process_cov),
            z,
            model.meas_matrix,
            model.meas_cov,
        )
        worst = max(
            worst,
            float(np.abs(out.fused.mean - kf.mean).max()),
            float(np.abs(out.fused.cov - kf.cov).max()),
        )
    return CheckResult(
        "single_mode_reduces_to_kf", worst <= 1e-12, f"max dev {worst:.3g}"
    )


def _check_tangency() -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(11))
    worst = 0.0
    for _ in range(2000):
        r_safe = rng.uniform(100.0, 5000.0)
        bo = r_safe * rng.uniform(1.001, 4.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        b = bo * np.array([math.cos(ang), math.sin(ang)])
        c = b + rng.uniform(50.0, 3.0 * r_safe) * np.array(
            [math.cos(rng.uniform(0.0, 2.0 * math.pi)),
             math.sin(rng.uniform(0.0, 2.0 * math.pi))]
        )
        adv = avoidance.escape_angle(b, c, r_safe)
        if abs(adv.theta) > math.pi / 4 + 1e-12:
            return CheckResult("escape_tangency", False, "theta left the clamp range")
        c_new = b + avoidance._rotations(-adv.theta_unclamped) @ (c - b)
        d = c_new - b
        d /= np.hypot(d[0], d[1])
        t_foot = float(d @ -b)
        dist = float(abs(d[0] * b[1] - d[1] * b[0]))
        if t_foot <= 0.0:
            return CheckResult("escape_tangency", False, "tangent foot behind track")
        worst = max(worst, abs(dist - r_safe) / r_safe)
    return CheckResult("escape_tangency", worst <= 1e-6, f"max rel dev {worst:.3g}")


def _check_determinism() -> CheckResult:
    config = ScenarioConfig(seed=5, steps=12)
    a = run_episode(config)
    b = run_episode(config)
    same = (
        np.array_equal(a.truth, b.truth)
        and np.array_equal(a.z, b.z)
        and np.array_equal(a.est, b.est)
        and np.array_equal(a.mode_probs, b.mode_probs)
        and np.array_equal(a.advisory_theta, b.advisory_theta, equal_nan=True)
    )
    return CheckResult("episode_determinism", same)


def _check_batched_matches_single() -> CheckResult:
    for cda in (True, False):
        batch = run_monte_carlo(ScenarioConfig(seed=11, cda_enabled=cda), 4, keep_traces=True)
        for trace in batch.traces:
            diffs = trace_differences(trace, run_episode(trace.config))
            if diffs:
                return CheckResult(
                    "batched_matches_single",
                    False,
                    f"cda_enabled={cda} seed {trace.config.seed}: {', '.join(diffs)} differ",
                )
    return CheckResult("batched_matches_single", True)


def _check_roundtrip() -> CheckResult:
    config = ScenarioConfig(seed=3, steps=10)
    result = run_monte_carlo(config, 2, keep_traces=True)
    trace = result.traces[0]
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "episode_3.csv")
        traceio.write_episode_csv(trace, csv_path)
        back = traceio.read_episode_csv(csv_path)
        json_path = os.path.join(tmp, "summary.json")
        manifest = traceio.make_manifest(config, result.seeds, [csv_path])
        traceio.write_summary_json(result, manifest, json_path)
        payload = traceio.read_summary_json(json_path)
    # repr-written floats read back bit for bit, the NaN advisories included
    differ = [
        name
        for name, col in traceio.trace_columns(trace).items()
        if back[name].dtype != col.dtype or back[name].tobytes() != col.tobytes()
    ]
    if (
        payload["breach_fraction"] != result.breach_fraction
        or payload["min_separation"]["mean"] != result.min_separation_mean
    ):
        differ.append("summary.json")
    return CheckResult("trace_roundtrip", not differ, f"read-back differs in {differ}")


_ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    _check_turn_matrix_orthogonality,
    _check_turn_matrix_continuity,
    _check_markov_frequencies,
    _check_mode_distribution_simplex,
    _check_fuzzed_imm_steps,
    _check_degenerate_kf_equivalence,
    _check_tangency,
    _check_determinism,
    _check_batched_matches_single,
    _check_roundtrip,
)


def run_all_checks(report: Callable[[str], None] = print) -> bool:
    """Runs every desk-scale check, reporting one line each."""
    all_ok = True
    for check in _ALL_CHECKS:
        result = check()
        status = "PASS" if result.passed else "FAIL"
        suffix = f": {result.detail}" if (result.detail and not result.passed) else ""
        report(f"{status} {result.name}{suffix}")
        all_ok = all_ok and result.passed
    return all_ok
