"""Tests for episode simulation, pairing, and aggregation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from immcda import dynamics
from immcda.checks import trace_differences
from immcda.scenario import (
    ScenarioConfig,
    init_scenario,
    run_episode,
    run_monte_carlo,
)


def _zero_noise(**kw):
    # a 1 cm measurement floor keeps the innovation covariance positive
    # definite; geometrically the episode is still an exact-fix encounter
    return ScenarioConfig(
        process_cov=np.zeros((5, 5)), meas_cov=1e-4 * np.eye(2), **kw
    )


def _first_advisory(trace):
    hits = np.nonzero(trace.trigger_j > 0)[0]
    return int(hits[0]) if hits.size else None


# --- configuration ---


def test_config_defaults():
    config = ScenarioConfig()
    assert config.dt == 1.0
    assert config.steps == 60
    assert config.cda_enabled is True
    assert config.r_safe == 3000.0
    assert config.spawn_radius == 4500.0
    assert config.lookahead_max == 3
    assert config.avoid_margin == 250.0
    assert config.mode_threshold is None
    assert np.array_equal(config.pi, dynamics.TRANSITION_MATRIX)


def test_config_stores_integer_scalars_as_floats():
    config = ScenarioConfig(
        dt=1, v_cruise=286, r_safe=3000, spawn_radius=4500, avoid_margin=250,
        mode_threshold=1,
    )
    for key in ("dt", "v_cruise", "r_safe", "spawn_radius", "avoid_margin", "mode_threshold"):
        assert type(getattr(config, key)) is float, key


@pytest.mark.parametrize(
    "kw",
    [
        {"dt": 0.0},
        {"dt": -1.0},
        {"steps": 0},
        {"steps": 4},  # a cruise-speed spawn cannot reach the zone in time
        {"dt": 20.0},  # a fast spawn would step across the zone
        {"v_cruise": 0.0},
        {"r_safe": 4500.0},  # must stay below the spawn radius
        {"r_safe": -10.0},
        {"lookahead_max": 0},
        {"avoid_margin": -1.0},
        {"mode_threshold": 1.5},
        {"seed": True},
        {"seed": -1},
        {"pi": np.ones((3, 3))},
        {"process_cov": np.ones((5, 4))},
        {"meas_cov": np.array([[1.0, 2.0], [0.0, 1.0]])},
        # wrongly typed fields are refused by name, not run or written
        {"steps": 60.0},
        {"steps": True},
        {"lookahead_max": 2.5},
        {"lookahead_max": True},
        {"cda_enabled": "no"},
        {"cda_enabled": 1},
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        ScenarioConfig(**kw)


@pytest.mark.parametrize(
    "kw", [{"steps": 60.0}, {"lookahead_max": 2.5}, {"cda_enabled": "no"}, {"seed": True}]
)
def test_config_type_errors_name_the_field(kw):
    (key,) = kw
    with pytest.raises(ValueError, match=key):
        ScenarioConfig(**kw)


def _with_entry(matrix, value):
    out = np.array(matrix, dtype=float)
    out[0, 0] = value
    return out


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "key, make",
    [
        ("dt", lambda bad: bad),
        ("v_cruise", lambda bad: bad),
        ("r_safe", lambda bad: bad),
        ("spawn_radius", lambda bad: bad),
        ("avoid_margin", lambda bad: bad),
        ("pi", lambda bad: _with_entry(dynamics.TRANSITION_MATRIX, bad)),
        ("process_cov", lambda bad: _with_entry(dynamics.PROCESS_NOISE_COV, bad)),
        ("process_cov", lambda bad: np.full((5, 5), bad)),
        ("meas_cov", lambda bad: _with_entry(dynamics.MEASUREMENT_NOISE_COV, bad)),
    ],
)
def test_config_rejects_non_finite_values(key, make, bad):
    """NaN or inf must be refused by name, not slip through the ordering
    checks (a NaN margin would silently disable avoidance)."""
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        ScenarioConfig(**{key: make(bad)})


# --- initial conditions ---


@pytest.mark.parametrize("seed", range(8))
def test_init_scenario_invariants(seed):
    config = ScenarioConfig(seed=seed)
    rng = np.random.default_rng(seed)
    state, mode = init_scenario(config, rng)
    assert mode == dynamics.Mode.STRAIGHT
    assert state[4] == 0.0
    assert math.hypot(state[0], state[2]) == pytest.approx(
        config.spawn_radius, rel=1e-12
    )
    speed = math.hypot(state[1], state[3])
    assert config.v_cruise <= speed <= 2.0 * config.v_cruise
    # the noise-free straight extrapolation must enter the protected circle
    ranges = [
        math.hypot(state[0] + k * state[1], state[2] + k * state[3])
        for k in range(1, config.steps)
    ]
    assert min(ranges) < config.r_safe


# --- single episodes ---


def test_run_episode_is_deterministic():
    config = ScenarioConfig(seed=12)
    a = run_episode(config)
    b = run_episode(ScenarioConfig(seed=12))
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.est, b.est)
    assert np.array_equal(a.mode_probs, b.mode_probs)
    assert np.array_equal(a.separation, b.separation)
    assert np.array_equal(a.advisory_theta, b.advisory_theta, equal_nan=True)
    assert np.array_equal(a.trigger_j, b.trigger_j)
    assert a.flags == b.flags


def test_run_episode_shapes_and_step_zero():
    config = ScenarioConfig(seed=4)
    trace = run_episode(config)
    n = config.steps
    assert trace.truth.shape == (n, 5)
    assert trace.z.shape == (n, 2)
    assert trace.est.shape == (n, 5)
    assert trace.mode_probs.shape == (n, 3)
    assert len(trace.flags) == n
    assert trace.times[1] - trace.times[0] == config.dt
    # step 0: spawn state, track initialized on the first fix
    assert trace.separation[0] == pytest.approx(config.spawn_radius, rel=1e-12)
    assert np.allclose(trace.mode_probs[0], 1.0 / 3.0)
    assert np.allclose(trace.est[0, [0, 2]], trace.z[0], rtol=1e-12, atol=1e-9)
    assert trace.est[0, 1] == 0.0 and trace.est[0, 3] == 0.0
    assert trace.trigger_j[0] == 0
    assert np.isnan(trace.advisory_theta[0])
    # separation is the truth range to the origin at every step
    assert np.allclose(
        trace.separation, np.hypot(trace.truth[:, 0], trace.truth[:, 2]), atol=1e-12
    )
    # advisory bookkeeping is consistent
    has_theta = ~np.isnan(trace.advisory_theta)
    assert np.array_equal(has_theta, trace.trigger_j > 0)
    assert np.all(np.abs(trace.advisory_theta[has_theta]) <= math.pi / 4 + 1e-15)
    assert np.all(trace.trigger_j <= config.lookahead_max)


def test_mode_process_waits_for_the_encounter():
    """The intruder flies straight until it first reaches the protected
    zone (or is first maneuvered against); the mode chain runs only after."""
    switched_somewhere = False
    for seed in range(6):
        trace = run_episode(ScenarioConfig(seed=seed, cda_enabled=False, steps=90))
        breaches = np.nonzero(trace.separation < trace.config.r_safe)[0]
        assert breaches.size > 0
        first = int(breaches[0])
        assert np.all(trace.true_mode[: first + 1] == int(dynamics.Mode.STRAIGHT))
        if np.any(trace.true_mode[first + 1 :] != int(dynamics.Mode.STRAIGHT)):
            switched_somewhere = True
    assert switched_somewhere


def test_maneuver_step_holds_straight_course():
    found = 0
    for seed in range(6):
        trace = run_episode(ScenarioConfig(seed=seed))
        for k in np.nonzero(trace.trigger_j > 0)[0]:
            if k + 1 < trace.config.steps:
                assert trace.true_mode[k + 1] == int(dynamics.Mode.STRAIGHT)
                found += 1
    assert found > 0


def test_paired_runs_consume_identical_noise():
    """Disabling avoidance must not shift any random draw."""
    on = run_episode(ScenarioConfig(seed=7, cda_enabled=True))
    off = run_episode(ScenarioConfig(seed=7, cda_enabled=False))
    # measurement noise is z minus the true position, whatever the path
    # (recovered by subtraction, so compare to rounding error, not bitwise)
    noise_on = on.z - on.truth[:, [0, 2]]
    noise_off = off.z - off.truth[:, [0, 2]]
    assert np.allclose(noise_on, noise_off, atol=1e-9)
    # trajectories agree bitwise up to the first advisory
    k0 = _first_advisory(on)
    assert k0 is not None
    assert np.array_equal(on.truth[:k0], off.truth[:k0])
    assert not np.array_equal(on.truth, off.truth)


def test_zero_noise_unavoided_encounter_breaches():
    trace = run_episode(_zero_noise(seed=3, cda_enabled=False))
    m = trace.metrics()
    assert m.breached
    assert m.advisory_count == 0
    first = int(np.nonzero(trace.separation < trace.config.r_safe)[0][0])
    # inbound leg: range shrinks every step until the circle is pierced
    assert np.all(np.diff(trace.separation[: first + 1]) < 0.0)
    # centimeter-grade fixes pin the estimated positions to the truth
    assert m.rmse_position_meas < 0.05
    assert np.max(np.abs(trace.est[1:, [0, 2]] - trace.truth[1:, [0, 2]])) < 0.5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_noise_avoidance_keeps_clear(seed):
    trace = run_episode(_zero_noise(seed=seed, cda_enabled=True))
    m = trace.metrics()
    assert m.advisory_count >= 1
    assert not m.breached
    assert trace.separation.min() >= trace.config.r_safe


def test_avoidance_raises_median_separation():
    ons, offs = [], []
    for seed in range(60):
        ons.append(run_episode(ScenarioConfig(seed=seed)).separation.min())
        offs.append(
            run_episode(ScenarioConfig(seed=seed, cda_enabled=False)).separation.min()
        )
    assert np.median(ons) > np.median(offs)


def test_wider_margin_reacts_earlier():
    tight = run_episode(_zero_noise(seed=5, avoid_margin=0.0))
    wide = run_episode(_zero_noise(seed=5, avoid_margin=1000.0))
    k_tight, k_wide = _first_advisory(tight), _first_advisory(wide)
    assert k_tight is not None and k_wide is not None
    assert k_wide <= k_tight


def test_mode_threshold_holds_previous_report():
    config = ScenarioConfig(seed=8, mode_threshold=0.95)
    trace = run_episode(config)
    assert trace.est_mode[0] in (1, 2, 3)
    for k in range(1, config.steps):
        peak = int(np.argmax(trace.mode_probs[k])) + 1
        if trace.mode_probs[k].max() < 0.95:
            assert trace.est_mode[k] == trace.est_mode[k - 1]
        else:
            assert trace.est_mode[k] == peak
    plain = run_episode(ScenarioConfig(seed=8))
    assert np.array_equal(plain.est_mode, np.argmax(plain.mode_probs, axis=1) + 1)


# --- aggregation ---


def test_monte_carlo_single_episode_matches_trace():
    config = ScenarioConfig(seed=21)
    result = run_monte_carlo(config, 1)
    trace = run_episode(config)
    m = trace.metrics()
    assert result.seeds == [21]
    assert result.n_episodes == 1
    assert result.min_separations[0] == m.min_separation
    assert result.breached[0] == m.breached
    assert result.breach_fraction in (0.0, 1.0)
    assert result.rmse_position_est == pytest.approx(m.rmse_position_est, rel=1e-12)
    assert result.rmse_position_meas == pytest.approx(m.rmse_position_meas, rel=1e-12)
    assert result.mode_accuracy == pytest.approx(m.mode_accuracy, rel=1e-12)


def test_monte_carlo_seeds_and_aggregates():
    config = ScenarioConfig(seed=100)
    result = run_monte_carlo(config, 3, keep_traces=True)
    assert result.seeds == [100, 101, 102]
    assert result.traces is not None and len(result.traces) == 3
    for i, seed in enumerate(result.seeds):
        solo = run_episode(replace(config, seed=seed))
        assert result.min_separations[i] == solo.separation.min()
        assert result.traces[i].config.seed == seed
    assert result.min_separation_mean == pytest.approx(
        float(np.mean(result.min_separations)), rel=1e-12
    )
    assert result.min_separation_median == pytest.approx(
        float(np.median(result.min_separations)), rel=1e-12
    )
    assert result.min_separation_stddev == pytest.approx(
        float(np.std(result.min_separations)), rel=1e-12
    )


def test_monte_carlo_rejects_seeds_past_64_bits():
    config = ScenarioConfig(seed=2**64 - 2, steps=12)
    assert [t.config.seed for t in run_monte_carlo(config, 2, keep_traces=True).traces] == [
        2**64 - 2,
        2**64 - 1,
    ]
    with pytest.raises(ValueError, match="64-bit"):
        run_monte_carlo(config, 3)


def test_monte_carlo_rejects_empty_batch():
    with pytest.raises(ValueError):
        run_monte_carlo(ScenarioConfig(), 0)
    result = run_monte_carlo(ScenarioConfig(), 2)
    assert result.traces is None


# --- config fuzz ---


@st.composite
def _accepted_configs(draw):
    dt = draw(st.floats(0.05, 3.0))
    # shortest episode in which a cruise-speed spawn reaches the zone
    reach = dynamics.SPAWN_RADIUS - dynamics.SAFETY_RADIUS
    min_steps = math.ceil(reach / (dynamics.CRUISE_SPEED * dt)) + 1
    kw = {
        "dt": dt,
        "steps": draw(st.integers(min_steps, min_steps + 80)),
        "meas_cov": draw(
            st.sampled_from(
                [dynamics.MEASUREMENT_NOISE_COV, np.zeros((2, 2)), 1e8 * np.eye(2)]
            )
        ),
        "process_cov": draw(st.sampled_from([dynamics.PROCESS_NOISE_COV, np.zeros((5, 5))])),
        "pi": draw(st.sampled_from([dynamics.TRANSITION_MATRIX, np.eye(3)])),
        "mode_threshold": draw(st.none() | st.floats(0.0, 1.0)),
        "lookahead_max": draw(st.integers(1, 6)),
        "avoid_margin": draw(st.floats(0.0, 2000.0)),
        "cda_enabled": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32)),
    }
    try:
        return ScenarioConfig(**kw)
    except ValueError:
        reject()


@given(config=_accepted_configs())
@settings(max_examples=20, deadline=None)
def test_accepted_configs_run_finite_and_batch_equals_single(config):
    """Every config ScenarioConfig accepts runs to finite traces, and each
    trace of a lockstep batch equals the episode run on its own."""
    result = run_monte_carlo(config, 3, keep_traces=True)
    for trace in result.traces:
        for name in ("truth", "z", "est", "mode_probs", "separation"):
            assert np.all(np.isfinite(getattr(trace, name))), name
        assert trace_differences(trace, run_episode(trace.config)) == []
