"""Tests for the coordinated-turn dynamics and the mode chain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from immcda import dynamics
from immcda.dynamics import (
    TRANSITION_MATRIX,
    TURN_RATE_OFFSET,
    Mode,
    coordinated_turn_matrix,
    evolve_mode_distribution,
    measure,
    mode_matrix,
    sample_next_mode,
    step_truth,
    transition_edges,
    validate_transition_matrix,
)


def test_straight_matrix_is_constant_velocity():
    a = coordinated_turn_matrix(0.0, 1.0)
    expected = np.eye(5)
    expected[0, 1] = 1.0
    expected[2, 3] = 1.0
    assert np.array_equal(a, expected)


def test_turn_matrix_known_entries():
    # omega = pi/4, dt = 1: sin(pi/4)/(pi/4) and (1 - cos(pi/4))/(pi/4)
    a = coordinated_turn_matrix(math.pi / 4, 1.0)
    assert a[0, 1] == pytest.approx(0.9003163161571061, rel=1e-12)
    assert a[0, 3] == pytest.approx(-0.37292322857805654, rel=1e-12)
    assert a[2, 1] == pytest.approx(0.37292322857805654, rel=1e-12)
    assert a[2, 3] == pytest.approx(0.9003163161571061, rel=1e-12)
    # velocity block is a pure rotation by omega*dt
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    assert a[1, 1] == pytest.approx(c, rel=1e-12)
    assert a[1, 3] == pytest.approx(-s, rel=1e-12)
    assert a[3, 1] == pytest.approx(s, rel=1e-12)
    assert a[3, 3] == pytest.approx(c, rel=1e-12)
    assert a[4, 4] == 1.0


@pytest.mark.parametrize("omega", [0.25, -0.6, math.pi / 4, -math.pi / 4, 1e-3])
@pytest.mark.parametrize("dt", [0.5, 1.0, 2.0])
def test_turn_matrix_matches_ode_integration(omega, dt):
    """Independent check: propagate xdot = v, vdot = omega * J v numerically."""

    def rhs(_t, y):
        x1, vx1, x2, vx2 = y
        return [vx1, -omega * vx2, vx2, omega * vx1]

    y0 = np.array([120.0, 180.0, -340.0, 95.0])
    sol = solve_ivp(rhs, (0.0, dt), y0, rtol=1e-12, atol=1e-12, dense_output=True)
    a = coordinated_turn_matrix(omega, dt)
    state = np.array([y0[0], y0[1], y0[2], y0[3], omega])
    prop = a @ state
    assert np.allclose(prop[:4], sol.y[:, -1], rtol=1e-8, atol=1e-6)
    assert prop[4] == omega


def test_turn_matrix_left_right_symmetry():
    left = coordinated_turn_matrix(TURN_RATE_OFFSET, 1.0)
    right = coordinated_turn_matrix(-TURN_RATE_OFFSET, 1.0)
    # mirroring the turn direction mirrors the cross-axis coupling
    assert left[0, 3] == pytest.approx(-right[0, 3], rel=1e-12)
    assert left[2, 1] == pytest.approx(-right[2, 1], rel=1e-12)
    assert left[0, 1] == pytest.approx(right[0, 1], rel=1e-12)


@given(
    omega=st.floats(-2.0, 2.0, allow_nan=False),
    dt=st.floats(0.05, 4.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_turn_matrix_velocity_block_is_orthogonal(omega, dt):
    a = coordinated_turn_matrix(omega, dt)
    r = a[np.ix_([1, 3], [1, 3])]
    assert np.allclose(r.T @ r, np.eye(2), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


@given(dt=st.floats(0.1, 2.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_turn_matrix_continuous_at_zero_rate(dt):
    near = coordinated_turn_matrix(1e-9, dt)
    exact = coordinated_turn_matrix(0.0, dt)
    assert np.max(np.abs(near - exact)) < 1e-8


def test_turn_matrix_speed_preserving():
    a = coordinated_turn_matrix(0.7, 1.3)
    v = np.array([0.0, 210.0, 0.0, -33.0, 0.7])
    out = a @ v
    assert math.hypot(out[1], out[3]) == pytest.approx(math.hypot(210.0, -33.0), rel=1e-12)


def test_mode_matrix_uses_offset_rates():
    # straight flight does not turn; the turns fly at exactly +-TURN_RATE_OFFSET
    for dt in (0.1, 1.0):
        a_straight = mode_matrix(Mode.STRAIGHT, dt)
        a_left = mode_matrix(Mode.LEFT_TURN, dt)
        a_right = mode_matrix(Mode.RIGHT_TURN, dt)
        assert np.array_equal(a_straight, coordinated_turn_matrix(0.0, dt))
        assert np.array_equal(a_left, coordinated_turn_matrix(TURN_RATE_OFFSET, dt))
        assert np.array_equal(a_right, coordinated_turn_matrix(-TURN_RATE_OFFSET, dt))


@pytest.mark.parametrize("mode", [0, 4, -1, [1, 0, 2]])
def test_unknown_modes_are_rejected(mode):
    # index mode - 1 = -1 would otherwise pick the right-turn matrix
    with pytest.raises(ValueError, match="unknown mode"):
        mode_matrix(mode, 1.0)
    with pytest.raises(ValueError, match="unknown mode"):
        step_truth(np.zeros(np.shape(mode) + (5,)), np.array(mode), 1.0)


def test_step_truth_pure_translation():
    state = np.array([0.0, 100.0, 0.0, 0.0, 0.0])
    out = step_truth(state, Mode.STRAIGHT, 1.0)
    assert np.array_equal(out, np.array([100.0, 100.0, 0.0, 0.0, 0.0]))


def test_step_truth_quarter_turn():
    # two seconds of the left turn at pi/4 rad/s rotate the velocity by
    # 90 degrees; the state's turn-rate entry is carried, not read
    state = np.array([0.0, 100.0, 0.0, 0.0, math.pi / 4])
    out = step_truth(state, Mode.LEFT_TURN, 2.0)
    assert out[1] == pytest.approx(0.0, abs=1e-10)
    assert out[3] == pytest.approx(100.0, rel=1e-12)
    assert out[4] == math.pi / 4


def test_step_truth_additive_noise():
    state = np.array([0.0, 100.0, 0.0, 0.0, 0.0])
    noise = np.array([1.0, 2.0, 3.0, 4.0, 0.0])
    out = step_truth(state, Mode.STRAIGHT, 1.0, noise=noise)
    assert np.array_equal(out, np.array([101.0, 102.0, 3.0, 4.0, 0.0]))


def test_measure_picks_positions():
    state = np.array([10.0, 1.0, -20.0, 2.0, 0.3])
    z = measure(state, np.zeros(2))
    assert np.array_equal(z, np.array([10.0, -20.0]))
    z2 = measure(state, np.array([0.5, -0.5]))
    assert np.array_equal(z2, np.array([10.5, -20.5]))


def test_measurement_noise_energy():
    """E||z - Hx||^2 equals the trace of the noise covariance."""
    rng = np.random.default_rng(7)
    factor = np.linalg.cholesky(dynamics.MEASUREMENT_NOISE_COV)
    draws = (factor @ rng.standard_normal((2, 100_000))).T
    energy = np.mean(np.sum(draws**2, axis=1))
    expected = np.trace(dynamics.MEASUREMENT_NOISE_COV)  # 5000
    assert energy == pytest.approx(expected, rel=0.02)


def test_transition_matrix_values():
    pi = TRANSITION_MATRIX
    assert pi.shape == (3, 3)
    assert np.array_equal(pi[0], np.array([0.8, 0.1, 0.1]))
    assert np.array_equal(pi[1], np.array([0.19, 0.8, 0.01]))
    assert np.array_equal(pi[2], np.array([0.19, 0.01, 0.8]))
    validate_transition_matrix(pi)


def test_validate_transition_matrix_rejects_bad_rows():
    with pytest.raises(ValueError):
        validate_transition_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    bad_sum = np.array([[0.8, 0.1, 0.2], [0.19, 0.8, 0.01], [0.19, 0.01, 0.8]])
    with pytest.raises(ValueError):
        validate_transition_matrix(bad_sum)
    negative = np.array([[1.1, -0.1, 0.0], [0.19, 0.8, 0.01], [0.19, 0.01, 0.8]])
    with pytest.raises(ValueError):
        validate_transition_matrix(negative)


def test_sample_next_mode_thresholds():
    edges = transition_edges(TRANSITION_MATRIX)
    # from Straight the cumulative row is (0.8, 0.9, 1.0), from LeftTurn
    # (0.19, 0.99, 1.0); one draw per row of the stack
    modes = np.array([Mode.STRAIGHT] * 4 + [Mode.LEFT_TURN] * 3)
    u = np.array([0.5, 0.79, 0.85, 0.95, 0.18, 0.5, 0.995])
    expected = [Mode.STRAIGHT, Mode.STRAIGHT, Mode.LEFT_TURN, Mode.RIGHT_TURN,
                Mode.STRAIGHT, Mode.LEFT_TURN, Mode.RIGHT_TURN]
    assert sample_next_mode(modes, edges, u).tolist() == expected


def test_sample_next_mode_frequencies():
    rng = np.random.default_rng(42)
    pi = TRANSITION_MATRIX
    n = 20_000
    for mode in Mode:
        nxt = sample_next_mode(np.full(n, int(mode)), transition_edges(pi), rng.random(n))
        counts = np.bincount(nxt - 1, minlength=3)
        assert np.max(np.abs(counts / n - pi[mode - 1])) < 0.02


def test_evolve_mode_distribution_uniform_prior():
    m = np.full(3, 1.0 / 3.0)
    out = evolve_mode_distribution(TRANSITION_MATRIX, m)
    assert out[0] == pytest.approx(0.3933333333333333, rel=1e-12)
    assert out[1] == pytest.approx(0.30333333333333334, rel=1e-12)
    assert out[2] == pytest.approx(0.30333333333333334, rel=1e-12)
    assert np.sum(out) == pytest.approx(1.0, abs=1e-12)


@given(
    weights=st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=3, max_size=3)
)
@settings(max_examples=100, deadline=None)
def test_evolve_mode_distribution_preserves_simplex(weights):
    m = np.array(weights)
    m = m / m.sum()
    out = evolve_mode_distribution(TRANSITION_MATRIX, m)
    assert np.all(out >= 0)
    assert np.sum(out) == pytest.approx(1.0, abs=1e-12)


def test_constants_are_consistent():
    assert dynamics.TURN_RATE_OFFSET == pytest.approx(math.pi / 4)
    assert dynamics.SAFETY_RADIUS == 3000.0
    assert dynamics.SPAWN_RADIUS == 4500.0
    assert dynamics.SPAWN_RADIUS > dynamics.SAFETY_RADIUS
    assert dynamics.CRUISE_SPEED == pytest.approx(285.841)
    assert np.array_equal(
        dynamics.MEASUREMENT_NOISE_COV, np.diag([2500.0, 2500.0])
    )
    assert np.array_equal(
        dynamics.PROCESS_NOISE_COV, np.diag([200.0, 0.1, 200.0, 0.1, 0.001])
    )
