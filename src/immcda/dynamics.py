"""Jump Markov dynamics of the planar encounter.

The state vector is [x1, vx1, x2, vx2, omega]: relative position and
velocity of the intruder in metres and metres per second, plus a turn-rate
component in rad/s. Motion switches between three modes under a Markov
chain: straight flight, and coordinated turns that offset the turn rate by
+pi/4 (left) or -pi/4 (right) rad/s. Positive turn rates rotate the
velocity counterclockwise.
"""

from __future__ import annotations

import enum
import math

import numpy as np

STATE_DIM = 5
TURN_RATE_OFFSET = math.pi / 4  # rad/s

CRUISE_SPEED = 285.841  # m/s
SAFETY_RADIUS = 3000.0  # m
SPAWN_RADIUS = 4500.0  # m

# Row-stochastic mode transition matrix: row = current mode, column = next.
TRANSITION_MATRIX = np.array(
    [
        [0.80, 0.10, 0.10],
        [0.19, 0.80, 0.01],
        [0.19, 0.01, 0.80],
    ]
)

# Process noise covariance expressed directly in state space.
PROCESS_NOISE_COV = np.diag([200.0, 0.1, 200.0, 0.1, 0.001])

# Position-only measurement: z = (x1, x2) + noise.
MEASUREMENT_MATRIX = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
    ]
)
MEASUREMENT_NOISE_COV = np.diag([2500.0, 2500.0])


class Mode(enum.IntEnum):
    """Flight mode of the jump Markov system."""

    STRAIGHT = 1
    LEFT_TURN = 2
    RIGHT_TURN = 3


def validate_transition_matrix(pi: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Checks that pi is a 3x3 non-negative row-stochastic matrix.

    Args:
        pi: Candidate transition matrix.
        tol: Allowed deviation of each row sum from 1.

    Returns:
        The validated matrix as a float array.

    Raises:
        ValueError: On wrong shape, negative entries, or bad row sums.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (3, 3):
        raise ValueError(f"transition matrix must be 3x3, got shape {pi.shape}")
    if np.any(pi < 0.0):
        raise ValueError("transition matrix entries must be non-negative")
    row_sums = pi.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > tol):
        raise ValueError(f"transition matrix rows must sum to 1, got {row_sums}")
    return pi


def coordinated_turn_matrix(omega: float, dt: float) -> np.ndarray:
    """Discrete transition matrix for constant-turn-rate planar motion.

    The velocity pair rotates by omega*dt and the position pair integrates
    that rotation. omega = 0 reduces exactly to the straight-line double
    integrator; small omega approaches it continuously.

    Args:
        omega: Signed turn rate in rad/s (positive = counterclockwise).
        dt: Time step in seconds, > 0.

    Returns:
        5x5 transition matrix over [x1, vx1, x2, vx2, omega].
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    wt = omega * dt
    if omega == 0.0:
        sin_int = dt  # limit of sin(w dt)/w
        vers_int = 0.0  # limit of (1 - cos(w dt))/w
    else:
        sin_int = math.sin(wt) / omega
        vers_int = (1.0 - math.cos(wt)) / omega
    c = math.cos(wt)
    s = math.sin(wt)
    return np.array(
        [
            [1.0, sin_int, 0.0, -vers_int, 0.0],
            [0.0, c, 0.0, -s, 0.0],
            [0.0, vers_int, 1.0, sin_int, 0.0],
            [0.0, s, 0.0, c, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )


def mode_matrix(mode: Mode, base_rate: float, dt: float) -> np.ndarray:
    """Transition matrix for one flight mode.

    Straight flight ignores base_rate; the turn modes offset it by
    +pi/4 rad/s (left) or -pi/4 rad/s (right).
    """
    if mode == Mode.STRAIGHT:
        return coordinated_turn_matrix(0.0, dt)
    if mode == Mode.LEFT_TURN:
        return coordinated_turn_matrix(base_rate + TURN_RATE_OFFSET, dt)
    if mode == Mode.RIGHT_TURN:
        return coordinated_turn_matrix(base_rate - TURN_RATE_OFFSET, dt)
    raise ValueError(f"unknown mode {mode!r}")


def step_truth(
    state: np.ndarray, mode: Mode, dt: float, noise: np.ndarray | None = None
) -> np.ndarray:
    """Advances the true state one step under the given mode.

    The turn modes use the state's own turn-rate component as base rate;
    noise, if given, is a 5-vector added in state space.
    """
    state = np.asarray(state, dtype=float)
    out = mode_matrix(mode, state[4], dt) @ state
    if noise is not None:
        out = out + np.asarray(noise, dtype=float)
    return out


def sample_next_mode(mode: Mode, pi: np.ndarray, u: float) -> Mode:
    """Draws the successor mode from pi's row for the current mode.

    Args:
        mode: Current mode.
        pi: Row-stochastic transition matrix, already validated
            (ScenarioConfig validates its own).
        u: Uniform variate in [0, 1).

    Returns:
        The mode whose cumulative-probability interval contains u.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u}")
    edge = 0.0
    for j, p in enumerate(pi[int(mode) - 1]):
        edge += p
        if u < edge:
            return Mode(j + 1)
    return Mode.RIGHT_TURN  # top edge fell short of 1 by rounding


def measure(state: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Position fix z = (x1, x2) + noise."""
    return MEASUREMENT_MATRIX @ np.asarray(state, dtype=float) + np.asarray(
        noise, dtype=float
    )


def evolve_mode_distribution(pi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """One-step propagation of a mode probability vector, pi^T m."""
    return np.asarray(pi, dtype=float).T @ np.asarray(m, dtype=float)
