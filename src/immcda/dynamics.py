"""Jump Markov dynamics of the planar encounter.

The state vector is [x1, vx1, x2, vx2, omega]: relative position and
velocity of the intruder in metres and metres per second, plus a turn-rate
component in rad/s. Motion switches between three modes under a Markov
chain: straight flight, and coordinated turns that offset the turn rate by
+pi/4 (left) or -pi/4 (right) rad/s. Positive turn rates rotate the
velocity counterclockwise. The functions take a single state, mode or rate,
or a stack of them.
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

N_MODES = 3
# The entries of a coordinated-turn matrix that do not depend on the rate.
_TURN_TEMPLATE = np.diag([1.0, 0.0, 1.0, 0.0, 1.0])
_ONE = np.array(1.0)  # 0-d: numpy combines it with small arrays faster than 1.0
# Per mode, indexed by the mode's value (entry 0 unused): the weight of the
# base rate in its turn rate, and the offset added to it.
_BASE_WEIGHTS = np.array([0.0, 0.0, 1.0, 1.0])
_RATE_OFFSETS = np.array([0.0, 0.0, TURN_RATE_OFFSET, -TURN_RATE_OFFSET])


class Mode(enum.IntEnum):
    """Flight mode of the jump Markov system."""

    STRAIGHT = 1
    LEFT_TURN = 2
    RIGHT_TURN = 3


_STRAIGHT = int(Mode.STRAIGHT)  # a plain int: enum lookups are slow per step


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


def coordinated_turn_matrix(omega, dt: float) -> np.ndarray:
    """Discrete transition matrices for constant-turn-rate planar motion.

    The velocity pair rotates by omega*dt and the position pair integrates
    that rotation. omega = 0 reduces exactly to the straight-line double
    integrator; small omega approaches it continuously.

    Args:
        omega: Signed turn rate in rad/s (positive = counterclockwise), or
            an array of rates.
        dt: Time step in seconds, > 0.

    Returns:
        5x5 transition matrix over [x1, vx1, x2, vx2, omega], stacked
        along omega's shape when omega is an array.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    omega = np.asarray(omega, dtype=float)
    dt = np.asarray(dt, dtype=float)  # 0-d, like _ONE
    # entries are written in place: this runs twice per simulated step
    out = np.empty(omega.shape + (STATE_DIM, STATE_DIM))
    out[...] = _TURN_TEMPLATE
    straight = omega == 0.0
    if np.count_nonzero(straight) == straight.size:
        # straight flight only: the double integrator, no trigonometry
        out[..., 0, 1] = out[..., 2, 3] = dt
        out[..., 1, 1] = out[..., 3, 3] = 1.0
        return out
    wt = omega * dt
    rate = np.where(straight, 1.0, omega)  # so nothing divides by zero
    c = np.cos(wt, out=out[..., 1, 1])
    s = np.sin(wt, out=out[..., 3, 1])
    out[..., 3, 3] = c
    np.negative(s, out=out[..., 1, 3])
    # straight: dt and 0, the limits of sin(w dt)/w and (1 - cos(w dt))/w
    sin_int = np.where(straight, dt, s / rate)
    out[..., 0, 1] = out[..., 2, 3] = sin_int
    vers_int = np.divide(_ONE - c, rate, out=out[..., 2, 1])
    np.negative(vers_int, out=out[..., 0, 3])
    return out


def mode_rates(mode, base_rate) -> np.ndarray:
    """Turn rate of each flight mode around a finite base_rate, which
    broadcasts against the modes: exactly 0 for straight flight,
    base_rate + pi/4 for a left turn and base_rate - pi/4 for a right turn."""
    modes = np.asarray(mode)
    return base_rate * _BASE_WEIGHTS[modes] + _RATE_OFFSETS[modes]


def mode_matrix(mode, base_rate, dt: float) -> np.ndarray:
    """Transition matrix for one flight mode, or a stack for an array of modes.

    Straight flight ignores base_rate; the turn modes offset it by
    +pi/4 rad/s (left) or -pi/4 rad/s (right). base_rate broadcasts
    against the modes.
    """
    modes = np.asarray(mode)
    if np.count_nonzero((modes < _STRAIGHT) | (modes > N_MODES)):
        raise ValueError(f"unknown mode {mode!r}")
    return coordinated_turn_matrix(mode_rates(modes, base_rate), dt)


def step_truth(state: np.ndarray, mode, dt: float, noise: np.ndarray | None = None) -> np.ndarray:
    """Advances true states one step under their modes.

    state is a 5-vector, or a stack of them with one mode each. The turn
    modes use the state's own turn-rate component as base rate; noise, if
    given, is added in state space.
    """
    state = np.asarray(state, dtype=float)
    out = (mode_matrix(mode, state[..., 4], dt) @ state[..., None])[..., 0]
    if noise is not None:
        out = out + np.asarray(noise, dtype=float)
    return out


def transition_edges(pi: np.ndarray) -> np.ndarray:
    """Cumulative rows of pi for sample_next_mode, indexed by the current
    mode's value (row 0 unused). The top edge is +inf, so a row that falls
    short of 1 by rounding leaves RIGHT_TURN."""
    edges = np.full((N_MODES + 1, N_MODES), np.inf)
    edges[1:, :-1] = np.cumsum(pi, axis=1)[:, :-1]
    return edges


def sample_next_mode(modes: np.ndarray, edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Successor of each mode in an integer array, drawn with its uniform
    variate in u, in [0, 1): the first mode whose cumulative edge in
    transition_edges(pi) exceeds u."""
    return (u[..., None] < edges[modes]).argmax(axis=-1) + 1


def measure(state: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Position fix z = (x1, x2) + noise, for a state or a stack of states."""
    return np.asarray(state, dtype=float) @ MEASUREMENT_MATRIX.T + np.asarray(
        noise, dtype=float
    )


def evolve_mode_distribution(pi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """One-step propagation of a mode probability vector, pi^T m."""
    return np.asarray(pi, dtype=float).T @ np.asarray(m, dtype=float)
