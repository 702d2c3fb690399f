"""Jump Markov dynamics of the planar encounter.

The state vector is [x1, vx1, x2, vx2, omega]: relative position and
velocity of the intruder in metres and metres per second, plus a turn-rate
component in rad/s. Motion switches between three modes under a Markov
chain: straight flight, and coordinated turns at the fixed rates +pi/4
(left) and -pi/4 (right) rad/s, so the three mode transitions are built
once for each step length dt; the turn-rate component rides on its
identity row and nothing reads it. Positive turn rates rotate the velocity
counterclockwise. The functions take a single state, mode or rate, or a
stack of them.
"""

from __future__ import annotations

import enum
import functools
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
# Turn rate of each mode, indexed by the mode's value minus one.
_MODE_RATES = np.array([0.0, TURN_RATE_OFFSET, -TURN_RATE_OFFSET])


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
    if not dt > 0.0:  # NaN included
        raise ValueError("dt must be positive")
    omega = np.asarray(omega, dtype=float)
    out = np.empty(omega.shape + (STATE_DIM, STATE_DIM))
    out[...] = _TURN_TEMPLATE
    straight = omega == 0.0
    wt = omega * dt
    rate = np.where(straight, 1.0, omega)  # so nothing divides by zero
    c = np.cos(wt, out=out[..., 1, 1])
    s = np.sin(wt, out=out[..., 3, 1])
    out[..., 3, 3] = c
    np.negative(s, out=out[..., 1, 3])
    # straight: dt and 0, the limits of sin(w dt)/w and (1 - cos(w dt))/w
    sin_int = np.where(straight, dt, s / rate)
    out[..., 0, 1] = out[..., 2, 3] = sin_int
    vers_int = np.divide(1.0 - c, rate, out=out[..., 2, 1])
    np.negative(vers_int, out=out[..., 0, 3])
    return out


@functools.lru_cache(maxsize=16)
def mode_transitions(dt: float) -> np.ndarray:
    """Read-only (3, 5, 5) stack of the mode transitions for time step dt,
    indexed by mode value minus one: straight flight, then the turns at
    +pi/4 and -pi/4 rad/s. Built once per dt and shared by every caller."""
    out = coordinated_turn_matrix(_MODE_RATES, dt)
    out.flags.writeable = False
    return out


def mode_matrix(mode, dt: float) -> np.ndarray:
    """Transition matrix for one flight mode, or a stack for an array of
    modes, taken from mode_transitions(dt); a single mode gives a
    read-only view."""
    modes = np.asarray(mode)
    if np.count_nonzero((modes < _STRAIGHT) | (modes > N_MODES)):
        raise ValueError(f"unknown mode {mode!r}")
    return mode_transitions(float(dt))[modes - 1]


def step_truth(state: np.ndarray, mode, dt: float, noise: np.ndarray | None = None) -> np.ndarray:
    """Advances true states one step under their modes: state is a
    5-vector, or a stack of them with one mode each; noise, if given, is
    added in state space."""
    state = np.asarray(state, dtype=float)
    out = (mode_matrix(mode, dt) @ state[..., None])[..., 0]
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
