"""Conflict detection and tangent-geometry escape advisories.

The reference aircraft sits at the origin of the relative frame inside a
circular protected zone of radius r_safe. Conflicts are declared from
short straight-line extrapolations of the estimated intruder track. The
escape advisory is the reference turn angle theta that makes the predicted
track tangent to the protected circle; applying the advisory leaves the
relative position continuous and rotates the relative track direction by
-theta about the current position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imm import ImmBelief

MAX_BANK_ANGLE = math.pi / 4  # advisory clamp, rad
DEFAULT_LOOKAHEAD = 3

_POS = np.array([0, 2])
_VEL = np.array([1, 3])


@dataclass(frozen=True)
class ConflictPrediction:
    """Straight-line range prediction at one lookahead horizon."""

    horizon_j: int
    predicted_point: np.ndarray
    predicted_range: float
    unsafe: bool


@dataclass(frozen=True)
class Advisory:
    """Escape advisory issued against one unsafe prediction.

    theta is the clamped reference turn; theta_unclamped the raw tangent
    solution; beta the half-angle subtended by the protected circle; gamma
    the signed angle from the predicted direction to the origin direction.
    interior marks the no-tangent case with the track already inside the
    circle.
    """

    theta: float
    theta_unclamped: float
    trigger_j: int
    beta: float
    gamma: float
    interior: bool = False


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def predict_range(
    position: np.ndarray, step_delta: np.ndarray, j: int, r_safe: float
) -> ConflictPrediction:
    """Range prediction j steps ahead along a fixed per-step displacement."""
    if j < 1:
        raise ValueError("horizon j must be >= 1")
    position = np.asarray(position, dtype=float)
    point = position + j * np.asarray(step_delta, dtype=float)
    rng = float(np.hypot(point[0], point[1]))
    return ConflictPrediction(j, point, rng, rng < r_safe)


def detect_conflict(
    est_position: np.ndarray,
    est_velocity: np.ndarray,
    dt: float,
    r_safe: float,
    max_horizon: int = DEFAULT_LOOKAHEAD,
) -> ConflictPrediction | None:
    """First unsafe straight-line prediction within the lookahead, or None.

    Horizons are checked in order j = 1..max_horizon with per-step
    displacement est_velocity * dt; unsafe means predicted range strictly
    below r_safe.
    """
    delta = np.asarray(est_velocity, dtype=float) * dt
    for j in range(1, max_horizon + 1):
        pred = predict_range(est_position, delta, j, r_safe)
        if pred.unsafe:
            return pred
    return None


def escape_angle(
    position: np.ndarray,
    predicted_point: np.ndarray,
    r_safe: float,
    trigger_j: int = 1,
) -> Advisory:
    """Advisory that turns the predicted track tangent to the circle.

    From the track position b, the protected circle subtends the
    half-angle beta = asin(r_safe / |b|) around the direction to the
    origin, and the predicted direction sits at the signed angle gamma
    from that direction (measured from track to origin). The tangent on
    the side needing the smaller turn is beta - gamma for gamma >= 0 and
    -beta - gamma otherwise; the issued theta clamps to +-pi/4.

    Inside the circle no tangent exists: the advisory is the full clamp
    turn with sign chosen to grow the range fastest, marked interior.
    """
    b = np.asarray(position, dtype=float)
    c = np.asarray(predicted_point, dtype=float)
    bo = float(np.hypot(b[0], b[1]))
    along = c - b
    to_origin = -b
    cross = along[0] * to_origin[1] - along[1] * to_origin[0]
    dot = along[0] * to_origin[0] + along[1] * to_origin[1]
    gamma = math.atan2(cross, dot)
    if bo < r_safe:
        theta_unclamped = math.copysign(MAX_BANK_ANGLE, cross) if cross != 0.0 else MAX_BANK_ANGLE
        return Advisory(
            theta=theta_unclamped,
            theta_unclamped=theta_unclamped,
            trigger_j=trigger_j,
            beta=0.5 * math.pi,
            gamma=gamma,
            interior=True,
        )
    beta = math.asin(min(1.0, r_safe / bo))
    side = 1.0 if gamma >= 0.0 else -1.0
    theta_unclamped = side * beta - gamma
    theta = max(-MAX_BANK_ANGLE, min(MAX_BANK_ANGLE, theta_unclamped))
    return Advisory(
        theta=theta,
        theta_unclamped=theta_unclamped,
        trigger_j=trigger_j,
        beta=beta,
        gamma=gamma,
    )


def rotate_frame(state: np.ndarray, theta: float) -> np.ndarray:
    """Re-expresses a state in axes turned by theta.

    The reference turning by theta appears as the world rotating by
    -theta in its body frame: the position and velocity pairs both rotate,
    the turn-rate component is untouched, and all norms are preserved.
    """
    state = np.asarray(state, dtype=float)
    r = _rotation(-theta)
    out = state.astype(float).copy()
    out[_POS] = r @ state[_POS]
    out[_VEL] = r @ state[_VEL]
    return out


def deflect_track(state: np.ndarray, theta: float) -> np.ndarray:
    """Applies an advisory turn to a relative state.

    The reference's turn leaves the relative position continuous and
    rotates the relative track direction by -theta, so only the velocity
    pair rotates. Range to origin is untouched.
    """
    state = np.asarray(state, dtype=float)
    out = state.astype(float).copy()
    out[_VEL] = _rotation(-theta) @ state[_VEL]
    return out


def apply_avoidance(belief: ImmBelief, advisory: Advisory) -> ImmBelief:
    """Deflects the whole bank by the advisory angle in one stacked rotation.

    Means transform like states under deflect_track; covariances are
    conjugated by the matching block rotation, which is orthogonal, so
    per-mode eigenvalues and the estimated range to the origin are
    unchanged. Mode probabilities are untouched.
    """
    t = np.eye(5)
    t[np.ix_(_VEL, _VEL)] = _rotation(-advisory.theta)
    covs = t @ belief.covs @ t.T
    return ImmBelief._from_arrays(
        belief.means @ t.T, 0.5 * (covs + covs.swapaxes(1, 2)), belief.mode_probs.copy()
    )
