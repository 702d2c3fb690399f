"""Conflict detection and tangent-geometry escape advisories.

The reference aircraft sits at the origin of the relative frame inside a
circular protected zone of radius r_safe. Conflicts are declared from
short straight-line extrapolations of the estimated intruder track. The
escape advisory is the reference turn angle theta that makes the predicted
track tangent to the protected circle; applying the advisory leaves the
relative position continuous and rotates the relative track direction by
-theta about the current position.

Every function takes stacks of tracks or filter banks along leading axes;
a single track is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_BANK_ANGLE = math.pi / 4  # advisory clamp, rad
DEFAULT_LOOKAHEAD = 3

_VEL = np.array([1, 3])


@dataclass(frozen=True)
class Advisory:
    """Escape advisories issued against unsafe predictions, one per track.

    theta is the clamped reference turn; theta_unclamped the raw tangent
    solution; beta the half-angle subtended by the protected circle; gamma
    the signed angle from the predicted direction to the origin direction.
    interior marks the no-tangent case with the track already inside the
    circle. Every field is an array over the tracks.
    """

    theta: np.ndarray
    theta_unclamped: np.ndarray
    trigger_j: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    interior: np.ndarray


def _rotations(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    r = np.empty(theta.shape + (2, 2))
    r[..., 0, 0] = r[..., 1, 1] = np.cos(theta)
    r[..., 1, 0] = np.sin(theta)
    r[..., 0, 1] = -r[..., 1, 0]
    return r


def detect_conflict(
    est_positions: np.ndarray,
    est_velocities: np.ndarray,
    dt: float,
    r_safe: float,
    max_horizon: int = DEFAULT_LOOKAHEAD,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First unsafe straight-line prediction within the lookahead, per track.

    Tracks are rows of est_positions and est_velocities (N, 2). Every
    horizon j = 1..max_horizon is predicted with per-step displacement
    est_velocity * dt; unsafe means predicted range strictly below r_safe.

    Returns:
        (horizon_j, points, ranges): the first unsafe horizon of each
        track, 0 where none is unsafe, and the predicted points (N, H, 2)
        and ranges (N, H) at every horizon; horizon j is column j - 1.
    """
    if max_horizon < 1:
        raise ValueError("max_horizon must be >= 1")
    horizons = np.arange(1.0, max_horizon + 1.0)
    step_delta = est_velocities * np.asarray(dt)
    points = est_positions[..., None, :] + horizons[:, None] * step_delta[..., None, :]
    ranges = np.hypot(points[..., 0], points[..., 1])
    unsafe = ranges < r_safe
    horizon_j = np.where(unsafe.any(axis=-1), unsafe.argmax(axis=-1) + 1, 0)
    return horizon_j, points, ranges


def escape_angle(
    positions: np.ndarray,
    predicted_points: np.ndarray,
    r_safe: float,
    trigger_j: np.ndarray,
) -> Advisory:
    """Advisories that turn each predicted track tangent to the circle.

    Tracks are rows of positions and predicted_points (N, 2); every field
    of the returned Advisory is an array over them, trigger_j (N,) (the
    horizon that raised each advisory) passed through unchanged.

    From the track position b, the protected circle subtends the
    half-angle beta = asin(r_safe / |b|) around the direction to the
    origin, and the predicted direction sits at the signed angle gamma
    from that direction (measured from track to origin). The tangent on
    the side needing the smaller turn is beta - gamma for gamma >= 0 and
    -beta - gamma otherwise; the issued theta clamps to +-pi/4.

    Inside the circle no tangent exists: the advisory is the full clamp
    turn with sign chosen to grow the range fastest, marked interior.
    """
    bx, by = positions[..., 0], positions[..., 1]
    bo = np.hypot(bx, by)
    # cross and dot products of along = c - b with to_origin = -b
    ax = predicted_points[..., 0] - bx
    ay = predicted_points[..., 1] - by
    cross = ay * bx - ax * by
    dot = -(ax * bx + ay * by)
    gamma = np.arctan2(cross, dot)
    interior = bo < r_safe
    # inside the circle the ratio reads 1, so beta is the right angle
    beta = np.arcsin(r_safe / np.maximum(bo, r_safe))
    tangent = np.where(gamma >= 0.0, beta, -beta) - gamma
    full_turn = np.where(cross < 0.0, -MAX_BANK_ANGLE, MAX_BANK_ANGLE)
    theta_unclamped = np.where(interior, full_turn, tangent)
    theta = np.minimum(np.maximum(theta_unclamped, -MAX_BANK_ANGLE), MAX_BANK_ANGLE)
    return Advisory(theta, theta_unclamped, trigger_j, beta, gamma, interior)


def deflect_track(state: np.ndarray, theta) -> np.ndarray:
    """Applies an advisory turn to a relative state, or to a stack of
    states (..., 5) with one angle each.

    The reference's turn leaves the relative position continuous and
    rotates the relative track direction by -theta, so only the velocity
    pair rotates. Range to origin is untouched.
    """
    state = np.asarray(state, dtype=float)
    out = state.copy()
    out[..., _VEL] = (_rotations(np.negative(theta)) @ state[..., _VEL, None])[..., 0]
    return out


def apply_avoidance(
    means: np.ndarray, covs: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deflects N filter banks, means (N, 3, 5) and covs (N, 3, 5, 5), each
    by its advisory angle theta (N,) in one stacked rotation.

    Means transform like states under deflect_track; covariances are
    conjugated by the matching block rotation, which is orthogonal, so
    per-mode eigenvalues and the estimated range to the origin are
    unchanged.
    """
    t = np.zeros(theta.shape + (5, 5))
    t[..., 0, 0] = t[..., 2, 2] = t[..., 4, 4] = 1.0  # position and turn rate stay
    t[..., 1::2, 1::2] = _rotations(-theta)
    t_t = t.swapaxes(-1, -2)
    covs = t[..., None, :, :] @ covs @ t_t[..., None, :, :]
    return means @ t_t, 0.5 * (covs + covs.swapaxes(-1, -2))
