"""Tests for conflict prediction and tangent escape geometry.

Every function broadcasts over leading axes of tracks; most tests pass a
single track with none.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immcda import imm
from immcda.avoidance import (
    DEFAULT_LOOKAHEAD,
    MAX_BANK_ANGLE,
    apply_avoidance,
    deflect_track,
    detect_conflict,
    escape_angle,
)

R_SAFE = 3000.0


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _ray_distance_to_origin(b, direction):
    """Perpendicular distance from the origin to the line through b."""
    return abs(b[0] * direction[1] - b[1] * direction[0]) / math.hypot(*direction)


# --- range prediction ---
#
# detect_conflict predicts every horizon j = 1..max_horizon; these pin the
# point and range it predicts at a single horizon.


def test_predict_range_known_point():
    j, points, ranges = detect_conflict(np.array([3000.0, 4000.0]), np.array([100.0, 0.0]), 1.0, R_SAFE, max_horizon=1)
    assert points.shape == (1, 2)
    assert np.array_equal(points[0], np.array([3100.0, 4000.0]))
    assert ranges[0] == pytest.approx(5060.632371551998, rel=1e-12)
    assert j == 0


def test_predict_range_scales_with_horizon():
    _, _, ranges = detect_conflict(np.array([4000.0, 0.0]), np.array([-500.0, 0.0]), 1.0, R_SAFE)
    assert ranges[1] == pytest.approx(3000.0)
    assert ranges[2] == pytest.approx(2500.0)
    assert ranges[2] < R_SAFE


def test_predict_range_boundary_is_safe():
    # unsafe means strictly inside the circle
    j, _, ranges = detect_conflict(np.array([3000.0, 0.0]), np.zeros(2), 1.0, R_SAFE, max_horizon=1)
    assert ranges[0] == 3000.0
    assert j == 0


def test_predict_range_rejects_bad_horizon():
    with pytest.raises(ValueError):
        detect_conflict(np.zeros(2), np.zeros(2), 1.0, R_SAFE, max_horizon=0)
    with pytest.raises(ValueError):
        detect_conflict(np.zeros(2), np.zeros(2), 1.0, R_SAFE, max_horizon=-1)


# --- conflict detection ---


def test_detect_conflict_returns_first_unsafe_horizon():
    j, points, _ = detect_conflict(np.array([4000.0, 0.0]), np.array([-500.0, 0.0]), 1.0, R_SAFE)
    # j=1 gives 3500, j=2 exactly 3000 (still safe), j=3 gives 2500
    assert j == 3
    assert np.allclose(points[j - 1], [2500.0, 0.0])


def test_detect_conflict_none_when_clear():
    j, _, _ = detect_conflict(np.array([10000.0, 10000.0]), np.array([-500.0, 0.0]), 1.0, R_SAFE)
    assert j == 0


def test_detect_conflict_horizon_limit():
    pos, vel = np.array([4000.0, 0.0]), np.array([-500.0, 0.0])
    assert detect_conflict(pos, vel, 1.0, R_SAFE, max_horizon=2)[0] == 0
    assert detect_conflict(pos, vel, 1.0, R_SAFE, max_horizon=3)[0] == 3
    assert DEFAULT_LOOKAHEAD == 3


def test_detect_conflict_inside_circle_fires_immediately():
    j, _, _ = detect_conflict(np.array([2000.0, 0.0]), np.zeros(2), 1.0, R_SAFE)
    assert j == 1


def test_detect_conflict_scales_velocity_by_dt():
    # two tracks at once, one row each
    pos, vel = np.array([[4000.0, 0.0]] * 2), np.array([[-250.0, 0.0]] * 2)
    assert detect_conflict(pos, vel, 1.0, R_SAFE)[0].tolist() == [0, 0]
    assert detect_conflict(pos, vel, 2.0, R_SAFE)[0].tolist() == [3, 3]


# --- escape geometry ---


def test_escape_head_on_clamps_to_max_bank():
    adv = escape_angle(np.array([4000.0, 0.0]), np.array([3000.0, 0.0]), R_SAFE, 1)
    assert adv.gamma == 0.0
    assert adv.beta == pytest.approx(0.848062078981481, rel=1e-12)  # asin(3/4)
    assert adv.theta_unclamped == pytest.approx(0.848062078981481, rel=1e-12)
    assert adv.theta == pytest.approx(0.7853981633974483, rel=1e-12)  # pi/4
    assert not adv.interior


def test_escape_perpendicular_track():
    # track crossing at right angles ahead of the circle
    adv = escape_angle(np.array([6000.0, 0.0]), np.array([6000.0, 1000.0]), R_SAFE, 1)
    assert adv.gamma == pytest.approx(1.5707963267948966, rel=1e-12)  # +pi/2
    assert adv.beta == pytest.approx(0.5235987755982988, rel=1e-12)  # asin(1/2)
    assert adv.theta_unclamped == pytest.approx(-1.0471975511965976, rel=1e-12)
    assert adv.theta == pytest.approx(-0.7853981633974483, rel=1e-12)


def test_escape_mirror_symmetry():
    up = escape_angle(np.array([6000.0, 0.0]), np.array([6000.0, 1000.0]), R_SAFE, 1)
    down = escape_angle(np.array([6000.0, 0.0]), np.array([6000.0, -1000.0]), R_SAFE, 1)
    assert down.gamma == pytest.approx(-up.gamma, rel=1e-12)
    assert down.theta_unclamped == pytest.approx(-up.theta_unclamped, rel=1e-12)
    assert down.theta == pytest.approx(-up.theta, rel=1e-12)


def test_escape_already_tangent_needs_no_turn():
    # predicted direction rotated off the origin line by exactly beta
    b = np.array([4000.0, 0.0])
    c = np.array([3338.5621722338524, 750.0])
    adv = escape_angle(b, c, R_SAFE, 1)
    assert adv.theta_unclamped == pytest.approx(0.0, abs=1e-12)
    assert adv.theta == 0.0
    assert _ray_distance_to_origin(b, c - b) == pytest.approx(R_SAFE, rel=1e-12)


def test_escape_interior_uses_full_clamp():
    adv = escape_angle(np.array([2000.0, 0.0]), np.array([2000.0, 100.0]), R_SAFE, 1)
    assert adv.interior
    assert adv.beta == pytest.approx(math.pi / 2)
    assert adv.theta == MAX_BANK_ANGLE
    down = escape_angle(np.array([2000.0, 0.0]), np.array([2000.0, -100.0]), R_SAFE, 1)
    assert down.theta == -MAX_BANK_ANGLE
    # dead-ahead fallback turns positive
    ahead = escape_angle(np.array([2000.0, 0.0]), np.array([1000.0, 0.0]), R_SAFE, 1)
    assert ahead.theta == MAX_BANK_ANGLE


def test_escape_interior_turn_opens_range():
    # at (2000, 0) tracking +x2, a +pi/4 deflection points the track outward
    state = np.array([2000.0, 0.0, 0.0, 100.0, 0.0])
    adv = escape_angle(state[[0, 2]], state[[0, 2]] + state[[1, 3]], R_SAFE, 1)
    out = deflect_track(state, adv.theta)
    range_rate = np.dot(out[[0, 2]], out[[1, 3]]) / np.hypot(out[0], out[2])
    assert range_rate > 0.0


def test_escape_trigger_horizon_is_recorded():
    b = np.array([[4000.0, 0.0], [6000.0, 0.0]])
    c = np.array([[3000.0, 0.0], [6000.0, 1000.0]])
    adv = escape_angle(b, c, R_SAFE, np.array([3, 1]))
    assert adv.trigger_j.tolist() == [3, 1]


@given(
    bo=st.floats(3100.0, 50000.0),
    bearing=st.floats(-math.pi, math.pi),
    clen=st.floats(10.0, 5000.0),
    cang=st.floats(-math.pi, math.pi),
)
@settings(max_examples=300, deadline=None)
def test_escape_unclamped_angle_achieves_tangency(bo, bearing, clen, cang):
    b = bo * np.array([math.cos(bearing), math.sin(bearing)])
    c = b + clen * np.array([math.cos(cang), math.sin(cang)])
    adv = escape_angle(b, c, R_SAFE, 1)
    assert not adv.interior
    assert abs(adv.theta) <= MAX_BANK_ANGLE + 1e-15
    # deflecting by the raw angle makes the ray tangent to the circle
    deflected = _rot(-adv.theta_unclamped) @ (c - b)
    assert _ray_distance_to_origin(b, deflected) == pytest.approx(R_SAFE, rel=1e-9)
    # and the closest approach lies ahead, not behind
    assert np.dot(deflected, -b) > 0.0
    # the chosen tangent is the smaller of the two turns
    other = -math.copysign(adv.beta, adv.gamma) - adv.gamma if adv.gamma != 0.0 else -adv.beta
    assert abs(adv.theta_unclamped) <= abs(other) + 1e-12
    # deflecting the prediction by the raw angle leaves nothing left to turn
    again = escape_angle(b, b + deflected, R_SAFE, 1)
    assert again.theta_unclamped == pytest.approx(0.0, abs=1e-7)


# --- deflection ---


def test_deflect_track_moves_velocity_only():
    state = np.array([4000.0, -500.0, 0.0, 0.0, 0.1])
    out = deflect_track(state, math.pi / 4)
    assert out[0] == 4000.0
    assert out[2] == 0.0
    assert out[4] == 0.1
    c = math.cos(math.pi / 4)
    assert out[1] == pytest.approx(-500.0 * c, rel=1e-12)
    assert out[3] == pytest.approx(500.0 * c, rel=1e-12)
    assert np.hypot(out[1], out[3]) == pytest.approx(500.0, rel=1e-12)
    back = deflect_track(out, -math.pi / 4)
    assert np.allclose(back, state, atol=1e-9)


def test_deflect_track_improves_predicted_range_head_on():
    """Clamped head-on advisory pushes the short-horizon prediction clear."""
    state = np.array([4000.0, -500.0, 0.0, 0.0, 0.0])
    j, points, ranges = detect_conflict(state[[0, 2]], state[[1, 3]], 1.0, R_SAFE)
    assert j == 3
    adv = escape_angle(state[[0, 2]], points[j - 1], R_SAFE, j)
    out = deflect_track(state, adv.theta)
    _, _, after = detect_conflict(out[[0, 2]], out[[1, 3]], 1.0, R_SAFE)
    assert after[j - 1] > ranges[j - 1]
    assert after[j - 1] > R_SAFE


def test_apply_avoidance_zero_angle_is_identity():
    means, covs, _ = imm.initial_banks(np.array([[100.0, 200.0]]))
    out_means, out_covs = apply_avoidance(means, covs, np.array([0.0]))
    assert np.allclose(out_means, means, atol=1e-12)
    assert np.allclose(out_covs, covs, atol=1e-9)


def test_apply_avoidance_preserves_structure():
    rng = np.random.default_rng(9)
    means, covs = [], []
    for _ in range(3):
        a = rng.standard_normal((5, 5))
        means.append(rng.uniform(-1000, 1000, 5))
        covs.append(a @ a.T + np.eye(5))
    means, covs = np.array(means)[None], np.array(covs)[None]
    adv = escape_angle(np.array([[4000.0, 0.0]]), np.array([[3000.0, 0.0]]), R_SAFE, np.array([1]))
    out_means, out_covs = apply_avoidance(means, covs, adv.theta)
    assert out_means.shape == means.shape and out_covs.shape == covs.shape
    r = _rot(-adv.theta[0])
    for before, after, cov_before, cov_after in zip(means[0], out_means[0], covs[0], out_covs[0]):
        # position untouched, velocity rotated, turn rate untouched
        assert np.allclose(after[[0, 2]], before[[0, 2]], atol=1e-12)
        assert np.allclose(after[[1, 3]], r @ before[[1, 3]], atol=1e-9)
        assert after[4] == before[4]
        # orthogonal conjugation keeps the spectrum
        assert np.allclose(
            np.linalg.eigvalsh(cov_after), np.linalg.eigvalsh(cov_before), atol=1e-8
        )
        vel = np.ix_([1, 3], [1, 3])
        assert np.allclose(cov_after[vel], r @ cov_before[vel] @ r.T, atol=1e-9)
    imm.check_covariance(out_covs)
