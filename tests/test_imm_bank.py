"""Tests of the stacked filter bank: model validation at construction, the
closed-form 2x2 guard, and agreement of the bank with the per-belief API."""

import numpy as np
import pytest

from immcda import dynamics
from immcda.imm import (
    MAX_MEASUREMENT_CONDITION,
    DegenerateMeasurementError,
    GaussianBelief,
    ImmBelief,
    ImmModel,
    gaussian_likelihood,
    imm_step,
    kf_predict,
    kf_update,
    mix_initial_conditions,
    mixing_probabilities,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"meas_matrix": np.zeros((3, 5))},
        {"meas_cov": np.eye(3)},
        {"process_cov": np.eye(4)},
    ],
)
def test_model_rejects_misshapen_matrices(kwargs):
    with pytest.raises(ValueError, match="must have shape"):
        ImmModel(**kwargs)


def test_model_is_immutable_after_validation():
    model = ImmModel()
    with pytest.raises(AttributeError):
        model.dt = 2.0


def test_transition_matrices_reuse_straight_and_rebuild_turns():
    model = ImmModel(dt=0.5)
    mats = model.transition_matrices(0.1)
    assert mats.shape == (3, 5, 5)
    for j, mode in enumerate(model.modes):
        assert np.array_equal(mats[j], dynamics.mode_matrix(mode, 0.1, 0.5))
    mats[0, 0, 0] = 9.0  # a fresh stack every call
    assert model.transition_matrices(0.1)[0, 0, 0] == 1.0


@pytest.mark.parametrize(
    "cond, usable",
    [(MAX_MEASUREMENT_CONDITION / 2, True), (MAX_MEASUREMENT_CONDITION * 2, False)],
)
def test_guard_uses_exact_condition_number(cond, usable):
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    s = rot @ np.diag([cond, 1.0]) @ rot.T  # eigenvalues cond and 1
    if usable:
        assert gaussian_likelihood(np.zeros(2), s) > 0.0
    else:
        with pytest.raises(DegenerateMeasurementError):
            gaussian_likelihood(np.zeros(2), s)


@pytest.mark.parametrize(
    "s",
    [
        np.zeros((2, 2)),
        -np.eye(2),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
    ],
)
def test_guard_rejects_singular_indefinite_and_nan(s):
    with pytest.raises(DegenerateMeasurementError):
        gaussian_likelihood(np.zeros(2), s)


def test_guard_rejects_non_planar_measurements():
    belief = GaussianBelief(np.zeros(5), np.eye(5))
    with pytest.raises(ValueError, match="2x2"):
        kf_update(belief, np.zeros(3), np.eye(3, 5), np.eye(3))


def test_bank_cycle_equals_per_belief_api_bit_for_bit():
    """imm_step's stacked kernels and the per-belief wrappers share one
    implementation, so each mode's posterior must agree exactly."""
    rng = np.random.default_rng(41)
    per_mode = []
    for _ in range(3):
        a = rng.standard_normal((5, 5))
        mean = rng.uniform(-3000.0, 3000.0, 5)
        mean[4] = rng.uniform(-0.3, 0.3)
        per_mode.append(GaussianBelief(mean, a @ a.T + np.eye(5)))
    belief = ImmBelief(per_mode, np.array([0.5, 0.3, 0.2]))
    z = rng.uniform(-3000.0, 3000.0, 2)
    model = ImmModel()
    out = imm_step(belief, z, model)

    mu_ij, _ = mixing_probabilities(model.pi, belief.mode_probs)
    mixed = mix_initial_conditions(belief.per_mode, mu_ij)
    base = float(belief.mode_probs @ belief.means[:, 4])
    for j, mode in enumerate(model.modes):
        a = dynamics.mode_matrix(mode, base, model.dt)
        pred = kf_predict(mixed[j], a, model.process_cov)
        post, residual, s = kf_update(pred, z, model.meas_matrix, model.meas_cov)
        assert np.array_equal(out.belief.means[j], post.mean)
        assert np.array_equal(out.belief.covs[j], post.cov)
        assert np.array_equal(out.residuals[j], residual)
        assert np.array_equal(out.innovation_covs[j], s)
        assert out.likelihoods[j] == gaussian_likelihood(residual, s)


def test_per_mode_is_a_detached_view():
    belief = ImmBelief([GaussianBelief(np.zeros(5), np.eye(5))] * 3, np.full(3, 1 / 3))
    belief.per_mode[0].mean[0] = 7.0
    belief.per_mode[0].cov[0, 0] = 7.0
    assert belief.means[0, 0] == 0.0
    assert belief.covs[0, 0, 0] == 1.0
