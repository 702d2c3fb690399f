"""Tests of the stacked filter bank: model validation at construction, the
closed-form 2x2 guard, and agreement of the bank with its stages applied
one belief at a time."""

import numpy as np
import pytest

from immcda import dynamics
from immcda.imm import (
    MAX_MEASUREMENT_CONDITION,
    DegenerateMeasurementError,
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


def test_turn_rates_offset_each_banks_fused_rate():
    model = ImmModel(dt=0.5)
    means = np.zeros((2, 3, 5))
    means[..., 4] = [[0.1, 0.1, 0.1], [0.0, 0.3, -0.3]]
    mu = np.array([[0.2, 0.3, 0.5], [0.5, 0.25, 0.25]])
    mats = dynamics.coordinated_turn_matrix(model.turn_rates(means, mu), model.dt)
    assert mats.shape == (2, 3, 5, 5)
    for n, base in enumerate((0.1, 0.0)):
        for j, mode in enumerate(model.modes):
            assert np.allclose(mats[n, j], dynamics.mode_matrix(mode, base, 0.5), rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "cond, usable",
    [(MAX_MEASUREMENT_CONDITION / 2, True), (MAX_MEASUREMENT_CONDITION * 2, False)],
)
def test_guard_uses_exact_condition_number(cond, usable):
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    s = rot @ np.diag([cond, 1.0]) @ rot.T  # eigenvalues cond and 1
    if usable:
        assert gaussian_likelihood(np.zeros(2), s)[0] > 0.0
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
    with pytest.raises(ValueError, match="2x2"):
        kf_update(np.zeros((1, 5)), np.eye(5)[None], np.zeros(3), np.eye(3, 5), np.eye(3))


def test_bank_cycle_equals_per_belief_api_bit_for_bit():
    """imm_step runs its stages on the whole stack of banks and modes, and
    each mode's posterior must equal those stages applied to that one
    belief, as a stack of one, exactly."""
    rng = np.random.default_rng(41)
    means = rng.uniform(-3000.0, 3000.0, (3, 5))
    means[:, 4] = rng.uniform(-0.3, 0.3, 3)
    roots = rng.standard_normal((3, 5, 5))
    covs = roots @ roots.swapaxes(-1, -2) + np.eye(5)
    mu = np.array([0.5, 0.3, 0.2])
    z = rng.uniform(-3000.0, 3000.0, 2)
    model = ImmModel()
    out = imm_step(means[None], covs[None], mu[None], z[None], model)

    mu_ij, _, _ = mixing_probabilities(model.pi, mu)
    mixed_means, mixed_covs = mix_initial_conditions(means, covs, mu_ij)
    base = float(mu @ means[:, 4])
    for j, mode in enumerate(model.modes):
        a = dynamics.mode_matrix(mode, base, model.dt)
        pred_mean, pred_cov = kf_predict(
            mixed_means[j : j + 1], mixed_covs[j : j + 1], a, model.process_cov
        )
        post_mean, post_cov, residual, s, likelihood = kf_update(
            pred_mean, pred_cov, z, model.meas_matrix, model.meas_cov
        )
        assert np.array_equal(out.means[0, j], post_mean[0])
        assert np.array_equal(out.covs[0, j], post_cov[0])
        assert np.array_equal(out.residuals[0, j], residual[0])
        assert np.array_equal(out.innovation_covs[0, j], s[0])
        assert out.likelihoods[0, j] == likelihood[0] == gaussian_likelihood(residual, s)[0][0]
