"""Tests for the three-mode interacting filter bank.

The one-step reference implementation below follows the standard cycle
equations directly (plain matrix inverses, scipy density) so that the
production code is checked against an independent formulation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from immcda import dynamics, imm
from immcda.dynamics import TRANSITION_MATRIX, Mode
from immcda.imm import (
    DegenerateMeasurementError,
    ImmModel,
    check_covariance,
    fuse_estimates,
    gaussian_likelihood,
    imm_step,
    initial_banks,
    kf_predict,
    kf_update,
    mix_initial_conditions,
    mixing_probabilities,
    update_mode_probabilities,
)

UNIFORM = np.full(3, 1.0 / 3.0)
MODE_RATES = {Mode.STRAIGHT: 0.0, Mode.LEFT_TURN: math.pi / 4, Mode.RIGHT_TURN: -math.pi / 4}


def _step(bank, z, model):
    """imm_step on a stack of one bank: the posterior bank, likelihoods
    and flags, and the fused estimate."""
    means, covs, mu = bank
    out = imm_step(means[None], covs[None], mu[None], z[None], model)
    post = (out.means[0], out.covs[0], out.mode_probs[0])
    fused_mean, fused_cov = fuse_estimates(*post)
    return post, out.likelihoods[0], out.flags, fused_mean, fused_cov


def _naive_step(bank, z, model):
    """Textbook cycle: mix, predict, update, reweight, fuse."""
    means, covs, mu = bank
    mats = [dynamics.coordinated_turn_matrix(MODE_RATES[m], model.dt) for m in model.modes]
    h, r_cov = model.meas_matrix, model.meas_cov
    cbar = model.pi.T @ mu
    w = model.pi * mu[:, None] / cbar[None, :]
    post_means, post_covs, lam = [], [], np.zeros(3)
    for j in range(3):
        m0 = sum(w[i, j] * means[i] for i in range(3))
        p0 = sum(
            w[i, j] * (covs[i] + np.outer(means[i] - m0, means[i] - m0))
            for i in range(3)
        )
        mp = mats[j] @ m0
        pp = mats[j] @ p0 @ mats[j].T + model.process_cov
        s = h @ pp @ h.T + r_cov
        gain = pp @ h.T @ np.linalg.inv(s)
        resid = z - h @ mp
        post_means.append(mp + gain @ resid)
        post_covs.append((np.eye(5) - gain @ h) @ pp)
        lam[j] = multivariate_normal(mean=np.zeros(2), cov=s).pdf(resid)
    mu_new = lam * cbar
    mu_new = mu_new / mu_new.sum()
    fused_mean = sum(mu_new[j] * post_means[j] for j in range(3))
    fused_cov = sum(
        mu_new[j]
        * (post_covs[j] + np.outer(post_means[j] - fused_mean, post_means[j] - fused_mean))
        for j in range(3)
    )
    return post_means, post_covs, lam, mu_new, fused_mean, fused_cov


def _random_bank(rng):
    means, covs = [], []
    for _ in range(3):
        mean = np.array(
            [
                rng.uniform(-5000, 5000),
                rng.uniform(-300, 300),
                rng.uniform(-5000, 5000),
                rng.uniform(-300, 300),
                rng.uniform(-0.5, 0.5),
            ]
        )
        a = rng.standard_normal((5, 5))
        cov = a @ a.T + np.diag([100.0, 10.0, 100.0, 10.0, 0.01])
        means.append(mean)
        covs.append(cov)
    mu = rng.uniform(0.05, 1.0, size=3)
    return np.array(means), np.array(covs), mu / mu.sum()


# --- mixing ---


def test_mixing_uniform_prior_frozen_values():
    mu_ij, c_bar, degenerate = mixing_probabilities(TRANSITION_MATRIX, UNIFORM)
    assert degenerate is None
    assert c_bar[0] == pytest.approx(0.3933333333333333, rel=1e-12)
    assert c_bar[1] == pytest.approx(0.30333333333333334, rel=1e-12)
    assert c_bar[2] == pytest.approx(0.30333333333333334, rel=1e-12)
    # column j: probability of having come from mode i given mode j now
    assert mu_ij[0, 0] == pytest.approx(0.6779661016949153, rel=1e-12)
    assert mu_ij[1, 0] == pytest.approx(0.1610169491525424, rel=1e-12)
    assert mu_ij[2, 0] == pytest.approx(0.1610169491525424, rel=1e-12)
    assert mu_ij[0, 1] == pytest.approx(0.10989010989010989, rel=1e-12)
    assert mu_ij[1, 1] == pytest.approx(0.8791208791208791, rel=1e-12)
    assert mu_ij[2, 1] == pytest.approx(0.010989010989010988, rel=1e-12)
    assert np.allclose(mu_ij.sum(axis=0), 1.0, atol=1e-12)


def test_mixing_unreachable_mode_column_goes_uniform():
    mu_ij, c_bar, degenerate = mixing_probabilities(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert degenerate
    assert np.array_equal(c_bar, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(mu_ij[:, 0], np.array([1.0, 0.0, 0.0]))
    assert np.allclose(mu_ij[:, 1], 1.0 / 3.0)
    assert np.allclose(mu_ij[:, 2], 1.0 / 3.0)


def test_mix_initial_conditions_point_mass_passthrough():
    rng = np.random.default_rng(3)
    means, covs, _ = _random_bank(rng)
    mu_ij = np.eye(3)  # column j draws entirely from mode j
    mixed_means, mixed_covs = mix_initial_conditions(means, covs, mu_ij)
    for j in range(3):
        assert np.allclose(mixed_means[j], means[j], atol=1e-12)
        assert np.allclose(mixed_covs[j], covs[j], atol=1e-9)


def test_mix_initial_conditions_spread_of_means():
    covs = np.stack([np.eye(5)] * 3)
    means = np.zeros((3, 5))
    means[1, 0] = 2.0
    mu_ij = np.array([[0.5, 1.0, 1.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    mixed_means, mixed_covs = mix_initial_conditions(means, covs, mu_ij)
    assert mixed_means[0, 0] == pytest.approx(1.0)
    # mixture variance picks up the between-means spread: 1 + 0.5 + 0.5
    assert mixed_covs[0, 0, 0] == pytest.approx(2.0)
    assert mixed_covs[1, 0, 0] == pytest.approx(1.0)


# --- Kalman steps ---


def test_kf_predict_constant_velocity_covariance_growth():
    a = dynamics.coordinated_turn_matrix(0.0, 1.0)
    mean, cov = kf_predict(np.array([[0.0, 1.0, 0.0, 0.0, 0.0]]), np.eye(5)[None], a, np.zeros((5, 5)))
    assert np.array_equal(mean[0], np.array([1.0, 1.0, 0.0, 0.0, 0.0]))
    assert cov[0, 0, 0] == pytest.approx(2.0, rel=1e-12)
    assert cov[0, 0, 1] == pytest.approx(1.0, rel=1e-12)
    assert cov[0, 1, 1] == pytest.approx(1.0, rel=1e-12)


def test_kf_update_equal_variance_fusion():
    # prior position variance 100 against measurement variance 100:
    # the posterior sits halfway with variance 50 on each axis
    cov = np.diag([100.0, 1.0, 100.0, 1.0, 1.0])
    mean, post_cov, residual, s, _ = kf_update(
        np.zeros((1, 5)),
        cov[None],
        np.array([10.0, -6.0]),
        dynamics.MEASUREMENT_MATRIX,
        np.diag([100.0, 100.0]),
    )
    assert np.array_equal(residual[0], np.array([10.0, -6.0]))
    assert np.allclose(s[0], np.diag([200.0, 200.0]))
    assert mean[0, 0] == pytest.approx(5.0, rel=1e-12)
    assert mean[0, 2] == pytest.approx(-3.0, rel=1e-12)
    assert post_cov[0, 0, 0] == pytest.approx(50.0, rel=1e-12)
    assert post_cov[0, 2, 2] == pytest.approx(50.0, rel=1e-12)
    # untouched states keep their prior variance
    assert post_cov[0, 1, 1] == pytest.approx(1.0, rel=1e-12)
    assert post_cov[0, 4, 4] == pytest.approx(1.0, rel=1e-12)


def test_kf_update_rejects_near_singular_innovation():
    cov = np.diag([1e13, 1.0, 1e-2, 1.0, 1.0])
    with pytest.raises(DegenerateMeasurementError):
        kf_update(
            np.zeros((1, 5)),
            cov[None],
            np.zeros(2),
            dynamics.MEASUREMENT_MATRIX,
            np.diag([1e-2, 1e-2]),
        )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_kf_update_keeps_covariance_valid(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 5))
    mean = rng.uniform(-1000, 1000, 5)
    cov = a @ a.T + np.eye(5) * 10.0
    _, post_cov, _, _, _ = kf_update(
        mean[None],
        cov[None],
        rng.uniform(-1000, 1000, 2),
        dynamics.MEASUREMENT_MATRIX,
        dynamics.MEASUREMENT_NOISE_COV,
    )
    check_covariance(post_cov)
    # conditioning on data cannot inflate the position marginals
    assert post_cov[0, 0, 0] <= cov[0, 0] + 1e-9
    assert post_cov[0, 2, 2] <= cov[2, 2] + 1e-9


# --- likelihood ---


def test_gaussian_likelihood_frozen_values():
    residuals = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    s = np.array([np.eye(2), 4.0 * np.eye(2), np.eye(2)])
    density, s_inv = gaussian_likelihood(residuals, s)
    assert density[0] == pytest.approx(0.15915494309189535, rel=1e-12)
    assert density[1] == pytest.approx(0.039788735772973836, rel=1e-12)
    assert density[2] == pytest.approx(0.02153927930184863, rel=1e-12)
    assert np.allclose(s_inv @ s, np.eye(2), atol=1e-15)


def test_gaussian_likelihood_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.standard_normal((2, 2))
        s = a @ a.T + 0.5 * np.eye(2)
        r = rng.uniform(-3, 3, 2)
        expected = multivariate_normal(mean=np.zeros(2), cov=s).pdf(r)
        assert gaussian_likelihood(r[None], s[None])[0][0] == pytest.approx(expected, rel=1e-10)


def test_gaussian_likelihood_integrates_to_one():
    s = np.array([[2.0, 0.6], [0.6, 1.0]])
    xs = np.linspace(-8.0, 8.0, 401)
    step = xs[1] - xs[0]
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    total = gaussian_likelihood(grid, s)[0].sum()
    assert total * step * step == pytest.approx(1.0, abs=1e-3)


def test_gaussian_likelihood_rejects_indefinite_covariance():
    with pytest.raises(DegenerateMeasurementError):
        gaussian_likelihood(np.zeros((1, 2)), np.array([[[1.0, 2.0], [2.0, 1.0]]]))


# --- mode probabilities and fusion ---


def test_update_mode_probabilities_frozen_values():
    c_bar = TRANSITION_MATRIX.T @ UNIFORM
    mu, underflow = update_mode_probabilities(np.array([0.2, 0.1, 0.1]), c_bar)
    assert underflow is None
    assert mu[0] == pytest.approx(0.5645933014354066, rel=1e-12)
    assert mu[1] == pytest.approx(0.21770334928229665, rel=1e-12)
    assert mu[2] == pytest.approx(0.21770334928229665, rel=1e-12)
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)


def test_update_mode_probabilities_underflow_keeps_prior():
    c_bar = np.array([0.4, 0.35, 0.25])
    mu, underflow = update_mode_probabilities(np.zeros(3), c_bar)
    assert underflow
    assert np.array_equal(mu, c_bar)
    mu[0] = 9.0  # returned vector must be a copy
    assert c_bar[0] == 0.4


def test_fuse_estimates_point_mass_and_spread():
    cov = np.eye(5)
    covs = np.stack([cov] * 3)
    means = np.zeros((3, 5))
    means[1, 0] = 2.0
    # two banks at once: a point mass on mode 1, then an even split
    mu = np.array([[0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
    mean, fused_cov = fuse_estimates(np.stack([means] * 2), np.stack([covs] * 2), mu)
    assert np.array_equal(mean[0], means[1])
    assert np.allclose(fused_cov[0], cov)
    assert mean[1, 0] == pytest.approx(1.0)
    assert fused_cov[1, 0, 0] == pytest.approx(2.0)  # 1 + between-means spread 1


# --- track initialization and covariance validity ---


def test_initial_banks_structure():
    means, covs, mu = initial_banks(np.array([[120.0, -80.0]]))
    assert means.shape == (1, 3, 5) and covs.shape == (1, 3, 5, 5)
    assert np.array_equal(mu, UNIFORM[None])
    for j in range(3):
        assert np.array_equal(means[0, j], np.array([120.0, 0.0, -80.0, 0.0, 0.0]))
        assert np.array_equal(covs[0, j], imm.INITIAL_COV)
    means[0, 0, 0] = 999.0  # every mode owns its storage
    covs[0, 0, 0, 0] = 999.0
    assert means[0, 1, 0] == 120.0
    assert covs[0, 1, 0, 0] == imm.INITIAL_COV[0, 0] == 100.0**2


def test_check_valid_flags_broken_covariances():
    asym = np.eye(5)
    asym[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        check_covariance(asym)
    indefinite = np.diag([1.0, 1.0, 1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="positive semidefinite"):
        check_covariance(indefinite)
    # one broken matrix in a stack is enough
    with pytest.raises(ValueError, match="positive semidefinite"):
        check_covariance(np.stack([np.eye(5), indefinite, np.eye(5)]))
    check_covariance(np.eye(5))
    check_covariance(np.stack([np.eye(5)] * 3))


def test_model_validation():
    with pytest.raises(ValueError):
        ImmModel(dt=0.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        ImmModel(dt=math.nan)
    with pytest.raises(ValueError):
        ImmModel(pi=np.ones((3, 3)))


# --- full cycle ---


def test_imm_step_matches_reference_implementation():
    rng = np.random.default_rng(17)
    model = ImmModel()
    for _ in range(5):
        bank = _random_bank(rng)
        z = rng.uniform(-4000, 4000, 2)
        (post_means, post_covs, post_mu), lik, _, fused_mean, fused_cov = _step(bank, z, model)
        means, covs, lam, mu, f_mean, f_cov = _naive_step(bank, z, model)
        assert np.allclose(lik, lam, rtol=1e-9, atol=1e-300)
        assert np.allclose(post_mu, mu, rtol=1e-9)
        for j in range(3):
            assert np.allclose(post_means[j], means[j], rtol=1e-9, atol=1e-8)
            assert np.allclose(post_covs[j], covs[j], rtol=1e-7, atol=1e-6)
        assert np.allclose(fused_mean, f_mean, rtol=1e-9, atol=1e-8)
        assert np.allclose(fused_cov, f_cov, rtol=1e-7, atol=1e-6)


def test_imm_step_permutation_equivariance():
    """Relabeling the modes relabels the outputs and nothing else."""
    rng = np.random.default_rng(23)
    means, covs, mu = _random_bank(rng)
    z = rng.uniform(-2000, 2000, 2)
    perm = [2, 0, 1]
    modes = (Mode.STRAIGHT, Mode.LEFT_TURN, Mode.RIGHT_TURN)
    model = ImmModel()
    model_p = ImmModel(
        pi=TRANSITION_MATRIX[np.ix_(perm, perm)],
        modes=tuple(modes[i] for i in perm),
    )
    (post_means, _, post_mu), lik, _, fused_mean, fused_cov = _step((means, covs, mu), z, model)
    (p_means, _, p_mu), p_lik, _, p_fused_mean, p_fused_cov = _step(
        (means[perm], covs[perm], mu[perm]), z, model_p
    )
    assert np.allclose(p_mu, post_mu[perm], rtol=1e-9)
    assert np.allclose(p_lik, lik[perm], rtol=1e-9)
    for j, i in enumerate(perm):
        assert np.allclose(p_means[j], post_means[i], rtol=1e-9)
    assert np.allclose(p_fused_mean, fused_mean, rtol=1e-9)
    assert np.allclose(p_fused_cov, fused_cov, rtol=1e-7, atol=1e-6)


def test_imm_step_identifies_turned_flight():
    """Noiseless left-turn track: the left-turn mode probability takes over."""
    model = ImmModel()
    state = np.array([0.0, 200.0, 0.0, 0.0, 0.0])
    means, covs, mu = initial_banks(state[[0, 2]][None])
    mu_left = []
    for _ in range(40):
        state = dynamics.step_truth(state, Mode.LEFT_TURN, 1.0)
        out = imm_step(means, covs, mu, state[[0, 2]][None], model)
        means, covs, mu = out.means, out.covs, out.mode_probs
        mu_left.append(mu[0, 1])
    assert mu_left[-1] > 0.8
    assert all(m > 0.5 for m in mu_left[-10:])


def test_imm_step_flags_degenerate_mixing():
    rng = np.random.default_rng(5)
    means, covs, _ = _random_bank(rng)
    model = ImmModel(pi=np.eye(3))
    (_, _, post_mu), _, flags, _, _ = _step(
        (means, covs, np.array([1.0, 0.0, 0.0])), means[0, [0, 2]], model
    )
    assert "degenerate_mixing" in dict(flags)
    assert np.array_equal(dict(flags)["degenerate_mixing"], [0])
    assert np.allclose(post_mu, [1.0, 0.0, 0.0], atol=1e-12)


def test_imm_step_flags_likelihood_underflow():
    bank = tuple(a[0] for a in initial_banks(np.zeros((1, 2))))
    model = ImmModel()
    (_, _, post_mu), _, flags, _, _ = _step(bank, np.array([1e9, 1e9]), model)
    assert "likelihood_underflow" in dict(flags)
    # the predicted prior carries through unchanged
    c_bar = TRANSITION_MATRIX.T @ UNIFORM
    assert np.allclose(post_mu, c_bar, atol=1e-12)


def test_imm_step_reduces_to_kalman_filter_with_frozen_modes():
    """Identity transition matrix and a point-mass prior pin the bank to
    one model; the fused track must then reproduce a plain Kalman filter
    to machine precision."""
    rng = np.random.default_rng(29)
    model = ImmModel(pi=np.eye(3))
    z0 = np.zeros(2)
    means, covs, _ = initial_banks(z0[None])
    mu = np.array([[1.0, 0.0, 0.0]])
    kf_mean = np.array([[[z0[0], 0.0, z0[1], 0.0, 0.0]]])  # one bank of one filter
    kf_cov = imm.INITIAL_COV.copy()[None, None]
    for _ in range(25):
        z = rng.uniform(-500.0, 500.0, 2)[None]
        out = imm_step(means, covs, mu, z, model)
        means, covs, mu = out.means, out.covs, out.mode_probs
        fused_mean, fused_cov = fuse_estimates(means, covs, mu)
        a = dynamics.mode_matrix(Mode.STRAIGHT, model.dt)
        kf_mean, kf_cov = kf_predict(kf_mean, kf_cov, a, model.process_cov)
        kf_mean, kf_cov, _, _, _ = kf_update(kf_mean, kf_cov, z, model.meas_matrix, model.meas_cov)
        assert np.max(np.abs(fused_mean - kf_mean[:, 0])) <= 1e-12
        assert np.max(np.abs(fused_cov - kf_cov[:, 0])) <= 1e-12


@given(seed=st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_imm_step_preserves_invariants(seed):
    rng = np.random.default_rng(seed)
    bank = _random_bank(rng)
    model = ImmModel()
    (post_means, post_covs, mu), _, _, fused_mean, fused_cov = _step(
        bank, rng.uniform(-6000, 6000, 2), model
    )
    assert np.all(mu >= 0.0)
    assert float(mu.sum()) == pytest.approx(1.0, abs=1e-12)
    check_covariance(fused_cov)
    check_covariance(post_covs)
    # the fused mean is a convex combination of the per-mode posteriors
    lo, hi = post_means.min(axis=0), post_means.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    assert np.all(fused_mean >= lo - 1e-9 * span)
    assert np.all(fused_mean <= hi + 1e-9 * span)
