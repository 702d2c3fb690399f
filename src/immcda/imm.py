"""Interacting-multiple-model estimator over the three flight modes.

The filter bank is stacked arrays: means (3, 5), covs (3, 5, 5) and mode
probabilities (3,); a stack of N banks adds a leading axis, and one bank is
a stack of one. One cycle (Blom and Bar-Shalom 1988) mixes the bank under
the mode transition probabilities, predicts and updates all three
mode-matched Kalman filters at once on the new position fix, reweighs the
modes by measurement likelihood, and combines the bank into one Gaussian;
mixing and combination are the same moment match. Each 2x2 innovation
covariance is factored once, in closed form, for the condition guard, the
gain and the likelihood. The per-mode transitions are rebuilt each cycle
around each bank's fused turn-rate estimate.

Every function takes stacks: the last axis (vectors) or two (matrices) hold
one belief, the axis before them runs over a bank's modes, and any leading
axes run over banks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    MEASUREMENT_MATRIX,
    MEASUREMENT_NOISE_COV,
    Mode,
    PROCESS_NOISE_COV,
    STATE_DIM,
    TRANSITION_MATRIX,
    coordinated_turn_matrix,
    mode_rates,
    validate_transition_matrix,
)

N_MODES = 3
MEAS_DIM = 2
TWO_PI = 2.0 * math.pi

# Innovation covariances with condition numbers beyond this are rejected.
MAX_MEASUREMENT_CONDITION = 1e12

_EYE = np.eye(STATE_DIM)
# Constants of the per-step kernels as 0-d arrays: numpy combines those
# with small arrays markedly faster than Python floats.
_HALF = np.array(0.5)
_MINUS_HALF = np.array(-0.5)
_TWO_PI = np.array(TWO_PI)
_MAX_CONDITION = np.array(MAX_MEASUREMENT_CONDITION)

# Entry signs of the adjugate of a 2x2 matrix with its diagonal swapped.
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])

# Broad prior over the state at track initialization.
INITIAL_COV = np.diag([100.0**2, 400.0**2, 100.0**2, 400.0**2, 0.01])


class DegenerateMeasurementError(RuntimeError):
    """Raised when an innovation covariance is unusable."""


@dataclass
class ImmStepOutput:
    """Result of one estimator cycle over a stack of N banks.

    means (N, 3, 5), covs (N, 3, 5, 5) and mode_probs (N, 3) are the
    posterior banks; likelihoods (N, 3), residuals (N, 3, 2) and
    innovation_covs (N, 3, 2, 2) are per mode. flags pairs each numerical
    fallback taken during the cycle with the indices of the banks that
    took it.
    """

    means: np.ndarray
    covs: np.ndarray
    mode_probs: np.ndarray
    likelihoods: np.ndarray
    residuals: np.ndarray
    innovation_covs: np.ndarray
    flags: tuple[tuple[str, np.ndarray], ...] = ()


@dataclass(frozen=True)
class ImmModel:
    """Model bundle consumed by imm_step; validated once, then immutable."""

    pi: np.ndarray = field(default_factory=lambda: TRANSITION_MATRIX.copy())
    process_cov: np.ndarray = field(default_factory=lambda: PROCESS_NOISE_COV.copy())
    meas_matrix: np.ndarray = field(default_factory=lambda: MEASUREMENT_MATRIX.copy())
    meas_cov: np.ndarray = field(default_factory=lambda: MEASUREMENT_NOISE_COV.copy())
    dt: float = 1.0
    modes: tuple[Mode, Mode, Mode] = (Mode.STRAIGHT, Mode.LEFT_TURN, Mode.RIGHT_TURN)

    def __post_init__(self) -> None:
        checked = {"pi": validate_transition_matrix(self.pi)}
        # the closed-form 2x2 innovation kernel relies on these shapes
        for name, shape in (
            ("process_cov", (STATE_DIM, STATE_DIM)),
            ("meas_matrix", (MEAS_DIM, STATE_DIM)),
            ("meas_cov", (MEAS_DIM, MEAS_DIM)),
        ):
            value = checked[name] = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        checked["_mode_array"] = np.array([int(Mode(m)) for m in self.modes])
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def turn_rates(self, means: np.ndarray, mode_probs: np.ndarray) -> np.ndarray:
        """Turn rates (..., 3) of the per-mode transitions of banks (..., 3, 5):
        the modes' offsets around each bank's fused turn-rate estimate."""
        base = (mode_probs[..., None, :] @ means[..., 4:])[..., 0]
        return mode_rates(self._mode_array, base)


def check_covariance(cov: np.ndarray, key: str = "covariance") -> None:
    """Raises ValueError naming key unless every matrix of the stack
    cov (..., n, n) is symmetric and positive semidefinite, each within
    1e-9 relative to its own scale."""
    scale = np.maximum(np.abs(cov).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(cov - cov.swapaxes(-1, -2)).max(axis=(-2, -1)) > 1e-9 * scale):
        raise ValueError(f"{key} must be symmetric")
    min_eig = np.linalg.eigvalsh(cov).min(axis=-1)
    if np.any(min_eig < -1e-9 * np.maximum(np.trace(cov, axis1=-2, axis2=-1), 1.0)):
        raise ValueError(f"{key} must be positive semidefinite, min eigenvalue {min_eig.min():g}")


def _symmetrize(covs: np.ndarray) -> np.ndarray:
    return _HALF * (covs + covs.swapaxes(-1, -2))


def mixing_probabilities(
    pi: np.ndarray, mu_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Mixing weights and predicted mode probabilities.

    Args:
        pi: Row-stochastic mode transition matrix, already validated
            (ImmModel and ScenarioConfig validate theirs).
        mu_prev: Previous mode probabilities (..., 3), one row per bank.

    Returns:
        (mu_ij, c_bar, degenerate) where mu_ij[..., i, j] is the probability
        of having been in mode i given mode j now and c_bar = pi^T mu_prev.
        A column with c_bar[..., j] = 0 (mode j unreachable) is replaced by
        the uniform distribution so the mixer stays defined; degenerate
        marks the banks where that happened, and is None when none did.
    """
    c_bar = (mu_prev[..., None, :] @ pi)[..., 0, :]
    mu_ij = pi * mu_prev[..., :, None]
    live = c_bar > 0.0
    if np.count_nonzero(live) == live.size:
        return mu_ij / c_bar[..., None, :], c_bar, None
    mu_ij = mu_ij / np.where(live, c_bar, 1.0)[..., None, :]
    return np.where(live[..., None, :], mu_ij, 1.0 / N_MODES), c_bar, ~live.all(axis=-1)


def mix_initial_conditions(
    means: np.ndarray, covs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussians matching the bank's mixture under each weight column:
    weights (..., n, k) over means (..., n, d) and covs (..., n, d, d) give
    (..., k, d) and (..., k, d, d)."""
    mean = weights.swapaxes(-1, -2) @ means
    spread = means[..., :, None, :] - mean[..., None, :, :]
    terms = covs[..., :, None, :, :] + spread[..., :, None] * spread[..., None, :]
    return mean, _symmetrize((weights[..., None, None] * terms).sum(axis=-4))


def kf_predict(
    means: np.ndarray, covs: np.ndarray, transitions: np.ndarray, process_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman time update of every belief through its linear transition."""
    mean = (transitions @ means[..., None])[..., 0]
    cov = transitions @ covs @ transitions.swapaxes(-1, -2) + process_cov
    return mean, _symmetrize(cov)


def gaussian_likelihood(
    residuals: np.ndarray, innovation_covs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Planar Gaussian densities of residuals (..., 2) under symmetric 2x2
    innovation covariances S (..., 2, 2), and the inverses of S.

    One closed-form factorization (determinant and adjugate) per S serves
    both. Its exact eigenvalues lam_max = (a + c)/2 + hypot((a - c)/2, b)
    and lam_min = det/lam_max guard it.

    Raises:
        DegenerateMeasurementError: Unless every S is positive definite
            with condition number <= MAX_MEASUREMENT_CONDITION.
    """
    s = innovation_covs
    if s.shape[-2:] != (MEAS_DIM, MEAS_DIM):
        raise ValueError(f"innovation covariance must be 2x2, got {s.shape[-2:]}")
    a, b, c = s[..., 0, 0], s[..., 0, 1], s[..., 1, 1]
    det = a * c - b * b
    lam_max = _HALF * (a + c) + np.hypot(_HALF * (a - c), b)
    # lam_min > 0 and lam_max <= bound * lam_min, times lam_max so nothing
    # divides by zero; NaN fails every comparison
    bounded = lam_max**2 <= _MAX_CONDITION * det
    usable = (np.minimum(lam_max, det) > 0.0) & bounded
    if np.count_nonzero(usable) < usable.size:
        raise DegenerateMeasurementError(
            "innovation covariance is not positive definite with condition "
            f"number <= {MAX_MEASUREMENT_CONDITION:g}"
        )
    s_inv = s[..., ::-1, ::-1] * _ADJUGATE_SIGNS / det[..., None, None]
    maha = (residuals[..., None, :] @ s_inv @ residuals[..., :, None])[..., 0, 0]
    return np.exp(_MINUS_HALF * maha) / (_TWO_PI * np.sqrt(det)), s_inv


def kf_update(
    means: np.ndarray,
    covs: np.ndarray,
    z: np.ndarray,
    meas_matrix: np.ndarray,
    meas_cov: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Joseph-form Kalman update of every belief (..., n, 5) on its bank's
    planar fix z (..., 2).

    Returns posterior means and covs, residuals, innovation covariances
    and likelihoods.

    Raises:
        DegenerateMeasurementError: As gaussian_likelihood.
    """
    h, r = meas_matrix, meas_cov
    residuals = z[..., None, :] - means @ h.T
    pht = covs @ h.T
    s = _symmetrize(h @ pht + r)
    likelihoods, s_inv = gaussian_likelihood(residuals, s)
    gain = pht @ s_inv
    i_kh = _EYE - gain @ h
    cov = i_kh @ covs @ i_kh.swapaxes(-1, -2) + gain @ r @ gain.swapaxes(-1, -2)
    mean = means + (gain @ residuals[..., None])[..., 0]
    return mean, _symmetrize(cov), residuals, s, likelihoods


def update_mode_probabilities(
    likelihoods: np.ndarray, c_bar: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Posterior mode probabilities from likelihoods and predicted priors.

    Rows (..., 3) are banks. A row whose products all underflow to zero
    keeps its predicted prior c_bar, so the filter stays alive; the second
    result marks those rows, and is None when there are none.
    """
    products = likelihoods * c_bar
    total = products.sum(axis=-1, keepdims=True)
    alive = total > 0.0
    if np.count_nonzero(alive) == alive.size:
        return products / total, None
    mu = np.where(alive, products / np.where(alive, total, 1.0), c_bar)
    return mu, ~alive[..., 0]


def fuse_estimates(
    means: np.ndarray, covs: np.ndarray, mode_probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched single Gaussian, mean (..., 5) and cov (..., 5, 5),
    over each mode-conditioned bank."""
    mean, cov = mix_initial_conditions(means, covs, mode_probs[..., :, None])
    return mean[..., 0, :], cov[..., 0, :, :]


def fused_means(means: np.ndarray, mode_probs: np.ndarray) -> np.ndarray:
    """The mean of fuse_estimates alone, for callers that need no
    covariance."""
    return (mode_probs[..., None, :] @ means)[..., 0, :]


def initial_banks(z0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Track initialization of N banks from their first fixes z0 (N, 2).

    All modes start equiprobable with identical beliefs: measured position,
    zero velocity, zero turn rate, and a broad diagonal covariance.
    Returns means (N, 3, 5), covs (N, 3, 5, 5) and mode_probs (N, 3).
    """
    z0 = np.asarray(z0, dtype=float)
    lead = z0.shape[:-1] + (N_MODES,)
    means = np.zeros(lead + (STATE_DIM,))
    means[..., 0] = z0[..., None, 0]
    means[..., 2] = z0[..., None, 1]
    covs = np.broadcast_to(INITIAL_COV, lead + INITIAL_COV.shape).copy()
    return means, covs, np.full(lead, 1.0 / N_MODES)


def imm_step(
    means: np.ndarray,
    covs: np.ndarray,
    mode_probs: np.ndarray,
    z: np.ndarray,
    model: ImmModel,
) -> ImmStepOutput:
    """One full estimator cycle for N banks at once, each on its own fix.

    means (N, 3, 5), covs (N, 3, 5, 5), mode_probs (N, 3) and z (N, 2).
    Order: mixing probabilities, mixed initial conditions, predict and
    update of every bank, mode probability update; fuse_estimates combines
    the result. Each bank's turn-mode transitions are rebuilt around its
    incoming fused turn-rate estimate.
    """
    transitions = coordinated_turn_matrix(model.turn_rates(means, mode_probs), model.dt)
    mu_ij, c_bar, degenerate = mixing_probabilities(model.pi, mode_probs)
    means, covs = mix_initial_conditions(means, covs, mu_ij)
    means, covs = kf_predict(means, covs, transitions, model.process_cov)
    means, covs, residuals, s, likelihoods = kf_update(
        means, covs, z, model.meas_matrix, model.meas_cov
    )
    mu, underflow = update_mode_probabilities(likelihoods, c_bar)
    flags = ()
    if degenerate is not None or underflow is not None:
        flags = tuple(
            (name, np.flatnonzero(rows))
            for name, rows in (("degenerate_mixing", degenerate), ("likelihood_underflow", underflow))
            if rows is not None
        )
    return ImmStepOutput(means, covs, mu, likelihoods, residuals, s, flags)
