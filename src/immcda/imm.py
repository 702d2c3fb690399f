"""Interacting-multiple-model estimator over the three flight modes.

The filter bank is stacked arrays: means (3, 5), covs (3, 5, 5) and mode
probabilities (3,); a stack of N banks adds a leading axis. One cycle
mixes the bank under the mode transition probabilities, predicts and
updates all three mode-matched Kalman filters at once on the new position
fix, reweighs the modes by measurement likelihood, and fuses the bank into
one Gaussian; mixing and fusion are the same moment match. Each 2x2
innovation covariance is factored once, in closed form, for the condition
guard, the gain and the likelihood. The per-mode transitions are rebuilt
each cycle around each bank's fused turn-rate estimate. imm_step_batch runs
the cycle for N banks, each on its own fix; imm_step and the per-belief
functions run the same stacked kernels on a stack of one.
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
    mode_matrix,
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
class GaussianBelief:
    """Gaussian state belief (mean vector and covariance matrix)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.cov = np.asarray(self.cov, dtype=float)
        n = self.mean.shape[0]
        if self.cov.shape != (n, n):
            raise ValueError(
                f"covariance shape {self.cov.shape} does not match mean length {n}"
            )

    def check_valid(self, sym_tol: float = 1e-9, psd_tol: float = 1e-9) -> None:
        """Raises ValueError unless cov is symmetric and PSD within tolerance."""
        scale = max(np.abs(self.cov).max(), 1.0)
        if np.abs(self.cov - self.cov.T).max() > sym_tol * scale:
            raise ValueError("covariance is not symmetric")
        min_eig = float(np.linalg.eigvalsh(self.cov).min())
        if min_eig < -psd_tol * max(float(np.trace(self.cov)), 1.0):
            raise ValueError(f"covariance has negative eigenvalue {min_eig}")


class ImmBelief:
    """Filter bank: stacked means (3, n), covs (3, n, n) and mode_probs (3,).

    Only the public constructor, from one GaussianBelief per mode, validates.
    """

    __slots__ = ("means", "covs", "mode_probs")

    def __init__(self, per_mode: list[GaussianBelief], mode_probs: np.ndarray) -> None:
        per_mode = list(per_mode)
        if len(per_mode) != N_MODES:
            raise ValueError(f"expected {N_MODES} per-mode beliefs")
        mode_probs = np.asarray(mode_probs, dtype=float).reshape(-1)
        if mode_probs.shape != (N_MODES,):
            raise ValueError("mode_probs must be a 3-vector")
        if np.any(mode_probs < -1e-12):
            raise ValueError("mode probabilities must be non-negative")
        if abs(float(mode_probs.sum()) - 1.0) > 1e-9:
            raise ValueError("mode probabilities must sum to 1")
        self.means, self.covs = _stack(per_mode)
        self.mode_probs = mode_probs

    @classmethod
    def _from_arrays(cls, means, covs, mode_probs) -> ImmBelief:
        """Wraps arrays the estimator itself produced, without validation."""
        bank = cls.__new__(cls)
        bank.means, bank.covs, bank.mode_probs = means, covs, mode_probs
        return bank

    @property
    def per_mode(self) -> list[GaussianBelief]:
        """Per-mode beliefs, as copies detached from the bank."""
        means, covs = self.means.copy(), self.covs.copy()
        return [GaussianBelief(m, c) for m, c in zip(means, covs)]


@dataclass
class ImmStepOutput:
    """Result of one estimator cycle.

    residuals (3, 2) and innovation_covs (3, 2, 2) hold each mode's
    measurement residual and innovation covariance; flags records
    numerical fallbacks taken during the cycle.
    """

    belief: ImmBelief
    fused: GaussianBelief
    likelihoods: np.ndarray
    residuals: np.ndarray
    innovation_covs: np.ndarray
    flags: tuple[str, ...] = ()


@dataclass
class ImmBatchOutput:
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

    def transition_matrices(self, base_rate) -> np.ndarray:
        """Stacked (..., 3, 5, 5) per-mode transition matrices around base_rate,
        a scalar or an array of N base rates."""
        return mode_matrix(self._mode_array, np.asarray(base_rate)[..., None], self.dt)

    def turn_rates(self, means: np.ndarray, mode_probs: np.ndarray) -> np.ndarray:
        """Turn rates (..., 3) of the per-mode transitions of banks (..., 3, 5):
        the modes' offsets around each bank's fused turn-rate estimate."""
        base = (mode_probs[..., None, :] @ means[..., 4:])[..., 0]
        return mode_rates(self._mode_array, base)


# --- stacked kernels: the last axis (vectors) or two (matrices) hold one
# --- belief, the axis before them runs over a bank's modes, and any
# --- leading axes run over banks


def _symmetrize(covs: np.ndarray) -> np.ndarray:
    return _HALF * (covs + covs.swapaxes(-1, -2))


def _stack(per_mode: list[GaussianBelief]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([b.mean for b in per_mode]), np.array([b.cov for b in per_mode])


def _moment_match(means, covs, weights) -> tuple[np.ndarray, np.ndarray]:
    """Gaussians matching the bank's mixture under each weight column:
    weights (..., n, k) over means (..., n, d) and covs (..., n, d, d) give
    (..., k, d) and (..., k, d, d)."""
    mean = weights.swapaxes(-1, -2) @ means
    spread = means[..., :, None, :] - mean[..., None, :, :]
    terms = covs[..., :, None, :, :] + spread[..., :, None] * spread[..., None, :]
    return mean, _symmetrize((weights[..., None, None] * terms).sum(axis=-4))


def _predict(means, covs, transitions, process_cov) -> tuple[np.ndarray, np.ndarray]:
    mean = (transitions @ means[..., None])[..., 0]
    cov = transitions @ covs @ transitions.swapaxes(-1, -2) + process_cov
    return mean, _symmetrize(cov)


def _factor(s: np.ndarray, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of stacked symmetric 2x2 matrices S, and residual densities.

    One closed-form factorization (determinant and adjugate) per S. Its
    exact eigenvalues lam_max = (a + c)/2 + hypot((a - c)/2, b) and
    lam_min = det/lam_max guard it: DegenerateMeasurementError unless every
    S is positive definite with condition number <= MAX_MEASUREMENT_CONDITION.
    """
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
    return s_inv, np.exp(_MINUS_HALF * maha) / (_TWO_PI * np.sqrt(det))


def _update(means, covs, z, meas_matrix, meas_cov) -> tuple[np.ndarray, ...]:
    """Joseph-form update of every belief on its bank's fix z (..., 2).

    Returns posterior means and covs, residuals, innovation covariances
    and likelihoods.
    """
    h, r = meas_matrix, meas_cov
    residuals = z[..., None, :] - means @ h.T
    pht = covs @ h.T
    s = _symmetrize(h @ pht + r)
    s_inv, likelihoods = _factor(s, residuals)
    gain = pht @ s_inv
    i_kh = _EYE - gain @ h
    cov = i_kh @ covs @ i_kh.swapaxes(-1, -2) + gain @ r @ gain.swapaxes(-1, -2)
    mean = means + (gain @ residuals[..., None])[..., 0]
    return mean, _symmetrize(cov), residuals, s, likelihoods


def _fuse(means, covs, mode_probs) -> GaussianBelief:
    mean, cov = _moment_match(means, covs, mode_probs[:, None])
    return GaussianBelief(mean[0], cov[0])


def fused_means(means: np.ndarray, mode_probs: np.ndarray) -> np.ndarray:
    """Means of the moment-matched fusion of banks (..., 3, 5) under
    mode_probs (..., 3); equal to fuse_estimates' mean."""
    return (mode_probs[..., None, :] @ means)[..., 0, :]


def _mixing(pi, mu_prev) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    # mixing weights, c_bar, and which rows fell back (None when none did)
    c_bar = (mu_prev[..., None, :] @ pi)[..., 0, :]
    mu_ij = pi * mu_prev[..., :, None]
    live = c_bar > 0.0
    if np.count_nonzero(live) == live.size:
        return mu_ij / c_bar[..., None, :], c_bar, None
    mu_ij = mu_ij / np.where(live, c_bar, 1.0)[..., None, :]
    return np.where(live[..., None, :], mu_ij, 1.0 / N_MODES), c_bar, ~live.all(axis=-1)


def mixing_probabilities(
    pi: np.ndarray, mu_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mixing weights and predicted mode probabilities.

    Args:
        pi: Row-stochastic mode transition matrix, already validated
            (ImmModel and ScenarioConfig validate theirs).
        mu_prev: Previous mode probabilities (..., 3), one row per bank.

    Returns:
        (mu_ij, c_bar) where mu_ij[..., i, j] is the probability of having
        been in mode i given mode j now, and c_bar = pi^T mu_prev. A column
        with c_bar[..., j] = 0 (mode j unreachable) is replaced by the
        uniform distribution so the mixer stays defined.
    """
    mu_ij, c_bar, _ = _mixing(np.asarray(pi, dtype=float), np.asarray(mu_prev, dtype=float))
    return mu_ij, c_bar


def mix_initial_conditions(
    per_mode: list[GaussianBelief], mu_ij: np.ndarray
) -> list[GaussianBelief]:
    """Moment-matched mixture of the bank under each mixing column."""
    means, covs = _moment_match(*_stack(per_mode), np.asarray(mu_ij, dtype=float))
    return [GaussianBelief(m, c) for m, c in zip(means, covs)]


def kf_predict(
    belief: GaussianBelief, transition: np.ndarray, process_cov: np.ndarray
) -> GaussianBelief:
    """Kalman time update through a linear transition."""
    a = np.asarray(transition, dtype=float)[None]
    mean, cov = _predict(belief.mean[None], belief.cov[None], a, process_cov)
    return GaussianBelief(mean[0], cov[0])


def kf_update(
    belief: GaussianBelief, z: np.ndarray, meas_matrix: np.ndarray, meas_cov: np.ndarray
) -> tuple[GaussianBelief, np.ndarray, np.ndarray]:
    """Kalman measurement update in Joseph form on a planar (2-vector) fix.

    Returns (posterior, residual, innovation covariance).

    Raises:
        DegenerateMeasurementError: If the innovation covariance is not
            positive definite or its condition number exceeds
            MAX_MEASUREMENT_CONDITION.
    """
    h, r = np.asarray(meas_matrix, dtype=float), np.asarray(meas_cov, dtype=float)
    z = np.asarray(z, dtype=float)
    mean, cov, residuals, s, _ = _update(belief.mean[None], belief.cov[None], z, h, r)
    return GaussianBelief(mean[0], cov[0]), residuals[0], s[0]


def gaussian_likelihood(residual: np.ndarray, innovation_cov: np.ndarray) -> float:
    """Planar Gaussian density of a residual under its innovation covariance.

    Raises:
        DegenerateMeasurementError: If the covariance is not positive
            definite or its condition number exceeds
            MAX_MEASUREMENT_CONDITION.
    """
    s = np.asarray(innovation_cov, dtype=float)[None]
    return float(_factor(s, np.asarray(residual, dtype=float)[None])[1][0])


def _reweigh(likelihoods, c_bar) -> tuple[np.ndarray, np.ndarray | None]:
    # posterior mode probabilities, and which rows fell back (None when none did)
    products = likelihoods * c_bar
    total = products.sum(axis=-1, keepdims=True)
    alive = total > 0.0
    if np.count_nonzero(alive) == alive.size:
        return products / total, None
    mu = np.where(alive, products / np.where(alive, total, 1.0), c_bar)
    return mu, ~alive[..., 0]


def update_mode_probabilities(
    likelihoods: np.ndarray, c_bar: np.ndarray
) -> np.ndarray:
    """Posterior mode probabilities from likelihoods and predicted priors.

    Rows (..., 3) are banks. A row whose products all underflow to zero
    keeps its predicted prior c_bar, so the filter stays alive.
    """
    c_bar = np.asarray(c_bar, dtype=float)
    return _reweigh(np.asarray(likelihoods, dtype=float), c_bar)[0]


def fuse_estimates(
    per_mode: list[GaussianBelief], mode_probs: np.ndarray
) -> GaussianBelief:
    """Moment-matched single Gaussian over the mode-conditioned bank."""
    return _fuse(*_stack(per_mode), np.asarray(mode_probs, dtype=float))


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


def initial_belief(z0: np.ndarray) -> ImmBelief:
    """Track initialization from the first position fix: initial_banks for
    one bank."""
    return ImmBelief._from_arrays(*initial_banks(z0))


def imm_step_batch(
    means: np.ndarray,
    covs: np.ndarray,
    mode_probs: np.ndarray,
    z: np.ndarray,
    model: ImmModel,
) -> ImmBatchOutput:
    """One full estimator cycle for N banks at once, each on its own fix.

    means (N, 3, 5), covs (N, 3, 5, 5), mode_probs (N, 3) and z (N, 2).
    Order: mixing probabilities, mixed initial conditions, predict and
    update of every bank, mode probability update. Each bank's turn-mode
    transitions are rebuilt around its incoming fused turn-rate estimate.
    """
    transitions = coordinated_turn_matrix(model.turn_rates(means, mode_probs), model.dt)
    mu_ij, c_bar, degenerate = _mixing(model.pi, mode_probs)
    means, covs = _moment_match(means, covs, mu_ij)
    means, covs = _predict(means, covs, transitions, model.process_cov)
    means, covs, residuals, s, likelihoods = _update(
        means, covs, z, model.meas_matrix, model.meas_cov
    )
    mu, underflow = _reweigh(likelihoods, c_bar)
    flags = ()
    if degenerate is not None or underflow is not None:
        flags = tuple(
            (name, np.flatnonzero(rows))
            for name, rows in (("degenerate_mixing", degenerate), ("likelihood_underflow", underflow))
            if rows is not None
        )
    return ImmBatchOutput(means, covs, mu, likelihoods, residuals, s, flags)


def imm_step(belief: ImmBelief, z: np.ndarray, model: ImmModel) -> ImmStepOutput:
    """One full estimator cycle on a new measurement: imm_step_batch on a
    stack of one bank, fused into one Gaussian."""
    out = imm_step_batch(
        belief.means[None],
        belief.covs[None],
        belief.mode_probs[None],
        np.asarray(z, dtype=float)[None],
        model,
    )
    means, covs, mu = out.means[0], out.covs[0], out.mode_probs[0]
    return ImmStepOutput(
        ImmBelief._from_arrays(means, covs, mu),
        _fuse(means, covs, mu),
        out.likelihoods[0],
        out.residuals[0],
        out.innovation_covs[0],
        tuple(name for name, _ in out.flags),
    )
