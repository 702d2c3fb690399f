"""Seeded Monte Carlo simulation of the encounter scenario.

Each episode spawns the intruder on a circle around the reference, aimed
so that unmaneuvered straight flight would pierce the protected zone,
then runs the truth, the estimator, and (optionally) the avoidance loop
in lockstep. All randomness flows through four named substreams of one
seed, so enabling or disabling avoidance compares the same noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import avoidance, dynamics, imm


def _check_covariance(cov: np.ndarray, shape: tuple[int, int], key: str) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != shape:
        raise ValueError(f"{key} must have shape {shape}, got {cov.shape}")
    scale = max(float(np.abs(cov).max()), 1.0)
    if np.abs(cov - cov.T).max() > 1e-9 * scale:
        raise ValueError(f"{key} must be symmetric")
    min_eig = float(np.linalg.eigvalsh(cov).min())
    if min_eig < -1e-9 * max(float(np.trace(cov)), 1.0):
        raise ValueError(f"{key} must be positive semidefinite")
    return cov


@dataclass
class ScenarioConfig:
    """Episode configuration; the defaults reproduce the baseline encounter.

    avoid_margin widens the radius the avoidance loop detects and aims
    against (never the breach metric itself). It is sized to absorb the
    two ways a commanded tangent pass still grazes inside r_safe: fused
    estimate error (tens of meters) and one step of unannounced turning
    before the next advisory can react (one to two hundred meters at
    these speeds and turn rates).

    mode_threshold, when set, holds the previously reported mode unless the
    largest mode probability reaches the threshold (reporting only; the
    estimator itself is untouched).
    """

    dt: float = 1.0
    steps: int = 60
    v_cruise: float = dynamics.CRUISE_SPEED
    r_safe: float = dynamics.SAFETY_RADIUS
    spawn_radius: float = dynamics.SPAWN_RADIUS
    pi: np.ndarray = field(default_factory=lambda: dynamics.TRANSITION_MATRIX.copy())
    process_cov: np.ndarray = field(
        default_factory=lambda: dynamics.PROCESS_NOISE_COV.copy()
    )
    meas_cov: np.ndarray = field(
        default_factory=lambda: dynamics.MEASUREMENT_NOISE_COV.copy()
    )
    cda_enabled: bool = True
    seed: int = 0
    lookahead_max: int = 3
    avoid_margin: float = 250.0
    mode_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.v_cruise <= 0.0:
            raise ValueError("v_cruise must be positive")
        if not 0.0 < self.r_safe < self.spawn_radius:
            raise ValueError("r_safe must lie strictly between 0 and spawn_radius")
        if self.lookahead_max < 1:
            raise ValueError("lookahead_max must be >= 1")
        # every drawn spawn must be able to reach the protected zone on a
        # whole step, or the aim rejection loop could never terminate
        if (self.steps - 1) * self.dt * self.v_cruise < self.spawn_radius - self.r_safe:
            raise ValueError(
                "episode too short: a cruise-speed spawn cannot reach the "
                "protected zone within steps - 1 steps"
            )
        if self.v_cruise * self.dt >= self.r_safe:
            raise ValueError(
                "step length too coarse: a fast spawn could cross the "
                "protected zone between samples"
            )
        if self.avoid_margin < 0.0:
            raise ValueError("avoid_margin must be nonnegative")
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = int(self.seed)
        if self.mode_threshold is not None and not 0.0 <= self.mode_threshold <= 1.0:
            raise ValueError("mode_threshold must lie in [0, 1]")
        self.pi = dynamics.validate_transition_matrix(self.pi)
        self.process_cov = _check_covariance(self.process_cov, (5, 5), "process_cov")
        self.meas_cov = _check_covariance(self.meas_cov, (2, 2), "meas_cov")


@dataclass(frozen=True)
class EpisodeMetrics:
    """Summary numbers for one episode."""

    min_separation: float
    breach_count: int
    breached: bool
    rmse_position_est: float
    rmse_position_meas: float
    mode_accuracy: float
    advisory_count: int


@dataclass
class EpisodeTrace:
    """Per-step arrays recorded over one episode.

    advisory_theta is NaN and trigger_j is 0 on steps without an advisory.
    All arrays share length config.steps.
    """

    config: ScenarioConfig
    truth: np.ndarray
    true_mode: np.ndarray
    z: np.ndarray
    est: np.ndarray
    mode_probs: np.ndarray
    est_mode: np.ndarray
    advisory_theta: np.ndarray
    trigger_j: np.ndarray
    separation: np.ndarray
    flags: list[tuple[str, ...]]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.config.steps) * self.config.dt

    def metrics(self, mode_burn_in: int = 0) -> EpisodeMetrics:
        """Episode summary; mode accuracy skips the first mode_burn_in steps."""
        pos_err = self.est[:, [0, 2]] - self.truth[:, [0, 2]]
        meas_err = self.z - self.truth[:, [0, 2]]
        modes = slice(mode_burn_in, None)
        return EpisodeMetrics(
            min_separation=float(self.separation.min()),
            breach_count=int(np.sum(self.separation < self.config.r_safe)),
            breached=bool(self.separation.min() < self.config.r_safe),
            rmse_position_est=float(np.sqrt(np.mean(pos_err**2))),
            rmse_position_meas=float(np.sqrt(np.mean(meas_err**2))),
            mode_accuracy=float(
                np.mean(self.est_mode[modes] == self.true_mode[modes])
            ),
            advisory_count=int(np.sum(self.trigger_j > 0)),
        )


@dataclass
class MonteCarloResult:
    """Aggregate over a batch of consecutively seeded episodes."""

    config: ScenarioConfig
    seeds: list[int]
    min_separations: np.ndarray
    breached: np.ndarray
    rmse_position_est: float
    rmse_position_meas: float
    mode_accuracy: float
    traces: list[EpisodeTrace] | None = None

    @property
    def n_episodes(self) -> int:
        return len(self.seeds)

    @property
    def breach_fraction(self) -> float:
        return float(np.mean(self.breached))

    @property
    def min_separation_mean(self) -> float:
        return float(np.mean(self.min_separations))

    @property
    def min_separation_median(self) -> float:
        return float(np.median(self.min_separations))

    @property
    def min_separation_stddev(self) -> float:
        return float(np.std(self.min_separations))


def _episode_rngs(
    seed: int,
) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator, np.random.Generator]:
    """Four independent substreams of one seed.

    Order: initial conditions, mode sampling, process noise, measurement
    noise. Every stream is drawn from on the same schedule whether or not
    avoidance is enabled, so paired runs see identical randomness.
    """
    children = np.random.SeedSequence(seed).spawn(4)
    return tuple(np.random.Generator(np.random.PCG64(c)) for c in children)


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    # eigendecomposition instead of Cholesky: zero-noise configs are legal
    w, v = np.linalg.eigh(0.5 * (cov + cov.T))
    return v * np.sqrt(np.clip(w, 0.0, None))


def _straight_path_breaches(
    position: np.ndarray, velocity: np.ndarray, config: ScenarioConfig
) -> bool:
    k = np.arange(1, config.steps)[:, None]
    points = position[None, :] + k * config.dt * velocity[None, :]
    return bool(np.any(np.hypot(points[:, 0], points[:, 1]) < config.r_safe))


def init_scenario(
    config: ScenarioConfig, rng: np.random.Generator
) -> tuple[np.ndarray, dynamics.Mode]:
    """Draws the initial true state on the spawn circle, aimed to breach.

    The spawn bearing is uniform on the circle, speed uniform between
    cruise and twice cruise, and the velocity points at an aim point drawn
    uniformly over the protected disc. The aim is redrawn until the
    noise-free straight-line extrapolation comes inside the protected
    circle at a whole step within the episode.
    """
    bearing = rng.uniform(0.0, 2.0 * math.pi)
    position = config.spawn_radius * np.array([math.cos(bearing), math.sin(bearing)])
    speed = rng.uniform(config.v_cruise, 2.0 * config.v_cruise)
    # config validation guarantees a near-center aim succeeds, so this
    # rejection loop terminates quickly; the cap is a hard backstop
    for _ in range(100_000):
        aim_radius = config.r_safe * math.sqrt(rng.uniform())
        aim_bearing = rng.uniform(0.0, 2.0 * math.pi)
        aim = aim_radius * np.array([math.cos(aim_bearing), math.sin(aim_bearing)])
        direction = aim - position
        direction /= np.hypot(direction[0], direction[1])
        velocity = speed * direction
        if _straight_path_breaches(position, velocity, config):
            break
    else:
        raise RuntimeError("could not draw a conflicting spawn for this config")
    state = np.array([position[0], velocity[0], position[1], velocity[1], 0.0])
    return state, dynamics.Mode.STRAIGHT


def run_episode(config: ScenarioConfig) -> EpisodeTrace:
    """Simulates one episode; deterministic for a given config.

    Per step: advance the true mode and state, measure, run one estimator
    cycle, then run conflict detection on the fused estimate and apply any
    advisory to truth and belief alike. Step 0 records the spawn state and
    the track initialization from the first fix.

    The intruder flies straight until the encounter it was spawned into
    actually happens (first advisory, or first entry into the protected
    zone); only then does the random mode process start switching. It also
    holds a straight course on any step executing a maneuver, and may
    switch again as soon as the maneuver is over.
    """
    rng_init, rng_mode, rng_process, rng_meas = _episode_rngs(config.seed)
    process_factor = _cov_factor(config.process_cov)
    meas_factor = _cov_factor(config.meas_cov)
    model = imm.ImmModel(
        pi=config.pi,
        process_cov=config.process_cov,
        meas_cov=config.meas_cov,
        dt=config.dt,
    )

    n = config.steps
    truth = np.zeros((n, 5))
    true_mode = np.zeros(n, dtype=int)
    z_all = np.zeros((n, 2))
    est = np.zeros((n, 5))
    mode_probs = np.zeros((n, 3))
    est_mode = np.zeros(n, dtype=int)
    advisory_theta = np.full(n, np.nan)
    trigger_j = np.zeros(n, dtype=int)
    separation = np.zeros(n)
    flags: list[tuple[str, ...]] = []

    state, mode = init_scenario(config, rng_init)
    belief = imm.initial_belief(
        dynamics.measure(state, meas_factor @ rng_meas.standard_normal(2))
    )
    # z of step 0 is the fix the track was initialized from
    z_k = belief.means[0, [0, 2]]
    fused = imm.fuse_estimates(belief.per_mode, belief.mode_probs)
    advisory: avoidance.Advisory | None = None
    reported_mode = int(dynamics.Mode.STRAIGHT)

    modes_live = False  # transitions start with the first conflict event
    for k in range(n):
        step_flags: list[str] = []
        if k > 0:
            u = rng_mode.random()  # drawn even when unused, to keep runs paired
            if advisory is not None:
                # holds a straight course while a maneuver is under way;
                # the mode process resumes on the next quiet step
                mode = dynamics.Mode.STRAIGHT
            elif modes_live:
                mode = dynamics.sample_next_mode(mode, config.pi, u)
            noise = process_factor @ rng_process.standard_normal(5)
            noise[4] = 0.0  # the disturbance model has no turn-rate channel
            state = dynamics.step_truth(state, mode, config.dt, noise)
            z_k = dynamics.measure(state, meas_factor @ rng_meas.standard_normal(2))
            out = imm.imm_step(belief, z_k, model)
            belief, fused = out.belief, out.fused
            step_flags.extend(out.flags)

        advisory = None
        if config.cda_enabled:
            # detect and aim against a slightly widened radius so that the
            # commanded tangent pass clears r_safe despite estimation error
            r_avoid = config.r_safe + config.avoid_margin
            pred = avoidance.detect_conflict(
                fused.mean[[0, 2]],
                fused.mean[[1, 3]],
                config.dt,
                r_avoid,
                config.lookahead_max,
            )
            if pred is not None:
                advisory = avoidance.escape_angle(
                    fused.mean[[0, 2]],
                    pred.predicted_point,
                    r_avoid,
                    trigger_j=pred.horizon_j,
                )
                state = avoidance.deflect_track(state, advisory.theta)
                belief = avoidance.apply_avoidance(belief, advisory)
                fused = imm.GaussianBelief(
                    avoidance.deflect_track(fused.mean, advisory.theta), fused.cov
                )
                if advisory.interior:
                    step_flags.append("interior_breach")

        truth[k] = state
        true_mode[k] = int(mode)
        z_all[k] = z_k
        est[k] = fused.mean
        mode_probs[k] = belief.mode_probs
        peak = int(np.argmax(belief.mode_probs)) + 1
        if (
            config.mode_threshold is not None
            and float(belief.mode_probs.max()) < config.mode_threshold
        ):
            est_mode[k] = reported_mode
        else:
            est_mode[k] = peak
        reported_mode = int(est_mode[k])
        if advisory is not None:
            advisory_theta[k] = advisory.theta
            trigger_j[k] = advisory.trigger_j
        separation[k] = math.hypot(state[0], state[2])
        flags.append(tuple(step_flags))
        if advisory is not None or separation[k] < config.r_safe:
            modes_live = True

    return EpisodeTrace(
        config=config,
        truth=truth,
        true_mode=true_mode,
        z=z_all,
        est=est,
        mode_probs=mode_probs,
        est_mode=est_mode,
        advisory_theta=advisory_theta,
        trigger_j=trigger_j,
        separation=separation,
        flags=flags,
    )


def run_monte_carlo(
    config: ScenarioConfig, n_episodes: int, keep_traces: bool = False
) -> MonteCarloResult:
    """Runs n_episodes seeded config.seed + 0..n_episodes-1 and aggregates.

    Position RMSE values are pooled per axis over every step of every
    episode; mode accuracy is the pooled fraction of steps whose most
    probable mode matches the true mode.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    seeds = [config.seed + i for i in range(n_episodes)]
    min_separations = np.zeros(n_episodes)
    breached = np.zeros(n_episodes, dtype=bool)
    sq_est = 0.0
    sq_meas = 0.0
    n_err = 0
    mode_hits = 0
    n_steps = 0
    traces: list[EpisodeTrace] | None = [] if keep_traces else None
    for i, seed in enumerate(seeds):
        trace = run_episode(replace(config, seed=seed))
        min_separations[i] = trace.separation.min()
        breached[i] = trace.separation.min() < config.r_safe
        pos_err = trace.est[:, [0, 2]] - trace.truth[:, [0, 2]]
        meas_err = trace.z - trace.truth[:, [0, 2]]
        sq_est += float(np.sum(pos_err**2))
        sq_meas += float(np.sum(meas_err**2))
        n_err += pos_err.size
        mode_hits += int(np.sum(trace.est_mode == trace.true_mode))
        n_steps += trace.est_mode.size
        if traces is not None:
            traces.append(trace)
    return MonteCarloResult(
        config=config,
        seeds=seeds,
        min_separations=min_separations,
        breached=breached,
        rmse_position_est=math.sqrt(sq_est / n_err),
        rmse_position_meas=math.sqrt(sq_meas / n_err),
        mode_accuracy=mode_hits / n_steps,
        traces=traces,
    )
