"""Seeded Monte Carlo simulation of the encounter scenario.

Each episode spawns the intruder on a circle around the reference, aimed
so that unmaneuvered straight flight would pierce the protected zone,
then runs the truth, the estimator, and (optionally) the avoidance loop.
One engine advances a batch of episodes in lockstep, each per-episode
quantity a row of a stacked array: run_monte_carlo feeds it chunks of
seeds and run_episode is a batch of one, so an episode's trace is the same
whichever batch runs it. All randomness flows through four named
substreams of one seed, each drawn for the whole episode up front, so
enabling or disabling avoidance compares the same noise.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import avoidance, dynamics, imm

# Episodes one engine call advances together. The per-step call overhead is
# shared across them; throughput stops growing near this size, and a
# chunk's arrays stay a few MB for default-length episodes.
CHUNK_EPISODES = 256
_STRAIGHT = int(dynamics.Mode.STRAIGHT)


def _check_finite(value, key: str) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{key} must be finite")
    return value


def _check_covariance(cov: np.ndarray, shape: tuple[int, int], key: str) -> np.ndarray:
    cov = _check_finite(cov, key)
    if cov.shape != shape:
        raise ValueError(f"{key} must have shape {shape}, got {cov.shape}")
    imm.check_covariance(cov, key)
    return cov


def _check_integer(value, key: str) -> int:
    # bool is an int subclass, but True steps or seeds are a caller's slip
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


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
        # stored as float so an integer given here still yields float times
        # and a float in the manifest
        for key in ("dt", "v_cruise", "r_safe", "spawn_radius", "avoid_margin"):
            setattr(self, key, float(_check_finite(getattr(self, key), key)))
        _check_finite(self.pi, "pi")
        self.steps = _check_integer(self.steps, "steps")
        self.lookahead_max = _check_integer(self.lookahead_max, "lookahead_max")
        self.seed = _check_integer(self.seed, "seed")
        if not isinstance(self.cda_enabled, (bool, np.bool_)):
            raise ValueError(f"cda_enabled must be a boolean, got {self.cda_enabled!r}")
        self.cda_enabled = bool(self.cda_enabled)
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
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.mode_threshold is not None:
            self.mode_threshold = float(self.mode_threshold)
            if not 0.0 <= self.mode_threshold <= 1.0:
                raise ValueError("mode_threshold must lie in [0, 1]")
        self.pi = dynamics.validate_transition_matrix(self.pi)
        self.process_cov = _check_covariance(self.process_cov, (5, 5), "process_cov")
        self.meas_cov = _check_covariance(self.meas_cov, (2, 2), "meas_cov")
        # without noise on positions and velocities the track converges
        # until only meas_cov keeps the innovation covariance regular
        if not np.any(self.process_cov[:4, :4]) and np.linalg.eigvalsh(self.meas_cov)[0] <= 0.0:
            raise ValueError(
                "meas_cov must be positive definite when process_cov has no "
                "position or velocity noise"
            )


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


def _with_seed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    # a copy of an already validated config: callers check the seed range
    # once per batch instead of validating every field per episode
    out = copy.copy(config)
    out.seed = seed
    return out


def _draw_episodes(
    config: ScenarioConfig, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Spawn states and every random draw of each episode, stacked.

    Returns the initial truths (N, 5), the mode uniforms (N, steps - 1),
    the process noise (N, steps - 1, 5) and the measurement noise
    (N, steps, 2). Each substream is drawn in one block, in the order the
    steps consume it.
    """
    n = config.steps
    state = np.empty((len(seeds), 5))
    u = np.empty((len(seeds), n - 1))
    w = np.empty((len(seeds), n - 1, 5))
    v = np.empty((len(seeds), n, 2))
    for i, seed in enumerate(seeds):
        rng_init, rng_mode, rng_process, rng_meas = _episode_rngs(seed)
        state[i], _ = init_scenario(config, rng_init)
        u[i] = rng_mode.random(n - 1)
        w[i] = rng_process.standard_normal((n - 1, 5))
        v[i] = rng_meas.standard_normal(2 * n).reshape(n, 2)
    w = w @ _cov_factor(config.process_cov).T
    w[..., 4] = 0.0  # the disturbance model has no turn-rate channel
    return state, u, w, v @ _cov_factor(config.meas_cov).T


def _run_lockstep(config: ScenarioConfig, seeds: list[int]) -> list[EpisodeTrace]:
    """Simulates one episode per seed, all advanced together step by step.

    Per step: advance the true modes and states, measure, run one estimator
    cycle on every bank, then run conflict detection on the fused
    estimates and apply each advisory to its episode's truth and bank
    alike. Step 0 records the spawn states and the track initializations
    from the first fixes. Every per-episode quantity is a row of a stacked
    array, so an episode's trace does not depend on which others share the
    call.

    The intruder flies straight until the encounter it was spawned into
    actually happens (first advisory, or first entry into the protected
    zone); only then does the random mode process start switching. It also
    holds a straight course on any step executing a maneuver, and may
    switch again as soon as the maneuver is over.
    """
    configs = [_with_seed(config, seed) for seed in seeds]
    state, u, w, v = _draw_episodes(config, seeds)
    model = imm.ImmModel(
        pi=config.pi,
        process_cov=config.process_cov,
        meas_cov=config.meas_cov,
        dt=config.dt,
    )
    edges = dynamics.transition_edges(config.pi)
    r_avoid = config.r_safe + config.avoid_margin
    n_eps, n = len(seeds), config.steps

    truth = np.empty((n_eps, n, 5))
    true_mode = np.empty((n_eps, n), dtype=int)
    z_all = np.empty((n_eps, n, 2))
    est = np.empty((n_eps, n, 5))
    mode_probs = np.empty((n_eps, n, 3))
    est_mode = np.empty((n_eps, n), dtype=int)
    separation = np.empty((n_eps, n))
    advisory_theta = np.full((n_eps, n), np.nan)
    trigger_j = np.zeros((n_eps, n), dtype=int)
    events: list[tuple[np.ndarray, int, str]] = []  # (episodes, step, flag)

    mode = np.full(n_eps, _STRAIGHT)
    reported = mode.copy()
    z = dynamics.measure(state, v[:, 0])
    means, covs, mu = imm.initial_banks(z)
    fused = imm.fused_means(means, mu)
    advised = np.zeros(n_eps, dtype=bool)
    modes_live = np.zeros(n_eps, dtype=bool)  # transitions start with the first conflict event
    for k in range(n):
        if k > 0:
            n_live = np.count_nonzero(modes_live)
            if n_live:
                sampled = dynamics.sample_next_mode(mode, edges, u[:, k - 1])
                mode = sampled if n_live == n_eps else np.where(modes_live, sampled, mode)
            if np.count_nonzero(advised):
                # holds a straight course while a maneuver is under way;
                # the mode process resumes on the next quiet step
                mode = np.where(advised, _STRAIGHT, mode)
            state = dynamics.step_truth(state, mode, config.dt, w[:, k - 1])
            z = dynamics.measure(state, v[:, k])
            out = imm.imm_step(means, covs, mu, z, model)
            means, covs, mu = out.means, out.covs, out.mode_probs
            if out.flags:
                events.extend((rows, k, name) for name, rows in out.flags)
            fused = imm.fused_means(means, mu)

        if config.cda_enabled:
            # detect and aim against a slightly widened radius so that the
            # commanded tangent pass clears r_safe despite estimation error
            j, points, _ = avoidance.detect_conflict(
                fused[:, 0:3:2], fused[:, 1:4:2], config.dt, r_avoid, config.lookahead_max
            )
            advised = j > 0
            if np.count_nonzero(advised):
                f = np.flatnonzero(advised)
                adv = avoidance.escape_angle(fused[f, 0:3:2], points[f, j[f] - 1], r_avoid, j[f])
                tracks = avoidance.deflect_track(
                    np.stack((state[f], fused[f]), axis=1), adv.theta[:, None]
                )
                state[f], fused[f] = tracks[:, 0], tracks[:, 1]
                means[f], covs[f] = avoidance.apply_avoidance(means[f], covs[f], adv.theta)
                advisory_theta[f, k] = adv.theta
                trigger_j[f, k] = adv.trigger_j
                if np.count_nonzero(adv.interior):
                    events.append((f[adv.interior], k, "interior_breach"))

        truth[:, k] = state
        true_mode[:, k] = mode
        z_all[:, k] = z
        est[:, k] = fused
        mode_probs[:, k] = mu
        peak = mu.argmax(axis=1) + 1
        if config.mode_threshold is not None:
            peak = np.where(mu.max(axis=1) < config.mode_threshold, reported, peak)
        est_mode[:, k] = reported = peak
        separation[:, k] = sep = np.hypot(state[:, 0], state[:, 2])
        modes_live |= advised | (sep < config.r_safe)

    flags: list[list[tuple[str, ...]]] = [[()] * n for _ in seeds]
    for rows, k, name in events:
        for i in rows:
            flags[i][k] += (name,)
    return [
        EpisodeTrace(
            config=configs[i],
            truth=truth[i],
            true_mode=true_mode[i],
            z=z_all[i],
            est=est[i],
            mode_probs=mode_probs[i],
            est_mode=est_mode[i],
            advisory_theta=advisory_theta[i],
            trigger_j=trigger_j[i],
            separation=separation[i],
            flags=flags[i],
        )
        for i in range(n_eps)
    ]


def run_episode(config: ScenarioConfig) -> EpisodeTrace:
    """Simulates one episode; deterministic for a given config.

    The lockstep engine on a batch of one: the same trace as the episode's
    entry in any run_monte_carlo batch that covers its seed.
    """
    return _run_lockstep(config, [config.seed])[0]


def run_monte_carlo(
    config: ScenarioConfig, n_episodes: int, keep_traces: bool = False
) -> MonteCarloResult:
    """Runs n_episodes seeded config.seed + 0..n_episodes-1 and aggregates.

    Episodes advance in lockstep, CHUNK_EPISODES at a time; each one's
    trace is the one run_episode gives for its seed.

    Position RMSE values are pooled per axis over every step of every
    episode; mode accuracy is the pooled fraction of steps whose most
    probable mode matches the true mode.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    seeds = [config.seed + i for i in range(n_episodes)]
    replace(config, seed=seeds[-1])  # raises unless the last seed is valid
    min_separations = np.zeros(n_episodes)
    breached = np.zeros(n_episodes, dtype=bool)
    sq_est = 0.0
    sq_meas = 0.0
    n_err = 0
    mode_hits = 0
    n_steps = 0
    traces: list[EpisodeTrace] | None = [] if keep_traces else None
    for start in range(0, n_episodes, CHUNK_EPISODES):
        chunk = _run_lockstep(config, seeds[start : start + CHUNK_EPISODES])
        for i, trace in enumerate(chunk, start):
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
            traces.extend(chunk)
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
