"""IMM tracking of a maneuvering intruder with conflict avoidance.

The package simulates a planar encounter between a reference aircraft
(fixed at the origin of the relative frame) and an intruder that switches
between straight flight and hard coordinated turns under a Markov chain.
An interacting-multiple-model estimator tracks the intruder from noisy
position fixes, short straight-line extrapolations of the estimate detect
predicted incursions into a protected circle, and a tangent-geometry
advisory steers the reference so the predicted track grazes the circle
instead of entering it.
"""

import types as _types

from .avoidance import (
    Advisory,
    apply_avoidance,
    deflect_track,
    detect_conflict,
    escape_angle,
)
from .dynamics import (
    CRUISE_SPEED,
    MEASUREMENT_MATRIX,
    MEASUREMENT_NOISE_COV,
    PROCESS_NOISE_COV,
    SAFETY_RADIUS,
    SPAWN_RADIUS,
    TRANSITION_MATRIX,
    TURN_RATE_OFFSET,
    Mode,
    coordinated_turn_matrix,
    evolve_mode_distribution,
    measure,
    mode_matrix,
    mode_transitions,
    sample_next_mode,
    step_truth,
    transition_edges,
    validate_transition_matrix,
)
from .imm import (
    DegenerateMeasurementError,
    ImmModel,
    ImmStepOutput,
    check_covariance,
    fuse_estimates,
    fused_means,
    gaussian_likelihood,
    imm_step,
    initial_banks,
    kf_predict,
    kf_update,
    mix_initial_conditions,
    mixing_probabilities,
    update_mode_probabilities,
)
from .scenario import (
    EpisodeMetrics,
    EpisodeTrace,
    MonteCarloResult,
    ScenarioConfig,
    init_scenario,
    run_episode,
    run_monte_carlo,
)
from .traceio import (
    CSV_COLUMNS,
    RunManifest,
    load_config,
    make_manifest,
    read_episode_csv,
    read_summary_json,
    write_episode_csv,
    write_summary_json,
)

__version__ = "0.1.0"

# every name imported above is public; the list is derived, not maintained
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
