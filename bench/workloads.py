"""The benchmark workloads: what each one runs, and how its outputs are checked.

A workload runs in batches. Batch ``b`` of a run with workload seed ``s``
covers the episode seeds ``s + b * batch_episodes`` onwards, so every batch
brings new inputs and the same seed always brings the same ones. The first
``quality_batches`` batches are the run's fixed prefix: the quality metrics
and the traced call counts are taken over it alone, so they repeat exactly
for a seed however many batches the run's time allows.

Every batch is checked after its timed call returns. Invariants that hold
for every seed are checked on every batch. On the default seed the first
batch is also compared episode by episode with ``reference.json``, and the
prefix's pooled quality with the figures held there.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from immcda import cli, scenario, traceio

DEFAULT_SEED = 0
# Refactor-equivalence rule: discrete outputs identical, continuous ones
# within this relative tolerance.
REL_TOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    """One workload's parameters; ``kind`` names the entry point it drives."""

    name: str
    kind: str  # "monte_carlo", "cli" or "episode"
    batch_episodes: int
    quality_batches: int
    dt: float = 1.0
    steps: int = 60
    cda_enabled: bool = True

    def config(self, seed: int) -> scenario.ScenarioConfig:
        return scenario.ScenarioConfig(
            dt=self.dt, steps=self.steps, cda_enabled=self.cda_enabled, seed=seed
        )

    def batch_seed(self, base: int, b: int) -> int:
        return base + b * self.batch_episodes

    def warmup(self) -> "Workload":
        """The same workload cut to one default-length episode."""
        return replace(self, batch_episodes=1, quality_batches=1, steps=60)

    def params(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_cda_on", "monte_carlo", batch_episodes=10, quality_batches=20),
        Workload(
            "mc_cda_off_traces", "cli", batch_episodes=10, quality_batches=20,
            cda_enabled=False,
        ),
        Workload(
            "episode_long", "episode", batch_episodes=1, quality_batches=16,
            dt=0.1, steps=1000,
        ),
    )
}


def run_batch(w: Workload, seed: int, out_dir: Path):
    """The timed call into the program for one batch."""
    if w.kind == "monte_carlo":
        return scenario.run_monte_carlo(w.config(seed), w.batch_episodes)
    if w.kind == "episode":
        return scenario.run_episode(w.config(seed))
    argv = [
        "monte-carlo", "--emit-traces",
        "--episodes", str(w.batch_episodes),
        "--seed", str(seed),
        "--dt", repr(w.dt),
        "--steps", str(w.steps),
        "--out-dir", str(out_dir),
    ]
    if not w.cda_enabled:
        argv.append("--disable-cda")
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.cli_main(argv)


@dataclass
class BatchStats:
    """What the check of one batch found."""

    episodes: int
    failed: int = 0
    breached: int = 0
    rmse_est: float = math.nan
    rmse_meas: float = math.nan
    mode_accuracy: float = math.nan
    bytes_written: int = 0
    records: list[dict] | None = None
    problems: list[str] = field(default_factory=list)

    def fail_all(self, problem: str) -> None:
        self.failed = self.episodes
        self.problems.append(problem)


def run_lengths(values) -> str:
    """A sequence of small integers as ``value x count`` runs, e.g. ``1x6,2x2``."""
    return ",".join(f"{v}x{len(list(run))}" for v, run in itertools.groupby(int(x) for x in values))


def episode_record(
    seed: int,
    separation: np.ndarray,
    est_mode: np.ndarray,
    trigger_j: np.ndarray,
    r_safe: float,
) -> dict:
    """The per-episode entry the reference holds."""
    min_sep = float(np.min(separation))
    return {
        "seed": int(seed),
        "breached": bool(min_sep < r_safe),
        "advisory_count": int(np.sum(trigger_j > 0)),
        "min_separation": min_sep,
        "est_mode": run_lengths(est_mode),
        "trigger_j": run_lengths(trigger_j),
    }


def _trace_record(trace: scenario.EpisodeTrace) -> dict:
    return episode_record(
        trace.config.seed, trace.separation, trace.est_mode, trace.trigger_j,
        trace.config.r_safe,
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_records(ref: dict, got: dict) -> list[str]:
    """Mismatches between two episode records; empty when they agree."""
    problems = [
        f"seed {ref['seed']}: {key} {got[key]!r} != reference {ref[key]!r}"
        for key in ("seed", "breached", "advisory_count", "est_mode", "trigger_j")
        if got[key] != ref[key]
    ]
    if not _close(got["min_separation"], ref["min_separation"]):
        problems.append(
            f"seed {ref['seed']}: min_separation {got['min_separation']!r} "
            f"!= reference {ref['min_separation']!r}"
        )
    return problems


def compare_quality(ref: dict, got: dict) -> list[str]:
    return [
        f"{key} {got[key]!r} != reference {ref[key]!r}"
        for key in ref
        if not _close(got[key], ref[key])
    ]


def _trace_finite(trace: scenario.EpisodeTrace) -> bool:
    arrays = (trace.truth, trace.z, trace.est, trace.mode_probs, trace.separation)
    return all(np.all(np.isfinite(a)) for a in arrays)


def _aggregate_problems(rmse_est: float, rmse_meas: float, mode_acc: float) -> list[str]:
    problems = []
    if not (math.isfinite(rmse_est) and math.isfinite(rmse_meas)):
        problems.append("non-finite position RMSE")
    elif not rmse_est < rmse_meas:
        problems.append(f"rmse_position_est {rmse_est} >= rmse_position_meas {rmse_meas}")
    if not 0.0 <= mode_acc <= 1.0:
        problems.append(f"mode_accuracy {mode_acc} outside [0, 1]")
    return problems


def _check_monte_carlo(w, seed, result, want_records) -> BatchStats:
    cfg = w.config(seed)
    stats = BatchStats(w.batch_episodes)
    expected_seeds = [seed + i for i in range(w.batch_episodes)]
    if result.seeds != expected_seeds or len(result.min_separations) != w.batch_episodes:
        stats.fail_all("batch does not cover the requested seeds")
        return stats
    stats.rmse_est, stats.rmse_meas = result.rmse_position_est, result.rmse_position_meas
    stats.mode_accuracy = result.mode_accuracy
    stats.breached = int(np.sum(result.breached))
    for problem in _aggregate_problems(stats.rmse_est, stats.rmse_meas, stats.mode_accuracy):
        stats.fail_all(problem)
    bad = ~np.isfinite(result.min_separations) | (
        result.breached != (result.min_separations < cfg.r_safe)
    )
    stats.failed = max(stats.failed, int(np.sum(bad)))
    if want_records:
        # the batch returns aggregates only; the sequences come from the
        # same episodes run one by one, tied to the batch by min separation
        stats.records = []
        for s, min_sep in zip(result.seeds, result.min_separations):
            record = _trace_record(scenario.run_episode(replace(cfg, seed=s)))
            if not _close(record["min_separation"], float(min_sep)):
                stats.failed = stats.episodes
                stats.problems.append(f"seed {s}: batch and single run disagree")
            stats.records.append(record)
    return stats


_CSV_FROM_TRACE = {
    "truth": ("truth_x1", "truth_vx1", "truth_x2", "truth_vx2", "truth_omega"),
    "z": ("z1", "z2"),
    "est": ("est_x1", "est_vx1", "est_x2", "est_vx2", "est_omega"),
    "mode_probs": ("mu1", "mu2", "mu3"),
}


def trace_columns(trace: scenario.EpisodeTrace) -> dict[str, np.ndarray]:
    """The in-memory trace laid out as the CSV's columns."""
    cols = {
        "k": np.arange(trace.config.steps),
        "t": trace.times,
        "true_mode": trace.true_mode,
        "est_mode": trace.est_mode,
        "advisory_theta": trace.advisory_theta,
        "trigger_j": trace.trigger_j,
        "separation": trace.separation,
    }
    for attr, names in _CSV_FROM_TRACE.items():
        array = getattr(trace, attr)
        cols.update((name, array[:, i]) for i, name in enumerate(names))
    return cols


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
        return False
    if a.dtype.kind == "f":
        return a.astype(np.float64).tobytes() == b.astype(np.float64).tobytes()
    return bool(np.array_equal(a, b))


def _check_cli(w, seed, code, out_dir: Path, want_records) -> BatchStats:
    stats = BatchStats(w.batch_episodes)
    if code != 0:
        stats.fail_all(f"cli_main returned {code}")
        return stats
    ref = scenario.run_monte_carlo(w.config(seed), w.batch_episodes, keep_traces=True)
    summary = traceio.read_summary_json(out_dir / "summary.json")
    stats.rmse_est = summary["rmse_position_est"]
    stats.rmse_meas = summary["rmse_position_meas"]
    stats.mode_accuracy = summary["mode_accuracy"]
    stats.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
    for problem in _aggregate_problems(stats.rmse_est, stats.rmse_meas, stats.mode_accuracy):
        stats.fail_all(problem)

    expected = {
        "breach_fraction": ref.breach_fraction,
        "rmse_position_est": ref.rmse_position_est,
        "rmse_position_meas": ref.rmse_position_meas,
        "mode_accuracy": ref.mode_accuracy,
    }
    expected_sep = {
        "mean": ref.min_separation_mean,
        "median": ref.min_separation_median,
        "stddev": ref.min_separation_stddev,
    }
    if (
        summary["n_episodes"] != ref.n_episodes
        or summary["manifest"]["seeds"] != ref.seeds
        or compare_quality(expected, summary)
        or compare_quality(expected_sep, summary["min_separation"])
    ):
        stats.fail_all("summary.json does not match the in-memory result")

    failed = set()
    records = []
    for trace in ref.traces:
        s = trace.config.seed
        got = traceio.read_episode_csv(out_dir / f"episode_{s}.csv")
        want = trace_columns(trace)
        if not _trace_finite(trace):
            failed.add(s)
            stats.problems.append(f"seed {s}: non-finite trace")
        bad = [name for name, col in want.items() if not _bit_equal(got[name], col)]
        if bad:
            failed.add(s)
            stats.problems.append(f"seed {s}: CSV read-back differs in {bad}")
        records.append(
            episode_record(s, got["separation"], got["est_mode"], got["trigger_j"],
                           trace.config.r_safe)
        )
    stats.failed = max(stats.failed, len(failed))
    stats.breached = sum(r["breached"] for r in records)
    if want_records:
        stats.records = records
    return stats


def _check_episode(w, seed, trace, want_records) -> BatchStats:
    stats = BatchStats(1)
    if trace.truth.shape != (w.steps, 5) or not _trace_finite(trace):
        stats.fail_all(f"seed {seed}: trace is not finite or has the wrong length")
        return stats
    m = trace.metrics()
    stats.rmse_est, stats.rmse_meas = m.rmse_position_est, m.rmse_position_meas
    stats.mode_accuracy = m.mode_accuracy
    stats.breached = int(m.breached)
    for problem in _aggregate_problems(stats.rmse_est, stats.rmse_meas, stats.mode_accuracy):
        stats.fail_all(problem)
    if want_records:
        stats.records = [_trace_record(trace)]
    return stats


def check_batch(w: Workload, seed: int, output, out_dir: Path, want_records: bool) -> BatchStats:
    """Checks one batch's outputs; each failing episode counts once."""
    if w.kind == "monte_carlo":
        return _check_monte_carlo(w, seed, output, want_records)
    if w.kind == "episode":
        return _check_episode(w, seed, output, want_records)
    return _check_cli(w, seed, output, out_dir, want_records)


def pooled_quality(prefix: list[BatchStats]) -> dict:
    """Quality over the fixed prefix; every batch has the same size."""
    episodes = sum(s.episodes for s in prefix)
    return {
        "breach_fraction": sum(s.breached for s in prefix) / episodes,
        "rmse_position_est": math.sqrt(np.mean([s.rmse_est**2 for s in prefix])),
        "rmse_position_meas": math.sqrt(np.mean([s.rmse_meas**2 for s in prefix])),
        "mode_accuracy": float(np.mean([s.mode_accuracy for s in prefix])),
    }


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["workloads"][name]


def reference_problems(reference: dict, w: Workload, prefix: list[BatchStats]) -> list[str]:
    """Compares a default-seed prefix with the captured reference."""
    if reference["params"] != w.params():
        return [f"reference was captured for {reference['params']}"]
    records = prefix[0].records or [] if prefix else []
    if len(records) != len(reference["episodes"]):
        return [f"{len(records)} episodes checked, reference holds {len(reference['episodes'])}"]
    problems = compare_quality(reference["quality"], pooled_quality(prefix))
    for ref, got in zip(reference["episodes"], records):
        problems.extend(compare_records(ref, got))
    return problems
