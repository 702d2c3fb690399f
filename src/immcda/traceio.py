"""Trace serialization, config files, and run manifests.

Episode traces go to CSV with a fixed column set; Monte Carlo summaries
go to JSON with an embedded manifest that echoes the full configuration,
so a run can be reproduced from its outputs alone. Config files are flat
``key = value`` text with matrices written as bracketed row-major lists.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .scenario import EpisodeTrace, MonteCarloResult, ScenarioConfig

CSV_COLUMNS = (
    "k",
    "t",
    "truth_x1",
    "truth_vx1",
    "truth_x2",
    "truth_vx2",
    "truth_omega",
    "true_mode",
    "z1",
    "z2",
    "est_x1",
    "est_vx1",
    "est_x2",
    "est_vx2",
    "est_omega",
    "mu1",
    "mu2",
    "mu3",
    "est_mode",
    "advisory_theta",
    "trigger_j",
    "separation",
)

ENV_SEED_VAR = "IMM_CDA_SEED"

# Config file keys and how to parse them: scalars by type, matrices by shape.
_SCALAR_KEYS = {
    "dt": float,
    "steps": int,
    "v_cruise": float,
    "r_safe": float,
    "spawn_radius": float,
    "cda_enabled": bool,
    "seed": int,
    "lookahead_max": int,
    "avoid_margin": float,
    "mode_threshold": float,
}
_MATRIX_KEYS = {
    "pi": (3, 3),
    "process_cov": (5, 5),
    "meas_cov": (2, 2),
}


@dataclass
class RunManifest:
    """Reproducibility record written alongside run outputs.

    created_at is informational only; everything else is deterministic for
    a given configuration.
    """

    config: dict
    tool_version: str
    seeds: list[int]
    outputs: list[str]
    created_at: str

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "tool_version": self.tool_version,
            "seeds": list(self.seeds),
            "outputs": list(self.outputs),
            "created_at": self.created_at,
        }


def config_to_dict(config: ScenarioConfig) -> dict:
    """ScenarioConfig as plain JSON-ready types (matrices row-major nested)."""
    return {
        "dt": config.dt,
        "steps": config.steps,
        "v_cruise": config.v_cruise,
        "r_safe": config.r_safe,
        "spawn_radius": config.spawn_radius,
        "pi": np.asarray(config.pi).tolist(),
        "process_cov": np.asarray(config.process_cov).tolist(),
        "meas_cov": np.asarray(config.meas_cov).tolist(),
        "cda_enabled": config.cda_enabled,
        "seed": config.seed,
        "lookahead_max": config.lookahead_max,
        "avoid_margin": config.avoid_margin,
        "mode_threshold": config.mode_threshold,
    }


def make_manifest(
    config: ScenarioConfig, seeds: list[int], outputs: list[str]
) -> RunManifest:
    from . import __version__

    return RunManifest(
        config=config_to_dict(config),
        tool_version=__version__,
        seeds=list(seeds),
        outputs=[str(p) for p in outputs],
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


def trace_columns(trace: EpisodeTrace) -> dict[str, np.ndarray]:
    """The trace laid out as the CSV's columns, in file order.

    This is what read_episode_csv returns for a written trace, bit for bit.
    """
    columns = (
        np.arange(trace.config.steps), trace.times, *trace.truth.T, trace.true_mode,
        *trace.z.T, *trace.est.T, *trace.mode_probs.T, trace.est_mode,
        trace.advisory_theta, trace.trigger_j, trace.separation,
    )
    return dict(zip(CSV_COLUMNS, columns, strict=True))


_CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
# %r gives the shortest decimal that reads back to the same float; the
# advisory fields arrive preformatted because they are empty without one
_CSV_ROW = "%d,%r,%r,%r,%r,%r,%r,%d,%r,%r,%r,%r,%r,%r,%r,%r,%r,%r,%d,%s,%s,%r\n"
_INT_COLUMNS = frozenset({"k", "true_mode", "est_mode", "trigger_j"})


def write_episode_csv(trace: EpisodeTrace, path: str | os.PathLike) -> None:
    """One row per step, comma separated, full-precision decimal floats.

    advisory_theta and trigger_j are empty fields on steps without an
    advisory.
    """
    cols = {name: col.tolist() for name, col in trace_columns(trace).items()}
    trigger = cols["trigger_j"]
    cols["advisory_theta"] = [
        repr(theta) if j > 0 else "" for theta, j in zip(cols["advisory_theta"], trigger)
    ]
    cols["trigger_j"] = [j if j > 0 else "" for j in trigger]
    body = "".join(map(_CSV_ROW.__mod__, zip(*cols.values())))
    with open(path, "w", newline="") as fh:
        fh.write(_CSV_HEADER + body)


def read_episode_csv(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Reads a trace CSV back into arrays keyed by column name.

    Empty advisory fields come back as NaN (advisory_theta) and 0
    (trigger_j), matching the in-memory trace encoding. A row without
    exactly one field per column raises ValueError naming its line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        rows = list(reader)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(
                f"line {lineno}: expected {len(CSV_COLUMNS)} fields, got {len(row)}"
            )
    columns = zip(*rows) if rows else [()] * len(CSV_COLUMNS)
    out: dict[str, np.ndarray] = {}
    for name, cells in zip(CSV_COLUMNS, columns):
        if name in _INT_COLUMNS:
            out[name] = np.array([int(c) if c else 0 for c in cells], dtype=int)
        else:
            out[name] = np.array([float(c) if c else math.nan for c in cells])
    return out


def write_summary_json(
    result: MonteCarloResult, manifest: RunManifest, path: str | os.PathLike
) -> None:
    """Aggregate metrics plus the manifest, as stable indented JSON."""
    payload = {
        "manifest": manifest.as_dict(),
        "n_episodes": result.n_episodes,
        "min_separation": {
            "mean": result.min_separation_mean,
            "median": result.min_separation_median,
            "stddev": result.min_separation_stddev,
        },
        "breach_fraction": result.breach_fraction,
        "rmse_position_est": result.rmse_position_est,
        "rmse_position_meas": result.rmse_position_meas,
        "mode_accuracy": result.mode_accuracy,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_summary_json(path: str | os.PathLike) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _parse_scalar(key: str, text: str, lineno: int):
    kind = _SCALAR_KEYS[key]
    if kind is bool:
        low = text.lower()
        if low == "true":
            return True
        if low == "false":
            return False
        raise ValueError(f"line {lineno}: {key} must be true or false, got {text!r}")
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(
            f"line {lineno}: {key} must be {kind.__name__}, got {text!r}"
        ) from exc


def _parse_matrix(key: str, text: str, lineno: int) -> np.ndarray:
    shape = _MATRIX_KEYS[key]
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ValueError(f"line {lineno}: {key} must be a bracketed list")
    body = stripped[1:-1].strip()
    try:
        values = [float(v) for v in body.split(",")] if body else []
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {key} has a non-numeric entry") from exc
    if len(values) != shape[0] * shape[1]:
        raise ValueError(
            f"line {lineno}: {key} needs {shape[0] * shape[1]} row-major entries, "
            f"got {len(values)}"
        )
    return np.array(values).reshape(shape)


def parse_config_text(text: str) -> dict:
    """Parses flat ``key = value`` config text.

    Blank lines and lines starting with # are ignored. Unknown keys are
    rejected with the offending line number.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key in _SCALAR_KEYS:
            values[key] = _parse_scalar(key, rhs, lineno)
        elif key in _MATRIX_KEYS:
            values[key] = _parse_matrix(key, rhs, lineno)
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    return values


def load_config(
    path: str | os.PathLike | None = None,
    overrides: dict | None = None,
    use_env: bool = True,
) -> ScenarioConfig:
    """Builds a ScenarioConfig from defaults, file, environment, and flags.

    Precedence, lowest to highest: built-in defaults, config file, the
    IMM_CDA_SEED environment variable (seed only), explicit overrides.
    Override entries that are None are ignored so CLI flags can pass
    through unset. Invalid values raise ValueError naming the key.
    """
    values: dict = {}
    if path is not None:
        with open(path) as fh:
            values.update(parse_config_text(fh.read()))
    if use_env and ENV_SEED_VAR in os.environ:
        raw = os.environ[ENV_SEED_VAR]
        try:
            values["seed"] = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_SEED_VAR} must be an integer, got {raw!r}") from exc
    if overrides:
        known = set(_SCALAR_KEYS) | set(_MATRIX_KEYS)
        for key, value in overrides.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            if value is not None:
                values[key] = value
    return ScenarioConfig(**values)
