"""Tests for trace CSV, summary JSON, config parsing, and manifests."""

import csv
import datetime
import hashlib
import json

import numpy as np
import pytest

import immcda
from immcda.scenario import ScenarioConfig, run_episode, run_monte_carlo
from immcda.traceio import (
    CSV_COLUMNS,
    ENV_SEED_VAR,
    RunManifest,
    config_to_dict,
    load_config,
    make_manifest,
    parse_config_text,
    read_episode_csv,
    read_summary_json,
    write_episode_csv,
    write_summary_json,
)

EXPECTED_COLUMNS = (
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


def test_csv_column_set_is_stable():
    assert CSV_COLUMNS == EXPECTED_COLUMNS


def test_episode_csv_round_trip(tmp_path):
    trace = run_episode(ScenarioConfig(seed=7))
    path = tmp_path / "episode.csv"
    write_episode_csv(trace, path)
    data = read_episode_csv(path)
    assert set(data) == set(CSV_COLUMNS)
    # repr-formatted floats survive the round trip bit for bit
    assert np.array_equal(data["k"], np.arange(trace.config.steps))
    assert np.array_equal(data["t"], trace.times)
    assert np.array_equal(data["truth_x1"], trace.truth[:, 0])
    assert np.array_equal(data["truth_vx2"], trace.truth[:, 3])
    assert np.array_equal(data["truth_omega"], trace.truth[:, 4])
    assert np.array_equal(data["true_mode"], trace.true_mode)
    assert np.array_equal(data["z1"], trace.z[:, 0])
    assert np.array_equal(data["z2"], trace.z[:, 1])
    assert np.array_equal(data["est_x1"], trace.est[:, 0])
    assert np.array_equal(data["est_omega"], trace.est[:, 4])
    assert np.array_equal(data["mu1"], trace.mode_probs[:, 0])
    assert np.array_equal(data["mu3"], trace.mode_probs[:, 2])
    assert np.array_equal(data["est_mode"], trace.est_mode)
    assert np.array_equal(data["advisory_theta"], trace.advisory_theta, equal_nan=True)
    assert np.array_equal(data["trigger_j"], trace.trigger_j)
    assert np.array_equal(data["separation"], trace.separation)
    # this seed issues at least one advisory, so both encodings are exercised
    assert np.any(trace.trigger_j > 0) and np.any(trace.trigger_j == 0)


def test_csv_advisory_fields_written_empty(tmp_path):
    trace = run_episode(ScenarioConfig(seed=7))
    path = tmp_path / "episode.csv"
    write_episode_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    theta_col = CSV_COLUMNS.index("advisory_theta")
    trigger_col = CSV_COLUMNS.index("trigger_j")
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert len(cells) == len(CSV_COLUMNS)
        if trace.trigger_j[k] == 0:
            assert cells[theta_col] == "" and cells[trigger_col] == ""
        else:
            assert cells[theta_col] != "" and cells[trigger_col] != ""


# --- pinned output bytes ---

# SHA-256 of episode CSVs as the per-cell csv.writer reference below writes
# them (numpy float64 results on x86-64 Linux). They fix the file format
# and, through it, the simulation's floats bit for bit: a mismatch that
# test_csv_matches_reference_writer does not share means the numbers moved,
# not the format.
PINNED_CSV_SHA256 = [
    (ScenarioConfig(seed=0), "a9ca5fd54000527bc7f8077a13e69f8e65f8323e5364cc43aad4ede7c1de4b6c"),
    (ScenarioConfig(seed=1), "abe4a022ca0913d57a6cb6dc4d78f7cbe7646aab26fff810840186bec0fccec8"),
    (ScenarioConfig(seed=2), "2d35bde2e5463e6426d1aa80ebf953aaaaaaed2195603bd2036daa72fba720bf"),
    (ScenarioConfig(seed=3), "7959113f06041f5785d87179998471789bcd5c876bce1662ec27dc2fe3930956"),
    (ScenarioConfig(seed=4), "f472494b266fb4c6848d811dc0da612873beb7fd8c752388662c5be7421c57b5"),
    (ScenarioConfig(seed=5), "dd3be8be0162e8692b2c78586de650c0e3397855a45efe3dc61455f08a4ba62c"),
    (ScenarioConfig(seed=6), "52a7cb38d8a069d3116a735dae483157bc02e943d725a7ad3a8556d9bf926c7c"),
    (ScenarioConfig(seed=7), "054cdd321814b43e59570ac6f87f9b53deb41a29e97094b2885ff04918f4a674"),
    (ScenarioConfig(seed=8), "a3fbe487071885bd3001d783b97ae1b2a1150e30883d5b59334d598f331b7f15"),
    (ScenarioConfig(seed=9), "78dae1a580e46170bc1ac6e5bf2b9148de33102cd91ac82a72fc5ebecb675b32"),
    (ScenarioConfig(seed=0, cda_enabled=False), "83d898ed5a59ab369654f56465fb7dafec4a1e8c0b35ef69536789e3cedbc79c"),
    (ScenarioConfig(seed=1, cda_enabled=False), "9f449f2781874740c0ddd8433d24d9c854f27e18b1b4dcb23cadc4b3a7554381"),
    (ScenarioConfig(seed=2, cda_enabled=False), "eb24da7c0a80eb9935b88186ca2a721c1eb2eddca59cccb6621519b9129c6b67"),
    (ScenarioConfig(seed=3, cda_enabled=False), "c81666e66e077c3017c1d3889acf65a7fc09232d66e01d98899c6d4427296ae8"),
    (ScenarioConfig(seed=4, cda_enabled=False), "da40a6c8d395769e48d75e89c6f09254f93d1d298d69fb8f033b886ca0069c1e"),
    (ScenarioConfig(seed=7, mode_threshold=0.7), "a520742c176b488024f5cfe23789d832997c0cea2c948a8dd292756730f2fc74"),
    (ScenarioConfig(seed=0, dt=0.1, steps=1000), "d699230894c6d566240ab358da0575740079efb3a9aa94e0e9e700848484d6a0"),
    # an integer dt must still write t as a float
    (ScenarioConfig(dt=1, seed=3), "7959113f06041f5785d87179998471789bcd5c876bce1662ec27dc2fe3930956"),
]
PINNED_SUMMARY_SHA256 = "3ee5804ff78073bbf4c3819ddeb4b6be5519e24eabfa5810cef7df2c3c2d04b3"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("config, digest", PINNED_CSV_SHA256)
def test_episode_csv_bytes_are_pinned(tmp_path, config, digest):
    path = tmp_path / "episode.csv"
    write_episode_csv(run_episode(config), path)
    assert _sha256(path) == digest


def test_summary_json_bytes_are_pinned(tmp_path):
    config = ScenarioConfig(seed=30)
    result = run_monte_carlo(config, 3)
    manifest = RunManifest(
        config=config_to_dict(config),
        tool_version="0",
        seeds=result.seeds,
        outputs=["summary.json"],
        created_at="2024-01-01T00:00:00+00:00",
    )
    path = tmp_path / "summary.json"
    write_summary_json(result, manifest, path)
    assert _sha256(path) == PINNED_SUMMARY_SHA256


def _reference_csv(trace, path):
    """Reference writer: one csv.writer row per step, repr per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for k in range(trace.config.steps):
            advisory = trace.trigger_j[k] > 0
            writer.writerow(
                [k, repr(float(k * trace.config.dt))]
                + [repr(float(x)) for x in trace.truth[k]]
                + [int(trace.true_mode[k])]
                + [repr(float(x)) for x in trace.z[k]]
                + [repr(float(x)) for x in trace.est[k]]
                + [repr(float(x)) for x in trace.mode_probs[k]]
                + [int(trace.est_mode[k])]
                + [repr(float(trace.advisory_theta[k])) if advisory else ""]
                + [int(trace.trigger_j[k]) if advisory else ""]
                + [repr(float(trace.separation[k]))]
            )


@pytest.mark.parametrize(
    "config",
    [
        ScenarioConfig(seed=7),
        ScenarioConfig(seed=2, cda_enabled=False),
        ScenarioConfig(seed=5, dt=0.05, steps=400, mode_threshold=0.6),
    ],
)
def test_csv_matches_reference_writer(tmp_path, config):
    trace = run_episode(config)
    write_episode_csv(trace, tmp_path / "new.csv")
    _reference_csv(trace, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_read_episode_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_episode_csv(path)


@pytest.mark.parametrize("extra, got", [(-1, 21), (1, 23)])
def test_read_episode_csv_rejects_ragged_rows(tmp_path, extra, got):
    trace = run_episode(ScenarioConfig(seed=7))
    path = tmp_path / "episode.csv"
    write_episode_csv(trace, path)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    lines[3] = ",".join(cells[:extra] if extra < 0 else cells + ["0"] * extra)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line 4: expected 22 fields, got {got}"):
        read_episode_csv(path)


def test_integer_dt_writes_float_times(tmp_path):
    trace = run_episode(ScenarioConfig(dt=1, seed=3))
    assert trace.times.dtype == np.float64
    assert config_to_dict(trace.config)["dt"] == 1.0
    assert isinstance(config_to_dict(trace.config)["dt"], float)
    write_episode_csv(trace, tmp_path / "int.csv")
    write_episode_csv(run_episode(ScenarioConfig(dt=1.0, seed=3)), tmp_path / "float.csv")
    assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()

def test_summary_json_round_trip(tmp_path):
    config = ScenarioConfig(seed=30)
    result = run_monte_carlo(config, 3)
    path = tmp_path / "summary.json"
    manifest = make_manifest(config, result.seeds, [str(path)])
    write_summary_json(result, manifest, path)
    data = read_summary_json(path)
    assert data["n_episodes"] == 3
    assert data["breach_fraction"] == result.breach_fraction
    assert data["min_separation"]["mean"] == pytest.approx(
        result.min_separation_mean, rel=1e-12
    )
    assert data["min_separation"]["median"] == pytest.approx(
        result.min_separation_median, rel=1e-12
    )
    assert data["min_separation"]["stddev"] == pytest.approx(
        result.min_separation_stddev, rel=1e-12
    )
    assert data["rmse_position_est"] == pytest.approx(
        result.rmse_position_est, rel=1e-12
    )
    assert data["rmse_position_meas"] == pytest.approx(
        result.rmse_position_meas, rel=1e-12
    )
    assert data["mode_accuracy"] == pytest.approx(result.mode_accuracy, rel=1e-12)
    assert data["manifest"]["config"] == config_to_dict(config)
    assert data["manifest"]["seeds"] == [30, 31, 32]
    # stable formatting: indented, keys sorted
    text = path.read_text()
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_manifest_contents():
    config = ScenarioConfig(seed=2)
    manifest = make_manifest(config, [2, 3], ["a.json", "b.csv"])
    d = manifest.as_dict()
    assert d["tool_version"] == immcda.__version__
    assert d["seeds"] == [2, 3]
    assert d["outputs"] == ["a.json", "b.csv"]
    datetime.datetime.fromisoformat(d["created_at"])
    assert d["config"]["seed"] == 2
    assert d["config"]["pi"] == np.asarray(config.pi).tolist()


def test_config_to_dict_types():
    d = config_to_dict(ScenarioConfig())
    assert d["mode_threshold"] is None
    assert isinstance(d["pi"], list) and len(d["pi"]) == 3
    assert d["avoid_margin"] == 250.0
    assert config_to_dict(ScenarioConfig(mode_threshold=0.9))["mode_threshold"] == 0.9


# --- config text ---

SAMPLE = """
# baseline encounter, tighter zone
dt = 0.5
steps = 45
r_safe = 2500
cda_enabled = false
seed = 17
avoid_margin = 100
mode_threshold = 0.8

pi = [0.8, 0.1, 0.1, 0.19, 0.8, 0.01, 0.19, 0.01, 0.8]
meas_cov = [2500, 0, 0, 2500]
"""


def test_parse_config_text_happy_path():
    values = parse_config_text(SAMPLE)
    assert values["dt"] == 0.5
    assert values["steps"] == 45
    assert values["r_safe"] == 2500.0
    assert values["cda_enabled"] is False
    assert values["seed"] == 17
    assert values["avoid_margin"] == 100.0
    assert values["mode_threshold"] == 0.8
    assert values["pi"].shape == (3, 3)
    assert np.array_equal(values["meas_cov"], np.diag([2500.0, 2500.0]))
    config = ScenarioConfig(**values)
    assert config.steps == 45 and config.cda_enabled is False


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("nope = 1", "line 1"),
        ("dt 0.5", "key = value"),
        ("steps = many", "line 1"),
        ("cda_enabled = maybe", "true or false"),
        ("pi = [1, 2, 3]", "9 row-major entries"),
        ("pi = 0.8, 0.1", "bracketed"),
        ("meas_cov = [a, b, c, d]", "non-numeric"),
        ("\n\ndt = x", "line 3"),
    ],
)
def test_parse_config_text_errors_name_the_line(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_config_text(text)


def test_parse_config_ignores_comments_and_blanks():
    assert parse_config_text("# only a comment\n\n   \n") == {}


# --- layered loading ---


def test_load_config_defaults(monkeypatch):
    monkeypatch.delenv(ENV_SEED_VAR, raising=False)
    config = load_config()
    assert config_to_dict(config) == config_to_dict(ScenarioConfig())


def test_load_config_precedence(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 5\ndt = 0.5\n")
    monkeypatch.delenv(ENV_SEED_VAR, raising=False)

    config = load_config(path)
    assert config.seed == 5 and config.dt == 0.5

    # environment seed beats the file
    monkeypatch.setenv(ENV_SEED_VAR, "9")
    assert load_config(path).seed == 9
    assert load_config(path).dt == 0.5

    # explicit overrides beat everything; None entries pass through
    config = load_config(path, overrides={"seed": 11, "dt": None})
    assert config.seed == 11 and config.dt == 0.5

    # and the environment can be opted out of
    assert load_config(path, use_env=False).seed == 5


def test_load_config_env_only(monkeypatch):
    monkeypatch.setenv(ENV_SEED_VAR, "123")
    assert load_config().seed == 123
    monkeypatch.setenv(ENV_SEED_VAR, "not-a-number")
    with pytest.raises(ValueError, match=ENV_SEED_VAR):
        load_config()


def test_load_config_rejects_unknown_override(monkeypatch):
    monkeypatch.delenv(ENV_SEED_VAR, raising=False)
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(overrides={"warp_factor": 9})


def test_load_config_validates_final_values(monkeypatch):
    monkeypatch.delenv(ENV_SEED_VAR, raising=False)
    with pytest.raises(ValueError):
        load_config(overrides={"dt": 0.0})
