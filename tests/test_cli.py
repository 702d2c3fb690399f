"""End-to-end tests of the command line, run in process."""

import numpy as np
import pytest

from immcda.cli import cli_main
from immcda.traceio import ENV_SEED_VAR, read_episode_csv, read_summary_json


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_SEED_VAR, raising=False)


def test_run_writes_episode_csv(tmp_path, capsys):
    rc = cli_main(["run", "--seed", "3", "--out-dir", str(tmp_path)])
    assert rc == 0
    out_path = tmp_path / "episode_3.csv"
    assert out_path.exists()
    captured = capsys.readouterr()
    assert "seed=3" in captured.out
    assert "min_separation=" in captured.out
    assert str(out_path) in captured.out
    data = read_episode_csv(out_path)
    assert data["k"].size == 60  # default episode length


def test_run_reports_bad_option_on_stderr(tmp_path, capsys):
    rc = cli_main(["run", "--dt", "0", "--out-dir", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "dt" in captured.err
    assert not any(tmp_path.iterdir())


def test_monte_carlo_reports_non_finite_dt(tmp_path, capsys):
    rc = cli_main(["monte-carlo", "--dt", "nan", "--out-dir", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "dt must be finite" in captured.err
    assert "Traceback" not in captured.err
    assert not any(tmp_path.iterdir())


def test_run_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("steps = 10\nseed = 2\n")
    rc = cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    data = read_episode_csv(tmp_path / "episode_2.csv")
    assert data["k"].size == 10


def test_seed_precedence_env_and_flag(tmp_path, monkeypatch):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("seed = 5\nsteps = 12\n")
    monkeypatch.setenv(ENV_SEED_VAR, "7")
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "episode_7.csv").exists()  # env beats file
    assert (
        cli_main(
            ["run", "--config", str(cfg), "--seed", "11", "--out-dir", str(tmp_path)]
        )
        == 0
    )
    assert (tmp_path / "episode_11.csv").exists()  # flag beats env


def test_monte_carlo_writes_summary(tmp_path, capsys):
    rc = cli_main(
        ["monte-carlo", "--episodes", "3", "--seed", "40", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    data = read_summary_json(tmp_path / "summary.json")
    assert data["n_episodes"] == 3
    assert data["manifest"]["seeds"] == [40, 41, 42]
    assert data["manifest"]["outputs"] == [str(tmp_path / "summary.json")]
    assert not list(tmp_path.glob("episode_*.csv"))
    captured = capsys.readouterr()
    assert "episodes=3" in captured.out
    assert "breach_fraction=" in captured.out


def test_monte_carlo_emit_traces(tmp_path):
    rc = cli_main(
        [
            "monte-carlo",
            "--episodes",
            "3",
            "--seed",
            "40",
            "--emit-traces",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    csvs = sorted(tmp_path.glob("episode_*.csv"))
    assert [p.name for p in csvs] == ["episode_40.csv", "episode_41.csv", "episode_42.csv"]
    data = read_summary_json(tmp_path / "summary.json")
    assert len(data["manifest"]["outputs"]) == 4


def test_monte_carlo_rejects_zero_episodes(tmp_path, capsys):
    rc = cli_main(["monte-carlo", "--episodes", "0", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "episodes" in capsys.readouterr().err


def test_disable_cda_flag_flows_into_manifest(tmp_path):
    base = ["monte-carlo", "--episodes", "2", "--out-dir"]
    assert cli_main(base + [str(tmp_path / "on")]) == 0
    assert cli_main(base[:-1] + ["--disable-cda", "--out-dir", str(tmp_path / "off")]) == 0
    on = read_summary_json(tmp_path / "on" / "summary.json")
    off = read_summary_json(tmp_path / "off" / "summary.json")
    assert on["manifest"]["config"]["cda_enabled"] is True
    assert off["manifest"]["config"]["cda_enabled"] is False
    # with avoidance off the same seeds end up closer to the origin
    assert off["min_separation"]["mean"] < on["min_separation"]["mean"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--version"])
    assert exc.value.code == 0
    assert "immcda" in capsys.readouterr().out


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([])
    assert exc.value.code == 2


def test_check_subcommand_passes(capsys):
    rc = cli_main(["check"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = [ln for ln in captured.out.splitlines() if ln]
    assert lines and all(ln.startswith("PASS") for ln in lines)


def test_check_subcommand_rejects_simulation_options(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["check", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert cli_main(["check"]) == 0


def test_trace_determinism_across_interfaces(tmp_path):
    """The CLI writes exactly what the library computes."""
    from immcda.scenario import ScenarioConfig, run_episode

    assert cli_main(["run", "--seed", "13", "--out-dir", str(tmp_path)]) == 0
    data = read_episode_csv(tmp_path / "episode_13.csv")
    trace = run_episode(ScenarioConfig(seed=13))
    assert np.array_equal(data["truth_x1"], trace.truth[:, 0])
    assert np.array_equal(data["est_x2"], trace.est[:, 2])
    assert np.array_equal(data["separation"], trace.separation)
