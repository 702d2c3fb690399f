"""immcda benchmark: run one workload for one seed and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload mc_cda_on --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` makes an untraced and a traced pass over the same batches
and prints the per-layer metrics. The line before the last carries the host
facts, the workload's parameters and what the output check found; the last
line is the JSON result. ``--capture-reference`` rewrites
bench/reference.json from the current code.

The program is imported from ``src/`` next to this directory, in one
single-threaded process: BLAS and OpenMP pools are pinned to one thread
before numpy loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import hostprobe  # noqa: E402
import immcda  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
# No new batch starts after this long, so a run stays bounded even when
# batches fail at once.
HARD_LIMIT_S = 150.0

WRITERS = ("traceio.write_episode_csv", "traceio.write_summary_json")


@dataclass
class Pass:
    """The batches of one pass over a workload, traced or not."""

    stats: list = field(default_factory=list)
    rates: list[float] = field(default_factory=list)  # normalised, episodes/s
    raw_rates: list[float] = field(default_factory=list)  # wall clock, episodes/s
    timed_s: float = 0.0
    prefix_mark: tuple[int, int] | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(s.episodes for s in self.stats)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.stats)


def run_pass(w, base_seed, seconds, tmp: Path, deadline, reference=None, tracer=None,
             records=False) -> Pass:
    """Runs batches until `seconds` of timed calls, and at least the prefix.

    Only the call into the program is timed, and only it is traced; the
    host probe runs just before and just after it, and the output check
    after that. With a reference, the prefix is compared with it and a
    mismatch fails every prefix episode. With records, the first batch
    keeps its per-episode records.
    """
    records = records or reference is not None
    result = Pass()
    traced = tracer.installed if tracer is not None else contextlib.nullcontext
    b = 0
    while b < w.quality_batches or (result.timed_s < seconds and time.monotonic() < deadline):
        seed = w.batch_seed(base_seed, b)
        out_dir = tmp / f"batch-{b}"
        out_dir.mkdir(parents=True)
        output = error = None
        before = hostprobe.probe()
        with traced():
            t0 = time.perf_counter()
            try:
                output = workloads.run_batch(w, seed, out_dir)
            except Exception:
                error = traceback.format_exc(limit=-3)
            wall = time.perf_counter() - t0
        after = hostprobe.probe()
        if error is None:
            try:
                stats = workloads.check_batch(w, seed, output, out_dir, records and b == 0)
            except Exception:
                error = traceback.format_exc(limit=-3)
        if error is not None:
            stats = workloads.BatchStats(w.batch_episodes)
            stats.fail_all(f"batch {b} (seed {seed}) raised: {error}")
        shutil.rmtree(out_dir)
        result.stats.append(stats)
        result.problems.extend(stats.problems)
        result.raw_rates.append(w.batch_episodes / wall)
        result.rates.append(w.batch_episodes / wall * hostprobe.scale(before, after))
        result.timed_s += wall
        b += 1
        if tracer is not None and b == w.quality_batches:
            result.prefix_mark = tracer.mark()

    if reference is not None:
        prefix = result.stats[: w.quality_batches]
        problems = workloads.reference_problems(reference, w, prefix)
        if problems:
            result.problems.extend(problems)
            for s in prefix:
                s.failed = s.episodes
    return result


def measure_setup(name: str) -> tuple[list[float], list[float]]:
    """Normalised and wall-clock set-up times, one per fresh interpreter."""
    normalised, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        setup, *probes = map(float, proc.stdout.split())
        raw.append(setup)
        normalised.append(setup / hostprobe.scale(*probes))
    return normalised, raw


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "probe_nominal_s": hostprobe.NOMINAL_S,
    }


def end_to_end(w, p: Pass, setup: list[float]) -> tuple[dict, dict]:
    quality = workloads.pooled_quality(p.stats[: w.quality_batches])
    rate = statistics.median(p.rates)
    return {
        "setup_s": statistics.median(setup),
        "episodes_per_s": rate,
        "steps_per_s": rate * w.steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_fraction": (p.attempted - p.failed) / p.attempted,
        "rmse_position_est_m": quality["rmse_position_est"],
        "mode_accuracy": quality["mode_accuracy"],
    }, quality


def per_layer(w, untraced: Pass, traced: Pass, summary: dict, names: list[str]) -> tuple[dict, list[str]]:
    """The per-layer metrics named in BENCHMARK.json, and those absent."""
    prefix = traced.stats[: w.quality_batches]
    functions = summary["functions"]
    values = {
        f"{layer}.{key}": v
        for layer, figures in summary["layers"].items()
        for key, v in figures.items()
    }
    values.update((f"{name}.us_per_call", f["us_per_call"]) for name, f in functions.items())
    detects = functions.get("avoidance.detect_conflict", {}).get("prefix_calls", 0)
    escapes = functions.get("avoidance.escape_angle", {}).get("prefix_calls", 0)
    values["avoidance.advisories_per_detect"] = escapes / detects if detects else 0.0
    values["imm.fallback_flags_per_step"] = summary["fallback_flags_per_step"]
    values["traceio.bytes_per_episode"] = (
        sum(s.bytes_written for s in prefix) / sum(s.episodes for s in prefix)
    )
    write_us = sum(functions[n]["us_per_call"] * functions[n]["calls"] for n in WRITERS if n in functions)
    written = sum(s.bytes_written for s in traced.stats)
    values["traceio.write_mb_per_s"] = written / write_us if write_us else 0.0  # B/us == MB/s
    values["trace.overhead"] = 1.0 - statistics.median(traced.rates) / statistics.median(untraced.rates)
    # a function a later change deletes reads as absent, with no calls
    absent = [n for n in names if n not in values and n.endswith(".us_per_call")]
    values.update((n, 0.0) for n in absent)
    return values, absent


def capture_reference() -> None:
    """Writes the default-seed reference of every workload to reference.json."""
    out = {"seed": workloads.DEFAULT_SEED, "rel_tol": workloads.REL_TOL, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as tmp:
        for w in workloads.WORKLOADS.values():
            p = run_pass(w, workloads.DEFAULT_SEED, 0.0, Path(tmp) / w.name, float("inf"),
                         records=True)
            if p.failed:
                raise SystemExit(f"error: {w.name} failed its checks: {p.problems[:5]}")
            prefix = p.stats[: w.quality_batches]
            out["workloads"][w.name] = {
                "params": w.params(),
                "quality": workloads.pooled_quality(prefix),
                "episodes": prefix[0].records,
            }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default="mc_cda_on")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)

    start = time.monotonic()
    if Path(immcda.__file__).resolve().parent != SRC / "immcda":
        raise SystemExit(f"error: imported immcda from {immcda.__file__}, not from {SRC}")
    if args.capture_reference:
        capture_reference()
        return 0
    spec = json.loads(SPEC_PATH.read_text())
    w = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = workloads.load_reference(w.name)

    info: dict = {
        "workload": w.name,
        "seed": args.seed,
        "host": host_facts(),
        "workloads": {name: x.params() for name, x in workloads.WORKLOADS.items()},
    }
    deadline = start + HARD_LIMIT_S
    with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        if not args.trace:
            setup, info["setup_raw_s"] = measure_setup(w.name)
        (tmp / "warmup").mkdir()
        workloads.run_batch(w.warmup(), args.seed, tmp / "warmup")
        if args.trace:
            untraced = run_pass(w, args.seed, args.seconds / 2, tmp / "untraced", deadline,
                                reference)
            tracer = spans.Tracer()
            traced = run_pass(w, args.seed, args.seconds / 2, tmp / "traced", deadline,
                              reference, tracer)
            passes = [untraced, traced]
            summary = tracer.summarize(
                traced.prefix_mark,
                prefix_steps=w.quality_batches * w.batch_episodes * w.steps,
                steps=traced.attempted * w.steps,
            )
            names = [m["name"] for m in spec["per_layer"]]
            values, info["absent"] = per_layer(w, untraced, traced, summary, names)
            info["functions"] = summary["functions"]
            metrics = spec["per_layer"]
        else:
            passes = [run_pass(w, args.seed, args.seconds, tmp / "untraced", deadline, reference)]
            values, info["quality"] = end_to_end(w, passes[0], setup)
            metrics = spec["end_to_end"]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [x for p in passes for x in p.problems]
    info.update(
        batches=[len(p.stats) for p in passes],
        timed_s=[p.timed_s for p in passes],
        raw_rates_median_per_s=[statistics.median(p.raw_rates) for p in passes],
        failed_fraction=failed / attempted,
        reference_checked=reference is not None,
        problems=problems[:20],
    )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
