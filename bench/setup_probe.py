"""Prints the seconds this fresh interpreter takes to set a workload up.

Set-up is the cold import of immcda (numpy included), building the
workload's config and one 60-step warm-up episode through the workload's
entry point, so first-call costs land here too. The host probe then runs
in the same process, and two probe times follow on the same line.
run.py starts this script several times and reports the median:

    python3 bench/setup_probe.py mc_cda_on
"""

import sys
import tempfile
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench), str(bench.parent / "src")]
    import workloads

    w = workloads.WORKLOADS[sys.argv[1]].warmup()
    with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=bench.parent) as tmp:
        workloads.run_batch(w, workloads.DEFAULT_SEED, Path(tmp))
    setup = time.perf_counter() - t0
    import hostprobe

    hostprobe.probe()  # its first run in a process is slower
    print(setup, hostprobe.probe(), hostprobe.probe())


if __name__ == "__main__":
    main()
