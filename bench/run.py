"""xbarsim benchmark runner.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, one process and one thread):

* ``mc_sweep``       the CLI ``mc`` kind; item = one Monte Carlo run.
* ``nodal_tiles``    IR-drop nodal solves of 16/32/48 tiles; item = one tile.
* ``infer_nonideal`` non-ideal, calibrated 16-8-4 inference; item = one input.

The runner repeats passes of the workload (see ``workloads.py``) until
``--seconds`` have passed, checks every output, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (host time): ``setup_s`` is the
median over separate processes of the time from process start to the first
timed item (imports and input set-up); ``items_per_s`` is one over the mean,
across a pass's item slots, of each slot's fastest time per item
(``fastest_per_slot``);
``peak_rss_mb`` is that of this process. The log lines before the result
give the per-item p50 and p90 latency over every sample, with their counts,
``failed_share``, each failed operation and the machine and toolchain.

``--trace 1`` alternates untraced and traced passes over the same inputs and
reports the per-layer metrics of ``tracer.py`` plus ``trace.overhead_share``.
Both modes print the sha256 of the first pass's canonical simulated outputs,
which is the same at one seed in either mode and on any commit that
simulates identical results.

The package is imported from ``src/`` of the checkout; without it the
runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads. On a shared 2-core host a second
# BLAS thread made nodal solves 30% faster but their run-to-run spread 3x
# wider, and a different thread count changes the last bits of the results.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9  # processes whose set-up time gives the setup_s median
EXIT_NO_SOURCE = 2

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def use_checkout_source() -> None:
    """Import xbarsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "xbarsim" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'xbarsim'}", file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)
    sys.path.insert(0, str(SRC))
    import xbarsim
    if Path(xbarsim.__file__).resolve().parent != SRC / "xbarsim":
        print(f"bench: xbarsim imported from {xbarsim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)


def machine_info() -> dict:
    import numpy as np
    try:  # the version only: importing scipy would add to this process's memory
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version, "blas": blas_name,
            "blas_threads": BLAS_THREADS, "libc": " ".join(platform.libc_ver()),
            "machine": platform.machine()}


def setup_probe(workload: str, seed: int, t_start: float) -> None:
    """Child mode: import and build the workload, print seconds since t_start
    (the parent's clock reading just before it started this process)."""
    use_checkout_source()
    import workloads
    workloads.WORKLOADS[workload](seed)
    print(repr(time.perf_counter() - t_start))


def measure_setup(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(seed), "--setup-probe", repr(t0)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def item_quantiles_ms(latencies_s: list) -> tuple[float, float]:
    """p50 and p90 in ms (statistics.quantiles, exclusive method)."""
    p90 = statistics.quantiles(latencies_s, n=10)[8]
    return statistics.median(latencies_s) * 1e3, p90 * 1e3


def run_untraced(wl, seconds: float) -> list:
    passes, t_end = [], time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        passes.append(wl.run_pass())
    return passes


def fastest_per_slot(passes: list) -> list:
    """Per item slot, the fastest of its samples from items that did not
    fail. Every pass repeats the same item in a slot, so the spread of a
    slot's samples is host noise alone: load from other tenants of a shared
    host comes in phases of seconds to minutes that slow every item by up to
    half, and noise only ever adds time. One sample per slot keeps the
    pass's mix of items."""
    return [min(ok) for samples in zip(*(p.latencies_s for p in passes))
            if (ok := [d for d in samples if d is not None])]


def run_traced(wl, seconds: float):
    """Pairs of (untraced, traced) passes over the same inputs, alternating
    which goes first, until the time is up."""
    from tracer import Tracer
    untraced, traced, tracers = [], [], []
    untraced_s = traced_s = 0.0
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        for traced_turn in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced_turn:
                tracer = Tracer()
                with tracer.installed():
                    traced.append(wl.run_pass())
                tracers.append(tracer)
                traced_s += time.perf_counter() - t0
            else:
                untraced.append(wl.run_pass())
                untraced_s += time.perf_counter() - t0
    return untraced, traced, tracers, untraced_s, traced_s


def result_line(correct: bool, passes: list, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": sum(p.items for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def report_passes(name: str, passes: list) -> bool:
    """Print the pass summary; return whether every output check passed."""
    digest = passes[0].digest()
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    failures = [f for p in passes for f in p.failures]
    print(f"{name}: {len(passes)} passes, {attempted} items, failed_share "
          f"{failed / attempted!r}, output sha256 {digest}")
    for f in failures[:10]:
        print(f"{name}: failed operation: {f}")
    compared = sum(p.compared for p in passes)
    if compared:
        print(f"{name}: bit agreement with IDEAL_MATH "
              f"{sum(p.agree for p in passes) / compared!r} over {compared} output bits")
    for e in errors[:10]:
        print(f"{name}: check failed: {e}")
    return not errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["mc_sweep", "nodal_tiles", "infer_nonideal"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0

    use_checkout_source()
    import workloads
    print("machine " + json.dumps(machine_info(), sort_keys=True))

    if args.trace == 0:
        setup_s = measure_setup(args.workload, args.seed)
        wl = workloads.WORKLOADS[args.workload](args.seed)
        passes = run_untraced(wl, args.seconds)
        ok = report_passes(args.workload, passes)
        latencies = [d for p in passes for d in p.latencies_s if d is not None]
        p50, p90 = item_quantiles_ms(latencies)
        beyond = len(latencies) - math.ceil(0.9 * len(latencies))
        print(f"{args.workload}: item latency p50 {p50!r} ms, p90 {p90!r} ms over "
              f"{len(latencies)} item samples "
              f"({beyond} beyond p90{'' if beyond >= 10 else '; p90 unreliable'})")
        fastest = fastest_per_slot(passes)
        metrics = {
            "setup_s": setup_s,
            "items_per_s": len(fastest) / sum(fastest),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(result_line(ok, passes, metrics, END_TO_END_UNITS))
        return 0

    from tracer import LAYER_UNITS, Tracer, layer_metrics
    setup_tracer = Tracer()
    with setup_tracer.installed():
        wl = workloads.WORKLOADS[args.workload](args.seed)
    untraced, traced, tracers, untraced_s, traced_s = run_traced(wl, args.seconds)
    ok = report_passes(args.workload, traced)
    same = [u.digest() == t.digest() for u, t in zip(untraced, traced)]
    if not all(same):
        print(f"{args.workload}: traced outputs differ from untraced in pass "
              f"{same.index(False)}")
    metrics = layer_metrics(setup_tracer, tracers, untraced_s, traced_s)
    print(f"{args.workload}: {len(traced)} traced passes; crossbar.nodal.unknowns and "
          ".dense_bytes are computed from tile shape and spec (largest system of a pass)")
    print(result_line(ok and all(same), untraced + traced, metrics, LAYER_UNITS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
