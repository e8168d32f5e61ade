"""Run one mova benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fuse-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload
    python3 perfbench/run.py --workload all --smoke --seconds 1     # tiny sizes

Run from the root of a source checkout: the system is imported from ./src.
Human-readable lines ("<workload> <metric> = <value> <unit>") come first; the
last line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics of a separately traced
run. A run in which any output check fails reports no numbers and exits 1.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fuse-stream", "train-oracle", "corpus-build")

# Every matrix is at most 64x64 and the machine is shared: one BLAS thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Named metrics whose traced-minus-untraced difference is the tracing overhead.
OVERHEAD_OF = (
    "fuse_p50_ms", "fuse_p99_ms", "fuse_rps", "train_samples_per_s", "train_fixed_s",
    "corpus_samples_per_s", "annotate_records_per_s", "train_forward_ms",
)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true",
                        help="store the golden requests' digests, after a change meant to "
                             "alter the numbers (use with --workload fuse-stream)")
    return parser.parse_args(argv)


def environment() -> dict:
    """The host and build facts a measurement depends on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "commit": commit,
    }


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    payload = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(payload), flush=True)


def _setup_seconds(args, env) -> tuple[float, float]:
    """Median time from starting a fresh process to the end of its set-up.

    Returns it as measured and at nominal host speed. One probe more than
    counted runs first and is left out: it fills the file cache, which every
    later start finds full.
    """
    from workloads import SpeedGauge

    gauge, samples, starts = SpeedGauge(active=True), [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(1 + _sizes(args).setup_probes):
        started = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            samples.append(perf_counter() - started)
            starts.append(started)
            proc.stdout.read()
        gauge.read()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    nominal = map(gauge.nominal, samples[1:], starts[1:])
    return median(samples[1:]), median(nominal)


def _sizes(args):
    from workloads import FULL, SMOKE

    return SMOKE if args.smoke else FULL


def _print_named(workload: str, named: dict, units: dict, prefix: str = "") -> None:
    for name, value in named.items():
        print(f"{workload} {prefix}{name} = {value:.6g} {units[name]}")


def _run_untraced(args, workload, env) -> int:
    from workloads import UNITS

    setup_s, nominal_setup_s = _setup_seconds(args, env)
    result = workload.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = result.failed == 0 and result.attempted > 0
    if not correct:
        print(f"{workload.name}: {result.failed} of {result.attempted} operations failed",
              file=sys.stderr)
        _emit(False, result.attempted, result.failed, {})
        return 1
    named = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "failed_frac": 0.0, **result.named}
    _print_named(workload.name, named, UNITS)
    if result.k_share:
        print(f"{workload.name} k_share = {json.dumps(result.k_share)}")
    print(f"{workload.name} gauge mean = {1e3 * fmean(result.gauge_s):.6g} ms "
          f"over {len(result.gauge_s)} readings")
    metrics = {
        "setup_s": {"value": nominal_setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "rate_per_s": {"value": result.rate_per_s, "unit": "1/s"},
        "call_s": {"value": result.call_s, "unit": "s"},
    }
    _emit(True, result.attempted, result.failed, metrics)
    return 0


def _run_traced(args, workload) -> int:
    import numpy as np
    from tracer import Tracer, layer_metric_names
    from workloads import UNITS

    untraced = workload.run(None)
    with Tracer(workload.item_span) as tracer:
        traced = workload.run(None)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    if failed or not traced.items:
        print(f"{workload.name}: {failed} of {attempted} operations failed", file=sys.stderr)
        _emit(False, attempted, failed, {})
        return 1
    values = tracer.layer_metrics(traced.items)
    units = dict(layer_metric_names())
    for name in OVERHEAD_OF:
        key = f"trace.overhead.{name}"
        units[key] = UNITS[name]
        values[key] = traced.named[name] - untraced.named[name] if name in traced.named else 0.0
    # Request wall time not covered by the summed self times of its spans.
    units["trace.fuse_unaccounted_ms"] = "ms"
    values["trace.fuse_unaccounted_ms"] = 0.0
    if traced.latencies:
        covered = tracer.item_self_seconds()
        values["trace.fuse_unaccounted_ms"] = 1e3 * float(
            np.mean(np.asarray(traced.latencies) - covered)
        )
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write(traces / f"{workload.name}.npz")
    _print_named(workload.name, untraced.named, UNITS, "untraced ")
    for name, value in values.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    _emit(True, attempted, failed, metrics)
    return 0


def _write_golden(workload) -> int:
    from workloads import GOLDEN_PATH

    digests = getattr(workload, "golden_digests", None)
    if not digests or None in digests.values():
        print("error: the golden requests need --workload fuse-stream, and must all pass "
              "their output checks", file=sys.stderr)
        return 1
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    return 0


def _run_all(args, env) -> int:
    """Every workload in its own process; fails if any of them fails."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode or (0 if lines else 1)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "mova" / "__init__.py").is_file():
        print(f"error: no mova sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, child_env

    env = child_env(ROOT, os.environ)
    if args.workload == "all":
        return _run_all(args, env)
    if not args.setup_probe:
        print("environment " + json.dumps(environment(), sort_keys=True), flush=True)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench"))
    try:
        workload = WORKLOADS[args.workload](args.seed, work, _sizes(args), ROOT, env)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.write_golden:
            return _write_golden(workload)
        if args.trace:
            return _run_traced(args, workload)
        return _run_untraced(args, workload, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
