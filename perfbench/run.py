#!/usr/bin/env python3
"""Benchmark of the gauge2 command line on seeded, generated inputs.

    python3 perfbench/run.py --workload surface-su2 --seed 1 --seconds 35 --trace 0

Run from a checkout of the repository: the program is imported from its
``src`` directory.  One run makes the workload's configs from ``--seed``,
then repeats whole passes over the workload's operation list, calling
``gauge2.cli.main(argv)`` in this process, for about ``--seconds``
seconds.  Every output is checked (see checks.py).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The first pass of a run is not timed.  ``--trace 0`` reports the
end-to-end metrics, measured with no wrapper installed and scaled to a
nominal host speed (see CALIBRATION_NOMINAL_S).  ``--trace 1`` spends
half the remaining time on untraced passes and the rest on traced passes
(see tracing.py), reports the per-layer metrics and the accuracy guards,
and checks that the traced reports are byte-identical to the untraced
ones.

BLAS and OpenMP pools are pinned to one thread before numpy is imported:
the workloads work on batches of 1x1 to 3x3 matrices, where more threads
add only scheduling noise.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3

import numpy as np  # noqa: E402  (after the thread pinning)

import workloads  # noqa: E402
from checks import Result  # noqa: E402

# Host-speed calibration.  The host's other tenants move this process's
# speed by up to 1.6x, in phases that last from seconds to minutes, so a
# run's raw times tell the host's load as much as the program's cost.
# Before every operation, and around every set-up process, the benchmark
# times a fixed kernel of its own CALIBRATION_REPEATS times (see
# ``calibration_seconds``); the mean of those times measures how fast the
# host ran this process then.  Every time metric is scaled by
# CALIBRATION_NOMINAL_S / that mean: it is reported at the host speed at
# which the kernel takes CALIBRATION_NOMINAL_S, about its time on an
# unloaded core of the 2-vCPU Xeon build host.
CALIBRATION_NOMINAL_S = 0.005
CALIBRATION_REPEATS = 3
_CAL_MATRIX = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_CAL_POINTS = np.linspace(0.0, 1.0, 40_000)


def calibration_seconds() -> float:
    """Time of the calibration kernel: the three kinds of work the
    workloads do, in small measure -- pure-Python tuple and dict work
    (the exact layer), products and SVDs of one 2x2 complex matrix (lifts
    and projection), and elementwise numpy on a 40,000-point array
    (field evaluation).  It calls nothing of gauge2, so a change to the
    program does not change it."""
    t0 = time.perf_counter()
    table = {}
    for i in range(3000):
        table[(i % 37, i % 11)] = table.get((i % 11, i % 37), 0) + i
    for _ in range(150):
        np.linalg.svd(_CAL_MATRIX @ _CAL_MATRIX)
    x = _CAL_POINTS
    for i in range(6):
        float(np.sum(np.sin(x * i) * x + x * x))
    return time.perf_counter() - t0


@dataclass
class Pass:
    """One pass over a workload's operation list."""

    wall: float
    latencies: list
    calibration: list           # kernel times before each operation
    attempted: int
    failed: int
    unexpected: list            # problems of operations not known to fail
    files: dict                 # report path -> bytes
    results: dict               # operation name -> checks.Result
    guards: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-child", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def set_up(name: str, seed: int, config_dir: Path):
    """Import gauge2, write the workload's configs, load and validate
    each one.  This is what ``setup_s`` measures."""
    import gauge2.cli
    from gauge2.config import load_config

    if Path(gauge2.cli.__file__).resolve().parent != (SRC / "gauge2").resolve():
        raise RuntimeError(f"gauge2 was imported from {gauge2.cli.__file__}")
    workload = workloads.build(name, seed)
    shutil.rmtree(config_dir, ignore_errors=True)
    config_dir.mkdir(parents=True)
    for file_name, raw in workload.configs.items():
        path = config_dir / file_name
        path.write_text(json.dumps(raw, indent=2) + "\n")
        load_config(path)
    return gauge2.cli, workload


def calibrate() -> list:
    return [calibration_seconds() for _ in range(CALIBRATION_REPEATS)]


def time_setup(args, work: Path) -> float:
    """Median wall time of fresh processes that only set up, each scaled
    by the calibration kernel timed just before and after it."""
    times = []
    for k in range(SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", "1", "--trace", "0", "--setup-child", str(k)]
        calibration = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr}")
        calibration += calibrate()
        times.append(wall * CALIBRATION_NOMINAL_S
                     / statistics.fmean(calibration))
    return statistics.median(times)


def run_pass(cli, workload, config_dir: Path, out_root: Path,
             index: int, previous: Pass | None) -> Pass:
    """Run every operation once, then check the outputs."""
    out_dirs = []
    for op in workload.ops:
        out = out_root / op.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        out_dirs.append(out)

    raw = []
    calibration = []
    start = time.perf_counter()
    for op, out in zip(workload.ops, out_dirs):
        argv = op.argv + ["--config", str(config_dir / op.config_for(index)),
                          "--out", str(out), "--quiet"]
        stdout, stderr = io.StringIO(), io.StringIO()
        calibration += calibrate()
        gc.collect()     # garbage of earlier operations is not this one's
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:   # a crash is a failed operation, not a lost run
            code = None
            stderr.write(traceback.format_exc())
        raw.append((code, stderr.getvalue(), time.perf_counter() - t0))
    wall = time.perf_counter() - start

    results = {}
    failed = 0
    unexpected = []
    guards = {}
    files = {}
    for op, out, (code, err, seconds) in zip(workload.ops, out_dirs, raw):
        report_path = out / f"{op.command}.json"
        report = (json.loads(report_path.read_text())
                  if report_path.is_file() else None)
        result = Result(code, err, out, report, seconds,
                        previous.results[op.name] if previous else None)
        results[op.name] = result
        problems = []
        if code != op.expect_exit:
            problems.append(f"exit {code}, expected {op.expect_exit}: "
                            f"{err.strip()[-300:]}")
        try:
            problems += op.check(result)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"malformed output: {exc!r}")
        if problems:
            failed += 1
            label = "known fault" if op.known_fault else "FAIL"
            print(f"{label} {workload.name}/{op.name}: {'; '.join(problems)}")
            if not op.known_fault:
                unexpected.append(f"{op.name}: {problems}")
        for name, value in result.guards.items():
            worse = min if name == "transport.stokes_order" else max
            guards[name] = value if name not in guards \
                else worse(guards[name], value)
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(out_root))] = path.read_bytes()
    return Pass(wall, [r[2] for r in raw], calibration, len(workload.ops),
                failed, unexpected, files, results, guards)


def run_passes(cli, workload, config_dir, out_root, budget, min_passes,
               tracer=None):
    """Whole passes until the next one would overrun ``budget`` seconds,
    and at least ``min_passes``."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        p = run_pass(cli, workload, config_dir, out_root, len(passes),
                     passes[-1] if passes else None)
        if tracer is not None:
            p.layers = tracer.layer_metrics()
        passes.append(p)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + p.wall > budget:
            return passes


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def host_scale(passes) -> float:
    """Factor that takes times measured in ``passes`` to the nominal
    host speed (see CALIBRATION_NOMINAL_S)."""
    return CALIBRATION_NOMINAL_S / statistics.fmean(
        t for p in passes for t in p.calibration)


def end_to_end(args, cli, workload, config_dir, work, setup_s):
    # The first pass fills the program's caches and is not timed.  Two
    # timed passes at least follow, so inputs that alternate between
    # passes are compared.
    passes = run_passes(cli, workload, config_dir, work / "out",
                        args.seconds, min_passes=3)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timed = passes[1:]
    scale = host_scale(timed)
    # Means over every timed run, scaled to the nominal host speed.  Of
    # the estimators tried on long series of passes (fastest, median and
    # mean, raw and scaled), the scaled mean varied least between runs.
    samples = {}
    for p in timed:
        for op, seconds in zip(workload.ops, p.latencies):
            samples.setdefault(op.group, []).append(seconds * scale)
    mean = {group: statistics.fmean(v) for group, v in samples.items()}
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.fmean(sum(p.latencies) for p in timed) * scale,
                  "s"),
        "op_p50_s": (statistics.median(mean.values()), "s"),
        "op_max_s": (max(mean.values()), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return passes, metrics, []


def per_layer(args, cli, workload, config_dir, work):
    from tracing import GUARD_METRICS, LAYER_METRICS, Tracer

    # an untimed first pass fills the program's caches, as in end_to_end
    warm = run_passes(cli, workload, config_dir, work / "warm", 0.0,
                      min_passes=1)
    budget = max(args.seconds - warm[0].wall, 0.0)
    plain = run_passes(cli, workload, config_dir, work / "plain",
                       budget / 2.0, min_passes=1)
    spent = sum(p.wall for p in plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(cli, workload, config_dir, work / "traced",
                            max(budget - spent, 0.0), min_passes=1,
                            tracer=tracer)
    finally:
        tracer.uninstall()

    problems = []
    for p, reference in zip(traced, plain):    # same index, same inputs
        differ = sorted(k for k in reference.files.keys() | p.files.keys()
                        if reference.files.get(k) != p.files.get(k))
        if differ:
            problems.append(f"traced reports differ from untraced: {differ}")

    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = (median_of(traced, lambda p: p.wall) * host_scale(traced)
                     - median_of(plain, lambda p: p.wall) * host_scale(plain))
        else:
            value = median_of(traced, lambda p: p.layers[name])
        metrics[name] = (value, unit)
    # how slow the host ran the untraced passes (see host_scale)
    metrics["host.calibration_s"] = (
        statistics.fmean(t for p in plain for t in p.calibration), "s")
    for name, unit in GUARD_METRICS:
        metrics[name] = (plain[-1].guards.get(name, 0.0), unit)
    return warm + plain + traced, metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gauge2" / "__init__.py").is_file():
        print(f"error: no gauge2 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / args.workload
    if args.setup_child is not None:
        set_up(args.workload, args.seed, work / f"setup-{args.setup_child}")
        return 0

    shutil.rmtree(work, ignore_errors=True)
    setup_s = None if args.trace else time_setup(args, work)
    config_dir = work / "configs"
    cli, workload = set_up(args.workload, args.seed, config_dir)
    if args.trace:
        passes, metrics, problems = per_layer(args, cli, workload,
                                              config_dir, work)
    else:
        passes, metrics, problems = end_to_end(args, cli, workload,
                                               config_dir, work, setup_s)

    for i, p in enumerate(passes):
        problems += p.unexpected
        ops = " ".join(f"{op.name}={t:.3f}"
                       for op, t in zip(workload.ops, p.latencies))
        print(f"pass {i}: {p.wall:.3f} s: {ops}")
        print(f"pass {i} guards: " + " ".join(
            f"{name}={value:.3e}" for name, value in sorted(p.guards.items())))
    for problem in problems:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
