"""drivencavity benchmark: sweep throughput end to end, and time per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload grid-2atom --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): steady-1atom, grid-2atom,
escalate-large.  The seed draws every input; the same seed gives the same
inputs.  Each row is checked against reference.json and the closed-form
oracles of the acceptance tests.

--trace 0 runs rounds for --seconds and prints the end-to-end metrics:
  points_per_s  rows attempted per second of wall time
  ok_frac       rows neither failed (nan / raised) nor outside tolerance,
                over rows attempted; failed_frac = 1 - ok_frac
  setup_s       median over five fresh processes of import, input build and
                warm-up (first LAPACK call, first sparse LU and ODE step,
                the fig5 alpha cache)
  cpu_s         process CPU time (user + sys) per row attempted
  peak_rss_mb   the process's own peak resident set size

--trace 1 runs each round twice, untraced and then under tracing.py's span
recorder, checks that both give identical rows, and prints the per-layer
metrics and trace.overhead_frac.  Spans are written to .bench_out/.

BLAS, OpenMP and MKL are pinned to one thread before numpy is imported.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The line before it records the machine.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SIMULATE_MAX_WORKERS", None)   # workers are the workload's

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest rounds, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure set-up only and print it")
    return parser.parse_args(argv)


def _import_program():
    """Import drivencavity from this checkout's src/, or exit."""
    if not (SRC / "drivencavity" / "__init__.py").is_file():
        sys.exit(f"bench: no drivencavity sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import drivencavity
    if Path(drivencavity.__file__).resolve().parent != SRC / "drivencavity":
        sys.exit(f"bench: imported drivencavity from {drivencavity.__file__}")


def _setup(workload_name: str, seed: int, tiny: bool, outdir: Path):
    """Import, first round's inputs, warm-up; returns (workload, rounds)."""
    _import_program()
    import workloads
    workload = workloads.WORKLOADS[workload_name]
    rounds = workloads.rounds(workload, seed, tiny)
    outdir.mkdir(parents=True, exist_ok=True)
    workloads.warm_up()
    return workload, rounds


def _setup_probe(args) -> float:
    """Set-up time of a fresh process, as printed by --setup-probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(done.stdout.split()[-1])


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _within(specs, seconds: float):
    """Yield specs until the next round, at the mean round time so far,
    would end after `seconds`; always at least one."""
    t0 = time.perf_counter()
    for n, spec in enumerate(specs):
        if n and (time.perf_counter() - t0) * (n + 1) / n > seconds:
            return
        yield spec


def _blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        info["blas_threads"] = fn()
    return info


def _machine() -> dict:
    return dict({"cores": os.cpu_count(), "python": platform.python_version(),
                 "thread_env": {v: os.environ[v] for v in THREAD_VARS}},
                **_blas_info())


def _check(workload, rows) -> tuple[int, int, list]:
    """(failed, wrong, messages) over a pass's rows."""
    import workloads
    ref = workloads.load_reference(Path(__file__).resolve().parent
                                   / "reference.json")
    verdicts = workload.check(rows, ref)
    failed = [m for s, m in verdicts if s == workloads.FAILED]
    wrong = [m for s, m in verdicts if s == workloads.WRONG]
    return len(failed), len(wrong), ([f"failed: {m}" for m in failed]
                                     + [f"wrong: {m}" for m in wrong])


def main(argv=None) -> int:
    args = _parse(argv)
    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload, rounds = _setup(args.workload, args.seed, args.tiny, outdir)
    own_setup = time.perf_counter() - T_START
    if args.setup_probe:
        print(f"{own_setup!r}")
        return 0
    import tracing
    import workloads

    ctx = workloads.Context(outdir)
    rows = []
    if args.trace == 0:
        setups = [own_setup] + [_setup_probe(args)
                                for _ in range(SETUP_SAMPLES - 1)]
        t0, cpu0 = time.perf_counter(), _cpu_s()
        for spec in _within(rounds, args.seconds):
            rows += workload.run_round(spec, ctx)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        extra = {"setup_samples_s": setups}
    else:
        # each round runs untraced and then traced, so that drift in the
        # machine's speed cancels out of trace.overhead_frac
        tracer = tracing.Tracer()
        traced_ctx = workloads.Context(outdir, tracer)
        traced_rows, wall, traced_wall = [], 0.0, 0.0
        for i, spec in enumerate(_within(rounds, args.seconds)):
            traced_ctx.round = i
            t0 = time.perf_counter()
            rows += workload.run_round(spec, ctx)
            t1 = time.perf_counter()
            tracer.install()
            try:
                traced_rows += workload.run_round(spec, traced_ctx)
            finally:
                tracer.uninstall()
            wall += t1 - t0
            traced_wall += time.perf_counter() - t1
        tracer.dump(outdir / "spans.jsonl")
        extra = {"identical_rows": repr(traced_rows) == repr(rows),
                 "solve_failures": tracer.failures()}

    n_failed, n_wrong, messages = _check(workload, rows)
    attempted = len(rows)
    correct = n_wrong == 0 and extra.get("identical_rows", True)
    if args.trace == 0:
        metrics = {
            "points_per_s": {"value": attempted / wall, "unit": "1/s"},
            "ok_frac": {"value": (attempted - n_failed - n_wrong) / attempted,
                        "unit": "1"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s": {"value": cpu / attempted, "unit": "s/point"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(attempted, traced_wall / wall - 1)

    machine = _machine()
    record = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, wall_s=wall, attempted=attempted,
                  failed_frac=(n_failed + n_wrong) / attempted,
                  machine=machine, metrics=metrics, problems=messages, **extra)
    (outdir / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                        encoding="utf-8")
    for line in messages[:20]:
        print(line, file=sys.stderr)
    for failure in extra.get("solve_failures", [])[:20]:
        print(f"solve_steady failed at {failure['point']}: "
              f"{failure['error']}: {failure['message']}", file=sys.stderr)
    if not extra.get("identical_rows", True):
        print("traced and untraced rows differ", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {record['failed_frac']:.6g} "
          f"({n_failed + n_wrong} of {attempted} rows)")
    print(json.dumps({"machine": machine}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": n_failed + n_wrong, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
