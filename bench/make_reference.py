"""Write bench/reference.json: the program's answers for every benchmark input.

Run from the root of a checkout, on the commit whose answers are the
reference (about two minutes on two cores):

    python3 bench/make_reference.py

Inputs that fail are stored as {"error": class, "message": text}; the
benchmark counts such rows as failures and checks only that a later
success is physical.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import drivencavity  # noqa: E402
from drivencavity import cli, dynamics, spectrum  # noqa: E402
from drivencavity.model import SystemParams  # noqa: E402

import workloads as w  # noqa: E402

WORKERS = 2


def _clean(x):
    return None if x is None or math.isnan(x) else float(x)


def _steady(params: SystemParams):
    try:
        sol = dynamics.solve_steady(params)
    except Exception as exc:   # stored as the reference outcome
        return {"error": type(exc).__name__, "message": str(exc)}
    obs = dynamics.observables(sol.rho, params)
    g2 = obs.g2_zero if obs.g2_zero is not None else None
    return [obs.i_at_total, obs.i_cav, obs.mean_n, _clean(g2)]


def _table(fn, items) -> dict:
    with concurrent.futures.ThreadPoolExecutor(max_workers=WORKERS) as ex:
        results = list(ex.map(lambda kv: fn(kv[1]), items))
    return {k: r for (k, _), r in zip(items, results)}


def _single(g0, kappa):
    return SystemParams(positions=(0.0,), g0=g0, omega=1.0, kappa=kappa)


def main() -> int:
    ref = {"program": f"drivencavity {drivencavity.__version__}",
           "tolerance": {"rtol": w.RTOL, "atol": w.ATOL}}
    for g0, den, n_grid, *_ in w.Steady1Atom.SWEEPS:
        items = [(w.key(j / den), _single(g0, j / den))
                 for j in range(1, n_grid + 1)]
        ref[f"steady_g{g0:g}"] = _table(_steady, items)

    g = w.WORKLOADS["grid-2atom"]
    ref["fig8"] = {}
    for n, _ in g.all_sizes():
        for x1, x2, ratio in cli.run_figure("fig8", points=n,
                                            n_workers=WORKERS).rows:
            if x1 != x2:
                ref["fig8"][w.key(x1, x2)] = _clean(ratio)
    ref["fig6"] = {}
    for _, m in g.all_sizes():
        for x2, *values in cli.run_figure("fig6", points=m,
                                          n_workers=WORKERS).rows:
            ref["fig6"][w.key(x2)] = [_clean(v) for v in values]

    e = w.EscalateLarge
    grid = [k / e.N3_GRID for k in range(e.N3_GRID)]
    ref["n3"] = _table(_steady, [
        (w.key(xa, x), SystemParams(positions=(0.0, xa, x), **w.FIG6_PARAMS))
        for xa in grid[1:] for x in grid])
    ref["fig7"] = _table(_steady, [
        (w.key(k / e.FIG7_DEN),
         SystemParams(positions=(0.0, k / e.FIG7_DEN), **w.FIG7_PARAMS))
        for k in e.FIG7_BAND])

    params = SystemParams(**w.PROBE_SYSTEM)
    probe = spectrum.ProbeParams(omega_p_tilde=w.PROBE_OMEGA)
    deltas = [c + j / w.PROBE_DEN for c in w.PROBE_CENTERS
              for j in range(-w.PROBE_HALF_WIDTH, w.PROBE_HALF_WIDTH + 1)]
    ref["probe"] = _table(
        lambda d: spectrum.probe_response_numeric(
            d, params, probe, n_max=w.PROBE_N_MAX, t_final=w.PROBE_T_FINAL),
        [(w.key(d), d) for d in deltas])

    (HERE / "reference.json").write_text(
        json.dumps(ref, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
