"""The benchmark's three workloads: seeded inputs, one round of calls, row checks.

A workload is a sequence of rounds. A round is a fixed mix of program calls
whose inputs the seed draws from finite candidate sets. Every round of a
workload therefore costs about the same, and every input it can draw has an
entry in ``reference.json`` (written by ``make_reference.py``).

The program is always reached through its module attributes
(``cli.run_config``, ``spectrum.probe_response_numeric``, ...) and never
through names bound here, so that the tracer, which rebinds those
attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path

import numpy as np

from drivencavity import (cli, dynamics, figures, model, operators,
                          perturbative, spectrum)

# Tolerance of a row against the stored reference table:
# |got - ref| <= ATOL + RTOL * max(|got|, |ref|).  RTOL leaves room for a
# different but contract-abiding steady-state solver; ATOL is the size of
# the solver's residual contract (1e-9 * dim) on the smallest observables.
RTOL = 1e-5
ATOL = 1e-9

# Oracle tolerances, pinned as in tests/test_acceptance.py.
SMALL_KAPPA_RATE_REL = 0.2       # criterion 2
G2_ABS = 0.05                    # criterion 3
PROBE_PEAK_ABS = 0.5             # criterion 4
PERTURBATIVE_TRACE_DIST = 1e-4   # criterion 6

OK, FAILED, WRONG = "ok", "failed", "wrong"


def key(*values) -> str:
    """Reference-table key of an input, robust to last-bit float noise."""
    return ",".join(format(float(v), ".12g") for v in values)


def close(got: float, ref: float | None) -> bool:
    if ref is None or (isinstance(ref, float) and math.isnan(ref)):
        return math.isnan(got)
    if math.isnan(got):
        return False
    return abs(got - ref) <= ATOL + RTOL * max(abs(got), abs(ref))


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class Context:
    """Where a round writes its files, and the tracer (or None) watching it."""

    def __init__(self, outdir: Path, tracer=None):
        self.outdir = outdir
        self.tracer = tracer
        self.round = 0

    def label(self, text: str) -> None:
        """Prefix of the point ids of the calls that follow."""
        if self.tracer is not None:
            self.tracer.label = f"r{self.round}/{text}"

    def point(self, pid: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.point(pid)


class Workload:
    """A seeded sequence of rounds; subclasses define make_round or rounds."""

    def rounds(self, rng, tiny: bool):
        while True:
            yield self.make_round(rng, tiny)


def _run_config(ctx: Context, name: str, config: dict):
    """load_config -> run_config -> writer, as `simulate run` does."""
    path = ctx.outdir / f"{name}.config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    ctx.label(name)
    cfg = cli.load_config(str(path))
    result = cli.run_config(cfg)
    writer = cli.write_json if cfg["output_format"] == "json" else cli.write_csv
    writer(result, cfg["output_path"])
    return [dict(zip(result.columns, row)) for row in result.rows]


def _steady_config(ctx, name, params, sweep=None, fmt="csv") -> dict:
    config = {"mode": "steady", "params": params, "n_workers": 1,
              "output": {"path": str(ctx.outdir / f"{name}.{fmt}"),
                         "format": fmt}}
    if sweep is not None:
        config["sweep"] = sweep
    return config


def _obs(row: dict) -> list:
    return [row["i_at"], row["i_cav"], row["mean_n"], row["g2"]]


def _check_values(got: list, ref: list | None) -> str:
    if ref is None:
        return WRONG
    return OK if all(close(g, r) for g, r in zip(got, ref)) else WRONG


# ------------------------------------------------------------ steady-1atom

PROBE_SYSTEM = dict(positions=(0.0,), g0=10.0, omega=1.0, kappa=1e-3)
PROBE_OMEGA = 0.05
PROBE_N_MAX = 6
PROBE_T_FINAL = 60.0
PROBE_CENTERS = (10.0, -10.0)
PROBE_DEN, PROBE_HALF_WIDTH = 8, 12
PERTURBATIVE_T = 10.0


class Steady1Atom(Workload):
    """One atom: config-runner kappa sweeps on both steady-state solver
    paths, plus the criterion-4 numeric probe and the criterion-6 oracle.

    g0=10 gives a Liouvillian of side 576 (dense SVD); g0=1 gives side 1296
    (sparse LU).  Point counts make the two halves take similar time.

    Each round also takes one numeric probe point and one
    perturbative-vs-evolve comparison, the time-domain (ODE) part, about a
    fifth of a round.  Probe detunings lie on the grid +-g0 + j/8,
    |j| <= 12.  A scan is five points 0.5 apart around a seeded centre
    within 0.5 of +-g0, so its maximum must sit within PROBE_PEAK_ABS of
    +-g0; a scan spans five rounds, and scans alternate between +g0 and -g0.
    """

    name = "steady-1atom"
    # (g0, kappa = j / den for j in 1..n_grid, points per sweep, tiny, format)
    SWEEPS = ((10.0, 100, 50, 4, 2, "csv"), (1.0, 200, 240, 60, 4, "json"))

    def rounds(self, rng, tiny: bool):
        offsets = (-1, 0, 1) if tiny else (-2, -1, 0, 1, 2)
        scan = 0
        while True:
            for center in PROBE_CENTERS:
                j0 = int(rng.integers(-4, 5))
                for i in offsets:
                    spec = self.make_round(rng, tiny)
                    spec["probe"] = {
                        "scan": (scan, center, len(offsets)),
                        "delta_p": center + (j0 + 4 * i) / PROBE_DEN}
                    yield spec
                scan += 1

    def make_round(self, rng, tiny: bool) -> dict:
        sweeps = []
        for g0, den, n_grid, points, tiny_points, fmt in self.SWEEPS:
            pts = tiny_points if tiny else points
            step = min(int(rng.integers(1, 5)), (n_grid - 1) // (pts - 1))
            j0 = int(rng.integers(1, n_grid - step * (pts - 1) + 1))
            sweeps.append({"g0": g0, "start": j0 / den,
                           "stop": (j0 + step * (pts - 1)) / den,
                           "points": pts, "format": fmt})
        return {"sweeps": sweeps}

    def run_round(self, spec: dict, ctx: Context) -> list:
        rows = []
        for sw in spec["sweeps"]:
            name = f"steady-g{sw['g0']:g}"
            params = {"positions": [0.0], "g0": sw["g0"], "omega": 1.0}
            sweep = {"param": "kappa", "start": sw["start"],
                     "stop": sw["stop"], "points": sw["points"]}
            config = _steady_config(ctx, name, params, sweep, sw["format"])
            rows += [("steady", sw["g0"], _obs(r) + [r["kappa"], r["ok"]])
                     for r in _run_config(ctx, name, config)]
        return rows + _time_domain_rows(spec["probe"], ctx)

    def check(self, rows: list, ref: dict) -> list:
        verdicts = []
        for name, g0, values in rows:
            if name != "steady":
                continue
            *obs, kappa, ok = values
            if not ok:
                verdicts.append((FAILED, f"kappa={kappa:g} g0={g0:g}: nan row"))
                continue
            status = _check_values(obs, ref[f"steady_g{g0:g}"].get(key(kappa)))
            if status == OK and g0 == 10.0:
                status = _small_kappa_oracle(kappa, obs)
            verdicts.append((status, f"kappa={kappa:g} g0={g0:g}"))
        return verdicts + _check_time_domain(
            [r for r in rows if r[0] != "steady"], ref)


def _small_kappa_oracle(kappa: float, obs: list) -> str:
    """Criteria 2 and 3: closed-form small-kappa rate and Poissonian g2."""
    params = model.SystemParams(positions=(0.0,), g0=10.0, omega=1.0,
                                kappa=kappa)
    closed = perturbative.small_kappa_rates(params).i_at
    i_at, g2 = obs[0], obs[3]
    ok = abs(i_at - closed) / closed < SMALL_KAPPA_RATE_REL
    ok = ok and abs(g2 - 1.0) < G2_ABS
    return OK if ok else WRONG


def _time_domain_rows(probe_spec: dict, ctx: Context) -> list:
    """One numeric probe point and one perturbative-vs-evolve comparison."""
    params = model.SystemParams(**PROBE_SYSTEM)
    probe = spectrum.ProbeParams(omega_p_tilde=PROBE_OMEGA)
    delta_p = probe_spec["delta_p"]
    ctx.label("probe")
    with ctx.point(f"{delta_p:+g}"):
        try:
            w = spectrum.probe_response_numeric(
                delta_p, params, probe, n_max=PROBE_N_MAX,
                t_final=PROBE_T_FINAL)
        except Exception:   # reported as a failed row
            w = float("nan")
    with ctx.point("perturbative"):
        try:
            dist = _perturbative_vs_evolve(params)
        except Exception:
            dist = float("nan")
    return [("probe", probe_spec["scan"], [delta_p, w]),
            ("perturbative", None, [PERTURBATIVE_T, dist])]


def _check_time_domain(rows: list, ref: dict) -> list:
    """Reference values, criterion 4 on every complete scan, criterion 6."""
    scans: dict[tuple, dict] = {}
    for name, scan, (delta_p, w) in rows:
        if name == "probe":
            scans.setdefault(scan, {})[delta_p] = w
    peak_ok = {}
    for scan, points in scans.items():
        _, center, width = scan
        complete = (len(points) == width
                    and all(math.isfinite(w) for w in points.values()))
        peak = max(points, key=points.get)
        peak_ok[scan] = not complete or abs(peak - center) < PROBE_PEAK_ABS
    verdicts = []
    for name, scan, (x, value) in rows:
        where = f"{name} x={x:g}"
        if math.isnan(value):
            verdicts.append((FAILED, where + ": raised"))
        elif name == "perturbative":
            verdicts.append((OK if value < PERTURBATIVE_TRACE_DIST else WRONG,
                             where))
        else:
            status = _check_values([value], [ref["probe"].get(key(x))])
            verdicts.append((status if peak_ok[scan] else WRONG, where))
    return verdicts


def _perturbative_vs_evolve(params) -> float:
    """Trace distance of the order-2 expansion from exact evolution."""
    ps = perturbative.perturbative_state(params, t=PERTURBATIVE_T, order=2)
    rho_p = ps.assemble(params.kappa)
    space = model.build_space(params, ps.space.n_max)
    l = model.build_liouvillian(params, space)
    ket = operators.coherent_state(space, model.beta_profile(0.0, params),
                                   atoms="g")
    rho_e = dynamics.evolve(operators.DensityMatrix.pure(space, ket), l,
                            PERTURBATIVE_T)
    return operators.trace_distance(rho_p, rho_e)


# -------------------------------------------------------------- grid-2atom

class Grid2Atom(Workload):
    """Preset-runner fig8 and fig6 grids at N=2 (side 2304, sparse LU), 2 workers.

    The fig8 size holds odd and even values: a lambda/2 fold maps only even
    grids onto themselves.  fig6 fills each round up to a fixed row count,
    so that rounds of every fig8 size do nearly the same work.
    """

    name = "grid-2atom"
    WORKERS = 2
    # (fig8 sizes, rows per round) for full and tiny rounds
    SIZES = {False: ((8, 9, 10, 11), 125), True: ((3, 4), 20)}

    def make_round(self, rng, tiny: bool) -> dict:
        sizes, total = self.SIZES[tiny]
        n = int(rng.choice(sizes))
        return {"fig8": n, "fig6": total - n * n}

    def all_sizes(self) -> list[tuple[int, int]]:
        """Every (fig8, fig6) size pair a round can draw."""
        return [(n, total - n * n) for sizes, total in self.SIZES.values()
                for n in sizes]

    def run_round(self, spec: dict, ctx: Context) -> list:
        rows = []
        for name in ("fig8", "fig6"):
            ctx.label(name)
            result = cli.run_figure(name, points=spec[name],
                                    n_workers=self.WORKERS)
            cli.write_csv(result, str(ctx.outdir / f"{name}.csv"))
            rows += [(name, spec[name], list(row)) for row in result.rows]
        return rows

    def check(self, rows: list, ref: dict) -> list:
        ratios = {}
        for name, size, row in rows:
            if name == "fig8":
                ratios[(size, row[0], row[1])] = row[2]
        verdicts = []
        for name, size, row in rows:
            where = f"{name}[{size}] x={row[:-1] if name == 'fig8' else row[0]}"
            if name == "fig8":
                x1, x2, ratio = row
                if x1 == x2:   # diagonal excluded by the preset
                    verdicts.append((OK if math.isnan(ratio) else WRONG, where))
                    continue
                if math.isnan(ratio):
                    verdicts.append((FAILED, where + ": nan row"))
                    continue
                status = _check_values([ratio], [ref["fig8"].get(key(x1, x2))])
                swapped = ratios.get((size, x2, x1))
                if swapped is not None and not close(ratio, swapped):
                    status = WRONG
                verdicts.append((status, where))
            else:
                values = row[1:]
                if any(math.isnan(v) for v in values):
                    verdicts.append((FAILED, where + ": nan row"))
                    continue
                verdicts.append((_check_values(values,
                                               ref["fig6"].get(key(row[0]))),
                                 where))
        return verdicts


# ---------------------------------------------------------- escalate-large

FIG6_PARAMS = {"g0": 10.0, "omega": 1.0, "kappa": 0.2, "delta": 100.0}
FIG7_PARAMS = {"g0": 10.0, "omega": 1.0, "kappa": 0.01, "delta": 0.0}


class EscalateLarge(Workload):
    """Config-runner N=3 points (LU fill) and fig7 N=2 points in the lambda/2 band.

    The fig7 points x2 = k/201 with k in 89..112 lie in [0.44, 0.56]; when
    reference.json was made, their Fock truncation escalated 11 -> 59 and
    still failed, so these rows count as failures.  They are not avoided on
    purpose: lowering that failure count is a goal of the program.
    """

    name = "escalate-large"
    N3_GRID = 6                      # positions k / 6
    FIG7_DEN, FIG7_BAND = 201, range(89, 113)

    def make_round(self, rng, tiny: bool) -> dict:
        """One point of each kind; a round is already as small as it gets."""
        n3 = [int(rng.integers(1, self.N3_GRID)) / self.N3_GRID,
              int(rng.integers(0, self.N3_GRID)) / self.N3_GRID]
        k = int(rng.choice(list(self.FIG7_BAND)))
        return {"n3": n3, "fig7": [k / self.FIG7_DEN]}

    def run_round(self, spec: dict, ctx: Context) -> list:
        rows = []
        for name, params in (("n3", FIG6_PARAMS), ("fig7", FIG7_PARAMS)):
            config = _steady_config(
                ctx, f"escalate-{name}",
                dict(params, positions=[0.0] + spec[name]))
            for r in _run_config(ctx, f"escalate-{name}", config):
                pos = [float(x) for x in r["p_positions"].split(";")]
                rows.append((name, pos, _obs(r) + [r["ok"]]))
        return rows

    def check(self, rows: list, ref: dict) -> list:
        verdicts = []
        for name, pos, (*obs, ok) in rows:
            where = f"{name} positions={pos}"
            if not ok:
                verdicts.append((FAILED, where + ": nan row"))
                continue
            entry = ref[name].get(key(*pos[1:]))
            if isinstance(entry, dict):
                # failed at the reference commit: no values to compare, so
                # require a physical row only
                sane = all(math.isfinite(v) for v in obs[:3]) and min(obs[:3]) >= 0
                verdicts.append((OK if sane else WRONG, where))
            else:
                verdicts.append((_check_values(obs, entry), where))
        return verdicts


WORKLOADS = {w.name: w for w in (Steady1Atom(), Grid2Atom(), EscalateLarge())}


def rounds(workload, seed: int, tiny: bool):
    """Endless, seed-determined sequence of round specs."""
    return workload.rounds(np.random.default_rng(seed), tiny)


def warm_up() -> None:
    """First LAPACK call, first sparse LU and ODE step, and the fig5 cache."""
    params = model.SystemParams(positions=(0.0,), g0=10.0, omega=1.0,
                                kappa=0.1)
    dynamics.solve_steady(params, n_max=2)
    figures._stark_point(0.0)   # three sparse-LU solves; fills its global cache
    space = model.build_space(params, 2)
    dynamics.evolve(dynamics.ground_state(space),
                    model.build_liouvillian(params, space), 0.1)
