"""Command-line front end: `simulate run|figure|validate`.

Outputs are deterministic: floats are written with 17 significant digits,
column order is fixed, and sweep rows are assembled in grid order no matter
how many workers computed them.  Workers run only master-equation solves,
each distinct system once; the closed forms run in the calling process, so
a spectrum or collective sweep never forks.  Workers are forked processes,
no more than --workers (else a config's n_workers), the distinct systems or
the cores this process may run on (its CPU affinity: `taskset -c 0-3
simulate ...` caps a run at four), each on one BLAS thread.  Each worker
claims the next system itself and sends its result back; a solve that
raises or whose worker dies fails its rows, and the sweep goes on.  Where
the fork start method is unavailable a sweep runs serially.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .collective import PatternSpec, in_phase_field
from .dynamics import (_one_blas_thread, evolve, ground_state, observables,
                       solve_steady)
from .figures import PRESETS, Preset, preset_names
from .model import (RegimeWarning, SystemParams, build_liouvillian,
                    build_space, term_plan)
from .spectrum import (ProbeParams, SpectrumDomainError, excitation_spectrum,
                       probe_stark_shift, transition_amplitude)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_REGIME = 4

NAN = float("nan")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- config ---

_PARAM_KEYS = {"positions", "g0", "omega", "kappa", "delta", "delta_c",
               "theta", "gamma"}
_SWEEP_KEYS = {"param", "start", "stop", "points", "scale"}
_COMMON_KEYS = {"mode", "output", "n_workers"}
# a figure runs its preset; a point mode reads its params, sweeps and the
# entries of _SECTIONS.  Any other key would go unread, so it is an error.
_FIGURE_KEYS = _COMMON_KEYS | {"figure", "points"}
_POINT_KEYS = _COMMON_KEYS | {"params", "sweep", "sweep2"}

# What each point mode reads besides params: its sections, each setting
# with its default (a pattern's n_atoms defaults to the atoms in params),
# and "n_max" for the modes that solve a truncated master equation.  A
# setting's point key and sweep name is its key within its section.
_SECTIONS = {
    "steady": {"n_max": None},
    "evolve": {"n_max": None, "evolve": {"t_final": 10.0}},
    "spectrum": {"probe": {"omega_p": 1e-3, "delta_p": 0.0}},
    "stark": {"n_max": None, "stark": {"x_probe": 0.25, "delta_2": 1000.0}},
    "collective": {"pattern": {"n_atoms": None, "parity": 0}},
}
_MODES = set(_SECTIONS) | {"figure"}

# sweepable scalars, per mode
_SWEEPABLE = {
    "steady": {"kappa", "delta", "delta_c", "omega", "g0", "theta"},
    "evolve": {"kappa", "delta", "delta_c", "omega", "g0", "theta",
               "t_final"},
    # the closed-form spectrum holds at kappa = delta_c = 0 only
    "spectrum": {"delta_p", "delta", "omega", "g0"},
    "stark": {"x_probe", "delta_2", "kappa", "delta", "delta_c", "omega",
              "g0", "theta"},
    "collective": {"n_atoms", "kappa", "delta", "delta_c", "omega", "g0"},
}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _number(value, where: str, kind=float):
    """value, a JSON number, as a finite float, or as an int when kind is
    int.  Anything else is a ConfigError: a string such as "1.0" or "3", a
    bool, or a non-integer such as 2.5 for an int."""
    what = "an integer" if kind is int else "a number"
    if type(value) not in ((int,) if kind is int else (int, float)):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{where} must be {what}, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value if kind is int else number


def _numbers(values, where: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of numbers, got {values!r}")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(values))


def _count_or_none(value, where: str) -> int | None:
    if value is None or (type(value) is int and value >= 1):
        return value
    raise ConfigError(f"{where} must be null or an integer >= 1, got {value!r}")


def _parse_sweep(raw: dict, mode: str, where: str,
                 params: SystemParams) -> dict:
    _require_keys(raw, _SWEEP_KEYS, where)
    for key in ("param", "start", "stop", "points"):
        if key not in raw:
            raise ConfigError(f"{where} is missing '{key}'")
    param = str(raw["param"])
    swp = {
        "param": param,
        "start": _number(raw["start"], f"{where}.start"),
        "stop": _number(raw["stop"], f"{where}.stop"),
        "points": _number(raw["points"], f"{where}.points", int),
        "scale": raw.get("scale", "linear"),
    }
    if param.startswith("position["):
        idx = param[len("position["):-1]
        if mode == "collective":
            raise ConfigError(f"'{param}' is not sweepable in mode "
                              f"'collective': its pattern places the atoms")
        if not (param.endswith("]") and idx.isdigit()
                and int(idx) < params.n_atoms):
            raise ConfigError(f"sweep param '{param}' names none of the "
                              f"{params.n_atoms} atoms")
    elif param not in _SWEEPABLE[mode]:
        raise ConfigError(
            f"'{param}' is not sweepable in mode '{mode}' "
            f"(allowed: {sorted(_SWEEPABLE[mode])}"
            f"{'' if mode == 'collective' else ' and position[i]'})")
    if swp["scale"] not in ("linear", "log"):
        raise ConfigError(f"{where}: scale must be 'linear' or 'log'")
    if swp["points"] < 2:
        raise ConfigError(f"{where}: points must be >= 2 when sweeping")
    if not swp["start"] < swp["stop"]:
        raise ConfigError(f"{where}: start must be < stop")
    if swp["scale"] == "log" and swp["start"] <= 0:
        raise ConfigError(f"{where}: log scale needs start > 0")
    return swp


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")

    mode = raw.get("mode")
    if not isinstance(mode, str) or mode not in _MODES:
        raise ConfigError(f"mode must be one of {sorted(_MODES)}")
    _require_keys(raw, _FIGURE_KEYS if mode == "figure"
                  else _POINT_KEYS | set(_SECTIONS[mode]), f"a {mode} config")

    cfg = {
        "mode": mode,
        "n_workers": _number(raw.get("n_workers", 1), "n_workers", int),
    }
    if cfg["n_workers"] < 1:
        raise ConfigError("n_workers must be >= 1")

    out = raw.get("output", {})
    _require_keys(out, {"path", "format"}, "output")
    path = out.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"output.path must be a string, got {path!r}")
    cfg["output_path"] = path
    cfg["output_format"] = out.get("format", "csv")
    if cfg["output_format"] not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")

    if mode == "figure":
        name = raw.get("figure")
        if name not in preset_names():
            raise ConfigError(
                f"unknown figure '{name}' (known: {preset_names()})")
        cfg["figure"] = name
        cfg["points"] = _count_or_none(raw.get("points"), "points")
        return cfg

    params_raw = raw.get("params")
    if not isinstance(params_raw, dict):
        raise ConfigError("'params' object is required for this mode")
    _require_keys(params_raw, _PARAM_KEYS, "params")
    fields = {"kappa": 0.0}
    for key, value in params_raw.items():
        read = _numbers if key == "positions" else _number
        fields[key] = read(value, f"params.{key}")
    try:
        base = SystemParams(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid params: {exc}") from None
    cfg.update(_settings(raw, mode, base), params=base)
    _check_point(cfg)

    for which in ("sweep", "sweep2"):
        cfg[which] = (_parse_sweep(raw[which], mode, which, base)
                      if raw.get(which) is not None else None)
    if cfg["sweep2"] is not None and cfg["sweep"] is None:
        raise ConfigError("sweep2 requires sweep")
    sweeps = [s for s in (cfg["sweep"], cfg["sweep2"]) if s]
    # one setting swept twice would write one column per sweep, both
    # holding sweep2's value; position[1] and position[01] name one atom
    targets = {int(s["param"][len("position["):-1])
               if s["param"].startswith("position[") else s["param"]
               for s in sweeps}
    if len(targets) < len(sweeps):
        raise ConfigError(f"sweep and sweep2 both sweep "
                          f"'{cfg['sweep2']['param']}'")
    cfg["grid"] = _grid(cfg, [(s["param"], [float(v) for v in _sweep_values(s)])
                              for s in sweeps])
    return cfg


def _settings(raw: dict, mode: str, params: SystemParams) -> dict:
    """The point keys of mode's _SECTIONS entries: raw's values, else their
    defaults."""
    settings = {}
    for name, defaults in _SECTIONS[mode].items():
        if name == "n_max":
            settings["n_max"] = _count_or_none(raw.get("n_max"), "n_max")
            continue
        section = raw.get(name, {})
        _require_keys(section, set(defaults), name)
        for key, default in defaults.items():
            if default is None:  # a pattern's n_atoms
                default = params.n_atoms
            settings[key] = _number(section.get(key, default),
                                    f"{name}.{key}", type(default))
    return settings


def _check_point(point: dict) -> None:
    """The rules every point config obeys, base and swept values alike."""
    mode = point["mode"]
    if mode == "spectrum":
        try:
            transition_amplitude(point["delta_p"], point["params"],
                                 ProbeParams(point["omega_p"]))
        except SpectrumDomainError as exc:
            raise ConfigError(f"mode 'spectrum': {exc}") from None
    if mode == "stark" and point["delta_2"] == 0:
        raise ConfigError("stark.delta_2 must be nonzero")
    if mode == "collective":
        try:
            PatternSpec(point["n_atoms"], point["parity"])
        except ValueError as exc:
            raise ConfigError(f"invalid pattern: {exc}") from None
        if point["params"].g0 == 0:
            raise ConfigError("params.g0 must be nonzero in mode 'collective': "
                              "its closed forms divide by the coupling")
    if mode == "evolve" and point["t_final"] < 0:
        raise ConfigError("evolve.t_final must be >= 0")


def _sweep_values(swp: dict) -> np.ndarray:
    if swp["scale"] == "log":
        return np.geomspace(swp["start"], swp["stop"], swp["points"])
    return np.linspace(swp["start"], swp["stop"], swp["points"])


def _grid(cfg: dict, axes: list) -> list[tuple[dict, dict]]:
    """(assignments, point config) per point of the product of the axes.

    Every point passes the checks the base values pass; a swept value
    that fails one is a ConfigError naming it.
    """
    names = [name for name, _ in axes]
    grid = []
    for values in itertools.product(*(values for _, values in axes)):
        # a pattern holds a whole number of atoms; its row names that number
        assignments = {name: int(round(value)) if name == "n_atoms" else value
                       for name, value in zip(names, values)}
        try:
            point = _apply(cfg, assignments)
            _check_point(point)
        except ValueError as exc:  # includes ConfigError
            raise ConfigError(f"sweep point {assignments}: {exc}") from None
        grid.append((assignments, point))
    return grid


# --------------------------------------------------------------- running ---

def _apply(cfg: dict, assignments: dict) -> dict:
    """New point-config with swept values substituted: a position[i] or a
    params field goes to the params, any other name is a point key."""
    point, fields = dict(cfg), {}
    positions = list(cfg["params"].positions)
    for name, value in assignments.items():
        if name.startswith("position["):
            positions[int(name[len("position["):-1])] = value
        elif name in _PARAM_KEYS:
            fields[name] = value
        else:
            point[name] = value
    point["params"] = replace(cfg["params"], positions=positions, **fields)
    return point


_OBS_COLUMNS = ["i_at", "i_cav", "mean_n", "re_alpha", "im_alpha", "g2",
                "n_max", "residual"]


def _obs_quantities(obs, n_max, residual) -> dict:
    quantities = {
        "i_at": obs.i_at_total, "i_cav": obs.i_cav, "mean_n": obs.mean_n,
        "re_alpha": obs.alpha.real, "im_alpha": obs.alpha.imag,
        "g2": obs.g2_zero if obs.g2_zero is not None else NAN,
        "n_max": n_max, "residual": residual,
        "ratio": obs.i_cav / obs.i_at_total if obs.i_at_total else NAN}
    for n, pi_e in enumerate(obs.pi_e_per_atom, start=1):
        quantities[f"pi_e_{n}"] = pi_e
    return quantities


def _echo(point: dict) -> dict:
    p = point["params"]
    return {"p_g0": p.g0, "p_omega": p.omega, "p_kappa": p.kappa,
            "p_delta": p.delta, "p_delta_c": p.delta_c, "p_theta": p.theta,
            "p_gamma": p.gamma,
            "p_positions": ";".join(_fmt_float(x) for x in p.positions)}


def _solve(system: dict) -> dict:
    """The named quantities of a steady or evolve system."""
    params = system["params"]
    if system["mode"] == "steady":
        sol = solve_steady(params, n_max=system["n_max"])
        obs = observables(sol.rho, params)
        return _obs_quantities(obs, sol.n_max, sol.residual)
    space = build_space(params, system["n_max"])
    l = build_liouvillian(params, space)
    rho = evolve(ground_state(space), l, system["t_final"])
    return _obs_quantities(observables(rho, params), space.n_max, NAN)


def _quantities(point: dict, solved: dict | None) -> dict:
    """The named quantities of one point config in its mode, given solved,
    those of its system: None for a closed form, and raises if it failed."""
    mode = point["mode"]
    params = point["params"]
    if mode == "spectrum":
        probe = ProbeParams(omega_p_tilde=point["omega_p"])
        return {"w": excitation_spectrum(point["delta_p"], params, probe)}
    if mode == "collective":
        field = in_phase_field(PatternSpec(point["n_atoms"], point["parity"]),
                               params)
        return {"re_alpha": field.alpha.real, "im_alpha": field.alpha.imag,
                "mean_n": field.mean_n, "i_cav": field.i_cav,
                "i_at": field.i_at, "pi_e": field.pi_e}
    if solved is None:
        raise RuntimeError("the master-equation solve failed")
    if mode == "stark":
        alpha = complex(solved["re_alpha"], solved["im_alpha"])
        return {"shift": probe_stark_shift(point["x_probe"], point["delta_2"],
                                           params, alpha)}
    return solved


_MODE_COLUMNS = {
    "steady": _OBS_COLUMNS,
    "evolve": _OBS_COLUMNS,
    "spectrum": ["w"],
    "stark": ["shift"],
    "collective": ["re_alpha", "im_alpha", "mean_n", "i_cav", "i_at",
                   "pi_e"],
}


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one (taskset, a cgroup cpuset), else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _none_if_raised(fn, item):
    """fn(item), or None if it raises (a failed item)."""
    try:
        return fn(item)
    except Exception:
        return None


def _claim_and_run(fn, items, counter, send) -> None:
    """A worker's loop: claim the next index under the counter's lock and
    send (index, fn's result or None)."""
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(items):
            return
        send.send((index, _none_if_raised(fn, items[index])))


def _map_ordered(fn, items, n_workers: int) -> list:
    """fn's result for each item, on up to n_workers forked processes; None
    for an item where fn raised or whose process died before reporting it.

    Each process inherits fn and items, so neither is pickled and fn may be
    a closure.  It claims the next index from a shared counter and sends
    back that index with fn's result, so only results cross a pipe and a
    fast process takes more items.  Results are placed by index.  No more
    processes start than items or usable cores, and OpenBLAS shuts its
    threads down before a fork.
    """
    n_procs = min(n_workers, len(items), _usable_cores())
    with _one_blas_thread():
        if (n_procs <= 1
                or "fork" not in multiprocessing.get_all_start_methods()):
            return [_none_if_raised(fn, item) for item in items]
        context = multiprocessing.get_context("fork")
        counter = context.Value("q", 0)
        results, workers, pipes = [None] * len(items), [], []
        try:
            for _ in range(n_procs):
                receive, send = context.Pipe(duplex=False)
                pipes.append(receive)
                worker = context.Process(target=_claim_and_run, daemon=True,
                                         args=(fn, items, counter, send))
                worker.start()
                workers.append(worker)
                # the worker holds the one write end left, so its pipe
                # reads EOF once it has ended, however it ended
                send.close()
            reading = list(pipes)
            while reading:
                for receive in multiprocessing.connection.wait(reading):
                    try:
                        index, result = receive.recv()
                    except EOFError:
                        reading.remove(receive)
                        continue
                    results[index] = result
            for worker in workers:
                worker.join()
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
                worker.join()
            for receive in pipes:
                receive.close()
        return results


@dataclass
class SweepResult:
    """Table produced by a sweep: column names, rows, and run metadata."""

    columns: list[str]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)
    n_failed: int = 0


# to the symmetry fold, positions closer than this are equal, and a pump
# with |cos theta| below it is perpendicular to the cavity axis
_FOLD_TOL = 1e-12


def _system_key(point: dict) -> tuple[tuple, tuple[int, ...]] | None:
    """(key, atoms) of a steady point, or None in any other mode.

    Two steady points get the same key when a map that leaves the steady
    state unchanged takes one system onto the other:
      - relabeling the atoms, as every atom has the one pump amplitude;
      - x -> -x (mod 1) on any one position, when |cos theta| is zero to
        rounding: g(x) is even and the pump phase is then zero everywhere,
        so each position enters only through g(x); the key holds
        min(x, -x mod 1).
    atoms lists the point's atoms in the order of the key's positions, which
    are matched on a grid of _FOLD_TOL.
    """
    if point["mode"] != "steady":
        return None
    params = point["params"]
    positions = params.positions
    if abs(math.cos(params.theta)) < _FOLD_TOL:
        positions = [min(x % 1.0, -x % 1.0) for x in positions]
    cells = [round(x / _FOLD_TOL) for x in positions]
    atoms = sorted(range(len(cells)), key=cells.__getitem__)
    rest = tuple(v for k, v in vars(params).items() if k != "positions")
    return (rest, point["n_max"], tuple(cells[n] for n in atoms)), tuple(atoms)


def _sweep(grid: list, sources: list, n_workers: int | None,
           diagonal: tuple = ()) -> tuple[list[tuple], int]:
    """The one sweep runner: (rows in grid order, number of failed rows).

    Each source names an axis, an echo column, "ok", or a quantity of the
    mode, which may come as (quantity, overrides) to take the point with
    those parameter values.  A point that raises, or whose solve fails,
    keeps its axis and echo values, gets nan quantities and ok=0; a
    RegimeWarning raised as an error propagates.  A point whose `diagonal`
    axes are all equal gets nan quantities without a solve and counts as ok.

    Only master-equation systems are solved, in grid order and by
    _map_ordered: a steady or evolve point, or a stark point's steady state.
    A steady system that equals an earlier one up to a map of _system_key
    takes the earlier solve, with the pi_e columns following the atoms, and
    fails when that solve fails.  The term plans of the first distinct
    spaces, as many as model.term_plan keeps, are built here before the
    fork, so that workers inherit them; a plan that cannot be built here,
    and that of an escalated truncation, is built by the worker that needs
    it.  The rows are then built in this process, spectrum and collective
    ones from their closed forms.
    """
    named = [(src, ()) if isinstance(src, str)
             else (src[0], tuple(src[1].items())) for src in sources]
    systems, first = [], {}
    plans = []  # per row: known values; per override, point, system, renames
    for assignments, point in grid:
        known = dict(assignments, **_echo(point), ok=1)
        on_diagonal = len({assignments[a] for a in diagonal}) == 1
        plan = {}
        for over in () if on_diagonal else dict.fromkeys(
                over for name, over in named if name not in known):
            at = _apply(point, dict(over))
            system = (dict(at, mode="steady") if at["mode"] == "stark"
                      else at if at["mode"] in ("steady", "evolve") else None)
            key = None if system is None else _system_key(system)
            index, renames = None, {}
            if key is not None and key[0] in first:
                index, first_atoms = first[key[0]]
                renames = {f"pi_e_{m + 1}": f"pi_e_{n + 1}"
                           for n, m in zip(key[1], first_atoms) if n != m}
            elif system is not None:
                index = len(systems)
                systems.append(system)
                if key is not None:
                    first[key[0]] = (index, key[1])
            plan[over] = (at, index, renames)
        plans.append((known, plan))

    spaces = dict.fromkeys(build_space(system["params"], system["n_max"])
                           for system in systems)
    for space in itertools.islice(spaces, term_plan.cache_info().maxsize):
        _none_if_raised(term_plan, space)
    solved = _map_ordered(_solve, systems, n_workers or 1)
    rows, failed = [], 0
    for known, plan in plans:
        try:
            values = {over: {renames.get(name, name): v for name, v in
                             _quantities(at, None if index is None
                                         else solved[index]).items()}
                      for over, (at, index, renames) in plan.items()}
        except RegimeWarning:
            raise
        except Exception:  # a failed solve, or a closed form that raised
            values, known["ok"] = {}, 0
            failed += 1
        rows.append(tuple(known[name] if name in known
                          else values.get(over, {}).get(name, NAN)
                          for name, over in named))
    return rows, failed


def run_config(cfg: dict, n_workers: int | None = None) -> SweepResult:
    """Evaluate a parsed config; rows in grid order, failures marked nan."""
    if cfg["mode"] == "figure":
        return run_figure(cfg["figure"], points=cfg["points"],
                          n_workers=n_workers or cfg["n_workers"])
    axes = [s["param"] for s in (cfg["sweep"], cfg["sweep2"]) if s]
    columns = axes + _MODE_COLUMNS[cfg["mode"]] + list(_echo(cfg)) + ["ok"]
    rows, failed = _sweep(cfg["grid"], columns, n_workers or cfg["n_workers"])
    meta = {"mode": cfg["mode"], "grid_size": len(rows)}
    return SweepResult(columns=columns, rows=rows, metadata=meta,
                       n_failed=failed)


def _run_preset(preset: Preset, points: int | None,
                n_workers: int | None, **metadata) -> SweepResult:
    cfg = dict(mode=preset.mode, params=preset.params,
               **_settings({}, preset.mode, preset.params))
    grid = _grid(cfg, [(name, values(points)) for name, values in preset.axes])
    rows, failed = _sweep(grid, list(preset.columns.values()), n_workers,
                          preset.diagonal)
    meta = dict(preset.metadata, **metadata, grid_size=len(grid))
    return SweepResult(columns=list(preset.columns), rows=rows, metadata=meta,
                       n_failed=failed)


def run_figure(name: str, points: int | None = None,
               n_workers: int | None = None) -> SweepResult:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown figure '{name}' (known: {preset_names()})")
    return _run_preset(PRESETS[name], points, n_workers, figure=name)


# --------------------------------------------------------------- writing ---

def _fmt_float(v) -> str:
    return format(float(v), ".17g")


def _fmt_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, int, np.integer)):
        return str(int(v))
    return _fmt_float(v)


def write_csv(result: SweepResult, path: str) -> None:
    lines = [",".join(result.columns)]
    lines += [",".join(_fmt_cell(v) for v in row) for row in result.rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(result: SweepResult, path: str) -> None:
    payload = {
        "columns": result.columns,
        "rows": [[_fmt_cell(v) for v in row] for row in result.rows],
        "metadata": result.metadata,
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n",
        encoding="utf-8")


def _require_output(path: Path) -> None:
    """A ConfigError unless path's directory exists and path is no
    directory; checked before a sweep, so a bad path costs no solves."""
    if not path.parent.is_dir():
        raise ConfigError(f"output directory '{path.parent}' does not exist "
                          "or is not a directory")
    if path.is_dir():
        raise ConfigError(f"output path '{path}' is a directory")


# ------------------------------------------------------------------ main ---

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Driven atoms in a lossy cavity: sweeps and presets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--strict", action="store_true",
                       help="treat regime-validity warnings as fatal")

    p_fig = sub.add_parser("figure", help="run a named preset")
    p_fig.add_argument("name")
    p_fig.add_argument("--out", default=".", help="output directory")
    p_fig.add_argument("--workers", type=int, default=None)
    p_fig.add_argument("--points", type=int, default=None,
                       help="override the preset grid size")
    p_fig.add_argument("--strict", action="store_true")

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    strict = getattr(args, "strict", False)
    try:
        with warnings.catch_warnings():
            if strict:
                warnings.simplefilter("error", RegimeWarning)
            for flag in ("points", "workers"):
                _count_or_none(getattr(args, flag, None), f"--{flag}")
            if args.command == "validate":
                load_config(args.config)
                print(f"{args.config}: ok")
                return EXIT_OK
            if args.command == "run":
                cfg = load_config(args.config)
                path = cfg["output_path"] or "result.csv"
                _require_output(Path(path))
                result = run_config(cfg, n_workers=args.workers)
                json_out = cfg["output_format"] == "json"
                (write_json if json_out else write_csv)(result, path)
            else:
                path = str(Path(args.out) / f"{args.name}.csv")
                _require_output(Path(path))
                result = run_figure(args.name, points=args.points,
                                    n_workers=args.workers)
                write_csv(result, path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeWarning as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except Exception as exc:  # solver-level failure
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    n_rows = len(result.rows)
    if result.n_failed == n_rows and n_rows > 0:
        print("all sweep points failed", file=sys.stderr)
        return EXIT_SOLVER
    print(f"wrote {path} ({n_rows} rows, {result.n_failed} failed)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
