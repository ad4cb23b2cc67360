"""Preset parameter sweeps producing plot-ready tables.

Each preset is a named config: a mode, base parameters, ordered axes whose
values depend on the grid size, and a column map.  The column map sends
each header to an axis or to a quantity of the mode; a quantity may take
parameter overrides, ``("mean_n", {"g0": 10.0})``, which re-solve the point
with those values.  ``cli`` runs presets through the same sweep runner as
config files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import SystemParams

LINEAR_POINTS = 201
LOG_POINTS = 61
GRID_2D_POINTS = 101


@dataclass(frozen=True)
class Preset:
    """A named config.

    axes are (name, values) pairs, values(points) giving the axis grid for
    a requested size (None for the preset's default); rows follow their
    product in order.  Rows whose `diagonal` axes all hold the same value
    are written as nan without a solve.
    """

    mode: str
    params: SystemParams
    axes: tuple[tuple[str, Callable[[int | None], list]], ...]
    columns: dict[str, str | tuple[str, dict]]
    metadata: dict
    diagonal: tuple[str, ...] = ()


def _one_atom(g0, omega, kappa, delta=0.0, delta_c=0.0) -> SystemParams:
    return SystemParams(positions=(0.0,), g0=g0, omega=omega, kappa=kappa,
                        delta=delta, delta_c=delta_c)


def _fixed(*values):
    return lambda points: list(values)


def _linspace(start, stop):
    return lambda points: list(np.linspace(start, stop,
                                           points or LINEAR_POINTS))


def _unit_cell(default=LINEAR_POINTS):
    def values(points):
        n = points or default
        return list(np.arange(n) / n)  # [0, 1) in wavelengths
    return values


def _atom_numbers(n_top):
    def values(points):
        n = np.geomspace(1, n_top, points or LOG_POINTS)
        return [int(v) for v in np.unique(np.rint(n))]
    return values


def _same(*names) -> dict:
    return {name: name for name in names}


_KAPPA = ("kappa", _linspace(0.01, 1.0))
_RESONANCE = (("kappa", _fixed(0.0, 0.01)),
              ("delta_c", _linspace(-0.05, 0.05)))
_FIG6 = dict(g0=10.0, omega=1.0, kappa=0.2, delta=100.0)
_FIG7 = dict(g0=10.0, omega=1.0, kappa=0.01, delta=0.0)
_FIG10 = dict(omega=1e-3, g0=1e-3, kappa=1e-3, delta=0.0)
_FIG11 = dict(omega=10.0, g0=10.0, kappa=10.0, delta=-1000.0)
_TWO_ATOM_COLUMNS = dict(x2="position[1]", **_same("mean_n", "pi_e_1",
                                                   "pi_e_2"))
_SCALING_COLUMNS = dict(n="n_atoms", **_same("i_cav", "i_at"))

PRESETS: dict[str, Preset] = {
    **{name: Preset(
        "steady", _one_atom(g0, 1.0, 0.0), (_KAPPA,),
        _same("kappa", "i_at", "i_cav"),
        {"omega": 1.0, "g0": g0, "delta": 0.0, "delta_c": 0.0})
       for name, g0 in (("fig2a", 1.0), ("fig2b", 10.0))},
    "fig3": Preset(
        "steady", _one_atom(1.0, 1.0, 0.0), (_KAPPA,),
        {"kappa": "kappa",
         "mean_n_g1": ("mean_n", {"g0": 1.0}), "g2_g1": ("g2", {"g0": 1.0}),
         "mean_n_g10": ("mean_n", {"g0": 10.0}),
         "g2_g10": ("g2", {"g0": 10.0})},
        {"omega": 1.0, "g0": [1.0, 10.0]}),
    **{name: Preset(
        "spectrum", _one_atom(1.0, 1.0, 0.0, delta=delta),
        (("delta_p", _linspace(-5.0, 5.0)),), _same("delta_p", "w"),
        {"g0": 1.0, "delta": delta, "kappa": 0.0, "omega_p": 1e-3})
       for name, delta in (("fig4a", 0.0), ("fig4b", -2.0))},
    "fig5": Preset(
        "stark", _one_atom(1.0, 1.0, 0.0), (("x_probe", _unit_cell()),),
        {"x_probe": "x_probe",
         **{f"shift_kappa{k:g}": ("shift", {"kappa": k})
            for k in (0.0, 1.0, 2.0)}},
        {"g0": 1.0, "omega": 1.0, "delta_2": 1000.0,
         "kappa": [0.0, 1.0, 2.0]}),
    **{name: Preset(
        "steady", SystemParams(positions=(0.0, 0.0), **kw),
        (("position[1]", _unit_cell()),), _TWO_ATOM_COLUMNS,
        dict(kw, x1=0.0, delta_c=0.0))
       for name, kw in (("fig6", _FIG6), ("fig7", _FIG7))},
    "fig8": Preset(
        "steady", SystemParams(positions=(0.0, 0.0), **_FIG6),
        (("position[0]", _unit_cell(GRID_2D_POINTS)),
         ("position[1]", _unit_cell(GRID_2D_POINTS))),
        dict(x1="position[0]", x2="position[1]", ratio="ratio"),
        dict(_FIG6, delta_c=0.0, note="diagonal x1=x2 excluded"),
        diagonal=("position[0]", "position[1]")),
    "fig9": Preset(
        "collective", _one_atom(0.1, 0.1, 0.0),
        (("delta", _fixed(0.0, 1.0)),) + _RESONANCE,
        _same("delta", "kappa", "delta_c", "mean_n", "pi_e"),
        {"omega": 0.1, "g0": 0.1, "n_atoms": 1}),
    **{name: Preset(
        "collective", _one_atom(0.1, 0.1, 0.0, delta=d), _RESONANCE,
        _same("kappa", "delta_c", "mean_n", "pi_e"),
        {"omega": 0.1, "g0": 0.1, "delta": d, "n_atoms": 1})
       for name, d in (("fig9a", 0.0), ("fig9b", 1.0))},
    "fig10": Preset(
        "collective", _one_atom(**_FIG10),
        (("n_atoms", _atom_numbers(1e5)),), _SCALING_COLUMNS,
        dict(_FIG10, delta_c=0.0)),
    "fig11": Preset(
        "collective", _one_atom(**_FIG11),
        (("delta_c", _fixed(0.0, -5.0)), ("n_atoms", _atom_numbers(1e4))),
        dict(delta_c="delta_c", **_SCALING_COLUMNS), dict(_FIG11)),
    **{name: Preset(
        "collective", _one_atom(**_FIG11, delta_c=dc),
        (("n_atoms", _atom_numbers(1e4)),), _SCALING_COLUMNS,
        dict(_FIG11, delta_c=dc))
       for name, dc in (("fig11a", 0.0), ("fig11b", -5.0))},
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def _stark_point(x_probe):
    """fig5's row at one probe position (bench/workloads.py warms up on it)."""
    from .cli import _run_preset  # cli imports this module

    fig5 = replace(PRESETS["fig5"], axes=(("x_probe", _fixed(x_probe)),))
    return _run_preset(fig5, None, 1).rows[0]
