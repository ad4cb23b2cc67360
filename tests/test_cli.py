import functools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drivencavity import cli, dynamics, model
from drivencavity.collective import PatternSpec, in_phase_alpha
from drivencavity.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REGIME,
    EXIT_SOLVER,
    ConfigError,
    load_config,
    main,
    run_config,
    run_figure,
    write_csv,
)
from drivencavity.figures import PRESETS, preset_names
from drivencavity.model import build_liouvillian, build_space
from drivencavity.spectrum import (ProbeParams, excitation_spectrum,
                                   probe_stark_shift)


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


BASE_PARAMS = {"positions": [0.0], "g0": 10.0, "omega": 1.0, "kappa": 0.1}


def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "mode": "steady", "params": BASE_PARAMS,
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}})
    assert main(["validate", cfg]) == EXIT_OK


def test_unknown_top_level_key_rejected(tmp_path):
    for extra in ({"bogus": 1}, {"seed": 0}):
        cfg = _write_cfg(tmp_path, dict(
            {"mode": "steady", "params": BASE_PARAMS}, **extra))
        assert main(["validate", cfg]) == EXIT_CONFIG


def test_unknown_param_key_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "mode": "steady", "params": dict(BASE_PARAMS, gee=2.0)})
    assert main(["validate", cfg]) == EXIT_CONFIG


def test_missing_config_file_is_config_error():
    assert main(["validate", "/nonexistent/cfg.json"]) == EXIT_CONFIG


def test_config_file_that_is_no_json_object_is_config_error(tmp_path):
    not_json = tmp_path / "not.json"
    not_json.write_text("{'mode': 'steady'", encoding="utf-8")
    assert main(["validate", str(not_json)]) == EXIT_CONFIG
    listed = _write_cfg(tmp_path, [{"mode": "steady", "params": BASE_PARAMS}])
    assert main(["validate", listed]) == EXIT_CONFIG


@pytest.mark.parametrize("sweep", [
    {"param": "kappa", "start": 1.0, "stop": 0.1, "points": 5},
    {"param": "kappa", "start": 0.1, "stop": 1.0, "points": 1},
    {"param": "nonsense", "start": 0.1, "stop": 1.0, "points": 3},
    {"param": "kappa", "start": 0.0, "stop": 1.0, "points": 3,
     "scale": "log"},
    {"param": "kappa", "start": 0.1, "points": 3},
    {"param": "kappa", "start": 0.1, "stop": 1.0, "points": 3,
     "scale": "cubic"},
])
def test_sweep_validation(tmp_path, sweep):
    cfg_path = _write_cfg(tmp_path, {
        "mode": "steady", "params": BASE_PARAMS, "sweep": sweep,
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}})
    with pytest.raises(ConfigError):
        load_config(cfg_path)


@pytest.mark.parametrize("overrides", [
    {"sweep": {"param": "kappa", "start": "abc", "stop": 1.0, "points": 3}},
    {"n_workers": "two"},
    {"n_max": "x"},
    {"n_max": -3},
    {"params": dict(BASE_PARAMS, omega=float("nan"))},
    {"params": dict(BASE_PARAMS, kappa=float("inf"))},
    {"n_max": 2.5},
    {"mode": ["steady"]},
    {"output": 5},
    {"sweep": {"param": "position[1]", "start": 0.0, "stop": 0.5,
               "points": 3}},
    # swept values obey the rules of base values
    {"sweep": {"param": "kappa", "start": -0.2, "stop": 0.2, "points": 5}},
    {"mode": "collective",
     "sweep": {"param": "n_atoms", "start": 0.1, "stop": 10.0, "points": 5}},
    {"mode": "stark",
     "sweep": {"param": "delta_2", "start": -1.0, "stop": 1.0, "points": 3}},
    {"mode": "evolve",
     "sweep": {"param": "t_final", "start": -1.0, "stop": 1.0, "points": 3}},
    # an integer field takes only an integer; no field takes a bool
    {"sweep": {"param": "kappa", "start": 0.1, "stop": 1.0, "points": 2.5}},
    {"sweep": {"param": "kappa", "start": 0.1, "stop": 1.0, "points": "3"}},
    {"mode": "collective", "pattern": {"parity": 0.9}},
    {"mode": "collective", "pattern": {"n_atoms": 2.5}},
    {"n_workers": 2.7},
    {"n_workers": True},
    {"params": dict(BASE_PARAMS, g0=True)},
    {"params": dict(BASE_PARAMS, positions=[0.0, float("nan")])},
    {"params": dict(BASE_PARAMS, positions=[0.0, 0.5],
                    omega_n=[1.0, float("inf")])},
    # a figure config carries no keys its preset would ignore
    {"mode": "figure", "figure": "fig2a"},
    # and no other mode reads a figure's keys
    {"points": 5},
    {"figure": "fig2a"},
    # nor a section or n_max that its own mode does not read
    {"probe": {"omega_p": 0.5}},
    {"stark": {"x_probe": 0.1}},
    {"pattern": {"n_atoms": 3}},
    {"evolve": {"t_final": 2.0}},
    {"mode": "collective", "n_max": 3},
    {"mode": "collective", "n_max": 3, "evolve": {"t_final": 2.0}},
    {"mode": "spectrum", "n_max": 3},
    # the closed-form spectrum is defined at kappa = delta_c = 0 only
    {"mode": "spectrum", "params": dict(BASE_PARAMS, kappa=0.0),
     "sweep": {"param": "kappa", "start": 0.01, "stop": 0.1, "points": 3}},
    {"mode": "spectrum", "params": dict(BASE_PARAMS, kappa=0.0),
     "sweep": {"param": "delta_c", "start": 0.5, "stop": 1.5, "points": 3}},
    # and for one atom off a node of the mode function, base values too
    {"mode": "spectrum", "params": dict(BASE_PARAMS, kappa=0.1)},
    {"mode": "spectrum", "params": dict(BASE_PARAMS, kappa=0.0, delta_c=0.5)},
    {"mode": "spectrum",
     "params": dict(BASE_PARAMS, kappa=0.0, positions=[0.0, 0.5])},
    {"mode": "spectrum", "params": dict(BASE_PARAMS, kappa=0.0,
                                        positions=[0.25])},
    # a sweep that cannot change a row: a pattern places collective atoms,
    # and omega_n, not omega, drives the atoms of a steady or evolve run
    {"mode": "collective", "params": dict(BASE_PARAMS, positions=[0.0, 0.5]),
     "sweep": {"param": "position[1]", "start": 0.1, "stop": 0.4,
               "points": 3}},
    {"params": dict(BASE_PARAMS, positions=[0.0, 0.25], omega_n=[0.5, 0.5]),
     "n_max": 4,
     "sweep": {"param": "omega", "start": 0.1, "stop": 2.0, "points": 3}},
    {"mode": "evolve",
     "params": dict(BASE_PARAMS, positions=[0.0, 0.25], omega_n=[0.5, 0.5]),
     "n_max": 4,
     "sweep": {"param": "omega", "start": 0.1, "stop": 2.0, "points": 3}},
    # nor a field its mode does not read: the closed forms of collective
    # and spectrum take omega, not omega_n
    {"mode": "collective",
     "params": dict(BASE_PARAMS, positions=[0.0, 0.5], g0=0.1, omega=0.1,
                    kappa=1.0, omega_n=[5.0, 0.01])},
    {"mode": "spectrum",
     "params": dict(BASE_PARAMS, g0=1.0, kappa=0.0, omega_n=[1e-5])},
    # a format, worker count or params object out of range, and a sweep2
    # without a sweep
    {"output": {"format": "xml"}},
    {"n_workers": 0},
    {"params": None},
    {"params": dict(BASE_PARAMS, gamma=0.0)},
    {"sweep2": {"param": "kappa", "start": 0.1, "stop": 1.0, "points": 3}},
    # output.path names a file; a number or a list names none
    {"output": {"path": 5}},
    {"output": {"path": ["x"]}},
    # the collective closed forms divide by g0, base or swept
    {"mode": "collective", "params": dict(BASE_PARAMS, g0=0.0)},
    {"mode": "collective",
     "sweep": {"param": "g0", "start": -1.0, "stop": 1.0, "points": 3}},
])
def test_malformed_field_is_config_error(tmp_path, overrides):
    cfg = _write_cfg(tmp_path, dict({
        "mode": "steady", "params": BASE_PARAMS,
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}},
        **overrides))
    assert main(["validate", cfg]) == EXIT_CONFIG


# each of these once passed, read through float()
@pytest.mark.parametrize("overrides", [
    {"params": dict(BASE_PARAMS, g0="1.0")},
    {"params": dict(BASE_PARAMS, positions=["0.1"])},
    {"mode": "evolve", "evolve": {"t_final": "2"}},
    {"sweep": {"param": "kappa", "start": "0", "stop": 1.0, "points": 3}},
], ids=["params", "positions", "section", "sweep"])
def test_number_given_as_a_string_is_config_error(tmp_path, overrides):
    cfg = _write_cfg(tmp_path, dict({
        "mode": "steady", "params": BASE_PARAMS,
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}},
        **overrides))
    assert main(["validate", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("param, again", [
    ("kappa", "kappa"),
    ("position[0]", "position[0]"),
    ("position[0]", "position[00]"),
])
def test_setting_swept_by_sweep_and_sweep2_is_config_error(tmp_path, param,
                                                           again):
    cfg = _write_cfg(tmp_path, {
        "mode": "steady", "params": BASE_PARAMS,
        "sweep": {"param": param, "start": 0.1, "stop": 0.2, "points": 2},
        "sweep2": {"param": again, "start": 0.2, "stop": 0.3, "points": 2},
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}})
    assert main(["validate", cfg]) == EXIT_CONFIG


def test_single_point_run_gives_one_row(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, {
        "mode": "steady", "params": BASE_PARAMS,
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}}))
    result = run_config(cfg)
    assert len(result.rows) == 1
    assert result.n_failed == 0
    assert "i_at" in result.columns and "i_cav" in result.columns


def test_run_writes_deterministic_csv(tmp_path):
    out = tmp_path / "o.csv"
    cfg_path = _write_cfg(tmp_path, {
        "mode": "steady", "params": BASE_PARAMS,
        "sweep": {"param": "kappa", "start": 0.05, "stop": 0.2,
                  "points": 3},
        "output": {"path": str(out), "format": "csv"}})
    assert main(["run", cfg_path]) == EXIT_OK
    first = out.read_bytes()
    assert main(["run", cfg_path]) == EXIT_OK
    assert out.read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header.startswith("kappa,")
    assert len(first.decode().splitlines()) == 4


def test_worker_count_does_not_change_rows(tmp_path):
    cfg_path = _write_cfg(tmp_path, {
        "mode": "spectrum", "params": dict(BASE_PARAMS, g0=1.0, kappa=0.0),
        "probe": {"omega_p": 1e-3},
        "sweep": {"param": "delta_p", "start": -3.0, "stop": 3.0,
                  "points": 25},
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}})
    cfg = load_config(cfg_path)
    r1 = run_config(cfg, n_workers=1)
    r8 = run_config(cfg, n_workers=8)
    assert r1.rows == r8.rows


def test_two_dimensional_sweep(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, {
        "mode": "spectrum", "params": dict(BASE_PARAMS, g0=1.0, kappa=0.0),
        "sweep": {"param": "delta_p", "start": -2.0, "stop": 2.0,
                  "points": 3},
        "sweep2": {"param": "g0", "start": 0.5, "stop": 1.5, "points": 2},
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}}))
    result = run_config(cfg)
    assert len(result.rows) == 6
    assert result.columns[:2] == ["delta_p", "g0"]


def test_figure_unknown_name():
    assert main(["figure", "fig99", "--out", "/tmp"]) == EXIT_CONFIG


def test_figure_fig2a_columns(tmp_path):
    assert main(["figure", "fig2a", "--out", str(tmp_path),
                 "--points", "4"]) == EXIT_OK
    lines = (tmp_path / "fig2a.csv").read_text().splitlines()
    assert lines[0] == "kappa,i_at,i_cav"
    assert len(lines) == 5


@pytest.mark.parametrize("argv", [
    ["figure", "fig10", "--points", "-3"],
    ["figure", "fig6", "--points", "0"],
    ["figure", "fig2a", "--workers", "-2"],
    ["run", "CONFIG", "--workers", "0"],
], ids=["fig10-points-3", "fig6-points0", "fig2a-workers-2", "run-workers0"])
def test_bad_count_flag_is_config_error(tmp_path, argv):
    cfg = _write_cfg(tmp_path, {
        "mode": "steady", "params": BASE_PARAMS,
        "output": {"path": str(tmp_path / "o.csv")}})
    argv = [cfg if a == "CONFIG" else a for a in argv]
    if argv[0] == "figure":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    assert not list(tmp_path.glob("*.csv"))


def test_swept_atom_number_column_is_the_solved_integer(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, {
        "mode": "collective",
        "params": {"positions": [0.0], "g0": 0.1, "omega": 0.1,
                   "kappa": 1.0},
        "sweep": {"param": "n_atoms", "start": 1, "stop": 1000, "points": 7,
                  "scale": "log"}}))
    result = run_config(cfg)
    rows = [dict(zip(result.columns, row)) for row in result.rows]
    assert [r["n_atoms"] for r in rows] == [1, 3, 10, 32, 100, 316, 1000]
    assert all(type(r["n_atoms"]) is int for r in rows)
    for r in rows:
        assert r["i_at"] == pytest.approx(r["n_atoms"] * r["pi_e"], rel=1e-12)


def test_figure_fig9a_columns(tmp_path):
    result = run_figure("fig9a", points=5)
    assert "delta_c" in result.columns and "mean_n" in result.columns
    kappas = {row[0] for row in result.rows}
    assert kappas == {0.0, 0.01}


def test_figure_fig10_log_atom_grid():
    result = run_figure("fig10", points=9)
    ns = [row[0] for row in result.rows]
    assert ns == sorted(ns)
    assert ns[0] == 1
    assert all(isinstance(n, int) for n in ns)
    assert ns[-1] == 100000


def test_figure_fig11b_parameters():
    result = run_figure("fig11b", points=5)
    assert result.metadata["delta_c"] == -5.0
    assert result.metadata["delta"] == -1000.0
    assert result.metadata["kappa"] == 10.0


def test_failed_preset_rows_keep_axis_columns(monkeypatch):
    good = {name: run_figure(name, points=5) for name in ("fig10", "fig9a")}
    real = cli.in_phase_alpha

    def fails_for_some(pattern, params):
        if pattern.n_atoms > 100 or params.kappa == 0.01:
            raise RuntimeError("forced failure")
        return real(pattern, params)

    monkeypatch.setattr(cli, "in_phase_alpha", fails_for_some)
    for name, n_axes in (("fig10", 1), ("fig9a", 2)):
        result = run_figure(name, points=5)
        assert result.columns == good[name].columns
        failed = 0
        for row, good_row in zip(result.rows, good[name].rows, strict=True):
            assert row[:n_axes] == good_row[:n_axes]
            assert ([type(v) for v in row[:n_axes]]
                    == [type(v) for v in good_row[:n_axes]])
            if all(math.isnan(v) for v in row[n_axes:]):
                failed += 1
            else:
                assert row == good_row
        assert 0 < failed == result.n_failed < len(result.rows)


PINNED_PRESETS = json.loads(
    (Path(__file__).parent / "data" / "presets_points3.json").read_text())


def test_preset_tables_pinned():
    assert sorted(PINNED_PRESETS) == preset_names()
    for name, (header, *lines) in PINNED_PRESETS.items():
        result = run_figure(name, points=3)
        assert result.columns == header.split(","), name
        expected = [[float(cell) for cell in line.split(",")]
                    for line in lines]
        # atol covers values at rounding level, e.g. fig5's zero shift
        np.testing.assert_allclose(np.array(result.rows, dtype=float),
                                   expected, rtol=1e-9, atol=1e-12,
                                   equal_nan=True, err_msg=name)


def _record_systems(monkeypatch) -> list:
    """The number of items each sweep hands to cli._map_ordered.  A counter
    inside a forked worker would not reach this process; this one counts
    in the caller."""
    counts = []
    real = cli._map_ordered

    def recorded(fn, items, n_workers):
        counts.append(len(items))
        return real(fn, items, n_workers)

    monkeypatch.setattr(cli, "_map_ordered", recorded)
    return counts


def test_stark_sweep_solves_steady_state_once(tmp_path, monkeypatch):
    handed = _record_systems(monkeypatch)
    cfg = load_config(_write_cfg(tmp_path, {
        "mode": "stark", "params": dict(BASE_PARAMS, g0=1.0, kappa=1.0),
        "sweep": {"param": "x_probe", "start": 0.0, "stop": 0.9,
                  "points": 10}}))
    tables = []
    for n_workers in (1, 2):
        result = run_config(cfg, n_workers=n_workers)
        assert result.n_failed == 0 and len(result.rows) == 10
        tables.append(result.rows)
    assert handed == [1, 1]
    assert tables[0] == tables[1]


def test_fig5_hands_its_three_steady_states_to_the_workers(monkeypatch,
                                                          two_cores):
    handed = _record_systems(monkeypatch)
    started = _record_workers(monkeypatch)
    run_figure("fig5", points=5, n_workers=2)
    # one steady state per kappa override (0, 1 and 2) for all five rows
    assert handed == [3]
    assert started == [2]


def test_workers_inherit_the_term_plans_the_caller_built(tmp_path,
                                                        monkeypatch,
                                                        two_cores):
    # a fresh plan cache that logs the pid building each plan; forked
    # workers append to the same file
    log, build = tmp_path / "plans.log", model.term_plan.__wrapped__

    @functools.lru_cache(maxsize=model.term_plan.cache_info().maxsize)
    def logged(space):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {space.n_atoms} {space.n_max}\n")
        return build(space)

    for module in (model, dynamics, cli):
        monkeypatch.setattr(module, "term_plan", logged)
    started = _record_workers(monkeypatch)
    assert run_figure("fig6", points=5, n_workers=2).n_failed == 0
    assert started == [2]
    builds = [line.split(maxsplit=1)
              for line in log.read_text(encoding="utf-8").splitlines()]
    by_caller = {space for pid, space in builds if int(pid) == os.getpid()}
    # fig6's one space, two atoms at n_max 11, is built here and only here
    assert by_caller == {"2 11"}
    assert [space for pid, space in builds
            if int(pid) != os.getpid() and space in by_caller] == []


def test_stark_mode_solves_at_the_config_n_max(tmp_path, monkeypatch):
    asked = []
    real = cli.solve_steady

    def spied(params, n_max=None):
        asked.append(n_max)
        return real(params, n_max=n_max)

    monkeypatch.setattr(cli, "solve_steady", spied)
    cfg = load_config(_write_cfg(tmp_path, {
        "mode": "stark", "n_max": 4,
        "params": dict(BASE_PARAMS, g0=1.0, kappa=1.0)}))
    assert run_config(cfg).n_failed == 0
    assert asked == [4]


def _library_row(mode: str, point: dict) -> dict:
    """The quantities of one point, straight from the library."""
    params = point["params"]
    if mode == "spectrum":
        return {"w": excitation_spectrum(point["delta_p"], params,
                                         ProbeParams(point["omega_p"]))}
    if mode == "stark":
        sol = dynamics.solve_steady(params, n_max=point["n_max"])
        alpha = dynamics.observables(sol.rho, params).alpha
        return {"shift": probe_stark_shift(point["x_probe"],
                                           point["delta_2"], params, alpha)}
    if mode == "evolve":
        space = build_space(params, point["n_max"])
        rho = dynamics.evolve(dynamics.ground_state(space),
                              build_liouvillian(params, space),
                              point["t_final"])
        obs = dynamics.observables(rho, params)
        return {"i_at": obs.i_at_total, "mean_n": obs.mean_n,
                "re_alpha": obs.alpha.real, "im_alpha": obs.alpha.imag}
    alpha = in_phase_alpha(PatternSpec(point["n_atoms"], point["parity"]),
                           params)
    return {"re_alpha": alpha.real, "im_alpha": alpha.imag}


@pytest.mark.parametrize("mode, params, section, name, start, stop", [
    ("spectrum", {"g0": 1.0, "kappa": 0.0}, {}, "delta_p", 0.5, 1.5),
    ("stark", {"g0": 1.0, "kappa": 1.0}, {}, "x_probe", 0.0, 0.2),
    ("stark", {"g0": 1.0, "kappa": 1.0}, {}, "delta_2", 100.0, 400.0),
    ("evolve", {"g0": 1.0, "kappa": 1.0}, {}, "t_final", 0.5, 1.5),
    ("collective", {"g0": 0.1, "omega": 0.1, "kappa": 1.0}, {}, "n_atoms",
     2, 10),
    # off x = 0 and off the probe's field node, the pump phases show; a
    # probe at the atom's own position sees them cancel (<a> turns with the
    # atom's pump phase), so it sits elsewhere
    ("stark", {"g0": 1.0, "kappa": 1.0, "positions": [0.1]},
     {"stark": {"x_probe": 0.2}}, "theta", 0.5, 1.5),
], ids=["spectrum-delta_p", "stark-x_probe", "stark-delta_2",
        "evolve-t_final", "collective-n_atoms", "stark-theta"])
def test_swept_setting_reaches_its_quantity(tmp_path, mode, params, section,
                                            name, start, stop):
    # every swept value differs from the setting's default
    cfg = load_config(_write_cfg(tmp_path, dict(
        {"mode": mode, "params": dict(BASE_PARAMS, **params),
         "sweep": {"param": name, "start": start, "stop": stop,
                   "points": 3}},
        **section,
        **({"n_max": 4} if mode in ("stark", "evolve") else {}))))
    result = run_config(cfg)
    assert result.n_failed == 0
    seen = set()
    for (assignments, point), row in zip(cfg["grid"], result.rows,
                                         strict=True):
        values = dict(zip(result.columns, row))
        # a params field is swept in the point's params
        setting = point[name] if name in point else getattr(point["params"],
                                                            name)
        assert values[name] == assignments[name] == setting
        expected = _library_row(mode, point)
        for quantity in expected:
            assert values[quantity] == pytest.approx(expected[quantity],
                                                     rel=1e-12), \
                (assignments, quantity)
        seen.add(tuple(expected.values()))
    assert len(seen) == len(result.rows)


def _count_solves(monkeypatch) -> list:
    calls = []
    real = cli.solve_steady

    def counted(params, n_max=None):
        calls.append(params)
        return real(params, n_max=n_max)

    monkeypatch.setattr(cli, "solve_steady", counted)
    return calls


def _direct(params: cli.SystemParams, n_max: int | None = None) -> dict:
    return cli._solve({"mode": "steady", "params": params, "n_max": n_max})


@pytest.mark.parametrize("name, points", [("fig8", 6), ("fig6", 8)])
def test_symmetric_preset_points_are_solved_once(monkeypatch, name, points):
    calls = _count_solves(monkeypatch)
    result = run_figure(name, points=points)
    monkeypatch.undo()
    preset = PRESETS[name]
    # fig8 spans (x1, x2) = (a, b) / points; fig6 spans x2 = b / points
    ks = range(points)
    pairs = ([(a, b) for a in ks for b in ks] if name == "fig8"
             else [(0, b) for b in ks])
    n_axes = len(preset.axes)
    assert [row[:n_axes] for row in result.rows] \
        == [tuple(k / points for k in pair[-n_axes:]) for pair in pairs]
    # theta = pi/2 and a homogeneous pump: swapping the atoms and x -> -x
    # (mod 1) on either atom map a system onto an equal one; one solve per
    # orbit of these maps, the diagonal x1 = x2 of fig8 unsolved
    def fold(k):
        return min(k, -k % points)

    orbits = {tuple(sorted((fold(a), fold(b))))
              for a, b in pairs if a != b or name == "fig6"}
    assert len(calls) == len(orbits)
    for row in result.rows:
        values = dict(zip(preset.columns.values(), row))
        positions = list(preset.params.positions)
        for n in range(2):
            positions[n] = values.get(f"position[{n}]", positions[n])
        if positions[0] == positions[1] and preset.diagonal:
            continue
        direct = _direct(replace(preset.params, positions=positions))
        for source, value in values.items():
            if source in direct:
                assert value == pytest.approx(direct[source], rel=1e-9), \
                    (positions, source)


_SWEEP_X1 = {"param": "position[0]", "start": 0.125, "stop": 0.625,
             "points": 3}
_SWEEP_X2 = {"param": "position[1]", "start": 0.125, "stop": 0.875,
             "points": 7}
_SWEEP_BOTH = {"sweep": _SWEEP_X1,
               "sweep2": dict(_SWEEP_X1, param="position[1]")}


@pytest.mark.parametrize("params, sweeps, solves", [
    # x2 and 1 - x2 are mirror images: 0.5 and three pairs
    ({"theta": math.pi / 2}, {"sweep": _SWEEP_X2}, 4),
    # the pump phase 2 pi x cos(theta) is odd in x, so a mirror image is
    # another system (at x2 = 1/8 and 7/8, i_at differs by 93%): no fold
    ({"theta": math.pi / 3}, {"sweep": _SWEEP_X2}, 7),
    # swapping the atoms still folds: 3 x 3 rows, 6 unordered pairs
    ({"theta": math.pi / 3}, _SWEEP_BOTH, 6),
    # unless each atom has its own pump amplitude
    ({"theta": math.pi / 3, "omega_n": [1.0, 0.5]}, _SWEEP_BOTH, 9),
    # at pi/2 each atom folds on its own: 5/8 is the mirror image of 3/8,
    # leaving the unordered pairs of {1/8, 3/8}.  At (1/8, 3/8) the atoms
    # cancel each other's field; delta 10 keeps mean_n there at 3e-4, so
    # g2 = <n(n-1)>/mean_n^2 resolves to 1e-9 (at delta 100 mean_n is 2e-8,
    # and g2 of equal systems differs by 3e-8, swap alone included)
    ({"theta": math.pi / 2, "delta": 10.0}, _SWEEP_BOTH, 3),
], ids=["theta_pi_2", "theta_pi_3", "theta_pi_3-swap",
        "theta_pi_3-unequal_pump", "theta_pi_2-both"])
def test_position_sweep_folds_only_equal_systems(
        tmp_path, monkeypatch, params, sweeps, solves):
    calls = _count_solves(monkeypatch)
    # n_max 5 keeps the solves small; the fold does not depend on it
    cfg = load_config(_write_cfg(tmp_path, dict({
        "mode": "steady", "n_max": 5,
        "params": dict({"positions": [0.0, 0.0], "g0": 10.0, "omega": 1.0,
                        "kappa": 0.2, "delta": 100.0}, **params)},
        **sweeps)))
    result = run_config(cfg)
    monkeypatch.undo()
    assert len(calls) == solves
    # pi_e_<n> is no config column: ask the runner for it directly
    pi_e_rows, _ = cli._sweep(cfg["grid"], ["pi_e_1", "pi_e_2"], 1)
    for (assignments, point), row, pi_e in zip(cfg["grid"], result.rows,
                                               pi_e_rows, strict=True):
        values = dict(zip(result.columns, row))
        values.update(pi_e_1=pi_e[0], pi_e_2=pi_e[1])
        # a mirrored row keeps its own axis and echo columns
        assert all(values[axis] == x for axis, x in assignments.items())
        assert values["p_positions"] == cli._echo(point)["p_positions"]
        direct = _direct(point["params"], point["n_max"])
        for name in ("i_at", "i_cav", "mean_n", "re_alpha", "im_alpha", "g2",
                     "n_max", "pi_e_1", "pi_e_2"):
            assert values[name] == pytest.approx(direct[name], rel=1e-9), \
                (assignments, name)


def test_failed_solve_fails_its_whole_orbit(tmp_path, monkeypatch):
    real = cli.solve_steady

    def fails_at_one_eighth(params, n_max=None):
        if params.positions[1] == 0.125:
            raise RuntimeError("forced failure")
        return real(params, n_max=n_max)

    monkeypatch.setattr(cli, "solve_steady", fails_at_one_eighth)
    cfg = load_config(_write_cfg(tmp_path, {
        "mode": "steady", "n_max": 5, "sweep": _SWEEP_X2,
        "params": {"positions": [0.0, 0.0], "g0": 10.0, "omega": 1.0,
                   "kappa": 0.2, "delta": 100.0}}))
    result = run_config(cfg)
    # 7/8 is the mirror image of 1/8 and takes its failed solve
    assert [row[0] for row in result.rows if not row[-1]] == [0.125, 0.875]
    assert result.n_failed == 2


def test_figure_missing_out_directory_fails_before_solving(
        tmp_path, monkeypatch, capsys):
    calls = _count_solves(monkeypatch)
    missing = tmp_path / "missing"
    assert main(["figure", "fig2a", "--out", str(missing),
                 "--points", "4"]) == EXIT_CONFIG
    assert str(missing) in capsys.readouterr().err
    assert calls == []


def test_run_missing_output_directory_fails_before_solving(
        tmp_path, monkeypatch, capsys):
    calls = _count_solves(monkeypatch)
    missing = tmp_path / "missing"
    cfg_path = _write_cfg(tmp_path, {
        "mode": "steady", "params": BASE_PARAMS,
        "sweep": {"param": "kappa", "start": 0.05, "stop": 0.2, "points": 3},
        "output": {"path": str(missing / "o.csv"), "format": "csv"}})
    assert main(["run", cfg_path]) == EXIT_CONFIG
    assert str(missing) in capsys.readouterr().err
    assert calls == []


def test_run_output_path_that_is_a_directory_fails_before_solving(
        tmp_path, monkeypatch, capsys):
    calls = _count_solves(monkeypatch)
    cfg_path = _write_cfg(tmp_path, {
        "mode": "steady", "params": BASE_PARAMS,
        "output": {"path": str(tmp_path), "format": "csv"}})
    assert main(["validate", cfg_path]) == EXIT_OK
    assert main(["run", cfg_path]) == EXIT_CONFIG
    assert "is a directory" in capsys.readouterr().err
    assert calls == []


def test_figure_output_file_that_is_a_directory_fails_before_solving(
        tmp_path, monkeypatch, capsys):
    calls = _count_solves(monkeypatch)
    (tmp_path / "fig2a.csv").mkdir()
    assert main(["figure", "fig2a", "--out", str(tmp_path),
                 "--points", "4"]) == EXIT_CONFIG
    assert "fig2a.csv' is a directory" in capsys.readouterr().err
    assert calls == []


@pytest.fixture
def two_cores(monkeypatch):
    """Sweeps at two workers take the process path, whatever the machine."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method: sweeps run serially")
    _cores(monkeypatch, 2)


def _cores(monkeypatch, n: int) -> None:
    """This process may run on n cores, by affinity where the platform
    has it and by count where it does not."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def test_cores_are_counted_by_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    assert cli._usable_cores() == 2
    # without an affinity call, the core count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cores() == 64


def _record_workers(monkeypatch) -> list:
    """The number of worker processes each sweep starts, for each sweep
    that starts any."""
    counts, started = [], []
    context = type(multiprocessing.get_context("fork"))

    class Recorded(context.Process):
        def start(self):
            started.append(self)
            super().start()

    real = cli._map_ordered

    def recorded(fn, items, n_workers):
        started.clear()
        try:
            return real(fn, items, n_workers)
        finally:
            if started:
                counts.append(len(started))

    monkeypatch.setattr(context, "Process", Recorded)
    monkeypatch.setattr(cli, "_map_ordered", recorded)
    return counts


def test_map_ordered_runs_a_local_closure_in_item_order(two_cores):
    offset = 1000

    def shifted(item):  # a local closure, as the bench tracer passes
        return item + offset, os.getpid()

    items = list(range(40))
    results = cli._map_ordered(shifted, items, 2)
    assert [value for value, _ in results] == [i + offset for i in items]
    assert os.getpid() not in {pid for _, pid in results}


def test_process_count_is_bounded(tmp_path, monkeypatch, two_cores):
    started = _record_workers(monkeypatch)
    cfg = load_config(_write_cfg(tmp_path, {
        "mode": "steady", "n_max": 4, "params": dict(BASE_PARAMS, g0=1.0),
        "sweep": {"param": "kappa", "start": 0.1, "stop": 1.0,
                  "points": 9}}))
    serial = run_config(cfg, n_workers=1)
    assert started == []
    # never more processes than cores
    assert run_config(cfg, n_workers=64).rows == serial.rows
    assert started == [2]
    # a closed form starts none, however many workers are asked for
    _cores(monkeypatch, 64)
    started.clear()
    cfg = load_config(_write_cfg(tmp_path, {
        "mode": "spectrum", "params": dict(BASE_PARAMS, g0=1.0, kappa=0.0),
        "sweep": {"param": "delta_p", "start": -3.0, "stop": 3.0,
                  "points": 9}}))
    assert run_config(cfg, n_workers=64).n_failed == 0
    for name in ("fig4a", "fig9", "fig10"):
        assert run_figure(name, points=5, n_workers=64).n_failed == 0
    assert started == []
    # nor than distinct systems: x2 and 1 - x2 fold, 4 systems for 7 rows
    cfg = load_config(_write_cfg(tmp_path, {
        "mode": "steady", "n_max": 5, "sweep": _SWEEP_X2,
        "params": {"positions": [0.0, 0.0], "g0": 10.0, "omega": 1.0,
                   "kappa": 0.2, "delta": 100.0}}))
    run_config(cfg, n_workers=64)
    assert started == [4]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_strict_mode_stops_on_a_spectrum_regime_warning_in_the_caller(
        tmp_path, monkeypatch, two_cores):
    # a probe of 0.5 is not weak against g0 = 1; the closed form warns in
    # the calling process, which forks no worker for it
    started = _record_workers(monkeypatch)
    cfg_path = _write_cfg(tmp_path, {
        "mode": "spectrum", "params": dict(BASE_PARAMS, g0=1.0, kappa=0.0),
        "probe": {"omega_p": 0.5},
        "sweep": {"param": "delta_p", "start": -1.0, "stop": 1.0,
                  "points": 4},
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}})
    assert main(["run", cfg_path, "--workers", "2"]) == EXIT_OK
    assert main(["run", cfg_path, "--workers", "2", "--strict"]) \
        == EXIT_REGIME
    assert started == []


def _stark_warning_config(tmp_path) -> str:
    """A stark sweep over two steady states whose shifts all warn: delta_2
    = 5 is not far detuned against g0 = 1."""
    return _write_cfg(tmp_path, {
        "mode": "stark", "params": dict(BASE_PARAMS, g0=1.0, kappa=1.0),
        "n_max": 4, "stark": {"delta_2": 5.0},
        "sweep": {"param": "x_probe", "start": 0.0, "stop": 0.3,
                  "points": 4},
        "sweep2": {"param": "kappa", "start": 0.5, "stop": 1.0, "points": 2},
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}})


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_strict_mode_stops_on_a_stark_regime_warning_after_forked_solves(
        tmp_path, monkeypatch, two_cores):
    # two forked workers solve the steady states at kappa 0.5 and 1; the
    # dispersive Stark shift then warns in the calling process, as it
    # builds the rows
    started = _record_workers(monkeypatch)
    cfg_path = _stark_warning_config(tmp_path)
    assert main(["run", cfg_path, "--workers", "2"]) == EXIT_OK
    assert main(["run", cfg_path, "--workers", "2", "--strict"]) \
        == EXIT_REGIME
    assert started == [2, 2]


def test_worker_failure_gives_the_serial_rows(tmp_path, monkeypatch,
                                              two_cores):
    real = cli.solve_steady

    def fails_at_one_eighth(params, n_max=None):
        if params.positions[1] == 0.125:
            raise RuntimeError("forced failure")
        return real(params, n_max=n_max)

    monkeypatch.setattr(cli, "solve_steady", fails_at_one_eighth)
    cfg = load_config(_write_cfg(tmp_path, {
        "mode": "steady", "n_max": 5, "sweep": _SWEEP_X2,
        "params": {"positions": [0.0, 0.0], "g0": 10.0, "omega": 1.0,
                   "kappa": 0.2, "delta": 100.0}}))
    tables = []
    for n_workers in (1, 2):
        result = run_config(cfg, n_workers=n_workers)
        assert result.n_failed == 2
        path = tmp_path / f"w{n_workers}.csv"
        write_csv(result, str(path))
        tables.append(path.read_bytes())
    assert tables[0] == tables[1]
    assert b"nan" in tables[0]


def _killed_in_a_worker(parent: int) -> None:
    """SIGKILL the calling process, unless it is the test's own."""
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_worker_fails_its_point(two_cores):
    parent = os.getpid()

    def squared(item):
        if item == 5:
            _killed_in_a_worker(parent)
        return item * item

    items = list(range(12))
    results = cli._map_ordered(squared, items, 2)
    assert results == [None if i == 5 else i * i for i in items]
    assert multiprocessing.active_children() == []


def test_a_killed_worker_fails_its_row(tmp_path, monkeypatch, two_cores):
    parent, real = os.getpid(), cli.solve_steady

    def killed_at_one_half(params, n_max=None):
        if params.positions[1] == 0.5:
            _killed_in_a_worker(parent)
        return real(params, n_max=n_max)

    monkeypatch.setattr(cli, "solve_steady", killed_at_one_half)
    cfg = load_config(_write_cfg(tmp_path, {
        "mode": "steady", "n_max": 5, "sweep": _SWEEP_X2,
        "params": {"positions": [0.0, 0.0], "g0": 10.0, "omega": 1.0,
                   "kappa": 0.2, "delta": 100.0}}))
    serial = run_config(cfg, n_workers=1)
    forked = run_config(cfg, n_workers=2)
    ok = forked.columns.index("ok")
    assert serial.n_failed == 0 and forked.n_failed == 1
    assert [row[0] for row in forked.rows if row[ok] == 0] == [0.5]
    assert ([row for row in forked.rows if row[0] != 0.5]
            == [row for row in serial.rows if row[0] != 0.5])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_no_worker_outlives_a_sweep(tmp_path, two_cores):
    cfg_path = _stark_warning_config(tmp_path)
    assert main(["run", cfg_path, "--workers", "2"]) == EXIT_OK
    assert multiprocessing.active_children() == []
    assert main(["run", cfg_path, "--workers", "2", "--strict"]) \
        == EXIT_REGIME
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_raising_item_comes_back_none(two_cores, n_workers):
    def fails_at_three(item):
        if item == 3:
            raise ValueError(item)
        return item * item

    items = list(range(8))
    results = cli._map_ordered(fails_at_three, items, n_workers)
    assert results == [None if i == 3 else i * i for i in items]
    assert multiprocessing.active_children() == []


def test_sweep_restores_the_blas_thread_count(two_cores):
    controls = dynamics._blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread-count symbols in this process")
    original = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        before = [get() for get, _ in controls]
        inside = cli._map_ordered(
            lambda _: [get() for get, _ in controls], [0, 1, 2], 2)
        assert inside == [[1] * len(controls)] * 3
        run_figure("fig6", points=4, n_workers=2)
        assert [get() for get, _ in controls] == before
    finally:
        for (_, set_), n in zip(controls, original):
            set_(n)


def test_figure_preset_determinism_and_workers(tmp_path):
    a = run_figure("fig6", points=7, n_workers=1)
    b = run_figure("fig6", points=7, n_workers=4)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, str(pa))
    write_csv(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_csv_uses_17_significant_digits(tmp_path):
    result = run_figure("fig4a", points=3)
    path = tmp_path / "o.csv"
    write_csv(result, str(path))
    row = path.read_text().splitlines()[1].split(",")
    # 1/3-ish values print full precision, not a truncated default
    assert any(len(cell.replace("-", "").replace(".", "")) >= 15
               for cell in row)


def test_evolve_at_zero_time_writes_the_ground_state_row(tmp_path):
    out = tmp_path / "o.csv"
    cfg_path = _write_cfg(tmp_path, {
        "mode": "evolve", "params": BASE_PARAMS, "n_max": 3,
        "evolve": {"t_final": 0},
        "output": {"path": str(out), "format": "csv"}})
    assert main(["run", cfg_path]) == EXIT_OK
    header, row = out.read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    # no atom excited and no photon: g2 is undefined and nothing is solved
    for name in ("i_at", "i_cav", "mean_n", "re_alpha", "im_alpha"):
        assert float(values[name]) == 0.0, name
    assert (values["g2"], values["n_max"], values["residual"],
            values["ok"]) == ("nan", "3", "nan", "1")


def test_solver_failure_exit_code(tmp_path):
    # n_max pinned far below the coherent amplitude: every point fails
    cfg_path = _write_cfg(tmp_path, {
        "mode": "steady",
        "params": {"positions": [0.0], "g0": 1.0, "omega": 6.0,
                   "kappa": 0.1},
        "n_max": 2,
        "sweep": {"param": "kappa", "start": 0.1, "stop": 0.2, "points": 2},
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}})
    assert main(["run", cfg_path]) == EXIT_SOLVER


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_strict_mode_promotes_regime_warning(tmp_path):
    payload = {
        "mode": "spectrum",
        "params": dict(BASE_PARAMS, g0=1.0, kappa=0.0),
        "probe": {"omega_p": 0.5, "delta_p": 1.0},
        "output": {"path": str(tmp_path / "o.csv"), "format": "csv"}}
    cfg_path = _write_cfg(tmp_path, payload)
    assert main(["run", cfg_path]) == EXIT_OK
    assert main(["run", cfg_path, "--strict"]) == EXIT_REGIME


def test_json_output(tmp_path):
    out = tmp_path / "o.json"
    cfg_path = _write_cfg(tmp_path, {
        "mode": "collective",
        "params": {"positions": [0.0], "g0": 0.001, "omega": 0.001,
                   "kappa": 0.001},
        "pattern": {"n_atoms": 100},
        "output": {"path": str(out), "format": "json"}})
    assert main(["run", cfg_path]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert "re_alpha" in payload["columns"]
    assert "im_alpha" in payload["columns"]
    assert len(payload["rows"]) == 1


def test_figure_config_runs_its_preset(tmp_path):
    out = tmp_path / "o.json"
    cfg_path = _write_cfg(tmp_path, {
        "mode": "figure", "figure": "fig2a", "points": 3,
        "output": {"path": str(out), "format": "json"}})
    assert main(["run", cfg_path]) == EXIT_OK
    expected = tmp_path / "expected.json"
    cli.write_json(run_figure("fig2a", points=3), str(expected))
    assert out.read_bytes() == expected.read_bytes()
    metadata = json.loads(out.read_text())["metadata"]
    assert metadata["figure"] == "fig2a"
    assert metadata["grid_size"] == 3


def test_readme_example_config_validates(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```json\n")[1:]
    assert len(blocks) == 1
    path = tmp_path / "example.json"
    path.write_text(blocks[0].split("```")[0], encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_OK


def test_installed_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "drivencavity.cli", "figure", "fig4a",
         "--out", str(tmp_path), "--points", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "fig4a.csv").exists()


def _modules_loaded_after(code: str) -> dict:
    """Which of scipy.integrate and scipy.optimize a fresh interpreter with
    src on its path holds after running code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    names = ("scipy.integrate", "scipy.optimize")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{code}\nprint(*(n in sys.modules for n in {names}))"],
        capture_output=True, text=True, env=env, check=True)
    return dict(zip(names, (word == "True" for word in proc.stdout.split())))


def test_scipy_integrate_is_loaded_only_by_the_probe():
    # no CLI mode integrates in time: importing the CLI loads neither
    # scipy.integrate nor the scipy.optimize it would bring along
    assert _modules_loaded_after("import drivencavity.cli") == {
        "scipy.integrate": False, "scipy.optimize": False}
    probe = ("from drivencavity import (ProbeParams, SystemParams,\n"
             "    probe_response_numeric)\n"
             "probe_response_numeric(10.0, SystemParams(positions=(0.0,),\n"
             "    g0=10.0, omega=1.0, kappa=1e-3), ProbeParams(0.05),\n"
             "    n_max=6, t_final=1.0)")
    assert _modules_loaded_after(probe)["scipy.integrate"]


def test_all_presets_known():
    expected = {"fig2a", "fig2b", "fig3", "fig4a", "fig4b", "fig5", "fig6",
                "fig7", "fig8", "fig9", "fig10", "fig11"}
    assert expected <= set(preset_names())
