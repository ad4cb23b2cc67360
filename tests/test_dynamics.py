import contextlib
import gc
import math
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from drivencavity import dynamics
from drivencavity.dynamics import (
    DegenerateSteadyStateError,
    SteadyStateError,
    TruncationEscalationError,
    evolve,
    ground_state,
    observables,
    solve_steady,
    steady_state,
)
from drivencavity.model import (
    SystemParams,
    Superoperator,
    beta_profile,
    build_liouvillian,
    build_space,
    default_n_max,
    term_plan,
)
from drivencavity.operators import (
    DensityMatrix,
    SpaceMismatchError,
    annihilation,
    atomic_lowering,
    basis_state,
    coherent_state,
    fidelity_with_pure,
    fock_populations,
    trace_distance,
)


def _params(**kw):
    base = dict(positions=(0.0,), g0=1.0, omega=1.0, kappa=0.1)
    base.update(kw)
    return SystemParams(**base)


def test_undriven_steady_state_is_ground():
    p = _params(omega=0.0, kappa=0.3, g0=2.0)
    sol = solve_steady(p, n_max=4)
    ket = basis_state(sol.space, "g", 0)
    assert fidelity_with_pure(sol.rho, ket) == pytest.approx(1.0, abs=1e-12)


def test_dark_state_fidelity():
    p = _params(omega=1.0, g0=10.0, kappa=0.0)
    sol = solve_steady(p)
    ket = coherent_state(sol.space, beta_profile(0.0, p), atoms="g")
    assert fidelity_with_pure(sol.rho, ket) > 0.999
    assert sol.residual < 1e-9 * sol.space.dim


def test_emission_ratio_tracks_cooperativity():
    # closed forms give I_cav/I_at = 2 C1 - 1; the exact solution should
    # land within a factor of two at strong coupling
    p = _params(omega=1.0, g0=10.0, kappa=0.1)
    sol = solve_steady(p)
    obs = observables(sol.rho, p)
    c1 = 2 * p.g0**2 / (p.kappa * p.gamma)
    assert c1 == 2000
    ratio = obs.i_cav / obs.i_at_total
    assert (2 * c1 - 1) / 2 < ratio < (2 * c1 - 1) * 2


@pytest.mark.parametrize("n_atoms, omega, g0, kappa, n_max", [
    # no drive, no coupling, no cavity decay: every Fock diagonal is a
    # fixed point, so the null space is multi-dimensional; the LU
    # factorization fails outright, with a different error at each size
    (1, 0.0, 0.0, 0.0, 2),
    (1, 0.0, 0.0, 0.0, 20),
    # near-degenerate: the factorization succeeds, the condition
    # estimate of the trace-row matrix exceeds the limit
    (1, 1.0, 1e-8, 0.0, 6),
    (1, 1.0, 0.0, 1e-12, 6),
    (1, 1.0, 1e-6, 0.0, 6),
    # two or more atoms: GMRES cannot solve the trace-row matrix
    (3, 0.0, 0.0, 0.0, 11),
    (2, 0.0, 0.0, 0.0, 11),
    (2, 1.0, 1e-8, 0.0, 11),
], ids=["uncoupled-n_max2", "uncoupled-n_max20", "g0_1e-8", "kappa_1e-12",
        "g0_1e-6", "uncoupled-3atoms-n_max11", "uncoupled-2atoms-n_max11",
        "g0_1e-8-2atoms-n_max11"])
def test_degenerate_steady_state_detected(n_atoms, omega, g0, kappa, n_max):
    p = _params(positions=(0.0,) * n_atoms, omega=omega, g0=g0, kappa=kappa)
    l = build_liouvillian(p, build_space(p, n_max=n_max))
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(l)


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_collapse_operators_share_one_kernel_vector_at_positive_kappa(n_atoms):
    # the structure behind the certificate of _TraceRowSystem: at kappa > 0
    # only |g...g, 0> is annihilated by every collapse operator; at kappa =
    # 0 every |g...g, n> is, and only the probe can certify
    n_max = 4
    for kappa in (0.3, 0.0):
        p = _params(positions=(0.1,) * n_atoms, kappa=kappa)
        space = build_space(p, n_max=n_max)
        rates = [p.gamma] * n_atoms + [kappa]
        stacked = np.vstack([math.sqrt(rate) * c.toarray() for rate, c
                             in zip(rates, term_plan(space).collapses)])
        kernel = scipy.linalg.null_space(stacked)
        system = dynamics._TraceRowSystem(build_liouvillian(p, space))
        if kappa > 0:
            assert kernel.shape[1] == 1
            ground = basis_state(space, "g" * n_atoms, 0)
            assert abs(ground.conj() @ kernel[:, 0]) == pytest.approx(1.0)
            assert math.isfinite(system.scale())
        else:
            assert kernel.shape[1] == n_max + 1
            assert system.scale() == math.inf


def _scan_systems():
    """Seeded systems whose steady state is unique by structure: N = 1-3,
    kappa 1e-6 to 100, g0 1e-3 to 20, Omega <= g0, Delta and delta_c 0 or
    up to +-100, n_max the default with up to two escalations (dim <= 160),
    or 1 to 5; then the corner where the estimate came closest to the scale
    (no coupling, kappa = gamma, n_max 1)."""
    rng = np.random.default_rng(17)
    for _ in range(24):
        n_atoms = int(rng.integers(1, 4))
        g0 = float(10 ** rng.uniform(-3, math.log10(20)))
        p = SystemParams(
            positions=tuple(rng.uniform(0, 1, n_atoms)), g0=g0,
            omega=float(g0 * rng.uniform(0, 1)),
            kappa=float(10 ** rng.uniform(-6, 2)),
            delta=float(rng.choice([0.0, rng.uniform(-100, 100)])),
            delta_c=float(rng.choice([0.0, rng.uniform(-100, 100)])))
        n_max = default_n_max(p)
        for _ in range(int(rng.integers(0, 3))):
            n_max = math.ceil(1.5 * n_max)
        if rng.random() < 0.25:
            n_max = int(rng.integers(1, 6))
        while 2 ** n_atoms * (n_max + 1) > 160:
            n_max //= 2
        yield p, n_max
    for omega in (0.0, 1.0):
        yield _params(g0=0.0, omega=omega, kappa=1.0), 1


def _built_m(system):
    """The trace-row matrix m of a system, built from its L, after checking
    the system's |m|_1 against scipy's norm of m."""
    m = dynamics._trace_row_matrix(system.lmat, system.space.dim)
    assert system.norm1 == pytest.approx(spla.norm(m, 1), rel=1e-15)
    return m


def test_condition_estimate_is_bounded_by_the_scale():
    # the probe's estimate reached 1.45 times |m|_1 / min(kappa, gamma) on
    # the scans behind CONDITION_SCALE_BOUND, and the exact 1-norm condition
    # number, of which the estimate is a lower bound, 22.6 times
    ratios = []
    with dynamics._one_blas_thread():
        for p, n_max in _scan_systems():
            system = dynamics._TraceRowSystem(
                build_liouvillian(p, build_space(p, n_max)))
            scale = system.scale()
            ratios.append(system.estimate() / scale)
            m = _built_m(system)
            if m.shape[0] <= 576:
                exact = (spla.norm(m, 1) * np.abs(
                    np.linalg.inv(m.toarray())).sum(axis=0).max())
                assert exact <= dynamics.CONDITION_SCALE_BOUND * scale
    assert max(ratios) <= 2.0


def test_weakly_coupled_steady_state_still_solves():
    # control for the near-degenerate cases above: small but resolvable
    p = _params(omega=1.0, g0=1e-4, kappa=0.0)
    l = build_liouvillian(p, build_space(p, n_max=6))
    rho = steady_state(l)
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)


_FIG6 = dict(g0=10.0, omega=1.0, kappa=0.2, delta=100.0)
_FIG7 = dict(g0=10.0, omega=1.0, kappa=0.01)


@pytest.mark.parametrize("positions, system, n_max", [
    # near-dark three-atom point: <n> ~ 2e-8 and g2 ~ 2e7
    ((0.0, 1 / 3, 1 / 3), _FIG6, None),
    # fig7 near lambda/2, its last escalation step
    ((0.0, 100 / 201), _FIG7, 39),
    # a fig8 point at dim 48, <n> ~ 2e-8: the largest GMRES-LU gap seen
    ((0.0, 0.5), _FIG6, None),
    # small spaces take GMRES too: three atoms at n_max 4 (dim 40), and two
    # undriven ones at the default n_max 10 (dim 44)
    ((0.0, 0.37, 0.61), _FIG6, 4),
    ((0.0, 0.37), dict(_FIG6, omega=0.0), None),
], ids=["3atoms-near-dark", "fig7-n_max39", "fig8-dim48", "3atoms-dim40",
        "undriven-2atoms-dim44"])
def test_krylov_steady_state_matches_lu(positions, system, n_max, monkeypatch):
    p = _params(positions=positions, **system)
    l = build_liouvillian(p, build_space(p, n_max))
    real_gmres, gmres_calls = dynamics._gmres, []

    def counted(*args, **kwargs):
        gmres_calls.append(args)
        return real_gmres(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_gmres", counted)
    krylov = observables(steady_state(l), p)
    assert gmres_calls
    system = dynamics._TraceRowSystem(l)
    rho, residual = system.finish(system.first_pass())
    # the residual column's bits: L rho from L itself
    assert residual == float(np.linalg.norm(l.matrix @ rho.entries.reshape(-1)))
    x = spla.splu(_built_m(system).tocsc()).solve(system._e0)
    lu = observables(system.state(x), p)
    for name in ("i_at_total", "i_cav", "mean_n", "g2_zero"):
        assert getattr(krylov, name) == pytest.approx(getattr(lu, name),
                                                      rel=1e-6), name


@pytest.mark.parametrize(
    *test_krylov_steady_state_matches_lu.pytestmark[0].args,
    **test_krylov_steady_state_matches_lu.pytestmark[0].kwargs)
def test_first_pass_meets_the_true_residual(positions, system, n_max):
    # GMRES on m P^-1 stops on the residual of the contract, |e_0 - m x|,
    # not on |P^-1 (e_0 - m x)| as with P^-1 on the left
    p = _params(positions=positions, **system)
    l = build_liouvillian(p, build_space(p, n_max))
    system = dynamics._TraceRowSystem(l)
    x = system.first_pass()
    assert np.linalg.norm(system._e0 - system._matvec(x)) <= 1e-8


def _symmetry_maps(p, space):
    """{name: (the mapped params, rho -> the mapped state)} for the exact
    symmetries of the master equation; each keeps <a^dag a> and every pi_e.
    translation x_n -> x_n + 1: the pump gains the phase 2 pi cos(theta),
    and rho -> V rho V^dag with V = exp(2 pi i cos(theta) N), N the
    excitation number a^dag a + sum_n sig_n^dag sig_n, so <a> gains it too;
    half a period x_n -> x_n + 1/2: every g_n changes sign and the pump
    gains pi cos(theta), V = exp(i pi cos(theta) N) (-1)^(a^dag a), and
    <a> -> -exp(i pi cos(theta)) <a>; conjugation (Delta, delta_c, x_n) ->
    (-Delta, -delta_c, -x_n): rho -> S rho* S with S = (-1)^(sum_n
    sig_n^dag sig_n), and <a> -> <a>*."""
    a = annihilation(space).entries.real
    photons = np.rint(np.diag(a.T @ a))
    excited = np.rint(sum(np.diag(s.T @ s) for s in (
        atomic_lowering(space, n).entries.real for n in range(p.n_atoms))))
    turn = math.pi * math.cos(p.theta)
    sign = (-1.0) ** excited

    def unitary(v):
        return lambda rho: v[:, None] * rho * v.conj()[None, :]

    return {
        "translation": (
            replace(p, positions=tuple(x + 1 for x in p.positions)),
            unitary(np.exp(2j * turn * (photons + excited)))),
        "half-period": (
            replace(p, positions=tuple(x + 0.5 for x in p.positions)),
            unitary(np.exp(1j * turn * (photons + excited))
                    * (-1.0) ** photons)),
        "conjugation": (
            replace(p, delta=-p.delta, delta_c=-p.delta_c,
                    positions=tuple(-x for x in p.positions)),
            lambda rho: sign[:, None] * rho.conj() * sign[None, :]),
    }


def _seeded_params(seed, n_atoms):
    rng = np.random.default_rng(seed)
    return SystemParams(
        positions=tuple(rng.uniform(0, 1, n_atoms)), g0=rng.uniform(0.5, 2),
        omega=rng.uniform(0.2, 1), kappa=rng.uniform(0.1, 1),
        delta=rng.uniform(-2, 2), delta_c=rng.uniform(-2, 2),
        theta=rng.uniform(0, math.pi))


# Bounds on the largest entry of the difference, relative to the largest
# entry of the unmapped state (or of L v), set from 24 seeded systems per
# case and map: at most 2.1e-15 for steady states (N = 1 at n_max 30, N = 2
# at 12, N = 3 at 8), 1.1e-15 for evolve (N = 2, n_max 8, t = 2) and 3.3e-14
# for the generator at dim 220 (N = 2, n_max 54), where the phases on up to
# 56 excitations carry the rounding of 2 pi cos(theta).
@pytest.mark.parametrize("symmetry", ["translation", "half-period",
                                      "conjugation"])
@pytest.mark.parametrize("case, n_atoms, n_max, bound", [
    ("steady", 1, 30, 1e-13), ("steady", 2, 12, 1e-13),
    ("steady", 3, 8, 1e-13), ("evolve", 2, 8, 1e-13),
    ("generator", 2, 54, 1e-12),
], ids=["lu-1atom", "gmres-2atoms", "gmres-3atoms", "evolve-2atoms",
        "generator-dim220"])
def test_solutions_obey_the_model_symmetries(case, n_atoms, n_max, bound,
                                             symmetry, monkeypatch):
    p = _seeded_params(1400 + 10 * n_atoms + n_max, n_atoms)
    space = build_space(p, n_max)
    mapped, transform = _symmetry_maps(p, space)[symmetry]
    l, l_mapped = (build_liouvillian(q, space) for q in (p, mapped))
    if case == "generator":
        # no solve: the mapped system's L on the mapped vector is the map
        # of L v, which checks the assembly above dim 216
        v = np.random.default_rng(0).standard_normal((2, space.dim**2))
        v = (v[0] + 1j * v[1]).reshape(space.dim, space.dim)
        got = (l_mapped.matrix @ transform(v).reshape(-1)).reshape(v.shape)
        want = transform((l.matrix @ v.reshape(-1)).reshape(v.shape))
    elif case == "evolve":
        want = transform(evolve(ground_state(space), l, 2.0).entries)
        got = evolve(ground_state(space), l_mapped, 2.0).entries
    else:
        real_gmres, gmres_calls = dynamics._gmres, []

        def counted(*args):
            gmres_calls.append(args)
            return real_gmres(*args)

        monkeypatch.setattr(dynamics, "_gmres", counted)
        want = transform(steady_state(l).entries)
        got = steady_state(l_mapped).entries
        # one atom takes LU, more take GMRES
        assert bool(gmres_calls) == (n_atoms > 1)
    assert np.abs(got - want).max() <= bound * np.abs(want).max()


@pytest.mark.parametrize("kappa, certified", [
    (0.2, "structure"), (1e-12, "estimate"), (0.0, "estimate")])
def test_probe_runs_only_where_structure_and_scale_cannot_certify(
        kappa, certified, monkeypatch):
    real, estimated = dynamics._TraceRowSystem.estimate, []

    def counted(system):
        estimated.append(system.space.n_max)
        return real(system)

    monkeypatch.setattr(dynamics._TraceRowSystem, "estimate", counted)
    p = _params(positions=(0.0, 0.37), **dict(_FIG6, kappa=kappa))
    sol = solve_steady(p, n_max=11)
    assert sol.certified == certified
    assert estimated == ([] if certified == "structure" else [11])
    assert sol.condition <= dynamics.DEGENERACY_CONDITION_LIMIT


def test_slow_system_is_certified_by_its_own_paths_solve():
    # kappa ~ 1e-8 |m|_1 is too small for the structure bound, so the
    # estimate runs, on GMRES with the solve's own settings; GMRES at 1e-6
    # in three restart cycles stops short on this system
    p = SystemParams(
        positions=(0.8277025938204418, 0.4091991363691613,
                   0.5495936876730595),
        g0=3.8e-3, omega=3.0e-3, kappa=2.05e-6, delta=-57.0, delta_c=-90.0)
    sol = solve_steady(p, n_max=16)
    assert sol.certified == "estimate"
    assert sol.condition <= dynamics.DEGENERACY_CONDITION_LIMIT


def test_residual_contract_refuses_a_perturbed_state():
    # finish refines a perturbed first pass back, so the perturbation goes
    # into the solve itself, on both routes: one atom (LU) and two (GMRES)
    for positions in (0.0,), (0.0, 0.37):
        p = _params(positions=positions, kappa=0.5)
        l = build_liouvillian(p, build_space(p, n_max=6))
        system = dynamics._TraceRowSystem(l)
        x = system.first_pass()
        rho, residual = system.finish(x)
        # the residual column's bits: L rho from L itself
        assert residual == float(
            np.linalg.norm(l.matrix @ rho.entries.reshape(-1)))
        solve, noise = system._solve, np.random.default_rng(3)
        system._solve = lambda rhs: (
            solve(rhs) + 1e-6 * noise.standard_normal(rhs.shape))
        with pytest.raises(SteadyStateError, match="residual"):
            system.finish(x)


# A near-dark atom: the cavity field nearly cancels the pump on it.  An
# unrefined LU solve of it reads g2 = 11 574 at Omega = 0.00238 (true
# 3.754178) and a negative mean_n at Omega = 1e-7.
_NEAR_DARK = dict(positions=(0.5388,), g0=0.2141, kappa=2.0, delta=8.355,
                  delta_c=-4.309)


def _weak_drive_system(seed, n_atoms):
    rng = np.random.default_rng(seed)
    return dict(
        positions=tuple(rng.uniform(0, 1, n_atoms)),
        g0=10 ** rng.uniform(-1, 1), kappa=10 ** rng.uniform(-2, math.log10(5)),
        delta=rng.uniform(-10, 10), delta_c=rng.uniform(-10, 10),
        theta=rng.uniform(0, math.pi))


# As Omega -> 0, r = mean_n / Omega^2 and pi_e / Omega^2 tend to constants,
# and r moves by O(Omega^2) relative from one Omega to the next.  On the
# near-dark atom and 36 seeded systems (N = 1-3, 12 seeds each, the first
# three of which are tested) the move between neighbouring half decades was
# at most 45 Omega^2 |r| until the solves' absolute floor, which on
# populations of 1e-23 to 1e-16 was at most 1.1e-24 for GMRES (N = 2,
# Omega = 1.15e-9; 1.06e-24 there, and 9.9e-25 at N = 3, with the first
# pass right-preconditioned as with it left-preconditioned) and 4e-31 for
# LU.
_SCALING_C, _POPULATION_FLOOR = 100.0, 1e-22


@pytest.mark.parametrize("seed, n_atoms", [(None, 1)] + [
    (100 * n + s, n) for n in (1, 2, 3) for s in range(3)],
    ids=["lu-near-dark"] + [f"{'lu-1atom' if n == 1 else f'gmres-{n}atoms'}"
                            f"-seed{s}" for n in (1, 2, 3) for s in range(3)])
def test_weak_drive_populations_scale_as_omega_squared(seed, n_atoms):
    if seed is None:
        # the near-dark atom at its default n_max, Omega = 10^-1.5 ... 10^-7
        system, n_max = _NEAR_DARK, None
        omegas = 10.0 ** -np.arange(1.5, 7.01, 0.5)
    else:
        system, n_max = _weak_drive_system(seed, n_atoms), 4
        omegas = system["g0"] * 10.0 ** -np.arange(2, 8.01, 0.5)
    populations, g2 = [], []
    for omega in omegas:
        p = SystemParams(omega=omega, **system)
        obs = observables(solve_steady(p, n_max).rho, p)
        populations.append((obs.mean_n, obs.pi_e_per_atom.sum()))
        g2.append(obs.g2_zero)
    populations = np.array(populations)
    assert (populations > 0).all()
    r = populations / omegas[:, None] ** 2
    bound = np.maximum(_SCALING_C * omegas[:-1, None] ** 2 * r[:-1],
                       _POPULATION_FLOOR / omegas[1:, None] ** 2)
    assert (np.abs(np.diff(r, axis=0)) <= bound).all()
    assert all(g >= 0 for g in g2 if g is not None)
    if seed is None:
        # a dense LU solve refined three times reads 3.7541760519 at n_max
        # 11, 16 and 24; one refinement is 2.7e-10 off at the default 11
        assert g2[3] == pytest.approx(3.7541760519, rel=2e-9)


def _reachable_sparse(root, shape):
    """The sparse matrices of the given shape reachable from root through
    attributes, containers and closures (not modules, types or globals)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if sp.issparse(obj) and obj.shape == shape:
            found.append(obj)
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("positions", [(0.0,), (0.0, 0.37)],
                         ids=["lu", "gmres"])
def test_trace_row_system_is_freed_by_reference_counting(positions):
    # a sweep sets up thousands of these; held by a reference cycle, each
    # keeps L and its factors or preconditioner until the cyclic collector
    # runs.  The system holds L itself and no copy of it (the LU path drops
    # m once factored): at the largest truncations a copy would add tens of
    # MB to every solve
    p = _params(positions=positions, **_FIG6)
    l = build_liouvillian(p, build_space(p, n_max=3))
    gc.disable()
    try:
        system = dynamics._TraceRowSystem(l)
        assert system.lmat is l.matrix
        assert [id(found) for found in _reachable_sparse(
            system, l.matrix.shape)] == [id(l.matrix)]
        superoperator = weakref.ref(l)
        del l
        assert superoperator() is None
        system.finish(system.first_pass())
        freed = weakref.ref(system)
        del system
        assert freed() is None
    finally:
        gc.enable()


def test_escalation_releases_each_truncation_before_the_next(monkeypatch):
    # fig7 next to lambda/2: n_max 11 -> 17 -> 26 -> 39, each step
    # discarded; its system must be gone before the next L is built, so
    # that no two truncations' L are held at once
    real_system, real_build = (dynamics._TraceRowSystem,
                               dynamics.build_liouvillian)
    systems, alive = [], []

    def recorded(l):
        system = real_system(l)
        systems.append(weakref.ref(system))
        return system

    def build(params, space):
        alive.append([ref() is not None for ref in systems])
        return real_build(params, space)

    monkeypatch.setattr(dynamics, "_TraceRowSystem", recorded)
    monkeypatch.setattr(dynamics, "build_liouvillian", build)
    p = _params(positions=(0.0, 100 / 201), **_FIG7)
    gc.disable()
    try:
        with pytest.raises(TruncationEscalationError):
            solve_steady(p)
    finally:
        gc.enable()
    assert alive == [[], [False], [False] * 2, [False] * 3]


def test_one_atom_stays_on_lu_above_crossover(monkeypatch):
    # a strongly driven atom in a large Fock space: LU solves it, GMRES
    # with this preconditioner stalls
    p = _params(omega=3.0, g0=1.0, kappa=0.1)
    l = build_liouvillian(p, build_space(p, n_max=79))
    assert l.space.n_atoms == 1
    monkeypatch.setattr(dynamics, "_gmres", None)
    rho = steady_state(l)
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)


def test_undriven_many_atom_steady_state_is_ground():
    # the ground state is undamped in h_eff: the preconditioner has no
    # inverse there, and GMRES must still find it
    p = _params(positions=(0.0, 0.1, 0.2), omega=0.0, kappa=0.5)
    space = build_space(p, n_max=10)
    assert space.n_atoms >= 2
    rho = steady_state(build_liouvillian(p, space))
    ket = basis_state(space, "ggg", 0)
    assert fidelity_with_pure(rho, ket) == pytest.approx(1.0, abs=1e-12)


def test_evolve_zero_generator_is_identity_map():
    p = _params()
    space = build_space(p, n_max=2)
    l = Superoperator(space=space,
                      matrix=sp.csr_matrix((space.dim**2, space.dim**2)),
                      h_eff=np.zeros((space.dim, space.dim), dtype=complex))
    rho0 = DensityMatrix.pure(space, coherent_state(space, 0.4, atoms="g"))
    rho_t = evolve(rho0, l, 3.0)
    assert trace_distance(rho0, rho_t) < 1e-10


@pytest.mark.parametrize("t_final", [-2.0, math.inf, math.nan])
def test_evolve_refuses_a_negative_or_non_finite_time(t_final):
    p = _params()
    space = build_space(p, n_max=2)
    with pytest.raises(ValueError, match="t_final"):
        evolve(ground_state(space), build_liouvillian(p, space), t_final)


def test_evolve_at_zero_time_returns_the_state():
    p = _params()
    space = build_space(p, n_max=2)
    rho0 = DensityMatrix.pure(space, coherent_state(space, 0.4, atoms="g"))
    assert evolve(rho0, build_liouvillian(p, space), 0.0) is rho0


@pytest.mark.parametrize("t_final", [0.0, 1.0])
def test_evolve_refuses_a_state_on_another_space(t_final):
    # once "matmul: dimension mismatch" from inside scipy
    p = _params()
    l = build_liouvillian(p, build_space(p, n_max=3))
    with pytest.raises(SpaceMismatchError):
        evolve(ground_state(build_space(p, n_max=2)), l, t_final)


@pytest.mark.parametrize("state_atoms, params_atoms", [(1, 2), (2, 1)])
def test_observables_refuse_params_of_another_atom_count(state_atoms,
                                                         params_atoms):
    # once numbers, read off the wrong atoms' terms
    p = _params(positions=(0.0, 0.1)[:params_atoms])
    rho = ground_state(build_space(_params(positions=(0.0, 0.1)[:state_atoms]),
                                   n_max=2))
    with pytest.raises(SpaceMismatchError,
                       match="space atom count does not match params"):
        observables(rho, p)


def test_free_cavity_decay_exponential():
    p = _params(omega=0.0, g0=0.0, kappa=0.7)
    space = build_space(p, n_max=6)
    l = build_liouvillian(p, space)
    rho0 = DensityMatrix.pure(space, coherent_state(space, 1.0, atoms="g"))
    t = 1.3
    rho_t = evolve(rho0, l, t)
    n0 = observables(rho0, p).mean_n
    nt = observables(rho_t, p).mean_n
    assert nt == pytest.approx(n0 * np.exp(-p.kappa * t), rel=1e-6)


def test_long_time_evolution_matches_steady_state():
    p = _params(omega=1.0, g0=1.0, kappa=0.5)
    sol = solve_steady(p)
    l = build_liouvillian(p, sol.space)
    rho_t = evolve(ground_state(sol.space), l, 60.0)
    assert trace_distance(rho_t, sol.rho) < 1e-6


def test_evolve_bytes_do_not_depend_on_the_global_random_state():
    # at t = 60, |L t|_1 is about 1700: scipy's expm_multiply would size
    # its steps there by a norm estimate drawn from numpy's global generator
    p = _params(omega=1.0, g0=1.0, kappa=0.5)
    space = build_space(p)
    l = build_liouvillian(p, space)
    saved = np.random.get_state()
    results = []
    try:
        for seed in (0, 1):
            np.random.seed(seed)
            results.append(evolve(ground_state(space), l, 60.0).entries)
    finally:
        np.random.set_state(saved)
    assert results[0].tobytes() == results[1].tobytes()


# measured: 5.0e-16 (one atom) and 1.7e-16 (two); adaptive DOP853 at
# tolerances 1e-10 and 1e-12 gave 2.8e-12 and 2.2e-14
@pytest.mark.parametrize("positions, n_max, t1, t2", [
    ((0.0,), None, 7.0, 13.0),
    ((0.0, 0.1), 6, 1.5, 3.5),
], ids=["one_atom", "two_atoms"])
def test_evolve_composes_over_split_times(positions, n_max, t1, t2):
    p = _params(positions=positions, omega=1.0, g0=1.0, kappa=0.5)
    space = build_space(p, n_max)
    l = build_liouvillian(p, space)
    rho0 = ground_state(space)
    whole = evolve(rho0, l, t1 + t2)
    split = evolve(evolve(rho0, l, t1), l, t2)
    assert np.abs(whole.entries - split.entries).max() < 1e-13


def test_g2_of_coherent_and_fock_states():
    p = _params()
    space = build_space(p, n_max=8)
    coh = DensityMatrix.pure(space, coherent_state(space, -0.1, atoms="g"))
    assert observables(coh, p).g2_zero == pytest.approx(1.0, abs=1e-6)
    one = DensityMatrix.pure(space, basis_state(space, "g", 1))
    assert observables(one, p).g2_zero == pytest.approx(0.0, abs=1e-12)
    vac = ground_state(space)
    assert observables(vac, p).g2_zero is None


def test_emission_scaling_with_kappa():
    p0 = _params(omega=1.0, g0=10.0)
    kappas = np.array([0.01, 0.03, 0.1, 0.3])
    i_at, i_cav = [], []
    for k in kappas:
        p = _params(omega=1.0, g0=10.0, kappa=float(k))
        obs = observables(solve_steady(p).rho, p)
        i_at.append(obs.i_at_total)
        i_cav.append(obs.i_cav)
    slope_at = np.polyfit(np.log(kappas), np.log(i_at), 1)[0]
    slope_cav = np.polyfit(np.log(kappas), np.log(i_cav), 1)[0]
    assert slope_at == pytest.approx(2.0, abs=0.1)
    assert slope_cav == pytest.approx(1.0, abs=0.1)


def test_truncation_escalation_error_names_last_solve():
    # n_max 2 -> 3 -> 5 -> 8, and the tail is still too heavy at 8
    p = _params(omega=1.0, g0=1.0, kappa=0.1)
    rho = steady_state(build_liouvillian(p, build_space(p, n_max=8)))
    tail = fock_populations(rho)[-2:].sum()
    assert tail > dynamics.TAIL_POPULATION_LIMIT
    with pytest.raises(TruncationEscalationError) as info:
        solve_steady(p, n_max=2)
    assert f"Fock tail population {tail:.3e} at n_max=8 " in str(info.value)


def test_truncation_escalation():
    # beta = 1 needs far more than 4 Fock levels; the solver must escalate
    p = _params(omega=1.0, g0=1.0, kappa=0.1)
    sol = solve_steady(p, n_max=4)
    assert sol.escalations >= 1
    assert sol.n_max > 4


@pytest.fixture
def probes(monkeypatch):
    """The n_max of each certificate (condition) taken, in order."""
    seen = []
    real = dynamics._TraceRowSystem.condition

    def counted(system):
        seen.append(system.space.n_max)
        return real(system)

    monkeypatch.setattr(dynamics._TraceRowSystem, "condition", counted)
    return seen


def test_accepted_escalation_certifies_first_and_returned_truncation(
        probes, monkeypatch):
    # fig7 off the lambda/2 band: GMRES at n_max 11 (dim 48), accepted at 17
    real, preconditioned = dynamics._no_jump_inverse, []

    def counted(h_eff):
        preconditioned.append(h_eff.shape[0])
        return real(h_eff)

    monkeypatch.setattr(dynamics, "_no_jump_inverse", counted)
    p = _params(positions=(0.0, 0.37), **_FIG7)
    sol = solve_steady(p)
    assert (sol.escalations, sol.n_max, sol.certified) == (1, 17, "structure")
    assert probes == [11, 17]
    assert preconditioned == [48, 72]
    assert sol.condition <= dynamics.DEGENERACY_CONDITION_LIMIT
    with dynamics._one_blas_thread():
        rho = steady_state(build_liouvillian(p, build_space(p, n_max=17)))
    assert np.array_equal(sol.rho.entries, rho.entries)


def test_failed_escalation_certifies_only_the_first_truncation(probes):
    # fig7 next to lambda/2: n_max 11 -> 17 -> 26 -> 39, tail still too heavy
    p = _params(positions=(0.0, 100 / 201), **_FIG7)
    with pytest.raises(TruncationEscalationError):
        solve_steady(p)
    assert probes == [11]


@pytest.mark.parametrize("x2, dims", [
    # at kappa > 0 no truncation is probed; each discarded step is solved
    # once, with no refinement
    (100 / 201, [48, 72, 108, 160]),
    # the returned step is solved and refined
    (0.37, [48, 72, 72]),
], ids=["failed", "accepted"])
def test_discarded_escalation_step_is_solved_once(x2, dims, monkeypatch):
    real, seen = dynamics._gmres, []

    def counted(m, *args, **kwargs):
        seen.append(math.isqrt(m.shape[0]))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_gmres", counted)
    p = _params(positions=(0.0, x2), **_FIG7)
    with contextlib.suppress(TruncationEscalationError):
        solve_steady(p)
    assert seen == dims


_TAIL_CASES = {
    "100/201": dict(positions=(0.0, 100 / 201), **_FIG7),
    "110/201": dict(positions=(0.0, 110 / 201), **_FIG7),
    "1atom-omega3": dict(g0=1.0, omega=3.0, kappa=0.1),
    "1atom-g0.3": dict(g0=0.3, omega=1.0, kappa=0.1),
}


@pytest.mark.parametrize("n_max, case", [
    (n_max, case) for n_max in (11, 17, 26, 37) for case in _TAIL_CASES
    if n_max < 37 or case.startswith("1atom")], ids=str)
def test_refinement_moves_the_fock_tail_far_less_than_its_limit(n_max, case):
    # solve_steady discards a step on its first-pass tail; the refinement
    # moved that tail by at most 1.25e-9 on the fig7 lambda/2 band (x2 =
    # 95, 100, 105 and 110/201, n_max 11 to 39, GMRES), and by at most
    # 1.9e-16 on the strongly driven atoms here (LU)
    p = _params(**_TAIL_CASES[case])
    with dynamics._one_blas_thread():
        system = dynamics._TraceRowSystem(
            build_liouvillian(p, build_space(p, n_max)))
        x = system.first_pass()
        first = fock_populations(system.state(x))[-2:].sum()
        refined = fock_populations(system.finish(x)[0])[-2:].sum()
    limit = dynamics.TAIL_POPULATION_LIMIT
    assert (first < limit) == (refined < limit)
    assert abs(first - refined) < limit / 4


def test_solve_steady_refuses_an_empty_fock_space():
    # ceil(0 * 1.5) = 0: escalation would solve the zero-photon space again
    with pytest.raises(ValueError, match="n_max"):
        solve_steady(_params(), n_max=0)


def test_solve_steady_detects_degeneracy_at_the_first_truncation(probes):
    p = _params(positions=(0.0, 0.0), omega=0.0, g0=0.0, kappa=0.0)
    with pytest.raises(DegenerateSteadyStateError):
        solve_steady(p, n_max=11)
    assert probes == [11]


def test_trace_row_matrix_matches_the_product_form():
    p = SystemParams(positions=(0.0, 0.37), g0=10.0, omega=1.0, kappa=0.0,
                     delta=0.0)
    l = build_liouvillian(p, build_space(p, n_max=3))
    dim, side = l.space.dim, l.matrix.shape[0]
    trace_row = sp.csr_matrix((np.ones(dim), (np.zeros(dim, dtype=int),
                                              np.arange(dim) * (dim + 1))),
                              shape=(side, side))
    reference = sp.diags(np.r_[0.0, np.ones(side - 1)]) @ l.matrix + trace_row
    m = dynamics._trace_row_matrix(l.matrix, dim)
    assert m.nnz == reference.nnz
    assert abs(m - reference).max() == 0.0
    assert not np.shares_memory(m.indices, l.matrix.indices)


def test_observables_match_dense_expectations():
    from drivencavity.operators import (annihilation, atomic_lowering,
                                        expectation)
    p = SystemParams(positions=(0.1, 0.3), g0=1.0, omega=1.0, kappa=0.4)
    space = build_space(p, n_max=4)
    rng = np.random.default_rng(5)
    shape = (space.dim, space.dim)
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = m @ m.conj().T
    rho = DensityMatrix.from_matrix(space, m / np.trace(m).real)
    obs = observables(rho, p)
    a = annihilation(space)
    n = expectation(a.dag() @ a, rho).real
    assert obs.mean_n == pytest.approx(n, rel=1e-14)
    assert obs.alpha == pytest.approx(expectation(a, rho), rel=1e-14)
    n2 = expectation(a.dag() @ a.dag() @ a @ a, rho).real
    assert obs.g2_zero == pytest.approx(n2 / n**2, rel=1e-14)
    for k in range(2):
        sig = atomic_lowering(space, k)
        assert obs.pi_e_per_atom[k] == pytest.approx(
            expectation(sig.dag() @ sig, rho).real, rel=1e-14)


def test_solve_steady_runs_on_one_blas_thread(monkeypatch):
    controls = dynamics._blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread-count symbols in this process")
    seen = []
    real = dynamics._TraceRowSystem

    def recorded(l):
        seen.append([get() for get, _ in controls])
        return real(l)

    monkeypatch.setattr(dynamics, "_TraceRowSystem", recorded)
    original = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        solve_steady(_params(), n_max=4)
        assert seen and seen == [[1] * len(controls)] * len(seen)
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, set_), n in zip(controls, original):
            set_(n)


def test_overlapping_blas_blocks_restore_the_count():
    controls = dynamics._blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread-count symbols in this process")
    original = [get() for get, _ in controls]
    first, second = dynamics._one_blas_thread(), dynamics._one_blas_thread()
    try:
        for _, set_ in controls:
            set_(2)
        # two solves in two threads: the first to start ends first
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert [get() for get, _ in controls] == [1] * len(controls)
        second.__exit__(None, None, None)
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, set_), n in zip(controls, original):
            set_(n)
