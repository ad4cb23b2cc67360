import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from drivencavity.collective import PatternSpec, semiclassical_force
from drivencavity.dynamics import solve_steady
from drivencavity.model import (
    NodePositionError,
    SystemParams,
    Superoperator,
    beta_profile,
    build_hamiltonian,
    build_liouvillian,
    build_space,
    free_space_fluorescence,
    mode_function,
    term_plan,
)
from drivencavity.operators import (
    SpaceDescriptor,
    annihilation,
    atomic_lowering,
    basis_state,
    coherent_state,
    displacement,
)
from drivencavity.perturbative import (
    displaced_effective_hamiltonian,
    dressed_eigenvalues,
    perturbative_state,
    small_kappa_rates,
)
from drivencavity.spectrum import (
    ProbeParams,
    excitation_spectrum,
    resonances,
    transition_amplitude,
)


def apply_superoperator(l: Superoperator, rho: np.ndarray) -> np.ndarray:
    """d rho/dt as a matrix, for a matrix-valued rho."""
    dim = l.space.dim
    return (l.matrix @ rho.reshape(-1)).reshape(dim, dim)


def _params(**kw):
    base = dict(positions=(0.0,), g0=1.0, omega=0.0, kappa=0.0)
    base.update(kw)
    return SystemParams(**base)


def test_jaynes_cummings_coupling_element():
    p = _params()
    space = build_space(p, n_max=2)
    h = build_hamiltonian(p, space).entries
    i_e0 = space.fock_dim  # |e, n=0> follows the |g, n> block
    i_g1 = 1
    assert h[i_e0, i_g1] == pytest.approx(1.0)


def test_perpendicular_pump_has_zero_phases():
    p = SystemParams(positions=(0.13, 0.77, 0.5), g0=1.0, omega=1.0,
                     kappa=0.0, theta=math.pi / 2)
    g_n, phi_n = mode_function(np.asarray(p.positions), p)
    assert np.allclose(phi_n, 0.0, atol=1e-12)
    assert np.all(np.abs(g_n) <= p.g0 + 1e-15)


def test_hamiltonian_hermitian_random_params():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = SystemParams(
            positions=tuple(rng.uniform(0, 1, size=2)),
            g0=rng.uniform(0.1, 5), omega=rng.uniform(0, 3),
            kappa=rng.uniform(0, 1), delta=rng.normal(),
            delta_c=rng.normal(), theta=rng.uniform(0, math.pi))
        space = build_space(p, n_max=3)
        h = build_hamiltonian(p, space).entries
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_translation_by_one_wavelength():
    p1 = SystemParams(positions=(0.1, 0.6), g0=2.0, omega=1.0, kappa=0.3)
    p2 = SystemParams(positions=(1.1, 1.6), g0=2.0, omega=1.0, kappa=0.3)
    space = build_space(p1, n_max=3)
    h1 = build_hamiltonian(p1, space).entries
    h2 = build_hamiltonian(p2, space).entries
    assert np.max(np.abs(h1 - h2)) < 1e-12


def test_liouvillian_preserves_trace_and_hermiticity():
    p = _params(omega=0.7, kappa=0.4, delta=0.5, delta_c=-0.2)
    space = build_space(p, n_max=2)
    l = build_liouvillian(p, space)
    rng = np.random.default_rng(11)
    dim = space.dim
    for _ in range(100):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m + m.conj().T
        drho = apply_superoperator(l, rho)
        assert abs(np.trace(drho)) < 1e-10
        assert np.max(np.abs(drho - drho.conj().T)) < 1e-12


def test_undriven_ground_state_is_stationary():
    p = _params(omega=0.0, kappa=0.5, g0=2.0)
    space = build_space(p, n_max=3)
    l = build_liouvillian(p, space)
    rho = np.outer(basis_state(space, "g", 0),
                   basis_state(space, "g", 0).conj())
    assert np.max(np.abs(apply_superoperator(l, rho))) < 1e-14


def test_bare_cavity_decay_rate():
    p = _params(g0=0.0, omega=0.0, kappa=1.0)
    space = build_space(p, n_max=3)
    l = build_liouvillian(p, space)
    one = basis_state(space, "g", 1)
    rho = np.outer(one, one.conj())
    drho = apply_superoperator(l, rho)
    n_op = np.zeros((space.dim, space.dim))
    for n in range(space.fock_dim):
        n_op[n, n] = n
        n_op[space.fock_dim + n, space.fock_dim + n] = n
    dn_dt = np.trace(n_op @ drho).real
    assert dn_dt == pytest.approx(-1.0, abs=1e-12)


def test_dark_state_is_stationary():
    p = _params(omega=1.0, g0=10.0)
    space = build_space(p, n_max=10)
    l = build_liouvillian(p, space)
    beta = beta_profile(0.0, p)
    ket = coherent_state(space, beta, atoms="g")
    rho = np.outer(ket, ket.conj())
    assert np.max(np.abs(apply_superoperator(l, rho))) < 1e-9


def test_beta_profile_values_and_periodicity():
    p = _params(omega=1.0, g0=10.0)
    assert beta_profile(0.0, p) == pytest.approx(-0.1)
    x = 0.37
    assert beta_profile(x, p) == pytest.approx(beta_profile(x + 1.0, p))
    with pytest.raises(NodePositionError):
        beta_profile(0.25, p)


def test_node_atoms_allowed_in_builder():
    p = SystemParams(positions=(0.25,), g0=1.0, omega=1.0, kappa=0.1)
    space = build_space(p, n_max=2)
    h = build_hamiltonian(p, space).entries
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


# one atom at x = 1/4, where g = g0 cos(pi/2) is 6e-16 g0 in floating point
_AT_NODE = SystemParams(positions=(0.25,), g0=10.0, omega=1.0, kappa=0.0)


@pytest.mark.parametrize("closed_form", [
    lambda p: small_kappa_rates(replace(p, kappa=0.1)),
    lambda p: transition_amplitude(1.0, p, ProbeParams(1e-3)),
    lambda p: excitation_spectrum(1.0, p, ProbeParams(1e-3)),
    resonances,
    lambda p: displaced_effective_hamiltonian(p, build_space(p, n_max=4)),
    lambda p: perturbative_state(p, t=1.0, n_max=4),
    lambda p: beta_profile(p.positions[0], p),
], ids=["small_kappa_rates", "transition_amplitude", "excitation_spectrum",
        "resonances", "displaced_effective_hamiltonian", "perturbative_state",
        "beta_profile"])
def test_one_atom_closed_forms_raise_at_a_node(closed_form):
    with pytest.raises(ValueError):
        closed_form(_AT_NODE)


def test_free_space_fluorescence():
    p = _params(omega=1.0, delta=0.0)
    # gamma * (Omega^2/2) / (Delta^2 + gamma^2/4 + Omega^2/2)
    assert free_space_fluorescence(p) == pytest.approx(0.5 / 0.75)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(positions=(), g0=1.0, omega=1.0, kappa=0.0)
    with pytest.raises(ValueError):
        SystemParams(positions=(0.0,), g0=1.0, omega=1.0, kappa=-0.1)


def _reference(params, space):
    """(H, h_eff, L) from Kronecker products of the full operators."""
    g_n, phi_n = mode_function(np.asarray(params.positions), params)
    a = annihilation(space).entries
    h = -params.delta_c * (a.conj().T @ a)
    collapses = []
    for n in range(params.n_atoms):
        sig = atomic_lowering(space, n).entries
        drive = params.omega * np.exp(1j * phi_n[n])
        h = (h - params.delta * (sig.conj().T @ sig)
             + g_n[n] * (a @ sig.conj().T + a.conj().T @ sig)
             + drive * sig.conj().T + np.conj(drive) * sig)
        collapses.append((params.gamma, sig))
    if params.kappa != 0:
        collapses.append((params.kappa, a))
    h_eff = h.copy()
    for rate, c in collapses:
        h_eff = h_eff - 0.5j * rate * (c.conj().T @ c)
    hs = sp.csr_matrix(h_eff)
    eye = sp.identity(space.dim, dtype=complex, format="csr")
    lmat = -1j * (sp.kron(hs, eye, format="csr")
                  - sp.kron(eye, hs.conj(), format="csr"))
    for rate, c in collapses:
        c = sp.csr_matrix(c)
        lmat = lmat + rate * sp.kron(c, c.conj(), format="csr")
    return h, h_eff, lmat.tocsr()


def _assert_matches_reference(params, space):
    h, h_eff, lmat = _reference(params, space)
    l = build_liouvillian(params, space)
    assert l.matrix.nnz == lmat.nnz
    assert abs(l.matrix - lmat).max() <= 1e-14 * max(1.0, abs(lmat).max())
    assert (np.abs(l.h_eff - h_eff).max()
            <= 1e-14 * max(1.0, np.abs(h_eff).max()))
    h_plan = build_hamiltonian(params, space).entries
    assert np.abs(h_plan - h).max() <= 1e-14 * max(1.0, np.abs(h).max())


@pytest.mark.parametrize("params, n_max", [
    (SystemParams(positions=(0.1,), g0=1.0, omega=1.0, kappa=0.5), 6),
    (SystemParams(positions=(0.0,), g0=2.0, omega=0.7, kappa=0.0,
                  delta=0.0, delta_c=0.0), 5),
    (SystemParams(positions=(0.0, 0.37), g0=10.0, omega=1.0, kappa=0.2,
                  delta=100.0), 11),
    (SystemParams(positions=(0.25, 0.6), g0=1.0, omega=1.0, kappa=0.0,
                  delta=0.0, delta_c=0.0), 4),
    (SystemParams(positions=(0.1, 0.3, 0.7), g0=2.0, omega=1.0, kappa=0.3,
                  delta=0.3, delta_c=-0.2, theta=1.0), 3),
    (SystemParams(positions=(0.0, 1 / 3, 0.75), g0=1.0, omega=1.0,
                  kappa=0.0, delta=0.0, delta_c=0.0, theta=0.4), 3),
    # dim 222: the entry keys row * dim**3 + ... pass 2**31
    (SystemParams(positions=(0.1,), g0=1.0, omega=8.0, kappa=0.5), 110),
], ids=["1atom", "1atom-kappa0-resonant", "2atoms-fig8",
        "2atoms-node-kappa0", "3atoms-theta1",
        "3atoms-node-kappa0-theta", "1atom-dim222"])
def test_plan_matches_kronecker_reference(params, n_max):
    _assert_matches_reference(params, build_space(params, n_max))


def test_plan_serves_kappa_zero_then_positive():
    zero = SystemParams(positions=(0.0, 0.37), g0=10.0, omega=1.0,
                        kappa=0.0, delta=0.0, delta_c=0.0)
    space = build_space(zero, n_max=4)
    _assert_matches_reference(zero, space)
    _assert_matches_reference(
        SystemParams(positions=(0.0, 0.37), g0=10.0, omega=1.0, kappa=0.2),
        space)


def test_mutating_a_built_matrix_leaves_the_next_build():
    p = SystemParams(positions=(0.1, 0.4), g0=1.0, omega=1.0, kappa=0.0,
                     delta=0.0, delta_c=0.0)
    space = build_space(p, n_max=3)
    first = build_liouvillian(p, space)
    expected = first.matrix.copy()
    first.matrix.data[:] = 0.0
    first.matrix.eliminate_zeros()
    first.matrix.indices[:] = 0
    first.h_eff[:] = np.nan
    build_hamiltonian(p, space).entries[:] = np.nan
    again = build_liouvillian(p, space)
    assert again.matrix.nnz == expected.nnz
    assert abs(again.matrix - expected).max() == 0.0
    assert np.isfinite(again.h_eff).all()
    _assert_matches_reference(p, space)


def test_cached_plan_is_read_only():
    plan = term_plan(build_space(_params(), n_max=2))
    arrays = [plan.h_rows, plan.h_cols, plan.h_terms, plan.l_indices,
              plan.l_indptr, plan.left, plan.right, *plan.jumps]
    for op in plan.collapses:
        arrays += [op.row, op.col, op.data]
    for array in arrays:
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        plan.collapses[0].data[0] = 1.0


@pytest.mark.parametrize("field, value", [
    ("g0", math.nan), ("omega", math.inf), ("kappa", math.nan),
    ("delta", math.nan), ("delta_c", -math.inf), ("theta", math.nan),
    ("gamma", math.inf), ("positions", (0.0, math.nan)),
])
def test_non_finite_parameter_is_rejected(field, value):
    kw = dict(positions=(0.0, 0.25), g0=1.0, omega=1.0, kappa=0.1)
    kw[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SystemParams(**kw)


_NAN, _INF = math.nan, math.inf
_ONE_ATOM = dict(positions=(0.0,), g0=10.0, omega=1.0, kappa=1e-3)


@pytest.mark.parametrize("call, name", [
    (lambda: perturbative_state(SystemParams(**_ONE_ATOM), t=_NAN), "t"),
    (lambda: perturbative_state(SystemParams(**_ONE_ATOM), t=_INF), "t"),
    (lambda: perturbative_state(SystemParams(**_ONE_ATOM), t=-1.0), "t"),
    (lambda: beta_profile(_NAN, SystemParams(**_ONE_ATOM)), "x"),
    (lambda: displacement(SpaceDescriptor(1, 8), _NAN), "beta"),
    (lambda: coherent_state(SpaceDescriptor(1, 8), complex(0.0, _INF)),
     "beta"),
    (lambda: semiclassical_force(0.1, _NAN, SystemParams(**_ONE_ATOM)),
     "alpha"),
    (lambda: semiclassical_force(_NAN, 0.5, SystemParams(**_ONE_ATOM)),
     "x_n"),
    (lambda: semiclassical_force(-_INF, 0.5, SystemParams(**_ONE_ATOM)),
     "x_n"),
], ids=["perturbative-t-nan", "perturbative-t-inf", "perturbative-t-negative",
        "beta-x-nan", "displacement-nan", "coherent-inf", "force-alpha-nan",
        "force-x-nan", "force-x-inf"])
def test_entry_points_refuse_a_non_finite_input(call, name):
    # each once returned nan, or at t < 0 a state that evolve refuses; a nan
    # x_n failed with "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: SpaceDescriptor(1, 2.5), "n_max"),
    (lambda: SpaceDescriptor(1, _NAN), "n_max"),
    (lambda: SpaceDescriptor(1.0, 2), "n_atoms"),
    (lambda: SpaceDescriptor(True, 2), "n_atoms"),
    (lambda: solve_steady(SystemParams(**_ONE_ATOM), n_max=2.5), "n_max"),
    (lambda: PatternSpec(_NAN), "n_atoms"),
    (lambda: PatternSpec(2.5), "n_atoms"),
    (lambda: dressed_eigenvalues(_NAN, SystemParams(**_ONE_ATOM)), "n"),
    (lambda: dressed_eigenvalues(2.0, SystemParams(**_ONE_ATOM)), "n"),
], ids=["space-n_max-half", "space-n_max-nan", "space-n_atoms-float",
        "space-n_atoms-bool", "solve-n_max-half", "pattern-nan",
        "pattern-half", "dressed-nan", "dressed-float"])
def test_sizes_must_be_integers(call, name):
    # each was once accepted, with a nan or a fractional dimension
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


def test_numpy_integers_are_sizes():
    space = SpaceDescriptor(np.int64(2), np.int32(3))
    assert space.dim == 16 and space == SpaceDescriptor(2, 3)
    assert PatternSpec(np.int64(3)).n_atoms == 3
    p = SystemParams(**_ONE_ATOM)
    assert dressed_eigenvalues(np.int64(2), p) == dressed_eigenvalues(2, p)
