import math

import numpy as np
import pytest

from drivencavity.model import (
    RegimeWarning,
    SystemParams,
    beta_profile,
    build_hamiltonian,
    build_liouvillian,
    build_space,
)
from drivencavity.dynamics import evolve
from drivencavity.operators import (
    DensityMatrix,
    annihilation,
    atomic_lowering,
    coherent_state,
    displacement,
    expectation,
    trace_distance,
)
from drivencavity.perturbative import (
    biorthogonal_eigensystem,
    displaced_effective_hamiltonian,
    dressed_eigenvalues,
    perturbative_state,
    small_kappa_rates,
)


def _params(**kw):
    base = dict(positions=(0.0,), g0=10.0, omega=1.0, kappa=1e-3)
    base.update(kw)
    return SystemParams(**base)


# ------------------------------------------- effective Hamiltonian -------

def test_perturbation_reduces_without_pump():
    p = _params(omega=0.0)
    space = build_space(p, n_max=6)
    _, v = displaced_effective_hamiltonian(p, space)
    a = annihilation(space)
    expected = (a.dag() @ a).entries * (-0.5j)
    assert np.max(np.abs(v.entries - expected)) < 1e-12


def test_h0_jaynes_cummings_element():
    p = _params()
    space = build_space(p, n_max=4)
    h0, _ = displaced_effective_hamiltonian(p, space)
    i_e0 = space.fock_dim
    assert h0.entries[i_e0, 1] == pytest.approx(p.g0)


def test_displaced_frame_consistency():
    # D^dag (H - i kappa/2 a^dag a - i gamma/2 sig^dag sig) D must equal
    # the effective Hamiltonian H0 + kappa V built directly
    p = _params(kappa=0.1, omega=1.0, g0=10.0)
    space = build_space(p, n_max=20)
    h0, v = displaced_effective_hamiltonian(p, space)
    h = build_hamiltonian(p, space)
    a = annihilation(space)
    sig = atomic_lowering(space, 0)
    h_nh = h.entries - 0.5j * p.kappa * (a.dag() @ a).entries \
        - 0.5j * p.gamma * (sig.dag() @ sig).entries
    d = displacement(space, beta_profile(0.0, p)).entries
    lhs = d.conj().T @ h_nh @ d
    rhs = h0.entries + p.kappa * v.entries
    # compare away from the truncation edge, where D is not exactly unitary
    keep = np.concatenate([np.arange(12), space.fock_dim + np.arange(12)])
    assert np.max(np.abs((lhs - rhs)[np.ix_(keep, keep)])) < 1e-7


# --------------------------------------------------- dressed spectrum ----

def test_dressed_eigenvalues_limits():
    p = _params(g0=1.0, gamma=1e-12)
    lp, lm = dressed_eigenvalues(1, p)
    assert lp.real == pytest.approx(1.0, abs=1e-6)
    assert lm.real == pytest.approx(-1.0, abs=1e-6)

    p = _params(g0=1.0)
    lp, lm = dressed_eigenvalues(1, p)
    assert lp == pytest.approx(np.sqrt(3.75) / 2 - 0.25j, abs=1e-12)
    assert lm == pytest.approx(-np.sqrt(3.75) / 2 - 0.25j, abs=1e-12)


def test_dressed_eigenvalue_imaginary_sum():
    for delta in (0.0, -2.0, 5.0):
        p = _params(g0=3.0, delta=delta)
        for n in (1, 2, 5):
            lp, lm = dressed_eigenvalues(n, p)
            assert lp.imag + lm.imag == pytest.approx(-p.gamma / 2, abs=1e-10)


@pytest.mark.parametrize("g0, delta, n", [
    (3.0, -2.0, 1),
    (3.0, 5.0, 2),
    # 4 g^2 n < gamma^2/4: overdamped, the root starts on the branch cut
    (0.1, -3.0, 1),
    (0.1, 3.0, 5),
], ids=["underdamped-neg", "underdamped-pos", "overdamped-neg",
        "overdamped-pos"])
def test_dressed_eigenvalues_continue_from_zero_detuning(g0, delta, n):
    # each root is followed as delta moves from 0: a swapped pair would
    # jump by |lambda_+ - lambda_-| between neighbouring detunings
    path = np.array([dressed_eigenvalues(n, _params(g0=g0, delta=float(d)))
                     for d in np.linspace(0.0, delta, 3001)])
    assert np.abs(np.diff(path, axis=0)).max() < 0.01


# ------------------------------------------------------- biorthogonal ----

def test_biorthogonal_hermitian_input():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    m = m + m.T
    sys_ = biorthogonal_eigensystem(m)
    assert np.max(np.abs(sys_.eigenvalues.imag)) < 1e-10
    for i in range(6):
        r = sys_.right_vectors[:, i]
        lft = sys_.left_vectors[:, i]
        overlap = abs(np.vdot(lft, r))
        assert overlap == pytest.approx(1.0, abs=1e-8)
    assert sys_.completeness_residual() < 1e-8


def test_h0_block_spectrum_matches_closed_form():
    p = _params(g0=1.0)
    space = build_space(p, n_max=5)
    h0, _ = displaced_effective_hamiltonian(p, space)
    sys_ = biorthogonal_eigensystem(h0.entries)
    for n in range(1, space.n_max + 1):
        for lam in dressed_eigenvalues(n, p):
            match = min(abs(lam - e) for e in sys_.eigenvalues)
            assert match < 1e-8
    assert sys_.completeness_residual() < 1e-8


# --------------------------------------------------- state expansion -----

def test_expansion_initial_condition():
    p = _params()
    for order in (0, 1, 2):
        ps = perturbative_state(p, t=0.0, order=order)
        rho = ps.assemble(p.kappa)
        ket = coherent_state(rho.space, beta_profile(0.0, p), atoms="g")
        ref = DensityMatrix.pure(rho.space, ket)
        assert trace_distance(rho, ref) < 1e-10


def test_expansion_trace_one():
    p = _params(kappa=1e-2)
    for t in (1.0, 5.0, 10.0):  # kappa * t <= 0.1
        ps = perturbative_state(p, t=t, order=2)
        rho = ps.assemble(p.kappa)
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("g0, omega, t", [
    (10.0, 1.0, 10.0),
    # g0 = gamma/4: the one-excitation block of H0 is an exceptional point
    (0.25, 0.05, 5.0),
], ids=["g0_10", "exceptional_point"])
def test_expansion_matches_exact_evolution(g0, omega, t):
    p = _params(g0=g0, omega=omega, kappa=1e-3)
    ps = perturbative_state(p, t=t, order=2)
    rho_p = ps.assemble(p.kappa)
    space = build_space(p, ps.space.n_max)
    l = build_liouvillian(p, space)
    ket = coherent_state(space, beta_profile(0.0, p), atoms="g")
    rho_e = evolve(DensityMatrix.pure(space, ket), l, t)
    assert trace_distance(rho_p, rho_e) < 1e-4


def test_fluorescence_scales_quadratically_in_kappa():
    p = _params()
    ps = perturbative_state(p, t=10.0, order=2)
    space = ps.space
    sig = atomic_lowering(space, 0)
    proj = sig.dag() @ sig
    kappas = np.array([1e-4, 1e-3, 1e-2])
    i_at = [p.gamma * expectation(proj, ps.assemble(k)).real for k in kappas]
    slope = np.polyfit(np.log(kappas), np.log(i_at), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


# ------------------------------------------------------- closed rates ----

def test_small_kappa_rate_values():
    p = _params(kappa=1.0)
    r = small_kappa_rates(p)
    assert r.c1 == pytest.approx(200.0)
    assert r.i_at == pytest.approx(2.5e-5)
    assert r.i_cav == pytest.approx(9.975e-3)
    # algebraic identity of the two rates
    assert r.i_at + r.i_cav == pytest.approx(
        p.kappa * p.omega**2 / p.g0**2, rel=1e-12)


def test_small_kappa_rates_at_zero_kappa_are_the_limit():
    # once a ZeroDivisionError
    assert small_kappa_rates(_params(kappa=0.0)) == (0.0, 0.0, math.inf)


def test_small_kappa_rates_match_exact():
    from drivencavity.dynamics import observables, solve_steady
    p = _params(kappa=1.0)
    obs = observables(solve_steady(p).rho, p)
    r = small_kappa_rates(p)
    assert obs.i_at_total == pytest.approx(r.i_at, rel=0.2)
    assert obs.i_cav == pytest.approx(r.i_cav, rel=0.2)


def test_small_kappa_rates_regime_warning():
    with pytest.warns(RegimeWarning):
        small_kappa_rates(_params(delta=3.0))
