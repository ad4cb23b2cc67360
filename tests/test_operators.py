import math

import numpy as np
import pytest
import scipy.special

from drivencavity.operators import (
    DensityMatrix,
    SpaceDescriptor,
    SpaceMismatchError,
    TruncationError,
    annihilation,
    atomic_lowering,
    basis_state,
    coherent_state,
    displacement,
    embed,
    expectation,
    fidelity_with_pure,
    fock_populations,
    identity,
    trace_distance,
)


def test_annihilation_matrix_elements():
    a = annihilation(SpaceDescriptor(n_atoms=0, n_max=1)).entries
    assert a.shape == (2, 2)
    assert a[0, 1] == 1.0
    assert np.count_nonzero(a) == 1

    a2 = annihilation(SpaceDescriptor(n_atoms=0, n_max=2)).entries
    assert a2[1, 2] == pytest.approx(np.sqrt(2))


def test_number_operator_diagonal():
    space = SpaceDescriptor(n_atoms=0, n_max=3)
    a = annihilation(space)
    n = (a.dag() @ a).entries
    assert np.allclose(np.diag(n), [0, 1, 2, 3])
    assert np.allclose(n - np.diag(np.diag(n)), 0)


def test_ladder_commutator_below_truncation():
    space = SpaceDescriptor(n_atoms=0, n_max=7)
    a = annihilation(space)
    comm = (a @ a.dag() - a.dag() @ a).entries
    # the top level of the truncated ladder is the only deviation
    assert np.allclose(np.diag(comm)[: space.n_max], 1.0, atol=1e-14)


def test_atomic_lowering_single_atom():
    space = SpaceDescriptor(n_atoms=1, n_max=0)
    sig = atomic_lowering(space, 0)
    proj = (sig.dag() @ sig).entries
    assert np.allclose(proj, np.diag([0.0, 1.0]))


def test_atomic_operators_commute_and_nilpotent():
    space = SpaceDescriptor(n_atoms=2, n_max=1)
    s1 = atomic_lowering(space, 0)
    s2 = atomic_lowering(space, 1)
    assert np.allclose((s1 @ s2 - s2 @ s1).entries, 0)
    assert np.allclose((s1 @ s1).entries, 0)


def test_embedding_composes():
    space = SpaceDescriptor(n_atoms=2, n_max=2)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = embed(space, atom_ops={1: a @ b})
    rhs = embed(space, atom_ops={1: a}) @ embed(space, atom_ops={1: b})
    assert np.allclose(lhs.entries, rhs.entries)


def test_displacement_zero_is_identity():
    space = SpaceDescriptor(n_atoms=0, n_max=5)
    d = displacement(space, 0.0)
    assert np.allclose(d.entries, identity(space).entries)


def test_displaced_vacuum_mean_field():
    space = SpaceDescriptor(n_atoms=0, n_max=10)
    ket = coherent_state(space, -0.1)
    rho = DensityMatrix.pure(space, ket)
    a = annihilation(space)
    assert expectation(a, rho) == pytest.approx(-0.1, abs=1e-8)
    assert expectation(a.dag() @ a, rho).real == pytest.approx(0.01, abs=1e-8)


def test_displacement_inverse():
    space = SpaceDescriptor(n_atoms=0, n_max=20)
    beta = 0.5 * np.exp(0.3j)
    prod = displacement(space, beta) @ displacement(space, -beta)
    assert np.max(np.abs(prod.entries - np.eye(space.dim))) < 1e-8


def test_displacement_rejects_tight_truncation():
    space = SpaceDescriptor(n_atoms=0, n_max=8)
    with pytest.raises(TruncationError):
        displacement(space, 2.0)


def poisson_pmf(nbar: float, n_max: int) -> np.ndarray:
    """Poisson(nbar) probabilities on 0..n_max (reference for coherent states)."""
    n = np.arange(0, n_max + 1)
    return np.exp(-nbar + n * math.log(nbar) - scipy.special.gammaln(n + 1))


def test_coherent_state_photon_statistics():
    space = SpaceDescriptor(n_atoms=0, n_max=16)
    beta = 1.0
    rho = DensityMatrix.pure(space, coherent_state(space, beta))
    pops = fock_populations(rho)
    ref = poisson_pmf(abs(beta) ** 2, space.n_max)
    assert 0.5 * np.sum(np.abs(pops - ref)) < 1e-6


def test_expectation_identity_and_ground():
    space = SpaceDescriptor(n_atoms=1, n_max=4)
    rho = DensityMatrix.pure(space, coherent_state(space, 0.3, atoms="g"))
    assert expectation(identity(space), rho).real == pytest.approx(1.0)
    sig = atomic_lowering(space, 0)
    assert abs(expectation(sig.dag() @ sig, rho)) < 1e-14


def test_expectation_space_mismatch():
    s1 = SpaceDescriptor(n_atoms=1, n_max=2)
    s2 = SpaceDescriptor(n_atoms=1, n_max=3)
    rho = DensityMatrix.pure(s2, basis_state(s2, "g", 0))
    with pytest.raises(SpaceMismatchError):
        expectation(identity(s1), rho)


def test_density_matrix_validation():
    space = SpaceDescriptor(n_atoms=0, n_max=1)
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(space, np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(space, np.diag([0.7, 0.7]))


def test_trace_distance_and_fidelity():
    space = SpaceDescriptor(n_atoms=0, n_max=3)
    k0 = basis_state(space, "", 0)
    k1 = basis_state(space, "", 1)
    r0 = DensityMatrix.pure(space, k0)
    r1 = DensityMatrix.pure(space, k1)
    assert trace_distance(r0, r1) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(r0, r0) == pytest.approx(0.0, abs=1e-12)
    assert fidelity_with_pure(r0, k0) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_with_pure(r0, k1) == pytest.approx(0.0, abs=1e-12)
