"""Operators on the truncated composite Hilbert space.

The space is N two-level atoms (each ordered |g>, |e>) tensored with a
single cavity mode truncated at Fock level n_max.  Atoms occupy slots
0..N-1, the cavity comes last, so a basis index decomposes as
``atom_bits * (n_max+1) + fock``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


class SpaceMismatchError(ValueError):
    """Operands live on different Hilbert spaces."""


class TruncationError(ValueError):
    """Requested state cannot be represented safely at this Fock truncation."""


def _require_finite(**values) -> None:
    """ValueError naming the first of values (numbers, or tuples, lists or
    arrays of numbers) not finite.  A number takes one isfinite call and no
    wrapping: SystemParams checks nine values on every construction."""
    for name, value in values.items():
        if not (all(map(cmath.isfinite, value))
                if isinstance(value, (tuple, list, np.ndarray))
                else cmath.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_integer(**values) -> None:
    """ValueError naming the first of values that is no integer, or a bool."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SpaceDescriptor:
    """Composite space of n_atoms two-level atoms and one truncated mode."""

    n_atoms: int
    n_max: int

    def __post_init__(self):
        _require_integer(n_atoms=self.n_atoms, n_max=self.n_max)
        if self.n_atoms < 0:
            raise ValueError("n_atoms must be nonnegative")
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")

    @property
    def dim(self) -> int:
        return 2**self.n_atoms * (self.n_max + 1)

    @property
    def fock_dim(self) -> int:
        return self.n_max + 1


def _check_same_space(a: "SpaceDescriptor", b: "SpaceDescriptor") -> None:
    if a != b:
        raise SpaceMismatchError(f"space mismatch: {a} vs {b}")


@dataclass(frozen=True)
class Operator:
    """Complex matrix on a SpaceDescriptor.  Treated as immutable."""

    space: SpaceDescriptor
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.entries.shape != (self.space.dim, self.space.dim):
            raise ValueError("entries shape does not match space.dim")

    def dag(self) -> "Operator":
        return Operator(self.space, self.entries.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same_space(self.space, other.space)
        return Operator(self.space, self.entries @ other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        _check_same_space(self.space, other.space)
        return Operator(self.space, self.entries - other.entries)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state."""

    space: SpaceDescriptor
    entries: np.ndarray = field(repr=False)

    HERMITICITY_TOL = 1e-10
    TRACE_TOL = 1e-10
    POSITIVITY_TOL = -1e-8

    @classmethod
    def from_matrix(cls, space: SpaceDescriptor, m: np.ndarray, *,
                    check: bool = True) -> "DensityMatrix":
        m = np.asarray(m, dtype=complex)
        if check:
            scale = max(1.0, float(np.abs(m).max()))
            if np.abs(m - m.conj().T).max() > cls.HERMITICITY_TOL * scale:
                raise ValueError("matrix is not Hermitian within tolerance")
            if abs(np.trace(m) - 1.0) > cls.TRACE_TOL * scale:
                raise ValueError("matrix trace differs from 1")
            if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < cls.POSITIVITY_TOL:
                raise ValueError("matrix has a significantly negative eigenvalue")
        return cls(space, (m + m.conj().T) / 2)

    @classmethod
    def pure(cls, space: SpaceDescriptor, ket: np.ndarray) -> "DensityMatrix":
        ket = np.asarray(ket, dtype=complex)
        ket = ket / np.linalg.norm(ket)
        return cls(space, np.outer(ket, ket.conj()))


def _fock_destroy(fock_dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, fock_dim, dtype=float)), k=1).astype(complex)


_SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|


def embed(space: SpaceDescriptor, atom_ops: dict[int, np.ndarray] | None = None,
          cavity_op: np.ndarray | None = None) -> Operator:
    """Kronecker-embed single-slot operators, identity elsewhere."""
    atom_ops = atom_ops or {}
    for n in atom_ops:
        if not 0 <= n < space.n_atoms:
            raise IndexError(f"atom index {n} out of range for {space.n_atoms} atoms")
    m = np.ones((1, 1), dtype=complex)
    for n in range(space.n_atoms):
        m = np.kron(m, atom_ops.get(n, np.eye(2, dtype=complex)))
    cav = cavity_op if cavity_op is not None else np.eye(space.fock_dim, dtype=complex)
    return Operator(space, np.kron(m, cav))


def identity(space: SpaceDescriptor) -> Operator:
    return Operator(space, np.eye(space.dim, dtype=complex))


def annihilation(space: SpaceDescriptor) -> Operator:
    """Cavity annihilation operator, <n-1|a|n> = sqrt(n)."""
    return embed(space, cavity_op=_fock_destroy(space.fock_dim))


def atomic_lowering(space: SpaceDescriptor, n: int) -> Operator:
    """|g><e| on atom slot n."""
    return embed(space, atom_ops={n: _SIGMA})


def displacement(space: SpaceDescriptor, beta: complex) -> Operator:
    """Truncated displacement operator exp(beta a^dag - beta* a).

    Rejected when |beta|^2 > n_max/4 so that the displaced vacuum keeps
    negligible weight on the discarded levels.
    """
    _require_finite(beta=beta)
    if abs(beta) ** 2 > space.n_max / 4:
        raise TruncationError(
            f"|beta|^2 = {abs(beta)**2:.3g} exceeds n_max/4 = {space.n_max / 4:.3g}")
    a = _fock_destroy(space.fock_dim)
    d = scipy.linalg.expm(beta * a.conj().T - np.conj(beta) * a)
    return embed(space, cavity_op=d)


def coherent_state(space: SpaceDescriptor, beta: complex,
                   atoms: str | None = None) -> np.ndarray:
    """Ket for |atoms> x |beta>, atoms given as a string like 'gg'."""
    atoms = atoms if atoms is not None else "g" * space.n_atoms
    if len(atoms) != space.n_atoms:
        raise ValueError("atom-state string length must equal n_atoms")
    d = displacement(space, beta)
    ket = basis_state(space, atoms, 0)
    return d.entries @ ket


def basis_state(space: SpaceDescriptor, atoms: str, n_photons: int) -> np.ndarray:
    """Product basis ket, e.g. basis_state(space, 'ge', 1)."""
    if len(atoms) != space.n_atoms:
        raise ValueError("atom-state string length must equal n_atoms")
    if not 0 <= n_photons <= space.n_max:
        raise ValueError("photon number outside truncation")
    idx = 0
    for c in atoms:
        idx = 2 * idx + {"g": 0, "e": 1}[c]
    idx = idx * space.fock_dim + n_photons
    ket = np.zeros(space.dim, dtype=complex)
    ket[idx] = 1.0
    return ket


def expectation(a: Operator, rho: DensityMatrix) -> complex:
    """Tr(A rho)."""
    _check_same_space(a.space, rho.space)
    return complex(np.trace(a.entries @ rho.entries))


def fock_populations(rho: DensityMatrix) -> np.ndarray:
    """Photon-number distribution, atoms traced out."""
    space = rho.space
    n_at = 2**space.n_atoms
    r = rho.entries.reshape(n_at, space.fock_dim, n_at, space.fock_dim)
    return np.einsum("anam->nm", r).diagonal().real.copy()


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) ||rho - sigma||_1."""
    _check_same_space(rho.space, sigma.space)
    diff = rho.entries - sigma.entries
    diff = (diff + diff.conj().T) / 2
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def fidelity_with_pure(rho: DensityMatrix, ket: np.ndarray) -> float:
    """<psi|rho|psi> for a normalized pure reference."""
    ket = np.asarray(ket, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return float(np.real(ket.conj() @ rho.entries @ ket))

