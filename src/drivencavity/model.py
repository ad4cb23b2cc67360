"""Physical parameters, Hamiltonian and Liouvillian builders.

Units: gamma = 1 and hbar = 1 throughout; every rate and frequency is a
dimensionless multiple of the atomic linewidth.  Positions are measured
in wavelengths, so the mode wavenumber is exactly 2*pi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .operators import (
    Operator,
    SpaceDescriptor,
    SpaceMismatchError,
    annihilation,
    atomic_lowering,
    embed,
)

K_WAVENUMBER = 2.0 * math.pi


class NodePositionError(ValueError):
    """beta(x) is undefined where the mode function vanishes."""


class RegimeWarning(UserWarning):
    """A closed-form result is being used outside its validity regime."""


@dataclass(frozen=True)
class SystemParams:
    """All physical parameters, rates in units of gamma.

    positions are x_n in units of the wavelength; theta is the angle
    between pump propagation and the cavity axis; omega_n optionally
    gives per-atom pump amplitudes (defaults to a homogeneous omega).
    """

    positions: tuple[float, ...]
    g0: float
    omega: float
    kappa: float
    delta: float = 0.0
    delta_c: float = 0.0
    theta: float = math.pi / 2
    gamma: float = 1.0
    omega_n: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(float(x) for x in self.positions))
        if self.n_atoms < 1:
            raise ValueError("at least one atom is required")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.omega_n is not None and len(self.omega_n) != self.n_atoms:
            raise ValueError("omega_n must have one entry per atom")

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @property
    def pump_amplitudes(self) -> np.ndarray:
        if self.omega_n is not None:
            return np.asarray(self.omega_n, dtype=float)
        return np.full(self.n_atoms, float(self.omega))


@dataclass(frozen=True)
class CouplingProfile:
    """Per-atom mode couplings g(x_n) and pump phases phi_n."""

    g_n: np.ndarray
    phi_n: np.ndarray


@dataclass(frozen=True)
class Superoperator:
    """Vectorized Lindblad generator: d vec(rho)/dt = matrix @ vec(rho).

    Row-major vectorization, vec(rho) = rho.reshape(-1).  h_eff is the
    effective Hamiltonian H - (i/2) sum_k rate_k c_k^dag c_k, so the generator
    is rho -> -i(h_eff rho - rho h_eff^dag) + sum_k rate_k c_k rho c_k^dag.
    """

    space: SpaceDescriptor
    matrix: sp.csr_matrix = field(repr=False)
    h_eff: np.ndarray = field(repr=False)


def coupling_profile(params: SystemParams) -> CouplingProfile:
    x = np.asarray(params.positions)
    g_n = params.g0 * np.cos(K_WAVENUMBER * x)
    phi_n = K_WAVENUMBER * x * math.cos(params.theta)
    return CouplingProfile(g_n=g_n, phi_n=phi_n)


def default_n_max(params: SystemParams) -> int:
    """Fock truncation from the expected coherent amplitude Omega/g0."""
    beta_est = abs(params.omega) / abs(params.g0) if params.g0 != 0 else 0.0
    return math.ceil(beta_est**2 + 6 * beta_est + 10)


def build_space(params: SystemParams, n_max: int | None = None) -> SpaceDescriptor:
    return SpaceDescriptor(params.n_atoms, n_max if n_max is not None else default_n_max(params))


def build_hamiltonian(params: SystemParams, space: SpaceDescriptor) -> Operator:
    """H/hbar in the frame rotating at the pump frequency."""
    if space.n_atoms != params.n_atoms:
        raise SpaceMismatchError("space atom count does not match params")
    prof = coupling_profile(params)
    omega_n = params.pump_amplitudes
    a = annihilation(space)
    h = (-params.delta_c) * (a.dag() @ a).entries
    for n in range(params.n_atoms):
        sig = atomic_lowering(space, n)
        h = h - params.delta * (sig.dag() @ sig).entries
        h = h + prof.g_n[n] * (a.entries @ sig.dag().entries
                               + a.dag().entries @ sig.entries)
        drive = omega_n[n] * np.exp(1j * prof.phi_n[n])
        h = h + drive * sig.dag().entries + np.conj(drive) * sig.entries
    return Operator(space, h)


def build_liouvillian(params: SystemParams, space: SpaceDescriptor) -> Superoperator:
    """Full Lindblad generator: Hamiltonian, atomic decay, cavity decay."""
    collapses = [(params.gamma, atomic_lowering(space, n).entries)
                 for n in range(params.n_atoms)]
    if params.kappa != 0:
        collapses.append((params.kappa, annihilation(space).entries))
    h_eff = build_hamiltonian(params, space).entries.astype(complex)
    for rate, c in collapses:
        h_eff = h_eff - 0.5j * rate * (c.conj().T @ c)
    h = sp.csr_matrix(h_eff)
    eye = sp.identity(space.dim, dtype=complex, format="csr")
    lmat = -1j * (sp.kron(h, eye, format="csr")
                  - sp.kron(eye, h.conj(), format="csr"))
    for rate, c in collapses:
        c = sp.csr_matrix(c)
        lmat = lmat + rate * sp.kron(c, c.conj(), format="csr")
    return Superoperator(space=space, matrix=lmat.tocsr(), h_eff=h_eff)


def apply_superoperator(l: Superoperator, rho: np.ndarray) -> np.ndarray:
    """d rho/dt as a matrix, for a matrix-valued rho."""
    dim = l.space.dim
    return (l.matrix @ rho.reshape(-1)).reshape(dim, dim)


def beta_profile(x: float, params: SystemParams) -> complex:
    """Dark-state cavity amplitude Omega exp(i(pi + k x cos theta))/g(x).

    Undefined at nodes of the mode function.
    """
    g = params.g0 * math.cos(K_WAVENUMBER * x)
    if abs(g) < 1e-12 * max(abs(params.g0), 1.0):
        raise NodePositionError(f"beta(x) undefined at node x={x}")
    phase = math.pi + K_WAVENUMBER * x * math.cos(params.theta)
    return complex(params.omega * np.exp(1j * phase) / g)


def free_space_fluorescence(params: SystemParams) -> float:
    """Saturated two-level scattering rate of a single atom in free space."""
    g = params.gamma
    s_half = params.omega**2 / 2
    return g * s_half / (params.delta**2 + g**2 / 4 + s_half)
