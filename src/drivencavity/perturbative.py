"""Small-kappa perturbation theory for one atom in a lossy cavity.

Works in the displaced frame where the drive is absorbed into the cavity
field.  The effective non-Hermitian Hamiltonian splits as H0 + kappa*V.
Every time integral of the Dyson expansion to second order is a block of
a matrix exponential (closed form, no quadrature); the biorthogonal
eigensystem of H0 checks its spectrum against the dressed eigenvalues.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .model import (
    RegimeWarning,
    SystemParams,
    atom_coupling,
    beta_profile,
    build_liouvillian,
    build_space,
)
from .operators import (
    DensityMatrix,
    Operator,
    SpaceDescriptor,
    _require_integer,
    annihilation,
    basis_state,
    displacement,
)


class DefectiveMatrixError(ValueError):
    """Left/right eigenvector normalization collapsed; matrix is defective."""


# ---------------------------------------------------------------------------
# effective Hamiltonian and eigensystem
# ---------------------------------------------------------------------------

def displaced_effective_hamiltonian(params: SystemParams,
                                    space: SpaceDescriptor) -> tuple[Operator, Operator]:
    """(H0, V) with the displaced effective Hamiltonian equal to H0 + kappa V.

    Only defined for one atom with delta_c = 0, off a node of the mode
    function.  H0 is h_eff of the undriven, lossless system; V is dense.
    """
    if params.n_atoms != 1:
        raise ValueError("displaced effective Hamiltonian requires exactly one atom")
    if params.delta_c != 0:
        raise ValueError("displaced effective Hamiltonian requires delta_c = 0")
    beta = beta_profile(params.positions[0], params)
    h0 = build_liouvillian(
        replace(params, omega=0.0, kappa=0.0), space).h_eff
    a_disp = annihilation(space).entries + beta * np.eye(space.dim)
    v = -0.5j * (a_disp.conj().T @ a_disp)
    return Operator(space, h0), Operator(space, v)


def dressed_eigenvalues(n: int, params: SystemParams) -> tuple[complex, complex]:
    """Eigenvalue pair of the n-excitation block of H0.

    '+' is the root with the larger real part at delta = 0, followed by
    continuity as delta moves to its actual value.
    """
    _require_integer(n=n)
    if n < 1:
        raise ValueError("excitation number must be >= 1")
    g = abs(atom_coupling(params))
    dt = params.delta + 0.5j  # Delta + i gamma/2, gamma = 1
    # z = dt^2 + 4 g^2 n has Im z = delta gamma, so z is real only at
    # delta = 0 and the root r (r^2 = z) continued from there crosses
    # neither axis.  Underdamped, r starts at sqrt(z) > 0 and keeps
    # Re r > 0, as the principal root does; overdamped (4 g^2 n <
    # gamma^2/4), r starts at i sqrt(-z) on the cut and keeps Im r > 0,
    # which the principal root loses below the cut (delta < 0)
    r = np.sqrt(dt * dt + 4 * g * g * n)
    if 4 * g * g * n < 0.25 and r.imag < 0:
        r = -r
    lam_plus = -0.5 * (dt - r)
    lam_minus = -0.5 * (dt + r)
    return complex(lam_plus), complex(lam_minus)


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Paired left/right eigenvectors with <vbar_i|v_j> = delta_ij."""

    eigenvalues: np.ndarray
    right_vectors: np.ndarray = field(repr=False)   # columns |v_i>
    left_vectors: np.ndarray = field(repr=False)    # columns |vbar_i>

    def completeness_residual(self) -> float:
        dim = self.right_vectors.shape[0]
        s = self.right_vectors @ self.left_vectors.conj().T
        return float(np.abs(s - np.eye(dim)).max())


def biorthogonal_eigensystem(m: np.ndarray) -> BiorthogonalSystem:
    m = np.asarray(m, dtype=complex)
    w, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    dim = m.shape[0]
    for i in range(dim):
        d = vl[:, i].conj() @ vr[:, i]
        if abs(d) < 1e-12:
            raise DefectiveMatrixError(
                f"eigenvector pair {i} has <vbar|v| = {abs(d):.3e}; matrix defective")
        vl[:, i] = vl[:, i] / np.conj(d)
    sys = BiorthogonalSystem(eigenvalues=w, right_vectors=vr, left_vectors=vl)
    res = sys.completeness_residual()
    if res > 1e-8:
        raise DefectiveMatrixError(f"completeness residual {res:.3e} exceeds 1e-8")
    return sys


# ---------------------------------------------------------------------------
# perturbative density matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbativeState:
    """rho(t) = sum_l kappa^l rho_terms[l], already in the lab frame."""

    rho_terms: list[np.ndarray]
    space: SpaceDescriptor

    def assemble(self, kappa: float) -> DensityMatrix:
        m = sum(kappa**l * term for l, term in enumerate(self.rho_terms))
        return DensityMatrix.from_matrix(self.space, m, check=False)


def perturbative_state(params: SystemParams, t: float, order: int = 2,
                       n_max: int | None = None) -> PerturbativeState:
    """Density matrix at time t, expanded to the given order in kappa.

    Starts from the kappa = 0 dark state e = |g,0>.  With A = -i H0 and
    B = -i V, the terms need w' = A w + B e, u2' = A u2 + B w, W' = w and
    z' = A z + a_disp w from zero at t = 0, and the jump integral
    int_0^t |<e,0|w>|^2.  Each is read off the exponential of a
    block-triangular generator (C. F. Van Loan, IEEE TAC 23, 395, 1978):
    closed form, no quadrature, and defined at exceptional points of H0.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    space = build_space(params, n_max)
    dim = space.dim
    h0_op, v_op = displaced_effective_hamiltonian(params, space)
    beta = beta_profile(params.positions[0], params)
    babs2 = abs(beta) ** 2
    e_g0 = basis_state(space, "g", 0)
    rho0_disp = np.outer(e_g0, e_g0.conj())
    rho_terms: list[np.ndarray] = [rho0_disp]

    def sym(x: np.ndarray) -> np.ndarray:
        return np.outer(x, e_g0.conj()) + np.outer(e_g0, x.conj())

    if order >= 1:
        # x = (u2, W, z, w, 1) obeys x' = gen x from x(0) = (0, 0, 0, 0, 1)
        u2_, bigw_, z_, w_ = (slice(k * dim, (k + 1) * dim) for k in range(4))
        gen = np.zeros((4 * dim + 1, 4 * dim + 1), dtype=complex)
        gen[u2_, u2_] = gen[z_, z_] = gen[w_, w_] = -1j * h0_op.entries
        gen[u2_, w_] = -1j * v_op.entries
        gen[w_, -1] = gen[u2_, w_] @ e_g0  # B e
        gen[bigw_, w_] = np.eye(dim)
        gen[z_, w_] = annihilation(space).entries + beta * np.eye(dim)
        u2, big_w, z, w = scipy.linalg.expm(t * gen)[:-1, -1].reshape(4, dim)
        rho_terms.append(sym(w) + babs2 * t * rho0_disp)

    if order >= 2:
        # y = (w, 1) obeys y' = b y with b = gen[-n:, -n:], y(0) = y0 = (0, 1);
        # expm(t [[-b, y0 y0^dag], [0, b^dag]]) = [[., F12], [0, F22]] and
        # int_0^t y y^dag = F22^dag F12 holds the jump integral
        n = dim + 1
        van_loan = np.zeros((2 * n, 2 * n), dtype=complex)
        van_loan[:n, :n] = -gen[-n:, -n:]
        van_loan[n:, n:] = gen[-n:, -n:].conj().T
        van_loan[n - 1, -1] = 1.0
        f = scipy.linalg.expm(t * van_loan)
        e0 = n + space.fock_dim  # column of |e,0> in F12 and F22
        j_integral = (f[n:, e0].conj() @ f[:n, e0]).real
        rho_terms.append(
            sym(u2 + babs2 * big_w + np.conj(beta) * z) + np.outer(w, w.conj())
            + (babs2**2 * t**2 / 2 + j_integral) * rho0_disp)

    # the omitted J-terms of the expansion vanish identically: each carries
    # sigma |g,0>, and the lowering operator annihilates the ground state

    # back to the lab frame
    d = displacement(space, beta).entries
    lab_terms = [d @ m @ d.conj().T for m in rho_terms]
    return PerturbativeState(rho_terms=lab_terms, space=space)


class SmallKappaRates(NamedTuple):
    i_at: float
    i_cav: float
    c1: float


def small_kappa_rates(params: SystemParams) -> SmallKappaRates:
    """Closed-form leading-order scattering rates at Delta = 0, g >> gamma.

    I_at = kappa (Omega/g)^2 / (2 C1), I_cav = kappa (Omega/g)^2 (1 - 1/(2 C1)),
    with cooperativity C1 = 2 g^2 / (gamma kappa), gamma = 1, inf at
    kappa = 0.
    """
    gbar = abs(atom_coupling(params))
    if gbar == 0:
        raise ValueError("coupling vanishes; closed-form rates undefined")
    if params.delta != 0 or gbar < 5:
        warnings.warn("small-kappa rates are derived for Delta=0 and g >> gamma",
                      RegimeWarning, stacklevel=2)
    c1 = 2 * gbar**2 / params.kappa if params.kappa else np.inf
    drive = params.kappa * params.omega**2 / gbar**2
    return SmallKappaRates(i_at=drive / (2 * c1), i_cav=drive * (1 - 1 / (2 * c1)),
                           c1=c1)
