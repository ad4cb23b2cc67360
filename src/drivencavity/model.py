"""Physical parameters, Hamiltonian and Liouvillian builders.

Units: gamma = 1 and hbar = 1 throughout; every rate and frequency is a
dimensionless multiple of the atomic linewidth.  Positions are measured
in wavelengths, so the mode wavenumber is exactly 2*pi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .operators import (
    Operator,
    SpaceDescriptor,
    SpaceMismatchError,
    _require_finite,
    annihilation,
    atomic_lowering,
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
    A non-finite field, position or omega_n entry is a ValueError.
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
        _require_finite(**{k: v for k, v in vars(self).items() if v is not None})
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
class Superoperator:
    """Vectorized Lindblad generator: d vec(rho)/dt = matrix @ vec(rho).

    Row-major vectorization, vec(rho) = rho.reshape(-1).  h_eff is the
    effective Hamiltonian H - (i/2) sum_k rate_k c_k^dag c_k, so the generator
    is rho -> -i(h_eff rho - rho h_eff^dag) + sum_k rate_k c_k rho c_k^dag.
    """

    space: SpaceDescriptor
    matrix: sp.csr_matrix = field(repr=False)
    h_eff: np.ndarray = field(repr=False)


def mode_function(x, params: SystemParams):
    """(g(x), phi(x)): the mode coupling g0 cos(kx) and the pump phase
    kx cos(theta) at x in wavelengths, a float or an array."""
    return (params.g0 * np.cos(K_WAVENUMBER * x),
            K_WAVENUMBER * x * math.cos(params.theta))


def _off_node(g, params: SystemParams):
    """g, or 0.0 at a node, where |g| < 1e-12 max(|g0|, 1); elementwise."""
    return np.where(np.abs(g) < 1e-12 * max(abs(params.g0), 1.0), 0.0, g)


def atom_coupling(params: SystemParams) -> float:
    """The coupling g(x) of the first atom, the one atom of the one-atom
    closed forms; 0.0 at a node."""
    return float(_off_node(mode_function(params.positions[0], params)[0], params))


def saturation(g, params: SystemParams):
    """Saturation parameter g^2 / ((gamma/2)^2 + Delta^2) of a coupling or
    pump amplitude g (elementwise for an array)."""
    return g ** 2 / ((params.gamma / 2) ** 2 + params.delta ** 2)


def default_n_max(params: SystemParams) -> int:
    """Fock truncation from the expected coherent amplitude Omega/g0."""
    beta_est = abs(params.omega) / abs(params.g0) if params.g0 != 0 else 0.0
    return math.ceil(beta_est**2 + 6 * beta_est + 10)


def build_space(params: SystemParams, n_max: int | None = None) -> SpaceDescriptor:
    return SpaceDescriptor(params.n_atoms, n_max if n_max is not None else default_n_max(params))


@dataclass(frozen=True)
class TermPlan:
    """The model's terms on one space, and where they land in L.

    The columns of h_terms are the real matrices that the coefficients of
    H and h_eff multiply: a^dag a (column `number`), then for each atom n
    sig_n^dag sig_n (column atom_populations[n]), a sig_n^dag + a^dag sig_n,
    sig_n^dag and sig_n.  h_rows, h_cols is the union pattern of those
    matrices, and h_terms (pattern entry x term) gives their entries there,
    so a combination is h_terms @ coefficients.  collapses are the jump
    operators as real COO matrices: sig_n for each atom, then a.

    l_indices, l_indptr is the CSR pattern of L, the union of h (x) 1,
    1 (x) h* and every c (x) c; l_indices is kept in the smallest unsigned
    type that holds a column (uint16 to dim 256).  left, right and jumps
    hold the position in it of each entry of those terms, in the order of
    np.repeat(h, dim), np.tile(h*, dim) and np.outer(c, c).ravel().

    Every array is read-only; a built matrix takes copies.
    """

    space: SpaceDescriptor
    collapses: tuple[sp.coo_matrix, ...] = field(repr=False)
    h_rows: np.ndarray = field(repr=False)
    h_cols: np.ndarray = field(repr=False)
    h_terms: np.ndarray = field(repr=False)
    l_indices: np.ndarray = field(repr=False)
    l_indptr: np.ndarray = field(repr=False)
    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    jumps: tuple[np.ndarray, ...] = field(repr=False)

    number = 0  # the h_terms column of a^dag a

    @property
    def atom_populations(self) -> list[int]:
        """The h_terms column of sig_n^dag sig_n, for each atom n."""
        return [1 + 4 * n for n in range(self.space.n_atoms)]

    @property
    def annihilation(self) -> sp.coo_matrix:
        return self.collapses[-1]

    @property
    def decay_terms(self) -> list[int]:
        """The h_terms column of c^dag c, for each of collapses."""
        return self.atom_populations + [self.number]

    def dense(self, coefficients: np.ndarray) -> np.ndarray:
        """sum_k coefficients[k] (term k) as a new dense matrix."""
        dim = self.space.dim
        h = np.zeros((dim, dim), dtype=complex)
        h[self.h_rows, self.h_cols] = self.h_terms @ coefficients
        return h


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


def _real_coo(op: np.ndarray) -> sp.coo_matrix:
    coo = sp.coo_matrix(op)
    _read_only(coo.row, coo.col, coo.data)
    return coo


@functools.lru_cache(maxsize=8)
def term_plan(space: SpaceDescriptor) -> TermPlan:
    """The TermPlan of space; the plans of the last eight spaces are kept."""
    dim, side = space.dim, space.dim**2
    a = annihilation(space).entries.real
    sigmas = [atomic_lowering(space, n).entries.real
              for n in range(space.n_atoms)]
    dense = [a.T @ a]
    for s in sigmas:
        dense += [s.T @ s, a @ s.T + a.T @ s, s.T, s]
    collapses = [_real_coo(c) for c in sigmas + [a]]
    h_rows, h_cols = np.nonzero(np.any([op != 0 for op in dense], axis=0))
    h_terms = np.stack([op[h_rows, h_cols] for op in dense], axis=1)

    # every entry of every term as a key row * side + col into L; the keys
    # reach dim**4, past int32 from dim 216
    step = np.arange(dim, dtype=np.int64)
    keys = [((h_rows * dim * side + h_cols * dim)[:, None]
             + step * (side + 1)).ravel(),
            (step[:, None] * (dim * side + dim)
             + h_rows * side + h_cols).ravel()]
    for c in collapses:
        row, col = c.row.astype(np.int64), c.col.astype(np.int64)
        keys.append(((row * dim * side + col * dim)[:, None]
                     + row * side + col).ravel())
    # L's pattern is the distinct keys in order, and each key's destination
    # its rank among them: np.unique(..., return_inverse=True), without its
    # copies of the keys and its int64 ranks
    bounds = np.cumsum([k.size for k in keys])[:-1]
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pattern = keys[first]
    del keys
    rank = np.cumsum(first, dtype=np.int32)
    rank -= 1
    where = np.empty(rank.size, dtype=np.int32)
    where[order] = rank
    del order, rank
    indptr = np.searchsorted(pattern, np.arange(side + 1) * side)
    destinations = np.split(where, bounds)
    plan = TermPlan(
        space=space,
        collapses=tuple(collapses),
        h_rows=h_rows, h_cols=h_cols, h_terms=h_terms,
        l_indices=(pattern % side).astype(np.min_scalar_type(side - 1)),
        l_indptr=indptr.astype(np.int32),
        left=destinations[0], right=destinations[1],
        jumps=tuple(destinations[2:]))
    _read_only(plan.h_rows, plan.h_cols, plan.h_terms, plan.l_indices,
               plan.l_indptr, *destinations)
    return plan


def _check_atom_count(params: SystemParams, space: SpaceDescriptor) -> None:
    if space.n_atoms != params.n_atoms:
        raise SpaceMismatchError("space atom count does not match params")


def _hamiltonian_coefficients(params: SystemParams,
                              space: SpaceDescriptor) -> np.ndarray:
    """The coefficient of each term of term_plan(space) in H."""
    _check_atom_count(params, space)
    g_n, phi_n = mode_function(np.asarray(params.positions), params)
    drive = params.pump_amplitudes * np.exp(1j * phi_n)
    coefficients = [-params.delta_c]
    for n in range(params.n_atoms):
        coefficients += [-params.delta, g_n[n], drive[n],
                         np.conj(drive[n])]
    return np.array(coefficients, dtype=complex)


def build_hamiltonian(params: SystemParams, space: SpaceDescriptor) -> Operator:
    """H/hbar in the frame rotating at the pump frequency."""
    coefficients = _hamiltonian_coefficients(params, space)
    return Operator(space, term_plan(space).dense(coefficients))


def build_liouvillian(params: SystemParams, space: SpaceDescriptor) -> Superoperator:
    """Full Lindblad generator: Hamiltonian, atomic decay, cavity decay.

    L's entries are summed over the cached TermPlan of space; entries that
    come to exactly zero (kappa = 0, say) are not stored.
    """
    coefficients = _hamiltonian_coefficients(params, space)
    plan = term_plan(space)
    rates = [params.gamma] * params.n_atoms + [params.kappa]
    for k, rate in zip(plan.decay_terms, rates):
        coefficients[k] -= 0.5j * rate
    h_eff = plan.dense(coefficients)
    h = h_eff[plan.h_rows, plan.h_cols]
    data = np.zeros(plan.l_indices.size, dtype=complex)
    data[plan.left] = np.repeat(-1j * h, space.dim)
    data[plan.right] += np.tile(1j * h.conj(), space.dim)
    for rate, c, where in zip(rates, plan.collapses, plan.jumps):
        if rate:
            data[where] += rate * np.outer(c.data, c.data).ravel()
    lmat = sp.csr_matrix((data, plan.l_indices.astype(np.int32),
                          plan.l_indptr.copy()),
                         shape=(space.dim**2, space.dim**2))
    lmat.eliminate_zeros()
    return Superoperator(space=space, matrix=lmat, h_eff=h_eff)


def beta_profile(x: float, params: SystemParams) -> complex:
    """Dark-state cavity amplitude Omega exp(i(pi + k x cos theta))/g(x).

    Undefined at nodes of the mode function.
    """
    _require_finite(x=x)
    g, phi = mode_function(x, params)
    g = _off_node(g, params)
    if g == 0:
        raise NodePositionError(f"beta(x) undefined at node x={x}")
    return complex(params.omega * np.exp(1j * (math.pi + phi)) / g)


def free_space_fluorescence(params: SystemParams) -> float:
    """Saturated two-level scattering rate of a single atom in free space."""
    s = saturation(params.omega, params)
    return params.gamma * s / (2 + s)
