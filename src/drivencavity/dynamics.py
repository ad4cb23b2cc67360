"""Exact steady states, time evolution, and observables."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import (
    SystemParams,
    Superoperator,
    build_liouvillian,
    build_space,
    default_n_max,
)
from .operators import (
    DensityMatrix,
    SpaceDescriptor,
    annihilation,
    atomic_lowering,
    basis_state,
    expectation,
    fock_populations,
)

# The trace-row matrix is treated as singular when its 1-norm condition
# estimate exceeds this bound (a relative null-space threshold of 1e-10).
DEGENERACY_CONDITION_LIMIT = 1e10

G2_DEFINED_THRESHOLD = 1e-12

TAIL_POPULATION_LIMIT = 1e-8
MAX_TRUNCATION_ESCALATIONS = 3


class SteadyStateError(RuntimeError):
    """The steady-state solve did not meet its residual contract."""


class DegenerateSteadyStateError(SteadyStateError):
    def __init__(self, condition: float):
        super().__init__(
            f"degenerate steady state: condition estimate {condition:.3e}")
        self.condition = condition


class TruncationEscalationError(RuntimeError):
    """Fock tail population stayed above threshold after all escalations."""


@dataclass(frozen=True)
class ObservableSet:
    """Stationary (or instantaneous) observables of a state."""

    i_at_per_atom: np.ndarray      # gamma <sig_n^dag sig_n>
    i_at_total: float
    i_cav: float                   # kappa <a^dag a>
    mean_n: float
    alpha: complex                 # <a>
    g2_zero: float | None          # None when <a^dag a> is numerically zero
    pi_e_per_atom: np.ndarray


@dataclass(frozen=True)
class SteadySolution:
    rho: DensityMatrix
    space: SpaceDescriptor
    n_max: int
    residual: float
    escalations: int


def steady_state(l: Superoperator) -> DensityMatrix:
    """Unique unit-trace null element of the Liouvillian.

    The first equation of L rho = 0 is replaced by the trace row and the
    system is solved by sparse LU.  A degenerate null space makes that
    matrix singular: a failed factorization, or a 1-norm condition estimate
    (from one extra solve against a fixed random vector) above
    DEGENERACY_CONDITION_LIMIT, raises DegenerateSteadyStateError.
    """
    dim = l.space.dim
    side = l.matrix.shape[0]
    trace_row = sp.csr_matrix((np.ones(dim), (np.zeros(dim, dtype=int),
                                              np.arange(dim) * (dim + 1))),
                              shape=(side, side))
    m = (sp.diags(np.r_[0.0, np.ones(side - 1)]) @ l.matrix + trace_row).tocsc()
    try:
        lu = spla.splu(m)
    except RuntimeError:
        raise DegenerateSteadyStateError(math.inf) from None
    r = np.random.default_rng(0).standard_normal(side)
    condition = (spla.norm(m, 1) * np.abs(lu.solve(r.astype(complex))).sum()
                 / np.abs(r).sum())
    if not condition <= DEGENERACY_CONDITION_LIMIT:
        raise DegenerateSteadyStateError(condition)
    b = np.zeros(side, dtype=complex)
    b[0] = 1.0
    rho = lu.solve(b).reshape(dim, dim)
    rho = (rho + rho.conj().T) / 2 / np.trace(rho).real
    residual = float(np.linalg.norm(l.matrix @ rho.reshape(-1)))
    if residual > 1e-9 * dim:
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds {1e-9 * dim:.3e}")
    return DensityMatrix.from_matrix(l.space, rho, check=False)


def evolve(rho0: DensityMatrix, l: Superoperator, t_final: float,
           rtol: float = 1e-10, atol: float = 1e-12) -> DensityMatrix:
    """Integrate d rho/dt = L rho with an adaptive explicit stepper."""
    if t_final == 0:
        return rho0
    lmat = l.matrix
    sol = scipy.integrate.solve_ivp(
        lambda _t, v: lmat @ v,
        (0.0, float(t_final)),
        rho0.entries.reshape(-1).astype(complex),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"time integration failed: {sol.message}")
    dim = l.space.dim
    m = sol.y[:, -1].reshape(dim, dim)
    trace_drift = abs(np.trace(m) - 1.0)
    if trace_drift > 1e-9:
        raise RuntimeError(f"trace drift {trace_drift:.3e} exceeds 1e-9")
    return DensityMatrix.from_matrix(l.space, (m + m.conj().T) / 2, check=False)


def observables(rho: DensityMatrix, params: SystemParams) -> ObservableSet:
    space = rho.space
    a = annihilation(space)
    n_op = a.dag() @ a
    mean_n = expectation(n_op, rho).real
    alpha = expectation(a, rho)
    pi_e = np.empty(params.n_atoms)
    for n in range(params.n_atoms):
        sig = atomic_lowering(space, n)
        pi_e[n] = expectation(sig.dag() @ sig, rho).real
    i_at_per_atom = params.gamma * pi_e
    g2: float | None
    if mean_n < G2_DEFINED_THRESHOLD:
        g2 = None
    else:
        n2 = expectation(a.dag() @ a.dag() @ a @ a, rho).real
        g2 = n2 / mean_n**2
    return ObservableSet(
        i_at_per_atom=i_at_per_atom,
        i_at_total=float(i_at_per_atom.sum()),
        i_cav=float(params.kappa * mean_n),
        mean_n=float(mean_n),
        alpha=alpha,
        g2_zero=g2,
        pi_e_per_atom=pi_e,
    )


def solve_steady(params: SystemParams, n_max: int | None = None) -> SteadySolution:
    """Steady state with automatic Fock-truncation escalation.

    The top two Fock populations must stay below TAIL_POPULATION_LIMIT;
    otherwise n_max grows by 50% (at most three times).
    """
    current = n_max if n_max is not None else default_n_max(params)
    for escalation in range(MAX_TRUNCATION_ESCALATIONS + 1):
        space = build_space(params, current)
        l = build_liouvillian(params, space)
        rho = steady_state(l)
        tail = fock_populations(rho)[-2:].sum()
        if tail < TAIL_POPULATION_LIMIT:
            residual = np.linalg.norm(l.matrix @ rho.entries.reshape(-1))
            return SteadySolution(
                rho=rho, space=space, n_max=current,
                residual=float(residual), escalations=escalation,
            )
        current = math.ceil(current * 1.5)
    raise TruncationEscalationError(
        f"Fock tail population above {TAIL_POPULATION_LIMIT} after "
        f"{MAX_TRUNCATION_ESCALATIONS} escalations (n_max={current})")


def ground_state(space: SpaceDescriptor) -> DensityMatrix:
    """All atoms in |g>, cavity vacuum."""
    return DensityMatrix.pure(space, basis_state(space, "g" * space.n_atoms, 0))
