"""Exact steady states, time evolution, and observables."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg
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

# steady_state solves by sparse LU below this Hilbert-space dimension and by
# preconditioned GMRES from it on, where LU fill dominates, when there are two
# or more atoms.  One atom stays on LU at every size: its fill grows slowly,
# and GMRES can stall there under strong drive.  Two atoms at (0, 0.37),
# GMRES / LU in ms, best of 3 (2-vCPU Xeon VM, one BLAS thread):
#
#   dim                     16        24         32         48        64
#   fig6 parameters      3.0/2.4   4.0/5.4    5.1/11.3  16.3/39.2  22.5/91
#   g0=1 Om=1 kappa=0.5 11.5/3.2  19.8/6.9   17.2/9.2   27.6/39.7  46.5/101
#   g0=1 Om=3 kappa=0.1 13.3/2.3  27.3/6.8   38.0/12.5  64.9/46.6   142/104
#
# The last row loses at 48, but that drive (beta = Om/g0 = 3) starts at
# n_max = 37, not the 11 of dim 48: a dim-48 state there is far from
# converged and escalates past the crossover anyway.
KRYLOV_MIN_DIM = 48

G2_DEFINED_THRESHOLD = 1e-12

TAIL_POPULATION_LIMIT = 1e-8
MAX_TRUNCATION_ESCALATIONS = 3


class SteadyStateError(RuntimeError):
    """The steady-state solve did not meet its residual contract."""


class DegenerateSteadyStateError(SteadyStateError):
    def __init__(self, condition: float, detail: str = ""):
        super().__init__(
            f"degenerate steady state: condition estimate {condition:.3e}"
            + (f" ({detail})" if detail else ""))
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

    The first equation of L rho = 0 is replaced by the trace row, which
    gives a matrix m with m vec(rho) = e_0.  With one atom, or below
    KRYLOV_MIN_DIM, m is solved by sparse LU.  Otherwise it is solved by
    GMRES preconditioned with the inverse of rho -> -i(h_eff rho - rho
    h_eff^dag), to relative residual 1e-8, and refined once: GMRES solves
    m d = e_0 - m x to 1e-8 of its right-hand side and x += d.  (Adding
    1 tr(rho) to every diagonal equation instead of the trace row would put
    rounding noise on all of them, which near-dark states cannot afford.)

    A degenerate null space makes m singular.  DegenerateSteadyStateError
    is raised when the LU factorization fails, when GMRES cannot solve m
    against a fixed random vector r to 1e-6 in three restart cycles, or
    when the 1-norm condition estimate |m| |m^-1 r| / |r| exceeds
    DEGENERACY_CONDITION_LIMIT.  A state whose residual |L rho| exceeds
    1e-9 dim, or a GMRES solve that does not converge, is a SteadyStateError.
    """
    dim = l.space.dim
    side = l.matrix.shape[0]
    trace_row = sp.csr_matrix((np.ones(dim), (np.zeros(dim, dtype=int),
                                              np.arange(dim) * (dim + 1))),
                              shape=(side, side))
    m = sp.diags(np.r_[0.0, np.ones(side - 1)]) @ l.matrix + trace_row
    r = np.random.default_rng(0).standard_normal(side).astype(complex)
    b = np.zeros(side, dtype=complex)
    b[0] = 1.0
    if l.space.n_atoms < 2 or dim < KRYLOV_MIN_DIM:
        try:
            lu = spla.splu(m.tocsc())
        except RuntimeError:
            raise DegenerateSteadyStateError(math.inf) from None
        probe, solve = lu.solve(r), lu.solve
    else:
        precondition = _no_jump_inverse(l.h_eff)
        try:
            probe = _gmres(m, r, precondition, 1e-6, max_cycles=3)
        except SteadyStateError as exc:
            raise DegenerateSteadyStateError(math.inf, str(exc)) from None

        def solve(rhs):
            x = _gmres(m, rhs, precondition, 1e-8)
            return x + _gmres(m, rhs - m @ x, precondition, 1e-8)
    condition = spla.norm(m, 1) * np.abs(probe).sum() / np.abs(r).sum()
    if not condition <= DEGENERACY_CONDITION_LIMIT:
        raise DegenerateSteadyStateError(condition)
    rho = solve(b).reshape(dim, dim)
    rho = (rho + rho.conj().T) / 2 / np.trace(rho).real
    residual = float(np.linalg.norm(l.matrix @ rho.reshape(-1)))
    if residual > 1e-9 * dim:
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds {1e-9 * dim:.3e}")
    return DensityMatrix.from_matrix(l.space, rho, check=False)


def _no_jump_inverse(h_eff: np.ndarray) -> spla.LinearOperator:
    """Inverse of the no-jump part rho -> -i(h_eff rho - rho h_eff^dag) of L.

    With h_eff = V diag(d) V^-1, the map acts on X = V^-1 rho V^-dag
    elementwise as multiplication by -i(d_i - conj(d_j)).  Vectorized
    row-major, as a preconditioner for GMRES on the Liouvillian.
    """
    dim = h_eff.shape[0]
    d, v = scipy.linalg.eig(h_eff)
    v_inv = np.linalg.inv(v)
    v_dag, v_inv_dag = v.conj().T, v_inv.conj().T
    gap = d[:, None] - d.conj()[None, :]
    # pairs of undamped states with equal energies (the undriven ground
    # state, say) are left unscaled: the map has no inverse there
    resolved = np.abs(gap) > 1e-12 * np.abs(d).max()
    factor = np.where(resolved, 1j / np.where(resolved, gap, 1.0), 1.0)

    def apply(y):
        x = v_inv @ y.reshape(dim, dim) @ v_inv_dag
        return (v @ (factor * x) @ v_dag).reshape(-1)

    return spla.LinearOperator((dim * dim, dim * dim), apply, dtype=complex)


def _gmres(m, rhs, precondition, rtol: float, max_cycles: int = 10):
    """Restarted GMRES solution of m x = rhs to relative residual rtol.

    Raises SteadyStateError with the iteration count and residual if it
    does not get there in max_cycles restart cycles.
    """
    residuals = []
    x, info = spla.gmres(m, rhs, rtol=rtol, restart=100, maxiter=max_cycles,
                         M=precondition, callback=residuals.append,
                         callback_type="pr_norm")
    if info != 0:
        relres = np.linalg.norm(rhs - m @ x) / np.linalg.norm(rhs)
        raise SteadyStateError(
            f"GMRES stopped after {len(residuals)} iterations at relative "
            f"residual {relres:.3e}, target {rtol:g}")
    return x


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
        if escalation:
            current = math.ceil(current * 1.5)
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
    raise TruncationEscalationError(
        f"Fock tail population {tail:.3e} at n_max={current} is above "
        f"{TAIL_POPULATION_LIMIT} after {MAX_TRUNCATION_ESCALATIONS} "
        f"escalations")


def ground_state(space: SpaceDescriptor) -> DensityMatrix:
    """All atoms in |g>, cavity vacuum."""
    return DensityMatrix.pure(space, basis_state(space, "g" * space.n_atoms, 0))
