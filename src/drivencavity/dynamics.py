"""Exact steady states, time evolution, and observables."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import (
    SystemParams,
    Superoperator,
    _check_atom_count,
    build_liouvillian,
    build_space,
    term_plan,
)
from .operators import (
    DensityMatrix,
    SpaceDescriptor,
    _check_same_space,
    basis_state,
    fock_populations,
)

# The trace-row matrix is treated as singular when its 1-norm condition
# estimate exceeds this bound (a relative null-space threshold of 1e-10).
DEGENERACY_CONDITION_LIMIT = 1e10

# Where the steady state is unique by structure (see _TraceRowSystem), the
# condition estimate is taken to be at most this multiple of the
# scale |m|_1 / (the smallest positive decay rate, min(kappa, gamma)).  On
# 280 seeded systems (N = 1-3, kappa 1e-6 to 100, g0 1e-3 to 20, Omega <=
# g0, Delta and delta_c 0 or up to +-100, n_max 1 to 39, dim <= 216) and a
# grid of 1536 small ones (N = 1-2, n_max 1-5, g0 down to 0) the estimate
# reached 1.45 times the scale, and the exact 1-norm condition number, of
# which it is a lower bound, 22.6 times it (one atom, n_max 24).
CONDITION_SCALE_BOUND = 100.0

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

    i_at_total: float              # gamma sum_n <sig_n^dag sig_n>
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
    residual: float                # |L rho|
    escalations: int
    condition: float               # the bound that certified the state
    certified: str                 # "structure" or "estimate" (see
                                   # _TraceRowSystem.condition)


def steady_state(l: Superoperator) -> DensityMatrix:
    """Unique unit-trace null element of the Liouvillian.

    The first equation of L rho = 0 is replaced by the trace row, which
    gives a matrix m with m vec(rho) = e_0.  With one atom, m is built and
    solved by sparse LU; with more, m is never built: GMRES, preconditioned
    with the inverse P^-1 of rho -> -i(h_eff rho - rho h_eff^dag), applies
    m as L with its entry 0 replaced by the trace, to relative residual
    1e-8.  First pass by the route's solve, then one refinement by the
    route's solve: m d = e_0 - m x, and x += d.  GMRES's first pass is
    right-preconditioned (m P^-1 u = e_0, x = P^-1 u) and stops on the true
    residual |e_0 - m x|; its refinement is left-preconditioned (see
    _TraceRowSystem).  (Adding 1 tr(rho) to every diagonal equation
    instead of the trace row would put rounding noise on all of them,
    which near-dark states cannot afford.)

    The state is certified before it is solved for: a degenerate null space
    makes m singular.  Where kappa > 0 (and gamma > 0) the state is unique
    on every truncation (see _TraceRowSystem), and m is certified without a
    solve when CONDITION_SCALE_BOUND |m|_1 / min(kappa, gamma) is within
    DEGENERACY_CONDITION_LIMIT.  Otherwise m is solved against a fixed
    random vector r, by LU or by the first pass's GMRES as above, and a
    DegenerateSteadyStateError is raised when that solve fails, or when the
    1-norm condition estimate |m| |m^-1 r| / |r| exceeds
    DEGENERACY_CONDITION_LIMIT.  A failed LU factorization is a
    DegenerateSteadyStateError before either.  A state whose residual
    |L rho| exceeds 1e-9 dim, or a GMRES solve that does not converge, is a
    SteadyStateError.  In that order: the factorization, the certificate,
    the first pass, then the refinement and the residual check (see
    _TraceRowSystem).
    """
    system = _TraceRowSystem(l)
    system.condition()
    return system.finish(system.first_pass())[0]


class _TraceRowSystem:
    """m vec(rho) = e_0 for one Liouvillian, set up once (see steady_state).

    Construction factors m by sparse LU with one atom, whose fill grows
    slowly and where GMRES stalls under strong drive (g0 = 1, Omega = 3,
    kappa = 0.1 at dim 160), or eigendecomposes h_eff for the GMRES
    preconditioner P^-1 with more.  The condition estimate and the solve
    both use that path's solve, in either order.  The solve comes in two
    steps, so that a caller can read the state after the first and skip
    the second: first pass, then one refinement in finish, which returns
    the unit-trace Hermitian state with its residual check.  LU does both
    with the same solve.  GMRES solves the first pass and the estimate
    with P^-1 on the right, m P^-1 u = rhs and x = P^-1 u, so that it
    minimizes and stops on the true residual |rhs - m x| and takes no more
    iterations than 1e-8 needs; with P^-1 on the left scipy stops on
    |P^-1 (rhs - m x)| instead, which takes 15-40% more iterations at
    fig7's lambda/2 band.
    The refinement keeps P^-1 on the left: its right-hand side e_0 - m x
    can be as small as 1e-16 in norm, and on the right scipy's GMRES then
    takes the Krylov vector, dominated by P^-1's large factors, for an
    exact breakdown (h1 <= eps h0) and stops short, at relative residuals
    of 1e-7 to 1e-5 on weakly driven two- and three-atom systems.

    A system holds only what its solves and checks read: L's CSR matrix,
    the space and the decay rates -2 Im diag(h_eff), and no copy of L.  It
    keeps no Superoperator.  The LU path builds m only to factor it, as
    the CSC matrix m^T that m's CSR arrays are, and solves with
    trans="T".  Both paths apply m v as L v with entry 0 replaced by the
    sum of v's diagonal entries, the trace (_trace_columns).  At the
    largest truncations L alone takes tens of MB, so a copy next to it
    would double a solve's memory.

    Why kappa > 0 and gamma > 0 make the steady state unique on every
    truncation (Spohn, Rev. Mod. Phys. 52, 569 (1980); Baumgartner and
    Narnhofer, J. Phys. A 41, 395303 (2008)):
    - The collapse operators sqrt(gamma) sig_n and sqrt(kappa) a commute
      and are nilpotent on the truncated space.  Their common kernel is
      that of sum_k rate_k c_k^dag c_k = -2 Im h_eff, which is diagonal:
      only |g...g, 0> is annihilated by all of them.  At kappa = 0 every
      |g...g, n> is.
    - The support of a steady state is invariant under every collapse
      operator, so it holds a common eigenvector of theirs, which, as they
      are nilpotent, is in the common kernel: |g...g, 0>.
    - Two different steady states would give two with orthogonal supports
      (the positive and negative parts of their difference), and both
      supports would hold |g...g, 0>.
    The structure alone does not bound how close m is to singular; the
    scale |m|_1 / min(kappa, gamma) does, through CONDITION_SCALE_BOUND.
    """

    def __init__(self, l: Superoperator):
        self.space, dim = l.space, l.space.dim
        self.lmat = lmat = l.matrix
        self._decay = -2 * np.diag(l.h_eff).imag
        self._e0 = np.eye(1, lmat.shape[0], dtype=complex)[0]
        # closures over locals, not self: a cycle through self would hold L
        # and the factors or preconditioner until the cyclic collector runs
        diagonal = _trace_columns(lmat, dim)

        def matvec(v):
            mv = lmat @ v
            mv[0] = v[diagonal].sum()
            return mv

        self._matvec = matvec
        if l.space.n_atoms < 2:
            try:
                lu = spla.splu(_trace_row_matrix(lmat, dim).T)
            except RuntimeError:
                raise DegenerateSteadyStateError(math.inf) from None
            self._solve = self._first_solve = (
                lambda rhs: lu.solve(rhs, trans="T"))
        else:
            m = spla.LinearOperator(lmat.shape, matvec, dtype=lmat.dtype)
            precondition = _no_jump_inverse(l.h_eff)
            right = spla.LinearOperator(
                lmat.shape, lambda u: matvec(precondition.matvec(u)),
                dtype=lmat.dtype)
            self._first_solve = (
                lambda rhs: precondition.matvec(_gmres(right, rhs)))
            self._solve = lambda rhs: _gmres(m, rhs, precondition)

    @functools.cached_property
    def norm1(self) -> float:
        """|m|_1, the largest column sum of |L| with row 0 taken as the
        trace row, summed in the order of scipy's norm of a built m."""
        lmat, dim = self.lmat, self.space.dim
        start = lmat.indptr[1]
        sums = np.zeros(lmat.shape[1])
        sums[_trace_columns(lmat, dim)] = 1.0
        np.add.at(sums, lmat.indices[start:], np.abs(lmat.data[start:]))
        return float(sums.max())

    def scale(self) -> float:
        """|m|_1 over the smallest positive diagonal entry of -2 Im h_eff, or
        inf unless exactly one entry is <= 0 (kappa > 0 and gamma > 0)."""
        decay = self._decay
        if np.count_nonzero(decay <= 0) != 1:
            return math.inf
        return self.norm1 / float(decay[decay > 0].min())

    def condition(self) -> tuple[float, str]:
        """(bound, how) that certifies m, or DegenerateSteadyStateError.

        By "structure": CONDITION_SCALE_BOUND times the scale, when it is
        within DEGENERACY_CONDITION_LIMIT; nothing is solved.  Else by
        "estimate": the 1-norm condition estimate, which must be within the
        limit too.
        """
        bound = CONDITION_SCALE_BOUND * self.scale()
        if bound <= DEGENERACY_CONDITION_LIMIT:
            return bound, "structure"
        return self.estimate(), "estimate"

    def estimate(self) -> float:
        """The 1-norm condition estimate of m from the first pass's solve
        against a fixed random vector, or DegenerateSteadyStateError when
        that solve fails or the estimate exceeds
        DEGENERACY_CONDITION_LIMIT."""
        side = self.lmat.shape[0]
        r = np.random.default_rng(0).standard_normal(side).astype(complex)
        try:
            x = self._first_solve(r)
        except SteadyStateError as exc:
            raise DegenerateSteadyStateError(math.inf, str(exc)) from None
        condition = float(self.norm1 * np.abs(x).sum() / np.abs(r).sum())
        if not condition <= DEGENERACY_CONDITION_LIMIT:
            raise DegenerateSteadyStateError(condition)
        return condition

    def first_pass(self) -> np.ndarray:
        """x with m x = e_0: the LU solution, or right-preconditioned
        GMRES's to a true relative residual of 1e-8."""
        return self._first_solve(self._e0)

    def state(self, x: np.ndarray) -> DensityMatrix:
        """The unit-trace Hermitian part of vec(rho) = x, unchecked."""
        dim = self.space.dim
        rho = x.reshape(dim, dim)
        rho = (rho + rho.conj().T) / 2 / np.trace(rho).real
        return DensityMatrix(self.space, rho)

    def finish(self, x: np.ndarray) -> tuple[DensityMatrix, float]:
        """The state of first_pass's x refined once, by LU or by GMRES with
        P^-1 on the left, and its residual |L rho|, or SteadyStateError
        when the residual exceeds 1e-9 dim."""
        rho = self.state(x + self._solve(self._e0 - self._matvec(x)))
        dim = self.space.dim
        residual = float(np.linalg.norm(self.lmat @ rho.entries.reshape(-1)))
        if residual > 1e-9 * dim:
            raise SteadyStateError(
                f"steady-state residual {residual:.3e} exceeds {1e-9 * dim:.3e}")
        return rho, residual


def _trace_columns(lmat: sp.csr_matrix, dim: int) -> np.ndarray:
    """The columns of vec(rho)'s diagonal entries, where the trace row of
    lmat's space holds its ones, in lmat's index type."""
    return np.arange(dim, dtype=lmat.indices.dtype) * (dim + 1)


def _trace_row_matrix(lmat: sp.csr_matrix, dim: int) -> sp.csr_matrix:
    """lmat with its row 0 replaced by the trace row, the ones at the
    diagonal entries of vec(rho); built from new CSR arrays."""
    start = lmat.indptr[1]
    return sp.csr_matrix(
        (np.concatenate((np.ones(dim), lmat.data[start:])),
         np.concatenate((_trace_columns(lmat, dim), lmat.indices[start:])),
         np.concatenate(([0], lmat.indptr[1:] - start + dim))),
        shape=lmat.shape)


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


def _gmres(m, rhs, precondition=None):
    """Restarted GMRES solution of m x = rhs to relative residual 1e-8,
    with m a LinearOperator and precondition, if given, applied on the
    left.

    scipy stops its inner iteration on the residual it minimizes, which
    with a left preconditioner P^-1 is |P^-1 (rhs - m x)|, and accepts x
    on the true residual |rhs - m x|.  A right-preconditioned solve passes
    m P^-1 as m and no precondition, so that both are the true residual
    (see _TraceRowSystem).

    Raises SteadyStateError with the iteration count and residual if it
    does not get there in ten restart cycles of 100 iterations.  scipy
    allocates its restart + 1 = 101 Krylov vectors of dim^2 complex entries
    up front (238 MB of address space at five atoms, dim 384); their pages
    become resident as the iteration reaches each vector.
    """
    residuals = []
    x, info = spla.gmres(m, rhs, rtol=1e-8, restart=100, maxiter=10,
                         M=precondition, callback=residuals.append,
                         callback_type="pr_norm")
    if info != 0:
        relres = np.linalg.norm(rhs - m.matvec(x)) / np.linalg.norm(rhs)
        raise SteadyStateError(
            f"GMRES stopped after {len(residuals)} iterations at relative "
            f"residual {relres:.3e}, target 1e-08")
    return x


def evolve(rho0: DensityMatrix, l: Superoperator,
           t_final: float) -> DensityMatrix:
    """exp(L t_final) rho0 for a finite t_final >= 0.

    Computed as the action of the matrix exponential on vec(rho0) (see
    _expm_action), exact to double precision: there is no adaptive stepper
    and no tolerance, and the bytes of the result depend on the inputs
    alone.  A result whose trace is more than 1e-9 from 1 is a
    RuntimeError, and rho0 and l on different spaces a SpaceMismatchError.
    """
    if not 0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and >= 0, got {t_final!r}")
    _check_same_space(rho0.space, l.space)
    if t_final == 0:
        return rho0
    v = _expm_action(l.matrix, rho0.entries.reshape(-1).astype(complex),
                     float(t_final))
    dim = l.space.dim
    m = v.reshape(dim, dim)
    trace_drift = abs(np.trace(m) - 1.0)
    if trace_drift > 1e-9:
        raise RuntimeError(f"trace drift {trace_drift:.3e} exceeds 1e-9")
    return DensityMatrix.from_matrix(l.space, m, check=False)


def _expm_action(a: sp.csr_matrix, v: np.ndarray, t: float) -> np.ndarray:
    """exp(t a) v by scaling and Taylor summation (Al-Mohy and Higham, SIAM
    J. Sci. Comput. 33, 488 (2011)).

    a is shifted by mu = tr(a)/side, and t split into s steps of h = t/s
    with h |a - mu|_1 <= 9.9, within which a Taylor series of degree 55
    sums the exponential to double precision (theta_55, their Table 3.1).
    Each step sums the series of exp(h (a - mu)) v until two successive
    terms together fall below 2^-53 of the sum in the max norm (scipy's
    rule), and multiplies by exp(mu h).  The 1-norm is computed exactly,
    not estimated as in scipy's expm_multiply, whose estimate draws from
    numpy's global random state.

    Degree 55 is also where their choice of (m, s) lands when the exact
    1-norm is the only bound: s m ~ t |a - mu|_1 m / theta_m is least where
    theta_m / m is largest, 9.9/55 against 8.5/50 and 6.0/40.  Only the
    |a^p|^(1/p) bounds of their Algorithm 3.2 could take fewer steps.
    """
    side = a.shape[0]
    mu = a.diagonal().sum() / side
    a = a - mu * sp.identity(side, dtype=a.dtype, format="csr")
    steps = max(1, math.ceil(t * spla.norm(a, 1) / 9.9))
    h = t / steps
    eta = np.exp(mu * h)
    for _ in range(steps):
        f = b = v
        c1 = np.abs(b).max()
        for j in range(1, 56):
            b = (h / j) * (a @ b)
            c2 = np.abs(b).max()
            f = f + b
            if c1 + c2 <= 2.0**-53 * np.abs(f).max():
                break
            c1 = c2
        v = eta * f
    return v


def observables(rho: DensityMatrix, params: SystemParams) -> ObservableSet:
    _check_atom_count(params, rho.space)
    plan = term_plan(rho.space)
    # Tr(op rho) is the sum of op[i, j] rho[j, i] over op's entries
    at_terms = rho.entries[plan.h_cols, plan.h_rows]
    traces = at_terms @ plan.h_terms
    mean_n = traces[plan.number].real
    a = plan.annihilation
    alpha = complex(a.data @ rho.entries[a.col, a.row])
    pi_e = traces[plan.atom_populations].real
    g2: float | None
    if mean_n < G2_DEFINED_THRESHOLD:
        g2 = None
    else:
        # a^dag a is diagonal, and a^dag a^dag a a = a^dag a (a^dag a - 1)
        n = plan.h_terms[:, plan.number]
        n2 = ((n * (n - 1)) @ at_terms).real
        g2 = n2 / mean_n**2
    return ObservableSet(
        i_at_total=float((params.gamma * pi_e).sum()),
        i_cav=float(params.kappa * mean_n),
        mean_n=float(mean_n),
        alpha=alpha,
        g2_zero=g2,
        pi_e_per_atom=pi_e,
    )


# the thread-count getter and setter of numpy's OpenBLAS, then of scipy's
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                        "scipy_openblas_{}_num_threads")


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) of the thread count of each OpenBLAS copy in this process;
    none where the loaded libraries cannot be listed or lack the symbols."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return ()
    paths = sorted({line.split(maxsplit=5)[5].strip()
                    for line in maps.splitlines() if "openblas" in line})
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            get = getattr(lib, symbol.format("get"), None)
            set_ = getattr(lib, symbol.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
    return tuple(controls)


# how many _one_blas_thread blocks are open, and the counts the first saved
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: list[int] = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_blas_lock.acquire,
                        after_in_parent=_blas_lock.release,
                        after_in_child=_blas_lock.release)


@contextlib.contextmanager
def _one_blas_thread():
    """Each OpenBLAS copy on one thread inside, on its old count after.

    The matrices of one point are small: a BLAS thread pool costs more
    than it saves, and across workers it oversubscribes the cores.  Forked
    workers inherit the setting.  The count is process-wide: blocks may
    nest or overlap across threads, the first to open saves the count and
    the last to close restores it, and numpy work in other threads runs on
    one BLAS thread meanwhile.
    """
    global _blas_depth, _blas_saved
    controls = _blas_thread_controls()
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [get() for get, _ in controls]
            for _, set_ in controls:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (_, set_), n in zip(controls, _blas_saved):
                    set_(n)


def solve_steady(params: SystemParams, n_max: int | None = None) -> SteadySolution:
    """Steady state with automatic Fock-truncation escalation.

    The top two Fock populations must stay below TAIL_POPULATION_LIMIT;
    otherwise n_max grows by 50% (at most three times).  n_max, when given,
    is at least 1.  The tail is read first from the state of the first pass
    (see _TraceRowSystem): a step whose tail is too heavy there is discarded
    unrefined and unchecked, since the refinement moves the tail by far
    less than the limit.  The step that passes is finished from that same
    first pass, and escalates after all if the refined state's tail
    crosses the limit.  The first truncation is certified before it is
    solved, as in steady_state, so a degenerate system fails there.  A
    later one is certified only if it is returned, on the same
    factorization or preconditioner; a discarded step is never certified.
    A discarded step's system and first pass are released before the next
    Liouvillian is built, so at most one truncation's L is held at a time.
    Runs with each OpenBLAS copy on one thread, which holds for the whole
    process while the solve runs (see _one_blas_thread).
    """
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be None or an integer >= 1, got {n_max!r}")
    with _one_blas_thread():
        current = build_space(params, n_max).n_max
        for escalation in range(MAX_TRUNCATION_ESCALATIONS + 1):
            if escalation:
                current = math.ceil(current * 1.5)
            space = build_space(params, current)
            system = _TraceRowSystem(build_liouvillian(params, space))
            if not escalation:
                condition, certified = system.condition()
            x = system.first_pass()
            tail = fock_populations(system.state(x))[-2:].sum()
            if tail < TAIL_POPULATION_LIMIT:
                rho, residual = system.finish(x)
                tail = fock_populations(rho)[-2:].sum()
                if tail < TAIL_POPULATION_LIMIT:
                    if escalation:
                        condition, certified = system.condition()
                    return SteadySolution(
                        rho=rho, space=space, n_max=current,
                        residual=residual, escalations=escalation,
                        condition=condition, certified=certified,
                    )
            # L of this truncation goes before the next one's is built
            del system, x
        raise TruncationEscalationError(
            f"Fock tail population {tail:.3e} at n_max={current} is above "
            f"{TAIL_POPULATION_LIMIT} after {MAX_TRUNCATION_ESCALATIONS} "
            f"escalations")


def ground_state(space: SpaceDescriptor) -> DensityMatrix:
    """All atoms in |g>, cavity vacuum."""
    return DensityMatrix.pure(space, basis_state(space, "g" * space.n_atoms, 0))
