"""Probe responses: excitation spectrum, dressed resonances, Stark-shift map."""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.sparse as sp

from .model import (
    K_WAVENUMBER,
    RegimeWarning,
    SystemParams,
    build_liouvillian,
    build_space,
    coupling_profile,
)
from .operators import atomic_lowering, expectation
from .dynamics import observables, solve_steady


class SpectrumDomainError(ValueError):
    """The closed-form spectrum is only valid for kappa=0, delta_c=0, N=1."""


@dataclass(frozen=True)
class ProbeParams:
    """Weak probe coupled to the atomic dipole."""

    omega_p_tilde: float

    def weak_for(self, params: SystemParams) -> bool:
        prof = coupling_profile(params)
        gbar = abs(float(prof.g_n[0]))
        return self.omega_p_tilde < 0.1 * min(gbar, abs(params.omega), params.gamma)


@dataclass(frozen=True)
class ResonancePair:
    """Positions and widths of the dressed-state doublet."""

    delta_plus: float
    delta_minus: float
    gamma_plus: float
    gamma_minus: float
    regime_valid: bool


def _gbar(params: SystemParams) -> float:
    prof = coupling_profile(params)
    g = float(prof.g_n[0])
    if abs(g) < 1e-12 * max(abs(params.g0), 1.0):
        return 0.0
    return g


def _check_domain(params: SystemParams) -> float:
    if params.n_atoms != 1 or params.kappa != 0 or params.delta_c != 0:
        raise SpectrumDomainError(
            "excitation spectrum requires N=1, kappa=0 and delta_c=0")
    gbar = _gbar(params)
    if gbar == 0:
        raise SpectrumDomainError("atom sits at a node of the mode function")
    return gbar


def excitation_spectrum(delta_p: float, params: SystemParams,
                        probe: ProbeParams) -> float:
    """Probe-photon scattering rate into free space at detuning delta_p,
    gamma |transition_amplitude|^2."""
    amplitude = transition_amplitude(delta_p, params, probe)
    if not probe.weak_for(params):
        warnings.warn("probe is not weak compared to g, Omega, gamma",
                      RegimeWarning, stacklevel=2)
    return params.gamma * abs(amplitude) ** 2


def transition_amplitude(delta_p: float, params: SystemParams,
                         probe: ProbeParams) -> complex:
    """Probe-to-continuum scattering amplitude, per unit bath coupling."""
    gbar = _check_domain(params)
    den = delta_p * (delta_p + params.delta + 0.5j * params.gamma) - gbar * gbar
    return probe.omega_p_tilde * delta_p / den


def resonances(params: SystemParams) -> ResonancePair:
    """Doublet positions delta_+- and widths gamma_+- of the spectrum.

    The width formula assumes sqrt(Delta^2 + g^2) >> gamma/2; outside
    that regime regime_valid is False.
    """
    gbar = _gbar(params)
    if gbar == 0:
        raise SpectrumDomainError("atom sits at a node of the mode function")
    delta = params.delta
    root = math.sqrt(delta**2 + 4 * gbar**2)
    d_plus = 0.5 * (-delta + root)
    d_minus = 0.5 * (-delta - root)
    g_plus = params.gamma / 4 * (1 + abs(delta) / root)
    g_minus = params.gamma / 4 * (1 - abs(delta) / root)
    valid = math.sqrt(delta**2 + gbar**2) > 5 * params.gamma
    return ResonancePair(delta_plus=d_plus, delta_minus=d_minus,
                         gamma_plus=g_plus, gamma_minus=g_minus,
                         regime_valid=valid)


def probe_stark_shift(x_probe: float, delta_2: float, params: SystemParams,
                      alpha_ss: complex | None = None) -> float:
    """a.c.-Stark shift of a far-detuned probe atom at position x_probe.

    Dispersive second order in the local field, |Omega e^{i phi} +
    g(x') <a>_ss|^2 / Delta_2, with the mean field of the unperturbed
    steady state (pass alpha_ss to avoid re-solving on a sweep).
    """
    if delta_2 == 0:
        raise ValueError("probe-atom detuning must be nonzero")
    if abs(delta_2) < 10 * max(abs(params.g0), abs(params.omega)):
        warnings.warn("dispersive treatment needs |Delta_2| >> g0, Omega",
                      RegimeWarning, stacklevel=2)
    if alpha_ss is None:
        sol = solve_steady(params)
        alpha_ss = observables(sol.rho, params).alpha
    g_probe = params.g0 * math.cos(K_WAVENUMBER * x_probe)
    phi_probe = K_WAVENUMBER * x_probe * math.cos(params.theta)
    field = params.omega * np.exp(1j * phi_probe) + g_probe * alpha_ss
    return float(abs(field) ** 2 / delta_2)


# One DOP853 solver per thread, reused by every probe call.  scipy's DOP853
# wrapper keeps a reference to each solver it has run (seen in scipy 1.17:
# every integrate call adds one to its solout method), so a solver made per
# call would keep its work arrays, 22 doubles per density-matrix entry.
_solvers = threading.local()


def _dop853_solver() -> scipy.integrate.ode:
    if not hasattr(_solvers, "dop853"):
        _solvers.dop853 = scipy.integrate.ode(_probe_rhs).set_integrator(
            "dop853", rtol=1e-8, atol=1e-10, nsteps=100_000)
    return _solvers.dop853


def _probe_rhs(t: float, y: np.ndarray, stacked: sp.csr_matrix,
               delta_p: float) -> np.ndarray:
    """d vec(rho)/dt as floats, with stacked = [L; P_+; P_-] (see
    probe_response_numeric) and y the floats of vec(rho)."""
    side = stacked.shape[1]
    terms = stacked @ y.view(complex)
    phase = np.exp(-1j * delta_p * t)
    return (terms[:side] + phase * terms[side:2 * side]
            + phase.conjugate() * terms[2 * side:]).view(float)


def probe_response_numeric(delta_p: float, params: SystemParams,
                           probe: ProbeParams, n_max: int | None = None,
                           t_final: float = 80.0) -> float:
    """Excess fluorescence under a weak probe drive, from the exact
    master equation with the probe added as a classical field at
    detuning delta_p.  Cross-validates the closed-form spectrum.

    The drive starts on the steady state; the excess is averaged over 81
    samples on t_final/2 .. t_final.  With H_p = Omega_p (e^{-i delta_p t}
    sig^dag + e^{i delta_p t} sig), d vec(rho)/dt = (L + e^{-i delta_p t}
    P_+ + e^{i delta_p t} P_-) vec(rho), where P_+- is the commutator
    -i Omega_p (s (x) 1 - 1 (x) s^T) of s = sig^dag, sig; L, P_+ and P_-
    are stacked into one sparse matrix, so each right-hand side is one
    product.  Integrated by DOP853 (scipy.integrate.ode) on the real and
    imaginary parts of vec(rho), to tolerances 1e-8 (relative) and 1e-10
    (absolute) on each part.
    """
    sol = solve_steady(params, n_max=n_max)
    space = sol.space
    l = build_liouvillian(params, space)
    sig = atomic_lowering(space, 0)
    excited = sig.dag() @ sig
    i_at_ss = params.gamma * expectation(excited, sol.rho).real

    dim = space.dim
    one = sp.identity(dim, format="csr")
    commutators = [
        -1j * probe.omega_p_tilde * (sp.kron(s, one) - sp.kron(one, s.T))
        for s in (sp.csr_matrix(sig.dag().entries), sp.csr_matrix(sig.entries))]
    stacked = sp.vstack([l.matrix, *commutators], format="csr")

    solver = _dop853_solver()
    solver.set_f_params(stacked, delta_p)
    solver.set_initial_value(
        sol.rho.entries.reshape(-1).astype(complex).view(float), 0.0)
    # sig^dag sig is diagonal: tr(sig^dag sig rho) sums these entries of
    # vec(rho)
    populations = np.flatnonzero(excited.entries.diagonal()) * (dim + 1)
    pops = []
    for t in np.linspace(0.5 * t_final, t_final, 81):
        y = solver.integrate(t)
        if not solver.successful():
            raise RuntimeError(
                f"probe integration failed at t={solver.t:g}: "
                f"DOP853 return code {solver.get_return_code()}")
        pops.append(y.view(complex)[populations].real.sum())
    return params.gamma * float(np.mean(pops)) - i_at_ss
