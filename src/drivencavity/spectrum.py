"""Probe responses: excitation spectrum, dressed resonances, Stark-shift map."""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import (
    RegimeWarning,
    SystemParams,
    atom_coupling,
    build_liouvillian,
    build_space,
    mode_function,
    term_plan,
)
from .dynamics import solve_steady
from .operators import _require_finite


class SpectrumDomainError(ValueError):
    """The closed-form spectrum is only valid for kappa=0, delta_c=0, N=1."""


@dataclass(frozen=True)
class ProbeParams:
    """Weak probe coupled to the atomic dipole; a non-finite amplitude is a
    ValueError."""

    omega_p_tilde: float

    def __post_init__(self):
        _require_finite(omega_p_tilde=self.omega_p_tilde)

    def weak_for(self, params: SystemParams) -> bool:
        gbar = abs(atom_coupling(params))
        return self.omega_p_tilde < 0.1 * min(gbar, abs(params.omega), params.gamma)


@dataclass(frozen=True)
class ResonancePair:
    """Positions and widths of the dressed-state doublet."""

    delta_plus: float
    delta_minus: float
    gamma_plus: float
    gamma_minus: float
    regime_valid: bool


def _coupled_gbar(params: SystemParams) -> float:
    gbar = atom_coupling(params)
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
    """Probe-to-continuum scattering amplitude, per unit bath coupling.
    A non-finite delta_p is a ValueError."""
    _require_finite(delta_p=delta_p)
    if params.n_atoms != 1 or params.kappa != 0 or params.delta_c != 0:
        raise SpectrumDomainError(
            "excitation spectrum requires N=1, kappa=0 and delta_c=0")
    gbar = _coupled_gbar(params)
    den = delta_p * (delta_p + params.delta + 0.5j * params.gamma) - gbar * gbar
    return probe.omega_p_tilde * delta_p / den


def resonances(params: SystemParams) -> ResonancePair:
    """Doublet positions delta_+- and widths gamma_+- of the spectrum.

    The width formula assumes sqrt(Delta^2 + g^2) >> gamma/2; outside
    that regime regime_valid is False.
    """
    gbar = _coupled_gbar(params)
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
                      alpha_ss: complex) -> float:
    """a.c.-Stark shift of a far-detuned probe atom at position x_probe.

    Dispersive second order in the local field, |Omega e^{i phi} +
    g(x') <a>_ss|^2 / Delta_2, with alpha_ss = <a>_ss the mean field of
    the unperturbed steady state.  A non-finite x_probe, delta_2 or
    alpha_ss is a ValueError.
    """
    _require_finite(x_probe=x_probe, delta_2=delta_2, alpha_ss=alpha_ss)
    if delta_2 == 0:
        raise ValueError("probe-atom detuning must be nonzero")
    if abs(delta_2) < 10 * max(abs(params.g0), abs(params.omega)):
        warnings.warn("dispersive treatment needs |Delta_2| >> g0, Omega",
                      RegimeWarning, stacklevel=2)
    g_probe, phi_probe = mode_function(x_probe, params)
    field = params.omega * np.exp(1j * phi_probe) + g_probe * alpha_ss
    return float(abs(field) ** 2 / delta_2)


# One DOP853 solver per thread, reused by every probe call.  scipy's DOP853
# wrapper keeps a reference to each solver it has run (seen in scipy 1.17:
# every integrate call adds one to its solout method), so a solver made per
# call would keep its work arrays, 22 doubles per density-matrix entry.
_solvers = threading.local()


def _dop853_solver():
    # imported here: only this probe needs it, and it loads scipy.optimize
    import scipy.integrate
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
    (absolute) on each part.  t_final must be finite and positive, and
    delta_p finite.
    """
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final must be finite and > 0, got {t_final!r}")
    _require_finite(delta_p=delta_p)
    sol = solve_steady(params, n_max=n_max)
    space = sol.space
    l = build_liouvillian(params, space)
    # atom 0's sig, |g><e| with unit entries: sig^dag sig is diagonal, with
    # ones at sig's columns, so tr(sig^dag sig rho) sums these entries of
    # vec(rho)
    sig = term_plan(space).collapses[0]
    dim = space.dim
    populations = sig.col * (dim + 1)

    def i_at(vec_rho: np.ndarray) -> float:
        return params.gamma * float(vec_rho[populations].real.sum())

    one = sp.identity(dim, format="csr")
    commutators = [
        -1j * probe.omega_p_tilde * (sp.kron(s, one) - sp.kron(one, s.T))
        for s in (sig.T, sig)]
    stacked = sp.vstack([l.matrix, *commutators], format="csr")

    rho_ss = sol.rho.entries.reshape(-1).astype(complex)
    solver = _dop853_solver()
    solver.set_f_params(stacked, delta_p)
    solver.set_initial_value(rho_ss.view(float), 0.0)
    samples = []
    for t in np.linspace(0.5 * t_final, t_final, 81):
        y = solver.integrate(t)
        if not solver.successful():
            raise RuntimeError(
                f"probe integration failed at t={solver.t:g}: "
                f"DOP853 return code {solver.get_return_code()}")
        samples.append(i_at(y.view(complex)))
    return float(np.mean(samples)) - i_at(rho_ss)
