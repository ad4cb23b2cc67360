"""Probe responses: excitation spectrum, dressed resonances, Stark-shift map."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from .model import (
    K_WAVENUMBER,
    RegimeWarning,
    SystemParams,
    build_liouvillian,
    build_space,
    coupling_profile,
)
from .operators import annihilation, atomic_lowering, expectation
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


def probe_response_numeric(delta_p: float, params: SystemParams,
                           probe: ProbeParams, n_max: int | None = None,
                           t_final: float = 80.0) -> float:
    """Excess fluorescence under a weak probe drive, from the exact
    master equation with the probe added as a classical field at
    detuning delta_p.  Cross-validates the closed-form spectrum.

    The drive starts on the steady state; the excess is averaged over
    t_final/2 .. t_final, integrated to tolerances 1e-8 (relative) and
    1e-10 (absolute).
    """
    sol = solve_steady(params, n_max=n_max)
    space = sol.space
    l = build_liouvillian(params, space)
    sig = atomic_lowering(space, 0)
    proj = (sig.dag() @ sig).entries
    i_at_ss = params.gamma * expectation(sig.dag() @ sig, sol.rho).real

    sig_m = sig.entries
    sig_p = sig.dag().entries
    lmat = l.matrix
    dim = space.dim
    wp = probe.omega_p_tilde

    def rhs(t, v):
        rho = v.reshape(dim, dim)
        hp = wp * (np.exp(-1j * delta_p * t) * sig_p
                   + np.exp(1j * delta_p * t) * sig_m)
        comm = hp @ rho - rho @ hp
        return lmat @ v + (-1j * comm).reshape(-1)

    t_eval = np.linspace(0.5 * t_final, t_final, 81)
    out = scipy.integrate.solve_ivp(
        rhs, (0.0, t_final), sol.rho.entries.reshape(-1).astype(complex),
        method="DOP853", rtol=1e-8, atol=1e-10, t_eval=t_eval)
    if not out.success:
        raise RuntimeError(f"probe integration failed: {out.message}")
    pops = [np.real(np.trace(proj @ out.y[:, k].reshape(dim, dim)))
            for k in range(out.y.shape[1])]
    return params.gamma * float(np.mean(pops)) - i_at_ss
