"""Many-atom regime with the dipoles adiabatically eliminated.

Below saturation the atoms act as a linear medium: they add the response
R = N s (gamma/2 + i Delta), gamma = 1, to the cavity's own
kappa/2 - i delta_c, so the field obeys a damped, driven harmonic-oscillator
master equation with an atom-induced decay rate gamma' = 2 Re R, a detuning
delta' = delta_c - Im R and a drive xi = -i R Omega sum_n g_n e^{i phi_n} /
sum_n g_n^2 mediated by the collective dipole.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    K_WAVENUMBER,
    RegimeWarning,
    SystemParams,
    _off_node,
    mode_function,
    saturation,
)
from .operators import _require_finite, _require_integer


@dataclass(frozen=True)
class EffectiveFieldParams:
    """Coefficients of the field master equation after eliminating the atoms."""

    gamma_prime: float
    delta_prime: float
    xi: complex
    regime_valid: bool


def _response(n_s: float, params: SystemParams) -> complex:
    """R = N s (gamma/2 + i Delta) for n_s = N s: the atoms' field response."""
    return n_s * (0.5 + 1j * params.delta)


def _pattern_response(n_atoms: int, params: SystemParams
                      ) -> tuple[int, complex]:
    """(n_atoms as an int, R) of n_atoms atoms at antinodes, each coupled
    with |g0|.  A ValueError unless n_atoms is an integer >= 1 and g0 is
    nonzero, as every closed form built on it divides by g0."""
    _require_integer(n_atoms=n_atoms)
    if n_atoms < 1:
        raise ValueError("pattern needs at least one atom")
    if params.g0 == 0:
        raise ValueError("g0 must be nonzero")
    n_atoms = int(n_atoms)
    return n_atoms, _response(n_atoms * saturation(params.g0, params), params)


def _amplitude(ratio: complex, r: complex, params: SystemParams) -> complex:
    """Steady field -(drive / sum g^2) R / (R + kappa/2 - i delta_c) of the
    eliminated-atom equation, for ratio = drive / sum g^2 and R = r."""
    return -ratio * r / (r + (params.kappa / 2 - 1j * params.delta_c))


def _saturation_ok(params: SystemParams) -> bool:
    n = params.n_atoms
    lhs = math.hypot(0.5, params.delta)
    return lhs > 3 * math.sqrt(n) * max(abs(params.g0), abs(params.omega))


def _below_saturation(s) -> bool:
    """Whether local-field saturation parameters s are all at most 0.1: the
    atoms are a linear medium here, and at s = 0.1 the two-level population
    s/(1 + 2s) is already 17% below s."""
    return bool(np.max(s) <= 0.1)


def _medium(params: SystemParams) -> tuple[complex, complex, bool]:
    """(R, drive / sum g^2, regime_valid, see adiabatic_alpha) of the atoms
    at params.positions, with s their mean saturation factor and
    drive = Omega sum_n g_n e^{i phi_n}."""
    g, phi_n = mode_function(np.asarray(params.positions), params)
    g = _off_node(g, params)
    s = float(np.mean(saturation(g, params)))
    gsq = float(np.sum(g ** 2))
    if gsq == 0:
        raise ValueError("all atoms sit at nodes; the medium does not couple")
    phase = np.exp(1j * phi_n)
    drive = params.omega * np.sum(g * phase)
    r, ratio = _response(params.n_atoms * s, params), complex(drive / gsq)
    local = np.abs(params.omega * phase + g * _amplitude(ratio, r, params))
    return r, ratio, (_saturation_ok(params)
                      and _below_saturation(saturation(local, params)))


def effective_field_params(params: SystemParams) -> EffectiveFieldParams:
    """Adiabatic-elimination coefficients for an arbitrary set of positions."""
    r, ratio, valid = _medium(params)
    return EffectiveFieldParams(
        gamma_prime=2 * r.real,
        delta_prime=params.delta_c - r.imag,
        xi=-1j * r * ratio,
        regime_valid=valid,
    )


def adiabatic_alpha(params: SystemParams) -> complex:
    """Steady coherent amplitude of the eliminated-atom field equation.

    One RegimeWarning unless both _saturation_ok holds on the bare
    couplings and each local field Omega e^{i phi_n} + g_n alpha is
    _below_saturation; each alone let alpha be off by 99% (s = 0.36) and
    63% (s = 0.029) at N = 2 and 3.  Inside both it is within 3 s max(1, q)
    (relative) of the exact master equation, s the largest local
    saturation parameter and q = |kappa/2 - i delta_c| /
    |R + kappa/2 - i delta_c| (measured: at most 2.51 s max(1, q))."""
    r, ratio, valid = _medium(params)
    if not valid:
        warnings.warn("atoms are not driven well below saturation",
                      RegimeWarning, stacklevel=2)
    return _amplitude(ratio, r, params)


@dataclass(frozen=True)
class InPhaseField:
    """Closed forms of an in-phase pattern (see in_phase_field)."""

    alpha: complex  # cavity amplitude alpha_0
    mean_n: float  # |alpha_0|^2
    pi_e: float  # excited population of each atom
    i_cav: float  # kappa mean_n
    i_at: float  # N gamma pi_e, all atoms together


def in_phase_field(n_atoms: int, params: SystemParams) -> InPhaseField:
    """Cavity field and emission of a wavelength-spaced lattice of n_atoms
    atoms at the antinodes cos kx = +1 (at cos kx = -1 the field is -alpha_0,
    all else the same).  The field is alpha_0 = -(Omega/g0) R /
    (R + kappa/2 - i delta_c) with R their response (see the module
    docstring); pi_e is the saturation parameter s of each atom's local
    field Omega + g0 alpha_0 = Omega (kappa/2 - i delta_c) /
    (R + kappa/2 - i delta_c).  At kappa = delta_c = 0, alpha_0 = -Omega/g0
    for any N and Delta and pi_e = 0: the cavity field cancels the pump.

    One RegimeWarning unless s is _below_saturation.  Below it alpha and
    pi_e are within 3 s (relative) of the exact master equation (at most
    2.12 s measured at N = 1-4 on both antinode families, N_c from 1 to
    9.9).  _saturation_ok's bound on the bare couplings is far too strict
    where the cavity field cancels the pump.
    """
    cavity = params.kappa / 2 - 1j * params.delta_c
    n_atoms, r = _pattern_response(n_atoms, params)
    s = saturation(abs(params.omega * cavity / (r + cavity)), params)
    if not _below_saturation(s):
        warnings.warn("the atoms' local field is not well below saturation",
                      RegimeWarning, stacklevel=2)
    alpha = _amplitude(params.omega / params.g0, r, params)
    mean_n = abs(alpha) ** 2
    return InPhaseField(alpha=alpha, mean_n=mean_n, pi_e=s,
                        i_cav=params.kappa * mean_n, i_at=n_atoms * s)


def critical_atom_number(params: SystemParams) -> float:
    """Crossover atom number between the free-space-like and the
    cavity-dominated regime.

    The atoms dominate once their contribution to the field response,
    N s sqrt(gamma^2 + Delta^2) = N |2 Re R_1 + i Im R_1| with R_1 the
    response of one atom, exceeds the bare cavity rate kappa.  At
    Delta = 0 this reduces to kappa/(s gamma) = 1/(2 C_1) with
    C_1 = 2 g0^2 / (kappa gamma); for |Delta| >> gamma it tends to
    |Delta| kappa / g0^2.
    """
    _, r = _pattern_response(1, params)
    return params.kappa / math.hypot(2 * r.real, r.imag)


def _sin_turns(u: float) -> float:
    """sin(2 pi u), exactly zero at the half-integer turns."""
    if 2.0 * u == round(2.0 * u):
        return 0.0
    return math.sin(2.0 * math.pi * u)


def semiclassical_force(x_n: float, alpha: complex,
                        params: SystemParams) -> float:
    """Force on an atom at x_n given the cavity amplitude alpha:

    F = k U0 |alpha|^2 sin(2 k x) + 2 k Im{eta_eff* alpha} sin(k x)

    with the light shift U0 = saturation(g0) Delta and the pump-mediated
    drive eta_eff = Omega g0 / (gamma/2 - i Delta).  F vanishes at the
    antinodes kx = 0, pi, the candidate equilibrium sites of the
    self-organized patterns; a non-finite x_n or alpha is a ValueError.
    """
    _require_finite(x_n=x_n, alpha=alpha)
    u0 = saturation(params.g0, params) * params.delta
    eta_eff = params.omega * params.g0 / (-1j * params.delta + 0.5)
    k = K_WAVENUMBER
    return k * u0 * abs(alpha) ** 2 * _sin_turns(2.0 * x_n) \
        + 2 * k * (np.conj(eta_eff) * alpha).imag * _sin_turns(x_n)


def restoring_coefficient(n_atoms: int, params: SystemParams) -> float:
    """Linear force coefficient for a small displacement off an antinode:
    delta f ~ 2 k^2 (Omega/g0)^2 (delta_c / N) delta x.

    Negative (restoring) for delta_c < 0, independent of Delta.  Valid when
    |delta_c|/N is small enough that the intracavity field stays pinned at
    -+ Omega/g0.
    """
    n_atoms, r = _pattern_response(n_atoms, params)
    gamma_prime = 2 * r.real  # the atom-induced field decay rate
    if abs(params.delta_c) > 0.5 * (gamma_prime + params.kappa):
        warnings.warn("|delta_c| is not small against the field linewidth; "
                      "the linearized force is unreliable",
                      RegimeWarning, stacklevel=2)
    return 2 * K_WAVENUMBER ** 2 * (params.omega / params.g0) ** 2 \
        * params.delta_c / n_atoms

