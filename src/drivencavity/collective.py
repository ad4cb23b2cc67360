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


@dataclass(frozen=True)
class PatternSpec:
    """In-phase atomic pattern: N atoms at equivalent antinode positions."""

    n_atoms: int
    parity: int = 0  # 0 -> even pattern (cos kx = +1), 1 -> odd

    def __post_init__(self):
        _require_integer(n_atoms=self.n_atoms)
        if self.n_atoms < 1:
            raise ValueError("pattern needs at least one atom")
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 (even) or 1 (odd)")


def _response(n_s: float, params: SystemParams) -> complex:
    """R = N s (gamma/2 + i Delta) for n_s = N s: the atoms' field response."""
    return n_s * (0.5 + 1j * params.delta)


def _pattern_response(n_atoms: int, params: SystemParams) -> complex:
    """R of n_atoms atoms at antinodes, each coupled with |g0|; g0 = 0 is a
    ValueError, as every closed form built on it divides by g0."""
    if params.g0 == 0:
        raise ValueError("g0 must be nonzero")
    return _response(n_atoms * saturation(params.g0, params), params)


def _amplitude(ratio: complex, r: complex, params: SystemParams) -> complex:
    """Steady field -(drive / sum g^2) R / (R + kappa/2 - i delta_c) of the
    eliminated-atom equation, for ratio = drive / sum g^2 and R = r."""
    return -ratio * r / (r + (params.kappa / 2 - 1j * params.delta_c))


def _saturation_ok(params: SystemParams) -> bool:
    n = params.n_atoms
    lhs = math.hypot(0.5, params.delta)
    return lhs > 3 * math.sqrt(n) * max(abs(params.g0), abs(params.omega))


def _medium(params: SystemParams) -> tuple[complex, complex]:
    """(R, drive / sum g^2) of the atoms at params.positions, with s their
    mean saturation factor and drive = Omega sum_n g_n e^{i phi_n}."""
    g, phi_n = mode_function(np.asarray(params.positions), params)
    g = _off_node(g, params)
    s = float(np.mean(saturation(g, params)))
    gsq = float(np.sum(g ** 2))
    if gsq == 0:
        raise ValueError("all atoms sit at nodes; the medium does not couple")
    drive = params.omega * np.sum(g * np.exp(1j * phi_n))
    return _response(params.n_atoms * s, params), complex(drive / gsq)


def effective_field_params(params: SystemParams) -> EffectiveFieldParams:
    """Adiabatic-elimination coefficients for an arbitrary set of positions."""
    r, ratio = _medium(params)
    return EffectiveFieldParams(
        gamma_prime=2 * r.real,
        delta_prime=params.delta_c - r.imag,
        xi=-1j * r * ratio,
        regime_valid=_saturation_ok(params),
    )


def adiabatic_alpha(params: SystemParams) -> complex:
    """Steady coherent amplitude of the eliminated-atom field equation.

    Inside _saturation_ok it is within 3 s max(1, q) (relative) of the
    exact master equation, s the largest saturation parameter of a local
    field Omega e^{i phi_n} + g_n alpha and q = |kappa/2 - i delta_c| /
    |R + kappa/2 - i delta_c| (measured: at most 2.51 s max(1, q) at
    N = 2 and 3)."""
    r, ratio = _medium(params)
    if not _saturation_ok(params):
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


def in_phase_field(pattern: PatternSpec, params: SystemParams
                   ) -> InPhaseField:
    """Cavity field and emission of N atoms scattering in phase (a periodic
    pattern).  The field is alpha_0 = -(Omega/g) R / (R + kappa/2 - i delta_c)
    with g the common coupling at the pattern sites and R their response
    (see the module docstring); pi_e is the saturation parameter s of each
    atom's local field Omega + g alpha_0 = Omega (kappa/2 - i delta_c) /
    (R + kappa/2 - i delta_c).  At kappa = delta_c = 0, alpha_0 = -Omega/g
    for any N and Delta and pi_e = 0: the cavity field cancels the pump.

    One RegimeWarning when s > 0.1: the atoms are treated as a linear
    medium, and at s = 0.1 the two-level population s/(1 + 2s) is already
    17% below s.  Below it alpha and pi_e are within 3 s (relative) of the
    exact master equation (at most 2.12 s measured at N = 1-4, both
    parities, N_c from 1 to 9.9).  _saturation_ok's bound on the bare
    couplings is far too strict where the cavity field cancels the pump.
    """
    cavity = params.kappa / 2 - 1j * params.delta_c
    r = _pattern_response(pattern.n_atoms, params)
    s = saturation(abs(params.omega * cavity / (r + cavity)), params)
    if s > 0.1:
        warnings.warn("the atoms' local field is not well below saturation",
                      RegimeWarning, stacklevel=2)
    gbar = params.g0 if pattern.parity == 0 else -params.g0
    alpha = _amplitude(params.omega / gbar, r, params)
    mean_n = abs(alpha) ** 2
    return InPhaseField(alpha=alpha, mean_n=mean_n, pi_e=s,
                        i_cav=params.kappa * mean_n,
                        i_at=pattern.n_atoms * s)


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
    r = _pattern_response(1, params)
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


def restoring_coefficient(pattern: PatternSpec, params: SystemParams) -> float:
    """Linear force coefficient for a small displacement off an antinode:
    delta f ~ 2 k^2 (Omega/g0)^2 (delta_c / N) delta x.

    Negative (restoring) for delta_c < 0, independent of Delta.  Valid when
    |delta_c|/N is small enough that the intracavity field stays pinned at
    -+ Omega/g0.
    """
    # the pattern's atom-induced field decay rate gamma' = 2 Re R
    gamma_prime = 2 * _pattern_response(pattern.n_atoms, params).real
    if abs(params.delta_c) > 0.5 * (gamma_prime + params.kappa):
        warnings.warn("|delta_c| is not small against the field linewidth; "
                      "the linearized force is unreliable",
                      RegimeWarning, stacklevel=2)
    return 2 * K_WAVENUMBER ** 2 * (params.omega / params.g0) ** 2 \
        * params.delta_c / pattern.n_atoms

