"""Many-atom regime with the dipoles adiabatically eliminated.

Below saturation the atoms act as a linear medium: they add the response
R = N s (gamma/2 + i Delta) to the cavity's own kappa/2 - i delta_c, so the
field obeys a damped, driven harmonic-oscillator master equation with an
atom-induced decay rate gamma' = 2 Re R, a detuning delta' = delta_c - Im R
and a drive xi = -i R Omega sum_n g_n e^{i phi_n} / sum_n g_n^2 mediated by
the collective dipole.
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
    return n_s * (params.gamma / 2 + 1j * params.delta)


def _saturation_ok(params: SystemParams) -> bool:
    n = params.n_atoms
    lhs = math.hypot(params.gamma / 2, params.delta)
    return lhs > 3 * math.sqrt(n) * max(abs(params.g0), abs(params.omega))


def effective_field_params(params: SystemParams) -> EffectiveFieldParams:
    """Adiabatic-elimination coefficients for an arbitrary set of positions."""
    g, phi_n = mode_function(np.asarray(params.positions), params)
    g = _off_node(g, params)
    s = float(np.mean(saturation(g, params)))
    gsq = float(np.sum(g ** 2))
    if gsq == 0:
        raise ValueError("all atoms sit at nodes; the medium does not couple")
    drive = params.omega * np.sum(g * np.exp(1j * phi_n))
    r = _response(params.n_atoms * s, params)
    return EffectiveFieldParams(
        gamma_prime=2 * r.real,
        delta_prime=params.delta_c - r.imag,
        xi=complex(-1j * r * drive / gsq),
        regime_valid=_saturation_ok(params),
    )


def adiabatic_alpha(params: SystemParams) -> complex:
    """Steady coherent amplitude of the eliminated-atom field equation."""
    eff = effective_field_params(params)
    if not eff.regime_valid:
        warnings.warn("atoms are not driven well below saturation",
                      RegimeWarning, stacklevel=2)
    return -1j * eff.xi / (
        (eff.gamma_prime + params.kappa) / 2 - 1j * eff.delta_prime)


def in_phase_alpha(pattern: PatternSpec, params: SystemParams) -> complex:
    """Cavity amplitude when all atoms scatter in phase (periodic pattern).

    alpha_0 = -(Omega/g) R / (R + kappa/2 - i delta_c)
    with g the common coupling at the pattern sites and R their response
    (see the module docstring).  For kappa = 0 and delta_c = 0 this
    reduces to -Omega/g independent of N and Delta.
    """
    return _in_phase(pattern, params)[0]


def excited_population(pattern: PatternSpec, params: SystemParams) -> float:
    """Excited-state population of one atom in the in-phase pattern: the
    saturation of its local field Omega + g alpha_0 (see _in_phase).

    Exactly 0 at kappa = 0, delta_c = 0: the cavity field interferes
    destructively with the pump at every atom.
    """
    return _in_phase(pattern, params)[1]


def emission_rates(pattern: PatternSpec, params: SystemParams
                   ) -> tuple[float, float]:
    """(I_cav, total I_at) for the in-phase pattern, from the closed forms."""
    alpha, pi_e = _in_phase(pattern, params)
    return (params.kappa * abs(alpha) ** 2,
            pattern.n_atoms * params.gamma * pi_e)


def _in_phase(pattern: PatternSpec, params: SystemParams
              ) -> tuple[complex, float]:
    """(alpha_0, s) of the in-phase pattern: its cavity amplitude and the
    saturation parameter s of each atom's local field Omega + g alpha_0,
    which is Omega (kappa/2 - i delta_c) / (R + kappa/2 - i delta_c).

    A RegimeWarning when s exceeds 0.1: the closed forms treat the atoms
    as a linear medium, and at s = 0.1 the two-level population
    s / (1 + 2 s) is already 17% below s.  (_saturation_ok bounds the bare
    couplings instead, which is far too strict where the cavity field
    cancels the pump.)
    """
    if params.g0 == 0:
        raise ValueError("g0 must be nonzero")
    gbar = params.g0 if pattern.parity == 0 else -params.g0
    cavity = params.kappa / 2 - 1j * params.delta_c
    r = _response(pattern.n_atoms * saturation(params.g0, params), params)
    s = saturation(abs(params.omega * cavity / (r + cavity)), params)
    if s > 0.1:
        warnings.warn("the atoms' local field is not well below saturation",
                      RegimeWarning, stacklevel=3)
    return -(params.omega / gbar) * r / (r + cavity), s


def critical_atom_number(params: SystemParams) -> float:
    """Crossover atom number between the free-space-like and the
    cavity-dominated regime.

    The atoms dominate once their contribution to the field response,
    N s sqrt(gamma^2 + Delta^2), exceeds the bare cavity rate kappa.  At
    Delta = 0 this reduces to kappa/(s gamma) = 1/(2 C_1) with
    C_1 = 2 g0^2 / (kappa gamma); for |Delta| >> gamma it tends to
    |Delta| kappa / g0^2.
    """
    if params.g0 == 0:
        raise ValueError("g0 must be nonzero")
    s = saturation(params.g0, params)
    return params.kappa / (s * math.hypot(params.gamma, params.delta))


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
    u0 = _response(saturation(params.g0, params), params).imag
    eta_eff = params.omega * params.g0 / (-1j * params.delta + params.gamma / 2)
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
    if params.g0 == 0:
        raise ValueError("g0 must be nonzero")
    # the pattern's atom-induced field decay rate gamma' = 2 Re R
    r = _response(pattern.n_atoms * saturation(params.g0, params), params)
    gamma_prime = 2 * r.real
    if abs(params.delta_c) > 0.5 * (gamma_prime + params.kappa):
        warnings.warn("|delta_c| is not small against the field linewidth; "
                      "the linearized force is unreliable",
                      RegimeWarning, stacklevel=2)
    return 2 * K_WAVENUMBER ** 2 * (params.omega / params.g0) ** 2 \
        * params.delta_c / pattern.n_atoms

