from dataclasses import replace

import numpy as np
import pytest

from drivencavity.collective import (
    PatternSpec,
    adiabatic_alpha,
    critical_atom_number,
    effective_field_params,
    emission_rates,
    excited_population,
    in_phase_alpha,
    restoring_coefficient,
    semiclassical_force,
)
from drivencavity.model import RegimeWarning, SystemParams, saturation


def _params(n=1, **kw):
    base = dict(positions=(0.0,) * n, g0=0.1, omega=0.1, kappa=0.0)
    base.update(kw)
    return SystemParams(**base)


def test_saturation_parameter_value():
    p = _params()
    assert saturation(p.g0, p) == pytest.approx(0.04)
    # gamma' = 2 Re R = s gamma for one atom
    assert effective_field_params(p).gamma_prime == pytest.approx(0.04)


def test_atoms_at_nodes_do_not_couple():
    # g(x) at x = 0.25 and 0.75 is 6e-18, not 0: the medium's response came
    # out as gamma' ~ 3e-34 and alpha ~ 4e-17 instead of an error
    p = _params(n=2, kappa=0.1, delta=1.0, theta=1.0)
    at_nodes = replace(p, positions=(0.25, 0.75))
    for closed_form in (effective_field_params, adiabatic_alpha):
        with pytest.raises(ValueError, match="all atoms sit at nodes"):
            closed_form(at_nodes)
    # and a node atom next to a coupled one adds nothing, to the bit
    one = effective_field_params(replace(p, positions=(0.0,)))
    two = effective_field_params(replace(p, positions=(0.0, 0.25)))
    assert (two.gamma_prime, two.delta_prime, two.xi) \
        == (one.gamma_prime, one.delta_prime, one.xi)


def test_detuning_shift_vanishes_on_resonance():
    eff = effective_field_params(_params(delta_c=0.3))
    assert eff.delta_prime == pytest.approx(0.3)


def test_drive_collapses_for_antinode_atoms():
    n = 4
    p = _params(n=n, delta=2.0)
    eff = effective_field_params(p)
    s = p.g0**2 / ((p.gamma / 2) ** 2 + p.delta**2)
    expected = n * s * (p.delta - 0.5j * p.gamma) * p.omega / p.g0
    assert eff.xi == pytest.approx(expected)


def test_adiabatic_alpha_matches_exact():
    p = SystemParams(positions=(0.0,), g0=1.0, omega=1.0, kappa=0.2,
                     delta=100.0)
    from drivencavity.dynamics import observables, solve_steady
    exact = observables(solve_steady(p).rho, p).alpha
    approx = adiabatic_alpha(p)
    assert abs(approx - exact) < 0.05 * abs(approx)


def test_alpha_peaks_at_stark_shifted_resonance():
    n = 1
    p0 = _params(delta=1.0)
    dc_star = n * saturation(p0.g0, p0) * p0.delta
    grid = np.linspace(-0.05, 0.05, 501)
    mags = [abs(adiabatic_alpha(_params(delta=1.0, delta_c=float(dc))))
            for dc in grid]
    assert grid[int(np.argmax(mags))] == pytest.approx(
        dc_star, abs=grid[1] - grid[0])


def test_lossless_resonant_field_is_pump_over_coupling():
    p = _params()
    assert adiabatic_alpha(p) == pytest.approx(-p.omega / p.g0)
    for n, delta in ((1, 0.0), (7, 0.0), (7, 3.0), (500, -2.0)):
        pn = _params(delta=delta)
        assert in_phase_alpha(PatternSpec(n), pn) == pytest.approx(
            -pn.omega / pn.g0)


def _pattern_params(n, parity, **kw):
    """n in-phase atoms at x = 0 (parity 0) or x = 1/2 (parity 1), the pump
    perpendicular to the cavity axis, within the adiabatic regime."""
    base = dict(positions=(0.5 * parity,) * n, g0=0.1, omega=0.05,
                kappa=0.3, delta=1.0, delta_c=0.2, theta=np.pi / 2)
    base.update(kw)
    p = SystemParams(**base)
    assert effective_field_params(p).regime_valid
    return p


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_in_phase_pattern_agrees_with_the_effective_field(n, parity):
    p = _pattern_params(n, parity)
    pattern = PatternSpec(n, parity)
    alpha = in_phase_alpha(pattern, p)
    assert alpha == pytest.approx(adiabatic_alpha(p), rel=1e-12)
    # pi_e saturates on the local field Omega + g alpha at each atom
    g = p.g0 if parity == 0 else -p.g0
    assert excited_population(pattern, p) == pytest.approx(
        saturation(abs(p.omega + g * alpha), p), rel=1e-12)
    dark = _pattern_params(n, parity, kappa=0.0, delta_c=0.0)
    assert excited_population(pattern, dark) == 0.0


def test_large_n_limit_of_field():
    p = _params(kappa=1e-3, g0=1e-3, omega=1e-3)
    n0 = critical_atom_number(p)
    alpha = in_phase_alpha(PatternSpec(int(1e6 * n0)), p)
    assert abs(alpha + p.omega / p.g0) < 1e-3 * p.omega / p.g0


def test_even_and_odd_patterns_differ_by_pi():
    p = _params(kappa=0.01, delta_c=0.002)
    a_even = in_phase_alpha(PatternSpec(5, parity=0), p)
    a_odd = in_phase_alpha(PatternSpec(5, parity=1), p)
    assert a_even == pytest.approx(-a_odd)


def test_excited_population_dark_point():
    p = _params()
    assert excited_population(PatternSpec(10), p) == 0.0


def test_excited_population_deep_scaling():
    p = _params(kappa=1e-3, g0=1e-3, omega=1e-3)
    n0 = critical_atom_number(p)
    ns = np.geomspace(10 * n0, 1000 * n0, 7).astype(int)
    pe = [excited_population(PatternSpec(int(n)), p) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(pe), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_excited_population_peak_location():
    p_base = dict(g0=10.0, omega=10.0, kappa=10.0, delta=-1000.0)
    n = 500
    s = p_base["g0"] ** 2 / (0.25 + p_base["delta"] ** 2)
    predicted = n * s * p_base["delta"] * (1 + 1 / (4 * p_base["delta"] ** 2))
    grid = np.linspace(predicted * 1.1, predicted * 0.9, 801)
    pe = [excited_population(
        PatternSpec(n), _params(n=1, delta_c=float(dc), **p_base))
        for dc in grid]
    found = grid[int(np.argmax(pe))]
    assert found == pytest.approx(predicted, rel=0.02)


def test_critical_atom_numbers():
    p10 = _params(g0=1e-3, omega=1e-3, kappa=1e-3)
    assert critical_atom_number(p10) == pytest.approx(250.0)
    p11 = _params(g0=10.0, omega=10.0, kappa=10.0, delta=-1000.0)
    # |Delta| >> gamma limit: |Delta| kappa / g0^2
    assert critical_atom_number(p11) == pytest.approx(100.0, rel=1e-3)
    c1 = 2 * p10.g0**2 / (p10.kappa * p10.gamma)
    assert critical_atom_number(p10) * 2 * c1 == pytest.approx(1.0)


def test_force_vanishes_at_antinodes():
    p = _params(delta=-3.0, kappa=0.1)
    alpha = -0.7 + 0.2j
    assert semiclassical_force(0.0, alpha, p) == 0.0
    assert semiclassical_force(0.5, alpha, p) == 0.0


def test_force_dispersive_term_vanishes_on_resonance():
    # at kx = pi/4 both terms are at full strength, so the force equals the
    # pump term alone only if U0 = 0
    p = _params(delta=0.0)
    alpha = -0.7 + 0.2j
    eta = p.omega * p.g0 / (p.gamma / 2)
    pump = 2 * 2 * np.pi * (np.conj(eta) * alpha).imag * np.sin(np.pi / 4)
    assert semiclassical_force(0.125, alpha, p) == pytest.approx(pump,
                                                                 rel=1e-12)


def test_force_sign_at_quarter_wavelength():
    # at kx = pi/2 only the pump term survives:
    # F = 2 hbar k Im{eta_eff^* alpha}; for Delta < 0 and alpha real
    # negative, Im{eta_eff^*} > 0, so the force is negative
    p = _params(n=1, g0=1.0, omega=1.0, delta=-5.0)
    alpha = -0.4 + 0.0j
    f = semiclassical_force(0.25, alpha, p)
    eta = p.omega * p.g0 / (-1j * p.delta + p.gamma / 2)
    expected = 2 * 2 * np.pi * (np.conj(eta) * alpha).imag
    assert f == pytest.approx(expected, rel=1e-12)
    assert f < 0


def test_restoring_coefficient_properties():
    pat = PatternSpec(4)
    base = dict(n=4, g0=1.0, omega=1.0, kappa=0.1)
    assert restoring_coefficient(pat, _params(delta_c=0.0, **base)) == 0.0
    c1 = restoring_coefficient(pat, _params(delta_c=-0.01, delta=2.0, **base))
    c2 = restoring_coefficient(pat, _params(delta_c=-0.01, delta=7.0, **base))
    assert abs(c1 - c2) < 1e-12
    assert c1 < 0
    cpos = restoring_coefficient(pat, _params(delta_c=0.01, **base))
    assert cpos > 0
    doubled = dict(base, omega=np.sqrt(2.0), delta_c=-0.01, delta=2.0)
    two = restoring_coefficient(pat, _params(**doubled))
    assert two == pytest.approx(2 * c1, rel=1e-12)


def test_restoring_coefficient_warns_off_a_small_cavity_detuning():
    # the field linewidth is 2 Re R + kappa, about 0.3 here
    pat = PatternSpec(4)
    p = _params(n=4, g0=1.0, omega=1.0, kappa=0.1, delta=2.0, delta_c=-1.0)
    with pytest.warns(RegimeWarning, match="delta_c"):
        restoring_coefficient(pat, p)


def test_emission_rates_consistent():
    p = _params(kappa=1e-3, g0=1e-3, omega=1e-3)
    pat = PatternSpec(100)
    i_cav, i_at = emission_rates(pat, p)
    assert i_cav == pytest.approx(
        p.kappa * abs(in_phase_alpha(pat, p)) ** 2)
    assert i_at == pytest.approx(
        100 * p.gamma * excited_population(pat, p))


@pytest.mark.parametrize("closed_form", [
    in_phase_alpha, emission_rates, critical_atom_number,
    restoring_coefficient])
def test_closed_forms_refuse_a_zero_coupling(closed_form):
    # each divides by g0; a bare ZeroDivisionError named nothing
    p = _params(g0=0.0, kappa=0.1)
    args = (p,) if closed_form is critical_atom_number else (PatternSpec(1), p)
    with pytest.raises(ValueError, match="g0 must be nonzero"):
        closed_form(*args)


def test_saturated_regime_warns():
    p = SystemParams(positions=(0.0,), g0=1.0, omega=1.0, kappa=0.1)
    with pytest.warns(RegimeWarning):
        adiabatic_alpha(p)
