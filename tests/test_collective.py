import math
from dataclasses import replace

import numpy as np
import pytest

from drivencavity.collective import (
    PatternSpec,
    adiabatic_alpha,
    critical_atom_number,
    effective_field_params,
    in_phase_field,
    restoring_coefficient,
    semiclassical_force,
)
from drivencavity.model import (
    RegimeWarning,
    SystemParams,
    mode_function,
    saturation,
)


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
        assert in_phase_field(PatternSpec(n), pn).alpha == pytest.approx(
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
    field = in_phase_field(pattern, p)
    assert field.alpha == pytest.approx(adiabatic_alpha(p), rel=1e-12)
    # pi_e saturates on the local field Omega + g alpha at each atom
    g = p.g0 if parity == 0 else -p.g0
    assert field.pi_e == pytest.approx(
        saturation(abs(p.omega + g * field.alpha), p), rel=1e-12)
    dark = _pattern_params(n, parity, kappa=0.0, delta_c=0.0)
    assert in_phase_field(pattern, dark).pi_e == 0.0


def test_large_n_limit_of_field():
    p = _params(kappa=1e-3, g0=1e-3, omega=1e-3)
    n0 = critical_atom_number(p)
    alpha = in_phase_field(PatternSpec(int(1e6 * n0)), p).alpha
    assert abs(alpha + p.omega / p.g0) < 1e-3 * p.omega / p.g0


def test_even_and_odd_patterns_differ_by_pi():
    p = _params(kappa=0.01, delta_c=0.002)
    a_even = in_phase_field(PatternSpec(5, parity=0), p).alpha
    a_odd = in_phase_field(PatternSpec(5, parity=1), p).alpha
    assert a_even == pytest.approx(-a_odd)


def test_excited_population_dark_point():
    p = _params()
    assert in_phase_field(PatternSpec(10), p).pi_e == 0.0


def test_excited_population_deep_scaling():
    p = _params(kappa=1e-3, g0=1e-3, omega=1e-3)
    n0 = critical_atom_number(p)
    ns = np.geomspace(10 * n0, 1000 * n0, 7).astype(int)
    pe = [in_phase_field(PatternSpec(int(n)), p).pi_e for n in ns]
    slope = np.polyfit(np.log(ns), np.log(pe), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_excited_population_peak_location():
    p_base = dict(g0=10.0, omega=10.0, kappa=10.0, delta=-1000.0)
    n = 500
    s = p_base["g0"] ** 2 / (0.25 + p_base["delta"] ** 2)
    predicted = n * s * p_base["delta"] * (1 + 1 / (4 * p_base["delta"] ** 2))
    grid = np.linspace(predicted * 1.1, predicted * 0.9, 801)
    pe = [in_phase_field(
        PatternSpec(n), _params(n=1, delta_c=float(dc), **p_base)).pi_e
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
    field = in_phase_field(pat, p)
    assert field.i_cav == pytest.approx(p.kappa * abs(field.alpha) ** 2)
    assert field.i_at == pytest.approx(100 * p.gamma * field.pi_e)


@pytest.mark.parametrize("closed_form", [
    in_phase_field, critical_atom_number, restoring_coefficient])
def test_closed_forms_refuse_a_zero_coupling(closed_form):
    # each divides by g0, or shares the in-phase closed form that does; a
    # bare ZeroDivisionError named nothing
    p = _params(g0=0.0, kappa=0.1)
    args = (p,) if closed_form is critical_atom_number else (PatternSpec(1), p)
    with pytest.raises(ValueError, match="g0 must be nonzero"):
        closed_form(*args)


def test_saturated_regime_warns():
    p = SystemParams(positions=(0.0,), g0=1.0, omega=1.0, kappa=0.1)
    with pytest.warns(RegimeWarning):
        adiabatic_alpha(p)


def test_in_phase_closed_forms_warn_above_local_saturation():
    # the local field's saturation parameter is 2.04 here: the weak-drive
    # closed form wrote pi_e = 2.04 without a warning
    p = SystemParams(positions=(0.0,), g0=1.0, omega=1.0, kappa=10.0)
    with pytest.warns(RegimeWarning, match="saturation"):
        in_phase_field(PatternSpec(1), p)


# (g0, kappa, Delta, delta_c, Omega): N_c = 3.3, 9.9 and 1.0, and s up to
# 0.0008, 0.045 and 0.09 at N = 1
_EXACT_REGIMES = [(3.0, 1.0, 30.0, 0.0, 1.0), (1.0, 2.0, 5.0, 0.5, 1.0),
                  (0.5, 1.0, 0.0, 0.0, 0.3)]


@pytest.mark.filterwarnings("error::drivencavity.model.RegimeWarning")
@pytest.mark.parametrize("g0, kappa, delta, delta_c, omega, n, parity", [
    *((*regime, n, parity) for regime in _EXACT_REGIMES
      for n in (1, 2, 3) for parity in (0, 1)),
    (*_EXACT_REGIMES[0], 4, 0)])
def test_in_phase_field_is_within_three_s_of_the_exact_solve(
        g0, kappa, delta, delta_c, omega, n, parity):
    # inside the local-saturation flag (s <= 0.1) the closed forms are off
    # by at most 2.12 s relative (measured, at weak drive in the second
    # regime); at the first regime alpha's error is 1.36e-3, 5.67e-4,
    # 2.49e-4 and 1.24e-4 at N = 1-4
    from drivencavity.dynamics import observables, solve_steady
    p = SystemParams(positions=(0.5 * parity,) * n, g0=g0, omega=omega,
                     kappa=kappa, delta=delta, delta_c=delta_c)
    field = in_phase_field(PatternSpec(n, parity), p)
    exact = observables(solve_steady(p).rho, p)
    bound = 3 * field.pi_e
    assert abs(field.alpha - exact.alpha) <= bound * abs(field.alpha)
    assert np.all(np.abs(field.pi_e - exact.pi_e_per_atom)
                  <= bound * field.pi_e)


def _unequal_positions(seed):
    """A seeded system of two or three atoms at random positions, pump
    angle, detunings and kappa, driven weakly enough for _saturation_ok."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    delta = rng.uniform(-20.0, 20.0)
    # _saturation_ok holds below this drive; |g0| >= Omega keeps
    # default_n_max at 17 or less, so each solve takes milliseconds
    limit = math.hypot(0.5, delta) / (3 * math.sqrt(n))
    omega = rng.uniform(0.1, 1.0) * limit
    return SystemParams(
        positions=tuple(rng.uniform(0.0, 1.0, n)),
        g0=float(rng.choice([-1.0, 1.0])) * rng.uniform(omega, limit),
        omega=omega, kappa=rng.uniform(0.1, 3.0), delta=delta,
        delta_c=rng.uniform(-2.0, 2.0), theta=rng.uniform(0.0, math.pi))


@pytest.mark.filterwarnings("error::drivencavity.model.RegimeWarning")
@pytest.mark.parametrize("seed", range(8))
def test_adiabatic_alpha_at_unequal_positions_is_within_three_s(seed):
    # saturation scales each atom's response by about 1 - 2 s, which moves
    # alpha by 2 s relative, amplified by q = |kappa/2 - i delta_c| /
    # |R + kappa/2 - i delta_c| near the atom-shifted cavity resonance;
    # s is the largest saturation parameter of a local field
    # Omega e^{i phi_n} + g_n alpha.  Measured: at most 2.51 s max(1, q)
    # over seeds 0-299 (seed 119's exact solve fails), 2.12 on these eight;
    # error/s alone reached 3.8
    from drivencavity.dynamics import observables, solve_steady
    p = _unequal_positions(seed)
    alpha = adiabatic_alpha(p)
    exact = observables(solve_steady(p).rho, p).alpha
    g, phi = mode_function(np.asarray(p.positions), p)
    s = saturation(np.abs(p.omega * np.exp(1j * phi) + g * alpha), p).max()
    eff = effective_field_params(p)
    q = (abs(p.kappa / 2 - 1j * p.delta_c)
         / abs((eff.gamma_prime + p.kappa) / 2 - 1j * eff.delta_prime))
    assert abs(alpha - exact) <= 3 * s * max(1.0, q) * abs(alpha)
