import gc

import numpy as np
import pytest
import scipy.integrate

from drivencavity.dynamics import solve_steady
from drivencavity.model import RegimeWarning, SystemParams, build_liouvillian
from drivencavity.operators import atomic_lowering, expectation
from drivencavity.spectrum import (
    ProbeParams,
    SpectrumDomainError,
    excitation_spectrum,
    probe_response_numeric,
    probe_stark_shift,
    resonances,
    transition_amplitude,
)

PROBE = ProbeParams(omega_p_tilde=1e-3)


def _params(**kw):
    base = dict(positions=(0.0,), g0=1.0, omega=1.0, kappa=0.0)
    base.update(kw)
    return SystemParams(**base)


def test_spectrum_zero_at_zero_detuning():
    assert excitation_spectrum(0.0, _params(), PROBE) == 0.0
    assert transition_amplitude(0.0, _params(), PROBE) == 0.0


def test_symmetric_doublet():
    p = _params()
    grid = np.linspace(-3, 3, 1201)
    w = np.array([excitation_spectrum(d, p, PROBE) for d in grid])
    step = grid[1] - grid[0]
    lo = grid[np.argmax(w[grid < 0])]
    hi = grid[grid > 0][np.argmax(w[grid > 0])]
    assert abs(lo + 1.0) <= step
    assert abs(hi - 1.0) <= step


def test_detuned_doublet_positions():
    p = _params(delta=-2.0)
    grid = np.linspace(-3, 4, 2801)
    w = np.array([excitation_spectrum(d, p, PROBE) for d in grid])
    step = grid[1] - grid[0]
    lo = grid[grid < 1][np.argmax(w[grid < 1])]
    hi = grid[grid > 1][np.argmax(w[grid > 1])]
    assert abs(lo - (-0.41421356)) <= step
    assert abs(hi - 2.41421356) <= step


def test_resonances_symmetric_case():
    r = resonances(_params(g0=3.0))
    assert r.delta_plus == pytest.approx(3.0)
    assert r.delta_minus == pytest.approx(-3.0)
    assert r.gamma_plus == pytest.approx(0.25)
    assert r.gamma_minus == pytest.approx(0.25)


def test_resonances_detuned_widths():
    r = resonances(_params(delta=-2.0))
    root = np.sqrt(4 + 4)
    assert r.delta_plus == pytest.approx((2 + root) / 2)
    assert r.delta_minus == pytest.approx((2 - root) / 2)
    assert r.gamma_plus == pytest.approx(0.25 * (1 + 2 / root))
    assert r.gamma_plus == pytest.approx(0.426776695, abs=1e-8)
    assert r.gamma_minus == pytest.approx(0.25 * (1 - 2 / root))


def test_resonances_independent_of_pump():
    r1 = resonances(_params(omega=0.1, g0=5.0))
    r2 = resonances(_params(omega=10.0, g0=5.0))
    assert r1 == r2


def test_spectrum_is_gamma_times_amplitude_squared():
    p = _params()
    for dp in np.linspace(-3, 3, 13):
        w = excitation_spectrum(dp, p, PROBE)
        t = transition_amplitude(dp, p, PROBE)
        assert w == pytest.approx(p.gamma * abs(t) ** 2, rel=1e-12)


def test_amplitude_poles_match_resonances():
    p = _params(g0=10.0)
    # roots of delta(delta + Delta + i gamma/2) - g^2
    roots = np.roots([1.0, p.delta + 0.5j * p.gamma, -p.g0**2])
    r = resonances(p)
    expected = {complex(r.delta_plus, -r.gamma_plus),
                complex(r.delta_minus, -r.gamma_minus)}
    for root in roots:
        assert min(abs(root - e) for e in expected) < 0.05 * abs(root)


def test_domain_errors():
    with pytest.raises(SpectrumDomainError):
        excitation_spectrum(1.0, _params(kappa=0.1), PROBE)
    with pytest.raises(SpectrumDomainError):
        excitation_spectrum(1.0, _params(delta_c=1.0), PROBE)
    with pytest.raises(SpectrumDomainError):
        resonances(_params(positions=(0.25,)))


def test_strong_probe_warns():
    with pytest.warns(RegimeWarning):
        excitation_spectrum(1.0, _params(), ProbeParams(omega_p_tilde=0.5))


def test_stark_shift_vanishes_at_pumping_atom():
    p = _params(g0=1.0, omega=1.0, kappa=0.0)
    assert abs(probe_stark_shift(0.0, 1000.0, p)) < 1e-10


def test_stark_shift_zeros_recur_at_wavelength():
    p = _params(g0=1.0, omega=1.0, kappa=0.0)
    assert abs(probe_stark_shift(1.0, 1000.0, p)) < 1e-10
    assert abs(probe_stark_shift(2.0, 1000.0, p)) < 1e-10


def test_stark_shift_never_vanishes_with_cavity_loss():
    p = _params(g0=1.0, omega=1.0, kappa=2.0)
    from drivencavity.dynamics import observables, solve_steady
    alpha = observables(solve_steady(p).rho, p).alpha
    shifts = [probe_stark_shift(x, 1000.0, p, alpha_ss=alpha)
              for x in np.linspace(0, 1, 41)]
    assert min(shifts) > 0


def test_numeric_probe_peaks_at_coupling():
    p = _params(g0=10.0, kappa=1e-3)
    probe = ProbeParams(omega_p_tilde=0.05)
    grid = [9.5, 9.75, 10.0, 10.25, 10.5]
    resp = [probe_response_numeric(d, p, probe, n_max=6, t_final=60.0)
            for d in grid]
    assert grid[int(np.argmax(resp))] == pytest.approx(10.0)


def _probe_response_reference(delta_p, params, probe, n_max, t_final):
    """The probe response from the commutator with the time-dependent
    probe Hamiltonian written out, integrated by solve_ivp's DOP853."""
    sol = solve_steady(params, n_max=n_max)
    space = sol.space
    lmat = build_liouvillian(params, space).matrix
    sig = atomic_lowering(space, 0)
    proj = (sig.dag() @ sig).entries
    i_at_ss = params.gamma * expectation(sig.dag() @ sig, sol.rho).real
    sig_m, sig_p = sig.entries, sig.dag().entries
    dim, wp = space.dim, probe.omega_p_tilde

    def rhs(t, v):
        rho = v.reshape(dim, dim)
        hp = wp * (np.exp(-1j * delta_p * t) * sig_p
                   + np.exp(1j * delta_p * t) * sig_m)
        return lmat @ v + (-1j * (hp @ rho - rho @ hp)).reshape(-1)

    out = scipy.integrate.solve_ivp(
        rhs, (0.0, t_final), sol.rho.entries.reshape(-1).astype(complex),
        method="DOP853", rtol=1e-8, atol=1e-10,
        t_eval=np.linspace(0.5 * t_final, t_final, 81))
    assert out.success
    pops = [np.trace(proj @ out.y[:, k].reshape(dim, dim)).real
            for k in range(out.y.shape[1])]
    return params.gamma * float(np.mean(pops)) - i_at_ss


@pytest.mark.parametrize("delta_p", [-10.0, 10.0, 11.5])
def test_numeric_probe_matches_the_commutator_reference(delta_p):
    p = _params(g0=10.0, kappa=1e-3)
    probe = ProbeParams(omega_p_tilde=0.05)
    reference = _probe_response_reference(delta_p, p, probe, 6, 60.0)
    # measured 2.0e-9 at +-10 and 1.5e-8 at 11.5
    assert probe_response_numeric(delta_p, p, probe, n_max=6, t_final=60.0) \
        == pytest.approx(reference, rel=1e-7)


def test_numeric_probe_leaves_no_solver_behind():
    # scipy's DOP853 wrapper keeps every solver it runs alive
    def live_solvers():
        gc.collect()
        return sum(type(o).__name__ == "dop853" for o in gc.get_objects())

    p = _params(g0=10.0, kappa=1e-3)
    probe_response_numeric(10.0, p, ProbeParams(0.05), n_max=2, t_final=1.0)
    before = live_solvers()
    for delta_p in (9.0, 10.0, 11.0):
        probe_response_numeric(delta_p, p, ProbeParams(0.05), n_max=2,
                               t_final=1.0)
    assert live_solvers() == before
