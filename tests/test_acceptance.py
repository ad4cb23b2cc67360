"""End-to-end acceptance checks, one test per headline claim.

Each test prints a one-line verdict (also summarized by conftest at the
end of the run).  Tolerances are pinned here and must not be loosened.
"""

import numpy as np
import pytest

import drivencavity as dc
from drivencavity.cli import run_figure, write_csv
from drivencavity.figures import preset_names
from drivencavity.model import beta_profile, build_liouvillian, build_space
from drivencavity.operators import DensityMatrix
from drivencavity.perturbative import (
    biorthogonal_eigensystem,
    displaced_effective_hamiltonian,
    dressed_eigenvalues,
    perturbative_state,
    small_kappa_rates,
)


def _report(num, label, ok, detail=""):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _single(g0, omega, kappa, **kw):
    return dc.SystemParams(positions=(0.0,), g0=g0, omega=omega,
                           kappa=kappa, **kw)


def test_criterion_01_dark_state():
    p = _single(10.0, 1.0, 0.0)
    sol = dc.solve_steady(p)
    ket = dc.coherent_state(sol.space, -0.1, atoms="g")
    fid = dc.fidelity_with_pure(sol.rho, ket)
    i_at = dc.observables(sol.rho, p).i_at_total
    _report(1, "dark_state", fid > 0.999 and abs(i_at) < 1e-6,
            f"fidelity={fid:.6f} i_at={i_at:.2e}")


def test_criterion_02_emission_scaling():
    kappas = np.linspace(0.01, 0.3, 7)
    i_at, i_cav = [], []
    for k in kappas:
        p = _single(10.0, 1.0, float(k))
        obs = dc.observables(dc.solve_steady(p).rho, p)
        i_at.append(obs.i_at_total)
        i_cav.append(obs.i_cav)
    slope_at = np.polyfit(np.log(kappas), np.log(i_at), 1)[0]
    slope_cav = np.polyfit(np.log(kappas), np.log(i_cav), 1)[0]
    p01 = _single(10.0, 1.0, 0.1)
    exact = dc.observables(dc.solve_steady(p01).rho, p01).i_at_total
    closed = small_kappa_rates(p01).i_at
    rel = abs(exact - closed) / closed
    ok = (abs(slope_at - 2.0) < 0.1 and abs(slope_cav - 1.0) < 0.1
          and rel < 0.2)
    _report(2, "emission_scaling",
            ok, f"slopes=({slope_at:.3f},{slope_cav:.3f}) rel={rel:.3f}")


def test_criterion_03_poissonian_output():
    worst = 0.0
    for k in (0.01, 0.05, 0.1, 0.2, 0.5):
        p = _single(10.0, 1.0, k)
        obs = dc.observables(dc.solve_steady(p).rho, p)
        assert obs.g2_zero is not None and obs.mean_n > 5e-3
        worst = max(worst, abs(obs.g2_zero - 1.0))
    _report(3, "poissonian_output", worst < 0.05, f"max|g2-1|={worst:.4f}")


def test_criterion_04_spectrum_doublet():
    probe = dc.ProbeParams(omega_p_tilde=1e-3)
    p = _single(1.0, 1.0, 0.0)
    grid = np.linspace(-4, 4, 1601)
    step = grid[1] - grid[0]
    w = np.array([dc.excitation_spectrum(d, p, probe) for d in grid])
    lo = grid[grid < 0][np.argmax(w[grid < 0])]
    hi = grid[grid > 0][np.argmax(w[grid > 0])]
    ok = abs(lo + 1) <= step and abs(hi - 1) <= step
    ok &= dc.excitation_spectrum(0.0, p, probe) == 0.0

    p2 = _single(1.0, 1.0, 0.0, delta=-2.0)
    w2 = np.array([dc.excitation_spectrum(d, p2, probe) for d in grid])
    lo2 = grid[grid < 1][np.argmax(w2[grid < 1])]
    hi2 = grid[grid > 1][np.argmax(w2[grid > 1])]
    ok &= abs(lo2 + 0.41421356) <= step and abs(hi2 - 2.41421356) <= step

    # full master-equation cross-check at strong coupling
    p3 = _single(10.0, 1.0, 1e-3)
    strong = dc.ProbeParams(omega_p_tilde=0.05)
    peaks = []
    for center in (10.0, -10.0):
        scan = center + np.arange(-2, 2.25, 0.25)
        resp = [dc.probe_response_numeric(float(d), p3, strong, n_max=6,
                                          t_final=60.0) for d in scan]
        peaks.append(scan[int(np.argmax(resp))])
    ok &= abs(peaks[0] - 10.0) < 0.5 and abs(peaks[1] + 10.0) < 0.5
    _report(4, "spectrum_doublet", bool(ok),
            f"analytic=({lo:.3f},{hi:.3f},{lo2:.3f},{hi2:.3f}) "
            f"numeric={peaks}")


def test_criterion_05_two_atom_interference():
    def solve(x2, **kw):
        p = dc.SystemParams(positions=(0.0, x2), **kw)
        return p, dc.observables(dc.solve_steady(p).rho, p)

    fig6 = dict(g0=10.0, omega=1.0, kappa=0.2, delta=100.0)
    ok = True
    for x2 in (0.0, 1.0):
        _, obs = solve(x2, **fig6)
        ok &= np.all(obs.pi_e_per_atom < 1e-4)
    _, obs_half = solve(0.5, **fig6)
    pe = obs_half.pi_e_per_atom
    ok &= obs_half.mean_n < 1e-3 * (fig6["omega"] / fig6["g0"]) ** 2
    ok &= pe[0] > 0 and abs(pe[0] - pe[1]) < 1e-8 * max(pe)

    # ratio maximal when the atoms sit one wavelength apart
    xs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    ratios = []
    for x2 in xs:
        p, obs = solve(x2, **fig6)
        ratios.append(obs.i_cav / obs.i_at_total)
    ok &= xs[int(np.argmax(ratios))] == 1.0
    _report(5, "two_atom_interference", bool(ok),
            f"pi_e(l/2)={pe[0]:.2e} n(l/2)={obs_half.mean_n:.2e} "
            f"argmax_x2={xs[int(np.argmax(ratios))]}")


def test_criterion_06_perturbative_oracle():
    p = _single(10.0, 1.0, 1e-3)
    ps = perturbative_state(p, t=10.0, order=2)
    rho_p = ps.assemble(p.kappa)
    space = build_space(p, ps.space.n_max)
    l = build_liouvillian(p, space)
    ket = dc.coherent_state(space, beta_profile(0.0, p), atoms="g")
    rho_e = dc.evolve(DensityMatrix.pure(space, ket), l, 10.0)
    dist = dc.trace_distance(rho_p, rho_e)

    h0, _ = displaced_effective_hamiltonian(p, build_space(p, 5))
    sys_ = biorthogonal_eigensystem(h0.entries)
    resid = sys_.completeness_residual()
    worst = 0.0
    for n in range(1, 6):
        for lam in dressed_eigenvalues(n, p):
            worst = max(worst, min(abs(lam - e) for e in sys_.eigenvalues))
    ok = dist < 1e-4 and resid < 1e-8 and worst < 1e-8
    _report(6, "perturbative_oracle", ok,
            f"dist={dist:.2e} resid={resid:.2e} eig_err={worst:.2e}")


def test_criterion_07_collective_crossover():
    p = _single(1e-3, 1e-3, 1e-3)
    ns = np.arange(1, 26)
    mags = np.array([abs(dc.in_phase_field(int(n), p).alpha)
                     for n in ns])
    fit = np.polyfit(ns, mags, 1)
    resid = np.max(np.abs(mags - np.polyval(fit, ns))) / mags.max()
    ok = resid < 0.02

    a2500 = dc.in_phase_field(2500, p).alpha
    ok &= abs(a2500 + p.omega / p.g0) < 0.1 * p.omega / p.g0

    deep = np.geomspace(1e5, 1e6, 5).astype(int)
    pe = [dc.in_phase_field(int(n), p).pi_e for n in deep]
    slope = np.polyfit(np.log(deep), np.log(pe), 1)[0]
    ok &= abs(slope + 2.0) < 0.05

    # resonance of the Fig. 11(b) regime: delta_c = N s Delta
    p11 = _single(10.0, 10.0, 10.0, delta=-1000.0, delta_c=-5.0)
    s = p11.g0**2 / (0.25 + p11.delta**2)  # (gamma/2)^2, gamma = 1
    predicted = p11.delta_c / (s * p11.delta)
    ns11 = np.arange(20, 101)
    pe11 = [dc.in_phase_field(int(n), p11).pi_e
            for n in ns11]
    found = ns11[int(np.argmax(pe11))]
    ok &= abs(found - predicted) <= 0.05 * predicted
    _report(7, "collective_crossover", bool(ok),
            f"lin_resid={resid:.4f} slope={slope:.3f} "
            f"resonance N={found} vs {predicted:.1f}")


def test_criterion_08_adiabatic_vs_exact():
    p = _single(1.0, 1.0, 0.2, delta=100.0)
    obs = dc.observables(dc.solve_steady(p).rho, p)
    alpha = dc.adiabatic_alpha(p)
    pi_e = dc.in_phase_field(1, p).pi_e
    rel_a = abs(alpha - obs.alpha) / abs(alpha)
    rel_p = abs(pi_e - obs.pi_e_per_atom[0]) / pi_e
    ok = rel_a < 0.05 and rel_p < 0.10
    _report(8, "adiabatic_vs_exact", ok,
            f"alpha_rel={rel_a:.4f} pi_e_rel={rel_p:.4f}")


def test_criterion_09_pattern_stability():
    def params(delta_c, delta):
        return dc.SystemParams(positions=(0.0,) * 4, g0=1.0, omega=1.0,
                               kappa=0.1, delta=delta, delta_c=delta_c)

    neg = dc.restoring_coefficient(4, params(-0.01, 2.0))
    pos = dc.restoring_coefficient(4, params(+0.01, 2.0))
    other = dc.restoring_coefficient(4, params(-0.01, 7.0))
    ok = neg < 0 < pos and abs(neg - other) < 1e-12

    p = params(-0.01, 2.0)
    f0 = dc.semiclassical_force(0.0, -0.7 + 0.1j, p)
    f_half = dc.semiclassical_force(0.5, -0.7 + 0.1j, p)
    ok &= f0 == 0.0 and f_half == 0.0
    _report(9, "pattern_stability", ok,
            f"coef=({neg:.3e},{pos:.3e}) dDelta={abs(neg - other):.1e} "
            f"F(antinode)=({f0},{f_half})")


def test_criterion_10_determinism(tmp_path):
    ok = True
    details = []
    for name in preset_names():
        r1 = run_figure(name, points=5, n_workers=1)
        r2 = run_figure(name, points=5, n_workers=4)
        f1, f2 = tmp_path / f"{name}.1.csv", tmp_path / f"{name}.2.csv"
        write_csv(r1, str(f1))
        write_csv(r2, str(f2))
        same = f1.read_bytes() == f2.read_bytes()
        ok &= same and r1.n_failed == 0
        if not same:
            details.append(name)
    _report(10, "determinism", bool(ok),
            "all presets byte-identical" if ok else f"mismatch: {details}")
