"""Driven two-level atoms in a lossy single-mode cavity.

Exact Lindblad master-equation numerics on a truncated Fock space,
cross-validated against the closed forms that describe the
interference-suppressed fluorescence regime: a perturbative expansion in
the cavity decay rate, a probe excitation spectrum, and an
adiabatically-eliminated collective field equation.
"""

from .model import (
    K_WAVENUMBER,
    NodePositionError,
    RegimeWarning,
    SystemParams,
    beta_profile,
    build_hamiltonian,
    build_liouvillian,
    build_space,
    free_space_fluorescence,
)
from .dynamics import (
    ObservableSet,
    SteadySolution,
    evolve,
    ground_state,
    observables,
    solve_steady,
    steady_state,
)
from .operators import (
    DensityMatrix,
    Operator,
    SpaceDescriptor,
    TruncationError,
    annihilation,
    atomic_lowering,
    basis_state,
    coherent_state,
    displacement,
    expectation,
    fidelity_with_pure,
    fock_populations,
    trace_distance,
)
from .perturbative import (
    biorthogonal_eigensystem,
    displaced_effective_hamiltonian,
    dressed_eigenvalues,
    perturbative_state,
    small_kappa_rates,
)
from .spectrum import (
    ProbeParams,
    excitation_spectrum,
    probe_response_numeric,
    probe_stark_shift,
    resonances,
    transition_amplitude,
)
from .collective import (
    PatternSpec,
    adiabatic_alpha,
    critical_atom_number,
    effective_field_params,
    excited_population,
    in_phase_alpha,
    restoring_coefficient,
    semiclassical_force,
)

__version__ = "0.1.0"

__all__ = [
    "K_WAVENUMBER",
    "DensityMatrix",
    "NodePositionError",
    "ObservableSet",
    "Operator",
    "PatternSpec",
    "ProbeParams",
    "RegimeWarning",
    "SpaceDescriptor",
    "SteadySolution",
    "SystemParams",
    "TruncationError",
    "adiabatic_alpha",
    "annihilation",
    "atomic_lowering",
    "basis_state",
    "beta_profile",
    "biorthogonal_eigensystem",
    "build_hamiltonian",
    "build_liouvillian",
    "build_space",
    "coherent_state",
    "critical_atom_number",
    "displaced_effective_hamiltonian",
    "displacement",
    "dressed_eigenvalues",
    "effective_field_params",
    "evolve",
    "excitation_spectrum",
    "excited_population",
    "expectation",
    "fidelity_with_pure",
    "fock_populations",
    "free_space_fluorescence",
    "ground_state",
    "in_phase_alpha",
    "observables",
    "perturbative_state",
    "probe_response_numeric",
    "probe_stark_shift",
    "resonances",
    "restoring_coefficient",
    "semiclassical_force",
    "small_kappa_rates",
    "solve_steady",
    "steady_state",
    "trace_distance",
    "transition_amplitude",
]
