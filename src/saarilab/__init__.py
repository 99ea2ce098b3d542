"""Numerical laboratory for constant-observable obstructions in dynamics.

The core objects are truncated Taylor jets (:mod:`saarilab.jet_algebra`),
iterated-Lie-derivative towers and their Jacobian rank diagnostics
(:mod:`saarilab.lie_tower`), N-body mechanics with relative-equilibrium
solvers (:mod:`saarilab.mech`), monitored trajectory integration
(:mod:`saarilab.flow`), and random-perturbation genericity experiments
(:mod:`saarilab.genericity`), all driven by the ``saarilab`` command line
(:mod:`saarilab.cli`).
"""

from .errors import (
    CombinabilityError,
    ConfigError,
    DegreeDeficitError,
    EvaluationDomainError,
    InsufficientSamplesError,
    InternalConsistencyError,
    NoConvergenceError,
    SaariLabError,
    SingularityError,
)
from .jet_algebra import (
    TruncatedJet,
    JetField,
    jet_eval,
    jet_mul,
    shift_base,
    table_size,
)
from .fields import (
    PolynomialField,
    PolynomialObservable,
    SeparableOscillator,
    coordinate_observable,
    linear1d_field,
    oscillator_energy,
    oscillator_field,
    random_polynomial_field,
    random_polynomial_observable,
    stream_rng,
)
from .lie_tower import (
    JacobianResult,
    ObstructionSample,
    RankReport,
    SaariVector,
    default_tower_order,
    dpsi_wrt_F,
    dpsi_wrt_X,
    lie_derivative,
    obstruction_at,
    psi_tower,
)
from .mech import (
    BodySystem,
    EnergyObservable,
    HamiltonianField,
    NewtonianPotential,
    PerturbedPotential,
    PhaseState,
    PowerLawPotential,
    RelEqSolution,
    build_hamiltonian_field,
    energy_observable,
    find_equilibria,
    grad_potential,
    hamiltonian,
    inertia_observable,
    moment_of_inertia,
    potential_value,
    releq_euler,
    releq_lagrange,
    releq_newton,
    releq_trajectory,
)
from .flow import (
    IntegratorConfig,
    ProbeResult,
    Trajectory,
    derivative_probe,
    figure8_initial_conditions,
    figure8_system,
    integrate,
    reverse_check,
)
from .genericity import (
    ExperimentReport,
    PerturbationSpec,
    SaariClassification,
    Sampler,
    ScanReport,
    classify_trajectory,
    genericity_experiment,
    obstruction_scan,
    perturb,
)

__version__ = "0.1.0"
