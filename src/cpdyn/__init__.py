"""cpdyn: exact classical Hamiltonian-flow simulation of N-level quantum
dynamics on complex projective space, with a differential-testing harness
against reference Schrodinger integrators."""

from .chart import (
    ChartPoint,
    ZeroPivotError,
    from_chart,
    fubini_study_metric,
    kahler_potential,
    normalization,
    select_pivot,
    symplectic_form,
    symplectic_inverse,
    to_chart,
    transition,
)
from .flow import (
    ClassicalTrajectory,
    FlowSettings,
    classical_hamiltonian,
    grad_conj,
    hamilton_rhs,
    integrate_classical,
)
from .observables import (
    concurrence_classical,
    concurrence_quantum,
    energy,
    is_separable,
    populations_classical,
    populations_quantum,
    quaternionic_z_classical,
    quaternionic_z_quantum,
)
from .pauli import (
    MixedLabelLengthError,
    PauliSyntaxError,
    PauliTerm,
    build_hamiltonian,
    build_two_qubit_hamiltonian,
    format_terms,
    parse_hamiltonian,
)
from .quantum import (
    NumericFailure,
    QuantumTrajectory,
    TimeGrid,
    evolve_exact_grid,
    evolve_rk4,
    make_state,
)
from .scenario import (
    ComparisonReport,
    ConfigError,
    RunResult,
    ScenarioConfig,
    compare,
    emit_csv,
    load_scenario,
    run,
)

__version__ = "0.23.0"
