"""Lindblad dynamics of a fermionic chain dephased at its central site.

Simulation and analysis toolkit for the tight-binding chain whose only
coupling to the environment is number-operator dephasing on the central
site: exact-diagonalization sector dynamics, the closed two-point fastpath,
symmetry-sector bookkeeping, steady-state solvers, the entanglement of the
symmetrically located pairs the dynamics generates, and the closed forms
that runs check their results against. Closed forms that only the tests
compare against live in the test suite, not here.
"""

from .model import (
    GOLDEN_MEAN,
    LatticeSpec,
    ModeParity,
    ReflectionSymmetryBroken,
    bare_mode_parity,
    build_single_particle_hamiltonian,
    classify_mode_parity,
    reflection_permutation,
)
from .fock import (
    ManyBodyBasis,
    bilinear_operator,
    build_many_body_hamiltonian,
    charge_operator,
    even_mode_slater,
    expectation,
    fock_state,
    number_operator,
    reflection_operator,
    slater_state,
    total_number_operator,
)
from .lindblad import (
    InvariantViolation,
    Liouvillian,
    SteadyStateNotConverged,
    Trajectory,
    build_liouvillian,
    dephasing_liouvillian,
    evolve,
    evolve_scan,
    pure_state,
    steady_state,
    steady_state_null_space,
    validate_density,
)
from .fastpath import (
    correlation_evolve,
    steady_correlation,
)
from .entangle import (
    concurrence,
    is_x_state,
    pair_readouts,
    reduce_to_pair,
)
from .oracle import (
    analytic_steady_state,
    even_sector_steady_state,
    long_time_correlation,
)

__version__ = "0.1.0"
