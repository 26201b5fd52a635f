"""Lindblad dynamics of a fermionic chain dephased at its central site.

Simulation and analysis toolkit for the tight-binding chain whose only
coupling to the environment is number-operator dephasing on the central
site: exact-diagonalization sector dynamics, the closed two-point fastpath,
symmetry-sector bookkeeping, steady-state solvers, and the entanglement of
the symmetrically located pairs the dynamics generates.
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
    ChargeSector,
    ManyBodyBasis,
    bilinear_operator,
    build_many_body_hamiltonian,
    charge_operator,
    charge_sector_weights,
    correlation_matrix,
    enumerate_charge_sectors,
    even_mode_slater,
    fock_state,
    number_operator,
    odd_mode_slater,
    parity_sector_weights,
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
    conserved_charge_trace,
    dephasing_liouvillian,
    evolve,
    maximally_mixed,
    pure_state,
    steady_state,
    steady_state_null_space,
    unvectorize,
    validate_density,
    vectorize,
)
from .fastpath import (
    ScalingDomainError,
    correlation_evolve,
    evolve_with_hamiltonian,
    multiparticle_scaling,
    steady_correlation,
)
from .entangle import (
    concurrence,
    is_x_state,
    negativity,
    partial_transpose_eigenvalues,
    reduce_to_pair,
)
from .oracle import (
    analytic_n3_density_matrix,
    analytic_n3_elements,
    analytic_pair_rdm,
    analytic_steady_state,
    even_sector_steady_state,
    n5_steady_residual,
    ppt_eigenvalue_formula,
)

__version__ = "0.1.0"
