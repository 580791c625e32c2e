"""Concentration bounds for output statistics of quantum Markov chains.

A numpy library that computes finite-time tail bounds for time
averages of measurement outcomes (discrete-time quantum Markov chains,
continuous-time counting processes, classical Markov chain fluxes) and
certifies them numerically against exact dynamic-programming tails and
seeded Monte Carlo estimates.
"""

__version__ = "0.1.0"

from .operators import (
    DensityMatrix,
    GKLSGenerator,
    KrausChannel,
    ObservationFunction,
    Superoperator,
    kms_adjoint,
    kms_inner,
    kms_norm,
    kms_operator_norm,
    kms_positive_parts,
    superoperator_matrix,
    validate_channel,
)
from .spectral import (
    InvariantDecomposition,
    certified_pseudoresolvent_norm,
    decompose_invariant_subspaces,
    deformed_channel,
    gkls_steady_state,
    invariant_state,
    is_irreducible,
    is_primitive,
    multiplicative_symmetrization,
    phi_power_norms,
    poisson_solve,
    pseudoresolvent_norm,
    spectral_gap_multiplicative,
    spectral_radius_deformed,
)
from .bounds import (
    BoundConstants,
    BoundResult,
    TimeStep,
    Unravelling,
    bernstein_bound,
    bernstein_constants,
    confidence_lower_bound,
    counting_aux_bounds,
    counting_bound,
    counting_constants,
    h_function,
    hoeffding_bound,
    hoeffding_constants,
    multitime_hoeffding,
    n_rho,
    reducible_bound,
    stationary_stats,
    time_dependent_bernstein,
    time_dependent_hoeffding,
)
from .trajectory import (
    CountingRecord,
    EmpiricalTail,
    TrajectoryRecord,
    exact_tail_dp,
    laplace_transform_exact,
    mc_counting_tail,
    mc_tail,
    sample_counting,
    sample_discrete,
    score_distribution_dp,
    score_distribution_windowed,
    wilson_interval,
)
from .classical import (
    FluxFunction,
    MarkovChain,
    doubled_chain,
    embed_diagonal,
    exact_flux_tail,
    flux_bernstein,
    flux_hoeffding,
    stationary_distribution,
)
