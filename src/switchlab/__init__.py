"""Numerical laboratory for complementarity with coherently controlled causal order.

Builds order-controlled interferometer processes, computes the spatial and
causal complementarity measures defined on them, and machine-verifies the
relations those measures satisfy.
"""

from .linalg import (
    DensityOperator,
    HermitianEigen,
    hermitian_eig,
    kron,
    partial_trace,
    pure_state_density,
    trace_norm,
    von_neumann_entropy,
)
from .model import (
    CausalOrder,
    PathPreparation,
    PostSelectionResult,
    SwitchScenario,
    WhichPathInteraction,
    branch_overlap,
    build_switch_unitary,
    build_which_path_unitary,
    evolve_switch,
    explicit_realization,
    fixed_order_state,
    fixed_order_vector,
    full_marking,
    gram_spectrum,
    measure_order,
    no_marking,
    order_marginal,
    post_select,
    reduce_state,
)
from .measures import (
    DualityReport,
    EntropicReport,
    binary_entropy,
    causal_coherence,
    causal_visibility,
    conditional_entropy_after_measurement,
    l1_coherence,
    order_bloch_norm,
    order_interference,
    path_distinguishability,
)
from .discrimination import (
    DiscriminationProblem,
    UnambiguousOptimum,
    causal_duality,
    helstrom_guess,
    uqsd_numeric_oracle,
    uqsd_two_pure,
)
from .relations import (
    NoGoCounterexample,
    RegionPoint,
    RelationCheck,
    check_entropic_bound,
    check_fixed_order_duality,
    check_ico_duality,
    check_overlap_lemma,
    check_post_selected_duality,
    check_post_selection_mixture,
    nogo_counterexample,
    random_scenario,
    region_scenario,
    region_sweep,
    scenario_fingerprint,
    scenario_quantities,
    verify_scenario,
)

__version__ = "0.1.0"
