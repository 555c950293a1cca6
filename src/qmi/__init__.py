"""Finite-dimensional quantum information: entropies, compound states,
mutual entropy, channel capacities, and the entanglement hierarchy.

The library works in nats throughout and reports suprema together with
convergence information. The `qmi` console script drives everything in
batch from JSON configs.
"""

from .capacity import (
    CapacityReport,
    CodingScheme,
    CqcInstance,
    StateFamily,
    cqc_capacity,
    cqc_mutual_entropy,
    pseudo_capacity,
    quantum_capacity,
)
from .channels import (
    KrausChannel,
    Povm,
    StinespringIsometry,
    amplitude_damping_channel,
    apply,
    apply_matrix,
    born_probabilities,
    choi_matrix,
    classical_channel,
    compose,
    cq_channel,
    depolarizing_channel,
    identity_channel,
    kraus_to_stinespring,
    make_channel,
    measurement_channel,
    phase_damping_channel,
    projective_povm,
    stinespring_to_kraus,
    unitary_channel,
)
from .entanglement import (
    EntangledCompound,
    EntanglementClass,
    EntanglingOperator,
    class_mutual_and_capacity,
    classify_compound,
    conditional_and_degree,
    d_compound,
    entangled_mutual_entropy,
    entangling_from_state,
    phi,
    phi_star,
    q_entropy_closed_form,
    q_entropy_sup,
    qdc_hierarchy,
    standard_entanglement,
    strong_orthogonality_defect,
    weak_orthogonality_defect,
)
from .entropy import (
    kl_divergence,
    product_relative_entropy,
    shannon_entropy,
    umegaki_relative_entropy,
    von_neumann_entropy,
)
from .mutual import (
    CompoundState,
    DualRouteValue,
    MutualResult,
    PseudoResult,
    classical_mutual_entropy,
    compound_state,
    holevo_bound,
    mutual_entropy_fixed,
    ohya_mutual_entropy,
    pseudo_mutual_entropy,
)
from .operators import (
    ConsistencyError,
    DensityOperator,
    SchattenDecomposition,
    canonical_schatten,
    eigenbasis,
    maximally_mixed,
    partial_trace,
    pure_state,
    purify,
    schatten_family,
    spectral,
    tensor_product,
)
from .search import SearchBudget, SearchResult, maximize, maximize_batch
from .verify import verify_all, verify_report

__version__ = "0.1.0"
