"""Finite-dimensional quantum information: entropies, compound states,
mutual entropy, channel capacities, and the entanglement hierarchy.

The library works in nats throughout and reports suprema together with
convergence information. The `qmi` console script drives everything in
batch from JSON configs.

The public names load on first use (PEP 562): `import qmi` runs none of the
submodules, and `qmi.ohya_mutual_entropy` imports `qmi.mutual` and what it
needs, so a command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The public names by the submodule that defines them.
_EXPORTS = {
    "capacity": (
        "CapacityReport", "CodingScheme", "CqcInstance", "StateFamily", "cqc_capacity",
        "cqc_mutual_entropy", "pseudo_capacity", "quantum_capacity",
    ),
    "channels": (
        "KrausChannel", "Povm", "StinespringIsometry", "amplitude_damping_channel", "apply",
        "apply_matrix", "born_probabilities", "choi_matrix", "classical_channel", "compose",
        "cq_channel", "depolarizing_channel", "identity_channel", "kraus_to_stinespring",
        "make_channel", "measurement_channel", "phase_damping_channel", "projective_povm",
        "stinespring_to_kraus", "unitary_channel",
    ),
    "entanglement": (
        "EntangledCompound", "EntanglementClass", "EntanglingOperator", "class_mutual_and_capacity",
        "classify_compound", "conditional_and_degree", "d_compound", "entangled_mutual_entropy",
        "entangling_from_state", "phi", "phi_star", "q_entropy_closed_form", "q_entropy_sup",
        "qdc_hierarchy", "standard_entanglement", "strong_orthogonality_defect",
        "weak_orthogonality_defect",
    ),
    "entropy": (
        "kl_divergence", "product_relative_entropy", "shannon_entropy", "umegaki_relative_entropy",
        "von_neumann_entropy",
    ),
    "mutual": (
        "CompoundState", "DualRouteValue", "MutualResult", "PseudoResult", "classical_mutual_entropy",
        "compound_state", "holevo_bound", "mutual_entropy_fixed", "ohya_mutual_entropy",
        "pseudo_mutual_entropy",
    ),
    "operators": (
        "ConsistencyError", "DensityOperator", "SchattenDecomposition", "canonical_schatten",
        "eigenbasis", "maximally_mixed", "partial_trace", "pure_state", "purify", "schatten_family",
        "spectral", "tensor_product",
    ),
    "search": ("SearchBudget", "SearchResult", "maximize", "maximize_batch"),
    "verify": ("verify_all", "verify_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the submodule that defines `name` (or is `name`) and keep the result."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
