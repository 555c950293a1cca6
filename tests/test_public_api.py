"""The package's public names: the same objects as before they loaded lazily."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmi

# Every name `qmi` exports, by the submodule that defines it.
PUBLIC = {
    "capacity": """CapacityReport CodingScheme CqcInstance StateFamily cqc_capacity cqc_mutual_entropy
        pseudo_capacity quantum_capacity""",
    "channels": """KrausChannel Povm StinespringIsometry amplitude_damping_channel apply apply_matrix
        born_probabilities choi_matrix classical_channel compose cq_channel depolarizing_channel
        identity_channel kraus_to_stinespring make_channel measurement_channel phase_damping_channel
        projective_povm stinespring_to_kraus unitary_channel""",
    "entanglement": """EntangledCompound EntanglementClass EntanglingOperator class_mutual_and_capacity
        classify_compound conditional_and_degree d_compound entangled_mutual_entropy entangling_from_state
        phi phi_star q_entropy_closed_form q_entropy_sup qdc_hierarchy standard_entanglement
        strong_orthogonality_defect weak_orthogonality_defect""",
    "entropy": "kl_divergence product_relative_entropy shannon_entropy umegaki_relative_entropy von_neumann_entropy",
    "mutual": """CompoundState DualRouteValue MutualResult PseudoResult classical_mutual_entropy compound_state
        holevo_bound mutual_entropy_fixed ohya_mutual_entropy pseudo_mutual_entropy""",
    "operators": """ConsistencyError DensityOperator SchattenDecomposition canonical_schatten eigenbasis
        maximally_mixed partial_trace pure_state purify schatten_family spectral tensor_product""",
    "search": "SearchBudget SearchResult maximize maximize_batch",
    "verify": "verify_all verify_report",
}
NAMES = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_the_exported_names_are_the_frozen_list():
    assert len(NAMES) == 78
    assert sorted(qmi.__all__) == sorted(NAMES)


def test_each_name_is_its_defining_modules_object():
    for name, module_name in NAMES.items():
        module = importlib.import_module(f"qmi.{module_name}")
        assert getattr(qmi, name) is getattr(module, name), name
        assert getattr(qmi, name).__module__ == module.__name__, name


def test_dir_and_star_import_cover_every_name():
    # A fresh interpreter, where no name has been looked up yet.
    proc = subprocess.run(
        [sys.executable, "-c", "import qmi; print(' '.join(dir(qmi)))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(qmi.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert set(NAMES) <= set(proc.stdout.split())
    namespace = {}
    exec("from qmi import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(qmi, name) for name in NAMES)


def test_submodules_resolve_as_attributes():
    for module in PUBLIC:
        assert getattr(qmi, module) is importlib.import_module(f"qmi.{module}")


def test_an_unknown_name_raises_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'qmi' has no attribute 'nope'"):
        qmi.nope
    assert not hasattr(qmi, "nope")
