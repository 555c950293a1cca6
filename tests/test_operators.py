"""Core operator plumbing: decompositions, partial traces, parameter maps."""

import dataclasses

import numpy as np
import pytest

import qmi
from qmi.channels import depolarizing_channel
from qmi.operators import (
    PHASE_TOL,
    ConsistencyError,
    DensityOperator,
    SchattenDecomposition,
    _fix_phases,
    _support_blocks,
    _support_layouts,
    as_probability,
    canonical_schatten,
    eigenbasis,
    hermitian_from_params,
    maximally_mixed,
    partial_trace,
    pure_state,
    purify,
    schatten_family,
    schatten_param_count,
    spectral,
    tensor_product,
    unitary_from_params,
)
from qmi.sampling import random_density, random_pure, random_unitary, rng_from


def test_density_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.3], [0.2, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.9, 0.3]))  # trace 1.2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.2, -0.2]))  # negative eigenvalue


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: as_probability([np.nan, 1.0]), "probability vector"),
        (lambda: DensityOperator(np.diag([np.nan, 0.5])), "density operator"),
        (lambda: SchattenDecomposition(np.array([np.nan, 1.0]), np.eye(2)), "Schatten weights"),
        (lambda: SchattenDecomposition(np.array([0.5, 0.5]), np.diag([1.0, np.inf])), "Schatten vectors"),
    ],
    ids=["probability", "density", "schatten-weight", "schatten-vector"],
)
def test_non_finite_entries_are_rejected(build, name):
    with pytest.raises(ValueError, match=f"non-finite entry in {name}"):
        build()


def test_eigenbasis_descending_and_reconstructs():
    rng = rng_from(11)
    for _ in range(50):
        rho = random_density(4, rng)
        w, v = eigenbasis(rho.matrix)
        assert np.all(np.diff(w) <= 1e-12)
        np.testing.assert_allclose((v * w) @ v.conj().T, rho.matrix, atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def test_eigenbasis_is_deterministic():
    rng = rng_from(12)
    rho = random_density(3, rng)
    w1, v1 = eigenbasis(rho.matrix)
    w2, v2 = eigenbasis(rho.matrix.copy())
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(v1, v2)


def test_spectral_groups_degenerate_eigenvalues():
    rho = np.diag([0.4, 0.4, 0.2])
    dec = spectral(rho)
    assert dec.multiplicities == (2, 1)
    np.testing.assert_allclose(dec.reconstruct(), rho, atol=1e-12)
    np.testing.assert_allclose(np.trace(dec.projectors[0]), 2.0, atol=1e-12)


def test_canonical_schatten_reconstructs():
    rng = rng_from(13)
    for _ in range(50):
        rho = random_density(3, rng)
        dec = canonical_schatten(rho)
        np.testing.assert_allclose(dec.reconstruct(), rho.matrix, atol=1e-10)
        gram = dec.vectors.conj().T @ dec.vectors
        np.testing.assert_allclose(gram, np.eye(dec.size), atol=1e-10)


def test_schatten_family_rotates_only_degenerate_blocks():
    rng = rng_from(14)
    rho = DensityOperator(np.diag([0.5, 0.25, 0.25]))
    n = schatten_param_count(rho)
    assert n > 0
    for _ in range(20):
        dec = schatten_family(rho, rng.normal(size=n))
        np.testing.assert_allclose(dec.reconstruct(), rho.matrix, atol=1e-10)
    # nondegenerate spectra leave nothing to rotate
    assert schatten_param_count(DensityOperator(np.diag([0.5, 0.3, 0.2]))) == 0


def test_partial_trace_of_product_recovers_factors():
    rng = rng_from(15)
    for _ in range(20):
        a = random_density(2, rng).matrix
        b = random_density(3, rng).matrix
        joint = tensor_product(a, b)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=0), a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=1), b, atol=1e-12)


def test_purification_marginals():
    rng = rng_from(16)
    for _ in range(20):
        rho = random_density(3, rng, rank=2)
        psi, anc = purify(rho.matrix)
        assert anc == 2
        joint = np.outer(psi, psi.conj())
        np.testing.assert_allclose(partial_trace(joint, (3, anc), keep=0), rho.matrix, atol=1e-10)


def test_parameter_maps_land_on_their_manifolds():
    rng = rng_from(17)
    for m in (2, 3):
        for _ in range(10):
            p = rng.normal(size=m * m)
            h = hermitian_from_params(p, m)
            np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
            u = unitary_from_params(p, m)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(m), atol=1e-12)
    # zero parameters give the identity rotation
    np.testing.assert_allclose(unitary_from_params(np.zeros(9), 3), np.eye(3), atol=1e-15)


def test_pure_state_and_mixed_helpers():
    v = np.array([3.0, 4.0])
    rho = pure_state(v)
    np.testing.assert_allclose(np.trace(rho.matrix), 1.0)
    np.testing.assert_allclose(rho.matrix, np.outer(v, v) / 25.0, atol=1e-12)
    np.testing.assert_allclose(maximally_mixed(3).matrix, np.eye(3) / 3)


def test_as_probability_validates():
    np.testing.assert_allclose(as_probability([0.25, 0.75]), [0.25, 0.75])
    with pytest.raises(ValueError):
        as_probability([0.7, 0.7])
    with pytest.raises(ValueError):
        as_probability([1.2, -0.2])


def test_unitary_roundtrip_through_random_basis():
    rng = rng_from(18)
    u = random_unitary(4, rng)
    v = random_pure(4, rng)
    np.testing.assert_allclose(np.linalg.norm(u @ v), 1.0, atol=1e-12)


def _fix_phases_loop(vecs):
    """The column loop the stacked phase fix replaced."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = col[np.argmax(np.abs(col) > PHASE_TOL)]
        if abs(pivot) > 0:
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


@pytest.mark.parametrize("d", [2, 3, 5, 9])
def test_stacked_phase_fix_matches_the_column_loop(d):
    rng = rng_from(81)
    a = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
    vecs = np.linalg.eigh(a + a.conj().swapaxes(-1, -2))[1][..., ::-1]
    vecs[::4, 0, :] = 0.0  # columns whose pivot is a later component
    vecs[1::4, 0, 0] = 1e-9  # a first component under PHASE_TOL
    got = _fix_phases(vecs)
    assert got.tobytes() == np.stack([_fix_phases_loop(v) for v in vecs]).tobytes()
    assert _fix_phases(vecs[3]).tobytes() == _fix_phases_loop(vecs[3]).tobytes()


def test_support_layouts_group_the_eigen_data_of_each_state():
    rng = rng_from(82)
    u = random_unitary(4, rng)
    spectra = [(1, 1, 1, 1), (3, 3, 2, 1), (4, 3, 2, 1), (1, 1, 0, 0), (3, 3, 2, 1), (4, 3, 2, 0), (1, 0, 0, 0)]
    mats = np.stack([
        DensityOperator((v * (np.array(w) / sum(w))) @ v.conj().T).matrix
        for w, v in zip(spectra, [u] + [random_unitary(4, rng) for _ in spectra[1:]])
    ])
    layouts = _support_layouts(mats)
    assert [rows.tolist() for rows, *_ in layouts] == [[0], [1, 4], [2], [3], [5], [6]]
    for rows, weights, vectors, slices in layouts:
        for i, w, v in zip(rows, weights, vectors):
            w1, v1, slices1 = _support_blocks(mats[i])
            assert w.tobytes() == w1.tobytes() and v.tobytes() == v1.tobytes()
            assert slices == slices1


# Records whose fields are scalars, strings or other such records compare by
# value; every other record holds an array, directly or through a field.
_VALUE_RECORDS = {"StateFamily", "Check", "SuiteResult", "EntanglementClass", "SearchBudget", "DualRouteValue"}


def test_records_that_hold_arrays_compare_by_identity():
    records = {
        cls.__name__: cls
        for module in vars(qmi).values()
        if getattr(module, "__name__", "").startswith("qmi.")
        for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    }
    assert _VALUE_RECORDS < set(records)
    for name, cls in records.items():
        by_value = name in _VALUE_RECORDS
        assert (cls.__eq__ is not object.__eq__) == by_value, name
        if by_value:
            scalar = {"int", "float", "bool", "str", "int | None", "tuple[Check, ...]"}
            assert {f.type for f in dataclasses.fields(cls)} <= scalar, name
        else:
            assert cls.__hash__ is object.__hash__, name
    ch, rho = depolarizing_channel(0.3, 2), maximally_mixed(2)
    assert (depolarizing_channel(0.3, 2) == depolarizing_channel(0.3, 2)) is False
    assert ch == ch and rho != maximally_mixed(2)
    assert len({ch, rho, ch}) == 2
