"""The cached evaluator core against the validated routes it replaces in searches."""

import math

import numpy as np
import pytest

from qmi.channels import apply_matrix, depolarizing_channel
from qmi.entanglement import (
    PSD_STEP_TOL,
    _assemble_direction,
    _candidate_direction,
    _RayScorer,
)
from qmi.entropy import product_relative_entropy, umegaki_relative_entropy
from qmi.mutual import (
    _compound_matrix,
    _MutualEvaluator,
    _transmitted,
    mutual_entropy_fixed,
)
from qmi.operators import DensityOperator, hermitian_from_params, schatten_family
from qmi.sampling import random_kraus_channel, random_unitary, rng_from


def _state(spectrum, rng) -> DensityOperator:
    u = random_unitary(len(spectrum), rng)
    w = np.asarray(spectrum, dtype=float)
    return DensityOperator((u * (w / w.sum())) @ u.conj().T)


# (spectrum, output dimension, Kraus operators): degenerate, rank-deficient
# and non-square (d_in != d_out) cases.
CASES = [
    ((2, 2, 1), 3, 2),
    ((3, 3, 2, 2), 4, 2),
    ((2, 2, 1, 0), 4, 2),
    ((1, 1, 1, 0, 0), 5, 3),
    ((2, 2, 1), 2, 3),
    ((2, 2, 1), 5, 1),
    ((3, 3, 3, 1, 0), 2, 4),
]


def _cases(seed):
    rng = rng_from(seed)
    for spectrum, d_out, n_ops in CASES:
        rho = _state(spectrum, rng)
        yield rho, random_kraus_channel(rho.dim, d_out, n_ops, rng), rng


def _transmitted_loop(ch, dec):
    out = []
    for k in range(dec.size):
        ws = [op @ dec.vectors[:, k] for op in ch.ops]
        out.append(sum(np.outer(w, w.conj()) for w in ws))
    return out


def _compound_loop(dec, outputs):
    d_g, d_k = dec.vectors.shape[0], outputs[0].shape[0]
    theta = np.zeros((d_g * d_k, d_g * d_k), dtype=complex)
    for k in range(dec.size):
        theta += dec.weights[k] * np.kron(dec.projector(k), outputs[k])
    return theta


def _hermitian_loop(p, m):
    h = np.zeros((m, m), dtype=complex)
    for i in range(m):
        h[i, i] = p[i]
    pos = m
    for i in range(m):
        for j in range(i + 1, m):
            h[i, j] = p[pos] + 1j * p[pos + 1]
            h[j, i] = p[pos] - 1j * p[pos + 1]
            pos += 2
    return h


def _bisection_step(theta_d, x, cap=64.0):
    """Largest t keeping theta_d + t x PSD within PSD_STEP_TOL, by bisection."""

    def feasible(t):
        return float(np.min(np.linalg.eigvalsh(theta_d + t * x))) >= -PSD_STEP_TOL

    lo, hi = 0.0, 1.0
    while feasible(hi) and hi < cap:
        lo, hi = hi, hi * 2.0
    if hi >= cap and feasible(cap):
        return cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_evaluator_matches_the_dual_route_value():
    worst = 0.0
    for rho, ch, rng in _cases(301):
        ev = _MutualEvaluator(rho.matrix, ch)
        assert ev.n_params > 0
        for _ in range(5):
            params = rng.normal(size=ev.n_params) * 2.0
            fixed = mutual_entropy_fixed(rho, ch, schatten_family(rho, params)).value
            worst = max(worst, abs(ev.value(params) - fixed))
    assert worst < 1e-10


def test_evaluator_scores_nonorthogonal_splits():
    rng = rng_from(302)
    for rho, ch, _ in _cases(303):
        ev = _MutualEvaluator(rho.matrix, ch)
        a = rng.normal(size=(3, rho.dim, rho.dim)) + 1j * rng.normal(size=(3, rho.dim, rho.dim))
        effects = a @ a.conj().transpose(0, 2, 1)
        inv_sqrt = np.linalg.inv(np.linalg.cholesky(effects.sum(axis=0)))
        effects = inv_sqrt @ effects @ inv_sqrt.conj().T  # sums to I
        w, v = np.linalg.eigh(rho.matrix)
        sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        sigmas = sqrt_rho @ effects @ sqrt_rho
        lams = np.real(np.trace(sigmas, axis1=1, axis2=2))
        out_avg = apply_matrix(ch, rho.matrix)
        reference = sum(
            lam * umegaki_relative_entropy(apply_matrix(ch, s / lam), out_avg)
            for lam, s in zip(lams, sigmas)
        )
        got = ev.score(lams, ev.transmit(sigmas) / lams[:, None, None])
        assert abs(got - reference) < 1e-10


def test_einsum_forms_match_the_loops():
    for rho, ch, rng in _cases(304):
        dec = schatten_family(rho, rng.normal(size=_MutualEvaluator(rho.matrix, ch).n_params))
        outputs = _transmitted(ch, dec)
        loop = _transmitted_loop(ch, dec)
        assert np.max(np.abs(outputs - np.array(loop))) < 1e-13
        assert np.max(np.abs(_compound_matrix(dec, outputs) - _compound_loop(dec, loop))) < 1e-13


def test_hermitian_parameter_map_matches_the_loop():
    rng = rng_from(307)
    for m in (1, 2, 3, 5):
        for _ in range(5):
            p = rng.normal(size=m * m)
            assert np.array_equal(hermitian_from_params(p, m), _hermitian_loop(p, m))


def _ray_value_reference(theta_d, x, rho_mat, out_avg):
    t_max = _bisection_step(theta_d, x)
    values = [
        product_relative_entropy(theta_d + frac * t_max * x, rho_mat, out_avg)
        for frac in (1.0, 0.75, 0.5, 0.25)
    ]
    finite = [v for v in values if math.isfinite(v)]
    return max(finite) if finite else -math.inf


@pytest.mark.parametrize("fix_output_blocks", [True, False])
def test_closed_form_step_matches_bisection(fix_output_blocks):
    cases = list(_cases(305))
    rng = rng_from(306)
    rho = _state((2, 2, 1), rng)
    cases.append((rho, depolarizing_channel(0.3, 3), rng))  # full-rank compound
    sizes = []
    for rho, ch, rng in cases:
        ev = _MutualEvaluator(rho.matrix, ch)
        dec = schatten_family(rho, rng.normal(size=ev.n_params))
        outputs = _transmitted(ch, dec)
        theta_d = _compound_matrix(dec, outputs)
        out_avg = apply_matrix(ch, rho.matrix)
        k = ch.out_dim
        scorer = _RayScorer(theta_d, rho.matrix, out_avg, k)
        n_params = (dec.size * (dec.size - 1)) * k * k + (0 if fix_output_blocks else dec.size * k * k)
        directions = [_candidate_direction(dec, outputs, k)]
        directions += [
            _assemble_direction(rng.normal(size=n_params), dec, k, fix_output_blocks)
            for _ in range(4)
        ]
        for x in directions:
            exact = scorer.max_step(x)
            reference = _bisection_step(theta_d, x)
            # A direction leaving the support of a rank-deficient theta_d has a
            # step near PSD_STEP_TOL; there eigvalsh's 1e-17 resolution moves the
            # bisection's crossing by up to about 1e-16, hence the absolute floor.
            assert abs(exact - reference) <= 1e-9 * reference + 1e-15
            got = scorer.value(x)
            expected = _ray_value_reference(theta_d, x, rho.matrix, out_avg)
            assert abs(got - expected) < 1e-9
            sizes.append(exact)
    assert len(sizes) == 5 * len(cases)
    assert sum(t > 1e-3 for t in sizes) >= len(cases) + 1  # candidates and full-rank rays
    assert sum(t < 1e-8 for t in sizes) >= 8  # rays leaving a rank-deficient support
