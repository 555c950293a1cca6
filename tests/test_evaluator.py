"""The cached evaluator core against the validated routes it replaces in searches."""

import math

import numpy as np
import pytest

from qmi.channels import _square_root_povm, apply_matrix, depolarizing_channel
from qmi.entanglement import (
    _candidate_direction,
    _frobenius_norms,
    _RayScorer,
    _unit_rays,
)
from qmi.entropy import _entropy_rows, product_relative_entropy, umegaki_relative_entropy
from qmi.mutual import (
    PseudoResult,
    _compound_matrix,
    _MutualEvaluator,
    _sqrt_psd,
    _transmitted,
    mutual_entropy_fixed,
    ohya_mutual_entropy,
    pseudo_mutual_entropy,
)
from qmi.operators import DensityOperator, hermitian_from_params, schatten_family, schatten_param_count, unitary_from_params
from qmi.sampling import random_kraus_channel, random_unitary, rng_from
from qmi.search import SearchBudget, _complex_stack, maximize


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


# eigvalsh resolves the compounds' smallest eigenvalue to about 1e-16, so the
# bisection's PSD test accepts down to -1e-15; on the test rays, whose
# smallest eigenvalue falls with slope 0.025 or steeper, that moves the
# crossing by at most about 4e-14.
BISECTION_FLOOR = 1e-15


def _bisection_step(theta_d, x, cap=64.0):
    """Largest t keeping theta_d + t x PSD (within BISECTION_FLOOR), by bisection."""

    def feasible(t):
        return float(np.min(np.linalg.eigvalsh(theta_d + t * x))) >= -BISECTION_FLOOR

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


def _block_unitaries(ev, params):
    """The rotation of each block of `ev` that `schatten_family` builds from params, as a row of one."""
    rotations, pos = [], 0
    for s in ev.blocks:
        m = s.stop - s.start
        rotations.append(unitary_from_params(params[pos : pos + m * m], m)[None])
        pos += m * m
    return rotations


def test_evaluator_matches_the_dual_route_value():
    worst = 0.0
    owner = np.zeros(1, dtype=int)
    for rho, ch, rng in _cases(301):
        ev = _MutualEvaluator(rho.matrix, ch)
        assert ev.blocks
        for _ in range(5):
            params = rng.normal(size=schatten_param_count(rho)) * 2.0
            fixed = mutual_entropy_fixed(rho, ch, schatten_family(rho, params)).value
            value = ev.evaluate(ev.rotated(ev.parts[owner], _block_unitaries(ev, params)), owner)[0][0]
            worst = max(worst, abs(value - fixed))
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
        outputs = apply_matrix(ch, sigmas) / lams[:, None, None]
        got = ev.score(lams[None], _entropy_rows(np.linalg.eigvalsh(outputs))[None], np.zeros(1, dtype=int))[0]
        assert abs(got - reference) < 1e-10


def test_einsum_forms_match_the_loops():
    for rho, ch, rng in _cases(304):
        dec = schatten_family(rho, rng.normal(size=schatten_param_count(rho)))
        outputs = _transmitted(ch, dec)
        loop = _transmitted_loop(ch, dec)
        assert np.max(np.abs(outputs - np.array(loop))) < 1e-13
        assert np.max(np.abs(_compound_matrix(dec, outputs) - _compound_loop(dec, loop))) < 1e-13


def test_hermitian_parameter_map_matches_the_loop():
    rng = rng_from(307)
    for m in (1, 2, 3, 5, 8, 16):
        for _ in range(5):
            p = rng.normal(size=m * m)
            assert np.array_equal(hermitian_from_params(p, m), _hermitian_loop(p, m))
        batch = rng.normal(size=(2, 3, m * m))
        h = hermitian_from_params(batch, m)
        assert all(np.array_equal(h[i, j], _hermitian_loop(batch[i, j], m)) for i in range(2) for j in range(3))


def test_an_infinite_parameter_stays_in_its_entries():
    m = 3
    for k in range(m * m):
        p = np.arange(1.0, m * m + 1)
        p[k] = np.inf
        h = hermitian_from_params(p, m)
        finite = _hermitian_loop(np.where(np.isinf(p), 0.0, p), m)
        assert not np.isnan(h.view(float)).any()
        hit = h != finite
        assert np.all(np.isinf(h[hit].real) | np.isinf(h[hit].imag))
        assert hit.sum() == (1 if k < m else 2)


def _ray_value_reference(theta_d, x, rho_mat, out_avg):
    t_max = _bisection_step(theta_d, x)
    values = [
        product_relative_entropy(theta_d + frac * t_max * x, rho_mat, out_avg)
        for frac in (1.0, 0.75, 0.5, 0.25)
    ]
    finite = [v for v in values if math.isfinite(v)]
    return max(finite) if finite else -math.inf


def test_closed_form_step_matches_bisection():
    cases = list(_cases(305))
    rng = rng_from(306)
    rho = _state((2, 2, 1), rng)
    cases.append((rho, depolarizing_channel(0.3, 3), rng))  # full-rank compound
    sizes = []
    for rho, ch, rng in cases:
        dec = schatten_family(rho, rng.normal(size=schatten_param_count(rho)))
        outputs = _transmitted(ch, dec)
        theta_d = _compound_matrix(dec, outputs)
        out_avg = apply_matrix(ch, rho.matrix)
        k = ch.out_dim
        scorer = _RayScorer(theta_d, rho.matrix, out_avg)
        n_params = dec.size * (dec.size - 1) * k * k
        # The search's rays come with their norms and whitened forms; the
        # candidate passes its own.
        rays, norms, whitened = _unit_rays(scorer, dec, k)(rng.normal(size=(4, n_params)))
        assert np.all(_frobenius_norms(rays) > 0.5)
        assert norms.tolist() == [1.0] * 4
        candidate = _candidate_direction(dec, ch)
        directions = [(candidate, _frobenius_norms(candidate[None])[0], scorer.whitened(candidate[None])[0]),
                      *zip(rays, norms, whitened)]
        for x, norm, w in directions:
            values, steps = scorer.endpoints(x[None], np.array([norm]), w[None])
            exact = float(steps[0])
            reference = _bisection_step(theta_d, x)
            # A direction leaving the support of a rank-deficient theta_d has no
            # PSD step; the bisection's floor lets it reach about 4e-14, hence
            # the absolute term.
            assert abs(exact - reference) <= 1e-9 * reference + 1e-13
            if reference <= 1e-12:
                # No PSD step: exactly 0, never a rounding-sized step of either sign.
                assert exact == 0.0
            # The step never passes the PSD boundary beyond eigvalsh's resolution.
            assert float(np.min(np.linalg.eigvalsh(theta_d + exact * x))) >= -1e-15
            got = float(values[0])
            if exact == 0.0:
                assert got == -math.inf  # no PSD step: the ray scores nothing
            else:
                expected = _ray_value_reference(theta_d, x, rho.matrix, out_avg)
                assert abs(got - expected) < 1e-9
            sizes.append(exact)
    assert len(sizes) == 5 * len(cases)
    assert sum(t > 1e-3 for t in sizes) >= len(cases) + 1  # candidates and full-rank rays
    assert sum(t < 1e-8 for t in sizes) >= 8  # rays leaving a rank-deficient support


def _pseudo_reference(rho, ch, n_components, budget):
    """The pseudo search with a full `ohya_mutual_entropy` baseline, which
    validates and dual-route checks the baseline before the split search."""
    dim = rho.dim
    sqrt_rho = _sqrt_psd(rho.matrix)
    evaluator = _MutualEvaluator(rho.matrix, ch)
    baseline = ohya_mutual_entropy(rho, ch, budget.child(0))

    def split(params):
        effects = _square_root_povm(_complex_stack(params, n_components, dim, dim))
        sigmas = sqrt_rho @ effects @ sqrt_rho
        lams = np.clip(np.real(np.trace(sigmas, axis1=1, axis2=2)), 0.0, None)
        return lams, sigmas

    def objective(params):
        lams, sigmas = split(params)
        keep = lams > 1e-12
        lams = lams[keep]
        outputs = apply_matrix(ch, sigmas[keep]) / lams[:, None, None]
        return evaluator.score(lams[None], _entropy_rows(np.linalg.eigvalsh(outputs))[None], np.zeros(1, dtype=int))[0]

    n_params = n_components * 2 * dim * dim
    dec = baseline.decomposition
    start = np.zeros(n_params)
    for k in range(min(n_components, dec.size)):
        proj = dec.projector(k)
        start[k * 2 * dim * dim : k * 2 * dim * dim + dim * dim] = np.real(proj).reshape(-1)
        start[k * 2 * dim * dim + dim * dim : (k + 1) * 2 * dim * dim] = np.imag(proj).reshape(-1)
    result = maximize(objective, n_params, budget, starts=[start])
    if result.value > baseline.value + budget.tol:  # a win by rounding alone keeps the floor
        lams, sigmas = split(result.params)
        kept = [(lam, sig / lam) for lam, sig in zip(lams, sigmas) if lam > 1e-12]
        weights = np.array([lam for lam, _ in kept])
        return PseudoResult(
            value=result.value,
            weights=weights / np.sum(weights),
            components=tuple(sig for _, sig in kept),
            converged=result.converged,
            evals=result.evals + baseline.evals,
        )
    return PseudoResult(
        value=baseline.value,
        weights=dec.weights,
        components=tuple(dec.projector(k) for k in range(dec.size)),
        converged=baseline.converged or result.converged,
        evals=result.evals + baseline.evals,
    )


@pytest.mark.parametrize("spectrum", [(2, 2, 1), (3, 2, 1), (2, 2, 0), (1, 1, 1)])
def test_pseudo_search_matches_the_ohya_baseline_path(spectrum):
    rng = rng_from(401)
    rho = _state(spectrum, rng)
    ch = random_kraus_channel(3, 2, 2, rng)
    budget = SearchBudget(restarts=2, max_evals=30, seed=9)
    for n_components in (1, 2, 3):
        got = pseudo_mutual_entropy(rho, ch, n_components, budget)
        expected = _pseudo_reference(rho, ch, n_components, budget)
        assert got.value == expected.value
        assert np.array_equal(got.weights, expected.weights)
        assert len(got.components) == len(expected.components)
        for a, b in zip(got.components, expected.components):
            assert np.array_equal(a, b)
        assert (got.evals, got.converged) == (expected.evals, expected.converged)
