"""Shared multi-restart derivative-free maximization, and the search budget.

The derivative-free suprema of the package (capacity family searches, the
pseudo split searches, the entanglement ray searches) run through
`maximize_many`: Nelder-Mead local descents from seeded random starts,
stepped in lockstep so that each round of points is one call of a batch
objective, and reduced by max, for one problem (`maximize_batch`) or
several independent ones at once. Restart seeds derive from the budget's
master seed by counter, so results are reproducible. `maximize` is the
same search for a pointwise objective. The Schatten search of the Ohya
mutual entropy is a gradient ascent on the same `SearchBudget`
(`mutual._schatten_ascent`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

_REJECTED = 1e12  # finite stand-in handed to the minimizer for discarded points


@dataclass(frozen=True)
class SearchBudget:
    restarts: int = 32
    max_evals: int = 400
    seed: int = 1234
    tol: float = 1e-7

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"budget restarts must be at least 1, got {self.restarts}")
        if self.max_evals < 1:
            raise ValueError(f"budget max_evals must be at least 1, got {self.max_evals}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"budget tol must be finite and at least 0, got {self.tol}")

    def child(self, tag: int):
        """Nested-search budget: seed from (seed, tag), max(2, restarts // 8)
        restarts of max(60, max_evals // 4) evaluations, the same tol."""
        return replace(
            self,
            seed=int(np.random.SeedSequence(self.seed, spawn_key=(tag,)).generate_state(1)[0]),
            restarts=max(2, self.restarts // 8),
            max_evals=max(60, self.max_evals // 4),
        )


@dataclass(frozen=True, eq=False)
class SearchResult:
    value: float
    params: np.ndarray
    converged: bool
    evals: int


def _nelder_mead(x0: np.ndarray, max_evals: int, xatol: float, fatol: float):
    """Minimize from x0 by the Nelder-Mead simplex method, as a generator.

    Nelder & Mead, Computer Journal 7:308 (1965), with the non-adaptive
    coefficients (reflection 1, expansion 2, contraction 0.5, shrink 0.5).
    The initial simplex (x0 plus a 5% step per coordinate, 0.00025 from 0),
    the step order, the float expressions and the stop test are those of the
    common reference implementation; tests/test_search.py checks that both
    evaluate the same points in the same order.

    Each step yields the points it needs as the rows of one array: the n + 1
    vertices of the initial simplex, then a reflection, expansion or
    contraction point, or the n points of a shrink. The caller sends back
    their values as a sequence of the same length. A batch that would pass
    max_evals evaluations is cut at the cap and ends the descent, also
    inside the initial simplex or a shrink. The generator returns True only
    when the stop test (simplex within xatol and its values within fatol)
    ended the descent. The yielded arrays are the descent's own; the caller
    copies what it keeps.
    """
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    evals = min(n + 1, max_evals)
    fsim[:evals] = yield sim[:evals]
    if evals < n + 1:
        return False
    # Sorted twice before the first step, as the reference does: argsort
    # does not promise stability, so a second pass may reorder ties.
    order = fsim.argsort()
    sim, fsim = sim[order], fsim[order]
    while evals < max_evals:
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
        if np.abs(sim[1:] - sim[0]).max() <= xatol and np.abs(fsim[0] - fsim[1:]).max() <= fatol:
            return True
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        (fxr,) = yield xr[None]
        evals += 1
        if fxr < fsim[0]:
            if evals >= max_evals:
                return False
            xe = 3 * xbar - 2 * sim[-1]
            (fxe,) = yield xe[None]
            evals += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if evals >= max_evals:
                return False
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                (fxc,) = yield xc[None]
                shrink = fxc > fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                (fxc,) = yield xc[None]
                shrink = fxc >= fsim[-1]
            evals += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                if evals >= max_evals:
                    return False
                m = min(n, max_evals - evals)
                sim[1 : m + 1] = sim[0] + 0.5 * (sim[1 : m + 1] - sim[0])
                fsim[1 : m + 1] = yield sim[1 : m + 1]
                evals += m
                if m < n:
                    return False
    return False


def maximize_many(
    objective_rows,
    n_problems: int,
    n_params: int,
    budget: SearchBudget,
    starts=(),
) -> list[SearchResult]:
    """Maximize n_problems independent objectives over R^n_params together.

    Every problem runs the search `maximize_batch` describes, from the same
    starts and seeded restarts. Each round takes the unfinished descents'
    batches, problem by problem and within a problem in restart order, and
    scores them with one call `objective_rows(points, owners)`: points is an
    (m, n_params) array, m >= 1, and owners[i] the problem of row i. With
    one problem the call is `objective_rows(points)`, and no owner array is
    built. With n_params == 0 each problem is evaluated once, on a row of
    length 0, in one call. Descents do not interact, so each problem's
    value, params, `evals` (its rows) and `converged` equal those of
    `maximize_batch` on that problem alone.
    """
    if n_params == 0:
        if n_problems == 1:
            values = objective_rows(np.zeros((1, 0)))
        else:
            values = objective_rows(np.zeros((n_problems, 0)), np.arange(n_problems))
        return [
            SearchResult(value=float(values[p]), params=np.zeros(0), converged=True, evals=1)
            for p in range(n_problems)
        ]

    starts = [np.asarray(s, dtype=float).reshape(-1) for s in starts]
    for s in starts:
        if s.size != n_params:
            raise ValueError(f"start has {s.size} parameters, expected {n_params}")
    n_restarts = max(budget.restarts, len(starts))
    fatol = max(budget.tol * 0.1, 1e-12)
    x0s = starts + [
        np.random.default_rng(np.random.SeedSequence(budget.seed, spawn_key=(k,))).normal(size=n_params)
        for k in range(len(starts), n_restarts)
    ]

    # One best per descent, descent j = p * n_restarts + k for restart k of problem p.
    best_values = [-math.inf] * (n_problems * n_restarts)
    best_params = [np.zeros(n_params)] * (n_problems * n_restarts)
    converged = [False] * n_problems
    evals = [0] * n_problems
    active = []  # (descent, problem, its generator, its pending points)
    for p in range(n_problems):
        for k, x0 in enumerate(x0s):
            descent = _nelder_mead(x0, budget.max_evals, 1e-8, fatol)
            active.append((p * n_restarts + k, p, descent, next(descent)))
    while active:
        points = np.concatenate([pending for _, _, _, pending in active])
        if n_problems == 1:
            values = objective_rows(points)
        else:
            owners = np.repeat([p for _, p, _, _ in active], [len(pending) for _, _, _, pending in active])
            values = objective_rows(points, owners)
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values)
        scored = np.where(finite, values, -math.inf).tolist()
        # The minimizer sees -value, and a finite stand-in for discarded points.
        minimized = np.where(finite, -values, _REJECTED).tolist()
        stepped = []
        pos = 0
        for j, p, descent, pending in active:
            end = pos + len(pending)
            evals[p] += end - pos
            chunk = scored[pos:end]
            top = max(chunk)
            if top > best_values[j]:
                best_values[j], best_params[j] = top, points[pos + chunk.index(top)].copy()
            try:
                stepped.append((j, p, descent, descent.send(minimized[pos:end])))
            except StopIteration as stop:
                converged[p] |= stop.value
            pos = end
        active = stepped

    results = []
    for p in range(n_problems):
        value, params = -math.inf, np.zeros(n_params)
        for j in range(p * n_restarts, (p + 1) * n_restarts):
            if best_values[j] > value:
                value, params = best_values[j], best_params[j]
        results.append(SearchResult(value=value, params=params, converged=converged[p], evals=evals[p]))
    return results


def maximize_batch(
    objective_rows,
    n_params: int,
    budget: SearchBudget,
    starts=(),
) -> SearchResult:
    """Maximize an objective over R^n_params, evaluating points in batches.

    `objective_rows(P)` takes an (m, n_params) array, m >= 1, and returns the
    m values of its rows; a value that is not finite (-inf, say) discards
    its point. `starts` are deterministic initial points tried before
    random restarts; the total number of Nelder-Mead descents is
    max(budget.restarts, len(starts)), each capped at budget.max_evals
    evaluations.

    The descents run in lockstep: each round takes every unfinished
    descent's next batch (its initial simplex, one step's point or its
    shrink points), in restart order, and evaluates them with one
    `objective_rows` call. Descents do not interact, so each evaluates the
    same points, with the same values, as when run alone. Each descent keeps
    its first maximum, and those are reduced in restart order, the earlier
    restart winning a tie; so the returned value and params, `evals` (the
    number of rows evaluated) and `converged` (some descent met the stop
    test) equal those of a run that takes one restart at a time. With
    n_params == 0 the objective is evaluated once, on a 1 x 0 array. This
    is `maximize_many` with one problem.
    """
    return maximize_many(objective_rows, 1, n_params, budget, starts)[0]


def maximize(
    objective,
    n_params: int,
    budget: SearchBudget,
    starts=(),
) -> SearchResult:
    """Maximize a pointwise objective(params) over R^n_params.

    `maximize_batch` with each batch evaluated row by row, in order: the
    objective sees every row of a round, one call per point, with the
    restarts interleaved in lockstep order. The result equals that of
    running the restarts one at a time. The objective may return -inf to
    discard a point. With n_params == 0 it is evaluated once.
    """
    return maximize_batch(
        lambda points: np.array([float(objective(x)) for x in points]), n_params, budget, starts
    )


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _complex_stack(p: np.ndarray, count: int, rows: int, cols: int) -> np.ndarray:
    """`count` complex (rows, cols) matrices from consecutive blocks of
    2 rows cols reals, the real parts then the imaginary parts.

    Leading axes of p are batch axes: (..., 2 count rows cols) gives
    (..., count, rows, cols).
    """
    p = np.asarray(p, dtype=float)
    p = p.reshape(p.shape[:-1] + (count, 2, rows, cols))
    return p[..., 0, :, :] + 1j * p[..., 1, :, :]
