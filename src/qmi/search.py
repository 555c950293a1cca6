"""Shared multi-restart derivative-free maximization, and the search budget.

`maximize_batch` runs Nelder-Mead local descents from seeded random starts,
stepped in lockstep so that each round of points is one call of a batch
objective, and reduces them by max. Three suprema of the package use it:
the capacity state-family search (`capacity._quantum_search`), the
pseudo split search (`mutual._split_search`) and the entanglement q ray
search (`entanglement._q_value`). Restart seeds derive from the budget's
master seed by counter, so results are reproducible. `maximize` is the
same search for a pointwise objective. The Schatten search of the Ohya
mutual entropy is a gradient ascent on the same `SearchBudget`
(`mutual._schatten_ascent`), and the cqc modes take only its `tol` and
caps; neither uses Nelder-Mead.
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
    evals = min(n + 1, max_evals)  # the vertices scored; only these are built
    sim = np.tile(x0, (evals, 1))
    for k in range(evals - 1):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array((yield sim), dtype=float)
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
    test) equal those of a run that takes one restart at a time. If every
    point is discarded, the value is -inf and the params are zeros. With
    n_params == 0 the objective is evaluated once, on a 1 x 0 array.
    """
    if n_params == 0:
        value = float(objective_rows(np.zeros((1, 0)))[0])
        value = value if math.isfinite(value) else -math.inf
        return SearchResult(value=value, params=np.zeros(0), converged=True, evals=1)

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

    best_values = [-math.inf] * n_restarts  # each restart's first maximum
    best_params = [np.zeros(n_params)] * n_restarts
    converged, evals = False, 0
    active = []  # (restart, its generator, its pending points)
    for k, x0 in enumerate(x0s):
        descent = _nelder_mead(x0, budget.max_evals, 1e-8, fatol)
        active.append((k, descent, next(descent)))
    while active:
        points = np.concatenate([pending for _, _, pending in active])
        values = np.asarray(objective_rows(points), dtype=float)
        evals += len(points)
        finite = np.isfinite(values)
        scored = np.where(finite, values, -math.inf).tolist()
        # The minimizer sees -value, and a finite stand-in for discarded points.
        minimized = np.where(finite, -values, _REJECTED).tolist()
        stepped = []
        pos = 0
        for k, descent, pending in active:
            end = pos + len(pending)
            chunk = scored[pos:end]
            top = max(chunk)
            if top > best_values[k]:
                best_values[k], best_params[k] = top, points[pos + chunk.index(top)].copy()
            try:
                stepped.append((k, descent, descent.send(minimized[pos:end])))
            except StopIteration as stop:
                converged |= stop.value
            pos = end
        active = stepped

    k = best_values.index(max(best_values))  # the earliest restart of the best value
    return SearchResult(value=best_values[k], params=best_params[k], converged=converged, evals=evals)


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
