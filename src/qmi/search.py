"""Shared multi-restart derivative-free maximization.

Every supremum in the package (Schatten searches, capacity searches,
entanglement searches) runs through `maximize`: Nelder-Mead local descents
from seeded random starts, reduced by max. Restart seeds derive from the
budget's master seed by counter, so results are reproducible.
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

    def child(self, tag: int):
        """Nested-search budget: seed from (seed, tag), max(2, restarts // 8)
        restarts of max(60, max_evals // 4) evaluations, the same tol."""
        return replace(
            self,
            seed=int(np.random.SeedSequence(self.seed, spawn_key=(tag,)).generate_state(1)[0]),
            restarts=max(2, self.restarts // 8),
            max_evals=max(60, self.max_evals // 4),
        )


@dataclass(frozen=True)
class SearchResult:
    value: float
    params: np.ndarray
    converged: bool
    evals: int


class _Capped(Exception):
    """Raised by the counted objective once the evaluation cap is reached."""


def _nelder_mead(f, x0: np.ndarray, max_evals: int, xatol: float, fatol: float) -> bool:
    """Minimize f from x0 by the Nelder-Mead simplex method; True if converged.

    Nelder & Mead, Computer Journal 7:308 (1965), with the non-adaptive
    coefficients (reflection 1, expansion 2, contraction 0.5, shrink 0.5).
    The initial simplex (x0 plus a 5% step per coordinate, 0.00025 from 0),
    the step order, the float expressions and the stop test are those of the
    common reference implementation; tests/test_search.py checks that both
    evaluate the same points in the same order. f receives a copy of each
    point. A call that would exceed max_evals ends the descent, also inside
    the initial simplex or a shrink; the result is True only when the stop
    test (simplex within xatol and its values within fatol) ended it.
    """
    evals = 0

    def call(x):
        nonlocal evals
        if evals >= max_evals:
            raise _Capped
        evals += 1
        return f(np.copy(x))

    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
        # Sorted twice before the first step, as the reference does: argsort
        # does not promise stability, so a second pass may reorder ties.
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        while evals < max_evals:
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
            if (
                np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
            ):
                return True
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = call(xc)
                    shrink = fxc > fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = call(xc)
                    shrink = fxc >= fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
    except _Capped:
        pass
    return False


def maximize(
    objective,
    n_params: int,
    budget: SearchBudget,
    starts=(),
) -> SearchResult:
    """Maximize objective(params) over R^n_params under the given budget.

    `starts` are deterministic initial points tried before random restarts;
    the total number of local searches is max(budget.restarts, len(starts)).
    The objective may return -inf to discard a point. With n_params == 0 the
    objective is evaluated once.
    """
    if n_params == 0:
        return SearchResult(
            value=float(objective(np.zeros(0))),
            params=np.zeros(0),
            converged=True,
            evals=1,
        )

    starts = [np.asarray(s, dtype=float).reshape(-1) for s in starts]
    for s in starts:
        if s.size != n_params:
            raise ValueError(f"start has {s.size} parameters, expected {n_params}")
    n_restarts = max(budget.restarts, len(starts))

    best = {"value": -math.inf, "params": np.zeros(n_params), "evals": 0}

    def neg(x):
        best["evals"] += 1
        v = float(objective(x))
        if not math.isfinite(v):
            return _REJECTED
        if v > best["value"]:
            best["value"], best["params"] = v, x
        return -v

    converged = False
    for k in range(n_restarts):
        if k < len(starts):
            x0 = starts[k]
        else:
            rng = np.random.default_rng(np.random.SeedSequence(budget.seed, spawn_key=(k,)))
            x0 = rng.normal(size=n_params)
        converged |= _nelder_mead(neg, x0, budget.max_evals, 1e-8, max(budget.tol * 0.1, 1e-12))
    return SearchResult(
        value=best["value"], params=best["params"], converged=converged, evals=best["evals"]
    )


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / e.sum()


def complex_from_params(p: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Free complex matrix from 2*rows*cols reals."""
    p = np.asarray(p, dtype=float)
    if p.size != 2 * rows * cols:
        raise ValueError(f"expected {2 * rows * cols} parameters, got {p.size}")
    half = rows * cols
    return (p[:half] + 1j * p[half:]).reshape(rows, cols)


def _complex_stack(p: np.ndarray, count: int, rows: int, cols: int) -> np.ndarray:
    """`count` complex matrices from consecutive `complex_from_params` blocks."""
    p = np.asarray(p, dtype=float).reshape(count, 2, rows, cols)
    return p[:, 0] + 1j * p[:, 1]
