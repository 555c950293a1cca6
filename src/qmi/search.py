"""Shared multi-restart derivative-free maximization.

Every supremum in the package (Schatten searches, capacity searches,
entanglement searches) runs through `maximize`: Nelder-Mead local descents
from seeded random starts, reduced by max. Restart seeds derive from the
budget's master seed by counter, so results are reproducible and independent
of the worker count (QMI_THREADS).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

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

    def child(self, tag: int, restarts: int | None = None, max_evals: int | None = None):
        """Derived budget for a nested search, deterministic in (seed, tag)."""
        return replace(
            self,
            seed=int(np.random.SeedSequence(self.seed, spawn_key=(tag,)).generate_state(1)[0]),
            restarts=restarts if restarts is not None else max(2, self.restarts // 8),
            max_evals=max_evals if max_evals is not None else max(60, self.max_evals // 4),
        )


@dataclass(frozen=True)
class SearchResult:
    value: float
    params: np.ndarray
    converged: bool
    evals: int


def _workers(n_tasks: int) -> int:
    try:
        w = int(os.environ.get("QMI_THREADS", "1"))
    except ValueError:
        w = 1
    return max(1, min(w, n_tasks))


def maximize(
    objective,
    n_params: int,
    budget: SearchBudget,
    starts=(),
    scale: float = 1.0,
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

    def run_restart(k: int):
        best = {"value": -math.inf, "params": None, "evals": 0}

        def neg(x):
            best["evals"] += 1
            v = float(objective(x))
            if math.isfinite(v) and v > best["value"]:
                best["value"] = v
                best["params"] = np.array(x, dtype=float)
            return -v if math.isfinite(v) else _REJECTED

        if k < len(starts):
            x0 = starts[k]
        else:
            rng = np.random.default_rng(np.random.SeedSequence(budget.seed, spawn_key=(k,)))
            x0 = rng.normal(size=n_params) * scale
        res = optimize.minimize(
            neg,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": budget.max_evals,
                "xatol": 1e-8,
                "fatol": max(budget.tol * 0.1, 1e-12),
            },
        )
        return best["value"], best["params"], bool(res.success), best["evals"]

    workers = _workers(n_restarts)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_restart, range(n_restarts)))
    else:
        outcomes = [run_restart(k) for k in range(n_restarts)]

    value, params, converged, evals = -math.inf, np.zeros(n_params), False, 0
    for v, x, ok, n in outcomes:
        evals += n
        converged = converged or ok
        if x is not None and v > value:
            value, params = v, x
    return SearchResult(value=value, params=params, converged=converged, evals=evals)


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
