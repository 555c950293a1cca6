"""The four benchmark workloads: seeded inputs, the solves and their checks.

A workload is a fixed list of operations, one round. Each operation is one
top-level public `qmi` call (or one `qmi` process, in `cli_cold`) on inputs
drawn here from the workload seed; `qmi` sees only those inputs. Every
round repeats the same operations on the same inputs, so a run that
attempts whole rounds fails the same share of operations on every seed.

Each check compares a result with `oracle` (numpy only) or with a property
the method must have, never with a stored copy of an earlier result.
Solves are looked up through their module (`qmi.mutual.ohya_mutual_entropy`)
at call time, so the traced run sees them through its wrappers.

Round sizes are 15, 21, 15 and 6 solves. The benchmark times each
operation by its median over the rounds, so one slow round does not move
a figure and the percentiles fall on the same operations whatever the
number of rounds a run completes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qmi
import qmi.capacity
import qmi.entanglement
import qmi.mutual

import oracle

UPPER_TOL = 1e-8  # excess allowed over an upper bound
EXACT_TOL = 1e-9  # difference allowed from a closed form that both sides evaluate directly
SEARCH_TOL = 1e-6  # shortfall allowed below a closed-form value that a budgeted search must reach

# Search budgets follow the package's own tests: 2 restarts of 40 evaluations,
# raised only where a search has more parameters than that, so that every
# Nelder-Mead descent can at least build its first simplex (n_params + 1
# evaluations). Nested searches take the package's child budgets (2 x 60 at least).
RESTARTS, MAX_EVALS = 2, 40

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Op:
    """One solve: `run` calls `qmi`, `check(out, peers)` lists what is wrong.

    `peers` maps each label of the round to that operation's output (None
    when it failed), for checks that relate two solves of one round.
    """

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], list]
    evals: Callable[[Any], float] = lambda out: 0
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    ops: list
    cli: "CliRunner | None" = None


# -- seeded inputs -------------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed % 2**63, spawn_key=(stream,)))


def _unitary(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    phases = np.diagonal(r)
    return q * (phases / np.abs(phases))


def _spectrum(rng, multiplicities) -> np.ndarray:
    """Descending eigenvalues with the given multiplicities; distinct levels
    differ by at least 0.5 before normalization, far above the 1e-8
    degeneracy tolerance."""
    levels = np.arange(len(multiplicities), 0, -1) + rng.uniform(0.0, 0.5, len(multiplicities))
    w = np.repeat(levels, multiplicities)
    return w / w.sum()


def _state(rng, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    u = _unitary(rng, w.size)
    m = (u * w) @ u.conj().T
    return (m + m.conj().T) / 2


def _kraus(rng, d: int, n_ops: int) -> list:
    """Kraus operators of a random channel, cut from a random isometry."""
    a = rng.normal(size=(n_ops * d, d)) + 1j * rng.normal(size=(n_ops * d, d))
    q, _ = np.linalg.qr(a)
    return [q[i * d : (i + 1) * d, :] for i in range(n_ops)]


def _budget(rng, max_evals: int = MAX_EVALS) -> qmi.SearchBudget:
    return qmi.SearchBudget(
        restarts=RESTARTS, max_evals=max_evals, seed=int(rng.integers(1, 2**31))
    )


def _depolarizing_kraus(p: float, d: int) -> list:
    """Kraus form of rho -> (1-p) rho + p I/d built here from the Weyl basis."""
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ops = []
    for a in range(d):
        for b in range(d):
            weight = 1.0 - p + p / d**2 if a == b == 0 else p / d**2
            ops.append(math.sqrt(weight) * np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return ops


def _symmetric_transition(eps: float, d: int) -> np.ndarray:
    return np.full((d, d), eps / (d - 1)) + np.eye(d) * (1.0 - eps - eps / (d - 1))


# -- check helpers -------------------------------------------------------------


def _bounded(name: str, value, lo: float, hi: float) -> list:
    problems = []
    if not value >= lo:
        problems.append(f"{name} = {value!r} is below {lo!r}")
    if not value <= hi:
        problems.append(f"{name} = {value!r} is above {hi!r}")
    return problems


def _close(name: str, value, target: float, tol: float = EXACT_TOL) -> list:
    return _bounded(name, value, target - tol, target + tol)


def _output_entropy_bound(rho, ops) -> float:
    """min(S(rho), S(L rho)): the Ohya bound on the mutual entropy."""
    return min(oracle.entropy(rho), oracle.entropy(oracle.apply_kraus(ops, rho)))


def _check_decomposition(rho, ops, dec, value) -> list:
    """The reported Schatten decomposition rebuilds rho and attains the value."""
    v = np.asarray(dec.vectors)
    w = np.asarray(dec.weights)
    problems = []
    if np.max(np.abs((v * w) @ v.conj().T - rho)) > 1e-8:
        problems.append("decomposition does not rebuild the state")
    if np.max(np.abs(v.conj().T @ v - np.eye(w.size))) > 1e-8:
        problems.append("decomposition vectors are not orthonormal")
    projectors = [np.outer(v[:, k], v[:, k].conj()) for k in range(w.size)]
    return problems + _close("decomposition value", value, oracle.holevo(w, projectors, ops))


# -- ohya_sweep -------------------------------------------------------------------


def ohya_sweep(seed: int) -> Workload:
    """Ohya and pseudo mutual entropies at fixed states.

    Nondegenerate states at d = 2, 4, 8, 16 through a depolarizing and a
    random two-operator channel take the no-search, dual-route path (the
    d = 16 compound is 256 x 256). Degenerate states at d = 3..6 take the
    Schatten search; one of them also runs the pseudo search.
    """
    rng = _rng(seed, 1)
    ops = []
    mutual = qmi.mutual
    shapes = [(d, "depolarizing", (1,) * d) for d in (2, 4, 8, 16)]
    shapes += [(d, "random", (1,) * d) for d in (2, 4, 8, 16)]
    shapes += [(3, "random", (2, 1)), (4, "random", (2, 1, 1)), (5, "random", (2, 2, 1)),
               (6, "random", (3, 2, 1)), (3, "depolarizing", (2, 1)), (4, "depolarizing", (2, 1, 1))]
    degenerate_random = {}
    for d, kind, mults in shapes:
        rho = _state(rng, _spectrum(rng, mults))
        if kind == "depolarizing":
            p = float(rng.uniform(0.1, 0.5))
            kraus = _depolarizing_kraus(p, d)
            channel = qmi.depolarizing_channel(p, d)
        else:
            kraus = _kraus(rng, d, 2)
            channel = qmi.KrausChannel(tuple(kraus))
        state = qmi.DensityOperator(rho)
        budget = _budget(rng)
        nondegenerate = len(mults) == d
        label = f"ohya d={d} {kind} {'nondegenerate' if nondegenerate else 'degenerate'}"

        def check(out, peers, rho=rho, kraus=kraus, exact=nondegenerate or kind == "depolarizing", seen={}):
            # Rounds repeat the same solve; a d = 16 oracle costs milliseconds, so
            # an output identical to one already checked reuses its verdict.
            dec = out.decomposition
            key = (out.value, dec.weights.tobytes(), dec.vectors.tobytes())
            if key not in seen:
                bound = _output_entropy_bound(rho, kraus)
                problems = _bounded("I", out.value, -UPPER_TOL, bound + UPPER_TOL)
                problems += _check_decomposition(rho, kraus, dec, out.value)
                if exact:
                    # Unique decomposition, or every decomposition has the same value.
                    problems += _close("I", out.value, oracle.mutual_nondegenerate(rho, kraus))
                seen[key] = problems
            return seen[key]

        ops.append(Op(
            "ohya_mutual_entropy", label,
            lambda state=state, channel=channel, budget=budget: mutual.ohya_mutual_entropy(state, channel, budget),
            check, evals=lambda out: out.evals,
        ))
        if kind == "random" and mults == (2, 1):
            degenerate_random = dict(rho=rho, kraus=kraus, state=state, channel=channel, ohya=label)

    g = degenerate_random
    budget = _budget(rng)  # 36 parameters: 2 components of a free 3 x 3 factor
    baseline = {}

    def check_pseudo(out, peers, rho=g["rho"], kraus=g["kraus"]):
        problems = _bounded("pseudo", out.value, -UPPER_TOL, _output_entropy_bound(rho, kraus) + UPPER_TOL)
        # The orthogonal value the pseudo search starts from: the Ohya search of
        # the same state on the budget's child 0. Deterministic, and run here,
        # after the timed pass.
        if "value" not in baseline:
            baseline["value"] = mutual.ohya_mutual_entropy(g["state"], g["channel"], budget.child(0)).value
        if not out.value >= baseline["value"] - UPPER_TOL:
            problems.append(f"pseudo {out.value!r} below the orthogonal value {baseline['value']!r}")
        lam = np.asarray(out.weights)
        split = sum(l * np.asarray(c) for l, c in zip(lam, out.components))
        if np.max(np.abs(split - rho)) > 1e-8:
            problems.append("pseudo components do not rebuild the state")
        return problems + _close("pseudo split value", out.value, oracle.holevo(lam, out.components, kraus))

    ops.append(Op(
        "pseudo_mutual_entropy", "pseudo d=3 random degenerate",
        lambda: mutual.pseudo_mutual_entropy(g["state"], g["channel"], 2, budget),
        check_pseudo, evals=lambda out: out.evals,
    ))
    return Workload("ohya_sweep", ops)


# -- capacity_chain -----------------------------------------------------------------


def capacity_chain(seed: int) -> Workload:
    """Quantum, pseudo and cqc capacities on qubit and qutrit channels.

    Five channels, each with its quantum capacity and the three cqc modes
    (basis coding, computational-basis decoding), plus the pseudo capacity
    of the qubit depolarizing channel: 21 solves.
    """
    rng = _rng(seed, 2)
    cap = qmi.capacity
    p2, gamma, lam = (float(rng.uniform(a, b)) for a, b in ((0.1, 0.5), (0.1, 0.5), (0.2, 0.8)))
    eps2, p3 = (float(rng.uniform(a, b)) for a, b in ((0.05, 0.3), (0.1, 0.5)))
    ln2 = math.log(2.0)
    # name, channel, dim, quantum-capacity lower bound, cqc lower bound, Holevo capacity
    channels = [
        ("qubit depolarizing", qmi.depolarizing_channel(p2, 2), 2,
         oracle.qubit_depolarizing_capacity(p2), oracle.symmetric_channel_capacity(p2 / 2, 2),
         oracle.depolarizing_mixed_value(p2, 2)),
        ("qubit amplitude damping", qmi.amplitude_damping_channel(gamma), 2,
         oracle.z_channel_capacity(gamma), oracle.z_channel_capacity(gamma),
         oracle.amplitude_damping_holevo_capacity(gamma)),
        ("qubit phase damping", qmi.phase_damping_channel(lam), 2, ln2, ln2, ln2),
        ("binary symmetric", qmi.classical_channel(_symmetric_transition(eps2, 2)), 2,
         oracle.bsc_capacity(eps2), oracle.bsc_capacity(eps2), oracle.bsc_capacity(eps2)),
        ("qutrit depolarizing", qmi.depolarizing_channel(p3, 3), 3,
         oracle.depolarizing_mixed_value(p3, 3), oracle.symmetric_channel_capacity(2 * p3 / 3, 3),
         oracle.depolarizing_mixed_value(p3, 3)),
    ]
    ops = []
    for name, channel, d, q_lower, cqc_lower, chi in channels:
        upper = min(chi, math.log(d))
        family = qmi.StateFamily("full", d)
        # Qubit capacities take the budget the package's tests give them
        # (2 x 12 for 8 parameters); the qutrit one, with 18 parameters, 2 x 40.
        # The qubit depolarizing quantum capacity is also the first step of the
        # pseudo capacity below, whose inner pseudo searches run 2 x 60 on 16
        # parameters at each of its evaluations.
        budget = _budget(rng, 12 if d == 2 else MAX_EVALS)
        if name == "qubit depolarizing":
            pseudo_budget = budget

        def check_quantum(out, peers, lo=q_lower, hi=upper):
            return _bounded("C", out.value, lo - SEARCH_TOL, hi + UPPER_TOL)

        ops.append(Op(
            "quantum_capacity", f"quantum {name}",
            lambda channel=channel, family=family, budget=budget: cap.quantum_capacity(channel, family, budget),
            check_quantum, evals=lambda out: out.evals,
        ))
        coding = qmi.CodingScheme(tuple(
            qmi.DensityOperator(np.diag(np.eye(d)[k]).astype(complex)) for k in range(d)
        ))
        decoding = qmi.projective_povm(d)
        # "full" frees 2d^2 + d + 2d^3 parameters: 26 on a qubit, 75 on a qutrit.
        full = _budget(rng, MAX_EVALS if d == 2 else 80)
        # Each poorer mode gets the budget its richer peer uses for its own floor
        # (coding on child 4 of full, weights on child 3 of coding), so the
        # chain weights <= coding <= full holds exactly.
        budgets = {"full": full, "coding": full.child(4), "weights": full.child(4).child(3)}
        modes = ("weights", "coding", "full")
        for i, mode in enumerate(modes):
            mode_budget = budgets[mode]

            def check_cqc(out, peers, lo=cqc_lower, hi=upper, name=name, poorer=modes[:i]):
                problems = _bounded("C_cqc", out.value, lo - SEARCH_TOL, hi + UPPER_TOL)
                for other in poorer:
                    below = peers.get(f"cqc {other} {name}")
                    if below is not None and not out.value >= below.value - UPPER_TOL:
                        problems.append(f"cqc chain broken: {other} {below.value!r} > {out.value!r}")
                return problems

            ops.append(Op(
                f"cqc_capacity.{mode}", f"cqc {mode} {name}",
                lambda channel=channel, decoding=decoding, coding=coding, mode=mode, budget=mode_budget:
                    cap.cqc_capacity(channel, decoding, coding, mode, budget),
                check_cqc, evals=lambda out: out.evals,
            ))

    name, channel, d, q_lower, _, chi = channels[0]
    family = qmi.StateFamily("full", d)

    def check_pseudo(out, peers, lo=q_lower, hi=min(chi, math.log(d)), name=name):
        problems = _bounded("C_p", out.value, lo - SEARCH_TOL, hi + UPPER_TOL)
        # pseudo_capacity runs quantum_capacity on its own budget first; the
        # quantum solve of this channel has that same budget, so C <= C_p exactly.
        orthogonal = peers.get(f"quantum {name}")
        if orthogonal is not None and not out.value >= orthogonal.value - UPPER_TOL:
            problems.append(f"pseudo capacity {out.value!r} below quantum {orthogonal.value!r}")
        return problems

    ops.append(Op(
        "pseudo_capacity", f"pseudo {name}",
        lambda: cap.pseudo_capacity(channel, family, 2, pseudo_budget),
        check_pseudo, evals=lambda out: out.evals,
    ))
    return Workload("capacity_chain", ops)


# -- qdc_levels ------------------------------------------------------------------------


def qdc_levels(seed: int) -> Workload:
    """The q/d/c hierarchy at fixed states, and the entanglement constructions.

    `qdc_hierarchy` on nondegenerate and degenerate qubit and qutrit states
    through the identity and a depolarizing channel (8 solves), on the
    rank-deficient diag(0.7, 0.3, 0) through the identity (the known
    failure, independent of the seed), plus two each of
    `standard_entanglement`, `d_compound` and `q_entropy_sup`: 15 solves.
    """
    rng = _rng(seed, 3)
    ent = qmi.entanglement
    ops = []

    def add_qdc(label, rho, channel, kraus, budget, identity, known_fault=False):
        state_rho = qmi.DensityOperator(rho)

        def check(out, peers):
            c, d, q = (out[t].value for t in ("c", "d", "q"))
            s_rho = oracle.entropy(rho)
            bound = _output_entropy_bound(rho, kraus)
            problems = _bounded("c", c, -UPPER_TOL, d + UPPER_TOL)
            problems += _bounded("d", d, c - UPPER_TOL, min(q, bound) + UPPER_TOL)
            problems += _bounded("q", q, d - UPPER_TOL, 2 * bound + UPPER_TOL)
            if identity:
                problems += _bounded("q", q, 2 * s_rho - SEARCH_TOL, 2 * s_rho + UPPER_TOL)
            w = np.linalg.eigvalsh(rho)
            if np.min(np.abs(np.diff(w))) > 1e-6:
                problems += _close("d", d, oracle.mutual_nondegenerate(rho, kraus))
            return problems

        ops.append(Op(
            "qdc_hierarchy", label,
            lambda: ent.qdc_hierarchy(state_rho, channel, budget),
            check, evals=lambda out: sum(r.evals for r in out.values()),
            known_fault=known_fault,
        ))

    for d in (2, 3):
        for degenerate in (False, True):
            mults = ((2,) if d == 2 else (2, 1)) if degenerate else (1,) * d
            rho = _state(rng, _spectrum(rng, mults))
            for kind in ("identity", "depolarizing"):
                if kind == "identity":
                    channel, kraus = qmi.identity_channel(d), [np.eye(d)]
                else:
                    p = float(rng.uniform(0.1, 0.5))
                    channel, kraus = qmi.depolarizing_channel(p, d), _depolarizing_kraus(p, d)
                label = f"qdc d={d} {'degenerate' if degenerate else 'nondegenerate'} {kind}"
                add_qdc(label, rho, channel, kraus, _budget(rng), kind == "identity")

    # Fails on every seed until the reshape in entanglement._candidate_direction
    # and _assemble_direction uses the support size; kept so that the mend shows.
    rank_deficient = np.diag([0.7, 0.3, 0.0]).astype(complex)
    add_qdc("qdc d=3 rank-deficient identity", rank_deficient, qmi.identity_channel(3),
            [np.eye(3)], qmi.SearchBudget(restarts=RESTARTS, max_evals=MAX_EVALS, seed=1), True,
            known_fault=True)

    for d in (2, 3):
        sigma = _state(rng, _spectrum(rng, (1,) * d))
        state = qmi.DensityOperator(sigma)

        def check_standard(out, peers, sigma=sigma, d=d):
            theta = out.compound.theta.matrix
            left, right = oracle.marginals(theta, (d, d))
            problems = []
            if out.entanglement_class.tag != "q":
                problems.append(f"standard entanglement classified {out.entanglement_class.tag!r}")
            if max(np.max(np.abs(left - sigma)), np.max(np.abs(right - sigma))) > 1e-9:
                problems.append("standard entanglement marginals differ from sigma")
            return problems + _close("I(theta)", oracle.bipartite_mutual_information(theta, (d, d)),
                                     oracle.standard_entanglement_value(sigma))

        ops.append(Op("standard_entanglement", f"standard d={d}",
                      lambda state=state: ent.standard_entanglement(state), check_standard))

        budget = _budget(rng)

        def check_sup(out, peers, sigma=sigma):
            target = oracle.standard_entanglement_value(sigma)
            return _bounded("q-entropy", out.value, target - EXACT_TOL, target + UPPER_TOL)

        ops.append(Op("q_entropy_sup", f"q-entropy sup d={d}",
                      lambda state=state, budget=budget: ent.q_entropy_sup(state, budget),
                      check_sup, evals=lambda out: out.evals))

    for commuting in (True, False):
        g, k = 3, 2
        p = rng.dirichlet(np.ones(g)) * 0.7 + 0.1
        shared = _unitary(rng, k)
        omegas = []
        for _ in range(g):
            w = _spectrum(rng, (1,) * k)
            u = shared if commuting else _unitary(rng, k)
            m = (u * w) @ u.conj().T
            omegas.append((m + m.conj().T) / 2)
        expected = "c" if commuting else "d"

        def check_diag(out, peers, p=p, omegas=omegas, expected=expected, g=g, k=k):
            theta = out.compound.theta.matrix
            problems = []
            if out.entanglement_class.tag != expected:
                problems.append(f"d-compound classified {out.entanglement_class.tag!r}, expected {expected!r}")
            holevo = oracle.entropy(sum(a * b for a, b in zip(p, omegas))) - sum(
                a * oracle.entropy(b) for a, b in zip(p, omegas))
            return problems + _close("I(theta)", oracle.bipartite_mutual_information(theta, (g, k)), holevo)

        ops.append(Op("d_compound", f"d-compound {'commuting' if commuting else 'noncommuting'}",
                      lambda p=p, omegas=omegas: ent.d_compound(p, omegas), check_diag))
    return Workload("qdc_levels", ops)


# -- cli_cold ----------------------------------------------------------------------------


class CliRunner:
    """Starts `python -m qmi.cli` the way the tests run `qmi`: from `src/`.

    With a tracer set, it starts `cli_shim.py` instead, which traces the
    child and writes its totals to a file that is merged here.
    """

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.tracer = None
        self.child_spans = []
        self._launches = 0

    def __call__(self, argv) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        if self.tracer is None:
            cmd = [sys.executable, "-m", "qmi.cli", *argv]
        else:
            self._launches += 1
            spans_file = self.work / f"child-{self._launches}.json"
            env["BENCH_TRACE_OUT"] = str(spans_file)
            env["BENCH_SPAWN_T"] = repr(time.time())
            cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, timeout=120)
        if self.tracer is not None and spans_file.exists():
            snapshot = json.loads(spans_file.read_text())
            spans_file.unlink()
            self.tracer.merge(snapshot)
            if len(self.child_spans) < 64:
                self.child_spans.append((snapshot["pid"], snapshot["spans"]))
        return proc


def _matrix_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def cli_cold(seed: int, root: Path, work: Path) -> Workload:
    """Sequential cold `qmi` processes over six configs written from the seed."""
    rng = _rng(seed, 4)
    runner = CliRunner(root, work)
    config_dir = work / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    cli_seed = int(rng.integers(1, 2**31))
    reference: dict = {}

    rho4 = _state(rng, _spectrum(rng, (1,) * 4))
    rho3, sigma3 = (_state(rng, _spectrum(rng, (1,) * 3)) for _ in range(2))
    mutual_rho = _state(rng, _spectrum(rng, (1,) * 3))
    mutual_kraus = _kraus(rng, 3, 2)
    holevo_kraus = _kraus(rng, 2, 2)
    pure = [_unitary(rng, 2)[:, 0] for _ in range(2)]
    pure_states = [np.outer(v, v.conj()) for v in pure]
    holevo_w = float(rng.uniform(0.2, 0.8))
    ent_sigma = _state(rng, _spectrum(rng, (1,) * 3))
    p_cap = float(rng.uniform(0.1, 0.5))
    kraus_json = lambda ops: {"kind": "kraus", "ops": [_matrix_json(k) for k in ops]}

    configs = {
        "entropy": {"state": _matrix_json(rho4)},
        "relent": {"state": _matrix_json(rho3), "reference": _matrix_json(sigma3)},
        "holevo": {"weights": [holevo_w, 1.0 - holevo_w],
                   "states": [_matrix_json(s) for s in pure_states],
                   "channel": kraus_json(holevo_kraus)},
        "mutual": {"state": _matrix_json(mutual_rho), "channel": kraus_json(mutual_kraus),
                   "budget": {"restarts": RESTARTS, "max_evals": MAX_EVALS}},
        "entangle": {"construct": {"kind": "standard", "sigma": _matrix_json(ent_sigma)}},
        "capacity": {"channel": {"kind": "depolarizing", "p": p_cap, "dim": 2},
                     "family": {"kind": "full"}, "budget": {"restarts": RESTARTS, "max_evals": MAX_EVALS}},
    }
    expect = {
        "entropy": lambda r: _close("S", r["nats"], oracle.entropy(rho4)),
        "relent": lambda r: _close("S(rho, sigma)", r["nats"], oracle.relative_entropy(rho3, sigma3)),
        "holevo": lambda r: _close("chi", r["nats"], oracle.holevo([holevo_w, 1 - holevo_w], pure_states, holevo_kraus)),
        "mutual": lambda r: _close("I", r["nats"], oracle.mutual_nondegenerate(mutual_rho, mutual_kraus)),
        "entangle": lambda r: (
            _close("I", r["mutual"]["nats"], oracle.standard_entanglement_value(ent_sigma))
            + _close("degree", r["degree"]["nats"], -oracle.entropy(ent_sigma))
            + ([] if r["class"] == "q" else [f"class {r['class']!r}, expected 'q'"])
        ),
        "capacity": lambda r: _bounded(
            "C", r["nats"], oracle.qubit_depolarizing_capacity(p_cap) - SEARCH_TOL,
            min(oracle.depolarizing_mixed_value(p_cap, 2), math.log(2)) + UPPER_TOL),
    }

    ops = []
    for command, config in configs.items():
        path = config_dir / f"{command}.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--seed", str(cli_seed)]

        def check(out, peers, command=command):
            if out.returncode != 0:
                return [f"exit code {out.returncode}: {out.stderr.decode(errors='replace').strip()}"]
            first = reference.setdefault(command, out.stdout)
            problems = [] if out.stdout == first else ["report differs from an earlier run of the same config"]
            return problems + expect[command](json.loads(out.stdout)["results"])

        ops.append(Op(f"cli.{command}", f"qmi {command}", lambda argv=argv: runner(argv), check,
                      evals=lambda out: _report_evals(out.stdout)))
    return Workload("cli_cold", ops, cli=runner)


def _report_evals(stdout: bytes) -> float:
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError):
        return 0
    return results.get("evals", 0) if isinstance(results, dict) else 0


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    if name == "cli_cold":
        return cli_cold(seed, root, work)
    return {"ohya_sweep": ohya_sweep, "capacity_chain": capacity_chain, "qdc_levels": qdc_levels}[name](seed)
