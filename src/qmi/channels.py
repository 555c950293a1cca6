"""Completely positive trace-preserving maps in Kraus and Stinespring form.

The factory covers the zoo used throughout: identity, depolarizing
(1-p) rho + p I/d, amplitude damping, phase damping, unitary conjugation,
classical-to-quantum encodings, POVM measurement channels, and classical
channels given by a column-stochastic transition matrix. Classical systems
are embedded as diagonal density operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .operators import (
    PSD_TOL,
    DensityOperator,
    _check_finite,
    as_complex_matrix,
    as_probability,
    hermitian_part,
    is_hermitian,
)

KRAUS_TOL = 1e-9
# `apply_matrix` takes the transfer-matrix product when T has fewer than
# TRANSFER_CROSSOVER * r * (in + out) entries. A swept crossover, not a flop
# count: r small Kraus products each carry a fixed overhead, and a large T is
# streamed from memory on every call. At in = out = 16 the rule is the flop
# count, r (in + out) > in out; smaller channels take T sooner, larger later.
TRANSFER_CROSSOVER = 256
# `uniform_pure_outputs` accepts a transfer matrix within this of a 1 + b |vec I><vec I|.
UNIFORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map rho -> sum_i K_i rho K_i^dag.

    The operators are stored once, as the read-only stack `stack` of shape
    (r, out, in); `ops` holds views of its rows. A wide channel also caches
    its transfer matrix `transfer` on first use, and every channel caches
    `uniform_pure_outputs` on first use.
    """

    ops: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.ops:
            raise ValueError("a channel needs at least one Kraus operator")
        mats = []
        for k in self.ops:
            a = as_complex_matrix(k, "Kraus operator")
            if 0 in a.shape:
                raise ValueError(f"Kraus operator has a zero dimension, shape {a.shape}")
            _check_finite(a, "Kraus operator")
            if mats and a.shape != mats[0].shape:
                raise ValueError(f"inconsistent Kraus shapes {a.shape} vs {mats[0].shape}")
            mats.append(a)
        stack = np.array(mats)
        stack.setflags(write=False)
        v = stack.reshape(-1, stack.shape[2])  # the dilation isometry: V^dag V = sum K^dag K
        if np.max(np.abs(v.conj().T @ v - np.eye(stack.shape[2]))) > KRAUS_TOL:
            raise ValueError("Kraus operators do not satisfy sum K^dag K = I within 1e-9")
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "ops", tuple(stack))

    @property
    def in_dim(self) -> int:
        return self.stack.shape[2]

    @property
    def out_dim(self) -> int:
        return self.stack.shape[1]

    @property
    def wide(self) -> bool:
        """Whether `apply_matrix` takes the transfer-matrix product: when T,
        (in out)^2 entries, is below TRANSFER_CROSSOVER * r * (in + out)."""
        n_ops, d_out, d_in = self.stack.shape
        return (d_in * d_out) ** 2 < TRANSFER_CROSSOVER * n_ops * (d_in + d_out)

    @cached_property
    def transfer(self) -> np.ndarray:
        """T = sum_r K_r (x) conj(K_r), read-only (out^2, in^2): the row-major
        vec of ch(m) is T vec(m). Built on first use."""
        n_ops, d_out, d_in = self.stack.shape
        t = np.einsum("rai,rbj->abij", self.stack, self.stack.conj()).reshape(d_out * d_out, d_in * d_in)
        t.setflags(write=False)
        return t

    @cached_property
    def uniform_pure_outputs(self) -> bool:
        """Whether S(ch(|v><v|)) is certified to be the same for every unit v,
        so that every Schatten decomposition of a state has one mutual
        entropy. Read from the Kraus operators alone: True for one operator
        (an isometry: pure inputs give pure outputs), and for a wide channel
        with in = out whose transfer matrix is a 1 + b |vec I><vec I| within
        UNIFORM_TOL, that is ch(m) = a m + b tr(m) I and
        ch(|v><v|) = a |v><v| + b I (the depolarizing form). Every other
        channel is False without building anything."""
        n_ops, d_out, d_in = self.stack.shape
        if n_ops == 1:
            return True
        if d_in != d_out or not self.wide:
            return False
        t = self.transfer
        b = t[0, -1]  # the entry from |d-1><d-1| to |0><0|: off T's diagonal for d >= 2, so b alone
        vec_eye = np.eye(d_in).reshape(-1)
        form = (t[0, 0] - b) * np.eye(d_in * d_in) + b * np.outer(vec_eye, vec_eye)
        return bool(np.max(np.abs(t - form)) <= UNIFORM_TOL)


def apply_matrix(ch: KrausChannel, m: np.ndarray) -> np.ndarray:
    """Channel action on a raw matrix, or on each of a stack (..., d, d)
    (no state validation).

    A wide channel (`KrausChannel.wide`) applies its cached transfer matrix
    to the row-major vec of each matrix, in one stacked product; it agrees
    with the per-operator loop `out += K_r @ m @ K_r^dag` to rounding.
    Otherwise the terms K_r m K_r^dag are formed as one stacked product and
    added to a zero start in operator order, so the result equals that loop
    bit for bit. The sum reduces the Kraus axis of the terms viewed as real
    pairs, which keeps that axis out of numpy's pairwise inner loop even
    when out_dim is 1.
    """
    if ch.wide:
        lead, d_out = m.shape[:-2], ch.out_dim
        # One row vector per matrix, so each matrix's product is its own, bit
        # for bit, whatever the stack: one matrix product over the stack
        # would round a row differently with the number of rows.
        return (m.reshape(*lead, 1, -1) @ ch.transfer.T).reshape(*lead, d_out, d_out)
    terms = ch.stack @ m[..., None, :, :] @ ch.stack.conj().swapaxes(-1, -2)
    terms[..., 0, :, :] += 0.0  # the loop's zero start
    return terms.view(float).sum(axis=-3).view(complex)


def apply(ch: KrausChannel, rho):
    """Apply the channel; a DensityOperator input yields a DensityOperator."""
    m = as_complex_matrix(rho, "rho")
    if m.shape != (ch.in_dim, ch.in_dim):
        raise ValueError(f"state dim {m.shape[0]} does not match channel input {ch.in_dim}")
    out = apply_matrix(ch, m)
    if isinstance(rho, DensityOperator):
        return DensityOperator(out)
    return out


@dataclass(frozen=True, eq=False)
class StinespringIsometry:
    """Isometry V: in -> noise (x) out with the channel tr_noise(V rho V^dag)."""

    matrix: np.ndarray
    out_dim: int

    def __post_init__(self):
        a = as_complex_matrix(self.matrix, "isometry")
        rows, cols = a.shape
        if self.out_dim <= 0 or rows % self.out_dim:
            raise ValueError(f"rows {rows} not divisible by out_dim {self.out_dim}")
        _check_finite(a, "isometry")
        if np.max(np.abs(a.conj().T @ a - np.eye(cols))) > KRAUS_TOL:
            raise ValueError("not an isometry: V^dag V != I within 1e-9")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def noise_dim(self) -> int:
        return self.matrix.shape[0] // self.out_dim


def stinespring_apply(st: StinespringIsometry, rho):
    """tr_noise(V rho V^dag); the noise factor comes first in the dilation."""
    m = as_complex_matrix(rho, "rho")
    if m.shape != (st.in_dim, st.in_dim):
        raise ValueError(f"state dim {m.shape[0]} does not match isometry input {st.in_dim}")
    big = st.matrix @ m @ st.matrix.conj().T
    t = big.reshape(st.noise_dim, st.out_dim, st.noise_dim, st.out_dim)
    out = np.einsum("kikj->ij", t)
    if isinstance(rho, DensityOperator):
        return DensityOperator(out)
    return out


def stinespring_to_kraus(st: StinespringIsometry) -> KrausChannel:
    """K_i = (<i| (x) I_out) V, one operator per noise basis vector."""
    d = st.out_dim
    ops = [st.matrix[i * d : (i + 1) * d, :] for i in range(st.noise_dim)]
    return KrausChannel(tuple(ops))


def kraus_to_stinespring(ch: KrausChannel) -> StinespringIsometry:
    """Stack the Kraus operators into the canonical dilation isometry."""
    return StinespringIsometry(ch.stack.reshape(-1, ch.in_dim), out_dim=ch.out_dim)


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """sum_{ij} |i><j| (x) ch(|i><j|); PSD exactly when the map is CP."""
    vecs = ch.stack.swapaxes(1, 2).reshape(len(ch.stack), -1)  # per K: |i> (x) K|i> over the input basis
    return vecs.T @ vecs.conj()


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """The composition outer after inner."""
    if inner.out_dim != outer.in_dim:
        raise ValueError(
            f"cannot compose: inner output {inner.out_dim} vs outer input {outer.in_dim}"
        )
    ops = []
    for a in outer.ops:
        for b in inner.ops:
            k = a @ b
            if np.max(np.abs(k)) > 1e-14:
                ops.append(k)
    return KrausChannel(tuple(ops))


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operator-valued measure: effects summing to the identity."""

    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.effects:
            raise ValueError("a POVM needs at least one effect")
        mats = []
        dim = None
        for m in self.effects:
            a = as_complex_matrix(m, "effect")
            if a.shape[0] != a.shape[1]:
                raise ValueError(f"effects must be square, got {a.shape}")
            _check_dim(a.shape[0], "POVM")
            if dim is None:
                dim = a.shape[0]
            elif a.shape[0] != dim:
                raise ValueError("effects have inconsistent dimensions")
            _check_finite(a, "effect")
            if not is_hermitian(a):
                raise ValueError("effect is not Hermitian within 1e-10")
            if float(np.min(np.linalg.eigvalsh(hermitian_part(a)))) < -PSD_TOL:
                raise ValueError("effect has an eigenvalue below -1e-10")
            a = a.copy()
            a.setflags(write=False)
            mats.append(a)
        total = sum(mats)
        if np.max(np.abs(total - np.eye(dim))) > KRAUS_TOL:
            raise ValueError("effects do not sum to the identity within 1e-9")
        object.__setattr__(self, "effects", tuple(mats))

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


def projective_povm(dim: int) -> Povm:
    """The standard-basis projective measurement."""
    _check_dim(dim, "POVM")
    eye = np.eye(dim, dtype=complex)
    return Povm(tuple(np.outer(eye[:, j], eye[:, j].conj()) for j in range(dim)))


def _square_root_povm(factors: np.ndarray) -> np.ndarray:
    """Stacked POVM effects W^dag B^dag B W, W = (sum B^dag B)^{-1/2}, from stacked factors B.

    Eigenvalues of sum B^dag B are floored at 1e-10 of the largest, so a
    rank-deficient sum still normalizes; the part of the identity the
    effects then miss is appended as one more effect. One row of
    `_square_root_povm_rows`.
    """
    effects, completed = _square_root_povm_rows(factors[None])
    return effects[0] if completed[0] else effects[0, :-1]


def _square_root_povm_rows(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_square_root_povm` for each row of factors (rows, n, d, d).

    Returns effects of shape (rows, n + 1, d, d) and a mask of the rows
    whose effects needed the completion (residual trace above 1e-12). The
    completion fills the last slot of those rows; the slot of every other
    row is an exact zero block.
    """
    factors_dag = factors.conj().swapaxes(-1, -2)
    s = (factors_dag @ factors).sum(axis=1)
    w, v = np.linalg.eigh(hermitian_part(s))
    floor = np.maximum(1e-10 * np.max(w, axis=-1), 1e-300)
    w = np.clip(w, floor[:, None], None)
    inv_sqrt = ((v * (1.0 / np.sqrt(w))[:, None, :]) @ v.conj().swapaxes(-1, -2))[:, None]
    effects = inv_sqrt @ factors_dag @ factors @ inv_sqrt
    effects = hermitian_part(effects)
    residual = np.eye(s.shape[-1]) - effects.sum(axis=1)
    rw, rv = np.linalg.eigh(hermitian_part(residual))
    rw = np.clip(rw, 0.0, None)
    completed = np.sum(rw, axis=-1) > 1e-12
    completion = np.where(
        completed[:, None, None], (rv * rw[:, None, :]) @ rv.conj().swapaxes(-1, -2), 0.0
    )
    return np.concatenate([effects, completion[:, None]], axis=1), completed


def born_probabilities(povm: Povm, rho) -> np.ndarray:
    """Outcome distribution tr(rho M_j); tiny negative round-off clipped."""
    m = as_complex_matrix(rho, "rho")
    p = np.array([float(np.real(np.trace(m @ e))) for e in povm.effects])
    return np.clip(p, 0.0, None)


def _check_dim(dim: int, what: str = "channel") -> None:
    if dim < 1:
        raise ValueError(f"{what} dimension must be at least 1, got {dim}")


def identity_channel(dim: int) -> KrausChannel:
    _check_dim(dim)
    return KrausChannel((np.eye(dim, dtype=complex),))


def unitary_channel(u) -> KrausChannel:
    a = as_complex_matrix(u, "unitary")
    if np.max(np.abs(a.conj().T @ a - np.eye(a.shape[1]))) > KRAUS_TOL:
        raise ValueError("matrix is not unitary within 1e-9")
    return KrausChannel((a,))


def _shift_clock(dim: int) -> tuple[np.ndarray, np.ndarray]:
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    return shift, clock


def depolarizing_channel(p: float, dim: int) -> KrausChannel:
    """rho -> (1-p) rho + p I/dim, via the shift/clock unitary basis."""
    _check_dim(dim)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    if p == 0.0:
        return identity_channel(dim)
    shift, clock = _shift_clock(dim)
    ops = [np.sqrt(1.0 - p + p / dim**2) * np.eye(dim, dtype=complex)]
    coeff = np.sqrt(p) / dim
    for a in range(dim):
        for b in range(dim):
            if a == 0 and b == 0:
                continue
            ops.append(
                coeff
                * np.linalg.matrix_power(shift, a)
                @ np.linalg.matrix_power(clock, b)
            )
    return KrausChannel(tuple(ops))


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping parameter {gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1))


def phase_damping_channel(lam: float) -> KrausChannel:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"damping parameter {lam} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - lam)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(lam)]], dtype=complex)
    return KrausChannel((k0, k1))


def cq_channel(states) -> KrausChannel:
    """Classical-to-quantum encoding |k><k| -> sigma_k.

    The input is read out in the standard basis (off-diagonal terms are
    dropped), so the map is CPTP on the full input algebra.
    """
    sigmas = [as_complex_matrix(s, "sigma") for s in states]
    if not sigmas:
        raise ValueError("cq channel needs at least one output state")
    d_in = len(sigmas)
    ops = []
    for k, sig in enumerate(sigmas):
        w, v = np.linalg.eigh(hermitian_part(sig))
        bra = np.zeros((1, d_in), dtype=complex)
        bra[0, k] = 1.0
        for lam, vec in zip(w, v.T):
            if lam > 1e-14:
                ops.append(np.sqrt(lam) * np.outer(vec, bra))
    return KrausChannel(tuple(ops))


def measurement_channel(povm: Povm) -> KrausChannel:
    """sigma -> diag(tr sigma M_j): measurement outcomes as a classical state."""
    n = povm.n_outcomes
    ops = []
    for j, effect in enumerate(povm.effects):
        w, v = np.linalg.eigh(hermitian_part(effect))
        ket = np.zeros((n, 1), dtype=complex)
        ket[j, 0] = 1.0
        for lam, vec in zip(w, v.T):
            if lam > 1e-14:
                ops.append(np.sqrt(lam) * ket @ vec.conj()[None, :])
    return KrausChannel(tuple(ops))


def classical_channel(transition) -> KrausChannel:
    """Classical channel from a column-stochastic matrix T[j, k] = P(j | k).

    Acts as the stochastic map on diagonal states and erases coherences.
    """
    t = np.asarray(transition, dtype=float)
    if t.ndim != 2:
        raise ValueError("transition matrix must be 2-dimensional")
    d_out, d_in = t.shape
    _check_dim(d_in, "classical channel input")
    _check_dim(d_out, "classical channel output")
    if np.min(t) < -1e-12:
        raise ValueError("transition probabilities must be nonnegative")
    for k in range(t.shape[1]):
        as_probability(t[:, k])
    ops = []
    for j in range(d_out):
        for k in range(d_in):
            if t[j, k] > 1e-15:
                op = np.zeros((d_out, d_in), dtype=complex)
                op[j, k] = np.sqrt(t[j, k])
                ops.append(op)
    return KrausChannel(tuple(ops))


def make_channel(kind: str, **params) -> KrausChannel:
    """Channel factory covering the standard zoo; see the named constructors ("kraus" takes `ops`)."""
    builders = {
        "kraus": lambda: KrausChannel(tuple(params["ops"])),
        "identity": lambda: identity_channel(int(params["dim"])),
        "depolarizing": lambda: depolarizing_channel(float(params["p"]), int(params["dim"])),
        "amplitude_damping": lambda: amplitude_damping_channel(float(params["gamma"])),
        "phase_damping": lambda: phase_damping_channel(float(params["lam"])),
        "unitary": lambda: unitary_channel(params["u"]),
        "cq": lambda: cq_channel(params["states"]),
        "measure": lambda: measurement_channel(params["povm"]),
        "classical": lambda: classical_channel(params["transition"]),
    }
    if kind not in builders:
        raise ValueError(f"unknown channel kind {kind!r}")
    return builders[kind]()
