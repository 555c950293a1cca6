"""Bipartite compound states, entangling operators, and the q/d/c hierarchy.

A bipartite state over G (x) K is generated by a family of amplitudes
kappa_n in F (x) K indexed by an orthonormal basis |n> of G: the blocks
tr_F kappa_n kappa_m^dag reassemble the state, and the induced maps phi
and phi_star carry observables between the two sides. Compound states are
classified by their block structure in the eigenbasis of the G-marginal:
off-diagonal blocks present (q), diagonal with non-commuting output blocks
(d), diagonal with commuting output blocks (c).

The entangled mutual entropy of a compound state is its relative entropy
against the product of its own marginals. Maximizing it at a fixed output
marginal gives the q-entropy, which for a full matrix algebra equals twice
the von Neumann entropy and is attained by the standard (purification)
entanglement. Class-constrained suprema at a fixed input state and channel
recover the ordering c <= d <= q; the diagonal class reproduces the
decomposition supremum of the mutual-entropy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import CapacityReport, StateFamily, _quantum_search
from .channels import KrausChannel, apply_matrix
from .entropy import _entropy_rows, product_relative_entropy, von_neumann_entropy
from .mutual import (
    DUAL_ROUTE_TOL,
    CompoundState,
    _compound_matrix,
    _images,
    _ohya_at,
    _transmitted,
    mutual_entropy_fixed,
)
from .operators import (
    MAX_DIM,
    NORMALIZATION_TOL,
    ORTHONORMAL_TOL,
    ZERO_TOL,
    ConsistencyError,
    DensityOperator,
    SchattenDecomposition,
    _check_finite,
    _eigh_descending,
    _fix_phases,
    _upper_indices,
    as_complex_matrix,
    as_probability,
    eigenbasis,
    hermitian_part,
    partial_trace,
    purify,
)
from .search import SearchBudget, maximize_batch

# The q/d/c resolution: an off-diagonal block above CLASS_TOL makes a compound
# q, and blocks whose commutation defect is at most CLASS_TOL commute (c).
CLASS_TOL = 1e-8
PSD_STEP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EntanglingOperator:
    """Amplitudes kappa_n in F (x) K over an orthonormal G-basis.

    vectors[n] is kappa_n as an (f_dim, k_dim) matrix; basis columns are
    the G-basis vectors |n> in computational coordinates. Total amplitude
    normalization sum_n ||kappa_n||^2 = 1 is enforced.
    """

    vectors: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        u = np.asarray(self.basis, dtype=complex)
        if v.ndim != 3:
            raise ValueError("vectors must be a (g, f, k) array")
        g = v.shape[0]
        if u.shape != (g, g):
            raise ValueError(f"basis shape {u.shape} does not match g_dim {g}")
        _check_finite(v, "amplitudes")
        _check_finite(u, "basis")
        if np.max(np.abs(u.conj().T @ u - np.eye(g))) > ORTHONORMAL_TOL:
            raise ValueError("basis columns are not orthonormal")
        total = float(np.sum(np.abs(v) ** 2))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"amplitude normalization {total} is not 1")
        v = v.copy()
        u = u.copy()
        v.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "basis", u)

    @property
    def g_dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def f_dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def k_dim(self) -> int:
        return self.vectors.shape[2]

    @property
    def weights(self) -> np.ndarray:
        """||kappa_n||^2, the G-marginal eigenvalues for an eigenbasis build."""
        return np.sum(np.abs(self.vectors) ** 2, axis=(1, 2))

    def gram(self) -> np.ndarray:
        """Overlap matrix <kappa_m, kappa_n>."""
        return np.einsum("mfk,nfk->mn", self.vectors.conj(), self.vectors)

    def block(self, n: int, m: int) -> np.ndarray:
        """tr_F kappa_n kappa_m^dag, the (n, m) block of the compound state."""
        return self.vectors[n].T @ self.vectors[m].conj()

    def reconstruct(self) -> np.ndarray:
        """Reassemble the compound state from the blocks (computational coords)."""
        g, _, k = self.vectors.shape
        t = np.einsum("nfa,mfb->namb", self.vectors, self.vectors.conj())
        theta_basis = t.reshape(g * k, g * k)
        w = np.kron(self.basis, np.eye(k))
        return w @ theta_basis @ w.conj().T


@dataclass(frozen=True)
class EntanglementClass:
    """Block-structure classification with its two diagnostics."""

    tag: str
    off_diag_norm: float
    max_commutator: float

    def __post_init__(self):
        if self.tag not in ("q", "d", "c"):
            raise ValueError(f"unknown class tag {self.tag!r}")


@dataclass(frozen=True, eq=False)
class EntangledCompound:
    """A compound state with its classification and optional amplitude family."""

    compound: CompoundState
    entanglement_class: EntanglementClass
    kappa: EntanglingOperator | None = None


def entangling_from_state(
    theta, dims: tuple[int, int], basis: np.ndarray | None = None
) -> EntanglingOperator:
    """Amplitude family of a bipartite state via purification.

    The ancilla dimension is the numerical rank of theta; kappa_n collects
    the purification components along |n>, by default the eigenbasis of the
    G-marginal. Any other orthonormal basis may be forced for diagnostics;
    the weak-orthogonality property is specific to the eigenbasis. A state
    with empty support raises ValueError, as `purify` does.
    """
    t = as_complex_matrix(theta, "theta")
    d_g, d_k = dims
    if t.shape[0] != d_g * d_k:
        raise ValueError(f"joint dimension {t.shape[0]} is not {d_g}*{d_k}")
    if basis is None:
        _, basis = eigenbasis(partial_trace(t, dims, keep=0))
    u = np.asarray(basis, dtype=complex)
    psi, anc = purify(t)
    coeffs = np.einsum("gn,gkf->nkf", u.conj(), psi.reshape(d_g, d_k, anc))
    return EntanglingOperator(vectors=coeffs.transpose(0, 2, 1), basis=u)


def weak_orthogonality_defect(kappa: EntanglingOperator) -> float:
    """Largest off-diagonal overlap |<kappa_m, kappa_n>|, zero for eigenbases."""
    gram = kappa.gram()
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off))) if kappa.g_dim > 1 else 0.0


def strong_orthogonality_defect(kappa: EntanglingOperator, weights, outputs) -> float:
    """Deviation of the blocks from p_n omega_n delta_nm."""
    p = as_probability(weights)
    g, v = kappa.g_dim, kappa.vectors
    if p.size != g or len(outputs) != g:
        raise ValueError(f"{p.size} weights and {len(outputs)} outputs for {g} amplitudes")
    blocks = v.swapaxes(1, 2)[:, None] @ v.conj()[None]  # blocks[n, m] = kappa.block(n, m)
    blocks[range(g), range(g)] -= p[:, None, None] * np.stack([as_complex_matrix(om, "omega") for om in outputs])
    return float(np.max(np.abs(blocks)))


def phi(kappa: EntanglingOperator, a) -> np.ndarray:
    """Observable transport K -> G: the map whose trace pairing against
    G-observables reproduces the compound expectation values."""
    amat = as_complex_matrix(a, "a")
    if amat.shape[0] != kappa.k_dim:
        raise ValueError(f"observable dimension {amat.shape[0]} is not {kappa.k_dim}")
    mat = np.einsum("mfa,ab,nfb->mn", kappa.vectors.conj(), amat, kappa.vectors)
    return kappa.basis @ mat @ kappa.basis.conj().T


def phi_star(kappa: EntanglingOperator, b) -> np.ndarray:
    """Predual transport G -> K: phi_star(I) is the output marginal."""
    bmat = as_complex_matrix(b, "b")
    if bmat.shape[0] != kappa.g_dim:
        raise ValueError(f"observable dimension {bmat.shape[0]} is not {kappa.g_dim}")
    coords = kappa.basis.conj().T @ bmat @ kappa.basis
    return np.einsum("nm,nfa,mfb->ab", coords, kappa.vectors, kappa.vectors.conj())


def _blocks_in_eigenbasis(t: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    d_g, d_k = dims
    _, u = eigenbasis(partial_trace(t, dims, keep=0))
    four = t.reshape(d_g, d_k, d_g, d_k)
    return np.einsum("gn,gahb,hm->nmab", u.conj(), four, u)


def classify_compound(theta, dims: tuple[int, int] | None = None) -> EntanglementClass:
    """Classify a bipartite state by blocks in the G-marginal eigenbasis.

    Any off-diagonal block of Frobenius norm above CLASS_TOL makes the state
    q; otherwise pairwise-commuting diagonal blocks (relative commutator at
    most CLASS_TOL) make it c, and anything else d.
    """
    if isinstance(theta, EntangledCompound):
        theta = theta.compound
    if isinstance(theta, CompoundState):
        dims = (theta.d_g, theta.d_k)
        theta = theta.theta
    if dims is None:
        raise ValueError("dims required for a raw bipartite state")
    t = as_complex_matrix(theta, "theta")
    blocks = _blocks_in_eigenbasis(t, dims)
    off = float(np.max(_frobenius_norms(blocks[_upper_indices(dims[0])]), initial=0.0))
    if off > CLASS_TOL:
        return EntanglementClass(tag="q", off_diag_norm=off, max_commutator=math.nan)
    diag = np.arange(dims[0])
    worst = _commutation_defect(blocks[diag, diag])
    tag = "c" if worst <= CLASS_TOL else "d"
    return EntanglementClass(tag=tag, off_diag_norm=off, max_commutator=worst)


def standard_entanglement(sigma) -> EntangledCompound:
    """The pure compound state of the square-root amplitude, marginals sigma.

    In the eigenbasis pairing the joint vector couples each eigenvector of
    sigma on G with the same eigenvector on K; the mutual entropy then
    doubles the von Neumann entropy of sigma.
    """
    s = sigma if isinstance(sigma, DensityOperator) else DensityOperator(np.asarray(sigma, complex))
    k = s.dim
    w, u = eigenbasis(s.matrix)
    amps = np.sqrt(np.clip(w, 0.0, None))
    columns = u * amps  # column n is amps[n] u_n, the amplitude kappa_n
    psi = (columns @ u.T).reshape(-1)
    theta = np.outer(psi, psi.conj())
    kappa = EntanglingOperator(vectors=columns.T[:, None, :], basis=u)
    compound = CompoundState(
        theta=DensityOperator(theta),
        d_g=k,
        d_k=k,
        input_marginal=s,
        output_marginal=s,
    )
    return EntangledCompound(
        compound=compound,
        entanglement_class=classify_compound(theta, (k, k)),
        kappa=kappa,
    )


def d_compound(p, omegas) -> EntangledCompound:
    """Diagonal compound state sum_n p_n |n><n| (x) omega_n.

    The induced amplitude family lives in disjoint ancilla sectors, one per
    component, which makes the blocks exactly p_n omega_n delta_nm (strong
    orthogonality). Classification distinguishes commuting output families
    (c) from non-commuting ones (d).
    """
    probs = as_probability(p)
    oms = [
        om if isinstance(om, DensityOperator) else DensityOperator(np.asarray(om, complex))
        for om in omegas
    ]
    if len(oms) != probs.size:
        raise ValueError(f"{probs.size} weights but {len(oms)} output states")
    g = probs.size
    k = oms[0].dim
    if any(om.dim != k for om in oms):
        raise ValueError("output states have inconsistent dimensions")
    mats = np.stack([om.matrix for om in oms])
    diag = np.arange(g)
    four = np.zeros((g, k, g, k), dtype=complex)
    four[diag, :, diag, :] = probs[:, None, None] * mats
    theta = four.reshape(g * k, g * k)

    # One ancilla sector per support eigenvector, by component, then eigenbasis order.
    w, u = _eigh_descending(mats)
    comp, col = np.nonzero(w > ZERO_TOL)
    vectors = np.zeros((g, comp.size, k), dtype=complex)
    vectors[comp, np.arange(comp.size)] = np.sqrt(probs[comp] * w[comp, col])[:, None] * _fix_phases(u)[comp, :, col]
    kappa = EntanglingOperator(vectors=vectors, basis=np.eye(g, dtype=complex))
    compound = CompoundState(
        theta=DensityOperator(theta),
        d_g=g,
        d_k=k,
        input_marginal=DensityOperator(np.diag(probs).astype(complex)),
        output_marginal=DensityOperator(sum(pr * om.matrix for pr, om in zip(probs, oms))),
    )
    return EntangledCompound(
        compound=compound,
        entanglement_class=classify_compound(theta, (g, k)),
        kappa=kappa,
    )


def _as_compound(obj) -> CompoundState:
    if isinstance(obj, EntangledCompound):
        return obj.compound
    if isinstance(obj, CompoundState):
        return obj
    raise TypeError("expected an EntangledCompound or CompoundState")


def entangled_mutual_entropy(compound) -> float:
    """Relative entropy of a compound state against the product of its marginals.

    Zero exactly for product states; finite for every valid compound state,
    since the joint support always sits inside the product of the marginal
    supports. An infinite result therefore signals numerical support
    misclassification and raises instead of being returned.
    """
    c = _as_compound(compound)
    value = product_relative_entropy(
        c.theta.matrix, c.input_marginal.matrix, c.output_marginal.matrix
    )
    if math.isinf(value):
        raise ConsistencyError(
            "compound support fell outside the marginal product numerically"
        )
    return value


def _check_compound(theta: np.ndarray, left: DensityOperator, right: DensityOperator, value: float) -> None:
    """Check a search's compound: a state with marginals left and right within
    `mutual.RECONSTRUCTION_TOL`, whose entangled mutual entropy is the search's
    `value` within DUAL_ROUTE_TOL."""
    exact = entangled_mutual_entropy(CompoundState(DensityOperator(theta), left.dim, right.dim, left, right))
    if abs(exact - value) > DUAL_ROUTE_TOL:
        raise ConsistencyError(f"compound search scored {value!r}, its compound has {exact!r}")


def q_entropy_closed_form(blocks) -> float:
    """Block-decomposition entropy sum_i (mu_i ln mu_i - 2 tr sigma_i ln sigma_i).

    `blocks` pairs each central weight mu_i with its normalized block state;
    the formula evaluates the subnormalized blocks (trace mu_i) as written.
    The algebraic identity with H(mu) + 2 sum mu_i S(sigma_i) is asserted
    to 1e-10.
    """
    mus = as_probability([b[0] for b in blocks])
    total = 0.0
    cross = 0.0
    for mu, sig in zip(mus, (b[1] for b in blocks)):
        mat = as_complex_matrix(sig, "sigma")
        w = np.linalg.eigvalsh(hermitian_part(mat))
        if mu > ZERO_TOL:
            # -tr sigma_i ln sigma_i of the subnormalized block is the entropy of its spectrum mu_i w.
            total += mu * math.log(mu) + 2.0 * float(_entropy_rows(mu * w))
            cross += -mu * math.log(mu) + 2.0 * mu * float(_entropy_rows(w))
    if abs(total - cross) > 1e-10:
        raise ConsistencyError(
            f"block-entropy forms disagree: {total!r} vs {cross!r}"
        )
    return total


def q_entropy_sup(sigma, search: SearchBudget | None = None) -> CapacityReport:
    """Supremum of the entangled mutual entropy at fixed output marginal sigma.

    A compound theta with output marginal sigma scores
    I(theta) = S(tr_K theta) + S(sigma) - S(theta). The Araki-Lieb inequality
    S(theta) >= S(tr_K theta) - S(sigma) (Araki & Lieb, Commun. Math. Phys.
    18:160, 1970) gives I(theta) <= 2 S(sigma), and the standard entanglement
    attains it, so the supremum is its value and no search runs: `search` is
    accepted and unused, and the report has evals 0 and converged True. The
    value is cross-checked once against `q_entropy_closed_form` within
    DUAL_ROUTE_TOL.
    """
    standard = standard_entanglement(sigma)
    value = entangled_mutual_entropy(standard)
    closed = q_entropy_closed_form([(1.0, standard.compound.output_marginal)])
    if abs(value - closed) > DUAL_ROUTE_TOL:
        raise ConsistencyError(f"q-entropy routes disagree: {value!r} vs {closed!r}")
    return CapacityReport(
        value=value,
        converged=True,
        evals=0,
        maximizer={"theta": standard.compound.theta.matrix},
        notes={"standard_value": value, "closed_form": closed},
    )


def conditional_and_degree(compound) -> tuple[float, float]:
    """(conditional entropy, degree of disentanglement) of a compound state.

    The conditional entropy subtracts the mutual entropy from the q-entropy
    of the output marginal and stays nonnegative; the degree subtracts it
    from the plain von Neumann entropy and goes negative exactly on the
    strongly (q-) entangled states.
    """
    c = _as_compound(compound)
    value = entangled_mutual_entropy(c)
    h_sigma = q_entropy_closed_form([(1.0, c.output_marginal)])
    return h_sigma - value, von_neumann_entropy(c.output_marginal.matrix) - value


@dataclass(frozen=True, eq=False)
class _DecRecord:
    """One scored Schatten decomposition: its state matrix, support weights
    and the rotated support vectors its search scored."""

    value: float
    commute_defect: float
    rho_mat: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray

    @property
    def key(self) -> tuple[float, float]:
        return (self.value, -self.commute_defect)

    def decomposition(self) -> SchattenDecomposition:
        return SchattenDecomposition(weights=self.weights, vectors=self.vectors)


class _BestCommuting:
    """The best decomposition with commuting outputs that a search offers (c).

    `observe` is an observer of `mutual._ohya_suprema`: it computes the
    commutation defects of each scored batch and offers its commuting rows
    in order, keeping each record's state, weights and vectors. Non-finite
    values are skipped. Records rank by (value, -commute_defect), and a
    record replaces the kept one only when its key is strictly greater, so
    the first maximum in offer order is kept. Offers come in lockstep
    order: an Ohya search offers its starts, then round by round, each
    round's rows by state, then restart, then trial step. A round of family
    members runs the Ohya searches of its support layouts one after
    another, in order of their first member. So when two commuting points
    tie exactly, the record is the one offered first, not necessarily that
    of the earlier restart or member.
    """

    def __init__(self):
        self.record: _DecRecord | None = None

    def observe(self, mats: np.ndarray, weights: np.ndarray, vectors: np.ndarray, outputs: np.ndarray,
                values: np.ndarray):
        for i, (value, defect) in enumerate(zip(values.tolist(), _commutation_defects(outputs).tolist())):
            if not (math.isfinite(value) and defect <= CLASS_TOL):
                continue
            if self.record is None or (value, -defect) > self.record.key:
                self.record = _DecRecord(value, defect, mats[i], weights[i], vectors[i].copy())


def _commutation_defect(outputs) -> float:
    """Largest ||[A, B]|| / (||A|| ||B||) over pairs, skipping norms at most ZERO_TOL."""
    return float(_commutation_defects(np.asarray(outputs)[None])[0])


def _frobenius_norms(mats: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., d, d), as np.linalg.norm
    computes it for one matrix: the square root of the dot products of the
    real and the imaginary parts with themselves, summed."""
    flat = mats.reshape(*mats.shape[:-2], 1, mats.shape[-2] * mats.shape[-1])
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _commutation_defects(outputs: np.ndarray) -> np.ndarray:
    """`_commutation_defect` of each row of stacked outputs (rows, K, d, d)."""
    k = outputs.shape[1]
    first, second = _upper_indices(k)
    a, b = outputs[:, first], outputs[:, second]
    norms = _frobenius_norms(np.concatenate([outputs, a @ b - b @ a], axis=1))
    left, right, comm = norms[:, first], norms[:, second], norms[:, k:]
    counted = (left > ZERO_TOL) & (right > ZERO_TOL)
    ratios = np.divide(comm, left * right, out=np.zeros(comm.shape), where=counted)
    return np.max(ratios, axis=1, initial=0.0)


def _candidate_direction(dec: SchattenDecomposition, ch: KrausChannel) -> np.ndarray | None:
    """The ray from theta_d to theta_ci = (id (x) ch)(|phi><phi|), phi = sum_n sqrt(lambda_n) v_n (x) v_n.

    Its blocks are theta_ci's off-diagonal ones, sqrt(lambda_n lambda_m) ch(|v_n><v_m|), traceless as
    ch preserves the trace; None when they vanish. theta_ci is PSD, so the PSD step is at least 1, and
    its mutual entropy is the coherent information S(rho) + S(ch(rho)) - S(ch^c(rho)) (quant-ph/0106052).
    """
    images = _images(ch.stack, dec.vectors) * np.sqrt(np.clip(dec.weights, 0.0, None))[:, None, None]
    blocks = images[:, None] @ images.conj().swapaxes(-1, -2)[None]
    blocks[range(dec.size), range(dec.size)] = 0.0
    n = len(dec.vectors) * ch.out_dim
    x = np.einsum("xn,nmab,ym->xayb", dec.vectors, blocks, dec.vectors.conj()).reshape(n, n)
    return None if np.linalg.norm(x) <= ZERO_TOL else x


_STEP_CAP = 64.0


class _RayScorer:
    """Scores rays theta_d + t x out of one diagonal compound, at their PSD endpoint.

    The largest step that keeps the compound PSD has a closed form to second
    order. With A = theta_d + eps I (eps = PSD_STEP_TOL) factored once,
    lambda_min(theta_d + t x) >= -eps holds exactly while
    1 + t mu >= 0, mu = lambda_min(A^{-1/2} x A^{-1/2}); since lambda_min is
    concave in t, the feasible steps are an interval from 0. A's eigenvalues
    are eps plus theta_d's, which are >= 0 (a compound state) up to rounding
    of about 1e-16, so all are positive. At t = -1/mu the
    eigenvalue -eps belongs to u = A^{-1/2} z (z the eigenvector of mu) and
    falls with slope mu / |u|^2, so one Newton step back to
    lambda_min = 0 gives t = -(1 - eps |u|^2) / mu; it is 0 when the ray
    leaves the support of theta_d, and a step with t ||x|| <= ZERO_TOL (the
    rounding of that 0) is taken as 0. A^{-1/2} x A^{-1/2} is formed in
    the eigenbasis of A: A's kernel eigenvalues are eps, and an explicit
    A^{-1/2} would mix entries of size eps^{-1/2} and 1, losing about eight
    digits of the step.

    Every ray keeps both marginals of theta_d, rho and ch(rho), so a point
    scores I(t) = S(rho) + S(ch(rho)) - S(theta_d + t x). S is concave in t,
    so I is convex, and its largest value on [0, t_max] is at an endpoint.
    I(0) is the diagonal value d, which q already floors at, so only t_max
    can raise q. x has zero diagonal blocks, so at an invertible theta_d the
    slope of I at t = 0 is tr(x ln theta_d) = 0 and I(t_max) >= I(0) as
    well. So a ray is scored once, at t_max, and nothing else is checked.

    A round of rays is scored as one stack (`endpoints`), given with their
    norms and whitened forms A^{-1/2} x A^{-1/2}: one stacked eigh for their
    steps and one stacked eigvalsh for their endpoints. Each row's LAPACK call
    sees the same matrix as it would alone, so a row's score does not depend
    on the other rows, and a single ray is scored as a stack of one.
    """

    def __init__(self, theta_d: np.ndarray, rho_mat: np.ndarray, out_avg: np.ndarray):
        self.theta_d = theta_d
        w, self.frame = np.linalg.eigh(theta_d + PSD_STEP_TOL * np.eye(theta_d.shape[0]))
        self.inv_sqrt = 1.0 / np.sqrt(w)  # of A's eigenvalues, all about eps or more
        self.scale = np.outer(self.inv_sqrt, self.inv_sqrt)
        self.marginal_entropy = von_neumann_entropy(rho_mat) + von_neumann_entropy(out_avg)

    def whitened(self, xs: np.ndarray) -> np.ndarray:
        """A^{-1/2} x A^{-1/2} in A's eigenbasis, F^dag x F * scale, for each
        ray x of a stack (m, n, n)."""
        return self.frame.conj().T @ xs @ self.frame * self.scale

    def scores(self, xs: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """I(t) of each ray x of a stack (m, n, n) at its step t; -inf where t
        is 0 or theta_d + t x has an eigenvalue below -ZERO_TOL."""
        values = np.full(len(xs), -math.inf)
        live = np.flatnonzero(steps > 0.0)
        if live.size:
            eigs = np.linalg.eigvalsh(self.theta_d + steps[live, None, None] * xs[live])
            values[live] = np.where(eigs[:, 0] < -ZERO_TOL, -math.inf, self.marginal_entropy - _entropy_rows(eigs))
        return values

    def endpoints(self, xs: np.ndarray, norms: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """I(t_max) and t_max <= 64 of each ray x of a stack (m, n, n), given
        its norm ||x|| in norms and its `whitened` form in ws; I is -inf
        where ||x|| <= ZERO_TOL, t_max is 0 or the endpoint has an eigenvalue
        below -ZERO_TOL."""
        mu, z = np.linalg.eigh(ws)
        mu = mu[:, 0]
        u_norm2 = np.sum(np.abs(self.inv_sqrt * z[..., 0]) ** 2, axis=-1)
        del z  # as large as the rays: freed before the endpoints are scored
        bounded = ~(mu * _STEP_CAP >= -1.0)
        steps = np.divide(PSD_STEP_TOL * u_norm2 - 1.0, mu, out=np.full(len(xs), _STEP_CAP), where=bounded)
        # A ray leaving the support has the exact step 0; rounding leaves a
        # step of either sign that moves theta_d by about 1e-16 or less.
        steps[bounded & ~(steps * norms > ZERO_TOL)] = 0.0
        return self.scores(xs, np.where(norms > ZERO_TOL, steps, 0.0)), steps


def _unit_rays(scorer: _RayScorer, dec: SchattenDecomposition, k: int):
    """points (m, g (g - 1) k^2) -> their unit rays x, norms and `whitened`
    forms w: x and w are 0, and the norm 0, where x has norm at most ZERO_TOL
    before scaling, and the norm is 1 elsewhere.

    A point spells out the Hermitian b whose block (n, m), n < m, is its
    next k x k block (2 k^2 reals: real parts, then imaginary) made
    traceless, (m, n) that block's adjoint, and the diagonal blocks 0. So
    x = W b W^dag, W = V (x) I_k over V = dec.vectors, keeps both marginals
    of theta_d. w = G b G^dag with G = diag(a)^{-1/2} F^dag W: each row of
    G is one of F^dag W times one factor, so w keeps the digits that
    `whitened` keeps. A round is one gather for b and one stacked product
    with [W; G]: O(n^3) work a row at every size, and each row's products
    are its own, so no row depends on its stack.
    """
    g, kk = dec.size, k * k
    first, second = _upper_indices(g)
    # A block's k^2 real or imaginary parts made traceless, then one 0.
    diagonal = np.eye(k).reshape(kk)
    project = np.eye(kk, kk + 1)
    project[:, :kk] -= np.outer(diagonal, diagonal) / k
    # b as (g k, g k, 2) reals: the index of each among the projected parts
    # (the diagonal blocks read a 0), and its sign.
    pair, s, t = np.indices((len(first), k, k)).reshape(3, -1)
    rows, cols = first[pair] * k + s, second[pair] * k + t
    real = 2 * pair * (kk + 1) + s * k + t
    source = np.full((g * k, g * k, 2), kk)
    source[rows, cols] = source[cols, rows] = np.stack([real, real + kk + 1], axis=-1)
    sign = np.ones((g * k, g * k, 2))
    sign[cols, rows, 1] = -1.0
    source, sign = source.reshape(-1), sign.reshape(-1)
    frame = np.kron(dec.vectors, np.eye(k))
    frames = np.stack([frame, scorer.inv_sqrt[:, None] * (scorer.frame.conj().T @ frame)])
    adjoints = frames.conj().swapaxes(-1, -2)

    def rays(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = len(points)
        parts = (points.reshape(m, -1, kk) @ project).reshape(m, -1)
        # b is built in the product, and freed before its second factor.
        xw = frames @ (np.take(parts, source, axis=1) * sign).view(complex).reshape(m, 1, g * k, g * k) @ adjoints
        norms = _frobenius_norms(xw[:, 0])
        live = norms > ZERO_TOL
        xw /= np.where(live, norms, math.inf)[:, None, None, None]
        return xw[:, 0], live.astype(float), xw[:, 1]

    return rays


def _q_value(
    rho: DensityOperator,
    ch: KrausChannel,
    dec: SchattenDecomposition,
    outputs: np.ndarray,
    diagonal_value: float,
    budget: SearchBudget,
) -> tuple[float, int]:
    """Perturb the best diagonal compound along marginal-preserving rays; a
    ray that beats `diagonal_value` is checked at its PSD endpoint, once.

    `outputs` are dec's channel outputs, `mutual._transmitted(ch, dec)`,
    which the caller has already computed; the diagonal compound is built
    from them, and the candidate ray from ch. Each lockstep round of the ray
    search is one stack: its points become unit rays, with their norms and
    whitened forms, in one `_unit_rays` call, and are scored in one
    `_RayScorer.endpoints` call. The candidate ray and the winning search
    ray go through `endpoints` as stacks of one row, and each one's step
    comes with its score. The candidate ends at theta_ci, which is PSD, so
    where its second-order step overshoots (an endpoint eigenvalue below
    -ZERO_TOL, seen at nearly pure outputs) the largest step in [1, t_max]
    with lambda_min >= -ZERO_TOL is found by bisection, and the better of
    it and t = 1 is kept.

    With a singular output omega_n, no random ray has a PSD step: x vanishes
    on the diagonal blocks, so its block on the kernel of theta_d is
    indefinite or 0, and when it is 0 its block between the support and the
    kernel is not, for generic parameters. The ray search is then skipped
    and only the candidate ray is scored.
    """
    k = ch.out_dim
    out_avg = apply_matrix(ch, rho.matrix)
    scorer = _RayScorer(_compound_matrix(dec, outputs), rho.matrix, out_avg)
    best, best_end, evals = diagonal_value, None, 0
    candidate = _candidate_direction(dec, ch)
    if candidate is not None:
        xs = candidate[None]
        values, steps = scorer.endpoints(xs, _frobenius_norms(xs), scorer.whitened(xs))
        if values[0] == -math.inf:
            lo, hi = 1.0, float(steps[0])
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                feasible = np.linalg.eigvalsh(scorer.theta_d + mid * candidate)[0] >= -ZERO_TOL
                lo, hi = (mid, hi) if feasible else (lo, mid)
            steps = np.array([1.0, lo])
            values = scorer.scores(np.stack([candidate, candidate]), steps)
        i = int(np.argmax(values))
        if values[i] > best:
            best, best_end = float(values[i]), scorer.theta_d + steps[i] * candidate
    n_params = dec.size * (dec.size - 1) * k * k
    singular = float(np.min(np.linalg.eigvalsh(outputs)[:, 0])) <= ZERO_TOL
    if n_params and not singular:
        rays = _unit_rays(scorer, dec, k)

        def objective(points: np.ndarray) -> np.ndarray:
            return scorer.endpoints(*rays(points))[0]

        result = maximize_batch(objective, n_params, budget.child(7), starts=())
        evals = result.evals
        if result.value > best:
            xs, norms, ws = rays(result.params[None])
            _, steps = scorer.endpoints(xs, norms, ws)
            best, best_end = result.value, scorer.theta_d + steps[0] * xs[0]
    if best_end is not None:
        _check_compound(best_end, rho, DensityOperator(out_avg), best)
    return best, evals


def _class_reports(
    rho: DensityOperator | None,
    ch: KrausChannel,
    tags: tuple[str, ...],
    budget: SearchBudget,
) -> dict[str, CapacityReport]:
    """The requested class values at rho, or their capacities when rho is None,
    all read from one search.

    d is `ohya_mutual_entropy`'s result at rho (`mutual._ohya_at`, which
    offers c nothing when it runs no search) or `quantum_capacity`'s checked
    maximizer. Its decomposition goes through the channel once more, and those
    outputs give both its commutation defect and q's rays. c is d when d's
    outputs commute, and otherwise the best commuting offer, checked by
    `mutual_entropy_fixed` only here, where it is reported, or infeasible when
    there is none. Either way c <= d holds. q's compound, of side
    in_dim * out_dim, is bounded by MAX_DIM before any search.
    """
    if "q" in tags and (side := ch.in_dim * ch.out_dim) > MAX_DIM:
        raise ValueError(f"q's compound dimension {ch.in_dim} * {ch.out_dim} = {side} exceeds the supported maximum {MAX_DIM}")
    commuting = _BestCommuting()
    if rho is None:
        inner = budget.child(1)
        result, _, ohya = _quantum_search(ch, StateFamily("full", ch.in_dim), budget, commuting.observe)
        if ohya is None:
            raise ConsistencyError("no finite decomposition value found")
        state = DensityOperator(result.maximizer["state"])
    else:
        inner, state = budget, rho
        result = ohya = _ohya_at(rho, ch, budget, commuting.observe)
    d_value, dec, c = float(ohya.value), ohya.decomposition, commuting.record
    outputs = _transmitted(ch, dec)
    defect = _commutation_defect(outputs)

    def report(tag: str, value: float, state=state, dec=dec, evals=result.evals, **notes) -> CapacityReport:
        return CapacityReport(
            value=value,
            converged=result.converged,
            evals=evals,
            maximizer={"state": state.matrix, "decomposition": dec},
            notes={"class": tag, "feasible": True, **notes},
        )

    reports = {}
    if "c" in tags:
        if defect <= CLASS_TOL:
            reports["c"] = report("c", d_value, commute_defect=defect)
        elif c is None:
            reports["c"] = CapacityReport(
                value=0.0,
                converged=result.converged,
                evals=result.evals,
                maximizer={"state": None, "decomposition": None},
                notes={"class": "c", "feasible": False},
            )
        else:
            c_state, c_dec = rho if rho is not None else DensityOperator(c.rho_mat), c.decomposition()
            c_value = float(mutual_entropy_fixed(c_state, ch, c_dec).value)
            reports["c"] = report("c", c_value, c_state, c_dec, commute_defect=c.commute_defect)
    if "d" in tags:
        reports["d"] = report("d", d_value)
    if "q" in tags:
        q, ray_evals = _q_value(state, ch, dec, outputs, d_value, inner)
        reports["q"] = report("q", float(q), evals=result.evals + ray_evals, diagonal_value=d_value)
    return reports


def class_mutual_and_capacity(
    rho: DensityOperator | None,
    ch: KrausChannel,
    cls,
    search: SearchBudget | None = None,
) -> CapacityReport:
    """Class-constrained mutual entropy at fixed rho, or its capacity when
    rho is None.

    The d class searches the Schatten decompositions of rho (the diagonal
    compounds); c restricts to decompositions whose channel outputs commute
    pairwise, reporting feasible=False, value 0 and a maximizer whose state
    and decomposition are None when none were found; q additionally perturbs
    the best diagonal compound along marginal-preserving rays with
    off-diagonal blocks, which keep the diagonal blocks and both marginals,
    reaching at least the coherent information; it needs
    in_dim * out_dim <= 64. The value is the one `qdc_hierarchy` reports for
    the class, from the same search; only q runs the ray search.
    """
    tag = cls.tag if isinstance(cls, EntanglementClass) else str(cls)
    if tag not in ("q", "d", "c"):
        raise ValueError(f"unknown class tag {tag!r}")
    return _class_reports(rho, ch, (tag,), search or SearchBudget())[tag]


def qdc_hierarchy(
    rho: DensityOperator | None,
    ch: KrausChannel,
    search: SearchBudget | None = None,
) -> dict[str, CapacityReport]:
    """All three class-constrained values, ordered c <= d <= q by construction.

    At fixed rho d is `ohya_mutual_entropy(rho, ch, search)`, from the same
    code, so a nondegenerate rho, or any rho through a channel with
    `uniform_pure_outputs`, is valued at its canonical decomposition with no
    search. For the capacities (rho None) the search is `quantum_capacity`'s
    over the `full` state family, and d is its checked maximizer, so d is the
    quantum capacity at the same budget. A search feeds a running best record
    among decompositions with commuting outputs (c), over all states visited;
    c is d when d's outputs commute. Through a channel with
    `uniform_pure_outputs` c = d: the outputs a U|v_k><v_k|U^dag + b I of the
    covariant form, or the orthogonal pure outputs of an isometry, commute.
    q steps along rays out of d's diagonal compound, never below d or the
    coherent information S(rho) + S(ch(rho)) - S(ch^c(rho)), and needs
    in_dim * out_dim <= 64. With rho None its ray search runs on
    `search.child(1)`. d is sent through the channel once more, for its
    commutation defect and q's rays, and a c that is not d is validated once,
    its value recomputed by `mutual_entropy_fixed`. The c record sees every
    row the Schatten ascent scores, its starts and all its trial steps, and
    keeps that row's support vectors. `evals` counts the rows of the outermost
    search (the decomposition search at fixed rho, the state search
    otherwise; 1 when none runs, as through a channel with
    `uniform_pure_outputs`, where the capacity is read at the flat state),
    plus the ray search's for q; `converged` is that search's flag, True
    when no search runs.
    """
    return _class_reports(rho, ch, ("c", "d", "q"), search or SearchBudget())
