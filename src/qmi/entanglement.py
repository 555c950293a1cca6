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

from .capacity import CapacityReport, StateFamily
from .channels import KrausChannel, apply_matrix
from .entropy import (
    SUPPORT_TOL,
    _eigen_amplitudes,
    _entropy_rows,
    _log_trace_in_eigenbasis,
    product_relative_entropy,
    von_neumann_entropy,
)
from .mutual import (
    CompoundState,
    _compound_matrix,
    _MutualEvaluator,
    _transmitted,
    mutual_entropy_fixed,
)
from .operators import (
    ZERO_TOL,
    ConsistencyError,
    DensityOperator,
    SchattenDecomposition,
    as_complex_matrix,
    as_probability,
    eigenbasis,
    hermitian_from_params,
    hermitian_part,
    partial_trace,
    schatten_family,
    unitary_from_params,
)
from .search import SearchBudget, complex_from_params, maximize, softmax

NORMALIZATION_TOL = 1e-9
UNITARY_TOL = 1e-8
OFF_DIAG_TOL = 1e-8
COMMUTE_TOL = 1e-8
PSD_STEP_TOL = 1e-10


@dataclass(frozen=True)
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
        if np.max(np.abs(u.conj().T @ u - np.eye(g))) > UNITARY_TOL:
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


@dataclass(frozen=True)
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
    the weak-orthogonality property is specific to the eigenbasis.
    """
    t = as_complex_matrix(theta, "theta")
    d_g, d_k = dims
    if t.shape[0] != d_g * d_k:
        raise ValueError(f"joint dimension {t.shape[0]} is not {d_g}*{d_k}")
    if basis is None:
        _, basis = eigenbasis(partial_trace(t, dims, keep=0))
    u = np.asarray(basis, dtype=complex)
    w, v = eigenbasis(t)
    keep = w > ZERO_TOL
    if not np.any(keep):
        raise ValueError("state has empty support")
    amp = v[:, keep] * np.sqrt(w[keep])
    psi = amp.reshape(d_g, d_k, int(np.sum(keep)))
    coeffs = np.einsum("gn,gkf->nkf", u.conj(), psi)
    return EntanglingOperator(vectors=coeffs.transpose(0, 2, 1), basis=u)


def weak_orthogonality_defect(kappa: EntanglingOperator) -> float:
    """Largest off-diagonal overlap |<kappa_m, kappa_n>|, zero for eigenbases."""
    gram = kappa.gram()
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off))) if kappa.g_dim > 1 else 0.0


def strong_orthogonality_defect(kappa: EntanglingOperator, weights, outputs) -> float:
    """Deviation of the blocks from p_n omega_n delta_nm."""
    p = as_probability(weights)
    defect = 0.0
    for n in range(kappa.g_dim):
        for m in range(kappa.g_dim):
            blk = kappa.block(n, m)
            if n == m:
                om = as_complex_matrix(outputs[n], "omega")
                defect = max(defect, float(np.max(np.abs(blk - p[n] * om))))
            else:
                defect = max(defect, float(np.max(np.abs(blk))))
    return defect


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

    Any off-diagonal block of Frobenius norm above 1e-8 makes the state q;
    otherwise pairwise-commuting diagonal blocks (relative commutator below
    1e-8) make it c, and anything else d.
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
    d_g = dims[0]
    off = 0.0
    for n in range(d_g):
        for m in range(n + 1, d_g):
            off = max(off, float(np.linalg.norm(blocks[n, m])))
    if off > OFF_DIAG_TOL:
        return EntanglementClass(tag="q", off_diag_norm=off, max_commutator=math.nan)
    diag = [blocks[n, n] for n in range(d_g)]
    norms = [float(np.linalg.norm(b)) for b in diag]
    worst = 0.0
    for n in range(d_g):
        for m in range(n + 1, d_g):
            if norms[n] <= ZERO_TOL or norms[m] <= ZERO_TOL:
                continue
            comm = diag[n] @ diag[m] - diag[m] @ diag[n]
            worst = max(worst, float(np.linalg.norm(comm)) / (norms[n] * norms[m]))
    tag = "c" if worst <= COMMUTE_TOL else "d"
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
    m0 = (u * amps) @ u.T
    psi = m0.reshape(-1)
    theta = np.outer(psi, psi.conj())
    vectors = np.zeros((k, 1, k), dtype=complex)
    for n in range(k):
        vectors[n, 0, :] = amps[n] * u[:, n]
    kappa = EntanglingOperator(vectors=vectors, basis=u)
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
    four = np.zeros((g, k, g, k), dtype=complex)
    for n in range(g):
        four[n, :, n, :] = probs[n] * oms[n].matrix
    theta = four.reshape(g * k, g * k)

    spectra = []
    for om in oms:
        w, u = eigenbasis(om.matrix)
        keep = w > ZERO_TOL
        spectra.append((w[keep], u[:, keep]))
    f_dim = sum(w.size for w, _ in spectra)
    vectors = np.zeros((g, f_dim, k), dtype=complex)
    offset = 0
    for n, (w, u) in enumerate(spectra):
        for j in range(w.size):
            vectors[n, offset + j, :] = math.sqrt(probs[n] * w[j]) * u[:, j]
        offset += w.size
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
        w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        s_hat = float(-np.sum(w[w > ZERO_TOL] * np.log(w[w > ZERO_TOL])))
        if mu > ZERO_TOL:
            sub = mu * w
            sub = sub[sub > ZERO_TOL]
            total += mu * math.log(mu) - 2.0 * float(np.sum(sub * np.log(sub)))
            cross += -mu * math.log(mu) + 2.0 * mu * s_hat
    if abs(total - cross) > 1e-10:
        raise ConsistencyError(
            f"block-entropy forms disagree: {total!r} vs {cross!r}"
        )
    return total


def q_entropy_sup(
    sigma, search: SearchBudget | None = None, n_terms: int = 2
) -> CapacityReport:
    """Supremum of the entangled mutual entropy at fixed output marginal.

    The family mixes purifications of sigma whose G side is rotated term by
    term; every member has output marginal sigma exactly, and the standard
    entanglement (the supremum point for the full algebra) is the search
    start, so the result never falls below it.
    """
    budget = search or SearchBudget()
    s = sigma if isinstance(sigma, DensityOperator) else DensityOperator(np.asarray(sigma, complex))
    k = s.dim
    w, u = eigenbasis(s.matrix)
    m0 = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
    sigma_mat = s.matrix

    def assemble(params: np.ndarray) -> np.ndarray:
        weights = softmax(params[:n_terms])
        theta = np.zeros((k * k, k * k), dtype=complex)
        for t in range(n_terms):
            chunk = params[n_terms + t * k * k : n_terms + (t + 1) * k * k]
            vec = (unitary_from_params(chunk, k) @ m0).reshape(-1)
            theta += weights[t] * np.outer(vec, vec.conj())
        return theta

    def objective(params: np.ndarray) -> float:
        theta = assemble(params)
        left = partial_trace(theta, (k, k), keep=0)
        value = product_relative_entropy(theta, left, sigma_mat)
        return -math.inf if math.isinf(value) else value

    n_params = n_terms + n_terms * k * k
    result = maximize(objective, n_params, budget, starts=[np.zeros(n_params)])
    standard = entangled_mutual_entropy(standard_entanglement(s))
    closed = q_entropy_closed_form([(1.0, s)])
    return CapacityReport(
        value=max(result.value, standard),
        converged=result.converged,
        evals=result.evals,
        maximizer={"n_terms": n_terms},
        notes={"standard_value": standard, "closed_form": closed},
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


@dataclass(frozen=True)
class _DecRecord:
    value: float
    commute_defect: float
    params: np.ndarray


def _commutation_defect(outputs: np.ndarray) -> float:
    norms = [float(np.linalg.norm(om)) for om in outputs]
    worst = 0.0
    for n in range(len(outputs)):
        for m in range(n + 1, len(outputs)):
            if norms[n] <= ZERO_TOL or norms[m] <= ZERO_TOL:
                continue
            comm = outputs[n] @ outputs[m] - outputs[m] @ outputs[n]
            worst = max(worst, float(np.linalg.norm(comm)) / (norms[n] * norms[m]))
    return worst


def _survey_decompositions(
    rho: DensityOperator, ch: KrausChannel, budget: SearchBudget
) -> tuple[list[_DecRecord], bool, int]:
    """Search Schatten decompositions, recording value and commutation defect."""
    evaluator = _MutualEvaluator(rho.matrix, ch)
    records: list[_DecRecord] = []

    def evaluate(params: np.ndarray) -> float:
        outputs = evaluator.outputs(params)
        value = evaluator.score(evaluator.weights, outputs)
        records.append(_DecRecord(value, _commutation_defect(outputs), np.array(params, dtype=float)))
        return value

    result = evaluator.supremum(budget, evaluate)
    return records, result.converged, result.evals


def _best_record(records: list[_DecRecord], commuting_only: bool) -> _DecRecord | None:
    pool = [
        r
        for r in records
        if math.isfinite(r.value) and (not commuting_only or r.commute_defect <= COMMUTE_TOL)
    ]
    if not pool:
        return None
    return max(pool, key=lambda r: (r.value, -r.commute_defect))


def _direction_param_count(g: int, k: int, fix_output_blocks: bool) -> int:
    n = (g * (g - 1)) // 2 * 2 * k * k
    if not fix_output_blocks:
        n += g * k * k
    return n


def _in_input_frame(dec: SchattenDecomposition, blocks: np.ndarray) -> np.ndarray:
    """sum_nm |v_n><v_m| (x) blocks[n, m] as a (d_g k) x (d_g k) matrix."""
    e = dec.vectors
    n = e.shape[0] * blocks.shape[-1]
    return np.einsum("xn,nmab,ym->xayb", e, blocks, e.conj()).reshape(n, n)


def _assemble_direction(
    params: np.ndarray, dec: SchattenDecomposition, k: int, fix_output_blocks: bool
) -> np.ndarray | None:
    """Hermitian perturbation preserving both marginals of a diagonal compound.

    Off-diagonal blocks are free but traceless (input marginal unchanged);
    when the output blocks are released, the diagonal parts are traceless
    and sum to zero (both marginals unchanged).
    """
    g = dec.size
    blocks = np.zeros((g, g, k, k), dtype=complex)
    per = 2 * k * k
    pos = 0
    for n in range(g):
        for m in range(n + 1, g):
            b = complex_from_params(params[pos : pos + per], k, k)
            b = b - (np.trace(b) / k) * np.eye(k)
            blocks[n, m] = b
            blocks[m, n] = b.conj().T
            pos += per
    if not fix_output_blocks:
        diags = []
        for n in range(g):
            d = hermitian_from_params(params[pos : pos + k * k], k)
            d = d - (np.trace(d).real / k) * np.eye(k)
            diags.append(d)
            pos += k * k
        mean = sum(diags) / g
        for n in range(g):
            blocks[n, n] = diags[n] - mean
    x = _in_input_frame(dec, blocks)
    norm = float(np.linalg.norm(x))
    if norm <= 1e-12:
        return None
    return x / norm


def _candidate_direction(dec: SchattenDecomposition, outputs: np.ndarray, k: int) -> np.ndarray | None:
    """Coherence between the leading output eigenvectors of each component.

    Under the identity channel this ray passes through the standard
    entanglement of the input state at its feasibility boundary.
    """
    g = dec.size
    if g < 2:
        return None
    leads = []
    for om in outputs:
        _, u = eigenbasis(om)
        leads.append(u[:, 0])
    blocks = np.zeros((g, g, k, k), dtype=complex)
    for n in range(g):
        for m in range(g):
            if n == m:
                continue
            scale = math.sqrt(max(dec.weights[n] * dec.weights[m], 0.0))
            blocks[n, m] = scale * np.outer(leads[n], leads[m].conj())
    x = _in_input_frame(dec, blocks)
    norm = float(np.linalg.norm(x))
    return None if norm <= 1e-12 else x


_RAY_FRACTIONS = np.array([1.0, 0.75, 0.5, 0.25])
_STEP_CAP = 64.0


class _RayScorer:
    """Scores rays theta_d + t x out of one diagonal compound.

    The largest feasible step has a closed form. With A = theta_d + eps I
    (eps = PSD_STEP_TOL) factored once, lambda_min(theta_d + t x) >= -eps
    holds exactly while 1 + t lambda_min(A^{-1/2} x A^{-1/2}) >= 0; since
    lambda_min is concave in t, the feasible steps are an interval from 0.
    A^{-1/2} x A^{-1/2} is formed in the eigenbasis of A: A's kernel
    eigenvalues are eps, and an explicit A^{-1/2} would mix entries of
    size eps^{-1/2} and 1, losing about eight digits of the step.
    Each ray scores its four points by the relative entropy against
    rho (x) ch(rho), with one batched eigvalsh for the joint entropies and
    the eigenbases of rho and ch(rho) computed once.
    """

    def __init__(self, theta_d: np.ndarray, rho_mat: np.ndarray, out_avg: np.ndarray, d_k: int):
        self.theta_d = theta_d
        self.dims = (theta_d.shape[0] // d_k, d_k)
        w, self.frame = np.linalg.eigh(theta_d + PSD_STEP_TOL * np.eye(theta_d.shape[0]))
        self.inv_sqrt = 1.0 / np.sqrt(w) if w[0] > 0.0 else None  # of A's eigenvalues
        self.left = np.linalg.eigh(hermitian_part(rho_mat))
        self.right = np.linalg.eigh(hermitian_part(out_avg))
        self.base = self._amplitudes(theta_d)

    def _amplitudes(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both marginals of t in the eigenbases of rho and ch(rho)."""
        return (
            _eigen_amplitudes(partial_trace(t, self.dims, keep=0), self.left[1]),
            _eigen_amplitudes(partial_trace(t, self.dims, keep=1), self.right[1]),
        )

    def max_step(self, x: np.ndarray) -> float:
        """Largest t <= 64 with lambda_min(theta_d + t x) >= -PSD_STEP_TOL."""
        if self.inv_sqrt is None:
            return 0.0
        scaled = self.frame.conj().T @ x @ self.frame * np.outer(self.inv_sqrt, self.inv_sqrt)
        mu = float(np.linalg.eigvalsh(scaled)[0])
        return _STEP_CAP if mu * _STEP_CAP >= -1.0 else -1.0 / mu

    def value(self, x: np.ndarray) -> float:
        t_max = self.max_step(x)
        if t_max <= 0.0:
            return -math.inf
        steps = t_max * _RAY_FRACTIONS
        joint = _entropy_rows(np.linalg.eigvalsh(self.theta_d + steps[:, None, None] * x))
        value = -joint
        leaks = np.zeros(steps.size)
        for (w, _), a0, a1 in zip((self.left, self.right), self.base, self._amplitudes(x)):
            log_term, leak = _log_trace_in_eigenbasis(a0 + steps[:, None] * a1, w, ZERO_TOL)
            value = value - log_term
            leaks = np.maximum(leaks, leak)
        feasible = value[leaks <= SUPPORT_TOL]
        return float(np.max(feasible)) if feasible.size else -math.inf


def _q_value(
    rho: DensityOperator,
    ch: KrausChannel,
    dec: SchattenDecomposition,
    diagonal_value: float,
    budget: SearchBudget,
    fix_output_blocks: bool,
) -> tuple[float, int]:
    """Perturb the best diagonal compound along marginal-preserving rays."""
    outputs = _transmitted(ch, dec)
    k = ch.out_dim
    scorer = _RayScorer(
        _compound_matrix(dec, outputs), rho.matrix, apply_matrix(ch, rho.matrix), k
    )
    best = diagonal_value
    candidate = _candidate_direction(dec, outputs, k)
    if candidate is not None:
        best = max(best, scorer.value(candidate))
    n_params = _direction_param_count(dec.size, k, fix_output_blocks)
    if n_params == 0 or dec.size < 2:
        return best, 0

    def objective(params: np.ndarray) -> float:
        x = _assemble_direction(params, dec, k, fix_output_blocks)
        return -math.inf if x is None else scorer.value(x)

    result = maximize(objective, n_params, budget.child(7), starts=())
    if math.isfinite(result.value):
        best = max(best, result.value)
    return best, result.evals


def _class_reports(
    rho: DensityOperator,
    ch: KrausChannel,
    tags: tuple[str, ...],
    budget: SearchBudget,
    fix_output_blocks: bool,
) -> dict[str, CapacityReport]:
    """The requested class values at fixed rho, all from one decomposition survey."""
    records, converged, evals = _survey_decompositions(rho, ch, budget)
    best_d = _best_record(records, commuting_only=False)
    if best_d is None:
        raise ConsistencyError("no finite decomposition value found")
    checked = {}

    def checked_value(record: _DecRecord) -> tuple[SchattenDecomposition, float]:
        if id(record) not in checked:
            dec = schatten_family(rho, record.params)
            checked[id(record)] = dec, float(mutual_entropy_fixed(rho, ch, dec).value)
        return checked[id(record)]

    reports = {}
    if "c" in tags:
        best_c = _best_record(records, commuting_only=True)
        if best_c is None:
            reports["c"] = CapacityReport(
                value=0.0,
                converged=converged,
                evals=evals,
                notes={"class": "c", "feasible": False},
            )
        else:
            dec, value = checked_value(best_c)
            reports["c"] = CapacityReport(
                value=value,
                converged=converged,
                evals=evals,
                maximizer={"decomposition": dec},
                notes={"class": "c", "feasible": True, "commute_defect": best_c.commute_defect},
            )
    if "d" in tags or "q" in tags:
        dec, value = checked_value(best_d)
        if "d" in tags:
            reports["d"] = CapacityReport(
                value=value,
                converged=converged,
                evals=evals,
                maximizer={"decomposition": dec},
                notes={"class": "d", "feasible": True},
            )
        if "q" in tags:
            q, ray_evals = _q_value(rho, ch, dec, value, budget, fix_output_blocks)
            reports["q"] = CapacityReport(
                value=float(q),
                converged=converged,
                evals=evals + ray_evals,
                maximizer={"decomposition": dec},
                notes={"class": "q", "feasible": True, "diagonal_value": value},
            )
    return reports


def class_mutual_and_capacity(
    rho: DensityOperator | None,
    ch: KrausChannel,
    cls,
    search: SearchBudget | None = None,
    fix_output_blocks: bool = True,
) -> CapacityReport:
    """Class-constrained mutual entropy at fixed rho, or its capacity when
    rho is None.

    The d class searches the Schatten decompositions of rho (the diagonal
    compounds); c restricts to decompositions whose channel outputs commute
    pairwise, reporting feasible=False when none were found; q additionally
    perturbs the best diagonal compound along marginal-preserving rays with
    off-diagonal blocks. By construction c <= d <= q at any fixed rho.
    `fix_output_blocks=False` also releases the diagonal blocks of the q
    perturbation, keeping only the two marginals pinned.
    """
    budget = search or SearchBudget()
    tag = cls.tag if isinstance(cls, EntanglementClass) else str(cls)
    if tag not in ("q", "d", "c"):
        raise ValueError(f"unknown class tag {tag!r}")
    if rho is not None:
        return _class_reports(rho, ch, (tag,), budget, fix_output_blocks)[tag]

    family = StateFamily("full", ch.in_dim)
    inner = budget.child(5)

    def objective(params: np.ndarray) -> float:
        r = family.state_from_params(params)
        if r is None:
            return -math.inf
        rep = _class_reports(r, ch, (tag,), inner, fix_output_blocks)[tag]
        if not rep.notes.get("feasible", True):
            return -math.inf
        return rep.value

    result = maximize(objective, family.n_params, budget, starts=family.candidate_starts())
    feasible = math.isfinite(result.value)
    state = family.state_from_params(result.params) if feasible else None
    return CapacityReport(
        value=result.value if feasible else 0.0,
        converged=result.converged,
        evals=result.evals,
        maximizer={"state": state.matrix if state is not None else None},
        notes={"class": tag, "feasible": feasible},
    )


def qdc_hierarchy(
    rho: DensityOperator | None,
    ch: KrausChannel,
    search: SearchBudget | None = None,
    fix_output_blocks: bool = True,
) -> dict[str, CapacityReport]:
    """All three class-constrained values, ordered c <= d <= q structurally.

    At fixed rho the three reports share one decomposition survey. For the
    capacities (rho None) each class runs its own input search and is then
    floored by re-evaluating at every class's maximizing input, which keeps
    the chain monotone across independent searches.
    """
    budget = search or SearchBudget()
    tags = ("c", "d", "q")
    if rho is not None:
        return _class_reports(rho, ch, tags, budget, fix_output_blocks)

    reports = {
        tag: class_mutual_and_capacity(None, ch, tag, budget, fix_output_blocks)
        for tag in tags
    }
    states = [
        DensityOperator(rep.maximizer["state"])
        for rep in reports.values()
        if rep.maximizer.get("state") is not None
    ]
    inner = budget.child(5)
    floors = [_class_reports(state, ch, tags, inner, fix_output_blocks) for state in states]
    out = {}
    for tag in tags:
        base = reports[tag]
        value, feasible = base.value, base.notes.get("feasible", True)
        for floor in floors:
            rep = floor[tag]
            if rep.notes.get("feasible", True) and rep.value > value:
                value = rep.value
                feasible = True
        out[tag] = CapacityReport(
            value=value,
            converged=base.converged,
            evals=base.evals,
            maximizer=base.maximizer,
            notes={"class": tag, "feasible": feasible},
        )
    return out
