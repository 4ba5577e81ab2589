"""Sparse operator kernel: ladder matrices, embeddings, and composites.

Single-mode raising/lowering matrices come straight from the ladder actions
(amplitudes are principal square roots of the q-numbers and their
conjugates).  Multi-mode operators are plain tensor-product embeddings:
operators on different modes commute exactly, with no inter-mode phase
strings; all statistics live in the on-mode deformed bracket.

Composite operators (exchange, class sum, unitary generators, Casimirs,
diagonal coupling sums) are assembled by sparse multiplication in the
right-to-left application order of their defining words.  Assembled matrices
are pruned at ``DROP_TOL`` and treated as immutable afterwards; building
distinct operators concurrently is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .basis import FockBasis, ModeIndex, SizingError
from .scalars import GentileOrder, coupling_j, occ_f, occ_g, sqrt_bracket

#: Magnitude below which assembled entries are dropped.
DROP_TOL = 1e-14

#: Largest dimension the dense eigensolver will accept.
DENSE_EIG_CAP = 4096

Matrix = Union[sp.spmatrix, np.ndarray]


class NonHermitianError(ValueError):
    """Raised when a Hermitian contract is violated; carries the asymmetry."""

    def __init__(self, asymmetry: float):
        super().__init__(f"matrix is not Hermitian (asymmetry {asymmetry:.3e})")
        self.asymmetry = asymmetry


@dataclass(frozen=True)
class ComplexOperator:
    """Sparse complex square matrix bound to the basis it acts on."""

    mat: sp.csr_matrix
    basis_tag: str

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def toarray(self) -> np.ndarray:
        return self.mat.toarray()


def _pruned(mat: Matrix) -> sp.csr_matrix:
    out = sp.csr_matrix(mat, dtype=np.complex128)
    out.sum_duplicates()
    if out.nnz:
        mask = np.abs(out.data) < DROP_TOL
        if mask.any():
            out.data[mask] = 0
            out.eliminate_zeros()
    out.sort_indices()
    return out


def as_operator(mat: Matrix, basis_tag: str) -> ComplexOperator:
    """Wrap a matrix as a pruned operator tagged with its basis."""
    out = _pruned(mat)
    if out.shape[0] != out.shape[1]:
        raise ValueError(f"operator must be square, got shape {out.shape}")
    return ComplexOperator(mat=out, basis_tag=basis_tag)


def max_abs(op: Union[ComplexOperator, Matrix]) -> float:
    """Largest entry magnitude (0.0 for an empty matrix)."""
    mat = op.mat if isinstance(op, ComplexOperator) else sp.csr_matrix(op)
    if mat.nnz == 0:
        return 0.0
    return float(np.abs(mat.data).max())


# ---------------------------------------------------------------------------
# Single-mode ladder matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleModeSet:
    """The five (n+1) x (n+1) single-mode matrices.

    ``a`` is the entrywise conjugate of ``b``; the daggered pair are the true
    adjoints.  ``num`` is diag(0..n).  The raiser column at the top state is
    structurally absent, so truncation is exact.
    """

    a: sp.csr_matrix
    b: sp.csr_matrix
    a_dag: sp.csr_matrix
    b_dag: sp.csr_matrix
    num: sp.csr_matrix


@lru_cache(maxsize=64)
def single_mode_ops(order: GentileOrder) -> SingleModeSet:
    """Build the single-mode ladder matrices for a Gentile order."""
    n = order.n
    d = n + 1
    b = sp.lil_matrix((d, d), dtype=np.complex128)
    a = sp.lil_matrix((d, d), dtype=np.complex128)
    for nu in range(1, n + 1):
        amp = sqrt_bracket(nu, order)
        b[nu - 1, nu] = amp
        a[nu - 1, nu] = amp.conjugate()
    b = b.tocsr()
    a = a.tocsr()
    num = sp.diags(np.arange(d, dtype=np.float64), 0, format="csr", dtype=np.complex128)
    return SingleModeSet(
        a=a,
        b=b,
        a_dag=_pruned(a.getH()),
        b_dag=_pruned(b.getH()),
        num=num,
    )


# ---------------------------------------------------------------------------
# Embedding and restriction
# ---------------------------------------------------------------------------


def _embed_flat(op: Matrix, flat: int, basis: FockBasis) -> sp.csr_matrix:
    d = basis.order.n + 1
    left = d**flat
    right = d ** (basis.modes - 1 - flat)
    out = sp.csr_matrix(op, dtype=np.complex128)
    if left > 1:
        out = sp.kron(sp.identity(left, dtype=np.complex128, format="csr"), out, format="csr")
    if right > 1:
        out = sp.kron(out, sp.identity(right, dtype=np.complex128, format="csr"), format="csr")
    return out


def embed(op: Matrix, mode: ModeIndex, basis: FockBasis) -> ComplexOperator:
    """Place a single-mode matrix on ``mode``, identity on every other mode.

    The basis must be a full product space; act on sectors by restricting
    afterwards.
    """
    if not basis.is_full:
        raise ValueError("embedding requires a full-space basis; restrict afterwards")
    d = basis.order.n + 1
    mat = sp.csr_matrix(op)
    if mat.shape != (d, d):
        raise ValueError(f"single-mode operator must be {d}x{d}, got {mat.shape}")
    flat = basis.mode_flat(mode.position, mode.state)
    return as_operator(_embed_flat(mat, flat, basis), basis.basis_tag)


class Restriction(NamedTuple):
    """A restricted operator together with its off-sector leakage norm."""

    op: ComplexOperator
    leakage: float


def restrict(op: ComplexOperator, full_basis: FockBasis, sector_basis: FockBasis) -> Restriction:
    """Sub-matrix on the sector rows/columns plus the leakage it ignores.

    The leakage is the largest magnitude among entries coupling sector states
    to non-sector states in either direction; it is reported, never fatal.
    """
    if op.dim != full_basis.dim:
        raise ValueError(
            f"operator dim {op.dim} does not match full basis dim {full_basis.dim}"
        )
    rows = np.fromiter(
        (full_basis.index[s] for s in sector_basis.states),
        dtype=np.int64,
        count=sector_basis.dim,
    )
    in_sector = np.zeros(full_basis.dim, dtype=bool)
    in_sector[rows] = True

    cols_slice = op.mat[:, rows].tocoo()
    out_rows = cols_slice.row[~in_sector[cols_slice.row]]
    leak_out = (
        float(np.abs(cols_slice.data[~in_sector[cols_slice.row]]).max())
        if out_rows.size
        else 0.0
    )
    rows_slice = op.mat[rows, :].tocoo()
    out_cols = rows_slice.col[~in_sector[rows_slice.col]]
    leak_in = (
        float(np.abs(rows_slice.data[~in_sector[rows_slice.col]]).max())
        if out_cols.size
        else 0.0
    )

    sub = op.mat[rows][:, rows]
    return Restriction(
        op=as_operator(sub, sector_basis.basis_tag),
        leakage=max(leak_out, leak_in),
    )


# ---------------------------------------------------------------------------
# Composite operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _embedded_mode_ops(basis: FockBasis) -> dict[str, list[sp.csr_matrix]]:
    """Every single-mode matrix embedded at every flat mode, cached per basis."""
    ops = single_mode_ops(basis.order)
    return {
        name: [_embed_flat(getattr(ops, name), f, basis) for f in range(basis.modes)]
        for name in ("a", "b", "a_dag", "b_dag", "num")
    }


def _word(mats: Sequence[sp.csr_matrix]) -> sp.csr_matrix:
    """Product of a left-to-right written word (rightmost factor acts first)."""
    out = mats[0]
    for m in mats[1:]:
        out = out @ m
    return out


def _require_full(basis: FockBasis, what: str) -> None:
    if not basis.is_full:
        raise ValueError(f"{what} is assembled on the full space; restrict afterwards")


@lru_cache(maxsize=256)
def _exchange_cached(basis: FockBasis, i: int, j: int) -> ComplexOperator:
    emb = _embedded_mode_ops(basis)
    m = basis.m
    f = basis.mode_flat
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for k in range(1, m + 1):
        for l in range(1, m + 1):
            w1 = _word(
                [emb["a_dag"][f(i, k)], emb["a_dag"][f(j, l)], emb["b"][f(i, l)], emb["b"][f(j, k)]]
            )
            w2 = _word(
                [emb["a_dag"][f(i, k)], emb["b_dag"][f(j, l)], emb["b"][f(i, l)], emb["a"][f(j, k)]]
            )
            total = total + w1 + w2
    # The two quartic words coincide on single-occupancy states, so the raw
    # sum would exchange with amplitude 2; halving makes the operator the
    # unit transposition there (tau^2 = 1 on the spin sector).
    return as_operator(0.5 * total, basis.basis_tag)


def exchange_op(i: int, j: int, basis: FockBasis) -> ComplexOperator:
    """Exchange of the particles at positions ``i`` and ``j`` (both 1-based)."""
    _require_full(basis, "exchange_op")
    if i == j:
        raise ValueError("exchange requires two distinct positions")
    if not (1 <= i < j <= basis.nu):
        raise ValueError(f"need 1 <= i < j <= nu={basis.nu}, got ({i}, {j})")
    return _exchange_cached(basis, i, j)


@lru_cache(maxsize=64)
def class_sum(basis: FockBasis) -> ComplexOperator:
    """Sum of all pair exchanges (the transposition-class operator)."""
    _require_full(basis, "class_sum")
    if basis.nu < 2:
        raise ValueError(f"class sum needs at least two positions, got nu={basis.nu}")
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for i in range(1, basis.nu + 1):
        for j in range(i + 1, basis.nu + 1):
            total = total + _exchange_cached(basis, i, j).mat
    return as_operator(total, basis.basis_tag)


@lru_cache(maxsize=256)
def _generator_cached(basis: FockBasis, k: int, l: int) -> ComplexOperator:
    emb = _embedded_mode_ops(basis)
    f = basis.mode_flat
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for i in range(1, basis.nu + 1):
        total = total + _word([emb["a_dag"][f(i, k)], emb["b"][f(i, l)]])
        total = total + _word([emb["b_dag"][f(i, k)], emb["a"][f(i, l)]])
    return as_operator(total, basis.basis_tag)


def unitary_generator(k: int, l: int, basis: FockBasis) -> ComplexOperator:
    """Generator E(k, l): state-l to state-k transfer summed over positions."""
    _require_full(basis, "unitary_generator")
    if not (1 <= k <= basis.m and 1 <= l <= basis.m):
        raise ValueError(f"need states in 1..{basis.m}, got ({k}, {l})")
    return _generator_cached(basis, k, l)


@lru_cache(maxsize=64)
def casimir_c1(basis: FockBasis) -> ComplexOperator:
    """First-order Casimir: sum of the diagonal generators."""
    _require_full(basis, "casimir_c1")
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for l in range(1, basis.m + 1):
        total = total + _generator_cached(basis, l, l).mat
    return as_operator(total, basis.basis_tag)


@lru_cache(maxsize=64)
def casimir_c2(basis: FockBasis) -> ComplexOperator:
    """Second-order Casimir: sum over k, l of E(k,l) E(l,k)."""
    _require_full(basis, "casimir_c2")
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for k in range(1, basis.m + 1):
        for l in range(1, basis.m + 1):
            total = total + _generator_cached(basis, k, l).mat @ _generator_cached(basis, l, k).mat
    return as_operator(total, basis.basis_tag)


def _diagonal(vals: np.ndarray, basis: FockBasis) -> ComplexOperator:
    return as_operator(
        sp.diags(vals, 0, format="csr", dtype=np.complex128), basis.basis_tag
    )


def coupling_sum(basis: FockBasis) -> ComplexOperator:
    """Diagonal operator whose eigenvalue is the summed coupling weight."""
    return _diagonal(coupling_j(basis.occupations, basis.order).sum(axis=1), basis)


def total_number(basis: FockBasis) -> ComplexOperator:
    """Diagonal operator counting all particles over all modes."""
    return _diagonal(basis.occupations.sum(axis=1), basis)


def position_number(basis: FockBasis, position: int) -> ComplexOperator:
    """Diagonal operator counting the particles at one position."""
    if not 1 <= position <= basis.nu:
        raise ValueError(f"position must be in 1..{basis.nu}, got {position}")
    sl = slice((position - 1) * basis.m, position * basis.m)
    return _diagonal(basis.occupations[:, sl].sum(axis=1), basis)


def occupation_diag(basis: FockBasis, fn: str, position: int, state: int) -> ComplexOperator:
    """Diagonal of ``occ_f``/``occ_g`` applied to one mode's occupations."""
    flat = basis.mode_flat(position, state)
    occ = basis.occupations[:, flat]
    if fn == "f":
        vals = occ_f(occ, basis.order)
    elif fn == "g":
        vals = occ_g(occ, basis.order)
    else:
        raise ValueError(f"fn must be 'f' or 'g', got {fn!r}")
    return _diagonal(vals, basis)


# ---------------------------------------------------------------------------
# Matrix utilities
# ---------------------------------------------------------------------------


def _unwrap(x: Union[ComplexOperator, Matrix]) -> tuple[sp.csr_matrix, Union[str, None]]:
    if isinstance(x, ComplexOperator):
        return x.mat, x.basis_tag
    return sp.csr_matrix(x, dtype=np.complex128), None


def _rewrap(mat: Matrix, tag: Union[str, None]):
    return as_operator(mat, tag) if tag is not None else _pruned(mat)


def _pair(a, b) -> tuple[sp.csr_matrix, sp.csr_matrix, Union[str, None]]:
    ma, ta = _unwrap(a)
    mb, tb = _unwrap(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    if ta is not None and tb is not None and ta != tb:
        raise ValueError(f"basis mismatch: {ta!r} vs {tb!r}")
    return ma, mb, ta if ta is not None else tb


def adjoint(a):
    mat, tag = _unwrap(a)
    return _rewrap(mat.getH(), tag)


def entrywise_conjugate(a):
    mat, tag = _unwrap(a)
    return _rewrap(mat.conjugate(), tag)


def entrywise_real(a):
    """Real part of every stored entry, in the fixed occupation basis."""
    mat, tag = _unwrap(a)
    out = mat.copy()
    out.data = out.data.real.astype(np.complex128)
    return _rewrap(out, tag)


def hermitian_part(a):
    mat, tag = _unwrap(a)
    return _rewrap((mat + mat.getH()) * 0.5, tag)


def commutator(a, b):
    ma, mb, tag = _pair(a, b)
    return _rewrap(ma @ mb - mb @ ma, tag)


def n_bracket(a, b, order: GentileOrder):
    """Deformed bracket ``XY - q YX`` with ``q = exp(i*2*pi/(n+1))``."""
    ma, mb, tag = _pair(a, b)
    return _rewrap(ma @ mb - order.q * (mb @ ma), tag)


# ---------------------------------------------------------------------------
# Hermitian eigensolver
# ---------------------------------------------------------------------------


def eigensolve_hermitian(
    op: Union[ComplexOperator, Matrix],
    degeneracy_tol: float = 1e-8,
    hermiticity_tol: float = 1e-10,
    dense_cap: int = DENSE_EIG_CAP,
) -> list[tuple[float, int]]:
    """Ascending eigenvalues clustered into (value, multiplicity) pairs.

    Consecutive eigenvalues closer than ``degeneracy_tol`` share a cluster;
    cluster values are the cluster means and multiplicities sum to the
    dimension.  Rejects non-Hermitian input (with the measured asymmetry)
    and dimensions above ``dense_cap``.
    """
    mat, _ = _unwrap(op)
    dim = mat.shape[0]
    if dim > dense_cap:
        raise SizingError(f"dense eigensolve limited to dim <= {dense_cap}, got {dim}")
    asym = max_abs(mat - mat.getH())
    if asym > hermiticity_tol:
        raise NonHermitianError(asym)
    dense = mat.toarray()
    dense = (dense + dense.conj().T) * 0.5
    eigenvalues = np.linalg.eigvalsh(dense)

    clusters: list[tuple[float, int]] = []
    start = 0
    for pos in range(1, dim + 1):
        if pos == dim or eigenvalues[pos] - eigenvalues[pos - 1] >= degeneracy_tol:
            block = eigenvalues[start:pos]
            clusters.append((float(block.mean()), int(block.size)))
            start = pos
    return clusters
