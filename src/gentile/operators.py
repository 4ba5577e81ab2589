"""Sparse operator kernel: ladder matrices, word application, and composites.

Single-mode raising/lowering matrices come straight from the ladder actions
(amplitudes are principal square roots of the q-numbers and their
conjugates).  Multi-mode operators act as tensor products: operators on
different modes commute exactly, with no inter-mode phase strings; all
statistics live in the on-mode deformed bracket.

Every multi-mode operator is built by one word kernel, on the full space or
directly on a sector: a word of ladder letters maps a state to at most one
state, so it shifts rows of the occupation array, multiplies the ladder
amplitudes met on the way and ranks the targets by ``searchsorted`` on
``FockBasis.ranks``.  The exchange is a sum of quartic words, the generator
``E(k,l)`` a sum of two-letter words over positions, and ``C1``, ``C2`` are
sums and products of cached generators.  The class sum is one kernel pass
with one term per position pair, not a sum of exchange operators, and it
keeps their rounding: each pair's diagonal is halved and pruned on its own
and then added to the running diagonal in pair order, and each off-diagonal
entry, which no two pairs share, is half the sum of its two words.  All of
them conserve every per-position total, so a sector's matrix equals the
full-space one sliced at the sector's ``ranks``; that slice is a test
oracle, not a library path.  Single ladder letters leave every sector and
are built on full spaces only.  Amplitude products are taken in Python
scalar complex arithmetic, left to right, once per distinct tuple of met
levels in a kernel pass: numpy's vectorised complex multiply may use fused
multiply-adds (FMA), which differ in the last bit from scalar and
sparse-product arithmetic, and byte-stable reports need bit-stable
matrices.  Assembled matrices are pruned at ``DROP_TOL`` and treated as
immutable afterwards; building distinct operators concurrently is safe.

Operators are untagged: ``ComplexOperator`` holds only its pruned CSR
matrix, and every builder is handed its basis.  The matrix utilities
(``max_abs``, ``entrywise_real``, ``hermitian_part``, ``eigensolve_hermitian``)
take plain CSR; a caller holding an operator passes its ``.mat``.

Every composite also commutes with the diagonal generators ``E(k,k)``, so it
is block-diagonal in the weight ``FockBasis.weights``.  The dense eigensolve
works one weight block at a time, in real arithmetic where the block is
real, and its dense cap is compared with the largest block
(``basis.largest_weight_block``), not with the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import mul
from typing import Iterable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .basis import FockBasis, SizingError, _radix, enumerate_basis
from .scalars import GentileOrder, coupling_j, sqrt_bracket

#: Magnitude below which assembled entries are dropped.
DROP_TOL = 1e-14

#: Default largest dense matrix: a weight block of a solve, or a dense evaluation's space.
DENSE_EIG_CAP = 4096

Matrix = Union[sp.spmatrix, np.ndarray]


class NonHermitianError(ValueError):
    """Raised when a Hermitian contract is violated; carries the asymmetry."""

    def __init__(self, asymmetry: float):
        super().__init__(f"matrix is not Hermitian (asymmetry {asymmetry:.3e})")
        self.asymmetry = asymmetry


@dataclass(frozen=True)
class ComplexOperator:
    """Sparse complex square matrix, pruned at ``DROP_TOL``."""

    mat: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def nnz(self) -> int:
        return self.mat.nnz


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


def as_operator(mat: Matrix) -> ComplexOperator:
    """Wrap a square matrix as a pruned operator."""
    out = _pruned(mat)
    if out.shape[0] != out.shape[1]:
        raise ValueError(f"operator must be square, got shape {out.shape}")
    return ComplexOperator(mat=out)


def max_abs(mat: Matrix) -> float:
    """Largest entry magnitude (0.0 for an empty matrix)."""
    if not isinstance(mat, sp.csr_matrix):
        mat = sp.csr_matrix(mat)
    return float(np.abs(mat.data).max(initial=0.0))


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
    """The single-mode ladder matrices of a Gentile order: each letter of the
    word kernel on the one-mode space.
    """
    mode = enumerate_basis(1, 1, order)
    letters = {name: _ladder_cached(mode, name, 0).mat for name in _LETTERS}
    num = sp.diags(np.arange(order.n + 1, dtype=np.float64), 0, format="csr",
                   dtype=np.complex128)
    return SingleModeSet(**letters, num=num)


# ---------------------------------------------------------------------------
# Composite operators
# ---------------------------------------------------------------------------


#: Each letter name as (raises, takes the conjugate ``b`` amplitude).
_LETTERS = {"a_dag": (True, False), "b_dag": (True, True), "b": (False, False), "a": (False, True)}

#: A word: its letters ``(name, flat mode)``, written left to right.
_Word = Sequence[tuple[str, int]]

#: A group: words that differ only in which letters are conjugated.
_Group = Sequence[_Word]


def _apply_words(
    basis: FockBasis, terms: Sequence[Sequence[_Group]], scale: Optional[float] = None
) -> sp.coo_matrix:
    """Sum of terms of words applied to the occupation array of ``basis``.

    A word is a left-to-right list of letters ``(name, flat mode)``; its
    rightmost letter acts first.  The words of one group act on the same rows
    and send each to the same target; all groups have the same letter names
    and differ only in modes.  Each term is summed as the sparse sum of its
    words' matrix products is: a group that returns every state to itself
    adds to the diagonal as ``(acc + w1) + w2`` in group order, any other
    group stores ``w1 + w2`` at its targets.  The term is then multiplied by
    ``scale`` (``None`` multiplies by nothing, which keeps the signed zeros of
    the words), and its diagonal is pruned at ``DROP_TOL`` and added to the
    diagonals of the terms before it.  Terms share no off-diagonal entry, so
    pruning those once, in :func:`as_operator`, prunes each term's.  These
    are the roundings of summing the terms' pruned matrices one after
    another, so the pruned result is bit-identical to that sum.

    Amplitude products are taken left to right, once per distinct tuple of
    met levels in the whole call, found by one ``np.unique`` per term.
    """
    n, dim = basis.order.n, basis.dim
    ranks = basis.ranks
    columns: dict[int, np.ndarray] = {}  # a contiguous copy of each occupation column read
    place = _radix(n, basis.modes).tolist()
    amp: dict[int, complex] = {}  # the ladder amplitude of each level met so far
    products: dict[tuple[int, ...], list[complex]] = {}  # the word products of each level tuple
    diag = np.zeros(dim, dtype=np.complex128)
    rows, cols, vals = [np.arange(dim)], [np.arange(dim)], [diag]
    conj = [[_LETTERS[name][1] for name, _ in word] for word in terms[0][0]]
    for groups in terms:
        acting, met_rows = [], []
        for words in groups:
            # The level each letter meets, found from the right: a lowerer
            # meets the current level, a raiser the level it raises to.  The
            # word acts where every met level lies in 1..n.
            current: dict[int, np.ndarray] = {}
            met = []
            shift = 0
            for name, flat in reversed(words[0]):
                if flat not in columns:
                    columns[flat] = np.ascontiguousarray(basis.occupations[:, flat])
                level = current.get(flat, columns[flat])
                if _LETTERS[name][0]:
                    current[flat] = level + 1
                    met.append(current[flat])
                    shift += place[flat]
                else:
                    current[flat] = level - 1
                    met.append(level)
                    shift -= place[flat]
            met = np.stack(met[::-1])  # one row per letter, left to right
            acts = np.flatnonzero(((met >= 1) & (met <= n)).all(axis=0))
            acting.append((acts, shift))
            met_rows.append(met[:, acts])
        met = np.concatenate(met_rows, axis=1)
        # One integer per acting row, base (largest met level + 1): its numeric
        # order is the lexicographic order of the met levels.
        key = _radix(int(met.max(initial=0)), len(met)) @ met
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        distinct = [tuple(levels) for levels in met[:, first].T.tolist()]
        for levels in distinct:
            if levels not in products:
                # Only levels some word meets are evaluated, so a huge order costs nothing.
                for u in set(levels) - amp.keys():
                    amp[u] = sqrt_bracket(u, basis.order)
                products[levels] = [
                    reduce(mul, [amp[u].conjugate() if c else amp[u] for u, c in zip(levels, flags)])
                    for flags in conj
                ]
        weights = np.array([products[levels] for levels in distinct],
                           dtype=np.complex128).reshape(-1, len(conj))[inverse]
        term_diag = np.zeros(dim, dtype=np.complex128)
        start = 0
        for acts, shift in acting:
            group = weights[start:start + len(acts)].T
            start += len(acts)
            if shift == 0:
                for w in group:
                    term_diag[acts] = term_diag[acts] + w
                continue
            value = reduce(np.add, group)
            rows.append(np.searchsorted(ranks, ranks[acts] + shift))
            cols.append(acts)
            vals.append(value if scale is None else scale * value)
        if scale is not None:
            term_diag = scale * term_diag
        term_diag[np.abs(term_diag) < DROP_TOL] = 0
        diag += term_diag
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )


@lru_cache(maxsize=256)
def _ladder_cached(basis: FockBasis, name: str, flat: int) -> ComplexOperator:
    """One single-mode ladder matrix (``a``, ``b``, ``a_dag`` or ``b_dag``)
    acting on one flat mode of a full basis, identity on every other mode.
    """
    return as_operator(_apply_words(basis, [[[[(name, flat)]]]]))


def _exchange_sum(basis: FockBasis, pairs: Iterable[tuple[int, int]]) -> ComplexOperator:
    """Sum of the exchanges of ``pairs``, built in one kernel pass.

    Each pair ``(i, j)`` is one term: half the sum over internal states
    ``k, l`` (one group each, in row-major order) of the two quartic words
    ``a†(i,k) a†(j,l) b(i,l) b(j,k)`` and ``a†(i,k) b†(j,l) b(i,l) a(j,k)``.
    Both words of one ``(k, l)`` send a state to the same target, which is
    the state itself only for ``k == l``; two pairs change different
    positions, so their terms share no off-diagonal entry.
    """
    f = basis.mode_flat
    terms = [
        [[[("a_dag", f(i, k)), ("a_dag", f(j, l)), ("b", f(i, l)), ("b", f(j, k))],
          [("a_dag", f(i, k)), ("b_dag", f(j, l)), ("b", f(i, l)), ("a", f(j, k))]]
         for k in range(1, basis.m + 1) for l in range(1, basis.m + 1)]
        for i, j in pairs
    ]
    # The two quartic words coincide on single-occupancy states, so the raw
    # sum would exchange with amplitude 2; halving makes each pair's operator
    # the unit transposition there (tau^2 = 1 on the spin sector).
    return as_operator(_apply_words(basis, terms, scale=0.5))


@lru_cache(maxsize=256)
def _exchange_cached(basis: FockBasis, i: int, j: int) -> ComplexOperator:
    """The exchange of one pair: the one-term pass of :func:`class_sum`."""
    return _exchange_sum(basis, [(i, j)])


def exchange_op(i: int, j: int, basis: FockBasis) -> ComplexOperator:
    """Exchange of the particles at positions ``i`` and ``j`` (both 1-based).

    Acts on the full space or on any sector basis.
    """
    if i == j:
        raise ValueError("exchange requires two distinct positions")
    if not (1 <= i < j <= basis.nu):
        raise ValueError(f"need 1 <= i < j <= nu={basis.nu}, got ({i}, {j})")
    return _exchange_cached(basis, i, j)


@lru_cache(maxsize=64)
def class_sum(basis: FockBasis) -> ComplexOperator:
    """Sum of all pair exchanges (the transposition-class operator).

    Acts on the full space or on any sector basis.  One kernel pass builds
    it, one term per pair ``(i, j)`` in ascending order, with the rounding of
    summing the pruned :func:`exchange_op` matrices in that order: each
    pair's diagonal is halved and pruned before it is added to the running
    diagonal, and each off-diagonal entry is ``0.5 * (w1 + w2)``.
    """
    if basis.nu < 2:
        raise ValueError(f"class sum needs at least two positions, got nu={basis.nu}")
    return _exchange_sum(basis, combinations(range(1, basis.nu + 1), 2))


@lru_cache(maxsize=256)
def _generator_cached(basis: FockBasis, k: int, l: int) -> ComplexOperator:
    f = basis.mode_flat
    groups = [[[("a_dag", f(i, k)), ("b", f(i, l))], [("b_dag", f(i, k)), ("a", f(i, l))]]
              for i in range(1, basis.nu + 1)]
    return as_operator(_apply_words(basis, [groups]))


def unitary_generator(k: int, l: int, basis: FockBasis) -> ComplexOperator:
    """Generator E(k, l): state-l to state-k transfer summed over positions,
    the words ``a†(i,k) b(i,l)`` and ``b†(i,k) a(i,l)`` at every position.

    Acts on the full space or on any sector basis.
    """
    if not (1 <= k <= basis.m and 1 <= l <= basis.m):
        raise ValueError(f"need states in 1..{basis.m}, got ({k}, {l})")
    return _generator_cached(basis, k, l)


@lru_cache(maxsize=64)
def casimir_c1(basis: FockBasis) -> ComplexOperator:
    """First-order Casimir: sum of the diagonal generators, on any basis."""
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for l in range(1, basis.m + 1):
        total = total + _generator_cached(basis, l, l).mat
    return as_operator(total)


@lru_cache(maxsize=64)
def casimir_c2(basis: FockBasis) -> ComplexOperator:
    """Second-order Casimir: sum over k, l of E(k,l) E(l,k), on any basis."""
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for k in range(1, basis.m + 1):
        for l in range(1, basis.m + 1):
            total = total + _generator_cached(basis, k, l).mat @ _generator_cached(basis, l, k).mat
    return as_operator(total)


def _diagonal(vals: np.ndarray) -> ComplexOperator:
    return as_operator(sp.diags(vals, 0, format="csr", dtype=np.complex128))


def coupling_sum(basis: FockBasis) -> ComplexOperator:
    """Diagonal operator whose eigenvalue is the summed coupling weight."""
    return _diagonal(coupling_j(basis.occupations, basis.order).sum(axis=1))


def total_number(basis: FockBasis) -> ComplexOperator:
    """Diagonal operator counting all particles over all modes."""
    return _diagonal(basis.occupations.sum(axis=1))


# ---------------------------------------------------------------------------
# Matrix utilities
# ---------------------------------------------------------------------------


def entrywise_real(mat: sp.csr_matrix) -> sp.csr_matrix:
    """Real part of every stored entry, in the fixed occupation basis."""
    out = mat.copy()
    out.data = out.data.real.astype(np.complex128)
    return _pruned(out)


def hermitian_part(mat: sp.csr_matrix) -> sp.csr_matrix:
    return _pruned((mat + mat.getH()) * 0.5)


# ---------------------------------------------------------------------------
# Hermitian eigensolver
# ---------------------------------------------------------------------------


def check_dense_dimension(dim: int, dense_cap: int = DENSE_EIG_CAP) -> None:
    """Raise ``SizingError`` when a dense matrix of ``dim`` exceeds ``dense_cap``;
    the one dense-cap check, made before anything is built.  A blocked solve
    passes its largest block, a dense evaluation its whole dimension."""
    if dim > dense_cap:
        raise SizingError(f"dense eigensolve needs dim {dim} > dense cap {dense_cap}")


def _block_eigvalsh(block: sp.csr_matrix) -> np.ndarray:
    """Eigenvalues of one Hermitian block, densified alone; a block whose
    imaginary parts are all exactly 0 is solved in real arithmetic."""
    if not block.data.imag.any():
        block = block.real
    dense = block.toarray()
    dense += dense.conj().T  # in place: the sum takes no third dense array
    dense *= 0.5
    return np.linalg.eigvalsh(dense)


def eigensolve_hermitian(
    mat: sp.csr_matrix,
    blocks: Optional[np.ndarray] = None,
    degeneracy_tol: float = 1e-8,
    hermiticity_tol: float = 1e-10,
) -> list[tuple[float, int]]:
    """Ascending eigenvalues clustered into (value, multiplicity) pairs.

    ``blocks`` labels each row (a basis's ``weights``); rows sharing a label
    form one block, solved on its own, and ``None`` makes the matrix one
    block.  Consecutive eigenvalues of the sorted union closer than
    ``degeneracy_tol`` share a cluster; cluster values are the cluster means
    and multiplicities sum to the dimension.  Rejects non-Hermitian input
    (with the measured asymmetry) and, with ``ValueError``, any stored entry
    that couples two blocks.  The caller sized the largest block with
    :func:`check_dense_dimension` before building ``mat``.
    """
    mat = sp.csr_matrix(mat)
    dim = mat.shape[0]
    asym = max_abs(mat - mat.getH())
    if asym > hermiticity_tol:
        raise NonHermitianError(asym)
    if blocks is None:
        blocks = np.zeros(dim, dtype=np.int64)
    rows = np.repeat(np.arange(dim), np.diff(mat.indptr))
    coupled = np.flatnonzero(blocks[rows] != blocks[mat.indices])
    if coupled.size:
        i, j = rows[coupled[0]], mat.indices[coupled[0]]
        raise ValueError(f"entry ({i}, {j}) couples weight blocks {blocks[i]} and {blocks[j]}")
    order = np.argsort(blocks, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(blocks[order])) + 1), dim]
    permuted = mat[order][:, order]
    eigenvalues = np.sort(np.concatenate([
        _block_eigvalsh(permuted[start:stop, start:stop]) for start, stop in zip(bounds, bounds[1:])
    ]))

    clusters: list[tuple[float, int]] = []
    start = 0
    for pos in range(1, dim + 1):
        if pos == dim or eigenvalues[pos] - eigenvalues[pos - 1] >= degeneracy_tol:
            block = eigenvalues[start:pos]
            clusters.append((float(block.mean()), int(block.size)))
            start = pos
    return clusters
