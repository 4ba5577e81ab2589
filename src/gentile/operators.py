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
oracle, not a library path.  The kernel checks that every target is a state
of its basis and raises ``ValueError`` naming the first word that leaves
it, so a single ladder letter, which leaves every sector it acts on, is
built on full spaces only.  Amplitude products are taken in Python
scalar complex arithmetic, left to right, once per distinct tuple of met
levels in a kernel pass: numpy's vectorised complex multiply may use fused
multiply-adds (FMA), which differ in the last bit from scalar and
sparse-product arithmetic, and byte-stable reports need bit-stable
matrices.  Every builder returns plain complex CSR, pruned at ``DROP_TOL``
by :func:`as_operator`; cached matrices are shared, so they are read-only
afterwards, and building distinct operators concurrently is safe.

Every composite also commutes with the diagonal generators ``E(k,k)``, so it
is block-diagonal in the weight ``FockBasis.weights``; the class sum and
``C2`` also commute with every permutation of positions and of internal
states.  The dense eigensolve uses all three: it splits each weight block
by momentum under the cyclic translation of positions, solves one weight
per orbit of weights under relabelling of the internal states, and solves
all blocks of one size in one ``eigvalsh`` call, checking each symmetry on
the matrix first.  Its dense cap is still compared with the largest weight
block (``basis.largest_weight_block``), not with the dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import mul
from typing import Iterable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .basis import FockBasis, SizingError, _radix, enumerate_basis, subspace_label
from .scalars import GentileOrder, coupling_j, sqrt_bracket

#: Magnitude below which assembled entries are dropped.
DROP_TOL = 1e-14

#: Default largest dense matrix: the largest weight block of a solve.
DENSE_EIG_CAP = 4096

Matrix = Union[sp.spmatrix, np.ndarray]


class NonHermitianError(ValueError):
    """Raised when a Hermitian contract is violated; carries the asymmetry."""

    def __init__(self, asymmetry: float):
        super().__init__(f"matrix is not Hermitian (asymmetry {asymmetry:.3e})")
        self.asymmetry = asymmetry


def as_operator(mat: Matrix) -> sp.csr_matrix:
    """A square matrix as a new complex CSR with duplicates summed, entries
    below ``DROP_TOL`` in magnitude dropped and indices sorted; ``mat`` is
    left as it was."""
    # A CSR argument is the one input whose arrays sp.csr_matrix shares, and
    # the steps below work in place.
    out = sp.csr_matrix(mat, dtype=np.complex128, copy=sp.issparse(mat) and mat.format == "csr")
    if out.shape[0] != out.shape[1]:
        raise ValueError(f"operator must be square, got shape {out.shape}")
    out.sum_duplicates()
    if out.nnz:
        mask = np.abs(out.data) < DROP_TOL
        if mask.any():
            out.data[mask] = 0
            out.eliminate_zeros()
    out.sort_indices()
    return out


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
    """The four (n+1) x (n+1) single-mode ladder letters.

    ``a`` is the entrywise conjugate of ``b``; the daggered pair are the true
    adjoints.  The raiser column at the top state is structurally absent, so
    truncation is exact.
    """

    a: sp.csr_matrix
    b: sp.csr_matrix
    a_dag: sp.csr_matrix
    b_dag: sp.csr_matrix


@lru_cache(maxsize=64)
def single_mode_ops(order: GentileOrder) -> SingleModeSet:
    """The single-mode ladder matrices of a Gentile order: each letter of the
    word kernel on the one-mode space.
    """
    mode = enumerate_basis(1, 1, order)
    return SingleModeSet(**{name: _ladder_cached(mode, name, 0) for name in _LETTERS})


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
    another, so the pruned result is bit-identical to that sum.  A target
    that is not a state of ``basis`` raises ``ValueError`` naming its word.

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
    targets, moved = [], []  # each off-diagonal group's target ranks, and its first word
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
            acting.append((acts, shift, words[0]))
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
        for acts, shift, word in acting:
            group = weights[start:start + len(acts)].T
            start += len(acts)
            if shift == 0:
                for w in group:
                    term_diag[acts] = term_diag[acts] + w
                continue
            value = reduce(np.add, group)
            targets.append(ranks[acts] + shift)
            rows.append(np.searchsorted(ranks, targets[-1]))
            cols.append(acts)
            vals.append(value if scale is None else scale * value)
            moved.append(word)
        if scale is not None:
            term_diag = scale * term_diag
        term_diag[np.abs(term_diag) < DROP_TOL] = 0
        diag += term_diag
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    if targets:
        # Closure: every target is a basis state.  A target past the last rank
        # has the insertion index dim, so the index is clipped before the gather.
        found = ranks[np.minimum(rows[dim:], dim - 1)]
        missing = np.flatnonzero(found != np.concatenate(targets))
        if missing.size:
            group = np.searchsorted(np.cumsum([len(t) for t in targets]), missing[0], "right")
            letters = " ".join(f"{name}({flat})" for name, flat in moved[group])
            raise ValueError(f"word {letters} leaves the {subspace_label(basis.sector)} basis "
                             f"from its state {cols[dim + missing[0]]}")
    return sp.coo_matrix((np.concatenate(vals), (rows, cols)), shape=(dim, dim))


@lru_cache(maxsize=256)
def _ladder_cached(basis: FockBasis, name: str, flat: int) -> sp.csr_matrix:
    """One single-mode ladder matrix (``a``, ``b``, ``a_dag`` or ``b_dag``)
    acting on one flat mode of a full basis, identity on every other mode.
    """
    return as_operator(_apply_words(basis, [[[[(name, flat)]]]]))


def _exchange_sum(basis: FockBasis, pairs: Iterable[tuple[int, int]]) -> sp.csr_matrix:
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
def _exchange_cached(basis: FockBasis, i: int, j: int) -> sp.csr_matrix:
    """The exchange of one pair: the one-term pass of :func:`class_sum`."""
    return _exchange_sum(basis, [(i, j)])


def exchange_op(i: int, j: int, basis: FockBasis) -> sp.csr_matrix:
    """Exchange of the particles at positions ``i`` and ``j`` (both 1-based).

    Acts on the full space or on any sector basis.
    """
    if i == j:
        raise ValueError("exchange requires two distinct positions")
    if not (1 <= i < j <= basis.nu):
        raise ValueError(f"need 1 <= i < j <= nu={basis.nu}, got ({i}, {j})")
    return _exchange_cached(basis, i, j)


@lru_cache(maxsize=64)
def class_sum(basis: FockBasis) -> sp.csr_matrix:
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
def _generator_cached(basis: FockBasis, k: int, l: int) -> sp.csr_matrix:
    f = basis.mode_flat
    groups = [[[("a_dag", f(i, k)), ("b", f(i, l))], [("b_dag", f(i, k)), ("a", f(i, l))]]
              for i in range(1, basis.nu + 1)]
    return as_operator(_apply_words(basis, [groups]))


def unitary_generator(k: int, l: int, basis: FockBasis) -> sp.csr_matrix:
    """Generator E(k, l): state-l to state-k transfer summed over positions,
    the words ``a†(i,k) b(i,l)`` and ``b†(i,k) a(i,l)`` at every position.

    Acts on the full space or on any sector basis.
    """
    if not (1 <= k <= basis.m and 1 <= l <= basis.m):
        raise ValueError(f"need states in 1..{basis.m}, got ({k}, {l})")
    return _generator_cached(basis, k, l)


@lru_cache(maxsize=64)
def casimir_c1(basis: FockBasis) -> sp.csr_matrix:
    """First-order Casimir: sum of the diagonal generators, on any basis."""
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for l in range(1, basis.m + 1):
        total = total + _generator_cached(basis, l, l)
    return as_operator(total)


@lru_cache(maxsize=64)
def casimir_c2(basis: FockBasis) -> sp.csr_matrix:
    """Second-order Casimir: sum over k, l of E(k,l) E(l,k), on any basis."""
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for k in range(1, basis.m + 1):
        for l in range(1, basis.m + 1):
            total = total + _generator_cached(basis, k, l) @ _generator_cached(basis, l, k)
    return as_operator(total)


def _diagonal(vals: np.ndarray) -> sp.csr_matrix:
    return as_operator(sp.diags(vals, 0, format="csr", dtype=np.complex128))


def coupling_sum(basis: FockBasis) -> sp.csr_matrix:
    """Diagonal operator whose eigenvalue is the summed coupling weight."""
    return _diagonal(coupling_j(basis.occupations, basis.order).sum(axis=1))


def total_number(basis: FockBasis) -> sp.csr_matrix:
    """Diagonal operator counting all particles over all modes."""
    return _diagonal(basis.occupations.sum(axis=1))


# ---------------------------------------------------------------------------
# Matrix utilities
# ---------------------------------------------------------------------------


def entrywise_real(mat: sp.csr_matrix) -> sp.csr_matrix:
    """Real part of every stored entry, in the fixed occupation basis."""
    return as_operator(sp.csr_matrix((mat.data.real, mat.indices, mat.indptr), mat.shape))


def hermitian_part(mat: sp.csr_matrix) -> sp.csr_matrix:
    return as_operator((mat + mat.getH()) * 0.5)


# ---------------------------------------------------------------------------
# Hermitian eigensolver
# ---------------------------------------------------------------------------


def check_dense_dimension(dim: int, dense_cap: int = DENSE_EIG_CAP) -> None:
    """Raise ``SizingError`` when a dense matrix of ``dim`` exceeds ``dense_cap``;
    the one dense-cap check, made on a solve's largest weight block before
    anything is built."""
    if dim > dense_cap:
        raise SizingError(f"dense eigensolve needs dim {dim} > dense cap {dense_cap}")


def _permutation(basis: FockBasis, moved: np.ndarray) -> np.ndarray:
    """Row of each state's image, given the images' occupations: the kernel's
    rank arithmetic, ``searchsorted`` on ``ranks``."""
    ranks = moved.reshape(basis.dim, -1) @ _radix(basis.order.n, basis.modes)
    return np.searchsorted(basis.ranks, ranks)


def _deviation(
    mat: sp.csr_matrix, rows: np.ndarray, new_rows: np.ndarray, new_cols: np.ndarray,
    new_data: np.ndarray,
) -> float:
    """Largest entry magnitude of ``M - mat``, where ``M`` holds ``new_data`` at
    (``new_rows``, ``new_cols``), no two at one place, and ``mat`` is canonical
    with row indices ``rows``: the value ``max_abs(M - mat)`` gives, found by
    ``searchsorted`` on the entries' flat positions."""
    dim = mat.shape[0]
    places = np.append(rows * dim + mat.indices, dim * dim)  # a sentinel past every place
    moved = new_rows * dim + new_cols
    at = np.searchsorted(places, moved)
    found = places[at] == moved
    hit = np.zeros(len(places), dtype=bool)
    hit[at[found]] = True
    data = np.append(mat.data, 0)
    return float(max(np.abs(new_data - np.where(found, data[at], 0)).max(initial=0.0),
                     np.abs(data[~hit]).max(initial=0.0)))


def _translation_orbits(translation: np.ndarray, nu: int) -> tuple[np.ndarray, ...]:
    """Each state's orbit under the translation: its representative (the
    orbit's lowest row), the power ``s`` with ``T**s`` representative = state,
    and the orbit's size (the state's period)."""
    state = np.arange(len(translation))
    rep, back, period = state.copy(), np.zeros_like(state), np.zeros_like(state)
    image = state
    for power in range(1, nu + 1):
        image = translation[image]
        period[(period == 0) & (image == state)] = power
        lower = image < rep
        rep[lower], back[lower] = image[lower], power
    return rep, (nu - back) % nu, period


def _relabelling_copies(weight: tuple[int, ...]) -> int:
    """Distinct reorderings of a weight: the weight blocks that share its
    spectrum under relabelling of the internal states."""
    copies = math.factorial(len(weight))
    for value in set(weight):
        copies //= math.factorial(weight.count(value))
    return copies


@dataclass(frozen=True)
class _Orbits:
    """The orbits one solve reads: each state's weight label and translation
    orbit (``rep``, ``shift``, ``period``, see :func:`_translation_orbits`),
    the translation order ``nu``, the representatives that are solved
    (``kept``: those of descending weights), and for each of them the weight
    blocks that share its spectrum (``copies``)."""

    nu: int
    weights: np.ndarray
    rep: np.ndarray
    shift: np.ndarray
    period: np.ndarray
    kept: np.ndarray
    copies: np.ndarray


def _symmetry_orbits(
    mat: sp.csr_matrix, rows: np.ndarray, basis: Optional[FockBasis], tol: float
) -> _Orbits:
    """Check that ``mat`` keeps the symmetries of ``basis`` and find its orbits.

    Raises ``ValueError`` for an entry that couples two weight blocks (named
    by the first such entry) and for a matrix that is not invariant, to
    within ``tol``, under the translation or under an adjacent relabelling.
    ``None`` is the trivial group: every state is its own orbit.
    """
    dim = mat.shape[0]
    state = np.arange(dim)
    if basis is None:
        zeros, ones = np.zeros(dim, dtype=np.int64), np.ones(dim, dtype=np.int64)
        return _Orbits(nu=1, weights=zeros, rep=state, shift=zeros, period=ones, kept=state,
                       copies=ones)
    weights = basis.weights
    coupled = np.flatnonzero(weights[rows] != weights[mat.indices])
    if coupled.size:
        i, j = rows[coupled[0]], mat.indices[coupled[0]]
        raise ValueError(f"entry ({i}, {j}) couples weight blocks {weights[i]} and {weights[j]}")
    occupations = basis.occupations.reshape(dim, basis.nu, basis.m)
    translation = _permutation(basis, np.roll(occupations, 1, axis=1))
    symmetries = [("the cyclic translation of positions", translation)]
    for s in range(1, basis.m):
        swap = np.arange(basis.m)
        swap[[s - 1, s]] = s, s - 1
        symmetries.append((f"relabelling internal states ({s}, {s + 1})",
                           _permutation(basis, occupations[:, :, swap])))
    for name, perm in symmetries:
        deviation = _deviation(mat, rows, perm[rows], perm[mat.indices], mat.data)
        if deviation > tol:
            raise ValueError(f"matrix is not invariant under {name} (deviation {deviation:.3e})")
    rep, shift, period = _translation_orbits(translation, basis.nu)
    totals = occupations.sum(axis=1)
    kept = np.flatnonzero((rep == state) & (np.diff(totals, axis=1) <= 0).all(axis=1))
    _, first, inverse = np.unique(weights[kept], return_index=True, return_inverse=True)
    copies = np.array([_relabelling_copies(tuple(w)) for w in totals[kept[first]].tolist()],
                      dtype=np.int64)[inverse]
    return _Orbits(nu=basis.nu, weights=weights, rep=rep, shift=shift, period=period, kept=kept,
                   copies=copies)


def _momentum_stacks(
    mat: sp.csr_matrix, rows: np.ndarray, orbits: _Orbits
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (weight, momentum) blocks of ``mat``, as one ``(count, d, d)`` stack
    per block size ``d`` with the spectrum count of each block.

    A momentum state is a kept representative ``a`` with a momentum ``k``
    such that ``nu`` divides ``k * p_a``; states are ordered by (weight, k,
    a) and each (weight, k) is one block.  Each stored entry ``H[a, j]`` of a
    kept row adds ``sqrt(p_a / p_b) * omega**(k * s_j) * H[a, j]`` to the
    entry ``(a, b)`` of every block ``k`` where both ``a`` and ``b =
    rep[j]`` exist, summed by one ``bincount`` over all blocks in entry order.
    A matrix whose imaginary parts are all exactly 0 has ``H_(nu-k)`` equal
    to the conjugate of ``H_k``, with the same spectrum, so only ``k <= nu/2``
    is formed and a block with ``0 < k < nu/2`` counts twice.
    """
    nu, kept, period = orbits.nu, orbits.kept, orbits.period[orbits.kept]
    real_matrix = not mat.data.imag.any()
    momenta = np.arange(nu // 2 + 1 if real_matrix else nu)
    rep_of, k_of = np.nonzero((momenta * period[:, None]) % nu == 0)
    weight_of = orbits.weights[kept][rep_of]
    order = np.lexsort((rep_of, k_of, weight_of))
    rep_of, k_of, weight_of = rep_of[order], k_of[order], weight_of[order]
    starts = np.flatnonzero(np.diff(weight_of * nu + k_of, prepend=-1))
    sizes = np.diff(starts, append=len(order))
    block_of = np.repeat(np.arange(len(starts)), sizes)
    position = np.arange(len(order)) - starts[block_of]
    # The blocks of one size lie next to each other in one flat array, row-major.
    by_size = np.argsort(sizes, kind="stable")
    offsets = np.empty(len(sizes), dtype=np.int64)
    offsets[by_size] = np.cumsum(sizes[by_size] ** 2) - sizes[by_size] ** 2
    slot = np.full((len(kept), len(momenta)), -1)
    slot[rep_of, k_of] = np.arange(len(order))

    index = np.full(mat.shape[0], -1)
    index[kept] = np.arange(len(kept))
    taken = np.flatnonzero(index[rows] >= 0)  # the entries of the kept rows
    a, j = index[rows[taken]], mat.indices[taken]
    b = index[orbits.rep[j]]
    # omega**t for t in 0..nu-1, exact where it is 0 or +-1.
    phase = np.exp(2j * np.pi * np.arange(nu) / nu)
    phase.real[np.abs(phase.real) < 1e-15] = 0
    phase.imag[np.abs(phase.imag) < 1e-15] = 0
    source, target = slot[a], slot[b]
    entry, k = np.nonzero((source >= 0) & (target >= 0))
    source, target = source[entry, k], target[entry, k]
    values = (mat.data[taken] * np.sqrt(period[a] / period[b]))[entry]
    values = values * phase[k * orbits.shift[j][entry] % nu]
    block = block_of[source]
    flat = offsets[block] + position[source] * sizes[block] + position[target]
    total = int(offsets[by_size[-1]] + sizes[by_size[-1]] ** 2)
    real = np.bincount(flat, weights=values.real, minlength=total)
    imag = np.bincount(flat, weights=values.imag, minlength=total)

    paired = real_matrix & (k_of[starts] > 0) & (2 * k_of[starts] != nu)
    counts = orbits.copies[rep_of[starts]] * np.where(paired, 2, 1)
    stacks = []
    for size in np.unique(sizes).tolist():
        blocks = by_size[sizes[by_size] == size]
        span = slice(offsets[blocks[0]], offsets[blocks[-1]] + size * size)
        stack = real[span].reshape(-1, size, size)
        if imag[span].any():
            stack = stack + 1j * imag[span].reshape(-1, size, size)
        stacks.append((stack, counts[blocks]))
    return stacks


def eigensolve_hermitian(
    mat: sp.csr_matrix,
    basis: Optional[FockBasis] = None,
    degeneracy_tol: float = 1e-8,
    hermiticity_tol: float = 1e-10,
) -> list[tuple[float, int]]:
    """Ascending eigenvalues clustered into (value, multiplicity) pairs.

    ``mat`` acts on ``basis`` (``None`` makes it one block) and is solved in
    symmetry-adapted blocks: by weight, by momentum ``k`` under the cyclic
    translation of positions ``T: i -> i+1``, and once per orbit of weights
    under relabelling of the internal states.  ``T`` permutes the basis, and
    its rows are read by the basis's rank arithmetic.  Each translation orbit
    has a representative (its lowest row ``a``) and a period ``p_a``, and
    carries momentum ``k`` when ``nu`` divides ``k * p_a``.  The block of
    weight ``w`` and momentum ``k`` reads the representative rows only::

        H_k[a, b] = sqrt(p_a / p_b) * sum over j in orbit(b) of omega**(k * s_j) * H[a, j]

    with ``omega = exp(2 pi i / nu)`` and ``T**s_j b = j``.  Only weights in
    descending order are solved; each of their eigenvalues counts once per
    distinct reordering of the weight.  A real matrix has ``H_(nu-k)`` equal
    to the conjugate of ``H_k``, so only ``k <= nu/2`` is solved there and
    counts for both.  All blocks of one size are stacked,
    made Hermitian as ``(B + B^H) / 2``, and solved by one
    ``np.linalg.eigvalsh`` call, in real arithmetic when the stack's
    imaginary parts are all exactly 0.  Consecutive eigenvalues of the sorted
    union closer than ``degeneracy_tol`` share a cluster; cluster values are
    the count-weighted means and multiplicities sum to the dimension.

    Rejects non-Hermitian input (with the measured asymmetry) and, with
    ``ValueError``, any stored entry that couples two weight blocks and a
    matrix that is not invariant under ``T`` or under each adjacent
    relabelling ``(s, s+1)`` to within ``hermiticity_tol``.  The caller sized
    the largest weight block with :func:`check_dense_dimension` before
    building ``mat``.
    """
    mat = sp.csr_matrix(mat)
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    asym = max_abs(mat - mat.getH())
    if asym > hermiticity_tol:
        raise NonHermitianError(asym)
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    orbits = _symmetry_orbits(mat, rows, basis, hermiticity_tol)
    eigenvalues, counts = [], []
    for stack, copies in _momentum_stacks(mat, rows, orbits):
        stack = (stack + stack.conj().swapaxes(1, 2)) * 0.5
        eigenvalues.append(np.linalg.eigvalsh(stack).ravel())
        counts.append(np.repeat(copies, stack.shape[-1]))
    eigenvalues, counts = np.concatenate(eigenvalues), np.concatenate(counts)
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues, counts = eigenvalues[order], counts[order]
    cuts = np.flatnonzero(np.diff(eigenvalues, prepend=-np.inf) >= degeneracy_tol)
    multiplicities = np.add.reduceat(counts, cuts)
    means = np.add.reduceat(eigenvalues * counts, cuts) / multiplicities
    return list(zip(means.tolist(), multiplicities.tolist()))
