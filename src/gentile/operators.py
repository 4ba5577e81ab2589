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
``FockBasis.ranks``.  A builder gives the kernel its words as arrays: the
letter names of the words of one group, and a ``(parts, terms, groups,
letters)`` integer array of flat modes from ``FockBasis.flat_modes``.  The
exchange is a sum of quartic words, the generator ``E(k,l)`` a sum of
two-letter words over positions, and ``C1``, ``C2`` are sums and products
of cached generators.
The kernel hands back one matrix per part, so a family of operators is one
pass: all ``m**2`` generators of a basis come from one pass, and all its
pair exchanges from another, each family cached by its basis.  The class
sum and a single ladder matrix are families of one part.  The class sum
stays one summed pass with one term per position pair, and it keeps
the rounding of summing the exchange operators: each pair's diagonal is
halved and pruned on its own and then added to the running diagonal in
pair order, and each off-diagonal entry, which no two pairs share, is half
the sum of its two words.  The kernel applies all groups of a chunk of whole
terms at once, and one ``bincount`` adds each term's diagonal in input
order, group then word, which are the sequential sums bit for bit.  All
composites conserve every per-position total, so a sector's matrix equals
the full-space one sliced at the sector's ``ranks``; that slice is a test
oracle, not a library path.  The kernel checks that every target is a state
of its basis and raises ``ValueError`` naming the first word that leaves
it, so a single ladder letter, which leaves every sector it acts on, is
built on full spaces only.  Amplitude products are taken in Python scalar
complex arithmetic, left to right, once per distinct tuple of met levels in
a chunk: numpy's vectorised complex multiply may use fused multiply-adds
(FMA), which differ in the last bit from scalar and sparse-product
arithmetic, and byte-stable reports need bit-stable matrices.  Every
builder returns a :class:`CSR`, the module's own canonical complex CSR
type on numpy alone, pruned at ``DROP_TOL`` by :func:`as_operator`, and
every matrix argument of the module is one.  Its sums, differences, scalar
multiples and products round exactly as the compiled CSR kernels the tests
hold them to, and its arrays are read-only, so a cached matrix shared
between callers cannot be changed by one of them, and building distinct
operators concurrently is safe.

A signed sum of matrices and products, ``t0 ± t1 ± ...``, is one
:func:`signed_sum` pass with the bits of the chain of ``+``, ``-`` and ``@``
it replaces; those three are its one- and two-term cases, so the contract
has one implementation.  Its rounding contract: each product is formed from
separate real multiplies (no FMA), and each output entry of a product is
summed from 0 in ascending inner index by ``bincount``; a matrix term's
stored values are scattered by assignment, since a ``bincount`` would turn
a ``-0.0`` part into ``+0.0``; the first term is taken as it is and each
later one applied by ``np.add`` or ``np.subtract``, an absent entry reading
``0 + 0j``; an exact complex zero between two terms becomes ``0 + 0j`` (the
entry the chain drops), and the exact zeros of the result are dropped.  A
scalar multiplies a matrix before it enters and never a product's sum,
which a complex scale may round differently (the FMA note above).
:func:`commutator` is the two-term case of products, and the Casimirs start
from ``diagonal_operator`` of zeros, a matrix with no stored entry, which
keeps the rounding of ``0 + x``.

Every composite also commutes with the diagonal generators ``E(k,k)``, so it
is block-diagonal in the weight ``FockBasis.weights``; the class sum and
``C2`` also commute with every permutation of positions and of internal
states.  Both spectra, :func:`eigensolve_hermitian` of a built matrix and
:func:`class_sum_spectrum` from the class sum's columns of the kept
translation representatives, use all three in :func:`_block_spectrum`, one
block size at a time.  The two permutation symmetries come from the
construction, and the tests check them.  The dense cap is compared with the
largest weight block, not with the dimension, by ``basis.check_dimension``.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import accumulate, combinations
from operator import mul
from numbers import Number
from typing import Optional, Sequence

import numpy as np

from .basis import FockBasis, _radix, subspace_label
from .scalars import coupling_j, sqrt_bracket

#: Magnitude below which assembled entries are dropped.
DROP_TOL = 1e-14

#: Eigenvalues of a solve closer than this share a cluster.
DEGENERACY_TOL = 1e-8

#: Largest block asymmetry a solve accepts.
HERMITICITY_TOL = 1e-10


class NonHermitianError(ValueError):
    """Raised when a Hermitian contract is violated; carries the asymmetry."""

    def __init__(self, asymmetry: float):
        super().__init__(f"matrix is not Hermitian (asymmetry {asymmetry:.3e})")
        self.asymmetry = asymmetry


class CSR:
    """An immutable complex matrix in canonical CSR form.

    Row ``i`` stores its entries at ``indptr[i]:indptr[i + 1]`` of
    ``indices`` (columns, strictly ascending) and ``data`` (``complex128``).
    The three arrays are read-only, so an operator that a cache hands out
    cannot be changed by its caller.  The arithmetic is bit for bit that of
    the classic compiled CSR kernels, which the tests hold it to: ``A + B``,
    ``A - B`` and ``A @ B`` are the :func:`signed_sum` cases ``(1, A), (±1,
    B)`` and ``(1, A, B)``; ``c * A`` multiplies the stored entries by the
    scalar ``c`` and keeps every place; ``A.getH()`` is the conjugate
    transpose.
    """

    __slots__ = ("indptr", "indices", "data", "shape")
    __array_ufunc__ = None  # a numpy scalar on the left defers to __rmul__

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 shape: tuple[int, int]):
        """Take canonical ``int64``, ``int64`` and ``complex128`` arrays as
        they are, uncopied, and make them read-only."""
        for name, array in (("indptr", indptr), ("indices", indices), ("data", data)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "shape", (int(shape[0]), int(shape[1])))

    def __setattr__(self, name, value):
        raise AttributeError(f"CSR is immutable: cannot set {name!r}")

    @property
    def nnz(self) -> int:
        return len(self.data)

    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.arange(self.shape[0]).repeat(self.indptr[1:] - self.indptr[:-1])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.complex128)
        out[self.rows(), self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        rows = self.rows()
        on = rows == self.indices
        out = np.zeros(min(self.shape), dtype=np.complex128)
        out[rows[on]] = self.data[on]
        return out

    def getH(self) -> CSR:
        """The conjugate transpose: each column, in ascending row order, as a row."""
        order = np.argsort(self.indices, kind="stable")
        counts = np.bincount(self.indices, minlength=self.shape[1])
        return CSR(np.concatenate(([0], np.cumsum(counts))), self.rows()[order],
                   self.data.conj()[order], self.shape[::-1])

    def _places(self) -> np.ndarray:
        """The flat place ``row * columns + column`` of each stored entry, ascending."""
        return self.rows() * self.shape[1] + self.indices

    def __add__(self, other) -> CSR:
        return signed_sum([(1, self), (1, other)]) if isinstance(other, CSR) else NotImplemented

    def __sub__(self, other) -> CSR:
        return signed_sum([(1, self), (-1, other)]) if isinstance(other, CSR) else NotImplemented

    def __mul__(self, scalar) -> CSR:
        if not isinstance(scalar, Number):
            return NotImplemented
        return CSR(self.indptr, self.indices, self.data * scalar, self.shape)

    __rmul__ = __mul__

    def __matmul__(self, other) -> CSR:
        return signed_sum([(1, self, other)]) if isinstance(other, CSR) else NotImplemented


def _products(a: CSR, b: CSR) -> tuple:
    """Every product ``a[i, j] * b[j, k]``, by entry of ``a`` (so by row, then
    ascending ``j``) and along row ``j`` of ``b``: the shape of ``a @ b``,
    each product's flat place in it, and its real and imaginary parts, each
    formed from separate real multiplies (no fused multiply-add)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    # Entry e of ``a`` meets the entries ``right`` of ``b``.
    starts = b.indptr[a.indices]
    counts = b.indptr[a.indices + 1] - starts
    ends = np.add.accumulate(counts)
    right = np.arange(ends[-1] if len(ends) else 0) + (starts - ends + counts).repeat(counts)
    places = (a.rows() * b.shape[1]).repeat(counts) + b.indices[right]
    x, y = a.data.repeat(counts), b.data[right]
    del right  # freed before the products' temporaries
    real, imag = x.real * y.real, x.real * y.imag
    real -= x.imag * y.imag
    imag += x.imag * y.real
    return (a.shape[0], b.shape[1]), places, real, imag


def _unique_places(places: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``places``, ascending, and the index of each place among
    them, found by one stable sort."""
    order = np.argsort(places, kind="stable")
    ordinal = places[order]
    fresh = np.empty(len(places), dtype=bool)
    fresh[:1] = True
    np.not_equal(ordinal[1:], ordinal[:-1], out=fresh[1:])
    places = ordinal.compress(fresh)
    # The sorted places are read; their buffer takes each one's ordinal.
    np.add.accumulate(fresh, dtype=np.int64, out=ordinal)
    ordinal -= 1
    slot = np.empty(len(ordinal), dtype=np.int64)
    slot[order] = ordinal
    return places, slot


def signed_sum(terms: Sequence[tuple]) -> CSR:
    """``t0 ± t1 ± t2 ...`` in one pass, bit for bit the chain of ``CSR``
    operations it stands for, ``((t0 ± t1) ± t2) ...``.

    Each of the one or more terms is ``(sign, A)`` for the matrix ``A`` or
    ``(sign, A, B)`` for the product ``A @ B``; a sign is ``+1`` or ``-1``,
    the first ``+1``.  Every product of every term is enumerated once, and
    one stable sort of all the terms' places gives each its output entry.
    Each term is then evaluated on the distinct places and applied in order,
    under the rounding contract of the module docstring.
    """
    if not terms or terms[0][0] != 1 or any(sign not in (1, -1) for sign, *_ in terms):
        raise ValueError("signed_sum needs one or more terms with signs +1 or -1, the first +1")
    shapes, places, parts = set(), [], []
    for _, *factors in terms:
        if len(factors) == 2:
            shape, term_places, real, imag = _products(*factors)
            values = (real, imag)
        else:
            shape, term_places, values = factors[0].shape, factors[0]._places(), factors[0].data
        shapes.add(shape)
        places.append(term_places)
        parts.append(values)
    if len(shapes) > 1:
        raise ValueError(f"terms of shapes {sorted(shapes)} cannot be summed")
    bounds = list(accumulate(map(len, places), initial=0))
    places = np.concatenate(places)  # the terms' own arrays are freed before the sort
    places, slot = _unique_places(places)
    for index, ((sign, *_), values) in enumerate(zip(terms, parts)):
        at = slot[bounds[index]:bounds[index + 1]]
        term = np.zeros(len(places), dtype=np.complex128)
        if isinstance(values, tuple):
            term.real = np.bincount(at, values[0], len(places))
            term.imag = np.bincount(at, values[1], len(places))
        else:
            term[at] = values
        if index == 0:
            total = term
            continue
        if index > 1:
            total[total == 0] = 0  # an exact zero the chain drops reads 0 + 0j
        (np.add if sign == 1 else np.subtract)(total, term, out=total)
    keep = total != 0
    if not keep.all():
        places, total = places.compress(keep), total.compress(keep)
    return _from_places(places, total, shapes.pop())


def commutator(a: CSR, b: CSR) -> CSR:
    """``a @ b - b @ a`` in one :func:`signed_sum` pass, bit for bit."""
    return signed_sum([(1, a, b), (-1, b, a)])


def _from_places(places: np.ndarray, values: np.ndarray, shape: tuple[int, int]) -> CSR:
    """The CSR with ``values`` at the ascending, distinct flat ``places``."""
    rows = places // shape[1]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.add.accumulate(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSR(indptr, places - rows * shape[1], values, shape)


def _coo(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]) -> CSR:
    """The CSR of triplets: one stable sort by place, and the values of a
    place stored more than once summed in input order."""
    places = np.asarray(rows, dtype=np.int64) * shape[1] + cols
    order = np.argsort(places, kind="stable")
    places, values = places[order], np.asarray(values, dtype=np.complex128)[order]
    fresh = np.diff(places, prepend=-1) != 0
    if not fresh.all():
        slot = fresh.cumsum() - 1
        summed = np.empty(slot[-1] + 1, dtype=np.complex128)
        summed.real = np.bincount(slot, values.real, len(summed))
        summed.imag = np.bincount(slot, values.imag, len(summed))
        places, values = places[fresh], summed
    return _from_places(places, values, shape)


def diagonal_operator(values: np.ndarray) -> CSR:
    """The diagonal matrix of ``values``, every nonzero one stored as it is."""
    values = np.asarray(values, dtype=np.complex128)
    rows = np.flatnonzero(values)
    return _from_places(rows * (len(values) + 1), values[rows], (len(values), len(values)))


def as_operator(mat: CSR) -> CSR:
    """A square matrix with entries below ``DROP_TOL`` in magnitude dropped;
    ``mat`` is left as it was."""
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator must be square, got shape {mat.shape}")
    keep = ~(np.abs(mat.data) < DROP_TOL)
    if keep.all():
        return mat
    kept = np.concatenate(([0], np.cumsum(keep)))
    return CSR(kept[mat.indptr], mat.indices[keep], mat.data[keep], mat.shape)


def max_abs(mat: CSR) -> float:
    """Largest entry magnitude (0.0 for an empty matrix)."""
    return float(np.abs(mat.data).max(initial=0.0))


# ---------------------------------------------------------------------------
# Composite operators
# ---------------------------------------------------------------------------


#: Each letter name as (raises, takes the conjugate ``b`` amplitude).
_LETTERS = {"a_dag": (True, False), "b_dag": (True, True), "b": (False, False), "a": (False, True)}

#: Met levels (groups times letters times acting states) that one kernel
#: chunk of whole terms may hold; a larger term is a chunk of its own.
_CHUNK = 2**16


def _apply_words(
    basis: FockBasis, words: Sequence[Sequence[str]], modes: np.ndarray,
    scale: Optional[float] = None, states: Optional[np.ndarray] = None,
) -> list[CSR]:
    """Sums of terms of words applied to the occupation array of ``basis``.

    ``words`` names the letters of each word of a group, left to right, so
    the rightmost letter acts first; the words differ only in which letters
    take the conjugate amplitude, so they act on the same rows and send each
    to the same target.  ``modes`` is a ``(parts, terms, groups, letters)``
    integer array: ``modes[p, t, g, :]`` holds the flat mode of each letter
    in group ``g`` of term ``t`` of part ``p``.  The result is a list of
    ``parts`` matrices, each the sum of its own terms, so a family of
    operators is one pass and a single operator is a family of one part.  A
    group that returns every state to itself adds to its term's diagonal as
    ``(acc + w1) + w2``, in group order; any other group stores ``w1 + w2``
    at its targets.  Each term is multiplied by ``scale`` (``None`` keeps
    the signed zeros of the words), and its diagonal is pruned at
    ``DROP_TOL`` and added to the diagonals of the terms before it in its
    part; each off-diagonal entry is tagged with its part.  Terms share no
    off-diagonal entry, so pruning those once, in :func:`as_operator`,
    prunes each term's: a pruned part is bit-identical to summing its
    terms' pruned matrices one after another.  The words act on the rows
    ``states`` (ascending; every state by default): a matrix stores
    ``M[target, source]``, so it holds the columns of those states only,
    with the bits of the same columns of the whole matrix.

    Whole terms are taken in chunks of at most ``_CHUNK`` met levels (a
    larger term is a chunk alone), each in one array pass.  The level every
    letter meets is gathered from a contiguous copy of the occupation
    columns, in the smallest integer type that holds ``n + letters + 1``: a
    lowerer meets the level the letters to its right on its mode leave, a
    raiser the level it raises to.  A word acts where every met level lies
    in 1..n.  One ``bincount`` per real and imaginary part sums each term's
    diagonal in input order, group then word, so its sums are the
    sequential ones above.  A target that is not a state of ``basis`` raises
    ``ValueError`` naming the first word of the first such group.  A chunk
    that ends on a part boundary hands back the parts it completes: they are
    sorted as the rows of one tall matrix, part-major, and sliced apart, so a
    family holds the unsorted entries of one chunk's parts at a time.
    """
    n, dim, ranks = basis.order.n, basis.dim, basis.ranks
    sources = np.arange(dim) if states is None else states
    width = len(sources)  # the acting states
    terms, groups, length = modes.shape[1:]
    modes = modes.reshape(-1, groups, length)  # the terms of every part, part-major
    raises = np.array([_LETTERS[name][0] for name in words[0]])
    conj = [[_LETTERS[name][1] for name in word] for word in words]
    step = np.where(raises, 1, -1)
    shift = (step * _radix(n, basis.modes)[modes]).sum(axis=-1).reshape(-1)
    # Each letter's met level less its column's level: the steps of the
    # letters to its right on the same mode, plus one for a raiser.
    level_type = np.min_scalar_type(-(n + length + 1))
    same_mode = modes[..., :, None] == modes[..., None, :]
    offset = (np.triu(same_mode, 1) @ step + raises).astype(level_type)
    occupations = basis.occupations if states is None else basis.occupations[states]
    columns = np.ascontiguousarray(occupations.T, dtype=level_type)
    amp: dict[int, complex] = {}  # the ladder amplitude of each level met so far
    per_chunk = max(1, _CHUNK // (groups * length * width))
    # The parts from ``done`` on that the chunks so far reach: their running
    # diagonals, and their off-diagonal entries with rows tagged by the part.
    done, diag, out = 0, np.zeros((0, width), dtype=np.complex128), []
    rows, cols, vals = [], [], []
    for first in range(0, len(modes), per_chunk):
        last = min(first + per_chunk, len(modes))
        met = columns[modes[first:last]]  # (terms, groups, letters, states)
        met += offset[first:last, ..., None]
        at = np.flatnonzero(((met >= 1) & (met <= n)).all(axis=2))
        group, row = np.divmod(at, width)  # group: the index in the chunk, term-major
        # One integer per acting row: its met levels as digits in base (the
        # largest level an acting letter can meet + 1).
        base = min(n, int(met.max())) + 1
        key = np.zeros(len(at), dtype=np.int64)
        for letter in range(length):
            key = key * base + met.reshape(-1)[at + (group * (length - 1) + letter) * width]
        distinct, inverse = np.unique(key, return_inverse=True)
        table = []
        for levels in (distinct[:, None] // _radix(base - 1, length) % base).tolist():
            # Only levels some word meets are evaluated, so a huge order costs nothing.
            for u in set(levels).difference(amp):
                amp[u] = sqrt_bracket(u, basis.order)
            table.append([reduce(mul, [amp[u].conjugate() if c else amp[u]
                                       for u, c in zip(levels, flags)]) for flags in conj])
        table = np.array(table, dtype=np.complex128).reshape(-1, len(conj))
        moves = shift[first * groups + group]
        here = moves == 0
        index = np.repeat(group[here] // groups * width + row[here], len(conj))
        weights = np.take(table, inverse[here], axis=0)
        term_diag = np.stack([np.bincount(index, part.reshape(-1), len(met) * width)
                              for part in (weights.real, weights.imag)], axis=-1)
        term_diag = term_diag.view(np.complex128).reshape(-1, width)
        if scale is not None:
            term_diag = scale * term_diag
        term_diag[np.abs(term_diag) < DROP_TOL] = 0
        reach = -(-last // terms) - done
        if len(diag) < reach:
            diag = np.concatenate([diag, np.zeros((reach - len(diag), width), dtype=np.complex128)])
        for term, values in enumerate(term_diag, first):
            diag[term // terms - done] += values
        away = ~here
        source = sources[row[away]]
        target = ranks[source] + moves[away]
        found = np.searchsorted(ranks, target)
        # Closure: every target is a basis state.  A target past the last rank
        # has the insertion index dim, so the index is clipped before the gather.
        missing = np.flatnonzero(ranks[np.minimum(found, dim - 1)] != target)
        if missing.size:
            word = modes.reshape(-1, length)[first * groups + group[away][missing[0]]]
            letters = " ".join(f"{name}({flat})" for name, flat in zip(words[0], word.tolist()))
            raise ValueError(f"word {letters} leaves the {subspace_label(basis.sector)} basis "
                             f"from its state {source[missing[0]]}")
        value = reduce(np.add, table.T)
        rows.append(((first + group[away] // groups) // terms - done) * dim + found)
        cols.append(source)
        vals.append((value if scale is None else scale * value)[inverse[away]])
        if last % terms:
            continue  # the chunk's last part has terms in the next chunk
        # A diagonal entry of 0 is one that as_operator would drop.
        stored = np.flatnonzero(diag)
        state = sources[stored % width]
        stacked = _coo(np.concatenate([stored // width * dim + state, *rows]),
                       np.concatenate([state, *cols]),
                       np.concatenate([diag.reshape(-1)[stored], *vals]), (len(diag) * dim, dim))
        ends = stacked.indptr[::dim].tolist()
        out += [CSR(stacked.indptr[part * dim:(part + 1) * dim + 1] - ends[part],
                    stacked.indices[ends[part]:ends[part + 1]],
                    stacked.data[ends[part]:ends[part + 1]], (dim, dim))
                for part in range(len(diag))]
        done, diag, rows, cols, vals = last // terms, diag[:0], [], [], []
    return out


def _ladder(basis: FockBasis, name: str, flat: int) -> CSR:
    """One single-mode ladder matrix (``a``, ``b``, ``a_dag`` or ``b_dag``)
    acting on one flat mode of a full basis, identity on every other mode.
    """
    return as_operator(_apply_words(basis, [[name]], np.array([[[[flat]]]]))[0])


#: The two quartic words of one exchange group.
_EXCHANGE_WORDS = [("a_dag", "a_dag", "b", "b"), ("a_dag", "b_dag", "b", "a")]


def _exchange_modes(basis: FockBasis) -> np.ndarray:
    """The flat modes of the exchange words of every pair, one term each.

    Each pair ``(i, j)``, ascending, is one term: the sum over internal
    states ``k, l`` (one group each, in row-major order) of the two quartic
    words ``a†(i,k) a†(j,l) b(i,l) b(j,k)`` and ``a†(i,k) b†(j,l) b(i,l)
    a(j,k)``, halved by ``scale=0.5``.  Both words of one ``(k, l)`` send a
    state to the same target, which is the state itself only for ``k == l``;
    two pairs change different positions, so their terms share no
    off-diagonal entry.  The two words coincide on single-occupancy states,
    so the raw sum would exchange with amplitude 2; halving makes each
    pair's operator the unit transposition there (tau^2 = 1 on the spin
    sector).
    """
    i, j = np.array(list(combinations(range(1, basis.nu + 1), 2))).T[:, :, None]
    k, l = np.indices((basis.m, basis.m)).reshape(2, -1) + 1
    f = basis.flat_modes
    return np.stack([f(i, k), f(j, l), f(i, l), f(j, k)], axis=-1)


@lru_cache(maxsize=64)
def _exchanges(basis: FockBasis) -> dict[tuple[int, int], CSR]:
    """The exchange of every pair, from one kernel pass with one part per
    pair.  Cached by the basis and shared: read only."""
    parts = _apply_words(basis, _EXCHANGE_WORDS, _exchange_modes(basis)[:, None], scale=0.5)
    return dict(zip(combinations(range(1, basis.nu + 1), 2), map(as_operator, parts)))


def exchange_op(i: int, j: int, basis: FockBasis) -> CSR:
    """Exchange of the particles at positions ``i`` and ``j`` (both 1-based).

    Acts on the full space or on any sector basis; read from the basis's
    cached exchange family.
    """
    if i == j:
        raise ValueError("exchange requires two distinct positions")
    if not (1 <= i < j <= basis.nu):
        raise ValueError(f"need 1 <= i < j <= nu={basis.nu}, got ({i}, {j})")
    return _exchanges(basis)[i, j]


@lru_cache(maxsize=64)
def class_sum(basis: FockBasis) -> CSR:
    """Sum of all pair exchanges (the transposition-class operator).

    Acts on the full space or on any sector basis.  One summed kernel pass
    builds it, one term per pair ``(i, j)`` in ascending order, with the
    rounding of summing the pruned :func:`exchange_op` matrices in that
    order: each pair's diagonal is halved and pruned before it is added to
    the running diagonal, and each off-diagonal entry is ``0.5 * (w1 +
    w2)``.  It is its own pass, not a merge of the cached exchange family:
    the merge gives the same bits but holds every pair's matrix at once,
    and it made the class sums of small spectra about 50% slower and the
    ``nu=14, m=2`` spectrum's peak memory about 40% larger.
    """
    return _class_sum_columns(basis)


def _class_sum_columns(basis: FockBasis, states: Optional[np.ndarray] = None) -> CSR:
    """The columns of the rows ``states`` (every row by default) of the
    class sum, from the exchange words acting on those states only."""
    if basis.nu < 2:
        raise ValueError(f"class sum needs at least two positions, got nu={basis.nu}")
    modes = _exchange_modes(basis)[None]  # one part, one term per pair
    return as_operator(_apply_words(basis, _EXCHANGE_WORDS, modes, scale=0.5, states=states)[0])


@lru_cache(maxsize=64)
def _generators(basis: FockBasis) -> dict[tuple[int, int], CSR]:
    """Every generator ``E(k, l)``, from one kernel pass with one part per
    ``(k, l)``, row-major.  Cached by the basis and shared: read only."""
    k, l = np.indices((basis.m, basis.m)).reshape(2, -1) + 1
    states = np.stack([k, l], axis=-1)[:, None, None]  # (parts, terms, groups, letters)
    modes = basis.flat_modes(np.arange(1, basis.nu + 1)[:, None], states)
    parts = _apply_words(basis, [("a_dag", "b"), ("b_dag", "a")], modes)
    return dict(zip(zip(k.tolist(), l.tolist()), map(as_operator, parts)))


def unitary_generator(k: int, l: int, basis: FockBasis) -> CSR:
    """Generator E(k, l): state-l to state-k transfer summed over positions,
    the words ``a†(i,k) b(i,l)`` and ``b†(i,k) a(i,l)`` at every position.

    Acts on the full space or on any sector basis; read from the basis's
    cached generator family.
    """
    if not (1 <= k <= basis.m and 1 <= l <= basis.m):
        raise ValueError(f"need states in 1..{basis.m}, got ({k}, {l})")
    return _generators(basis)[k, l]


@lru_cache(maxsize=64)
def casimir_c1(basis: FockBasis) -> CSR:
    """First-order Casimir: sum of the diagonal generators, on any basis.

    The sum starts from the diagonal of zeros, a matrix with no stored
    entry, which keeps the rounding of ``0 + E(1,1) + ...``."""
    gens = _generators(basis)
    terms = [(1, gens[l, l]) for l in range(1, basis.m + 1)]
    return as_operator(signed_sum([(1, diagonal_operator(np.zeros(basis.dim)))] + terms))


@lru_cache(maxsize=64)
def casimir_c2(basis: FockBasis) -> CSR:
    """Second-order Casimir: sum over k, l of E(k,l) E(l,k), on any basis,
    from the diagonal of zeros as :func:`casimir_c1`."""
    states, gens = range(1, basis.m + 1), _generators(basis)
    terms = [(1, gens[k, l], gens[l, k]) for k in states for l in states]
    return as_operator(signed_sum([(1, diagonal_operator(np.zeros(basis.dim)))] + terms))


def coupling_sum(basis: FockBasis) -> CSR:
    """Diagonal operator whose eigenvalue is the summed coupling weight."""
    return as_operator(diagonal_operator(coupling_j(basis.occupations, basis.order).sum(axis=1)))


def total_number(basis: FockBasis) -> CSR:
    """Diagonal operator counting all particles over all modes."""
    return as_operator(diagonal_operator(basis.occupations.sum(axis=1)))


# ---------------------------------------------------------------------------
# Matrix utilities
# ---------------------------------------------------------------------------


def entrywise_real(mat: CSR) -> CSR:
    """Real part of every stored entry, in the fixed occupation basis."""
    return as_operator(CSR(mat.indptr, mat.indices, mat.data.real.astype(np.complex128),
                           mat.shape))


def hermitian_part(mat: CSR) -> CSR:
    return as_operator((mat + mat.getH()) * 0.5)


# ---------------------------------------------------------------------------
# Hermitian eigensolver
# ---------------------------------------------------------------------------


def _translation_orbits(basis: FockBasis) -> tuple[np.ndarray, ...]:
    """Each state's orbit under the cyclic translation of positions: its
    representative (the orbit's lowest row), the power ``s`` with ``T**s``
    representative = state, and the orbit's size (the state's period); then
    the kept representatives, those of descending weight, ascending.  The
    row of each state's image is the kernel's rank arithmetic,
    ``searchsorted`` on ``ranks``."""
    nu, state = basis.nu, np.arange(basis.dim)
    occupations = basis.occupations.reshape(basis.dim, nu, basis.m)
    moved = np.roll(occupations, 1, axis=1).reshape(basis.dim, -1)
    translation = np.searchsorted(basis.ranks, moved @ _radix(basis.order.n, basis.modes))
    rep, back, period = state.copy(), np.zeros_like(state), np.zeros_like(state)
    image = state
    for power in range(1, nu + 1):
        image = translation[image]
        period[(period == 0) & (image == state)] = power
        lower = image < rep
        rep[lower], back[lower] = image[lower], power
    totals = occupations.sum(axis=1)
    kept = np.flatnonzero((rep == state) & (np.diff(totals, axis=1) <= 0).all(axis=1))
    return rep, (nu - back) % nu, period, kept


def _block_spectrum(
    mat: CSR, basis: FockBasis, orbits: tuple[np.ndarray, ...]
) -> list[tuple[float, int]]:
    """The clusters of ``mat``, which holds at least the kept rows of
    ``orbits`` (see :func:`_translation_orbits`), solved in its (weight,
    momentum) blocks.

    A momentum state is a kept representative ``a`` of period ``p_a`` with
    a momentum ``k`` such that ``nu`` divides ``k * p_a``; ordered by
    (weight, k, a), each (weight, k) is one block, read from kept rows::

        H_k[a, b] = sqrt(p_a / p_b) * sum over j in orbit(b) of omega**(k * s_j) * H[a, j]

    with ``omega = exp(2 pi i / nu)`` and ``T**s_j b = j`` under the cyclic
    translation ``T: i -> i+1``.  One ``bincount`` over the kept rows'
    stored entries, in entry order, sums every block.  Only descending
    weights are kept, and each eigenvalue counts once per distinct
    reordering of its weight.  A matrix whose imaginary parts are all
    exactly 0 has ``H_(nu-k)`` conjugate to ``H_k``, so only ``k <= nu/2``
    is formed and a block with ``0 < k < nu/2`` counts twice.

    The block sizes are taken one at a time, ascending: the blocks of one
    size are stacked, real unless an imaginary part is nonzero, solved as
    ``(B + B^H) / 2`` by one ``eigvalsh`` call and dropped.  Eigenvalues
    closer than ``DEGENERACY_TOL`` share a cluster, valued at their
    count-weighted mean.  Raises ``ValueError`` naming the first stored
    entry that couples two weight blocks, before any block is formed, and
    ``NonHermitianError``, once every size is solved, with the largest block
    asymmetry over all sizes when it exceeds ``HERMITICITY_TOL``.
    """
    rows, weights = mat.rows(), basis.weights
    coupled = np.flatnonzero(weights[rows] != weights[mat.indices])
    if coupled.size:
        i, j = rows[coupled[0]], mat.indices[coupled[0]]
        raise ValueError(f"entry ({i}, {j}) couples weight blocks {weights[i]} and {weights[j]}")
    nu, dim = basis.nu, mat.shape[0]
    rep, shift, period, kept = orbits
    weights = weights[kept]
    _, first, inverse = np.unique(weights, return_index=True, return_inverse=True)
    totals = basis.occupations[kept[first]].reshape(-1, nu, basis.m).sum(axis=1)
    copies = [math.factorial(len(w)) // math.prod(map(math.factorial, map(w.count, set(w))))
              for w in totals.tolist()]
    copies = np.array(copies, dtype=np.int64)[inverse]
    period = period[kept]
    real_matrix = not mat.data.imag.any()
    momenta = np.arange(nu // 2 + 1 if real_matrix else nu)
    rep_of, k_of = np.nonzero((momenta * period[:, None]) % nu == 0)
    weight_of = weights[rep_of]
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

    index = np.full(dim, -1)
    index[kept] = np.arange(len(kept))
    taken = np.flatnonzero(index[rows] >= 0)  # the entries of the kept rows
    a, j = index[rows[taken]], mat.indices[taken]
    b = index[rep[j]]
    # omega**t for t in 0..nu-1, exact where it is 0 or +-1.
    phase = np.exp(2j * np.pi * np.arange(nu) / nu)
    phase.real[np.abs(phase.real) < 1e-15] = 0
    phase.imag[np.abs(phase.imag) < 1e-15] = 0
    source, target = slot[a], slot[b]
    entry, k = np.nonzero((source >= 0) & (target >= 0))
    source, target = source[entry, k], target[entry, k]
    values = (mat.data[taken] * np.sqrt(period[a] / period[b]))[entry]
    values = values * phase[k * shift[j][entry] % nu]
    block = block_of[source]
    flat = offsets[block] + position[source] * sizes[block] + position[target]
    total = int(offsets[by_size[-1]] + sizes[by_size[-1]] ** 2)
    real = np.bincount(flat, weights=values.real, minlength=total)
    imag = np.bincount(flat, weights=values.imag, minlength=total)
    del rows, taken, a, j, b, source, target, entry, k, values, block, flat

    paired = real_matrix & (k_of[starts] > 0) & (2 * k_of[starts] != nu)
    copies = copies[rep_of[starts]] * np.where(paired, 2, 1)  # the count of each block
    asym, eigenvalues, counts = 0.0, [], []
    for size in sorted(set(sizes.tolist())):
        blocks = by_size[sizes[by_size] == size]
        span = slice(offsets[blocks[0]], offsets[blocks[-1]] + size * size)
        stack = real[span].reshape(-1, size, size)
        if imag[span].any():
            stack = stack + 1j * imag[span].reshape(-1, size, size)
        # B - B^H and then B + B^H are formed in one buffer, and the stack is
        # freed before the halving, so one stack-sized buffer at a time joins it.
        buffer = np.conjugate(stack.swapaxes(1, 2))
        asym = max(asym, float(np.abs(np.subtract(stack, buffer, out=buffer)).max()))
        np.add(stack, np.conjugate(stack.swapaxes(1, 2), out=buffer), out=buffer)
        del stack
        eigenvalues.append(np.linalg.eigvalsh(buffer * 0.5).ravel())
        counts.append(np.repeat(copies[blocks], size))
    if asym > HERMITICITY_TOL:
        raise NonHermitianError(asym)
    eigenvalues, counts = np.concatenate(eigenvalues), np.concatenate(counts)
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues, counts = eigenvalues[order], counts[order]
    cuts = np.flatnonzero(np.diff(eigenvalues, prepend=-np.inf) >= DEGENERACY_TOL)
    multiplicities = np.add.reduceat(counts, cuts)
    means = np.add.reduceat(eigenvalues * counts, cuts) / multiplicities
    return list(zip(means.tolist(), multiplicities.tolist()))


def eigensolve_hermitian(mat: CSR, basis: FockBasis) -> list[tuple[float, int]]:
    """Ascending eigenvalues clustered into (value, multiplicity) pairs.

    ``mat`` acts on ``basis``, the basis it was built on, and is solved in
    its (weight, momentum) blocks by :func:`_block_spectrum`, which also
    says what it refuses.  ``mat`` must commute with the cyclic translation
    of positions and with every relabelling of the internal states, as
    every ``C2`` does: the solve does not check that, the tests do.  The
    caller sized the largest weight block with ``basis.check_dimension``
    before building ``mat``.
    """
    return _block_spectrum(mat, basis, _translation_orbits(basis))


def class_sum_spectrum(basis: FockBasis) -> list[tuple[float, int]]:
    """The clusters of ``eigensolve_hermitian(class_sum(basis), basis)``,
    bit for bit, without building the whole class sum.

    The blocks read only the rows of the kept translation representatives
    (30 of 512 states at ``nu=9, m=2``), so the exchange words act on those
    states only.  The kernel gives their columns, and a kept row is read as
    its column's conjugate transpose, which is exact wherever the class sum
    is Hermitian (on the spin sector every ladder amplitude met is 1); a
    sector where it is not is refused by the block Hermiticity check.
    """
    orbits = _translation_orbits(basis)
    return _block_spectrum(_class_sum_columns(basis, orbits[-1]).getH(), basis, orbits)
