"""The array word kernel against its nested-list form, bit for bit.

The oracle here is the word kernel with its words written as nested lists of
``(name, flat mode)`` letters, applied one numpy call per term, group and
letter.  The library kernel takes the same words as arrays and applies all
groups of a chunk of whole terms at once; every builder must give the same
``indptr``, ``indices`` and ``data`` bits, and a word that leaves its basis
must be named by the same message.
"""

import itertools
import math
import re
from functools import reduce
from operator import mul

import numpy as np
import pytest
import scipy.sparse as sp

from gentile import (
    GentileOrder,
    as_operator,
    casimir_c1,
    casimir_c2,
    class_sum,
    enumerate_basis,
    exchange_op,
    sqrt_bracket,
    unitary_generator,
)
from gentile import operators
from gentile.basis import _radix, subspace_label
from gentile.operators import DROP_TOL, _ladder
from scipy_oracle import from_scipy


# ---------------------------------------------------------------------------
# The nested-list oracle
# ---------------------------------------------------------------------------

_LETTERS = {"a_dag": (True, False), "b_dag": (True, True), "b": (False, False), "a": (False, True)}

#: The letters of the two quartic words of one exchange group.
EXCHANGE_WORDS = [("a_dag", "a_dag", "b", "b"), ("a_dag", "b_dag", "b", "a")]


def nested_apply_words(basis, terms, scale=None):
    """Sum of terms of words applied to the occupation array of ``basis``.

    A word is a left-to-right list of letters ``(name, flat mode)``; a group
    is a list of words that act on the same rows and send each to the same
    target; a term is a list of groups.  Each group that returns every state
    to itself adds to its term's diagonal as ``(acc + w1) + w2``, in group
    order; any other group stores ``w1 + w2`` at its targets.  Each term is
    scaled, its diagonal pruned at ``DROP_TOL`` and added to the diagonal in
    term order.  Products are taken in Python scalar complex arithmetic.
    """
    n, dim = basis.order.n, basis.dim
    ranks = basis.ranks
    columns = {}
    place = _radix(n, basis.modes).tolist()
    amp, products = {}, {}
    diag = np.zeros(dim, dtype=np.complex128)
    rows, cols, vals = [np.arange(dim)], [np.arange(dim)], [diag]
    targets, moved = [], []
    conj = [[_LETTERS[name][1] for name, _ in word] for word in terms[0][0]]
    for groups in terms:
        acting, met_rows = [], []
        for words in groups:
            current, met, shift = {}, [], 0
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
            met = np.stack(met[::-1])
            acts = np.flatnonzero(((met >= 1) & (met <= n)).all(axis=0))
            acting.append((acts, shift, words[0]))
            met_rows.append(met[:, acts])
        met = np.concatenate(met_rows, axis=1)
        key = _radix(int(met.max(initial=0)), len(met)) @ met
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        distinct = [tuple(levels) for levels in met[:, first].T.tolist()]
        for levels in distinct:
            if levels not in products:
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
        found = ranks[np.minimum(rows[dim:], dim - 1)]
        missing = np.flatnonzero(found != np.concatenate(targets))
        if missing.size:
            group = np.searchsorted(np.cumsum([len(t) for t in targets]), missing[0], "right")
            letters = " ".join(f"{name}({flat})" for name, flat in moved[group])
            raise ValueError(f"word {letters} leaves the {subspace_label(basis.sector)} basis "
                             f"from its state {cols[dim + missing[0]]}")
    return from_scipy(sp.coo_matrix((np.concatenate(vals), (rows, cols)), shape=(dim, dim)))


def nested_ladder(basis, name, flat):
    return as_operator(nested_apply_words(basis, [[[[(name, flat)]]]]))


def nested_exchange_words(basis, pairs, lowered=None):
    """The exchange terms of ``pairs``: one group per ``(k, l)``, row-major.
    ``lowered(i, j, k, l)`` gives the mode of the third letter, ``b(i,l)``
    unless a mutation moves it."""
    f = basis.flat_modes
    third = lowered or (lambda i, j, k, l: f(i, l))
    return [
        [[[("a_dag", f(i, k)), ("a_dag", f(j, l)), ("b", third(i, j, k, l)), ("b", f(j, k))],
          [("a_dag", f(i, k)), ("b_dag", f(j, l)), ("b", third(i, j, k, l)), ("a", f(j, k))]]
         for k in range(1, basis.m + 1) for l in range(1, basis.m + 1)]
        for i, j in pairs
    ]


def nested_exchange_sum(basis, pairs):
    return as_operator(nested_apply_words(basis, nested_exchange_words(basis, pairs), scale=0.5))


def nested_generator(basis, k, l):
    f = basis.flat_modes
    groups = [[[("a_dag", f(i, k)), ("b", f(i, l))], [("b_dag", f(i, k)), ("a", f(i, l))]]
              for i in range(1, basis.nu + 1)]
    return as_operator(nested_apply_words(basis, [groups]))


# ---------------------------------------------------------------------------
# Bit-for-bit comparison
# ---------------------------------------------------------------------------


def assert_csr_bit_equal(mat, ref):
    assert np.array_equal(mat.indptr, ref.indptr)
    assert np.array_equal(mat.indices, ref.indices)
    assert np.array_equal(mat.data.view(np.uint64), ref.data.view(np.uint64))


def assert_builders_match_oracle(basis, monkeypatch):
    """Every builder on ``basis`` against the oracle; the four letters on
    every flat mode when ``basis`` is a full space.  ``C1`` and ``C2`` are
    summed from the oracle's generators by the library's own sums."""
    states = range(1, basis.m + 1)
    pairs = list(itertools.combinations(range(1, basis.nu + 1), 2))
    for i, j in pairs:
        assert_csr_bit_equal(exchange_op(i, j, basis), nested_exchange_sum(basis, [(i, j)]))
    if pairs:
        assert_csr_bit_equal(class_sum(basis), nested_exchange_sum(basis, pairs))
    for k, l in itertools.product(states, states):
        assert_csr_bit_equal(unitary_generator(k, l, basis), nested_generator(basis, k, l))
    if basis.sector is None:
        for name, flat in itertools.product(_LETTERS, range(basis.modes)):
            assert_csr_bit_equal(_ladder(basis, name, flat),
                                 nested_ladder(basis, name, flat))
    c1, c2 = casimir_c1(basis), casimir_c2(basis)
    with monkeypatch.context() as patch:
        patch.setattr(operators, "_generators", lambda b: {
            (k, l): nested_generator(b, k, l) for k, l in itertools.product(states, states)})
        assert_csr_bit_equal(c1, casimir_c1.__wrapped__(basis))
        assert_csr_bit_equal(c2, casimir_c2.__wrapped__(basis))


def subspaces(n, nu, m, bound=4096):
    """The full space when it has at most ``bound`` states, and every sector."""
    return ([None] if (n + 1) ** (nu * m) <= bound else []) + list(range(n * m + 1))


@pytest.mark.parametrize("n, nu, m", list(itertools.product((1, 2, 3), repeat=3)))
def test_builders_bit_equal_to_nested_oracle(n, nu, m, monkeypatch):
    for sector in subspaces(n, nu, m):
        basis = enumerate_basis(nu, m, GentileOrder(n), sector=sector)
        assert_builders_match_oracle(basis, monkeypatch)


@pytest.mark.parametrize("n, nu, m, sector", [(2, 3, 3, None), (1, 12, 2, 1), (30, 2, 2, 28)])
def test_large_builders_bit_equal_to_nested_oracle(n, nu, m, sector, monkeypatch):
    # The class sums of the first two spaces span several whole-term chunks;
    # the third meets levels up to 30, far above those of a small order.
    basis = enumerate_basis(nu, m, GentileOrder(n), sector=sector)
    levels = math.comb(nu, 2) * m * m * 4 * basis.dim  # the class sum's met levels
    assert levels > 2 * operators._CHUNK or n == 30
    assert_builders_match_oracle(basis, monkeypatch)


def test_family_split_across_chunks_bit_equal_to_nested_oracle():
    # The 28 exchanges of the nu=8, m=2 spin sector are one kernel pass in
    # chunks of 16 whole pairs, so one chunk boundary falls inside the family.
    basis = enumerate_basis(8, 2, GentileOrder(1), sector=1)
    pairs = list(itertools.combinations(range(1, basis.nu + 1), 2))
    per_chunk = operators._CHUNK // (basis.m**2 * 4 * basis.dim)
    assert (len(pairs), per_chunk) == (28, 16)
    for i, j in pairs:
        assert_csr_bit_equal(exchange_op(i, j, basis), nested_exchange_sum(basis, [(i, j)]))
    for k, l in itertools.product((1, 2), repeat=2):
        assert_csr_bit_equal(unitary_generator(k, l, basis), nested_generator(basis, k, l))


# ---------------------------------------------------------------------------
# The closure check names the same word
# ---------------------------------------------------------------------------


def refusal(build):
    """The closure message ``build()`` raises, or its matrix."""
    try:
        return build()
    except ValueError as error:
        return str(error)


@pytest.mark.parametrize("n, nu, m", [(1, 2, 2), (2, 3, 2), (3, 2, 3), (2, 3, 3)])
def test_misplaced_exchange_refused_like_oracle(n, nu, m):
    # b(j,l) in place of b(i,l): the words move a particle from j to i.
    for sector in subspaces(n, nu, m):
        basis = enumerate_basis(nu, m, GentileOrder(n), sector=sector)
        pairs = list(itertools.combinations(range(1, nu + 1), 2))
        terms = nested_exchange_words(basis, pairs, lambda i, j, k, l: basis.flat_modes(j, l))
        i, j = np.array(pairs).T[:, :, None]
        k, l = np.indices((m, m)).reshape(2, -1) + 1
        f = basis.flat_modes
        modes = np.stack([f(i, k), f(j, l), f(j, l), f(j, k)], axis=-1)[None]
        got = refusal(lambda: as_operator(
            operators._apply_words(basis, EXCHANGE_WORDS, modes, scale=0.5)[0]))
        want = refusal(lambda: as_operator(nested_apply_words(basis, terms, scale=0.5)))
        if isinstance(want, str):
            assert got == want
        else:
            assert_csr_bit_equal(got, want)


def test_first_word_at_fault_in_group_major_target_order():
    # On the spin sector of nu=3, m=2 the word a_dag(3) b(1) first acts on
    # state 2 and a_dag(5) b(1) on state 1; in group-major order the first
    # group of the term is named, with its own first state.
    basis = enumerate_basis(3, 2, GentileOrder(1), sector=1)
    message = "word a_dag(3) b(1) leaves the sector:1 basis from its state 2"
    nested = [[[[("a_dag", 3), ("b", 1)], [("b_dag", 3), ("a", 1)]],
               [[("a_dag", 5), ("b", 1)], [("b_dag", 5), ("a", 1)]]]]
    with pytest.raises(ValueError, match=re.escape(message)):
        nested_apply_words(basis, nested)
    with pytest.raises(ValueError, match=re.escape(message)):
        operators._apply_words(basis, [("a_dag", "b"), ("b_dag", "a")],
                               np.array([[[[3, 1], [5, 1]]]]))


# ---------------------------------------------------------------------------
# Acting states: the columns of the whole pass
# ---------------------------------------------------------------------------


def columns_of(mat, states):
    """``mat`` with every stored entry outside the columns ``states`` dropped."""
    keep = np.isin(mat.indices, states)
    kept = np.concatenate(([0], np.cumsum(keep)))
    return operators.CSR(kept[mat.indptr], mat.indices[keep], mat.data[keep], mat.shape)


@pytest.mark.parametrize("n, nu, m, sector", [(1, 10, 2, 1), (2, 3, 2, None), (2, 3, 3, 2),
                                              (3, 2, 2, None), (1, 4, 3, 1)])
def test_acting_states_give_their_columns(n, nu, m, sector):
    # Each part of the exchange family, of the generator family and of the
    # class sum, with only some states acting, is the same part of the whole
    # pass with the other columns dropped, bit for bit, whatever chunks the
    # two passes are cut into (the nu=10 class sum takes several whole).
    basis = enumerate_basis(nu, m, GentileOrder(n), sector=sector)
    k, l = np.indices((m, m)).reshape(2, -1) + 1
    exchanges = operators._exchange_modes(basis)
    generators = basis.flat_modes(np.arange(1, nu + 1)[:, None],
                                  np.stack([k, l], axis=-1)[:, None, None])
    passes = [(EXCHANGE_WORDS, exchanges[:, None], 0.5), (EXCHANGE_WORDS, exchanges[None], 0.5),
              ([("a_dag", "b"), ("b_dag", "a")], generators, None)]
    rng = np.random.default_rng(7)
    subsets = [np.arange(0, basis.dim, 3), np.array([basis.dim - 1]),
               np.flatnonzero(rng.random(basis.dim) < 0.3)]
    for words, modes, scale in passes:
        whole = operators._apply_words(basis, words, modes, scale)
        for states in subsets:
            parts = operators._apply_words(basis, words, modes, scale, states=states)
            assert len(parts) == len(whole)
            for part, ref in zip(parts, whole):
                assert_csr_bit_equal(part, columns_of(ref, states))


def test_acting_state_named_by_its_basis_row():
    # Of the two groups of test_first_word_at_fault_in_group_major_target_order,
    # only the second acts on state 1; with state 1 acting alone it is named,
    # from its row in the whole basis.
    basis = enumerate_basis(3, 2, GentileOrder(1), sector=1)
    message = "word a_dag(5) b(1) leaves the sector:1 basis from its state 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        operators._apply_words(basis, [("a_dag", "b"), ("b_dag", "a")],
                               np.array([[[[3, 1], [5, 1]]]]), states=np.array([1, 5]))
