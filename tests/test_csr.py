"""The library's numpy CSR type against scipy, bit for bit.

scipy is a test-only oracle here: every operation of ``operators.CSR`` must
give the ``indptr``, ``indices`` and ``data`` bits that scipy's compiled CSR
kernels give for the same operands, and the CLI must run without importing
scipy at all.  ``signed_sum`` and ``commutator`` are held to the chain of
``CSR`` operations they replace, which is held to scipy here.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import gentile
from gentile import (
    GentileOrder,
    as_operator,
    casimir_c1,
    casimir_c2,
    class_sum,
    coupling_sum,
    enumerate_basis,
    exchange_op,
    total_number,
    unitary_generator,
)
from gentile.operators import CSR, DROP_TOL, _coo, commutator, signed_sum
from scipy_oracle import to_scipy


def assert_bit_equal(got, ref):
    """``got`` (a library CSR) stores exactly the entries of the scipy matrix
    ``ref``, in canonical order, bit for bit."""
    ref = ref.tocsr()
    ref.sort_indices()
    assert type(got) is CSR
    assert got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data.view(np.uint64),
                          ref.data.astype(np.complex128).view(np.uint64))


def assert_ops_bit_equal(a, b):
    """``a + b``, ``a - b`` and ``a @ b`` against scipy."""
    sa, sb = to_scipy(a), to_scipy(b)
    assert_bit_equal(a + b, sa + sb)
    assert_bit_equal(a - b, sa - sb)
    assert_bit_equal(a @ b, sa @ sb)


#: Real and complex scalars, among them the verifier's own.
SCALARS = [0.5, -3.0, 2, GentileOrder(3).q, np.exp(1j * np.pi / 3), 1j, 0.0]


def assert_unary_bit_equal(a):
    """Scalar multiples on both sides and the conjugate transpose."""
    sa = to_scipy(a)
    for c in SCALARS:
        assert_bit_equal(c * a, c * sa)
        assert_bit_equal(a * c, sa * c)
    assert_bit_equal(a.getH(), sa.getH())


def builders(basis):
    """Every builder's matrix on ``basis``."""
    states = range(1, basis.m + 1)
    ops = [exchange_op(i, j, basis) for i, j in itertools.combinations(range(1, basis.nu + 1), 2)]
    ops += [class_sum(basis)]
    ops += [unitary_generator(k, l, basis) for k, l in itertools.product(states, states)]
    return ops + [casimir_c1(basis), casimir_c2(basis), coupling_sum(basis), total_number(basis)]


#: The spaces of the default verify grid.
DEFAULT_SPACES = [(n, nu, 2, sector) for n in (1, 2, 3) for nu in (2, 3) for sector in (None, 1)]


@pytest.mark.parametrize("n, nu, m, sector", DEFAULT_SPACES)
def test_every_builder_pair_bit_equal_to_scipy(n, nu, m, sector):
    basis = enumerate_basis(nu, m, GentileOrder(n), sector=sector)
    ops = builders(basis)
    for a in ops:
        assert_unary_bit_equal(a)
    for a, b in itertools.product(ops, repeat=2):
        assert_ops_bit_equal(a, b)


ENTRIES = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False,
                             allow_infinity=False)


@st.composite
def canonical_triples(draw):
    """Dense complex matrices ``left`` ``(rows, inner)``, ``right`` ``(inner,
    cols)`` and ``other`` of the shape of ``left``, ``inner >= 3``.  The first
    row of ``left`` and the first column of ``right`` are full, so the
    product's entry ``(0, 0)`` sums ``inner`` terms; other entries are kept
    at random."""
    rows, inner, cols = draw(st.integers(1, 6)), draw(st.integers(3, 7)), draw(st.integers(1, 6))

    def matrix(shape, full):
        size = shape[0] * shape[1]
        values = draw(st.lists(ENTRIES, min_size=size, max_size=size))
        kept = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        return np.where(np.reshape(kept, shape) | full, np.reshape(values, shape), 0)

    full_row, full_column = np.zeros((rows, inner), bool), np.zeros((inner, cols), bool)
    full_row[0], full_column[:, 0] = True, True
    return (matrix((rows, inner), full_row), matrix((inner, cols), full_column),
            matrix((rows, inner), False))


def library(dense):
    """A dense matrix as a library CSR, every nonzero entry kept."""
    rows, cols = np.nonzero(dense)
    counts = np.bincount(rows, minlength=dense.shape[0])
    return CSR(np.concatenate(([0], np.cumsum(counts))), cols,
               dense[rows, cols].astype(np.complex128), dense.shape)


@given(triple=canonical_triples())
@settings(max_examples=200, deadline=None)
def test_random_canonical_matrices_bit_equal_to_scipy(triple):
    left, right, other = map(library, triple)
    assert np.count_nonzero(triple[0][0] * triple[1][:, 0]) >= 3
    assert_bit_equal(left @ right, to_scipy(left) @ to_scipy(right))
    assert_unary_bit_equal(left)
    # Places in both, in one alone, and entries that cancel exactly.
    for a, b in itertools.product([left, other, library(triple[0].conj())], repeat=2):
        assert_bit_equal(a + b, to_scipy(a) + to_scipy(b))
        assert_bit_equal(a - b, to_scipy(a) - to_scipy(b))


def chain(terms):
    """The ``CSR`` operations ``signed_sum(terms)`` stands for, one at a time."""
    total = None
    for sign, *factors in terms:
        term = factors[0] @ factors[1] if len(factors) == 2 else factors[0]
        total = term if total is None else total + term if sign == 1 else total - term
    return total


def assert_same_bits(got, ref):
    """``got`` stores exactly the entries of the library CSR ``ref``."""
    assert_bit_equal(got, to_scipy(ref))


@pytest.mark.parametrize("n, nu, m, sector", DEFAULT_SPACES)
def test_signed_sum_of_every_builder_pair_is_the_chain(n, nu, m, sector):
    basis = enumerate_basis(nu, m, GentileOrder(n), sector=sector)
    ops = builders(basis)
    for a, b in itertools.product(ops, repeat=2):
        assert_same_bits(commutator(a, b), a @ b - b @ a)
        for terms in ([(1, a), (-1, b, a), (1, 0.5 * b)], [(1, b, a), (1, a, b), (-1, a)]):
            assert_same_bits(signed_sum(terms), chain(terms))


#: Entries with a -0.0 part, which a sum may keep or lose.
SIGNED_ZERO_PARTS = st.sampled_from([complex(-0.0, 1.5), complex(2.0, -0.0), complex(-0.0, -0.0)])


@st.composite
def signed_sum_terms(draw):
    """Terms over a pool of square matrices: canonical ones, some with -0.0
    parts, and the explicit zeros of ``0.0 * A``; the first term's sign is +1."""
    dim = draw(st.integers(1, 5))

    def matrix():
        values = draw(st.lists(st.one_of(ENTRIES, SIGNED_ZERO_PARTS), min_size=dim * dim,
                               max_size=dim * dim))
        kept = draw(st.lists(st.booleans(), min_size=dim * dim, max_size=dim * dim))
        return library(np.where(np.reshape(kept, (dim, dim)), np.reshape(values, (dim, dim)), 0))

    pool = [matrix() for _ in range(3)]
    pool += [0.0 * pool[0], -1.0 * pool[1]]
    picks = st.integers(0, len(pool) - 1)
    terms = []
    for index in range(draw(st.integers(2, 5))):
        sign = 1 if index == 0 else draw(st.sampled_from([1, -1]))
        factors = [pool[draw(picks)] for _ in range(draw(st.integers(1, 2)))]
        terms.append((sign, *factors))
    return terms


@given(terms=signed_sum_terms())
@settings(max_examples=300, deadline=None)
def test_signed_sum_of_random_terms_is_the_chain(terms):
    assert_same_bits(signed_sum(terms), chain(terms))
    a, b = terms[0][1], terms[-1][-1]
    assert_same_bits(commutator(a, b), a @ b - b @ a)


def one_entry(value):
    """The 1 x 1 matrix that stores ``value``, an exact zero included."""
    return CSR(np.array([0, 1]), np.array([0]), np.array([value], dtype=np.complex128), (1, 1))


@pytest.mark.parametrize("signed, imag_sign", [
    # (1 - 0j) - (1 + 0j) is 0 - 0j, an exact zero with a -0.0 part, which
    # the chain drops: it reads 0 + 0j, so adding 5 - 0j keeps +0.0.
    (((1, complex(1, -0.0)), (-1, complex(1, 0.0)), (1, complex(5, -0.0))), False),
    # The first term is taken as it is, an exact zero stored with -0.0 parts
    # included: -0.0 - 0j plus 1 - 0j keeps -0.0.
    (((1, complex(-0.0, -0.0)), (1, complex(1, -0.0))), True),
])
def test_signed_sum_drops_an_exact_zero_only_between_terms(signed, imag_sign):
    terms = [(sign, one_entry(value)) for sign, value in signed]
    got = signed_sum(terms)
    assert_same_bits(got, chain(terms))
    assert np.signbit(got.data.imag[0]) == imag_sign


def test_signed_sum_refuses_bad_signs_and_shapes():
    a = one_entry(1.0)
    for terms in ([], [(-1, a), (1, a)], [(1, a), (2, a)]):
        with pytest.raises(ValueError, match="signs"):
            signed_sum(terms)
    assert_same_bits(signed_sum([(1, a)]), a)  # one term: ``@`` is the one-product case
    wide = CSR(np.array([0, 1]), np.array([1]), np.array([1.0 + 0j]), (1, 2))
    with pytest.raises(ValueError, match="shapes"):
        signed_sum([(1, a), (1, wide)])
    with pytest.raises(ValueError, match="cannot multiply"):
        signed_sum([(1, a), (1, wide, wide)])


def test_operators_refuse_bad_shapes_and_operands():
    a = one_entry(1.0)
    wide = CSR(np.array([0, 1]), np.array([1]), np.array([1.0 + 0j]), (1, 2))
    with pytest.raises(ValueError, match="shapes"):
        a + wide
    with pytest.raises(ValueError, match="shapes"):
        a - wide
    with pytest.raises(ValueError, match="cannot multiply"):
        wide @ wide
    # A non-CSR operand returns NotImplemented, which Python turns into TypeError.
    with pytest.raises(TypeError):
        a + 1
    with pytest.raises(TypeError):
        a @ 1


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_canonicalisation_bit_equal_to_scipy(data):
    # Triplets in any order, at distinct places, some below DROP_TOL or zero:
    # the word kernel's COO step sorts them and as_operator prunes them as
    # scipy's canonical form does.
    dim = data.draw(st.integers(1, 8))
    places = data.draw(st.lists(st.integers(0, dim * dim - 1), unique=True, max_size=dim * dim))
    values = data.draw(st.lists(st.one_of(ENTRIES, st.just(0j), st.just(DROP_TOL / 3)),
                                min_size=len(places), max_size=len(places)))
    rows, cols = np.divmod(np.array(places, dtype=np.int64), dim)
    coo = sp.coo_matrix((np.array(values, dtype=np.complex128), (rows, cols)), shape=(dim, dim))
    ref = sp.csr_matrix(coo)
    ref.data[np.abs(ref.data) < DROP_TOL] = 0
    ref.eliminate_zeros()
    assert_bit_equal(as_operator(_coo(rows, cols, coo.data, (dim, dim))), ref)


def test_cached_operator_is_read_only():
    # A caller cannot change an operator that a cache hands out to the next
    # caller: its arrays refuse writes and its fields refuse assignment.
    basis = enumerate_basis(2, 2, GentileOrder(1), sector=1)
    op = class_sum(basis)
    saved = [array.copy() for array in (op.indptr, op.indices, op.data)]
    for array in (op.indptr, op.indices, op.data):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    with pytest.raises(AttributeError):
        op.data = np.zeros_like(op.data)
    again = class_sum(basis)
    assert again is op
    for array, before in zip((again.indptr, again.indices, again.data), saved):
        assert np.array_equal(array, before)


def test_cli_never_imports_scipy(tmp_path):
    # In a fresh process: a spectrum comparison and a small verify run, and
    # no scipy module is ever loaded.
    src = str(Path(gentile.__file__).resolve().parents[1])
    code = "\n".join([
        "import sys",
        "import gentile.cli",
        f"out = {str(tmp_path)!r}",
        "assert gentile.cli.main(['spectrum', '--compare', '--nu', '3', '--m', '2',",
        "                         '--no-timestamp', '--out', out + '/s.json']) == 0",
        "assert gentile.cli.main(['verify', '--n', '1', '--nu', '2', '--m', '2',",
        "                         '--no-timestamp', '--out', out + '/v.json']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
