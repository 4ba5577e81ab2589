"""Operator kernel: ladder matrices, word application, composites, eigensolver."""

import cmath
import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp

from gentile import (
    GentileOrder,
    NonHermitianError,
    SizingError,
    as_operator,
    casimir_c1,
    casimir_c2,
    class_sum,
    coupling_sum,
    eigensolve_hermitian,
    entrywise_real,
    enumerate_basis,
    exchange_op,
    hermitian_part,
    max_abs,
    single_mode_ops,
    sqrt_bracket,
    total_number,
    unitary_generator,
)
from gentile.operators import _ladder_cached
from gentile.verifier import _single_mode_diffs


def ordinal(basis, state):
    """A state's ordinal: its mixed-radix rank located in ``basis.ranks``."""
    rank = np.ravel_multi_index(state, (basis.order.n + 1,) * basis.modes)
    return int(np.searchsorted(basis.ranks, rank))


def restrict(op, sector):
    """A full-space operator on the sector's rows and columns.

    A sector's ranks are its full-space ordinals, so this is a slice.
    """
    return as_operator(op.mat[sector.ranks][:, sector.ranks])


def leakage(op, sector):
    """What :func:`restrict` ignores: the largest entry magnitude coupling
    sector states to non-sector states, in either direction (0.0 if none).
    """
    inside = np.zeros(op.dim, dtype=bool)
    inside[sector.ranks] = True
    coo = op.mat.tocoo()
    return float(np.abs(coo.data[inside[coo.row] != inside[coo.col]]).max(initial=0.0))


def single_mode_residuals(order):
    """Residuals of the single-mode ladder-algebra suite, keyed by relation."""
    return {key: max(map(max_abs, diffs)) for key, diffs in _single_mode_diffs(order).items()}


def swap_matrix_oracle(sector_basis, i, j):
    """Brute-force transposition on the one-particle-per-position sector.

    Each sector state is a tuple of per-position occupation blocks; the
    exchange relabels block i and block j.  Built independently of the
    operator engine.
    """
    m = sector_basis.m
    dim = sector_basis.dim
    out = np.zeros((dim, dim))
    for col, state in enumerate(sector_basis.occupations.tolist()):
        blocks = [list(state[p * m : (p + 1) * m]) for p in range(sector_basis.nu)]
        blocks[i - 1], blocks[j - 1] = blocks[j - 1], blocks[i - 1]
        swapped = tuple(v for block in blocks for v in block)
        out[ordinal(sector_basis, swapped), col] = 1.0
    return out


def kron_embed_flat(op, flat, basis):
    """A single-mode matrix at one flat mode: identity Kronecker products."""
    d = basis.order.n + 1
    left = d**flat
    right = d ** (basis.modes - 1 - flat)
    out = sp.csr_matrix(op, dtype=np.complex128)
    if left > 1:
        out = sp.kron(sp.identity(left, dtype=np.complex128, format="csr"), out, format="csr")
    if right > 1:
        out = sp.kron(out, sp.identity(right, dtype=np.complex128, format="csr"), format="csr")
    return out


def kron_embed(op, position, state, basis):
    """Place a single-mode matrix on mode ``(position, state)`` of a full basis."""
    if basis.sector is not None:
        raise ValueError("embedding requires a full-space basis")
    d = basis.order.n + 1
    mat = sp.csr_matrix(op)
    if mat.shape != (d, d):
        raise ValueError(f"single-mode operator must be {d}x{d}, got {mat.shape}")
    flat = basis.mode_flat(position, state)
    return as_operator(kron_embed_flat(mat, flat, basis))


@lru_cache(maxsize=64)
def entrywise_letters(order):
    """The four single-mode ladder letters, assigned entry by entry.

    An oracle for ``single_mode_ops``, independent of the word kernel.
    """
    d = order.n + 1
    b = sp.lil_matrix((d, d), dtype=np.complex128)
    a = sp.lil_matrix((d, d), dtype=np.complex128)
    for level in range(1, d):
        amp = sqrt_bracket(level, order)
        b[level - 1, level] = amp
        a[level - 1, level] = amp.conjugate()
    a, b = a.tocsr(), b.tocsr()
    return {"a": a, "b": b, "a_dag": as_operator(a.getH()).mat,
            "b_dag": as_operator(b.getH()).mat}


@lru_cache(maxsize=32)
def kron_mode_ops(full):
    """Every single-mode matrix embedded at every flat mode of a full basis."""
    mats = dict(entrywise_letters(full.order), num=single_mode_ops(full.order).num)
    return {
        name: [kron_embed_flat(mat, f, full) for f in range(full.modes)]
        for name, mat in mats.items()
    }


def kron_word(mats):
    """Product of a left-to-right written word (rightmost factor acts first)."""
    out = mats[0]
    for m in mats[1:]:
        out = out @ m
    return out


def kron_exchange_oracle(full, i, j):
    """Reference exchange: products of Kronecker-embedded ladder matrices.

    The oracle for the word application in ``exchange_op``, on the full
    space only: both quartic words of every (k, l) as sparse matrix
    products, summed, halved and pruned.
    """
    emb = kron_mode_ops(full)
    f = full.mode_flat
    total = sp.csr_matrix((full.dim, full.dim), dtype=np.complex128)
    for k in range(1, full.m + 1):
        for l in range(1, full.m + 1):
            w1 = kron_word(
                [emb["a_dag"][f(i, k)], emb["a_dag"][f(j, l)], emb["b"][f(i, l)], emb["b"][f(j, k)]]
            )
            w2 = kron_word(
                [emb["a_dag"][f(i, k)], emb["b_dag"][f(j, l)], emb["b"][f(i, l)], emb["a"][f(j, k)]]
            )
            total = total + w1 + w2
    return as_operator(0.5 * total)


def kron_class_sum_oracle(full):
    total = sp.csr_matrix((full.dim, full.dim), dtype=np.complex128)
    for i in range(1, full.nu + 1):
        for j in range(i + 1, full.nu + 1):
            total = total + kron_exchange_oracle(full, i, j).mat
    return as_operator(total)


def kron_generator_oracle(full, k, l):
    """Reference E(k, l): both two-letter words at every position, summed."""
    emb = kron_mode_ops(full)
    f = full.mode_flat
    total = sp.csr_matrix((full.dim, full.dim), dtype=np.complex128)
    for i in range(1, full.nu + 1):
        total = total + kron_word([emb["a_dag"][f(i, k)], emb["b"][f(i, l)]])
        total = total + kron_word([emb["b_dag"][f(i, k)], emb["a"][f(i, l)]])
    return as_operator(total)


def kron_casimir_oracles(full):
    """Reference C1 and C2 from the reference generators."""
    gens = {
        (k, l): kron_generator_oracle(full, k, l).mat
        for k in range(1, full.m + 1)
        for l in range(1, full.m + 1)
    }
    c1 = sp.csr_matrix((full.dim, full.dim), dtype=np.complex128)
    c2 = sp.csr_matrix((full.dim, full.dim), dtype=np.complex128)
    for k in range(1, full.m + 1):
        c1 = c1 + gens[(k, k)]
        for l in range(1, full.m + 1):
            c2 = c2 + gens[(k, l)] @ gens[(l, k)]
    return as_operator(c1), as_operator(c2)


def assert_csr_bit_equal(mat, ref):
    """Same sparsity pattern, same bit pattern of every entry."""
    assert np.array_equal(mat.indptr, ref.indptr)
    assert np.array_equal(mat.indices, ref.indices)
    assert np.array_equal(mat.data.view(np.uint64), ref.data.view(np.uint64))


def assert_bit_equal(op, ref):
    """Same sparsity pattern, same bit pattern of every entry."""
    assert_csr_bit_equal(op.mat, ref.mat)


#: (n, nu, m) with a full space of at most 4096 states.
ORACLE_GRID = [
    (n, nu, m)
    for n in (1, 2, 3)
    for nu in (2, 3)
    for m in (1, 2, 3)
    if (n + 1) ** (nu * m) <= 4096
]


@pytest.mark.parametrize("n, nu, m", ORACLE_GRID)
def test_word_application_matches_kron_oracle(n, nu, m):
    # Bit for bit, on the full space and on every sector: the sector build
    # equals the restriction of the full-space oracle.
    order = GentileOrder(n)
    full = enumerate_basis(nu, m, order)
    pairs = [(i, j) for i in range(1, nu + 1) for j in range(i + 1, nu + 1)]
    # (builder on a basis, full-space oracle) pairs
    cases = [(lambda b, p=pair: exchange_op(*p, b), kron_exchange_oracle(full, *pair))
             for pair in pairs]
    cases.append((class_sum, kron_class_sum_oracle(full)))
    cases += [(lambda b, k=k, l=l: unitary_generator(k, l, b), kron_generator_oracle(full, k, l))
              for k in range(1, m + 1) for l in range(1, m + 1)]
    cases += zip((casimir_c1, casimir_c2), kron_casimir_oracles(full))
    for build, ref in cases:
        assert_bit_equal(build(full), ref)
    for t in range(n * m + 1):
        sector = enumerate_basis(nu, m, order, sector=t)
        for build, ref in cases:
            assert_bit_equal(build(sector), restrict(ref, sector))
    # One-letter words: the conjugated letters carry -0.0 imaginary parts
    # where the Kronecker product gives +0.0, so compare values, not bits.
    emb = kron_mode_ops(full)
    for name in ("a", "b", "a_dag", "b_dag"):
        for flat in range(full.modes):
            op, ref = _ladder_cached(full, name, flat).mat, emb[name][flat]
            assert np.array_equal(op.indptr, ref.indptr)
            assert np.array_equal(op.indices, ref.indices)
            assert np.array_equal(op.data, ref.data)


class TestSingleMode:
    @pytest.mark.parametrize("n", [*range(1, 40), 1000])
    def test_letters_match_entrywise_oracle(self, n):
        # Bit for bit: the word kernel on the one-mode space assigns the
        # same amplitudes, conjugates and adjoints as entrywise assignment.
        order = GentileOrder(n)
        ops, ref = single_mode_ops(order), entrywise_letters(order)
        for name in ("a", "b", "a_dag", "b_dag"):
            assert_csr_bit_equal(getattr(ops, name), ref[name])

    def test_fermi_like_matrices(self):
        ops = single_mode_ops(GentileOrder(1))
        a = ops.a.toarray()
        assert a[0, 1] == 1.0 + 0j
        assert np.count_nonzero(a) == 1

    def test_order_two_amplitude(self):
        ops = single_mode_ops(GentileOrder(2))
        assert ops.a[1, 2] == pytest.approx(cmath.exp(-1j * math.pi / 6), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_structural_invariants(self, n):
        ops = single_mode_ops(GentileOrder(n))
        assert max_abs(ops.a - ops.b.conjugate()) == 0.0
        assert max_abs(ops.a_dag - ops.a.getH()) == 0.0
        assert max_abs(ops.b_dag - ops.b.getH()) == 0.0
        num = ops.num.toarray()
        assert np.array_equal(num, np.diag(np.arange(n + 1)))
        # raiser column at the top state is structurally empty
        assert ops.a_dag[:, n].nnz == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ladder_algebra_suite(self, n):
        residuals = single_mode_residuals(GentileOrder(n))
        for key in (
            "nbracket_unit",
            "annihilator_pair_phase",
            "creator_pair_phase",
            "raiser_lowerer_diag",
            "ladder_gap_diag",
            "top_state_annihilation",
        ):
            assert residuals[key] < 1e-12, key

    @pytest.mark.parametrize("n", range(2, 9))
    def test_double_angle_phase_fails(self, n):
        # the daggered pair relation only holds with the half phase; the
        # double-angle version misses by an order-one margin
        residuals = single_mode_residuals(GentileOrder(n))
        assert residuals["creator_pair_phase_double_angle"] > 0.5

    def test_double_angle_vacuous_at_order_one(self):
        residuals = single_mode_residuals(GentileOrder(1))
        assert residuals["creator_pair_phase_double_angle"] == 0.0


class TestEmbedding:
    def test_identity_embeds_to_identity(self):
        order = GentileOrder(1)
        basis = enumerate_basis(2, 2, order)
        eye = sp.identity(2, dtype=complex, format="csr")
        embedded = kron_embed(eye, 1, 2, basis)
        assert max_abs(embedded.mat - sp.identity(basis.dim, dtype=complex)) == 0.0

    def test_number_embedding_is_occupation_diagonal(self):
        order = GentileOrder(2)
        basis = enumerate_basis(2, 2, order)
        ops = single_mode_ops(order)
        embedded = kron_embed(ops.num, 1, 1, basis)
        diag = embedded.mat.diagonal().real
        np.testing.assert_array_equal(diag, basis.occupations[:, 0])

    def test_different_modes_commute(self):
        order = GentileOrder(1)
        basis = enumerate_basis(2, 2, order)
        ops = single_mode_ops(order)
        first = kron_embed(ops.a, 1, 1, basis)
        second = kron_embed(ops.a, 2, 2, basis)
        assert max_abs(first.mat @ second.mat - second.mat @ first.mat) == 0.0

    def test_shape_and_sector_rejection(self):
        order = GentileOrder(2)
        basis = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        with pytest.raises(ValueError):
            kron_embed(np.eye(2), 1, 1, basis)  # needs 3x3 at n=2
        with pytest.raises(ValueError):
            kron_embed(np.eye(3), 1, 1, sector)

    def test_embedded_ladder_entry_count(self):
        order = GentileOrder(2)
        basis = enumerate_basis(2, 2, order)
        ops = single_mode_ops(order)
        embedded = kron_embed(ops.a, 2, 1, basis)
        assert embedded.nnz <= basis.dim


class TestRestriction:
    def test_identity_restricts_cleanly(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        eye = as_operator(sp.identity(full.dim, dtype=complex))
        assert leakage(eye, sector) == 0.0
        result = restrict(eye, sector)
        assert max_abs(result.mat - sp.identity(sector.dim, dtype=complex)) == 0.0

    def test_generator_has_no_leakage(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        assert leakage(unitary_generator(1, 2, full), sector) == 0.0

    def test_bare_annihilator_leaks(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        ops = single_mode_ops(order)
        lone = kron_embed(ops.a, 1, 1, full)
        assert leakage(lone, sector) > 0.0

    def test_leakage_counts_both_directions(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        inside, outside = int(sector.ranks[0]), 0
        single = sp.csr_matrix(([0.5], ([inside], [outside])), shape=(full.dim, full.dim))
        for mat in (single, single.T):
            assert leakage(as_operator(mat), sector) == 0.5

    def test_restrict_commutes_with_assembly_for_conserving_operators(self):
        # restricting the assembled product equals assembling from the
        # restricted factors whenever the factors do not leak
        order = GentileOrder(2)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        c2_restricted = restrict(casimir_c2(full), sector).mat
        rebuilt = None
        for k in (1, 2):
            for l in (1, 2):
                assert leakage(unitary_generator(k, l, full), sector) == 0.0
                kl = restrict(unitary_generator(k, l, full), sector)
                lk = restrict(unitary_generator(l, k, full), sector)
                term = kl.mat @ lk.mat
                rebuilt = term if rebuilt is None else rebuilt + term
        assert max_abs(c2_restricted - rebuilt) < 1e-12


class TestExchange:
    def test_swap_with_unit_amplitude(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        assert leakage(exchange_op(1, 2, full), sector) < 1e-12
        tau = restrict(exchange_op(1, 2, full), sector)
        oracle = swap_matrix_oracle(sector, 1, 2)
        assert max_abs(tau.mat - oracle) < 1e-12
        # spot: (pos1 state1, pos2 state2) -> (pos1 state2, pos2 state1)
        src = ordinal(sector, (1, 0, 0, 1))
        dst = ordinal(sector, (0, 1, 1, 0))
        assert tau.mat[dst, src] == pytest.approx(1.0, abs=1e-12)

    def test_same_state_is_fixed_point(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        tau = restrict(exchange_op(1, 2, full), sector)
        both_first = ordinal(sector, (1, 0, 1, 0))
        column = tau.mat[:, both_first].toarray().ravel()
        assert column[both_first] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(np.delete(column, both_first)).max() < 1e-12

    def test_involution_on_sector(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        tau = restrict(exchange_op(1, 2, full), sector)
        assert max_abs(tau.mat @ tau.mat - sp.identity(sector.dim, dtype=complex)) < 1e-12

    def test_exchange_spectrum(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        tau = restrict(exchange_op(1, 2, full), sector)
        assert eigensolve_hermitian(tau.mat) == [
            (pytest.approx(-1.0, abs=1e-10), 1),
            (pytest.approx(1.0, abs=1e-10), 3),
        ]

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_sector_matrix_is_order_independent(self, n):
        # amplitudes on the one-particle sector are all unity, so the
        # restricted exchange is the same matrix at every order; this is the
        # mechanism behind using a large order as the Bose proxy
        order = GentileOrder(n)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        tau = restrict(exchange_op(1, 2, full), sector)
        oracle = swap_matrix_oracle(sector, 1, 2)
        assert max_abs(tau.mat - oracle) < 1e-12

    def test_argument_validation(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        with pytest.raises(ValueError):
            exchange_op(1, 1, full)
        with pytest.raises(ValueError):
            exchange_op(2, 1, full)
        with pytest.raises(ValueError):
            exchange_op(1, 3, full)
        # sectors are a supported input: built directly, equal to the
        # restriction of the full-space oracle
        assert_bit_equal(
            exchange_op(1, 2, sector), restrict(kron_exchange_oracle(full, 1, 2), sector)
        )


class TestClassSum:
    def test_two_positions_single_pair(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        assert max_abs(class_sum(full).mat - exchange_op(1, 2, full).mat) == 0.0

    def test_three_positions_sum(self):
        order = GentileOrder(1)
        full = enumerate_basis(3, 2, order)
        expected = (
            exchange_op(1, 2, full).mat
            + exchange_op(1, 3, full).mat
            + exchange_op(2, 3, full).mat
        )
        assert max_abs(class_sum(full).mat - expected) == 0.0

    def test_three_position_spectrum(self):
        order = GentileOrder(1)
        full = enumerate_basis(3, 2, order)
        sector = enumerate_basis(3, 2, order, sector=1)
        restricted = restrict(class_sum(full), sector)
        clusters = eigensolve_hermitian(restricted.mat)
        assert [(round(v, 9), mult) for v, mult in clusters] == [(0.0, 4), (3.0, 4)]

    def test_single_position_rejected(self):
        order = GentileOrder(1)
        full = enumerate_basis(1, 2, order)
        with pytest.raises(ValueError):
            class_sum(full)


class TestGenerators:
    def test_transfer_amplitude_is_two(self):
        # single position: both generator words coincide, so the amplitude
        # doubles exactly as the raw construction dictates
        order = GentileOrder(1)
        full = enumerate_basis(1, 2, order)
        gen = unitary_generator(1, 2, full)
        src = ordinal(full, (0, 1))
        dst = ordinal(full, (1, 0))
        assert gen.mat[dst, src] == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_generator_hermitian(self):
        order = GentileOrder(2)
        full = enumerate_basis(2, 2, order)
        for k in (1, 2):
            gen = unitary_generator(k, k, full)
            assert max_abs(gen.mat - gen.mat.getH()) < 1e-12

    def test_state_bounds(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        with pytest.raises(ValueError):
            unitary_generator(0, 1, full)
        with pytest.raises(ValueError):
            unitary_generator(1, 3, full)


class TestCasimirs:
    def test_hermitian(self):
        order = GentileOrder(2)
        full = enumerate_basis(2, 2, order)
        for op in (casimir_c1(full), casimir_c2(full)):
            assert max_abs(op.mat - op.mat.getH()) < 1e-12

    def test_single_state_second_order(self):
        order = GentileOrder(2)
        full = enumerate_basis(2, 1, order)
        gen = unitary_generator(1, 1, full)
        assert max_abs(casimir_c2(full).mat - gen.mat @ gen.mat) == 0.0

    def test_commutes_with_generators_on_sector(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        c2 = restrict(casimir_c2(full), sector)
        for k in (1, 2):
            for l in (1, 2):
                gen = restrict(unitary_generator(k, l, full), sector)
                assert max_abs(c2.mat @ gen.mat - gen.mat @ c2.mat) < 1e-10

    def test_sector_spectrum_reflects_doubling(self):
        # measured second-order values are 4x the shifted irrep eigenvalues
        # because the generator construction carries amplitude 2
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        c2 = restrict(casimir_c2(full), sector)
        clusters = eigensolve_hermitian(c2.mat)
        assert [(round(v, 9), mult) for v, mult in clusters] == [(8.0, 1), (24.0, 3)]


class TestDiagonalOperators:
    def test_coupling_sum_values(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        vacuum = ordinal(full, (0, 0, 0, 0))
        j_diag = coupling_sum(full).mat.diagonal().real
        assert j_diag[vacuum] == 0.0
        sector = enumerate_basis(2, 2, order, sector=1)
        restricted = restrict(coupling_sum(full), sector)
        np.testing.assert_allclose(restricted.mat.diagonal().real, -2.0, atol=1e-12)

    def test_coupling_sum_is_diagonal(self):
        order = GentileOrder(2)
        full = enumerate_basis(2, 2, order)
        mat = coupling_sum(full).mat.tocoo()
        assert np.all(mat.row == mat.col)

    def test_total_and_position_numbers(self):
        order = GentileOrder(2)
        full = enumerate_basis(2, 2, order)
        totals = total_number(full).mat.diagonal().real
        np.testing.assert_array_equal(totals, full.occupations.sum(axis=1))
        positions = full.occupations.reshape(full.dim, full.nu, full.m).sum(axis=2)
        np.testing.assert_array_equal(positions.sum(axis=1), totals)


class TestMatrixUtilities:
    def test_self_commutator_vanishes(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        tau = exchange_op(1, 2, full)
        assert max_abs(tau.mat @ tau.mat - tau.mat @ tau.mat) == 0.0

    def test_hermitian_part_fixed_point(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        c1 = casimir_c1(full)
        assert max_abs(hermitian_part(c1.mat) - c1.mat) < 1e-14

    def test_n_bracket_of_ladder_is_identity(self):
        for n in range(1, 6):
            order = GentileOrder(n)
            ops = single_mode_ops(order)
            bracket = ops.b @ ops.a_dag - order.q * (ops.a_dag @ ops.b)
            assert max_abs(bracket - sp.identity(n + 1, dtype=complex)) < 1e-12

    def test_entrywise_operations(self):
        mat = sp.csr_matrix(np.array([[1 + 2j, 0], [0, -3j]]))
        real = entrywise_real(mat).toarray()
        np.testing.assert_allclose(real, [[1, 0], [0, 0]])

    def test_assembly_prunes_tiny_entries(self):
        mat = sp.csr_matrix(np.array([[1.0, 1e-16], [0.0, 1.0]], dtype=complex))
        op = as_operator(mat)
        assert op.nnz == 2
        assert all(abs(v) >= 1e-14 for v in op.mat.data)


class TestEigensolver:
    def test_identity(self):
        op = as_operator(sp.identity(4, dtype=complex))
        assert eigensolve_hermitian(op.mat) == [(1.0, 4)]

    def test_two_level_diagonal(self):
        op = as_operator(sp.diags([0.0, 1.0], 0, dtype=complex))
        assert eigensolve_hermitian(op.mat) == [(0.0, 1), (1.0, 1)]

    def test_degeneracy_clustering(self):
        op = as_operator(sp.diags([0.0, 1e-9], 0, dtype=complex))
        clusters = eigensolve_hermitian(op.mat, degeneracy_tol=1e-8)
        assert len(clusters) == 1 and clusters[0][1] == 2

    def test_multiplicities_sum_to_dim(self):
        order = GentileOrder(1)
        full = enumerate_basis(3, 2, order)
        sector = enumerate_basis(3, 2, order, sector=1)
        clusters = eigensolve_hermitian(restrict(class_sum(full), sector).mat)
        assert sum(mult for _, mult in clusters) == sector.dim

    def test_non_hermitian_rejected(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(NonHermitianError) as err:
            eigensolve_hermitian(as_operator(mat).mat)
        assert err.value.asymmetry == pytest.approx(1.0)

    def test_dimension_cap(self):
        op = as_operator(sp.identity(8, dtype=complex))
        with pytest.raises(SizingError):
            eigensolve_hermitian(op.mat, dense_cap=4)
