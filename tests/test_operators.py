"""Operator kernel: ladder matrices, word application, composites, eigensolver."""

import cmath
import itertools
import math
import re
import sys
import time
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from gentile import (
    GentileOrder,
    IdentityId,
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
    sqrt_bracket,
    total_number,
    VerificationTask,
    default_grid_tasks,
    run_grid,
    run_task,
    unitary_generator,
)
from gentile import operators, verifier
from gentile.basis import check_dimension
from gentile.operators import CSR, _ladder
from gentile.verifier import _ladder_nbracket, _single_mode_diffs
from scipy_oracle import to_scipy


def ordinal(basis, state):
    """A state's ordinal: its mixed-radix rank located in ``basis.ranks``."""
    rank = np.ravel_multi_index(state, (basis.order.n + 1,) * basis.modes)
    return int(np.searchsorted(basis.ranks, rank))


def restrict(op, sector):
    """A full-space operator on the sector's rows and columns.

    A sector's ranks are its full-space ordinals, so this is a slice.
    """
    return as_operator(to_scipy(op)[sector.ranks][:, sector.ranks])


def leakage(op, sector):
    """What :func:`restrict` ignores: the largest entry magnitude coupling
    sector states to non-sector states, in either direction (0.0 if none).
    """
    inside = np.zeros(op.shape[0], dtype=bool)
    inside[sector.ranks] = True
    coo = to_scipy(op).tocoo()
    return float(np.abs(coo.data[inside[coo.row] != inside[coo.col]]).max(initial=0.0))


def mode_letters(order):
    """The four single-mode ladder letters: the word kernel's on the one-mode space."""
    mode = enumerate_basis(1, 1, order)
    return SimpleNamespace(**{name: _ladder(mode, name, 0)
                              for name in ("a", "b", "a_dag", "b_dag")})


def single_mode_residuals(order):
    """Residuals of the single-mode ladder-algebra suite, keyed by relation."""
    diffs = _single_mode_diffs(enumerate_basis(1, 1, order))
    return {key: max(map(max_abs, d)) for key, d in diffs.items()}


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
    out = to_scipy(op).astype(np.complex128)
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
    mat = to_scipy(op)
    if mat.shape != (d, d):
        raise ValueError(f"single-mode operator must be {d}x{d}, got {mat.shape}")
    flat = basis.flat_modes(position, state)
    return as_operator(kron_embed_flat(mat, flat, basis))


@lru_cache(maxsize=64)
def entrywise_letters(order):
    """The four single-mode ladder letters, assigned entry by entry.

    An oracle for :func:`mode_letters`, independent of the word kernel.
    """
    d = order.n + 1
    b = sp.lil_matrix((d, d), dtype=np.complex128)
    a = sp.lil_matrix((d, d), dtype=np.complex128)
    for level in range(1, d):
        amp = sqrt_bracket(level, order)
        b[level - 1, level] = amp
        a[level - 1, level] = amp.conjugate()
    a, b = a.tocsr(), b.tocsr()
    return {"a": a, "b": b, "a_dag": as_operator(a.getH()),
            "b_dag": as_operator(b.getH())}


@lru_cache(maxsize=32)
def kron_mode_ops(full):
    """Every ladder letter embedded at every flat mode of a full basis."""
    return {
        name: [kron_embed_flat(mat, f, full) for f in range(full.modes)]
        for name, mat in entrywise_letters(full.order).items()
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
    f = full.flat_modes
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
            total = total + to_scipy(kron_exchange_oracle(full, i, j))
    return as_operator(total)


def kron_generator_oracle(full, k, l):
    """Reference E(k, l): both two-letter words at every position, summed."""
    emb = kron_mode_ops(full)
    f = full.flat_modes
    total = sp.csr_matrix((full.dim, full.dim), dtype=np.complex128)
    for i in range(1, full.nu + 1):
        total = total + kron_word([emb["a_dag"][f(i, k)], emb["b"][f(i, l)]])
        total = total + kron_word([emb["b_dag"][f(i, k)], emb["a"][f(i, l)]])
    return as_operator(total)


def kron_casimir_oracles(full):
    """Reference C1 and C2 from the reference generators."""
    gens = {
        (k, l): to_scipy(kron_generator_oracle(full, k, l))
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
        assert_csr_bit_equal(build(full), ref)
    for t in range(n * m + 1):
        sector = enumerate_basis(nu, m, order, sector=t)
        for build, ref in cases:
            assert_csr_bit_equal(build(sector), restrict(ref, sector))
    # One-letter words: the conjugated letters carry -0.0 imaginary parts
    # where the Kronecker product gives +0.0, so compare values, not bits.
    emb = kron_mode_ops(full)
    for name in ("a", "b", "a_dag", "b_dag"):
        for flat in range(full.modes):
            op, ref = _ladder(full, name, flat), emb[name][flat]
            assert np.array_equal(op.indptr, ref.indptr)
            assert np.array_equal(op.indices, ref.indices)
            assert np.array_equal(op.data, ref.data)


#: The letters of the two quartic words of one exchange group.
EXCHANGE_WORDS = [("a_dag", "a_dag", "b", "b"), ("a_dag", "b_dag", "b", "a")]


def misplaced_exchange(basis, i, j):
    """The exchange of ``(i, j)`` with ``b(j,l)`` in place of ``b(i,l)`` in both
    words: each word moves a particle from position ``j`` to position ``i``."""
    k, l = np.indices((basis.m, basis.m)).reshape(2, -1) + 1
    f = basis.flat_modes
    modes = np.stack([f(i, k), f(j, l), f(j, l), f(j, k)], axis=-1)[None]
    return as_operator(operators._apply_words(basis, EXCHANGE_WORDS, modes, scale=0.5))


class TestClosureCheck:
    """The word kernel refuses a word whose target leaves its basis, and names it."""

    @pytest.mark.parametrize("n, nu, m", list(itertools.product((1, 2, 3), repeat=3)))
    def test_every_letter_refused_on_sectors_it_acts_on(self, n, nu, m):
        # A letter changes one position's total.  A lowerer acts on every
        # sector but sector:0, a raiser on every sector but sector:n*m (every
        # mode at n); on that one it acts on no state and is the zero operator.
        for t in range(n * m + 1):
            sector = enumerate_basis(nu, m, GentileOrder(n), sector=t)
            for name, flat in itertools.product(("a", "b", "a_dag", "b_dag"), range(nu * m)):
                if t == (n * m if name.endswith("dag") else 0):
                    assert _ladder(sector, name, flat).nnz == 0
                    continue
                message = re.escape(f"word {name}({flat}) leaves the sector:{t} basis")
                with pytest.raises(ValueError, match=message):
                    _ladder(sector, name, flat)

    @pytest.mark.parametrize("n, nu, m", [p for p in ORACLE_GRID if p[0] * p[2] >= 2])
    def test_misplaced_exchange_letter(self, n, nu, m, monkeypatch):
        # The misplaced word lowers position j twice and raises position i:
        # it acts where j holds two particles and i has room, which on a
        # sector means 2 <= t < n*m.  Those sectors refuse it, on the others
        # it is the zero operator, and on the full space it is built and
        # sector_conservation fails.
        monkeypatch.setattr(verifier, "exchange_op", lambda i, j, b: misplaced_exchange(b, i, j))
        word = r"word a_dag\(\d+\) a_dag\(\d+\) b\(\d+\) b\(\d+\)"
        for t in range(n * m + 1):
            sector = enumerate_basis(nu, m, GentileOrder(n), sector=t)
            verdict = run_task(VerificationTask(IdentityId.SECTOR_CONSERVATION, n, nu, m, t))
            if 2 <= t < n * m:
                with pytest.raises(ValueError, match=f"{word} leaves the sector:{t} basis"):
                    misplaced_exchange(sector, 1, 2)
                assert verdict.status == "error", verdict.detail
                assert re.search(f"{word} leaves the sector:{t} basis", verdict.detail)
            else:
                assert misplaced_exchange(sector, 1, 2).nnz == 0
                assert verdict.status == "pass", verdict.detail
        verdict = run_task(VerificationTask(IdentityId.SECTOR_CONSERVATION, n, nu, m, None))
        assert verdict.status == "fail"
        assert verdict.residual > 0.0


class TestSingleMode:
    @pytest.mark.parametrize("n", [*range(1, 40), 1000])
    def test_letters_match_entrywise_oracle(self, n):
        # Bit for bit: the word kernel on the one-mode space assigns the
        # same amplitudes, conjugates and adjoints as entrywise assignment.
        order = GentileOrder(n)
        ops, ref = mode_letters(order), entrywise_letters(order)
        for name in ("a", "b", "a_dag", "b_dag"):
            assert_csr_bit_equal(getattr(ops, name), ref[name])

    def test_fermi_like_matrices(self):
        ops = mode_letters(GentileOrder(1))
        a = ops.a.toarray()
        assert a[0, 1] == 1.0 + 0j
        assert np.count_nonzero(a) == 1

    def test_order_two_amplitude(self):
        ops = mode_letters(GentileOrder(2))
        assert ops.a.toarray()[1, 2] == pytest.approx(cmath.exp(-1j * math.pi / 6), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_structural_invariants(self, n):
        ops = mode_letters(GentileOrder(n))
        assert max_abs(to_scipy(ops.a) - to_scipy(ops.b).conjugate()) == 0.0
        assert max_abs(ops.a_dag - ops.a.getH()) == 0.0
        assert max_abs(ops.b_dag - ops.b.getH()) == 0.0
        # raiser column at the top state is structurally empty
        assert to_scipy(ops.a_dag)[:, n].nnz == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ladder_algebra_suite(self, n):
        residuals = single_mode_residuals(GentileOrder(n))
        assert _ladder_nbracket(enumerate_basis(1, 2, GentileOrder(n))) < 1e-12
        for key in (
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
        assert max_abs(to_scipy(embedded) - sp.identity(basis.dim, dtype=complex)) == 0.0

    def test_number_embedding_is_occupation_diagonal(self):
        order = GentileOrder(2)
        basis = enumerate_basis(2, 2, order)
        embedded = kron_embed(sp.diags(np.arange(order.n + 1.0)), 1, 1, basis)
        diag = embedded.diagonal().real
        np.testing.assert_array_equal(diag, basis.occupations[:, 0])

    def test_different_modes_commute(self):
        order = GentileOrder(1)
        basis = enumerate_basis(2, 2, order)
        ops = mode_letters(order)
        first = kron_embed(ops.a, 1, 1, basis)
        second = kron_embed(ops.a, 2, 2, basis)
        assert max_abs(first @ second - second @ first) == 0.0

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
        ops = mode_letters(order)
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
        assert max_abs(to_scipy(result) - sp.identity(sector.dim, dtype=complex)) == 0.0

    def test_generator_has_no_leakage(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        assert leakage(unitary_generator(1, 2, full), sector) == 0.0

    def test_bare_annihilator_leaks(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        ops = mode_letters(order)
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
        c2_restricted = restrict(casimir_c2(full), sector)
        rebuilt = None
        for k in (1, 2):
            for l in (1, 2):
                assert leakage(unitary_generator(k, l, full), sector) == 0.0
                kl = restrict(unitary_generator(k, l, full), sector)
                lk = restrict(unitary_generator(l, k, full), sector)
                term = kl @ lk
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
        assert max_abs(to_scipy(tau) - oracle) < 1e-12
        # spot: (pos1 state1, pos2 state2) -> (pos1 state2, pos2 state1)
        src = ordinal(sector, (1, 0, 0, 1))
        dst = ordinal(sector, (0, 1, 1, 0))
        assert tau.toarray()[dst, src] == pytest.approx(1.0, abs=1e-12)

    def test_same_state_is_fixed_point(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        tau = restrict(exchange_op(1, 2, full), sector)
        both_first = ordinal(sector, (1, 0, 1, 0))
        column = tau.toarray()[:, both_first]
        assert column[both_first] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(np.delete(column, both_first)).max() < 1e-12

    def test_involution_on_sector(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        tau = restrict(exchange_op(1, 2, full), sector)
        assert max_abs(to_scipy(tau @ tau) - sp.identity(sector.dim, dtype=complex)) < 1e-12

    def test_exchange_spectrum(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        tau = restrict(exchange_op(1, 2, full), sector)
        assert eigensolve_hermitian(tau) == [
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
        assert max_abs(to_scipy(tau) - oracle) < 1e-12

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
        assert_csr_bit_equal(
            exchange_op(1, 2, sector), restrict(kron_exchange_oracle(full, 1, 2), sector)
        )


class TestClassSum:
    def test_two_positions_single_pair(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        assert max_abs(class_sum(full) - exchange_op(1, 2, full)) == 0.0

    def test_three_positions_sum(self):
        order = GentileOrder(1)
        full = enumerate_basis(3, 2, order)
        expected = (
            exchange_op(1, 2, full)
            + exchange_op(1, 3, full)
            + exchange_op(2, 3, full)
        )
        assert max_abs(class_sum(full) - expected) == 0.0

    def test_three_position_spectrum(self):
        order = GentileOrder(1)
        full = enumerate_basis(3, 2, order)
        sector = enumerate_basis(3, 2, order, sector=1)
        restricted = restrict(class_sum(full), sector)
        clusters = eigensolve_hermitian(restricted)
        assert [(round(v, 9), mult) for v, mult in clusters] == [(0.0, 4), (3.0, 4)]

    def test_single_position_rejected(self):
        order = GentileOrder(1)
        full = enumerate_basis(1, 2, order)
        with pytest.raises(ValueError):
            class_sum(full)

    @pytest.mark.parametrize("nu, m", [(nu, m) for nu in range(2, 6) for m in (1, 2, 3)])
    def test_spin_sector_class_sum_free_of_order(self, nu, m):
        # Every letter meets only levels 0 and 1 on sector:1, so the class sum
        # there, and with it the spectrum, is the same matrix at every order.
        ref = class_sum(enumerate_basis(nu, m, GentileOrder(1), sector=1))
        for n in (2, 3, 4):
            assert_csr_bit_equal(class_sum(enumerate_basis(nu, m, GentileOrder(n), sector=1)), ref)


class TestGenerators:
    def test_transfer_amplitude_is_two(self):
        # single position: both generator words coincide, so the amplitude
        # doubles exactly as the raw construction dictates
        order = GentileOrder(1)
        full = enumerate_basis(1, 2, order)
        gen = unitary_generator(1, 2, full)
        src = ordinal(full, (0, 1))
        dst = ordinal(full, (1, 0))
        assert gen.toarray()[dst, src] == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_generator_hermitian(self):
        order = GentileOrder(2)
        full = enumerate_basis(2, 2, order)
        for k in (1, 2):
            gen = unitary_generator(k, k, full)
            assert max_abs(gen - gen.getH()) < 1e-12

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
            assert max_abs(op - op.getH()) < 1e-12

    def test_single_state_second_order(self):
        order = GentileOrder(2)
        full = enumerate_basis(2, 1, order)
        gen = unitary_generator(1, 1, full)
        assert max_abs(casimir_c2(full) - gen @ gen) == 0.0

    def test_commutes_with_generators_on_sector(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        c2 = restrict(casimir_c2(full), sector)
        for k in (1, 2):
            for l in (1, 2):
                gen = restrict(unitary_generator(k, l, full), sector)
                assert max_abs(c2 @ gen - gen @ c2) < 1e-10

    def test_sector_spectrum_reflects_doubling(self):
        # measured second-order values are 4x the shifted irrep eigenvalues
        # because the generator construction carries amplitude 2
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        sector = enumerate_basis(2, 2, order, sector=1)
        c2 = restrict(casimir_c2(full), sector)
        clusters = eigensolve_hermitian(c2)
        assert [(round(v, 9), mult) for v, mult in clusters] == [(8.0, 1), (24.0, 3)]


class TestDiagonalOperators:
    def test_coupling_sum_values(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        vacuum = ordinal(full, (0, 0, 0, 0))
        j_diag = coupling_sum(full).diagonal().real
        assert j_diag[vacuum] == 0.0
        sector = enumerate_basis(2, 2, order, sector=1)
        restricted = restrict(coupling_sum(full), sector)
        np.testing.assert_allclose(restricted.diagonal().real, -2.0, atol=1e-12)

    def test_coupling_sum_is_diagonal(self):
        order = GentileOrder(2)
        full = enumerate_basis(2, 2, order)
        mat = to_scipy(coupling_sum(full)).tocoo()
        assert np.all(mat.row == mat.col)

    def test_total_and_position_numbers(self):
        order = GentileOrder(2)
        full = enumerate_basis(2, 2, order)
        totals = total_number(full).diagonal().real
        np.testing.assert_array_equal(totals, full.occupations.sum(axis=1))
        positions = full.occupations.reshape(full.dim, full.nu, full.m).sum(axis=2)
        np.testing.assert_array_equal(positions.sum(axis=1), totals)


class TestMatrixUtilities:
    def test_self_commutator_vanishes(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        tau = exchange_op(1, 2, full)
        assert max_abs(tau @ tau - tau @ tau) == 0.0

    def test_hermitian_part_fixed_point(self):
        order = GentileOrder(1)
        full = enumerate_basis(2, 2, order)
        c1 = casimir_c1(full)
        assert max_abs(hermitian_part(c1) - c1) < 1e-14

    def test_n_bracket_of_ladder_is_identity(self):
        for n in range(1, 6):
            order = GentileOrder(n)
            ops = mode_letters(order)
            bracket = ops.b @ ops.a_dag - order.q * (ops.a_dag @ ops.b)
            assert max_abs(to_scipy(bracket) - sp.identity(n + 1, dtype=complex)) < 1e-12

    def test_entrywise_operations(self):
        mat = sp.csr_matrix(np.array([[1 + 2j, 0], [0, -3j]]))
        real = entrywise_real(mat).toarray()
        np.testing.assert_allclose(real, [[1, 0], [0, 0]])

    def test_assembly_prunes_tiny_entries(self):
        mat = sp.csr_matrix(np.array([[1.0, 1e-16], [0.0, 1.0]], dtype=complex))
        op = as_operator(mat)
        assert op.nnz == 2
        assert all(abs(v) >= 1e-14 for v in op.data)

    @pytest.mark.parametrize("kind", ["complex_csr", "real_unsorted_csr", "csr_array", "coo",
                                      "dense"])
    def test_as_operator_leaves_its_argument_as_it_was(self, kind):
        # Each argument has an entry to prune; the real CSR also has row 0
        # unsorted, so sorting its indices in place, with its data left in
        # place, would move the 1.0 at (0, 0) to (0, 1).
        entries = ([2.0, 1.0, 1e-16], [1, 0, 1], [0, 2, 3])
        mat = {
            "complex_csr": sp.csr_matrix(np.array([[1.0, 1e-16], [0.0, 1.0]], dtype=complex)),
            "real_unsorted_csr": sp.csr_matrix(entries, shape=(2, 2)),
            "csr_array": sp.csr_array(entries, shape=(2, 2), dtype=complex),
            "coo": sp.coo_matrix(([1.0, 1e-16, 2.0], ([0, 0, 0], [0, 1, 1])), shape=(2, 2)),
            "dense": np.array([[1.0, 2.0], [1e-16, 0.0]]),
        }[kind]
        dense = mat.toarray() if sp.issparse(mat) else mat.copy()
        held = stored_arrays(mat)
        saved = [array.copy() for array in held]
        op = as_operator(mat)
        np.testing.assert_array_equal(op.toarray(), np.where(np.abs(dense) < 1e-14, 0, dense))
        for before, after in zip(saved, held):
            np.testing.assert_array_equal(after, before)
        assert not any(np.shares_memory(out, array)
                       for out in (op.data, op.indices, op.indptr) for array in held)


def stored_arrays(mat):
    """The arrays a dense or sparse matrix keeps its entries in."""
    if not sp.issparse(mat):
        return [mat]
    names = ("data", "row", "col") if mat.format == "coo" else ("data", "indices", "indptr")
    return [getattr(mat, name) for name in names]


BUILDERS = {
    "exchange_op": lambda basis: exchange_op(1, 2, basis),
    "class_sum": class_sum,
    "unitary_generator": lambda basis: unitary_generator(1, 2, basis),
    "casimir_c1": casimir_c1,
    "casimir_c2": casimir_c2,
    "coupling_sum": coupling_sum,
    "total_number": total_number,
}


@pytest.mark.parametrize("n, nu, m", [(1, 2, 2), (2, 3, 2), (1, 2, 3)])
@pytest.mark.parametrize("sector", [None, 1], ids=["full", "sector1"])
@pytest.mark.parametrize("name", BUILDERS)
def test_builder_returns_pruned_canonical_csr(name, sector, n, nu, m):
    """Every public builder returns its matrix as complex128 CSR in canonical
    form, with sorted indices and no stored entry below ``DROP_TOL``."""
    basis = enumerate_basis(nu, m, GentileOrder(n), sector=sector)
    op = BUILDERS[name](basis)
    assert type(op) is CSR
    assert op.data.dtype == np.complex128 and op.shape == (basis.dim, basis.dim)
    assert to_scipy(op).has_canonical_format and to_scipy(op).has_sorted_indices
    assert np.abs(op.data).min(initial=np.inf) >= operators.DROP_TOL


class TestEigensolver:
    def test_identity(self):
        op = as_operator(sp.identity(4, dtype=complex))
        assert eigensolve_hermitian(op) == [(1.0, 4)]

    def test_two_level_diagonal(self):
        op = as_operator(sp.diags([0.0, 1.0], 0, dtype=complex))
        assert eigensolve_hermitian(op) == [(0.0, 1), (1.0, 1)]

    def test_degeneracy_clustering(self):
        op = as_operator(sp.diags([0.0, 1e-9], 0, dtype=complex))
        clusters = eigensolve_hermitian(op)
        assert len(clusters) == 1 and clusters[0][1] == 2

    def test_multiplicities_sum_to_dim(self):
        order = GentileOrder(1)
        full = enumerate_basis(3, 2, order)
        sector = enumerate_basis(3, 2, order, sector=1)
        clusters = eigensolve_hermitian(restrict(class_sum(full), sector))
        assert sum(mult for _, mult in clusters) == sector.dim

    def test_non_hermitian_rejected(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(NonHermitianError) as err:
            eigensolve_hermitian(as_operator(mat))
        assert err.value.asymmetry == pytest.approx(1.0)

    def test_dimension_cap(self):
        # The one dense-cap comparison is the basis's sizing, made before
        # anything is built: the n=1, nu=2, m=3 full space has 64 states and a
        # largest weight block of 2**3 = 8.  The solve takes the matrix it is given.
        assert check_dimension(1, 2, 3, None, 2**20, dense_cap=8) == 64
        with pytest.raises(SizingError, match="dense eigensolve needs dim 8 > dense cap 4"):
            check_dimension(1, 2, 3, None, 2**20, dense_cap=4)
        op = as_operator(sp.identity(8, dtype=complex))
        assert eigensolve_hermitian(op) == [(1.0, 8)]


#: The benchmark's spectrum ladder as (n, m, nu), all on the spin sector.
LADDER = ([(1, 2, nu) for nu in range(2, 10)] + [(2, 2, nu) for nu in range(2, 6)]
          + [(1, 3, nu) for nu in range(2, 6)] + [(3, 2, 4)])

#: Further spin-sector points at orders 2 and 3.
SPIN_POINTS = [(n, m, nu) for n in (2, 3) for m in (2, 3) for nu in (2, 3, 4)]


def one_block_complex(mat, tol=1e-8):
    """The unblocked solve: one complex ``eigvalsh`` of the whole matrix,
    clustered like :func:`eigensolve_hermitian`."""
    dense = mat.toarray()
    values = np.linalg.eigvalsh((dense + dense.conj().T) * 0.5)
    cuts = [0, *(np.flatnonzero(np.diff(values) >= tol) + 1), len(values)]
    return [(values[a:b].mean(), b - a) for a, b in zip(cuts, cuts[1:])]


def assert_same_clusters(got, expected):
    assert [mult for _, mult in got] == [mult for _, mult in expected]
    assert max(abs(a - b) for (a, _), (b, _) in zip(got, expected)) <= 1e-12


def momentum_states(nu, m, momenta=None):
    """Momentum states of the descending weights of the spin sector, ``k`` in
    ``momenta`` (default ``0..nu/2``), counted from the rotation orbits of
    its label strings."""
    momenta = range(nu // 2 + 1) if momenta is None else momenta
    seen, count = set(), 0
    for labels in itertools.product(range(m), repeat=nu):
        if labels in seen:
            continue
        orbit = {labels[s:] + labels[:s] for s in range(nu)}
        seen |= orbit
        weight = [labels.count(label) for label in range(m)]
        if weight == sorted(weight, reverse=True):
            count += sum(1 for k in momenta if k * len(orbit) % nu == 0)
    return count


def translation_matrix(basis):
    """The permutation matrix of ``T: i -> i+1`` on ``basis``, from its
    occupation tuples."""
    index = {tuple(row): i for i, row in enumerate(basis.occupations.tolist())}
    m = basis.m
    images = [index[tuple(row[-m:] + row[:-m])] for row in basis.occupations.tolist()]
    return sp.csr_matrix((np.ones(basis.dim), (images, np.arange(basis.dim))),
                         shape=(basis.dim, basis.dim))


def oracle_grid(bound=1024):
    """The spin sector and the full space of n 1..3, nu 2..6, m 1..3 with at
    most ``bound`` states, as (n, nu, m, sector)."""
    for n, nu, m in itertools.product((1, 2, 3), range(2, 7), (1, 2, 3)):
        for sector in (1, None):
            if check_dimension(n, nu, m, sector, cap=2**40) <= bound:
                yield n, nu, m, sector


class TestBlockedEigensolver:
    @pytest.mark.parametrize("n, m, nu", LADDER + SPIN_POINTS)
    def test_blocks_match_one_complex_solve(self, n, m, nu):
        sector = enumerate_basis(nu, m, GentileOrder(n), sector=1)
        for op in (class_sum(sector), casimir_c2(sector)):
            assert_same_clusters(eigensolve_hermitian(op, sector), one_block_complex(op))

    @pytest.mark.parametrize("n, nu, m, sector", list(oracle_grid()))
    def test_symmetry_blocks_match_dense_oracle(self, n, nu, m, sector):
        # Every Hermitian class sum and C2 of the grid solves as the dense
        # eigvalsh of the whole matrix does; the non-Hermitian ones (the
        # full spaces of n >= 2) are refused before any block is formed.
        basis = enumerate_basis(nu, m, GentileOrder(n), sector=sector)
        for op in (class_sum(basis), casimir_c2(basis)):
            if max_abs(op - op.getH()) > 1e-10:
                with pytest.raises(NonHermitianError):
                    eigensolve_hermitian(op, basis)
                continue
            assert_same_clusters(eigensolve_hermitian(op, basis), one_block_complex(op))

    @pytest.fixture
    def solved(self, monkeypatch):
        """The dtype and shape of every stack handed to ``eigvalsh``."""
        seen, solve = [], np.linalg.eigvalsh

        def spy(dense):
            seen.append((dense.dtype, dense.shape))
            return solve(dense)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return seen

    def test_complex_block_solved_in_complex_arithmetic(self, solved):
        mat = sp.csr_matrix(np.array([[1, 2j, 0, 0], [-2j, 3, 0, 0],
                                      [0, 0, 5, 1 + 1j], [0, 0, 1 - 1j, 2]]))
        expected = np.linalg.eigvalsh(mat.toarray())
        solved.clear()
        clusters = eigensolve_hermitian(mat)
        assert solved == [(np.complex128, (1, 4, 4))]
        assert [mult for _, mult in clusters] == [1, 1, 1, 1]
        np.testing.assert_allclose([v for v, _ in clusters], expected, rtol=0, atol=1e-12)
        # Momentum k = 1 of the nu=3 orbit (2,1) carries the phase omega.
        spin = enumerate_basis(3, 2, GentileOrder(1), sector=1)
        solved.clear()
        eigensolve_hermitian(class_sum(spin), spin)
        assert solved == [(np.complex128, (3, 1, 1))]

    def test_real_block_solved_in_real_arithmetic(self, solved):
        mat = sp.csr_matrix(np.array([[1, 2, 0], [2, 3, 0], [0, 0, 5]], dtype=complex))
        eigensolve_hermitian(mat)
        # At nu=2 the phases are +-1, exactly: weight (2,0) at k=0 and the
        # orbit of (1,1) at k=0, 1; the weight (0,2) is not solved.
        spin = enumerate_basis(2, 2, GentileOrder(1), sector=1)
        eigensolve_hermitian(class_sum(spin), spin)
        assert solved == [(np.float64, (1, 3, 3)), (np.float64, (3, 1, 1))]

    def test_one_call_per_block_size(self, solved):
        # nu=6, m=3: 729 states, whose momentum blocks come in several
        # sizes; each size is solved by exactly one stacked call.
        spin = enumerate_basis(6, 3, GentileOrder(1), sector=1)
        eigensolve_hermitian(class_sum(spin), spin)
        sizes = [shape[-1] for _, shape in solved]
        assert sizes == sorted(set(sizes)) and len(sizes) > 1
        assert all(shape[1] == shape[2] for _, shape in solved)

    def test_nine_spins_solved_in_blocks_of_at_most_14(self, solved):
        # The largest weight block, (5,4), holds C(9,4) = 126 states in 14
        # translation orbits of 9, so no momentum block is larger than 14.
        spin = enumerate_basis(9, 2, GentileOrder(1), sector=1)
        clusters = eigensolve_hermitian(class_sum(spin), spin)
        assert max(shape[-1] for _, shape in solved) == 14
        assert sum(mult for _, mult in clusters) == 512

    @pytest.mark.parametrize("nu, m", [(8, 2), (6, 3)])
    def test_one_weight_per_relabelling_orbit_and_half_the_momenta(self, solved, nu, m):
        # Only descending weights are solved, and for a real matrix only
        # momenta k <= nu/2: the eigenvalues solved are the momentum states
        # counted from the rotation orbits of the spin configurations.
        spin = enumerate_basis(nu, m, GentileOrder(1), sector=1)
        clusters = eigensolve_hermitian(class_sum(spin), spin)
        assert sum(count * size for _, (count, size, _) in solved) == momentum_states(nu, m)
        assert sum(mult for _, mult in clusters) == m**nu

    @pytest.mark.parametrize("nu, m", [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3)])
    def test_complex_translation_invariant_matrix(self, solved, nu, m):
        # i (T - T^T) is Hermitian, complex and commutes with every symmetry
        # of the basis; its momentum blocks are not conjugate in pairs, so
        # every k is solved.
        spin = enumerate_basis(nu, m, GentileOrder(1), sector=1)
        shift = translation_matrix(spin)
        mat = to_scipy(class_sum(spin)) + 1j * (shift - shift.T)
        expected = one_block_complex(mat)
        solved.clear()
        assert_same_clusters(eigensolve_hermitian(mat, spin), expected)
        assert sum(count * size for _, (count, size, _) in solved) == \
            momentum_states(nu, m, range(nu))

    def test_non_canonical_input_solved_like_its_canonical_form(self):
        # Each stored entry split into two halves and every row's entries
        # reversed: duplicates and unsorted indices, the same matrix.
        spin = enumerate_basis(4, 2, GentileOrder(1), sector=1)
        mat = class_sum(spin)
        halves = [np.concatenate([mat.data[a:b][::-1] / 2] * 2) for a, b in
                  zip(mat.indptr, mat.indptr[1:])]
        cols = [np.concatenate([mat.indices[a:b][::-1]] * 2) for a, b in
                zip(mat.indptr, mat.indptr[1:])]
        split = sp.csr_matrix((np.concatenate(halves), np.concatenate(cols), 2 * mat.indptr),
                              shape=mat.shape)
        assert not split.has_canonical_format
        assert eigensolve_hermitian(split, spin) == eigensolve_hermitian(mat, spin)

    def test_entry_coupling_two_blocks_refused(self):
        # The nu=2, m=2 spin sector has the weights (0,2), (1,1), (1,1), (2,0),
        # labelled 2, 4, 4, 6.
        spin = enumerate_basis(2, 2, GentileOrder(1), sector=1)
        mat = sp.csr_matrix(np.array([[1.0, 0.5, 0, 0], [0.5, 2, 0, 0], [0, 0, 2, 0],
                                      [0, 0, 0, 1]], dtype=complex))
        assert len(eigensolve_hermitian(mat)) == 4
        with pytest.raises(ValueError, match=r"entry \(0, 1\) couples weight blocks 2 and 4"):
            eigensolve_hermitian(mat, spin)

    def test_single_exchange_breaks_translation(self):
        spin = enumerate_basis(3, 2, GentileOrder(1), sector=1)
        tau = exchange_op(1, 2, spin)
        with pytest.raises(ValueError, match="not invariant under the cyclic translation"):
            eigensolve_hermitian(tau, spin)
        assert eigensolve_hermitian(tau) == [(-1.0, 2), (1.0, 6)]

    def test_diagonal_generator_breaks_relabelling(self):
        spin = enumerate_basis(3, 2, GentileOrder(1), sector=1)
        e11 = unitary_generator(1, 1, spin)
        with pytest.raises(ValueError, match=r"relabelling internal states \(1, 2\)"):
            eigensolve_hermitian(e11, spin)
        assert [mult for _, mult in eigensolve_hermitian(e11)] == [1, 3, 3, 1]


def summed_exchanges_oracle(basis):
    """Reference class sum: the CSR sum of every pair's pruned exchange
    matrix, in pair order, pruned once more."""
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for i in range(1, basis.nu + 1):
        for j in range(i + 1, basis.nu + 1):
            total = total + to_scipy(exchange_op(i, j, basis))
    return as_operator(total)


def summed_grid(bound=4096):
    """The full space and every sector of n 1..5, nu 3..4, m 2..3 with at
    most ``bound`` states, as (n, nu, m, sector)."""
    for n, nu, m in itertools.product(range(1, 6), (3, 4), (2, 3)):
        for sector in (None, *range(n * m + 1)):
            try:
                check_dimension(n, nu, m, sector, bound)
            except SizingError:
                continue
            yield n, nu, m, sector


class TestClassSumPass:
    @pytest.mark.parametrize("n, m, nu", LADDER)
    def test_ladder_matches_summed_exchanges(self, n, m, nu):
        sector = enumerate_basis(nu, m, GentileOrder(n), sector=1)
        assert_csr_bit_equal(class_sum(sector), summed_exchanges_oracle(sector))

    def test_grid_matches_summed_exchanges(self):
        # At (n=2, nu=3, m=2, full) a sum that halves and prunes once, not
        # pair by pair, differs in the last bits.
        grid = list(summed_grid())
        assert (2, 3, 2, None) in grid and len(grid) == 146
        for n, nu, m, sector in grid:
            basis = enumerate_basis(nu, m, GentileOrder(n), sector=sector)
            assert_csr_bit_equal(class_sum(basis), summed_exchanges_oracle(basis))

    @pytest.fixture
    def counted(self, monkeypatch):
        """The number of ``as_operator`` calls and the levels handed to
        ``sqrt_bracket`` while the fixture is active."""
        seen = {"as_operator": 0, "levels": []}
        wrap, amplitude = operators.as_operator, operators.sqrt_bracket

        def counting_wrap(mat):
            seen["as_operator"] += 1
            return wrap(mat)

        def counting_amplitude(level, order):
            seen["levels"].append(level)
            return amplitude(level, order)

        monkeypatch.setattr(operators, "as_operator", counting_wrap)
        monkeypatch.setattr(operators, "sqrt_bracket", counting_amplitude)
        return seen

    def test_one_operator_and_one_amplitude_per_level(self, counted):
        # Every word meets only level 1 on the spin sector.
        class_sum.__wrapped__(enumerate_basis(9, 2, GentileOrder(1), sector=1))
        assert counted == {"as_operator": 1, "levels": [1]}
        counted["as_operator"], counted["levels"] = 0, []
        class_sum.__wrapped__(enumerate_basis(3, 2, GentileOrder(3)))
        assert counted["as_operator"] == 1
        assert sorted(counted["levels"]) == [1, 2, 3]

    def test_huge_order_evaluates_only_met_levels(self, counted):
        basis = enumerate_basis(2, 1, GentileOrder(10**7), sector=1, cap=4)
        start = time.perf_counter()
        op = class_sum.__wrapped__(basis)
        # Evaluating every level up to n would take minutes.
        assert time.perf_counter() - start < 0.25
        assert counted["levels"] == [1]
        assert op.toarray().tolist() == [[1]]

    def test_many_levels_cost_linear_time(self):
        # Each distinct level tuple looks up only its own levels: a lookup
        # that walked every level met so far made this about 6 s.
        basis = enumerate_basis(1, 1, GentileOrder(3 * 10**4))
        start = time.perf_counter()
        op = _ladder(basis, "a_dag", 0)
        assert time.perf_counter() - start < 1.5
        assert op.nnz == basis.dim - 1


class TestOperandFamilies:
    """Every generator of a basis comes from one kernel pass, and so does
    every pair exchange; the three relation recipes of a basis share one
    Casimir side."""

    @pytest.fixture
    def cold(self):
        """Empties every operand cache before and after the test."""
        def clear():
            for module in (operators, verifier):
                for value in vars(module).values():
                    if hasattr(value, "cache_clear"):
                        value.cache_clear()
        clear()
        yield
        clear()

    def test_default_grid_passes(self, cold, monkeypatch, tmp_path):
        # Every worker of run_grid appends one line per call, so the counts
        # cover all of them, not only the calling process's share.
        log = tmp_path / "calls"
        kernel, summed = operators._apply_words, verifier.signed_sum

        def count(kind):
            with open(log, "a") as out:
                out.write(kind + "\n")

        def counting_kernel(basis, words, modes, scale=None):
            count("pass")
            return kernel(basis, words, modes, scale)

        def counting_sum(terms):
            if sys._getframe(1).f_code.co_name == "_casimir_side":
                count("side")
            return summed(terms)

        monkeypatch.setattr(operators, "_apply_words", counting_kernel)
        monkeypatch.setattr(verifier, "signed_sum", counting_sum)
        run_grid(default_grid_tasks())
        calls = log.read_text().split()
        # 12 task bases, each with one generator, one exchange and one
        # class-sum pass, and the four letters of each of the three one-mode
        # and three two-mode spaces.
        assert calls.count("pass") == 12 * 3 + 6 * 4
        assert calls.count("side") == 12
