"""Basis enumeration, indexing, and sector filtering."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentile import GentileOrder, SizingError, class_sum, enumerate_basis
from gentile.basis import _enumerate_cached, check_dimension, largest_weight_block


def count_sector_states(nu, m, n, total):
    """Independent oracle: single-position compositions, powered by nu."""
    per_position = sum(
        1
        for occ in itertools.product(range(n + 1), repeat=m)
        if sum(occ) == total
    )
    return per_position**nu


class TestDimensions:
    def test_full_space_example(self):
        basis = enumerate_basis(2, 2, GentileOrder(1))
        assert basis.dim == 16

    def test_sector_example(self):
        basis = enumerate_basis(2, 2, GentileOrder(1), sector=1)
        assert basis.dim == 4

    def test_sector_count_against_oracle(self):
        basis = enumerate_basis(3, 2, GentileOrder(2), sector=1)
        assert basis.dim == count_sector_states(3, 2, 2, 1) == 8

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nu", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_dimension_formulas(self, n, nu, m):
        order = GentileOrder(n)
        full = enumerate_basis(nu, m, order)
        assert full.dim == (n + 1) ** (nu * m)
        sector = enumerate_basis(nu, m, order, sector=1)
        assert sector.dim == m**nu

    def test_sector_dimension_against_oracle(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for t in range(n * m + 1):
                    sector = enumerate_basis(2, m, GentileOrder(n), sector=t)
                    assert sector.dim == count_sector_states(2, m, n, t)
                    # the pre-enumeration sizing counts the same states
                    assert check_dimension(n, 2, m, t, 2**20) == sector.dim

    def test_sector_sized_by_its_own_dimension(self):
        order = GentileOrder(2)
        sector = enumerate_basis(8, 2, order, sector=1)  # full space 3**16 > default cap
        assert sector.dim == 256
        assert sector.ranks[-1] < 3**16
        with pytest.raises(SizingError, match=r"sector 1 for \(n=2, nu=8, m=2\) .* 256 > cap 255"):
            enumerate_basis(8, 2, order, sector=1, cap=255)
        # a one-state sector whose full-space ranks would not fit in int64
        with pytest.raises(SizingError, match="overflow"):
            enumerate_basis(20, 2, order, sector=0)
        assert enumerate_basis(19, 2, order, sector=0).ranks.tolist() == [0]

    def test_power_multiplied_only_up_to_its_bound(self):
        # Passed before the last factor: the bound is named, not the dimension.
        with pytest.raises(SizingError, match=r"sector 1 for \(n=2, nu=9, m=2\) has dimension "
                                              r"more than cap 255$"):
            check_dimension(2, 9, 2, 1, 255)
        with pytest.raises(SizingError, match=r"full space .* dimension more than cap 1048576$"):
            check_dimension(1, 10**6, 2, None, 2**20)
        # A one-state sector needs no multiplying; its full-space ranks overflow.
        with pytest.raises(SizingError, match="overflow"):
            check_dimension(1, 10**12, 1, 0, 2**20)
        assert check_dimension(1, 62, 1, 1, 2**20) == 1

    def test_cap_names_offenders(self):
        with pytest.raises(SizingError) as err:
            enumerate_basis(21, 1, GentileOrder(1))
        message = str(err.value)
        assert "n=1" in message and "nu=21" in message and "m=1" in message

    def test_parameter_validation(self):
        order = GentileOrder(2)
        with pytest.raises(ValueError):
            enumerate_basis(0, 2, order)
        with pytest.raises(ValueError):
            enumerate_basis(2, 2, order, sector=5)


def all_states(basis):
    return [tuple(state) for state in basis.occupations.tolist()]


def ordinal(basis, state):
    """Where the word kernel finds ``state``: its mixed-radix rank located in
    ``basis.ranks`` by ``searchsorted``; ``None`` if the basis lacks it.
    """
    rank = np.ravel_multi_index(state, (basis.order.n + 1,) * basis.modes)
    found = int(np.searchsorted(basis.ranks, rank))
    return found if found < basis.dim and basis.ranks[found] == rank else None


class TestOrdering:
    def test_lexicographic_and_boundaries(self):
        order = GentileOrder(2)
        basis = enumerate_basis(2, 2, order)
        states = all_states(basis)
        assert states == sorted(states)
        assert states[0] == (0, 0, 0, 0)
        assert states[-1] == (2, 2, 2, 2)

    def test_sector_is_subsequence_of_full(self):
        # sectors are enumerated directly; they must equal the filtered full
        # enumeration, in the same order
        order = GentileOrder(2)
        for m, sectors in ((2, [1]), (3, range(2 * 3 + 1))):
            full = enumerate_basis(2, m, order)
            np.testing.assert_array_equal(full.ranks, np.arange(full.dim))
            totals = full.occupations.reshape(full.dim, 2, m).sum(axis=2)
            for t in sectors:
                sector = enumerate_basis(2, m, order, sector=t)
                filtered = full.occupations[(totals == t).all(axis=1)]
                np.testing.assert_array_equal(sector.occupations, filtered)
                positions = [ordinal(full, s) for s in all_states(sector)]
                assert positions == sorted(positions)
                assert list(sector.ranks) == positions
                assert np.all(np.diff(sector.ranks) > 0)

    def test_single_occupancy_patterns(self):
        basis = enumerate_basis(2, 2, GentileOrder(1), sector=1)
        assert set(all_states(basis)) == {
            (0, 1, 0, 1),
            (0, 1, 1, 0),
            (1, 0, 0, 1),
            (1, 0, 1, 0),
        }


class TestValueIdentity:
    def test_bases_and_caches_are_shared_across_caps(self):
        order = GentileOrder(1)
        a = enumerate_basis(3, 2, order)
        b = enumerate_basis(3, 2, order, cap=2**19)
        assert a is b
        assert class_sum(a) is class_sum(b)
        # equality and hashing go by (nu, m, order, sector), not identity
        c = enumerate_basis(2, 2, GentileOrder(1), sector=1)
        assert c == replace(c) and hash(c) == hash(replace(c)) and c is not replace(c)
        assert c != enumerate_basis(2, 2, order)

    def test_ranks_and_weights_computed_once_read_only(self):
        basis = enumerate_basis(3, 2, GentileOrder(2), sector=1)
        fresh = replace(basis)
        for name in ("ranks", "weights"):
            first = getattr(basis, name)
            assert getattr(basis, name) is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 0
            np.testing.assert_array_equal(getattr(fresh, name), first)
        # the cached arrays take no part in equality or hashing
        assert basis == replace(basis) and hash(basis) == hash(replace(basis))
        assert "ranks" not in vars(replace(basis))


class TestIndexing:
    """A state's ordinal is its rank's place in ``ranks``; no lookup table."""

    def test_zero_state_is_first(self):
        basis = enumerate_basis(2, 2, GentileOrder(1))
        assert ordinal(basis, (0, 0, 0, 0)) == 0

    def test_unary_ladder(self):
        basis = enumerate_basis(1, 1, GentileOrder(2))
        assert ordinal(basis, (2,)) == 2
        assert all_states(basis) == [(0,), (1,), (2,)]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, data):
        n = data.draw(st.integers(1, 3))
        nu = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 3))
        sector = data.draw(st.one_of(st.none(), st.integers(0, n * m)))
        basis = enumerate_basis(nu, m, GentileOrder(n), sector=sector)
        index = data.draw(st.integers(0, basis.dim - 1))
        assert ordinal(basis, all_states(basis)[index]) == index

    def test_membership_failures(self):
        basis = enumerate_basis(2, 2, GentileOrder(1), sector=1)
        assert ordinal(basis, (1, 1, 1, 0)) is None
        assert ordinal(basis, (1, 0, 0, 0)) is None  # full rank between two sector ranks
        assert ordinal(basis, (1, 0, 0, 1)) is not None


class TestModeIndex:
    """``FockBasis.flat_modes`` is position-major: ``(position-1)*m + (state-1)``,
    for integers and for arrays that broadcast."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_flat_round_trip(self, m):
        basis = enumerate_basis(3, m, GentileOrder(1), sector=0)
        flats = [basis.flat_modes(position, state)
                 for position in range(1, 4) for state in range(1, m + 1)]
        assert flats == list(range(basis.modes))
        positions, states = np.arange(1, 4)[:, None], np.arange(1, m + 1)
        assert basis.flat_modes(positions, states).reshape(-1).tolist() == flats

    def test_flat_is_position_major(self):
        basis = enumerate_basis(2, 3, GentileOrder(1), sector=0)
        assert basis.flat_modes(1, 1) == 0
        assert basis.flat_modes(1, 3) == 2
        assert basis.flat_modes(2, 1) == 3


class TestDenseCap:
    # The n=1, nu=2, m=3 full space has 64 states and a largest weight block
    # of 2**3 = 8.
    def test_refused_point_is_never_enumerated(self):
        order = GentileOrder(1)
        _enumerate_cached.cache_clear()
        with pytest.raises(SizingError, match=r"^dense eigensolve needs dim 8 > dense cap 4$"):
            enumerate_basis(2, 3, order, cap=64, dense_cap=4)
        assert _enumerate_cached.cache_info().misses == 0
        assert enumerate_basis(2, 3, order, cap=64, dense_cap=8).dim == 64
        assert _enumerate_cached.cache_info().misses == 1

    def test_dimension_refusals_come_first(self):
        # Over both caps, the dimension is named; a one-state sector whose
        # full-space ranks overflow is refused for that, not for its block.
        with pytest.raises(SizingError, match=r"^full space .* has dimension 64 > cap 63$"):
            enumerate_basis(2, 3, GentileOrder(1), cap=63, dense_cap=4)
        with pytest.raises(SizingError, match="overflow"):
            enumerate_basis(20, 2, GentileOrder(2), sector=0, dense_cap=0)
        with pytest.raises(ValueError, match=r"per-position total 7 not in \[0, n\*m=6\]"):
            check_dimension(2, 2, 3, 7, 2**20, dense_cap=0)


def fitting_shapes():
    """Every ``(n <= 3, nu <= 6, m <= 3, sector)`` that fits the default cap,
    the full space included."""
    for n, nu, m in itertools.product(range(1, 4), range(1, 7), range(1, 4)):
        for sector in [None, *range(n * m + 1)]:
            try:
                check_dimension(n, nu, m, sector, 2**20)
            except SizingError:
                continue
            yield n, nu, m, sector


class TestWeights:
    def test_labels_are_the_per_state_totals(self):
        basis = enumerate_basis(3, 2, GentileOrder(2))
        totals = [tuple(row.reshape(3, 2).sum(axis=0)) for row in basis.occupations]
        # base nu*n + 1 = 7, most significant state first
        assert basis.weights.tolist() == [7 * w1 + w2 for w1, w2 in totals]

    def test_labels_order_as_the_weights(self):
        basis = enumerate_basis(3, 3, GentileOrder(2), sector=2)
        totals = basis.occupations.reshape(basis.dim, 3, 3).sum(axis=1)
        by_label = totals[np.argsort(basis.weights, kind="stable")].tolist()
        assert by_label == sorted(map(list, totals))

    def test_largest_block_matches_enumeration(self):
        checked = 0
        try:
            for n, nu, m, sector in fitting_shapes():
                basis = enumerate_basis(nu, m, GentileOrder(n), sector=sector)
                largest = np.unique(basis.weights, return_counts=True)[1].max()
                assert largest_weight_block(n, nu, m, sector) == largest, (n, nu, m, sector)
                checked += 1
        finally:  # do not keep the large full spaces cached for later tests
            _enumerate_cached.cache_clear()
        assert checked > 300

    #: Largest weight blocks past the enumeration grid, (n, nu, m, sector):
    #: spin and higher-m sectors, sectors of many compositions at small nu,
    #: and full spaces.
    PINNED = {
        (1, 14, 2, 1): 3432, (1, 16, 2, 1): 12870, (1, 20, 2, 1): 184756,
        (1, 10, 3, 1): 4200, (1, 8, 4, 1): 2520,
        (1, 2, 12, 6): 924, (1, 2, 10, 5): 252, (1, 3, 9, 4): 1710, (1, 4, 7, 3): 4440,
        (2, 3, 6, 4): 2385, (2, 6, 3, 2): 2385,
        (2, 5, 2, None): 2601, (1, 5, 4, None): 10000, (1, 4, 5, None): 7776,
        (3, 8, 2, None): 65480464,
    }

    def test_largest_block_pinned_beyond_enumeration(self):
        found = {point: largest_weight_block(*point) for point in self.PINNED}
        assert found == self.PINNED

    def test_spin_sector_is_the_balanced_multinomial(self):
        # nu! / prod(w_i!) at the most even weight, at every order
        assert [largest_weight_block(1, nu, 2, 1) for nu in (12, 13, 15)] == [924, 1716, 6435]
        for n, nu, m in itertools.product((1, 2, 5), range(1, 16), range(1, 5)):
            if m**nu > 2**20:
                continue
            q, r = divmod(nu, m)
            balanced = math.factorial(nu) // (math.factorial(q) ** (m - r)
                                              * math.factorial(q + 1) ** r)
            assert largest_weight_block(n, nu, m, 1) == balanced, (n, nu, m)
