"""Partition enumeration and irrep eigenvalue arithmetic."""

import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentile import casimir_sp, casimir_value, partitions_of, weight, weyl_dimension
from gentile.partitions import partition_count


@lru_cache(maxsize=None)
def count_partitions(total, max_parts, largest=None):
    """Independent counting oracle (recursive, memoized)."""
    if largest is None:
        largest = total
    if total == 0:
        return 1
    if max_parts == 0:
        return 0
    return sum(
        count_partitions(total - part, max_parts - 1, part)
        for part in range(1, min(total, largest) + 1)
    )


class TestEnumeration:
    def test_four_into_four(self):
        assert partitions_of(4, 4) == [
            (4, 0, 0, 0),
            (3, 1, 0, 0),
            (2, 2, 0, 0),
            (2, 1, 1, 0),
            (1, 1, 1, 1),
        ]

    def test_zero(self):
        assert partitions_of(0, 3) == [(0, 0, 0)]

    def test_three_into_two(self):
        assert partitions_of(3, 2) == [(3, 0), (2, 1)]

    @pytest.mark.parametrize("total", range(13))
    @pytest.mark.parametrize("max_parts", range(1, 7))
    def test_counts_match_oracle(self, total, max_parts):
        assert len(partitions_of(total, max_parts)) == count_partitions(total, max_parts)

    @pytest.mark.parametrize("total", range(21))
    def test_count_without_enumerating(self, total):
        for max_parts in range(1, total + 2):
            assert partition_count(total, max_parts) == len(partitions_of(total, max_parts))

    def test_count_in_closed_form_at_any_total(self):
        # Up to three parts no loop runs, so an enormous total is counted at once.
        big = 10**12
        assert partition_count(big, 1) == 1
        assert partition_count(big, 2) == big // 2 + 1
        assert partition_count(big, 3) == ((big + 3) ** 2 + 6) // 12
        assert partitions_of(big, 1) == [(big,)]

    @given(total=st.integers(0, 14), max_parts=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_structure(self, total, max_parts):
        parts_list = partitions_of(total, max_parts)
        assert parts_list == sorted(parts_list, reverse=True)
        assert len(set(parts_list)) == len(parts_list)
        for partition in parts_list:
            assert len(partition) == max_parts
            assert weight(partition) == total
            assert all(a >= b for a, b in itertools.pairwise(partition))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            partitions_of(-1, 2)
        with pytest.raises(ValueError):
            partitions_of(3, 0)
        with pytest.raises(ValueError):
            partition_count(-1, 2)
        with pytest.raises(ValueError):
            partition_count(3, 0)


class TestCasimirValues:
    def test_first_order_telescopes_to_weight(self):
        for total in range(13):
            for max_parts in range(1, 7):
                for partition in partitions_of(total, max_parts):
                    assert casimir_sp(1, partition, max_parts) == total

    def test_second_order_spot_values(self):
        assert casimir_sp(2, (2, 0), 2) == 8
        assert casimir_sp(2, (1, 1), 2) == 4

    def test_shifted_variant(self):
        assert casimir_value(2, (2, 0), 2, "shifted") == 6
        assert casimir_value(2, (1, 1), 2, "shifted") == 2
        assert casimir_value(2, (2, 0), 2, "raw") == 8

    def test_first_order_same_in_both_variants(self):
        for partition in partitions_of(5, 3):
            for variant in ("raw", "shifted"):
                assert casimir_value(1, partition, 3, variant) == 5

    def test_unsupported_inputs(self):
        with pytest.raises(ValueError):
            casimir_value(3, (1,), 2)
        with pytest.raises(ValueError):
            casimir_value(2, (1, 1), 2, "bogus")
        with pytest.raises(ValueError):
            casimir_sp(0, (1,), 2)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            casimir_sp(1, (1, 2), 2)
        with pytest.raises(ValueError):
            casimir_sp(1, (-1,), 2)
        with pytest.raises(ValueError):
            casimir_sp(1, (1, 1, 1), 2)


class TestWeylDimension:
    def test_spin_one_and_singlet(self):
        assert weyl_dimension((2, 0), 2) == 3
        assert weyl_dimension((1, 1), 2) == 1

    def test_trivial_representation(self):
        for m in (1, 2, 5):
            assert weyl_dimension((0,) * m, m) == 1

    def test_known_su3_and_su4_dimensions(self):
        # octet of su(3) and the 45 of su(4)
        assert weyl_dimension((2, 1, 0), 3) == 8
        assert weyl_dimension((3, 1, 0, 0), 4) == 45

    def test_fundamental(self):
        for m in (2, 3, 4):
            assert weyl_dimension((1,), m) == m

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_symmetric_power_at_large_m(self, k):
        # Sym^k(C^m); the zero padding must not grow the products.
        m = 1000
        assert weyl_dimension((k,), m) == math.comb(m + k - 1, k)
        assert weyl_dimension((k, 1), m) == (k * math.comb(m + k - 1, k) * (m - 1)) // (k + 1)
