"""Scalar functions: q-numbers, occupation functions, coupling weights."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentile import (
    BOSE_PROXY_N,
    GentileOrder,
    bracket_nu,
    coupling_j,
    occ_f,
    occ_g,
)


class TestGentileOrder:
    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            GentileOrder(0)
        with pytest.raises(ValueError):
            GentileOrder(-3)
        with pytest.raises(TypeError):
            GentileOrder(2.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, BOSE_PROXY_N])
    def test_phase_invariants(self, n):
        order = GentileOrder(n)
        assert abs(abs(order.q) - 1.0) < 1e-15
        assert abs(order.q ** (n + 1) - 1.0) < 1e-12
        assert order.x == pytest.approx(math.pi / (n + 1), abs=0.0)

    def test_extreme_orders_representable(self):
        assert math.isfinite(GentileOrder(BOSE_PROXY_N).x)


class TestBracketNu:
    def test_zero_is_exact(self):
        for n in (1, 2, 5, 17):
            order = GentileOrder(n)
            assert bracket_nu(0, order) == 0j
            assert bracket_nu(n + 1, order) == 0j

    def test_one_is_unity(self):
        for n in (1, 2, 9):
            assert bracket_nu(1, GentileOrder(n)) == 1.0 + 0j

    def test_two_at_order_two(self):
        # direct complex arithmetic: 1 + exp(i*2*pi/3) = 1/2 + i*sqrt(3)/2
        value = bracket_nu(2, GentileOrder(2))
        assert value == pytest.approx(complex(0.5, math.sqrt(3) / 2), abs=1e-12)

    def test_matches_geometric_sum(self):
        # independent oracle: the finite geometric sum of powers of q
        for n in (2, 3, 7):
            order = GentileOrder(n)
            for nu in range(0, n + 2):
                expected = sum(order.q**j for j in range(nu))
                assert bracket_nu(nu, order) == pytest.approx(expected, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bracket_nu(-1, GentileOrder(2))

    @given(n=st.integers(1, 40), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_magnitude_equals_occ_g(self, n, data):
        nu = data.draw(st.integers(0, n))
        order = GentileOrder(n)
        assert abs(bracket_nu(nu, order)) == pytest.approx(occ_g(nu, order), abs=1e-12)


class TestOccupationFunctions:
    def test_g_trivials(self):
        for n in (1, 4, 9):
            order = GentileOrder(n)
            assert occ_g(0, order) == 0.0
            assert occ_g(1, order) == 1.0

    def test_g_spot_value(self):
        # csc(pi/4) * sin(pi/2) = sqrt(2)
        assert occ_g(2, GentileOrder(3)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_f_trivials(self):
        for n in (1, 4, 9):
            assert occ_f(0, GentileOrder(n)) == pytest.approx(1.0, abs=1e-15)

    def test_f_spot_value(self):
        # csc(pi/2)(cos(pi/2)-1)sin(pi/2) + cos(pi/2) = -1
        assert occ_f(1, GentileOrder(1)) == pytest.approx(-1.0, abs=1e-12)

    def test_f_large_order_limit(self):
        # convergence oracle: the closed form approaches +1 from below
        values = [occ_f(1, GentileOrder(n)) for n in (10**3, 10**4, 10**5, 10**6)]
        deviations = [abs(v - 1.0) for v in values]
        assert deviations == sorted(deviations, reverse=True)
        assert deviations[-1] < 1e-5

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
    def test_f_is_g_difference(self, n):
        order = GentileOrder(n)
        x = order.x
        for occupation in range(n + 1):
            # g(N+1) read off the trig formula, valid past the ladder top
            g_next = math.sin((occupation + 1) * x) / math.sin(x)
            expected = g_next - occ_g(occupation, order)
            assert occ_f(occupation, order) == pytest.approx(expected, abs=1e-12)

    def test_range_rejected(self):
        order = GentileOrder(3)
        for fn in (occ_g, occ_f, coupling_j):
            with pytest.raises(ValueError):
                fn(4, order)
            with pytest.raises(ValueError):
                fn(-1, order)


class TestCouplingJ:
    def test_vanishes_at_zero(self):
        for n in (1, 2, 7, BOSE_PROXY_N):
            assert coupling_j(0, GentileOrder(n)) == 0.0

    def test_fermi_case_is_minus_occupation(self):
        order = GentileOrder(1)
        for occupation in (0, 1):
            assert coupling_j(occupation, order) == pytest.approx(
                -float(occupation), abs=1e-12
            )

    def test_large_order_limits(self):
        order = GentileOrder(BOSE_PROXY_N)
        for occupation in range(4):
            assert abs(coupling_j(occupation, order) + occupation) < 1e-4
            assert abs(bracket_nu(occupation, order) - occupation) < 1e-4

    def test_spot_value_order_one(self):
        # -2 * 1 * sin(pi/4) * sin(pi/2) * sin(3*pi/4) = -1
        assert coupling_j(1, GentileOrder(1)) == pytest.approx(-1.0, abs=1e-12)


class TestArrayVariants:
    """Each closed form takes one occupation or an array of them."""

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_match_scalars(self, n):
        order = GentileOrder(n)
        occ = np.arange(n + 1)
        for fn in (occ_g, occ_f, coupling_j):
            values = fn(occ, order)
            assert values.shape == occ.shape
            np.testing.assert_array_equal(values, [fn(int(v), order) for v in occ])

    def test_array_range_check(self):
        order = GentileOrder(3)
        for fn in (occ_g, occ_f, coupling_j):
            for bad in (4, -1, np.array([0, 4]), np.array([-1, 0])):
                with pytest.raises(ValueError):
                    fn(bad, order)
