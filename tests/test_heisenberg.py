"""Exchange-model solver: ED against the partition route."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from gentile import (
    GentileOrder,
    NonHermitianError,
    SingularPrefactorError,
    as_operator,
    class_sum,
    compare_spectra,
    enumerate_basis,
    spectrum_casimir,
    spectrum_report,
)
from gentile import basis, heisenberg
from gentile.basis import SizingError
from gentile.heisenberg import FORMS
from gentile.operators import eigensolve_hermitian, max_abs
from gentile.partitions import (
    VARIANTS,
    casimir_value,
    partition_label,
    partitions_of,
    weyl_dimension,
)
from gentile.scalars import coupling_j
from scipy_oracle import from_scipy


def ed_oracle(matrix):
    """Independent clustering oracle on a dense Hermitian array."""
    values = np.linalg.eigvalsh(matrix)
    clusters = []
    for value in values:
        if clusters and abs(clusters[-1][0] - value) < 1e-8:
            clusters[-1][1] += 1
        else:
            clusters.append([value, 1])
    return [(round(v, 10), mult) for v, mult in clusters]


class TestHamiltonian:
    def test_two_spin_matrix(self):
        H = class_sum(enumerate_basis(2, 2, GentileOrder(1), sector=1))
        swap = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert np.abs(H.toarray() - swap).max() < 1e-12

    @pytest.mark.parametrize(
        "nu,m,n",
        [
            (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2), (4, 2, 1), (4, 2, 2),
            (2, 3, 1), (2, 3, 2), (3, 3, 1), (3, 3, 2), (4, 3, 1),
        ],
    )
    def test_hermitian_and_complete(self, nu, m, n):
        spin = enumerate_basis(nu, m, GentileOrder(n), sector=1)
        H = class_sum(spin)
        assert max_abs(H - H.getH()) < 1e-10
        clusters = eigensolve_hermitian(H, spin)
        assert sum(mult for _, mult in clusters) == m**nu
        assert all(isinstance(v, float) for v, _ in clusters)

    @pytest.mark.slow
    def test_largest_point_under_cap(self):
        spin = enumerate_basis(4, 3, GentileOrder(2), sector=1)
        clusters = eigensolve_hermitian(class_sum(spin), spin)
        assert sum(mult for _, mult in clusters) == 81

    def test_sector_built_without_full_space(self):
        # the full space 2**22 is over the default cap; only the sector is built
        H = class_sum(enumerate_basis(11, 2, GentileOrder(1), sector=1))
        assert H.shape[0] == 2**11
        assert max_abs(H - H.getH()) == 0.0
        # an exchange fixes a state iff both positions hold the same internal
        # state, so the diagonal counts same-state pairs; bit p of the ordinal
        # is 1 where position p holds state 1
        ones = np.array([bin(s).count("1") for s in range(2**11)])
        same_pairs = (ones * (ones - 1) + (11 - ones) * (10 - ones)) / 2
        np.testing.assert_array_equal(H.diagonal().real, same_pairs)

    def test_trace_conservation(self):
        spin = enumerate_basis(3, 2, GentileOrder(1), sector=1)
        H = class_sum(spin)
        clusters = eigensolve_hermitian(H, spin)
        total = sum(v * mult for v, mult in clusters)
        assert total == pytest.approx(H.diagonal().sum().real, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_sector_hamiltonian_is_order_independent(self, n):
        reference = class_sum(enumerate_basis(3, 2, GentileOrder(1), sector=1))
        other = class_sum(enumerate_basis(3, 2, GentileOrder(n), sector=1))
        assert max_abs(reference - other) < 1e-12

    def test_single_position_rejected(self):
        with pytest.raises(ValueError):
            class_sum(enumerate_basis(1, 2, GentileOrder(1), sector=1))


class TestSpectrumEd:
    def test_singlet_triplet(self):
        spin = enumerate_basis(2, 2, GentileOrder(1), sector=1)
        H = class_sum(spin)
        clusters = eigensolve_hermitian(H, spin)
        assert clusters == [
            (pytest.approx(-1.0, abs=1e-10), 1),
            (pytest.approx(1.0, abs=1e-10), 3),
        ]
        assert clusters == ed_oracle(H.toarray())

    def test_three_spins(self):
        spin = enumerate_basis(3, 2, GentileOrder(1), sector=1)
        clusters = eigensolve_hermitian(class_sum(spin), spin)
        assert [(round(v, 9), mult) for v, mult in clusters] == [(0.0, 4), (3.0, 4)]

    def test_rejects_non_hermitian(self):
        # i times the identity conserves every weight and commutes with every
        # symmetry, but each of its blocks is i times an identity, whose
        # asymmetry is |i - (-i)| = 2.
        spin = enumerate_basis(3, 2, GentileOrder(1), sector=1)
        bad = as_operator(from_scipy(1j * np.eye(8)))
        with pytest.raises(NonHermitianError) as err:
            eigensolve_hermitian(bad, spin)
        assert err.value.asymmetry == 2.0


class TestSpectrumCasimir:
    def test_two_spin_bose_shifted(self):
        levels = spectrum_casimir(2, 2, "shifted", "bose")
        assert [(l["partition"], l["eigenvalue"], l["weyl_dimension"]) for l in levels] == [
            ([2, 0], 1.0, 3),
            ([1, 1], -1.0, 1),
        ]

    def test_three_spin_bose_shifted(self):
        levels = spectrum_casimir(3, 2, "shifted", "bose")
        assert [(l["partition"], l["eigenvalue"], l["weyl_dimension"]) for l in levels] == [
            ([3, 0], 3.0, 4),
            ([2, 1], 0.0, 2),
        ]

    def test_fermi_flips_sign(self):
        bose = spectrum_casimir(2, 2, "shifted", "bose")
        fermi = spectrum_casimir(2, 2, "shifted", "fermi")
        for b, f in zip(bose, fermi):
            assert f["eigenvalue"] == -b["eigenvalue"]

    def test_raw_variant_two_spins(self):
        levels = spectrum_casimir(2, 2, "raw", "bose")
        assert [(l["partition"], l["eigenvalue"]) for l in levels] == [
            ([2, 0], 2.0), ([1, 1], 0.0)]

    def test_general_m_uses_theorem_coefficients(self):
        # oracle: the exchange class sum acts as the content sum of the
        # partition, here (2,0,0) -> +1 and (1,1,0) -> -1 for three states
        levels = spectrum_casimir(2, 3, "shifted", "bose")
        assert [(l["partition"], l["eigenvalue"], l["weyl_dimension"]) for l in levels] == [
            ([2, 0, 0], 1.0, 6),
            ([1, 1, 0], -1.0, 3),
        ]
        spin = enumerate_basis(2, 3, GentileOrder(1), sector=1)
        ed = eigensolve_hermitian(class_sum(spin), spin)
        assert compare_spectra(ed, levels, "shifted", "bose")["matched"]

    def test_finite_order_form(self):
        order = GentileOrder(2)
        levels = spectrum_casimir(2, 2, "shifted", "gentile", order)
        assert len(levels) == 2
        with pytest.raises(SingularPrefactorError):
            spectrum_casimir(2, 2, "shifted", "gentile", GentileOrder(3))
        with pytest.raises(ValueError):
            spectrum_casimir(2, 2, "shifted", "gentile")

    def test_finite_order_at_one_is_shifted_fermi(self):
        # at n=1 the prefactor is -1 and the coupling shift is -m*nu, so the
        # finite-order energies are the Fermi ones minus a constant
        fermi = spectrum_casimir(2, 2, "shifted", "fermi")
        gentile = spectrum_casimir(2, 2, "shifted", "gentile", GentileOrder(1))
        for f, g in zip(fermi, gentile):
            assert g["eigenvalue"] == pytest.approx(f["eigenvalue"] - 4.0, abs=1e-9)

    def test_form_validation(self):
        with pytest.raises(ValueError):
            spectrum_casimir(2, 2, "shifted", "classical")

    @pytest.mark.parametrize("nu, m", [(nu, m) for nu in range(1, 9) for m in (1, 2, 3)])
    def test_levels_bit_identical_to_per_form_evaluation(self, nu, m):
        # Each form is read from the base C2/2 - (m/2) C1 computed once per
        # variant, and gives the bits that evaluating both Casimir values per
        # form gave, the sign of a zero included.
        def per_form(variant, form, order):
            levels = []
            for part in partitions_of(nu, m):
                c1 = casimir_value(1, part, m, variant)
                c2 = casimir_value(2, part, m, variant)
                base = 0.5 * c2 - 0.5 * m * c1
                if form == "bose":
                    energy = base
                elif form == "fermi":
                    energy = -base
                else:
                    prefactor = 1.0 / math.cos(2.0 * math.pi / (order.n + 1))
                    energy = prefactor * (base - m * nu * coupling_j(1, order))
                levels.append((list(part), float(energy).hex(), weyl_dimension(part, m)))
            return levels

        for order in (GentileOrder(1), GentileOrder(2), GentileOrder(4)):
            for variant in VARIANTS:
                for form in FORMS:
                    got = spectrum_casimir(nu, m, variant, form, order)
                    assert [(l["partition"], l["eigenvalue"].hex(), l["weyl_dimension"])
                            for l in got] == \
                        per_form(variant, form, order), (order.n, variant, form)

    def test_report_evaluates_each_level_once_per_variant(self, monkeypatch):
        calls = []

        def counted(p, part, m, variant):
            calls.append((p, variant))
            return casimir_value(p, part, m, variant)

        monkeypatch.setattr(heisenberg, "casimir_value", counted)
        report = spectrum_report(4, 2, GentileOrder(2))
        assert len(calls) == 2 * 2 * len(partitions_of(4, 2))  # variants x (C1, C2) x partitions
        for block in report["casimir"]:
            assert block["levels"] == spectrum_casimir(
                4, 2, block["variant"], block["form"], GentileOrder(2))


class TestCompareSpectra:
    def test_exact_match_two_spins(self):
        ed = [(-1.0, 1), (1.0, 3)]
        match = compare_spectra(ed, spectrum_casimir(2, 2, "shifted", "bose"))
        assert match["matched"] and match["sign"] == 1
        assert match["max_deviation"] < 1e-12
        assert match["factors"] == {"(2,0)": 1.0, "(1,1)": 1.0}

    def test_fermi_matches_with_flipped_sign(self):
        ed = [(-1.0, 1), (1.0, 3)]
        match = compare_spectra(
            ed, spectrum_casimir(2, 2, "shifted", "fermi"), "shifted", "fermi"
        )
        assert match["matched"] and match["sign"] == -1

    def test_three_spin_multiplicity_factors(self):
        ed = [(0.0, 4), (3.0, 4)]
        match = compare_spectra(ed, spectrum_casimir(3, 2, "shifted", "bose"))
        assert match["matched"]
        assert match["factors"] == {"(3,0)": 1.0, "(2,1)": 2.0}

    @pytest.mark.parametrize("moved", [0, 1, 2])
    @pytest.mark.parametrize("direction", [-math.inf, math.inf])
    def test_midway_level_keeps_factor_and_sign(self, moved, direction):
        # The level at 1.0 lies midway between the clusters at 0.0 and 2.0,
        # and its sign-flipped target -1.0 midway between -2.0 and 0.0, so
        # both signs deviate by 1.0.  The lowest cluster within tol of the
        # nearest distance is taken and a tie goes to +1, so moving any
        # cluster by one ulp changes neither the factor nor the sign.
        ed = [(-2.0, 2), (0.0, 6), (2.0, 2)]
        ed[moved] = (math.nextafter(ed[moved][0], direction), ed[moved][1])
        level = {"partition": [1, 0], "eigenvalue": 1.0, "weyl_dimension": 2}
        match = compare_spectra(ed, [level])
        assert (match["sign"], match["factors"], match["matched"]) == (1, {"(1,0)": 3.0}, False)
        assert abs(match["max_deviation"] - 1.0) < 1e-15

    def test_factors_labelled_for_the_kept_sign_in_descending_order(self, monkeypatch):
        # Levels given in ascending order still key the factors in descending
        # partition order, and only the kept sign's match builds its labels.
        labels = []

        def counted(part):
            labels.append(part)
            return partition_label(part)

        monkeypatch.setattr(heisenberg, "partition_label", counted)
        levels = spectrum_casimir(3, 2, "shifted", "bose")[::-1]
        match = compare_spectra([(0.0, 4), (3.0, 4)], levels)
        assert list(match["factors"].items()) == [("(3,0)", 1.0), ("(2,1)", 2.0)]
        assert labels == [[3, 0], [2, 1]]

    def test_raw_variant_reports_deviation(self):
        ed = [(-1.0, 1), (1.0, 3)]
        match = compare_spectra(ed, spectrum_casimir(2, 2, "raw", "bose"), "raw", "bose")
        assert not match["matched"]
        assert match["max_deviation"] == pytest.approx(1.0)


class TestSpectrumReport:
    def test_report_contents(self):
        report = spectrum_report(2, 2, GentileOrder(1))
        assert report["constant_convention"] == 0.0
        assert [(round(c["eigenvalue"], 9), c["multiplicity"]) for c in report["ed"]] == [
            (-1.0, 1),
            (1.0, 3),
        ]
        shifted_bose = [
            match for match in report["matches"]
            if match["variant"] == "shifted" and match["form"] == "bose"
        ]
        assert shifted_bose and shifted_bose[0]["matched"]

    def test_singular_forms_recorded(self):
        report = spectrum_report(2, 2, GentileOrder(3))
        assert {"variant": "shifted", "form": "gentile", "flag": "singular"} in report["singular"]
        assert {"variant": "raw", "form": "gentile", "flag": "singular"} in report["singular"]
        assert all(block["form"] != "gentile" for block in report["casimir"])

    @pytest.mark.parametrize("nu", [12, 13, 14])
    def test_large_spin_points_match_the_bose_form(self, nu):
        # The 2**12..2**14-state spin sectors, solved in momentum blocks of
        # at most 80, 132 and 246 states, match the shifted Bose form and not
        # the raw one.
        report = spectrum_report(nu, 2, GentileOrder(1), forms=("bose",))
        assert [(match["variant"], match["matched"]) for match in report["matches"]] == [
            ("shifted", True), ("raw", False)]
        assert sum(cluster["multiplicity"] for cluster in report["ed"]) == 2**nu

    def test_records_are_the_golden_report_spectra(self):
        # The JSON report holds the records as they are, so the records of the
        # golden run's points equal its "spectra", read back.
        golden = Path(__file__).parent / "golden" / "spectrum_compare.json"
        spectra = json.loads(golden.read_text())["spectra"]
        assert [spectrum_report(nu, 2, GentileOrder(n))
                for nu in (2, 3, 4) for n in (1, 2, 3)] == spectra

    def test_oversized_sector_refused_before_enumeration(self):
        # The sector has 2**18 states, under the enumeration cap, and its
        # largest weight block C(18, 9) = 48620 is over the dense cap.  It is
        # refused from its size alone.
        misses = basis._enumerate_cached.cache_info().misses
        with pytest.raises(SizingError, match="dense eigensolve needs dim 48620 > dense cap 4096"):
            spectrum_report(18, 2, GentileOrder(1))
        assert basis._enumerate_cached.cache_info().misses == misses


def standard_tableaux(part):
    """``f^lambda``, the standard Young tableaux of a shape, by the
    hook-length formula ``N! / prod(hooks)``."""
    rows = [r for r in part if r]
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])] if rows else []
    hooks = math.prod(rows[i] - j + cols[j] - i - 1
                      for i in range(len(rows)) for j in range(rows[i]))
    return math.factorial(sum(rows)) // hooks


def content_sum(part):
    """The class-sum eigenvalue on irrep ``lambda``: sum of ``column - row`` over its boxes."""
    return sum(j - i for i, r in enumerate(part) for j in range(r))


class TestContentSumOracle:
    @pytest.mark.parametrize("nu, m", [(nu, m) for m in (2, 3) for nu in range(2, 10)])
    def test_clusters_are_content_sums(self, nu, m):
        # Schur-Weyl duality on the spin sector: irrep lambda of S_nu meets
        # the U(m) irrep of the same shape, so the class sum has eigenvalue
        # content(lambda) with multiplicity f^lambda * dim_U(m)(lambda).
        expected = {}
        for part in partitions_of(nu, m):
            value = content_sum(part)
            expected[value] = (expected.get(value, 0)
                               + standard_tableaux(part) * weyl_dimension(part, m))
        sector = enumerate_basis(nu, m, GentileOrder(1), sector=1)
        ed = eigensolve_hermitian(class_sum(sector), sector)
        assert [mult for _, mult in ed] == [expected[v] for v in sorted(expected)]
        assert max(abs(value - v) for (value, _), v in zip(ed, sorted(expected))) < 1e-9

    def test_hook_length_formula(self):
        assert [standard_tableaux(p) for p in [(3,), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1)]] == [
            1, 2, 1, 5, 5]
        assert sum(standard_tableaux(p) ** 2 for p in partitions_of(6, 6)) == math.factorial(6)
