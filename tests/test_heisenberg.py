"""Exchange-model solver: ED against the partition route."""

import numpy as np
import pytest
import scipy.sparse as sp

from gentile import (
    GentileOrder,
    NonHermitianError,
    SingularPrefactorError,
    as_operator,
    build_hamiltonian,
    compare_spectra,
    spectrum_casimir,
    spectrum_ed,
    spectrum_report,
)
from gentile import basis
from gentile.basis import SizingError
from gentile.operators import max_abs


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
        H = build_hamiltonian(2, 2, GentileOrder(1))
        swap = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert max_abs(H.mat - swap) < 1e-12

    @pytest.mark.parametrize(
        "nu,m,n",
        [
            (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2), (4, 2, 1), (4, 2, 2),
            (2, 3, 1), (2, 3, 2), (3, 3, 1), (3, 3, 2), (4, 3, 1),
        ],
    )
    def test_hermitian_and_complete(self, nu, m, n):
        H = build_hamiltonian(nu, m, GentileOrder(n))
        assert max_abs(H.mat - H.mat.getH()) < 1e-10
        clusters = spectrum_ed(H)
        assert sum(mult for _, mult in clusters) == m**nu
        assert all(isinstance(v, float) for v, _ in clusters)

    @pytest.mark.slow
    def test_largest_point_under_cap(self):
        H = build_hamiltonian(4, 3, GentileOrder(2))
        clusters = spectrum_ed(H)
        assert sum(mult for _, mult in clusters) == 81

    def test_sector_built_without_full_space(self):
        # the full space 2**22 is over the default cap; only the sector is built
        H = build_hamiltonian(11, 2, GentileOrder(1))
        assert H.dim == 2**11
        assert max_abs(H.mat - H.mat.getH()) == 0.0
        # an exchange fixes a state iff both positions hold the same internal
        # state, so the diagonal counts same-state pairs; bit p of the ordinal
        # is 1 where position p holds state 1
        ones = np.array([bin(s).count("1") for s in range(2**11)])
        same_pairs = (ones * (ones - 1) + (11 - ones) * (10 - ones)) / 2
        np.testing.assert_array_equal(H.mat.diagonal().real, same_pairs)

    def test_trace_conservation(self):
        H = build_hamiltonian(3, 2, GentileOrder(1))
        clusters = spectrum_ed(H)
        total = sum(v * mult for v, mult in clusters)
        assert total == pytest.approx(H.mat.diagonal().sum().real, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_sector_hamiltonian_is_order_independent(self, n):
        reference = build_hamiltonian(3, 2, GentileOrder(1))
        other = build_hamiltonian(3, 2, GentileOrder(n))
        assert max_abs(reference.mat - other.mat) < 1e-12

    def test_single_position_rejected(self):
        with pytest.raises(ValueError):
            build_hamiltonian(1, 2, GentileOrder(1))


class TestSpectrumEd:
    def test_singlet_triplet(self):
        H = build_hamiltonian(2, 2, GentileOrder(1))
        clusters = spectrum_ed(H)
        assert clusters == [
            (pytest.approx(-1.0, abs=1e-10), 1),
            (pytest.approx(1.0, abs=1e-10), 3),
        ]
        assert clusters == ed_oracle(H.mat.toarray())

    def test_three_spins(self):
        H = build_hamiltonian(3, 2, GentileOrder(1))
        clusters = spectrum_ed(H)
        assert [(round(v, 9), mult) for v, mult in clusters] == [(0.0, 4), (3.0, 4)]

    def test_rejects_non_hermitian(self):
        bad = as_operator(sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)))
        with pytest.raises(NonHermitianError):
            spectrum_ed(bad)


class TestSpectrumCasimir:
    def test_two_spin_bose_shifted(self):
        levels = spectrum_casimir(2, 2, "shifted", "bose")
        assert [(l.partition, l.energy, l.weyl_dim) for l in levels] == [
            ((2, 0), 1.0, 3),
            ((1, 1), -1.0, 1),
        ]

    def test_three_spin_bose_shifted(self):
        levels = spectrum_casimir(3, 2, "shifted", "bose")
        assert [(l.partition, l.energy, l.weyl_dim) for l in levels] == [
            ((3, 0), 3.0, 4),
            ((2, 1), 0.0, 2),
        ]

    def test_fermi_flips_sign(self):
        bose = spectrum_casimir(2, 2, "shifted", "bose")
        fermi = spectrum_casimir(2, 2, "shifted", "fermi")
        for b, f in zip(bose, fermi):
            assert f.energy == -b.energy

    def test_raw_variant_two_spins(self):
        levels = spectrum_casimir(2, 2, "raw", "bose")
        assert [(l.partition, l.energy) for l in levels] == [((2, 0), 2.0), ((1, 1), 0.0)]

    def test_general_m_uses_theorem_coefficients(self):
        # oracle: the exchange class sum acts as the content sum of the
        # partition, here (2,0,0) -> +1 and (1,1,0) -> -1 for three states
        levels = spectrum_casimir(2, 3, "shifted", "bose")
        assert [(l.partition, l.energy, l.weyl_dim) for l in levels] == [
            ((2, 0, 0), 1.0, 6),
            ((1, 1, 0), -1.0, 3),
        ]
        H = build_hamiltonian(2, 3, GentileOrder(1))
        assert compare_spectra(spectrum_ed(H), levels, "shifted", "bose").matched

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
            assert g.energy == pytest.approx(f.energy - 4.0, abs=1e-9)

    def test_form_validation(self):
        with pytest.raises(ValueError):
            spectrum_casimir(2, 2, "shifted", "classical")


class TestCompareSpectra:
    def test_exact_match_two_spins(self):
        ed = [(-1.0, 1), (1.0, 3)]
        match = compare_spectra(ed, spectrum_casimir(2, 2, "shifted", "bose"))
        assert match.matched and match.sign == 1
        assert match.max_deviation < 1e-12
        assert match.factors == {(2, 0): 1.0, (1, 1): 1.0}

    def test_fermi_matches_with_flipped_sign(self):
        ed = [(-1.0, 1), (1.0, 3)]
        match = compare_spectra(
            ed, spectrum_casimir(2, 2, "shifted", "fermi"), "shifted", "fermi"
        )
        assert match.matched and match.sign == -1

    def test_three_spin_multiplicity_factors(self):
        ed = [(0.0, 4), (3.0, 4)]
        match = compare_spectra(ed, spectrum_casimir(3, 2, "shifted", "bose"))
        assert match.matched
        assert match.factors == {(3, 0): 1.0, (2, 1): 2.0}

    def test_raw_variant_reports_deviation(self):
        ed = [(-1.0, 1), (1.0, 3)]
        match = compare_spectra(ed, spectrum_casimir(2, 2, "raw", "bose"), "raw", "bose")
        assert not match.matched
        assert match.max_deviation == pytest.approx(1.0)


class TestSpectrumReport:
    def test_report_contents(self):
        report = spectrum_report(2, 2, GentileOrder(1))
        assert report.constant == 0.0
        assert [(round(v, 9), mult) for v, mult in report.ed_spectrum] == [
            (-1.0, 1),
            (1.0, 3),
        ]
        shifted_bose = [
            match for match in report.matches
            if match.variant == "shifted" and match.form == "bose"
        ]
        assert shifted_bose and shifted_bose[0].matched

    def test_singular_forms_recorded(self):
        report = spectrum_report(2, 2, GentileOrder(3))
        assert ("shifted", "gentile") in report.singular_forms
        assert ("raw", "gentile") in report.singular_forms
        assert all(form != "gentile" for _, form, _ in report.casimir)

    def test_oversized_sector_refused_before_enumeration(self):
        # The sector has 2**18 states: over the dense cap, under the
        # enumeration cap.  It is refused from its size alone.
        misses = basis._enumerate_cached.cache_info().misses
        with pytest.raises(SizingError, match="dense eigensolve needs dim 262144"):
            spectrum_report(18, 2, GentileOrder(1))
        assert basis._enumerate_cached.cache_info().misses == misses
