"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines alongside the pytest verdicts.
"""

import json
import time

import numpy as np

from gentile import (
    BOSE_PROXY_N,
    GentileOrder,
    bracket_nu,
    casimir_c1,
    casimir_c2,
    casimir_sp,
    class_sum,
    compare_spectra,
    coupling_j,
    enumerate_basis,
    exchange_op,
    partitions_of,
    spectrum_casimir,
    unitary_generator,
)
from gentile.cli import main
from gentile.operators import eigensolve_hermitian, max_abs
from gentile.verifier import _ladder_nbracket, _single_mode_diffs
from scipy_oracle import limit_theorem_agreement


def announce(number, passed, text):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} — {text}")
    assert passed, f"criterion {number}: {text}"


def test_criterion_1_single_mode_algebra():
    started = time.monotonic()
    keys = (
        "annihilator_pair_phase",
        "creator_pair_phase",
        "raiser_lowerer_diag",
        "ladder_gap_diag",
    )
    worst = 0.0
    for n in range(1, 9):
        order = GentileOrder(n)
        diffs = _single_mode_diffs(enumerate_basis(1, 1, order))
        worst = max(worst, _ladder_nbracket(enumerate_basis(1, 2, order)),
                    diffs["top_state_annihilation"],
                    max(max_abs(d) for k in keys for d in diffs[k]))
    elapsed = time.monotonic() - started
    announce(
        1,
        worst < 1e-12 and elapsed < 1.0,
        f"single-mode ladder algebra for n=1..8 (max residual {worst:.2e}, "
        f"{elapsed:.2f}s)",
    )


def test_criterion_2_limit_behavior():
    fermi = GentileOrder(1)
    exact = all(
        abs(coupling_j(occupation, fermi) + occupation) < 1e-12
        for occupation in (0, 1)
    )
    proxy = GentileOrder(BOSE_PROXY_N)
    couplings = max(abs(coupling_j(o, proxy) + o) for o in range(4))
    brackets = max(abs(bracket_nu(o, proxy) - o) for o in range(4))
    announce(
        2,
        exact and couplings < 1e-4 and brackets < 1e-4,
        f"coupling and q-number limits (fermi exact; proxy deviations "
        f"{couplings:.2e}, {brackets:.2e})",
    )


def test_criterion_3_duality_and_conservation():
    started = time.monotonic()
    worst_leakage = 0.0
    worst_hermiticity = 0.0
    for n in (1, 2, 3):
        order = GentileOrder(n)
        for nu in (2, 3):
            full = enumerate_basis(nu, 2, order)
            sector = enumerate_basis(nu, 2, order, sector=1)
            operators = [
                exchange_op(i, j, full)
                for i in range(1, nu + 1)
                for j in range(i + 1, nu + 1)
            ]
            operators += [
                unitary_generator(k, l, full) for k in (1, 2) for l in (1, 2)
            ]
            operators += [casimir_c1(full), casimir_c2(full)]
            # The sector's rows and columns, as full-space ordinals.
            inside = np.zeros(full.dim, dtype=bool)
            inside[sector.ranks] = True
            for op in operators:
                crossing = np.abs(op.data[inside[op.rows()] != inside[op.indices]])
                worst_leakage = max(worst_leakage, crossing.max(initial=0.0))
            for casimir in (casimir_c1(full), casimir_c2(full)):
                worst_hermiticity = max(
                    worst_hermiticity, max_abs(casimir - casimir.getH())
                )
    elapsed = time.monotonic() - started
    announce(
        3,
        worst_leakage < 1e-12 and worst_hermiticity < 1e-10 and elapsed < 120.0,
        f"sector conservation and Casimir hermiticity on the grid "
        f"(leakage {worst_leakage:.2e}, asymmetry {worst_hermiticity:.2e}, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_4_heisenberg_cross_check():
    started = time.monotonic()
    order = GentileOrder(1)

    spin_two, spin_three = (enumerate_basis(nu, 2, order, sector=1) for nu in (2, 3))
    two = eigensolve_hermitian(class_sum(spin_two), spin_two)
    ed_two_ok = (
        len(two) == 2
        and abs(two[0][0] + 1.0) < 1e-10 and two[0][1] == 1
        and abs(two[1][0] - 1.0) < 1e-10 and two[1][1] == 3
    )
    levels_two = spectrum_casimir(2, 2, "shifted", "bose")
    casimir_two_ok = [(l.partition, l.energy, l.weyl_dim) for l in levels_two] == [
        ((2, 0), 1.0, 3),
        ((1, 1), -1.0, 1),
    ]
    match_two = compare_spectra(two, levels_two)
    fermi_match = compare_spectra(
        two, spectrum_casimir(2, 2, "shifted", "fermi"), "shifted", "fermi"
    )
    sign_convention_ok = match_two.matched and fermi_match.matched and (
        {match_two.sign, fermi_match.sign} == {1, -1}
    )

    three = eigensolve_hermitian(class_sum(spin_three), spin_three)
    ed_three_ok = (
        len(three) == 2
        and abs(three[0][0]) < 1e-10 and three[0][1] == 4
        and abs(three[1][0] - 3.0) < 1e-10 and three[1][1] == 4
    )
    levels_three = spectrum_casimir(3, 2, "shifted", "bose")
    match_three = compare_spectra(three, levels_three)
    factors_ok = match_three.matched and match_three.factors == {
        (3, 0): 1.0,
        (2, 1): 2.0,
    }
    elapsed = time.monotonic() - started
    announce(
        4,
        ed_two_ok and casimir_two_ok and sign_convention_ok and ed_three_ok
        and factors_ok and elapsed < 10.0,
        f"exchange-model cross-check for two and three particles ({elapsed:.1f}s)",
    )


def test_criterion_5_partition_tables():
    listing_ok = partitions_of(4, 4) == [
        (4, 0, 0, 0),
        (3, 1, 0, 0),
        (2, 2, 0, 0),
        (2, 1, 1, 0),
        (1, 1, 1, 1),
    ]
    first_order_ok = all(
        casimir_sp(1, partition, max_parts) == total
        for total in range(13)
        for max_parts in range(1, 7)
        for partition in partitions_of(total, max_parts)
    )
    spots_ok = casimir_sp(2, (2, 0), 2) == 8 and casimir_sp(2, (1, 1), 2) == 4
    announce(
        5,
        listing_ok and first_order_ok and spots_ok,
        "partition enumeration and eigenvalue tables",
    )


def test_criterion_6_contested_reporting(tmp_path):
    report = tmp_path / "grid.json"
    args = ["verify", "--no-timestamp", "--out", str(report)]
    code_first = main(args)
    first_bytes = report.read_bytes()
    code_second = main(args)
    second_bytes = report.read_bytes()

    payload = json.loads(first_bytes)
    verdicts = payload["verdicts"]

    def reported(identity, **filters):
        rows = [
            v for v in verdicts
            if v["identity"] == identity
            and all(v[key] == value for key, value in filters.items())
        ]
        return rows and all(
            v["status"] == "report_only"
            and v["residual"] is not None
            and v["residual"] == v["residual"]  # finite, not NaN
            for v in rows
        )

    relation_covered = all(
        reported("class_sum_casimir_relation", interpretation=interp, subspace=sub)
        for interp in ("entrywise_real", "hermitian_part")
        for sub in ("full", "sector:1")
    )
    contested_covered = all(
        reported(identity)
        for identity in (
            "generator_commutation",
            "duality_commutation",
            "quartic_word_bracket",
            "self_bracket_deformed",
        )
    )
    plain_rows = [v for v in verdicts if v["identity"] == "self_bracket_plain"]
    plain_covered = plain_rows and all(
        v["status"] == "pass" and v["residual"] is not None for v in plain_rows
    )
    deterministic = first_bytes == second_bytes
    announce(
        6,
        code_first == 0 and code_second == 0 and relation_covered
        and contested_covered and plain_covered and deterministic,
        "default verify grid exits 0 with contested residuals recorded and "
        "byte-identical reruns",
    )


def test_criterion_7_recipe_consistency():
    worst = max(
        limit_theorem_agreement(nu, 2, subspace)
        for nu in (2, 3)
        for subspace in (None, 1)
    )
    announce(
        7,
        worst < 1e-12,
        f"order-one agreement of the class-sum and limit recipes "
        f"(max distance {worst:.2e})",
    )
