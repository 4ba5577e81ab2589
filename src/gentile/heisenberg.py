"""All-pairs exchange Hamiltonian: exact diagonalization vs partition route.

The Hamiltonian is the class sum of pair exchanges on the spin sector (one
particle per position), solved in symmetry-adapted blocks (weight, momentum
under the cyclic translation of positions, one weight per relabelling
orbit) by :func:`gentile.operators.class_sum_spectrum`: the exchange words
act on the kept translation representatives of the sector basis only, and
the whole matrix is never built.  The blocks couple no two weights and are
checked to be Hermitian one by one; a sector whose class sum is not
Hermitian, such as ``sector=2`` at ``n=2``, is refused with
``NonHermitianError``.  The additive constant of the spin-dot rewriting is
fixed to zero by convention and recorded in every report.

The partition route evaluates closed-form Casimir eigenvalues over integer
partitions of the particle number.  Three forms are available:

* ``bose``    -- ``+ (C2/2 - (m/2) C1)``,
* ``fermi``   -- the sign-flipped Bose form,
* ``gentile`` -- the general finite-n form, ``sec(2*pi/(n+1))`` times
  ``(C2/2 - (m/2) C1 - m * sum_J)`` with the sector coupling sum
  ``nu * coupling_j(1)``; its prefactor is singular when ``cos(2*pi/(n+1))``
  vanishes (n = 3), which is reported rather than evaluated.

Each C-eigenvalue comes in the two formula variants of
:mod:`gentile.partitions`; the base ``C2/2 - (m/2) C1`` is computed once per
variant and each form is read from it.  ``compare_spectra`` matches the
exact diagonalization against the predictions as multisets, inferring the
symmetric-group multiplicity factor per partition and the overall sign;
ties within its tolerance are broken by value and towards ``+1``, never by
the last bit of a cluster mean.

The results are the report records themselves, built here and described
nowhere else: the JSON report holds them as they are, and the CSV rows and
the CLI summary read them by key.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .basis import DEFAULT_DIMENSION_CAP, DENSE_EIG_CAP, enumerate_basis
from .operators import class_sum_spectrum
from .partitions import casimir_value, partition_label, partitions_of, weyl_dimension
from .scalars import GentileOrder, coupling_j

#: Additive constant dropped from the spin-dot rewriting of the Hamiltonian.
CONSTANT_CONVENTION = 0.0

FORMS = ("bose", "fermi", "gentile")

#: Largest distance at which a predicted level matches an ED cluster.
MATCH_TOL = 1e-9


class SingularPrefactorError(ValueError):
    """The finite-n prefactor 1/cos(2*pi/(n+1)) has no value at this order."""


def _form_energy(
    form: str, nu: int, m: int, order: Optional[GentileOrder]
) -> Callable[[float], float]:
    """The map from a level's base ``C2/2 - (m/2) C1`` to its energy in ``form``."""
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")
    if form == "bose":
        return lambda base: base
    if form == "fermi":
        return lambda base: -base
    if order is None:
        raise ValueError("the finite-n form needs a GentileOrder")
    cos2x = math.cos(2.0 * math.pi / (order.n + 1))
    if abs(cos2x) < 1e-12:
        raise SingularPrefactorError(
            f"cos(2*pi/(n+1)) vanishes at n={order.n}; no finite prefactor"
        )
    prefactor = 1.0 / cos2x
    coupling_shift = m * nu * coupling_j(1, order)
    return lambda base: prefactor * (base - coupling_shift)


def _casimir_bases(nu: int, m: int, variant: str) -> list[dict]:
    """The level record of every partition of ``nu`` into at most ``m`` parts,
    with its base ``C2/2 - (m/2) C1`` as the eigenvalue (the Bose form),
    computed once."""
    levels = []
    for part in partitions_of(nu, m):
        c1 = casimir_value(1, part, m, variant)
        c2 = casimir_value(2, part, m, variant)
        levels.append({"partition": list(part), "eigenvalue": 0.5 * c2 - 0.5 * m * c1,
                       "weyl_dimension": weyl_dimension(part, m)})
    return levels


def spectrum_casimir(
    nu: int,
    m: int,
    variant: str = "shifted",
    form: str = "bose",
    order: Optional[GentileOrder] = None,
) -> list[dict]:
    """Predicted level records for every partition of ``nu`` into at most ``m`` parts."""
    energy = _form_energy(form, nu, m, order)
    return [dict(level, eigenvalue=float(energy(level["eigenvalue"])))
            for level in _casimir_bases(nu, m, variant)]


def _signed_match(
    ed: Sequence[tuple[float, int]], casimir: Sequence[dict], sign: int
) -> tuple[bool, float, list[float]]:
    """Whether the match of one overall sign holds, its largest deviation and
    each level's factor: each level takes the lowest-valued ED cluster within
    ``MATCH_TOL`` of its nearest distance."""
    deviation = 0.0
    factors = []
    claimed = 0.0
    integral = True
    for level in casimir:
        target = sign * level["eigenvalue"]
        distances = [abs(value - target) for value, _ in ed]
        nearest = min(distances)
        value, mult = min(pair for pair, distance in zip(ed, distances)
                          if distance - nearest < MATCH_TOL)
        deviation = max(deviation, abs(value - target))
        factor = mult / level["weyl_dimension"]
        if abs(factor - round(factor)) < 1e-9:
            factor = float(round(factor))
        else:
            integral = False
        factors.append(factor)
        claimed += level["weyl_dimension"] * factor
    total_ed = sum(mult for _, mult in ed)
    return deviation < MATCH_TOL and integral and claimed == total_ed, deviation, factors


def compare_spectra(
    ed: Sequence[tuple[float, int]],
    casimir: Sequence[dict],
    variant: str = "shifted",
    form: str = "bose",
) -> dict:
    """Match predicted level records to ED clusters, trying both overall signs.

    A partition matches when some ED cluster sits within ``MATCH_TOL`` of
    its (possibly sign-flipped) eigenvalue and the cluster multiplicity is an
    integer multiple of the partition's irrep dimension -- that integer is
    the inferred permutation-group multiplicity.  Among the clusters within
    ``MATCH_TOL`` of a level's nearest distance, the lowest-valued one is
    taken.  A matched sign beats an unmatched one; otherwise the smaller
    maximum deviation wins, and deviations less than ``MATCH_TOL`` apart are
    a tie, won by ``+1``.  So a level midway between two clusters keeps its
    factor and sign when a cluster mean moves in its last bits.  The
    record's ``factors`` are keyed by partition label, in descending order.
    """
    plus, minus = (_signed_match(ed, casimir, sign) for sign in (1, -1))
    if plus[0] != minus[0]:
        sign = 1 if plus[0] else -1
    else:
        sign = -1 if minus[1] < plus[1] - MATCH_TOL else 1
    matched, deviation, factors = plus if sign == 1 else minus
    ranked = sorted(zip((level["partition"] for level in casimir), factors), reverse=True)
    return {
        "variant": variant,
        "form": form,
        "sign": sign,
        "max_deviation": deviation,
        "factors": {partition_label(part): factor for part, factor in ranked},
        "matched": matched,
    }


def spectrum_report(
    nu: int,
    m: int,
    order: GentileOrder,
    sector: int = 1,
    variants: Sequence[str] = ("shifted", "raw"),
    forms: Sequence[str] = FORMS,
    cap: int = DEFAULT_DIMENSION_CAP,
) -> dict:
    """Run ED and every requested partition-route prediction side by side.

    The sector is sized before it is enumerated: its dimension against
    ``cap``, then its largest weight block against ``DENSE_EIG_CAP``.
    """
    basis = enumerate_basis(nu, m, order, sector=sector, cap=cap, dense_cap=DENSE_EIG_CAP)
    ed = class_sum_spectrum(basis)
    casimir = []
    singular = []
    matches = []
    for variant in variants:
        bases = _casimir_bases(nu, m, variant)
        for form in forms:
            try:
                energy = _form_energy(form, nu, m, order)
            except SingularPrefactorError:
                singular.append({"variant": variant, "form": form, "flag": "singular"})
                continue
            levels = [dict(level, eigenvalue=float(energy(level["eigenvalue"])))
                      for level in bases]
            casimir.append({"variant": variant, "form": form, "levels": levels})
            matches.append(compare_spectra(ed, levels, variant, form))
    return {
        "nu": nu,
        "m": m,
        "n": order.n,
        "constant_convention": CONSTANT_CONVENTION,
        "ed": [{"eigenvalue": value, "multiplicity": mult} for value, mult in ed],
        "casimir": casimir,
        "singular": singular,
        "matches": matches,
    }
