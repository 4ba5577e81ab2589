"""All-pairs exchange Hamiltonian: exact diagonalization vs partition route.

The Hamiltonian is the class sum of pair exchanges on the spin sector (one
particle per position), built on the sector basis itself and solved in
symmetry-adapted blocks (weight, momentum under the cyclic translation of
positions, one weight per relabelling orbit; see
:func:`gentile.operators.eigensolve_hermitian`); the additive constant of
the spin-dot rewriting is fixed to zero by convention and recorded in every
report.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .basis import (
    DEFAULT_DIMENSION_CAP,
    check_dimension,
    enumerate_basis,
    largest_weight_block,
)
from .operators import check_dense_dimension, class_sum, eigensolve_hermitian
from .partitions import Partition, casimir_value, partitions_of, weyl_dimension
from .scalars import GentileOrder, coupling_j

#: Additive constant dropped from the spin-dot rewriting of the Hamiltonian.
CONSTANT_CONVENTION = 0.0

FORMS = ("bose", "fermi", "gentile")


class SingularPrefactorError(ValueError):
    """The finite-n prefactor 1/cos(2*pi/(n+1)) has no value at this order."""


@dataclass(frozen=True)
class CasimirLevel:
    """One predicted level: partition label, energy, and irrep dimension."""

    partition: Partition
    energy: float
    weyl_dim: int


@dataclass(frozen=True)
class SpectrumMatch:
    """Outcome of matching predictions against exact diagonalization."""

    variant: str
    form: str
    sign: int
    max_deviation: float
    factors: dict[Partition, float]
    matched: bool


@dataclass(frozen=True)
class SpectrumReport:
    """Everything one (n, nu, m) run produced."""

    n: int
    nu: int
    m: int
    constant: float
    ed_spectrum: tuple[tuple[float, int], ...]
    casimir: tuple[tuple[str, str, tuple[CasimirLevel, ...]], ...]
    matches: tuple[SpectrumMatch, ...]
    singular_forms: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def check_spectrum_point(nu: int, m: int, order: GentileOrder, sector: int, cap: int) -> None:
    """Size one spectrum point without enumerating it: the sector must exist
    and fit ``cap``, and its largest weight block must fit the dense solve.
    """
    check_dimension(order.n, nu, m, sector, cap)
    check_dense_dimension(largest_weight_block(order.n, nu, m, sector))


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


def _casimir_bases(nu: int, m: int, variant: str) -> list[CasimirLevel]:
    """Every partition of ``nu`` into at most ``m`` parts with its base
    ``C2/2 - (m/2) C1`` as the energy (the Bose form), computed once."""
    levels = []
    for part in partitions_of(nu, m):
        c1 = casimir_value(1, part, m, variant)
        c2 = casimir_value(2, part, m, variant)
        levels.append(CasimirLevel(part, 0.5 * c2 - 0.5 * m * c1, weyl_dimension(part, m)))
    return levels


def _in_form(bases: Sequence[CasimirLevel], energy: Callable[[float], float]) -> list[CasimirLevel]:
    """The levels of ``bases`` with each base mapped to its energy by ``energy``."""
    return [CasimirLevel(level.partition, float(energy(level.energy)), level.weyl_dim)
            for level in bases]


def spectrum_casimir(
    nu: int,
    m: int,
    variant: str = "shifted",
    form: str = "bose",
    order: Optional[GentileOrder] = None,
) -> list[CasimirLevel]:
    """Predicted levels for every partition of ``nu`` into at most ``m`` parts."""
    energy = _form_energy(form, nu, m, order)
    return _in_form(_casimir_bases(nu, m, variant), energy)


def _signed_match(
    ed: Sequence[tuple[float, int]],
    casimir: Sequence[CasimirLevel],
    variant: str,
    form: str,
    sign: int,
    tol: float,
) -> SpectrumMatch:
    """The match of one overall sign: each level takes the lowest-valued ED
    cluster within ``tol`` of its nearest distance."""
    deviation = 0.0
    factors: dict[Partition, float] = {}
    claimed = 0.0
    integral = True
    for level in casimir:
        target = sign * level.energy
        distances = [abs(value - target) for value, _ in ed]
        nearest = min(distances)
        value, mult = min(pair for pair, distance in zip(ed, distances) if distance - nearest < tol)
        deviation = max(deviation, abs(value - target))
        factor = mult / level.weyl_dim
        if abs(factor - round(factor)) < 1e-9:
            factor = float(round(factor))
        else:
            integral = False
        factors[level.partition] = factor
        claimed += level.weyl_dim * factor
    total_ed = sum(mult for _, mult in ed)
    return SpectrumMatch(
        variant=variant,
        form=form,
        sign=sign,
        max_deviation=deviation,
        factors=factors,
        matched=deviation < tol and integral and claimed == total_ed,
    )


def compare_spectra(
    ed: Sequence[tuple[float, int]],
    casimir: Sequence[CasimirLevel],
    variant: str = "shifted",
    form: str = "bose",
    tol: float = 1e-9,
) -> SpectrumMatch:
    """Match predicted levels to ED clusters, trying both overall signs.

    A partition matches when some ED cluster sits within ``tol`` of its
    (possibly sign-flipped) energy and the cluster multiplicity is an integer
    multiple of the partition's irrep dimension -- that integer is the
    inferred permutation-group multiplicity.  Among the clusters within
    ``tol`` of a level's nearest distance, the lowest-valued one is taken.  A
    matched sign beats an unmatched one; otherwise the smaller maximum
    deviation wins, and deviations less than ``tol`` apart are a tie, won by
    ``+1``.  So a level midway between two clusters keeps its factor and
    sign when a cluster mean moves in its last bits.
    """
    plus, minus = (_signed_match(ed, casimir, variant, form, sign, tol) for sign in (1, -1))
    if plus.matched != minus.matched:
        return plus if plus.matched else minus
    return minus if minus.max_deviation < plus.max_deviation - tol else plus


def spectrum_report(
    nu: int,
    m: int,
    order: GentileOrder,
    sector: int = 1,
    variants: Sequence[str] = ("shifted", "raw"),
    forms: Sequence[str] = FORMS,
    cap: int = DEFAULT_DIMENSION_CAP,
) -> SpectrumReport:
    """Run ED and every requested partition-route prediction side by side."""
    check_spectrum_point(nu, m, order, sector, cap)
    basis = enumerate_basis(nu, m, order, sector=sector, cap=cap)
    ed = tuple(eigensolve_hermitian(class_sum(basis), basis))
    casimir_blocks = []
    matches = []
    singular = []
    for variant in variants:
        bases = _casimir_bases(nu, m, variant)
        for form in forms:
            try:
                levels = tuple(_in_form(bases, _form_energy(form, nu, m, order)))
            except SingularPrefactorError:
                singular.append((variant, form))
                continue
            casimir_blocks.append((variant, form, levels))
            matches.append(compare_spectra(ed, levels, variant, form))
    return SpectrumReport(
        n=order.n,
        nu=nu,
        m=m,
        constant=CONSTANT_CONVENTION,
        ed_spectrum=ed,
        casimir=tuple(casimir_blocks),
        matches=tuple(matches),
        singular_forms=tuple(singular),
    )
