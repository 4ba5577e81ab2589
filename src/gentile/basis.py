"""Occupation-number bases over ``nu`` positions times ``m`` internal states.

A mode is the pair (position, state); its flat index is position-major,
``flat = (position-1)*m + (state-1)``.  A basis state is the tuple of all
``nu*m`` occupations, each bounded by the Gentile order ``n``, listed in flat
order.  Enumeration is lexicographic and ascending in that flattened tuple,
so the all-zero state is ordinal 0 and (on the full space) the all-``n``
state is last.

The ``(dim, nu*m)`` array ``occupations`` is the only record of the states.
Because each entry lies in ``0..n``, a state's lexicographic ordinal in the
full space is its mixed-radix number in base ``n+1`` (``ranks``), so
indexing is arithmetic and needs no lookup table.

An optional sector constraint fixes the particle total at every position to
one uniform value ``t`` (``t = 1`` is the spin realization).  A sector is
enumerated directly, never through the full space: its states are the
lexicographic product over positions of the compositions of ``t`` into ``m``
parts of at most ``n``.  That product is exactly the sub-sequence of the full
enumeration whose per-position totals all equal ``t``, so sector ranks
ascend, and a sector is sized by its own dimension.

A state's weight is its total over positions in each internal state,
``(w_1, ..., w_m)``; ``FockBasis.weights`` labels it by one integer, the
weight read in base ``nu*n + 1``.  Every operator built here commutes with
the diagonal generators ``E(k,k)``, so it is block-diagonal in the weight,
and :func:`largest_weight_block` sizes the largest block before anything is
enumerated.  This module owns all sizing: :func:`check_dimension` holds a
space to a dimension cap and, for a dense solve, its largest weight block to
a dense cap, and :func:`enumerate_basis` sizes every basis with it before
enumerating it.

Bases are immutable after construction and compare and hash by value,
``(nu, m, order, sector)``; concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import product
from typing import Optional

import numpy as np

from .scalars import GentileOrder

#: Largest enumeration a basis build will attempt.
DEFAULT_DIMENSION_CAP = 2**20

#: Default largest dense matrix: the largest weight block of a solve.
DENSE_EIG_CAP = 4096


class SizingError(ValueError):
    """Raised when a requested space exceeds a configured cap."""


def _radix(n: int, modes: int) -> np.ndarray:
    """Place values of the flat modes in base ``n+1``, most significant first."""
    return (n + 1) ** np.arange(modes - 1, -1, -1, dtype=np.int64)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class FockBasis:
    """Enumerated occupation basis.

    ``sector is None`` means the full product space; an integer ``t`` keeps
    only states whose per-position totals all equal ``t``.  ``occupations``
    is the (dim, nu*m) integer matrix of the enumerated states, read-only,
    and takes no part in equality.  ``ranks`` and ``weights`` are computed
    once per basis, on first use, and are read-only too; equality and
    hashing read the fields only.
    """

    nu: int
    m: int
    order: GentileOrder
    sector: Optional[int]
    occupations: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    @property
    def modes(self) -> int:
        return self.nu * self.m

    @cached_property
    def ranks(self) -> np.ndarray:
        """Each state's ordinal in the full space, ascending; read-only."""
        return _read_only(self.occupations @ _radix(self.order.n, self.modes))

    @cached_property
    def weights(self) -> np.ndarray:
        """Each state's weight label: its per-internal-state totals over
        positions, a number in base ``nu*n + 1`` (each total is at most
        ``nu*n``).  The labels order as the weights do lexicographically, and
        the largest, ``(nu*n+1)**m - 1``, is below the full dimension
        ``(n+1)**(nu*m)``, which sizing keeps within 64 bits.  Read-only.
        """
        totals = self.occupations.reshape(self.dim, self.nu, self.m).sum(axis=1)
        return _read_only(totals @ _radix(self.nu * self.order.n, self.m))

    def flat_modes(self, positions, states):
        """The flat modes of 1-based ``positions`` and ``states``, integers or
        integer arrays that broadcast; the caller keeps them in range."""
        return (positions - 1) * self.m + (states - 1)


def subspace_label(sector: Optional[int]) -> str:
    """``full`` for the full space, ``sector:T`` for per-position total T."""
    return "full" if sector is None else f"sector:{sector}"


def check_sector(n: int, m: int, sector: int) -> None:
    """Raise ``ValueError`` unless ``0 <= sector <= n*m``."""
    if sector < 0 or sector > n * m:
        raise ValueError(f"per-position total {sector} not in [0, n*m={n * m}]")


def _composition_count(n: int, m: int, total: int) -> int:
    """Compositions of ``total`` into ``m`` parts in ``0..n`` (inclusion-exclusion)."""
    return sum(
        (-1) ** k * math.comb(m, k) * math.comb(total - k * (n + 1) + m - 1, m - 1)
        for k in range(min(m, total // (n + 1)) + 1)
    )


def _capped_power(base: int, exp: int, cap: int) -> Optional[int]:
    """``base**exp``, or ``None`` once a partial product passes ``cap`` with
    factors still to multiply; a result over ``cap`` is at most ``cap*base``.
    """
    if base <= 1:
        return base**exp
    value = 1
    for step in range(exp):
        value *= base
        if value > cap and step < exp - 1:
            return None
    return value


def check_dimension(
    n: int, nu: int, m: int, sector: Optional[int], cap: int, dense_cap: Optional[int] = None
) -> int:
    """Dimension of the full space, ``(n+1)**(nu*m)``, or of a sector,
    ``(#compositions)**nu``, computed before any enumeration.

    Both powers are multiplied out only while they stay within their bound,
    so a huge ``nu`` costs a few steps, and a dimension that passes ``cap``
    before its last factor is reported as more than ``cap``.  Raises
    ``ValueError`` for a sector outside ``0..n*m``, and ``SizingError`` when
    the dimension exceeds ``cap`` or when full-space ranks
    (``(n+1)**(nu*m)`` values) would overflow 64-bit integers.  A space that
    is solved densely is given ``dense_cap``; once its dimension fits, its
    :func:`largest_weight_block` must fit ``dense_cap`` too, or
    ``SizingError`` is raised.  This is the one dense-cap check.
    """
    if sector is None:
        base, exp, space = n + 1, nu * m, "full space"
    else:
        check_sector(n, m, sector)
        base, exp, space = _composition_count(n, m, sector), nu, f"sector {sector}"
    dim = _capped_power(base, exp, cap)
    if dim is None or dim > cap:
        size = f"more than cap {cap}" if dim is None else f"{dim} > cap {cap}"
        raise SizingError(f"{space} for (n={n}, nu={nu}, m={m}) has dimension {size}")
    full_dim = _capped_power(n + 1, nu * m, 2**63)
    if full_dim is None or full_dim > 2**63:
        raise SizingError(f"full-space ranks for (n={n}, nu={nu}, m={m}) overflow 64-bit integers")
    if dense_cap is not None:
        block = largest_weight_block(n, nu, m, sector)
        if block > dense_cap:
            raise SizingError(f"dense eigensolve needs dim {block} > dense cap {dense_cap}")
    return dim


@lru_cache(maxsize=256)
def largest_weight_block(n: int, nu: int, m: int, sector: Optional[int]) -> int:
    """States in the largest weight block of a basis, without enumerating it.

    It is the largest coefficient of ``(sum over c of x**c)**nu``, ``c``
    running over one position's occupations (the compositions of the sector,
    or all of ``0..n`` per state on the full space).  The power is multiplied
    out one position at a time in Python integers, as a ``dict`` from weight
    label to count.  Each occupation has a label of its own (its entries are
    below the base ``nu*n + 1``), so a position adds each label once.  On
    the spin sector (``sector == 1``) a block holds the orderings of its
    weight, so this is the balanced multinomial ``nu!/prod(w_i!)``.
    :func:`check_dimension` calls it once the dimension fits: the work grows
    with the number of weights, which the dimension bounds.  It is a pure
    function of its four integers and is memoized, so a point sized before
    it is solved is counted once.
    """
    if sector is None:
        per_position = product(range(n + 1), repeat=m)
    else:
        per_position = _compositions(n, m, sector)
    base = nu * n + 1
    steps = [reduce(lambda label, c: label * base + c, occupation, 0)
             for occupation in per_position]
    counts = {0: 1}
    for _ in range(nu):
        grown: dict[int, int] = {}
        for label, count in counts.items():
            for step in steps:
                grown[label + step] = grown.get(label + step, 0) + count
        counts = grown
    return max(counts.values())


def _compositions(n: int, m: int, total: int) -> list[tuple[int, ...]]:
    """Compositions of ``total <= n*m`` into ``m`` parts in ``0..n``, ascending."""
    if m == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(max(0, total - n * (m - 1)), min(n, total) + 1)
        for rest in _compositions(n, m - 1, total - first)
    ]


@lru_cache(maxsize=64)
def _enumerate_cached(nu: int, m: int, order: GentileOrder, sector: Optional[int]) -> FockBasis:
    n = order.n
    if sector is None:
        radix = _radix(n, nu * m)
        occ = np.arange((n + 1) ** (nu * m), dtype=np.int64)[:, None] // radix % (n + 1)
    else:
        # Lexicographic product over positions: position p picks composition
        # number (ordinal // c**(nu-1-p)) % c.
        comps = np.array(_compositions(n, m, sector), dtype=np.int64).reshape(-1, m)
        c = len(comps)
        picks = np.arange(c**nu, dtype=np.int64)[:, None] // _radix(c - 1, nu) % c
        occ = comps[picks].reshape(-1, nu * m)
    return FockBasis(nu=nu, m=m, order=order, sector=sector, occupations=_read_only(occ))


def enumerate_basis(
    nu: int,
    m: int,
    order: GentileOrder,
    sector: Optional[int] = None,
    cap: int = DEFAULT_DIMENSION_CAP,
    dense_cap: Optional[int] = None,
) -> FockBasis:
    """Enumerate the occupation basis, optionally restricted to a sector.

    The basis is sized by :func:`check_dimension` first, so a refused space
    is never enumerated: ``SizingError`` when its own dimension (the full
    space's, or the sector's) exceeds ``cap`` or, for a basis that is solved
    densely, when its largest weight block exceeds ``dense_cap``, and
    ``ValueError`` for inconsistent parameters.
    """
    if nu < 1 or m < 1:
        raise ValueError(f"need nu >= 1 and m >= 1, got nu={nu}, m={m}")
    check_dimension(order.n, nu, m, sector, cap, dense_cap)
    return _enumerate_cached(nu, m, order, sector)
