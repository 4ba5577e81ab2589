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

Bases are immutable after construction and compare and hash by value,
``(nu, m, order, sector)``; concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .scalars import GentileOrder

#: Largest enumeration a basis build will attempt.
DEFAULT_DIMENSION_CAP = 2**20


class SizingError(ValueError):
    """Raised when a requested space exceeds a configured cap."""


@dataclass(frozen=True)
class ModeIndex:
    """One (position, state) mode; both indices are 1-based."""

    position: int
    state: int

    def flat(self, m: int) -> int:
        return (self.position - 1) * m + (self.state - 1)

    @staticmethod
    def from_flat(flat: int, m: int) -> "ModeIndex":
        return ModeIndex(position=flat // m + 1, state=flat % m + 1)


def _radix(n: int, modes: int) -> np.ndarray:
    """Place values of the flat modes in base ``n+1``, most significant first."""
    return (n + 1) ** np.arange(modes - 1, -1, -1, dtype=np.int64)


@dataclass(frozen=True)
class FockBasis:
    """Enumerated occupation basis.

    ``sector is None`` means the full product space; an integer ``t`` keeps
    only states whose per-position totals all equal ``t``.  ``occupations``
    is the (dim, nu*m) integer matrix of the enumerated states, read-only,
    and takes no part in equality.
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

    @property
    def ranks(self) -> np.ndarray:
        """Each state's ordinal in the full space, ascending."""
        return self.occupations @ _radix(self.order.n, self.modes)

    @property
    def is_full(self) -> bool:
        return self.sector is None

    @property
    def basis_tag(self) -> str:
        return f"n{self.order.n}:nu{self.nu}:m{self.m}:{subspace_label(self.sector)}"

    def mode_flat(self, position: int, state: int) -> int:
        if not 1 <= position <= self.nu:
            raise ValueError(f"position must be in 1..{self.nu}, got {position}")
        if not 1 <= state <= self.m:
            raise ValueError(f"state must be in 1..{self.m}, got {state}")
        return (position - 1) * self.m + (state - 1)


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
        for k in range(m + 1)
        if total - k * (n + 1) >= 0
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


def check_dimension(n: int, nu: int, m: int, sector: Optional[int], cap: int) -> int:
    """Dimension of the full space, ``(n+1)**(nu*m)``, or of a sector,
    ``(#compositions)**nu``, computed before any enumeration.

    Both powers are multiplied out only while they stay within their bound,
    so a huge ``nu`` costs a few steps, and a dimension that passes ``cap``
    before its last factor is reported as more than ``cap``.  Raises
    ``ValueError`` for a sector outside ``0..n*m``, and ``SizingError`` when
    the dimension exceeds ``cap`` or when full-space ranks
    (``(n+1)**(nu*m)`` values) would overflow 64-bit integers.
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
    return dim


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
    occ.setflags(write=False)
    return FockBasis(nu=nu, m=m, order=order, sector=sector, occupations=occ)


def enumerate_basis(
    nu: int,
    m: int,
    order: GentileOrder,
    sector: Optional[int] = None,
    cap: int = DEFAULT_DIMENSION_CAP,
) -> FockBasis:
    """Enumerate the occupation basis, optionally restricted to a sector.

    Raises ``SizingError`` when the basis's own dimension (the full space's,
    or the sector's) exceeds ``cap`` and ``ValueError`` for inconsistent
    parameters.
    """
    if nu < 1 or m < 1:
        raise ValueError(f"need nu >= 1 and m >= 1, got nu={nu}, m={m}")
    check_dimension(order.n, nu, m, sector, cap)
    return _enumerate_cached(nu, m, order, sector)


def state_to_index(basis: FockBasis, state: Sequence[int]) -> int:
    """Ordinal of ``state`` in ``basis``; inverse of :func:`index_to_state`."""
    key = tuple(int(v) for v in state)
    if len(key) != basis.modes:
        raise ValueError(f"state has {len(key)} entries, basis has {basis.modes} modes")
    n = basis.order.n
    if any(v < 0 or v > n for v in key):
        raise ValueError(f"occupations {key} outside [0, {n}]")
    ranks = basis.ranks
    rank = int(np.array(key, dtype=np.int64) @ _radix(n, basis.modes))
    ordinal = int(np.searchsorted(ranks, rank))
    if ordinal == basis.dim or ranks[ordinal] != rank:
        raise ValueError(
            f"state {key} violates the sector constraint "
            f"(per-position total {basis.sector})"
        )
    return ordinal


def index_to_state(basis: FockBasis, ordinal: int) -> tuple[int, ...]:
    """The ``ordinal``-th state in the declared lexicographic order."""
    if not 0 <= ordinal < basis.dim:
        raise IndexError(f"ordinal {ordinal} not in [0, {basis.dim})")
    return tuple(int(v) for v in basis.occupations[ordinal])
