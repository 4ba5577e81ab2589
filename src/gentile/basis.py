"""Occupation-number bases over ``nu`` positions times ``m`` internal states.

A mode is the pair (position, state); its flat index is position-major,
``flat = (position-1)*m + (state-1)``.  A basis state is the tuple of all
``nu*m`` occupations, each bounded by the Gentile order ``n``, listed in flat
order.  Enumeration is lexicographic and ascending in that flattened tuple,
so the all-zero state is ordinal 0 and (on the full space) the all-``n``
state is last.

An optional sector constraint fixes the particle total at every position to
one uniform value ``t`` (``t = 1`` is the spin realization).  Sector bases
are filtered sub-sequences of the full enumeration, so relative order is
preserved.

Bases are immutable after construction; concurrent reads are safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional, Sequence

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


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Enumerated occupation basis with its index map.

    ``sector is None`` means the full product space; an integer ``t`` keeps
    only states whose per-position totals all equal ``t``.  ``occupations``
    is the (dim, nu*m) integer matrix of the enumerated states, read-only.
    """

    nu: int
    m: int
    order: GentileOrder
    sector: Optional[int]
    states: tuple[tuple[int, ...], ...]
    index: Mapping[tuple[int, ...], int] = field(repr=False)
    occupations: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def modes(self) -> int:
        return self.nu * self.m

    @property
    def is_full(self) -> bool:
        return self.sector is None

    @property
    def basis_tag(self) -> str:
        sec = "full" if self.sector is None else f"sector:{self.sector}"
        return f"n{self.order.n}:nu{self.nu}:m{self.m}:{sec}"

    def mode_flat(self, position: int, state: int) -> int:
        if not 1 <= position <= self.nu:
            raise ValueError(f"position must be in 1..{self.nu}, got {position}")
        if not 1 <= state <= self.m:
            raise ValueError(f"state must be in 1..{self.m}, got {state}")
        return (position - 1) * self.m + (state - 1)


def check_full_dimension(n: int, nu: int, m: int, cap: int) -> int:
    """Dimension ``(n+1)**(nu*m)`` of the full product space.

    Raises ``SizingError`` when it exceeds ``cap``.
    """
    full_dim = (n + 1) ** (nu * m)
    if full_dim > cap:
        raise SizingError(
            f"full space for (n={n}, nu={nu}, m={m}) has dimension "
            f"{full_dim} > cap {cap}"
        )
    return full_dim


def check_sector(n: int, m: int, sector: int) -> None:
    """Raise ``ValueError`` unless ``0 <= sector <= n*m``."""
    if sector < 0 or sector > n * m:
        raise ValueError(f"per-position total {sector} not in [0, n*m={n * m}]")


@lru_cache(maxsize=64)
def _enumerate_cached(
    nu: int, m: int, order: GentileOrder, sector: Optional[int], cap: int
) -> FockBasis:
    n = order.n
    modes = nu * m
    check_full_dimension(n, nu, m, cap)
    if sector is None:
        states = tuple(itertools.product(range(n + 1), repeat=modes))
    else:
        states = tuple(
            s
            for s in itertools.product(range(n + 1), repeat=modes)
            if all(sum(s[p * m : (p + 1) * m]) == sector for p in range(nu))
        )
    index = {s: i for i, s in enumerate(states)}
    occ = np.array(states, dtype=np.int64).reshape(len(states), modes)
    occ.setflags(write=False)
    return FockBasis(
        nu=nu, m=m, order=order, sector=sector, states=states, index=index,
        occupations=occ,
    )


def enumerate_basis(
    nu: int,
    m: int,
    order: GentileOrder,
    sector: Optional[int] = None,
    cap: int = DEFAULT_DIMENSION_CAP,
) -> FockBasis:
    """Enumerate the occupation basis, optionally restricted to a sector.

    Raises ``SizingError`` when the underlying full enumeration exceeds
    ``cap`` and ``ValueError`` for inconsistent parameters.
    """
    if nu < 1 or m < 1:
        raise ValueError(f"need nu >= 1 and m >= 1, got nu={nu}, m={m}")
    if sector is not None:
        check_sector(order.n, m, sector)
    return _enumerate_cached(nu, m, order, sector, cap)


def state_to_index(basis: FockBasis, state: Sequence[int]) -> int:
    """Ordinal of ``state`` in ``basis``; inverse of :func:`index_to_state`."""
    key = tuple(int(v) for v in state)
    if len(key) != basis.modes:
        raise ValueError(
            f"state has {len(key)} entries, basis has {basis.modes} modes"
        )
    try:
        return basis.index[key]
    except KeyError:
        n = basis.order.n
        if any(v < 0 or v > n for v in key):
            raise ValueError(f"occupations {key} outside [0, {n}]") from None
        raise ValueError(
            f"state {key} violates the sector constraint "
            f"(per-position total {basis.sector})"
        ) from None


def index_to_state(basis: FockBasis, ordinal: int) -> tuple[int, ...]:
    """The ``ordinal``-th state in the declared lexicographic order."""
    if not 0 <= ordinal < basis.dim:
        raise IndexError(f"ordinal {ordinal} not in [0, {basis.dim})")
    return basis.states[ordinal]
