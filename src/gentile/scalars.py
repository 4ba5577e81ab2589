"""Closed-form scalars of the Gentile ladder algebra.

A Gentile mode holds at most ``n`` particles.  All statistics enter through
the unit phase ``q = exp(i*2*pi/(n+1))`` and the angle ``x = pi/(n+1)``:

* ``bracket_nu``  -- the q-number ``<nu> = (1 - q**nu) / (1 - q)``, evaluated
  in the cancellation-free product form ``sin(nu*x)/sin(x) * exp(i*(nu-1)*x)``;
* ``occ_g``       -- ``csc(x)*sin(N*x)``, the diagonal of (raise after lower),
  equal to ``|<N>|`` on the ladder range;
* ``occ_f``       -- ``csc(x)*(cos(x)-1)*sin(N*x) + cos(N*x)``, which telescopes
  to ``occ_g(N+1) - occ_g(N)``;
* ``coupling_j``  -- the exchange-coupling weight of an occupation ``N``, with
  ``coupling_j -> -N`` in both the n=1 and the large-n limits.

The three occupation functions take one occupation or an array of them and
apply the formula elementwise; an occupation outside ``[0, n]`` raises
``ValueError``.

Everything here is a pure function of its value arguments, so concurrent use
is unrestricted.  The Bose limit is represented by a large finite order
(``BOSE_PROXY_N``); every formula is continuous in ``1/(n+1)``, so no second
code path is needed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

#: Finite stand-in for the n -> infinity (Bose) limit.
BOSE_PROXY_N = 10**6


@dataclass(frozen=True)
class GentileOrder:
    """Maximum occupation number ``n`` with its derived phase data.

    ``n = 1`` is the Fermi-like case, ``n >= BOSE_PROXY_N`` serves as the
    Bose proxy.  Instances are immutable and hashable, so they can key caches.
    """

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise TypeError(f"maximum occupation must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"maximum occupation must be >= 1, got {self.n}")

    @property
    def x(self) -> float:
        """The angle pi/(n+1) in radians."""
        return math.pi / (self.n + 1)

    @property
    def q(self) -> complex:
        """The unit phase exp(i*2*pi/(n+1))."""
        return cmath.exp(2j * math.pi / (self.n + 1))

    @property
    def dim(self) -> int:
        """Single-mode Hilbert space dimension n+1."""
        return self.n + 1


def bracket_nu(nu: int, order: GentileOrder) -> complex:
    """q-number ``<nu> = (1 - q**nu)/(1 - q)`` for ``q = exp(i*2*pi/(n+1))``.

    Total on ``nu >= 0``.  The inputs ``nu = 0`` and ``nu = n+1`` return an
    exact complex zero so downstream ladder boundaries are noise-free.
    """
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    if nu == 0 or nu == order.n + 1:
        return 0j
    x = order.x
    magnitude = math.sin(nu * x) / math.sin(x)
    return magnitude * cmath.exp(1j * (nu - 1) * x)


def sqrt_bracket(nu: int, order: GentileOrder) -> complex:
    """Principal square root of ``bracket_nu`` (ladder amplitude)."""
    return cmath.sqrt(bracket_nu(nu, order))


def _occupations(occupation: ArrayLike, order: GentileOrder) -> np.ndarray:
    occ = np.asarray(occupation)
    if occ.size and (occ.min() < 0 or occ.max() > order.n):
        raise ValueError(
            f"occupations must lie in [0, {order.n}], got range "
            f"[{occ.min()}, {occ.max()}]"
        )
    return occ.astype(np.float64)


def occ_g(occupation: ArrayLike, order: GentileOrder) -> np.ndarray:
    """``csc(x) * sin(N*x)`` with ``x = pi/(n+1)``; equals ``|<N>|`` for N <= n."""
    occ = _occupations(occupation, order)
    x = order.x
    return np.sin(occ * x) / math.sin(x)


def occ_f(occupation: ArrayLike, order: GentileOrder) -> np.ndarray:
    """``csc(x)*(cos(x) - 1)*sin(N*x) + cos(N*x)``.

    Identical to ``occ_g(N+1) - occ_g(N)`` with ``occ_g(n+1)`` read off the
    trig formula (where it vanishes).
    """
    occ = _occupations(occupation, order)
    x = order.x
    return (math.cos(x) - 1.0) * np.sin(occ * x) / math.sin(x) + np.cos(occ * x)


def coupling_j(occupation: ArrayLike, order: GentileOrder) -> np.ndarray:
    """Exchange-coupling weight of occupation ``N``.

    ``-2*csc(x)**2 * sin(x/2) * sin(N*x) * sin((2N+n)*x/2)`` with
    ``x = pi/(n+1)``.  Vanishes at ``N = 0`` and tends to ``-N`` both at
    ``n = 1`` and as ``n`` grows.
    """
    occ = _occupations(occupation, order)
    n = order.n
    x = order.x
    csc2 = 1.0 / math.sin(x) ** 2
    return (
        -2.0
        * csc2
        * math.sin(x / 2.0)
        * np.sin(occ * x)
        * np.sin((2.0 * occ + n) * x / 2.0)
    )
