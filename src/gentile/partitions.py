"""Integer partitions and unitary-irrep eigenvalue arithmetic.

Partitions are plain weakly decreasing tuples, zero-padded to the requested
number of parts, enumerated in reverse-lexicographic (descending) order.
All eigenvalue formulas are exact integer arithmetic.
"""

from __future__ import annotations

from typing import Sequence

Partition = tuple[int, ...]

#: Eigenvalue formula variants for the Casimir operators.
VARIANTS = ("raw", "shifted")


def weight(partition: Sequence[int]) -> int:
    return sum(partition)


def _validate(partition: Sequence[int], m: int) -> Partition:
    parts = tuple(int(p) for p in partition)
    if any(p < 0 for p in parts):
        raise ValueError(f"partition parts must be nonnegative: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition must be weakly decreasing: {parts}")
    if len(parts) > m:
        raise ValueError(f"partition {parts} has more than m={m} parts")
    return parts + (0,) * (m - len(parts))


def _check_counts(total: int, max_parts: int) -> None:
    if total < 0 or max_parts < 1:
        raise ValueError(f"need total >= 0 and max_parts >= 1, got {total} and {max_parts}")


def partition_count(total: int, max_parts: int) -> int:
    """``len(partitions_of(total, max_parts))``, counted without enumerating.

    Up to three parts the count has a closed form, so it takes no loop at
    any ``total``; with more it takes ``total * max_parts`` steps, counting
    the conjugate partitions (parts of size at most ``max_parts``).
    """
    _check_counts(total, max_parts)
    parts = min(max_parts, total)
    # p(total, <=3) is round((total+3)**2 / 12).
    closed = (1, 1, total // 2 + 1, ((total + 3) ** 2 + 6) // 12)
    if parts < len(closed):
        return closed[parts]
    ways = [1] + [0] * total
    for size in range(1, parts + 1):
        for s in range(size, total + 1):
            ways[s] += ways[s - size]
    return ways[total]


def partitions_of(total: int, max_parts: int) -> list[Partition]:
    """All partitions of ``total`` into at most ``max_parts`` parts.

    Reverse-lexicographic order, each padded with zeros to ``max_parts``.
    Every branch tried ends in a partition, so the time is proportional to
    the output.
    """
    _check_counts(total, max_parts)
    out: list[Partition] = []

    def descend(remaining: int, largest: int, prefix: Partition) -> None:
        if remaining == 0:
            out.append(prefix + (0,) * (max_parts - len(prefix)))
            return
        # No later part exceeds this one, so it takes at least its share of
        # the slots left; a last slot takes all that remains.
        least = -(-remaining // (max_parts - len(prefix)))
        for part in range(min(remaining, largest), least - 1, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(total, total, ())
    return out


def casimir_sp(p: int, partition: Sequence[int], m: int) -> int:
    """Order-``p`` eigenvalue sum ``sum_i (a_i + m - i)**p - (m - i)**p``."""
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")
    parts = _validate(partition, m)
    return sum((parts[i] + m - (i + 1)) ** p - (m - (i + 1)) ** p for i in range(m))


def casimir_value(p: int, partition: Sequence[int], m: int, variant: str = "shifted") -> int:
    """Casimir eigenvalue of order ``p`` in one of the two formula variants.

    ``raw`` is the bare power sum; ``shifted`` subtracts ``(m-1)`` times the
    first-order value from the second-order one (the standard quadratic
    Casimir on gl(m) irreps).  Both agree at ``p = 1``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if p == 1:
        return casimir_sp(1, partition, m)
    if p == 2:
        s2 = casimir_sp(2, partition, m)
        if variant == "raw":
            return s2
        return s2 - (m - 1) * casimir_sp(1, partition, m)
    raise ValueError(f"only orders 1 and 2 are supported, got p={p}")


def weyl_dimension(partition: Sequence[int], m: int) -> int:
    """Dimension of the U(m) irrep labelled by ``partition`` (exact integer).

    A pair of equal parts contributes ``(j - i) / (j - i)``, so it is
    skipped; the zero padding then costs loop steps but no big-integer growth.
    """
    parts = _validate(partition, m)
    num = 1
    den = 1
    for i in range(m):
        for j in range(i + 1, m):
            if parts[i] != parts[j]:
                num *= parts[i] - parts[j] + j - i
                den *= j - i
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"non-integer Weyl dimension for {parts}, m={m}")
    return q
