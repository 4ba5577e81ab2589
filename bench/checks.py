"""Output checks for benchmark operations; each returns a list of problems.

The spectrum check uses an oracle that shares no code with ``gentile``: on
the spin sector the exchange Hamiltonian is the transposition class sum on
``(C^m)^{(x) nu}``, which by Schur-Weyl duality acts on each partition
``lam`` of ``nu`` with at most ``m`` rows as its content sum ``sum(c - r)``
(Jucys-Murphy elements; Okounkov-Vershik, arXiv:math/0503040), with
multiplicity ``f^lam * dim_U(m)(lam)``.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod

#: Residual agreement with the dense reference.
ABS_TOL, REL_TOL = 1e-12, 1e-9
#: Slack on the sampled residual's lower-bound property.
SAMPLED_SLACK = 1e-12
#: Eigenvalue agreement with the content-sum oracle.
EIG_TOL = 1e-9


def _partitions(total: int, max_parts: int, largest: int | None = None):
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for part in range(min(total, largest or total), 0, -1):
        for rest in _partitions(total - part, max_parts - 1, part):
            yield (part,) + rest


def _hook_dimension(lam: tuple[int, ...]) -> int:
    """``f^lam``, the number of standard Young tableaux (hook-length formula)."""
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0])]
    hooks = prod(lam[i] - j + cols[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(sum(lam)) // hooks


def _weyl_dimension(lam: tuple[int, ...], m: int) -> int:
    """Dimension of the U(m) irrep with highest weight ``lam``."""
    parts = lam + (0,) * (m - len(lam))
    num = prod(parts[i] - parts[j] + j - i for i in range(m) for j in range(i + 1, m))
    den = prod(j - i for i in range(m) for j in range(i + 1, m))
    return num // den


def content_sum_spectrum(nu: int, m: int) -> list[tuple[int, int]]:
    """Ascending ``(eigenvalue, multiplicity)`` of the transposition class sum."""
    levels: Counter = Counter()
    for lam in _partitions(nu, m):
        content = sum(c - r for r, row in enumerate(lam) for c in range(row))
        levels[content] += _hook_dimension(lam) * _weyl_dimension(lam, m)
    return sorted(levels.items())


def _verdict_key(v: dict) -> tuple:
    return (v["identity"], v["n"], v["nu"], v["m"], v["subspace"], v["interpretation"])


def check_verify(report: dict, reference: list[list], mode: str) -> list[str]:
    """Verdicts against rows ``[*key, status, residual]`` of the dense reference.

    Both modes: the key set and every status equal the reference, and every
    guaranteed verdict (status other than ``report_only``) passes.  Dense:
    each residual equals the reference within ``ABS_TOL`` or ``REL_TOL``.
    Sampled: each residual is at most the dense one plus ``SAMPLED_SLACK``,
    the estimator's documented lower-bound property.
    """
    expected = {tuple(row[:6]): row[6:] for row in reference}
    verdicts = report.get("verdicts", [])
    seen = Counter(_verdict_key(v) for v in verdicts)
    problems = [f"duplicate verdict {k}" for k, c in seen.items() if c > 1]
    problems += [f"missing verdict {k}" for k in expected.keys() - seen.keys()]
    problems += [f"unexpected verdict {k}" for k in seen.keys() - expected.keys()]
    for v in verdicts:
        key = _verdict_key(v)
        if key not in expected:
            continue
        status, ref = expected[key]
        got = v["residual"]
        if v["mode"] != mode:
            problems.append(f"{key}: mode {v['mode']!r}, expected {mode!r}")
        if v["status"] != status:
            problems.append(f"{key}: status {v['status']!r}, reference {status!r}")
        if v["status"] not in ("pass", "report_only"):
            problems.append(f"{key}: guaranteed verdict is {v['status']!r}")
        if (got is None) != (ref is None):
            problems.append(f"{key}: residual {got!r}, reference {ref!r}")
        elif got is None:
            continue
        elif mode == "dense":
            if abs(got - ref) > max(ABS_TOL, REL_TOL * abs(ref)):
                problems.append(f"{key}: residual {got!r}, reference {ref!r}")
        elif got > ref + SAMPLED_SLACK:
            problems.append(f"{key}: sampled residual {got!r} exceeds dense {ref!r}")
    return problems


def check_spectrum(report: dict, n: int, m: int, nu: int, matched: list[list]) -> list[str]:
    """ED clusters against the content-sum oracle; match flags against ``matched``."""
    spectra = report.get("spectra", [])
    if len(spectra) != 1:
        return [f"expected one spectrum, got {len(spectra)}"]
    spec = spectra[0]
    if (spec["n"], spec["m"], spec["nu"]) != (n, m, nu):
        return [f"spectrum is for n={spec['n']} m={spec['m']} nu={spec['nu']}"]
    problems = []
    ed = [(c["eigenvalue"], c["multiplicity"]) for c in spec["ed"]]
    oracle = content_sum_spectrum(nu, m)
    if [mult for _, mult in ed] != [mult for _, mult in oracle]:
        problems.append(f"ED clusters {ed} differ from content sums {oracle}")
    else:
        for (value, _), (want, _) in zip(ed, oracle):
            if abs(value - want) > EIG_TOL:
                problems.append(f"ED level {value!r} differs from content sum {want}")
    flags = [[x["variant"], x["form"], x["matched"]] for x in spec["matches"]]
    if flags != matched:
        problems.append(f"match flags {flags}, reference {matched}")
    return problems
