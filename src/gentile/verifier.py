"""Registry of operator identities, evaluated as numeric residuals.

Every identity the algebra is expected (or merely claimed) to satisfy is one
``IdentityId`` member and one row of ``_IDENTITIES``: its residual recipe,
its tolerance and its evaluation space.  Adding an identity adds those two
and nothing else.  Identities split into two sets:

* guaranteed -- structural consequences of the ladder construction; these
  carry a tolerance and hard pass/fail status;
* contested  -- relations whose operator-level truth is an open measurement
  (tolerance ``None``); these always emit ``report_only`` with the measured
  residual, and never affect a suite's exit status.

A task that raises ``ValueError`` (sizing included) gets ``status="error"``.

A row's space names the one basis its tasks evaluate on, never larger than
the task's own: the one-mode or two-mode full space (``one_mode``,
``two_mode``: the relations of one or two modes, whatever the grid point),
the task's own subspace (``task``), or its sector (``spectral``).  On a
sector, the word kernel's closure check keeps every operand in the sector.
``run_task`` is the one place that turns a task into a basis: one
``enumerate_basis`` call sizes it under the task's caps first, so a sector
task never builds its full space and the dimension cap reaches every
space, the single-mode ones included.  Every recipe evaluates on the basis
it is given and reads ``n``, ``nu``, ``m`` and the order from it.
A recipe reads only the operands that fix its residual bit for bit: the
ladder bracket takes all three of its brackets on the two-mode space, and
``generator_commutation`` skips the index tuples that are exactly zero or
the exact negation of one it reads.  The exchange pairs of
``duality_commutation`` differ in the last bit, so it reads them all.

The residual of a task is the largest entry magnitude of its sparse
difference matrices (``operators.max_abs``), read exactly.  Each commutator
and multi-term difference is one ``operators.signed_sum``, bit for bit the
chain of sparse operations it replaces, and the residuals are streamed: a
recipe hands its differences back lazily, so ``run_task`` holds one at a
time, and a ``ValueError`` raised while it reads them is a task error like
any other.  The spectral comparison holds no matrix and is cached by its
sector basis, so a full-space task and the ``sector:1`` task of one point
share one dense solve.  The Casimir side ``C2/2 - (m/2) C1`` is cached by
the last basis, so both readings of the class-sum relation and the limit
relation share one evaluation of it.
Diagonal operands (position totals, the occupation-function correction)
are numpy vectors, never sparse products.  The spectral space is the one
dense solve, in the (weight, momentum) blocks of
``operators.eigensolve_hermitian``, so it alone is held to the dense cap,
compared with its largest weight block.

A ``Verdict`` is its task plus the outcome: residual, status and detail;
its tolerance follows from the identity.  Tasks are independent.
``run_grid`` groups them by evaluation basis and deals the groups, largest
first, to one share per usable CPU (one where forking is unsafe).  It
evaluates the first share itself and each other share in a worker made
with ``os.fork``, each share basis by basis, so every basis is built in one
process and its caches are shared as in a serial run.  A worker sends its
verdicts, or its exception, back pickled through a pipe, and ends with
``os._exit``.  An exception is raised again in the caller with its type, a
worker that ends without a result raises ``ChildProcessError`` naming its
pid and status, and every worker is reaped before ``run_grid`` returns or
raises.  Verdicts are sorted, so their order and the report bytes do not
depend on the number of workers.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .basis import (
    DEFAULT_DIMENSION_CAP,
    DENSE_EIG_CAP,
    FockBasis,
    check_dimension,
    check_sector,
    enumerate_basis,
    subspace_label,
)
from .operators import (
    CSR,
    DROP_TOL,
    HERMITICITY_TOL,
    _ladder,
    casimir_c1,
    casimir_c2,
    class_sum,
    commutator,
    coupling_sum,
    diagonal_operator,
    eigensolve_hermitian,
    entrywise_real,
    exchange_op,
    hermitian_part,
    max_abs,
    signed_sum,
    total_number,
    unitary_generator,
)
from .partitions import VARIANTS, casimir_value, partitions_of
from .scalars import GentileOrder, occ_f, occ_g


class IdentityId(str, Enum):
    """Closed enumeration of the verified identities."""

    LADDER_NBRACKET = "ladder_nbracket_identity"
    ANNIHILATOR_PAIR_PHASE = "annihilator_pair_phase"
    CREATOR_PAIR_PHASE = "creator_pair_phase"
    OCCUPATION_FUNCTIONS = "occupation_function_consistency"
    GENERATOR_COMMUTATION = "generator_commutation"
    SELF_BRACKET_PLAIN = "self_bracket_plain"
    SELF_BRACKET_DEFORMED = "self_bracket_deformed"
    QUARTIC_WORD_BRACKET = "quartic_word_bracket"
    DUALITY_COMMUTATION = "duality_commutation"
    CLASS_SUM_CASIMIR = "class_sum_casimir_relation"
    LIMIT_RELATION = "limit_relation"
    CASIMIR_HERMITICITY = "casimir_hermiticity"
    SECTOR_CONSERVATION = "sector_conservation"
    CASIMIR_SPECTRUM = "casimir_spectrum_match"


INTERPRETATIONS = ("entrywise_real", "hermitian_part")

#: Most tasks one grid may expand to.
MAX_TASKS = 10**4


@dataclass(frozen=True)
class VerificationTask:
    """One identity evaluation point.

    ``subspace`` is ``None`` for the full space or the uniform per-position
    total of a sector.  ``interpretation`` only matters for the class-sum /
    Casimir relation, whose statement needs a reading of "real part of an
    operator"; everything else carries ``not_applicable``.
    """

    identity: IdentityId
    n: int
    nu: int
    m: int
    subspace: Optional[int] = None
    interpretation: str = "not_applicable"

    def __post_init__(self) -> None:
        if self.interpretation not in INTERPRETATIONS + ("not_applicable",):
            raise ValueError(f"unknown interpretation {self.interpretation!r}")

    @property
    def subspace_label(self) -> str:
        return subspace_label(self.subspace)


@dataclass(frozen=True)
class Verdict:
    """One task and its outcome: residual, status and detail."""

    task: VerificationTask
    residual: Optional[float]
    status: str
    detail: str = ""

    @property
    def tolerance(self) -> float:
        return tolerance_for(self.task.identity)

    def sort_key(self):
        t = self.task
        return (t.identity.value, t.n, t.nu, t.m, t.subspace_label, t.interpretation)

    def record(self) -> dict:
        t = self.task
        return {
            "identity": t.identity.value,
            "n": t.n,
            "nu": t.nu,
            "m": t.m,
            "subspace": t.subspace_label,
            "interpretation": t.interpretation,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "status": self.status,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Operand assembly
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _single_mode_diffs(basis: FockBasis) -> dict[str, tuple]:
    """Difference matrices of every single-mode relation on the one-mode
    space ``basis``, keyed by relation.

    ``top_state_annihilation`` holds the raiser's stored entries in the
    column of the top state, which must vanish identically.  The result is
    cached and shared: read only.
    """
    a, b, a_dag, b_dag = (_ladder(basis, name, 0) for name in ("a", "b", "a_dag", "b_dag"))
    order = basis.order
    q = order.q
    phase = np.exp(1j * order.x)
    levels = np.arange(order.n + 1)
    diag_g = diagonal_operator(occ_g(levels, order))
    diag_f = diagonal_operator(occ_f(levels, order))

    def self_brackets(qq):
        return (
            b @ b_dag - qq * (b_dag @ b) - diag_f,
            a @ a_dag - qq * (a_dag @ a) - diag_f,
        )

    up_ab = a_dag @ b_dag @ a_dag @ b_dag
    up_ba = b_dag @ a_dag @ b_dag @ a_dag
    dn_ab = a @ b @ a @ b
    dn_ba = b @ a @ b @ a
    return {
        "annihilator_pair_phase": (a @ b - phase * (b @ a),),
        "creator_pair_phase": (a_dag @ b_dag - phase * (b_dag @ a_dag),),
        "creator_pair_phase_double_angle": (a_dag @ b_dag - phase * phase * (b_dag @ a_dag),),
        "raiser_lowerer_diag": (signed_sum([(1, a_dag, a), (-1, diag_g)]),),
        "ladder_gap_diag": (signed_sum([(1, a, a_dag), (-1, a_dag, a), (-1, diag_f)]),),
        "top_state_annihilation": (a_dag.data[a_dag.indices == order.n],),
        "self_bracket_plain": self_brackets(1.0),
        "self_bracket_deformed": self_brackets(q),
        "quartic_word_bracket": (
            up_ab @ up_ba - q * (up_ba @ up_ab),
            dn_ab @ dn_ba - q * (dn_ba @ dn_ab),
        ),
    }


# ---------------------------------------------------------------------------
# Recipes.  Each takes the task and its basis (built by ``run_task``) and
# returns (difference matrices, extra residual, detail).
# ---------------------------------------------------------------------------


def _single_mode(key: str, detail: str) -> Callable:
    """Recipe reading one single-mode relation, with a fixed detail."""

    def recipe(task, basis):
        return _single_mode_diffs(basis)[key], 0.0, detail

    return recipe


@lru_cache(maxsize=64)
def _ladder_nbracket(pair: FockBasis) -> float:
    """Residual of the same-mode bracket and of both distinct-mode
    commutators, all on the two-mode space ``pair``.

    The deformed bracket of one mode's letters minus the identity is the
    single-mode relation; the other mode only repeats its entries.  Letters
    on distinct modes commute exactly under the tensor embedding, so the
    deformed bracket reduces to the plain commutator, taken for both orders
    of the pair; no statement has a sector.
    """
    lower = [_ladder(pair, "b", flat) for flat in (0, 1)]
    raiser = [_ladder(pair, "a_dag", flat) for flat in (0, 1)]
    eye = diagonal_operator(np.ones(pair.dim))
    diffs = [lower[0] @ raiser[0] - pair.order.q * (raiser[0] @ lower[0]) - eye]
    diffs += [commutator(lower[f1], raiser[f2]) for f1, f2 in ((0, 1), (1, 0))]
    return max(map(max_abs, diffs))


def _recipe_ladder_nbracket(task, basis):
    detail = (
        "same-mode deformed bracket minus identity; distinct modes checked "
        "with the plain commutator (tensor embedding, no inter-mode phases); "
        "evaluated on the two-mode space"
    )
    return [], _ladder_nbracket(basis), detail


def _recipe_creator_phase(task, basis):
    diffs = _single_mode_diffs(basis)
    double = max_abs(diffs["creator_pair_phase_double_angle"][0])
    detail = (
        "single-mode relation; asserted phase exp(i*pi/(n+1)), the adjoint of "
        "the annihilator pair relation; the double-angle phase "
        f"exp(i*2*pi/(n+1)) leaves residual {double!r}"
    )
    return diffs["creator_pair_phase"], 0.0, detail


def _recipe_occupation_functions(task, basis):
    diffs = _single_mode_diffs(basis)
    top_col = max_abs(diffs["top_state_annihilation"][0])
    detail = (
        "raiser-lowerer diagonal vs occ_g; ladder gap vs occ_f; extra term is "
        "the raiser column at the top state (must vanish identically)"
    )
    return diffs["raiser_lowerer_diag"] + diffs["ladder_gap_diag"], top_col, detail


def _occupation_correction(basis: FockBasis, k: int, l: int) -> CSR:
    """Diagonal ``sum_i f(i,l) g(i,k) - f(i,k) g(i,l)`` of ``occ_f``/``occ_g``
    at each position's modes, summed over positions in order.
    """

    def occ(fn, i, state):
        # The prune of a diagonal operator: occ_f(n/2) at even n is ~1e-16.
        vals = fn(basis.occupations[:, basis.flat_modes(i, state)], basis.order)
        return np.where(np.abs(vals) < DROP_TOL, 0.0, vals)

    total = np.zeros(basis.dim)
    for i in range(1, basis.nu + 1):
        total = total + occ(occ_f, i, l) * occ(occ_g, i, k) - occ(occ_f, i, k) * occ(occ_g, i, l)
    return diagonal_operator(total)


def _recipe_generator_commutation(task, basis):
    m = basis.m
    states = range(1, m + 1)
    ident = {(k, l): unitary_generator(k, l, basis) for k, l in product(states, repeat=2)}

    # The residual is the maximum over all m**4 tuples, read off fewer of
    # them: a tuple (k,l,k,l) is exactly zero (P - P, then -E + E and a zero
    # correction), and the mirror (p,q,k,l) of a tuple with at most one delta
    # term is its exact IEEE negation.  Only a swap pair (k,l,l,k), k != l,
    # gets both delta terms, so it keeps both orders.
    tuples = [(*a, *b) for a, b in combinations(ident, 2)]
    tuples += [(l, k, k, l) for k, l in ident if k < l]

    def diffs():
        for k, l, p, q in tuples:
            terms = [(1, ident[k, l], ident[p, q]), (-1, ident[p, q], ident[k, l])]
            if l == p:
                terms.append((-1, ident[k, q]))
            if q == k:
                terms.append((1, ident[p, l]))
            if l == p and q == k:
                terms.append((-1, 2.0 * _occupation_correction(basis, k, l)))
            yield signed_sum(terms)

    detail = (
        "generator commutators vs delta terms plus the occupation-function "
        f"correction, all {m}**4 index tuples; the correction need not cancel "
        "(occ_f(0) = +1 and occ_f tends to +1 at large order, so the "
        "antisymmetrized f*g sum survives)"
    )
    return diffs(), 0.0, detail


def _recipe_duality(task, basis):
    taus = [exchange_op(i, j, basis) for i, j in combinations(range(1, basis.nu + 1), 2)]
    gens = [unitary_generator(s, t, basis) for s, t in product(range(1, basis.m + 1), repeat=2)]
    diffs = (commutator(tau, gen) for tau in taus for gen in gens)
    return diffs, 0.0, f"commutators of {len(taus)} exchanges with {len(gens)} generators"


@lru_cache(maxsize=1)
def _casimir_side(basis):
    """``C2/2 - (m/2) C1`` on ``basis``, the right side of both relations,
    cached for the last basis: ``run_grid`` runs a basis's tasks together,
    so both readings of the class-sum relation and the limit relation share
    one evaluation.  Read only."""
    return signed_sum([(1, 0.5 * casimir_c2(basis)), (-1, 0.5 * basis.m * casimir_c1(basis))])


def _theorem_sides(basis, interpretation):
    """LHS-RHS matrix of the class-sum / Casimir relation on ``basis``."""
    p_mat = class_sum(basis)
    j_mat = coupling_sum(basis)
    qp = basis.order.q * p_mat
    interp = hermitian_part(qp) if interpretation == "hermitian_part" else entrywise_real(qp)
    return signed_sum([(1, interp), (1, basis.m * j_mat), (-1, _casimir_side(basis))])


def _recipe_class_sum_casimir(task, basis):
    interpretation = task.interpretation
    if interpretation == "not_applicable":
        interpretation = "entrywise_real"
    diff = _theorem_sides(basis, interpretation)
    return [diff], 0.0, f"real-part reading: {interpretation}"


def _limit_sides(basis):
    sign = -1.0 if basis.order.n == 1 else 1.0
    p_mat = class_sum(basis)
    n_mat = total_number(basis)
    side = signed_sum([(1, sign * p_mat), (-1, basis.m * n_mat), (-1, _casimir_side(basis))])
    return side, sign


def _recipe_limit_relation(task, basis):
    diff, sign = _limit_sides(basis)
    label = "max-occupation-1 limit" if basis.order.n == 1 else "large-n reading"
    return [diff], 0.0, f"sign {sign:+.0f} ({label})"


def _recipe_casimir_hermiticity(task, basis):
    diffs = (signed_sum([(1, c), (-1, c.getH())]) for c in (casimir_c1(basis), casimir_c2(basis)))
    return diffs, 0.0, "adjoint comparison of both Casimir operators"


def _total_jumps(op: CSR, totals: Sequence[np.ndarray]) -> float:
    """Largest entry of the commutators of ``op`` with the position totals.

    A total ``d`` is diagonal, so ``[A, diag(d)]`` has the entries
    ``A_ij (d_j - d_i)`` on the stored entries of ``A``.
    """
    rows = op.rows()
    return max(float(np.abs(op.data * (d[op.indices] - d[rows])).max(initial=0.0))
               for d in totals)


def _recipe_sector_conservation(task, basis):
    """Largest position-total jump of the conserving operators on ``basis``.

    On the full space, a stored entry between states in different sectors
    changes some integer position total by at least 1, so its jump is at
    least its magnitude: the jumps bound the leakage onto every sector.  On
    a sector every state has the same position totals, so the jumps are 0 by
    construction; the word kernel's closure check is the evidence there.
    """
    nu, m = basis.nu, basis.m
    ops = [exchange_op(i, j, basis) for i, j in combinations(range(1, nu + 1), 2)]
    ops += [unitary_generator(s, t, basis) for s, t in product(range(1, m + 1), repeat=2)]
    ops += [class_sum(basis), casimir_c1(basis), casimir_c2(basis)]
    totals = [basis.occupations[:, i * m:(i + 1) * m].sum(axis=1) for i in range(nu)]
    residual = max(_total_jumps(op, totals) for op in ops)
    detail = "the jumps bound the leakage onto every sector" if basis.sector is None else (
        f"built on sector:{basis.sector}, where every state has the same position totals, so "
        "the jumps are 0 by construction; the word kernel's closure check, which refuses any "
        "word that leaves the sector, is the evidence")
    return [], residual, f"{len(ops)} operators x {nu} position totals; {detail}"


def _recipe_spectrum(task, sector):
    return _spectrum_match(sector)


@lru_cache(maxsize=64)
def _spectrum_match(sector: FockBasis) -> tuple[tuple, Optional[float], str]:
    """The spectral comparison on ``sector``, cached by it: a full-space task
    and the ``sector:1`` task of one point solve the same C2 on the same
    basis.  The result holds no matrix."""
    # C1 is diagonal: its spectrum is its diagonal, which must be real.
    c1 = casimir_c1(sector)
    c1_diag = c1.diagonal()
    if (c1 - diagonal_operator(c1_diag)).nnz or np.abs(c1_diag.imag).max() > HERMITICITY_TOL:
        raise ValueError("C1 is not a real diagonal matrix")
    measured_c1 = sorted({round(v, 9) for v in c1_diag.real.tolist()})
    measured_c2 = sorted({round(v, 9) for v, _ in
                          eigensolve_hermitian(casimir_c2(sector), sector)})

    nu, m = sector.nu, sector.m
    parts = partitions_of(nu, m)
    report = []
    best: tuple[float, str] | None = None
    for variant in VARIANTS:
        pred_c2 = sorted({float(casimir_value(2, p, m, variant)) for p in parts})
        if len(pred_c2) == len(measured_c2):
            dev = max(abs(a - b) for a, b in zip(measured_c2, pred_c2))
            note = f"{variant}: predicted {pred_c2}, deviation {dev!r}"
            ratios = [
                m_val / p_val
                for m_val, p_val in zip(measured_c2, pred_c2)
                if p_val != 0.0
            ]
            if ratios and max(ratios) - min(ratios) < 1e-9:
                note += f", uniform scale {ratios[0]!r}"
            report.append(note)
            if best is None or dev < best[0]:
                best = (dev, variant)
        else:
            report.append(
                f"{variant}: predicted {pred_c2} has {len(pred_c2)} distinct "
                f"values vs measured {len(measured_c2)}"
            )
    pred_c1 = float(nu)
    dev_c1 = max(abs(v - pred_c1) for v in measured_c1)
    residual = best[0] if best is not None else None
    detail = (
        f"C2 measured {measured_c2}; "
        + "; ".join(report)
        + (f"; best variant {best[1]}" if best else "")
        + f"; C1 measured {measured_c1} vs partition weight {pred_c1!r} "
        f"(deviation {dev_c1!r})"
    )
    return (), residual, detail


# ---------------------------------------------------------------------------
# The identity table
# ---------------------------------------------------------------------------


class _Identity(NamedTuple):
    """A recipe, a tolerance (``None``: contested) and an evaluation space:
    ``one_mode`` or ``two_mode`` (that full space, whatever the grid point),
    ``task`` (the task's own subspace) or ``spectral`` (the task's sector,
    ``sector:1`` for a full-space task, whose largest weight block is held to
    the dense cap).
    """

    recipe: Callable
    tolerance: Optional[float]
    space: str


#: The single-mode spaces, each with its number of modes.
_MODE_SPACES = {"one_mode": 1, "two_mode": 2}

_SELF_BRACKET = "single-mode {} of each ladder with its own adjoint vs occ_f"

_IDENTITIES: dict[IdentityId, _Identity] = {
    IdentityId.LADDER_NBRACKET: _Identity(_recipe_ladder_nbracket, 1e-10, "two_mode"),
    IdentityId.ANNIHILATOR_PAIR_PHASE: _Identity(_single_mode(
        "annihilator_pair_phase", "single-mode relation; phase exp(i*pi/(n+1))"), 1e-10,
        "one_mode"),
    IdentityId.CREATOR_PAIR_PHASE: _Identity(_recipe_creator_phase, 1e-10, "one_mode"),
    IdentityId.OCCUPATION_FUNCTIONS: _Identity(_recipe_occupation_functions, 1e-12, "one_mode"),
    IdentityId.GENERATOR_COMMUTATION: _Identity(_recipe_generator_commutation, None, "task"),
    IdentityId.SELF_BRACKET_PLAIN: _Identity(_single_mode(
        "self_bracket_plain", _SELF_BRACKET.format("plain commutator")), 1e-12, "one_mode"),
    IdentityId.SELF_BRACKET_DEFORMED: _Identity(_single_mode(
        "self_bracket_deformed", _SELF_BRACKET.format("deformed bracket")), None, "one_mode"),
    IdentityId.QUARTIC_WORD_BRACKET: _Identity(_single_mode(
        "quartic_word_bracket", "single-mode deformed brackets of the alternating quartic words"),
        None, "one_mode"),
    IdentityId.DUALITY_COMMUTATION: _Identity(_recipe_duality, None, "task"),
    IdentityId.CLASS_SUM_CASIMIR: _Identity(_recipe_class_sum_casimir, None, "task"),
    IdentityId.LIMIT_RELATION: _Identity(_recipe_limit_relation, None, "task"),
    IdentityId.CASIMIR_HERMITICITY: _Identity(_recipe_casimir_hermiticity, 1e-10, "task"),
    IdentityId.SECTOR_CONSERVATION: _Identity(_recipe_sector_conservation, 1e-10, "task"),
    IdentityId.CASIMIR_SPECTRUM: _Identity(_recipe_spectrum, None, "spectral"),
}

#: Identities asserted to hold, with their pass tolerances.
GUARANTEED: dict[IdentityId, float] = {
    i: row.tolerance for i, row in _IDENTITIES.items() if row.tolerance is not None
}

#: Identities measured but never asserted (report_only).
CONTESTED: frozenset[IdentityId] = frozenset(
    i for i, row in _IDENTITIES.items() if row.tolerance is None
)

#: Nominal tolerance echoed on contested verdicts.
REPORT_TOLERANCE = 1e-10


def tolerance_for(identity: IdentityId) -> float:
    return GUARANTEED.get(identity, REPORT_TOLERANCE)


def _space(task: VerificationTask, dense_cap: Optional[int]) -> tuple:
    """``(nu, m, sector, dense cap)`` of the basis ``task`` evaluates on: the
    one- or two-mode full space, the task's own subspace, or its sector
    (``sector:1`` for a full-space spectral task), held to ``dense_cap``."""
    space = _IDENTITIES[task.identity].space
    if space in _MODE_SPACES:
        return 1, _MODE_SPACES[space], None, None
    if space == "spectral":
        return task.nu, task.m, 1 if task.subspace is None else task.subspace, dense_cap
    return task.nu, task.m, task.subspace, None


def run_task(
    task: VerificationTask,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
    dense_cap: int = DENSE_EIG_CAP,
) -> Verdict:
    """Evaluate one task and classify the residual.

    It builds the basis of the identity's space, held to ``dimension_cap``;
    only the spectral space, the one dense solve, is held to ``dense_cap``.
    """
    row = _IDENTITIES[task.identity]
    nu, m, sector, dense = _space(task, dense_cap)
    try:
        basis = enumerate_basis(nu, m, GentileOrder(task.n), sector, dimension_cap, dense)
        diffs, extra, detail = row.recipe(task, basis)
        residual = max([extra, *map(max_abs, diffs)])
    except ValueError as exc:  # SizingError included
        residual, status = None, "error"
        detail = f"task error ({type(exc).__name__}): {exc}"
    else:
        if row.tolerance is None:
            status = "report_only"
        elif residual is not None and residual < row.tolerance:
            status = "pass"
        else:
            status = "fail"
        if row.space in _MODE_SPACES:
            detail += "; nu/m/subspace echo the grid point only"
    return Verdict(task, residual, status, detail)


def interpretations_for(identity: IdentityId, interpretations: Sequence[str]) -> Sequence[str]:
    """The readings one identity runs under: only the class-sum relation
    needs a reading of "real part of an operator", so only it fans out.
    """
    return interpretations if identity is IdentityId.CLASS_SUM_CASIMIR else ("not_applicable",)


def expand_tasks(
    ns: Sequence[int],
    nus: Sequence[int],
    ms: Sequence[int],
    subspaces: Sequence[Optional[int]],
    interpretations: Sequence[str] = INTERPRETATIONS,
    identities: Sequence[IdentityId] = tuple(IdentityId),
) -> list[VerificationTask]:
    """Grid product, fanned out over :func:`interpretations_for`.  Before any task
    is built, a count over ``MAX_TASKS`` (read off the list lengths, no loop), then
    an order, ``nu`` or ``m`` below 1, then a sector outside ``0..n*m`` raise ``ValueError``.
    """
    count = (len(ns) * len(nus) * len(ms) * len(subspaces)
             * sum(len(interpretations_for(i, interpretations)) for i in identities))
    if count > MAX_TASKS:
        raise ValueError(f"grid expands to {count} tasks > limit {MAX_TASKS}")
    for n in ns:
        if n < 1:
            raise ValueError(f"orders must be >= 1, got {n}")
    for values, name in ((nus, "nu"), (ms, "m")):
        if any(value < 1 for value in values):
            raise ValueError(f"--{name} must be >= 1")
    for n, m, sub in product(ns, ms, subspaces):
        if sub is not None:
            check_sector(n, m, sub)
    return [
        VerificationTask(identity, n, nu, m, sub, interp)
        for identity in identities
        for n, nu, m, sub in product(ns, nus, ms, subspaces)
        for interp in interpretations_for(identity, interpretations)
    ]


#: Fixed cost of one basis group, in states of its dimension.
_GROUP_COST = 400


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork safely."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return 1 if threading.active_count() > 1 else len(os.sched_getaffinity(0))


def _shares(tasks: Iterable[VerificationTask], dimension_cap: int) -> list[list]:
    """The tasks in one share per worker: grouped by evaluation basis, the
    groups dealt largest first to the least-loaded share, basis-major."""
    groups: dict[tuple, list] = {}
    for task in tasks:
        groups.setdefault((task.n, *_space(task, None)[:3]), []).append(task)

    costs = {}
    for key in groups:
        try:
            costs[key] = check_dimension(*key, dimension_cap) + _GROUP_COST
        except ValueError:  # refused by sizing: no basis is built
            costs[key] = 0
    shares = [[] for _ in range(min(_usable_cpus(), len(groups)) or 1)]
    loads = [0] * len(shares)
    for key in sorted(groups, key=costs.get, reverse=True):
        least = loads.index(min(loads))
        loads[least] += costs[key]
        shares[least] += groups[key]
    return shares


def _work(write: int, evaluate: Callable[[list], list], share: list) -> None:
    """In a forked worker: send ``evaluate(share)`` or its exception down the
    pipe, then end the process without returning into the caller's code."""
    status = 1
    try:
        try:
            result = (True, evaluate(share))
        except BaseException as exc:  # re-raised in the parent
            result = (False, exc)
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def run_grid(
    tasks: Iterable[VerificationTask],
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
    dense_cap: int = DENSE_EIG_CAP,
) -> list[Verdict]:
    """Run every task, never aborting, in one process per share: the first
    share here, each other in a forked worker (see the module docstring).
    Verdicts come back sorted."""
    def evaluate(share):
        return [run_task(t, dimension_cap, dense_cap) for t in share]

    first, *rest = _shares(tasks, dimension_cap)
    pids, pipes = [], []
    try:
        for share in rest:
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(write, evaluate, share)
            finally:
                os.close(write)
            pids.append(pid)
        verdicts = evaluate(first)
        for pid, pipe in zip(list(pids), pipes):
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids.remove(pid)
            if code:
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise ChildProcessError(f"verify worker {pid} ended without a result ({how})")
            ok, result = pickle.loads(payload)
            if not ok:
                raise result
            verdicts += result
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL, without importing ``signal``
            os.waitpid(pid, 0)
    verdicts.sort(key=Verdict.sort_key)
    return verdicts


def default_grid_tasks() -> list[VerificationTask]:
    return expand_tasks(ns=(1, 2, 3), nus=(2, 3), ms=(2,), subspaces=(None, 1))

