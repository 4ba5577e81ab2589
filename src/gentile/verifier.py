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
the task's own: none (``single``, the relations of one or two modes, read
on their own one- and two-mode spaces, which the dimension cap bounds too),
the task's own subspace (``task``), or its sector (``spectral``).  On a
sector, the word kernel's closure check keeps every operand in the sector.
A recipe reads only the operands that fix its residual bit for bit: the
ladder bracket takes its distinct-mode commutators on the two-mode space,
and ``generator_commutation`` skips the index tuples that are exactly zero
or the exact negation of one it reads.  The exchange pairs of
``duality_commutation`` differ in the last bit, so it reads them all.  Task
bases are sized, then built, only in ``_checked_basis`` (for ``run_task``
and ``limit_theorem_agreement``), so a sector task never builds its full
space.  Recipes receive their basis built.

The residual of a task is the largest entry magnitude of its sparse
difference matrices (``operators.max_abs``), read exactly.
Diagonal operands (position totals, the occupation-function correction)
are numpy vectors, never sparse products.  The spectral space is the one
dense solve, in the (weight, momentum) blocks of
``operators.eigensolve_hermitian``, so it alone is held to the dense cap,
compared with its largest weight block.

A ``Verdict`` is its task plus the outcome: residual, status and detail;
its tolerance follows from the identity.  Tasks are independent; verdict
order is fixed by sorting, so concurrent evaluation and re-runs are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .basis import (
    DEFAULT_DIMENSION_CAP,
    FockBasis,
    check_dimension,
    check_sector,
    enumerate_basis,
    largest_weight_block,
    subspace_label,
)
from .operators import (
    DENSE_EIG_CAP,
    DROP_TOL,
    _ladder_cached,
    casimir_c1,
    casimir_c2,
    check_dense_dimension,
    class_sum,
    coupling_sum,
    eigensolve_hermitian,
    entrywise_real,
    exchange_op,
    hermitian_part,
    max_abs,
    single_mode_ops,
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


def _checked_basis(task: VerificationTask, cap: int, dense_cap: Optional[int] = None) -> FockBasis:
    """The basis of ``task.subspace``: a sector, or the full space.

    It is sized before it is enumerated.  A basis that is solved densely is
    given ``dense_cap``, and its largest weight block must fit it.
    """
    args = (task.n, task.nu, task.m, task.subspace)
    check_dimension(*args, cap)
    if dense_cap is not None:
        check_dense_dimension(largest_weight_block(*args), dense_cap)
    return enumerate_basis(task.nu, task.m, GentileOrder(task.n), sector=task.subspace, cap=cap)


@lru_cache(maxsize=64)
def _single_mode_diffs(order: GentileOrder) -> dict[str, tuple[sp.csr_matrix, ...]]:
    """Difference matrices of every single-mode relation, keyed by relation.

    ``top_state_annihilation`` is the raiser column at the top state, which
    must vanish identically.  The result is cached and shared: read only.
    """
    ops = single_mode_ops(order)
    q = order.q
    phase = np.exp(1j * order.x)
    eye = sp.identity(order.n + 1, dtype=np.complex128, format="csr")
    levels = np.arange(order.n + 1)
    diag_g = sp.diags(occ_g(levels, order), 0, dtype=np.complex128, format="csr")
    diag_f = sp.diags(occ_f(levels, order), 0, dtype=np.complex128, format="csr")

    def self_brackets(qq):
        return (
            ops.b @ ops.b_dag - qq * (ops.b_dag @ ops.b) - diag_f,
            ops.a @ ops.a_dag - qq * (ops.a_dag @ ops.a) - diag_f,
        )

    up_ab = ops.a_dag @ ops.b_dag @ ops.a_dag @ ops.b_dag
    up_ba = ops.b_dag @ ops.a_dag @ ops.b_dag @ ops.a_dag
    dn_ab = ops.a @ ops.b @ ops.a @ ops.b
    dn_ba = ops.b @ ops.a @ ops.b @ ops.a
    return {
        "nbracket_unit": (ops.b @ ops.a_dag - q * (ops.a_dag @ ops.b) - eye,),
        "annihilator_pair_phase": (ops.a @ ops.b - phase * (ops.b @ ops.a),),
        "creator_pair_phase": (ops.a_dag @ ops.b_dag - phase * (ops.b_dag @ ops.a_dag),),
        "creator_pair_phase_double_angle": (
            ops.a_dag @ ops.b_dag - phase * phase * (ops.b_dag @ ops.a_dag),
        ),
        "raiser_lowerer_diag": (ops.a_dag @ ops.a - diag_g,),
        "ladder_gap_diag": (ops.a @ ops.a_dag - ops.a_dag @ ops.a - diag_f,),
        "top_state_annihilation": (ops.a_dag[:, order.n],),
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
        return _single_mode_diffs(GentileOrder(task.n))[key], 0.0, detail

    return recipe


@lru_cache(maxsize=64)
def _ladder_nbracket(order: GentileOrder) -> float:
    """Residual of the same-mode bracket and of both distinct-mode commutators.

    The bracket of one mode's letters is the single-mode relation.  Letters
    on distinct modes commute exactly under the tensor embedding, so the
    deformed bracket reduces to the plain commutator, which is taken on the
    two-mode space for both orders of the pair; no statement has a sector.
    """
    pair = enumerate_basis(1, 2, order)
    lower = [_ladder_cached(pair, "b", flat) for flat in (0, 1)]
    raiser = [_ladder_cached(pair, "a_dag", flat) for flat in (0, 1)]
    diffs = _single_mode_diffs(order)["nbracket_unit"] + tuple(
        lower[f1] @ raiser[f2] - raiser[f2] @ lower[f1] for f1, f2 in ((0, 1), (1, 0))
    )
    return max(map(max_abs, diffs))


def _recipe_ladder_nbracket(task, basis):
    detail = (
        "same-mode deformed bracket minus identity; distinct modes checked "
        "with the plain commutator (tensor embedding, no inter-mode phases); "
        "evaluated on the one- and two-mode spaces"
    )
    return [], _ladder_nbracket(GentileOrder(task.n)), detail


def _recipe_creator_phase(task, basis):
    diffs = _single_mode_diffs(GentileOrder(task.n))
    double = max_abs(diffs["creator_pair_phase_double_angle"][0])
    detail = (
        "single-mode relation; asserted phase exp(i*pi/(n+1)), the adjoint of "
        "the annihilator pair relation; the double-angle phase "
        f"exp(i*2*pi/(n+1)) leaves residual {double!r}"
    )
    return diffs["creator_pair_phase"], 0.0, detail


def _recipe_occupation_functions(task, basis):
    diffs = _single_mode_diffs(GentileOrder(task.n))
    top_col = max_abs(diffs["top_state_annihilation"][0])
    detail = (
        "raiser-lowerer diagonal vs occ_g; ladder gap vs occ_f; extra term is "
        "the raiser column at the top state (must vanish identically)"
    )
    return diffs["raiser_lowerer_diag"] + diffs["ladder_gap_diag"], top_col, detail


def _occupation_correction(basis: FockBasis, k: int, l: int) -> sp.csr_matrix:
    """Diagonal ``sum_i f(i,l) g(i,k) - f(i,k) g(i,l)`` of ``occ_f``/``occ_g``
    at each position's modes, summed over positions in order.
    """

    def occ(fn, i, state):
        # The prune of a diagonal operator: occ_f(n/2) at even n is ~1e-16.
        vals = fn(basis.occupations[:, basis.mode_flat(i, state)], basis.order)
        return np.where(np.abs(vals) < DROP_TOL, 0.0, vals)

    total = np.zeros(basis.dim)
    for i in range(1, basis.nu + 1):
        total = total + occ(occ_f, i, l) * occ(occ_g, i, k) - occ(occ_f, i, k) * occ(occ_g, i, l)
    return sp.diags(total, 0, format="csr", dtype=np.complex128)


def _recipe_generator_commutation(task, basis):
    m = task.m
    states = range(1, m + 1)
    ident = {(k, l): unitary_generator(k, l, basis) for k, l in product(states, repeat=2)}
    products = {(a, b): ident[a] @ ident[b] for a, b in permutations(ident, 2)}

    # The residual is the maximum over all m**4 tuples, read off fewer of
    # them: a tuple (k,l,k,l) is exactly zero (P - P, then -E + E and a zero
    # correction), and the mirror (p,q,k,l) of a tuple with at most one delta
    # term is its exact IEEE negation.  Only a swap pair (k,l,l,k), k != l,
    # gets both delta terms, so it keeps both orders.
    tuples = [(*a, *b) for a, b in combinations(ident, 2)]
    tuples += [(l, k, k, l) for k, l in ident if k < l]
    diffs = []
    for k, l, p, q in tuples:
        d = products[(k, l), (p, q)] - products[(p, q), (k, l)]
        if l == p:
            d = d - ident[(k, q)]
        if q == k:
            d = d + ident[(p, l)]
        if l == p and q == k:
            d = d - 2.0 * _occupation_correction(basis, k, l)
        diffs.append(d)
    detail = (
        "generator commutators vs delta terms plus the occupation-function "
        f"correction, all {m}**4 index tuples; the correction need not cancel "
        "(occ_f(0) = +1 and occ_f tends to +1 at large order, so the "
        "antisymmetrized f*g sum survives)"
    )
    return diffs, 0.0, detail


def _recipe_duality(task, basis):
    taus = [exchange_op(i, j, basis) for i, j in combinations(range(1, task.nu + 1), 2)]
    gens = [unitary_generator(s, t, basis) for s, t in product(range(1, task.m + 1), repeat=2)]
    diffs = [tau @ gen - gen @ tau for tau in taus for gen in gens]
    return diffs, 0.0, f"commutators of {len(taus)} exchanges with {len(gens)} generators"


def _casimir_side(basis, m):
    """``C2/2 - (m/2) C1`` on ``basis``, the right side of both relations."""
    return 0.5 * casimir_c2(basis) - 0.5 * m * casimir_c1(basis)


def _theorem_sides(task, basis):
    """LHS-RHS matrix of the class-sum / Casimir relation on ``basis``."""
    p_mat = class_sum(basis)
    j_mat = coupling_sum(basis)
    qp = basis.order.q * p_mat
    interp = hermitian_part(qp) if task.interpretation == "hermitian_part" else entrywise_real(qp)
    m = task.m
    return interp + m * j_mat - _casimir_side(basis, m)


def _recipe_class_sum_casimir(task, basis):
    if task.interpretation == "not_applicable":
        task = replace(task, interpretation="entrywise_real")
    diff = _theorem_sides(task, basis)
    detail = f"real-part reading: {task.interpretation}"
    return [diff], 0.0, detail


def _limit_sides(task, basis):
    sign = -1.0 if task.n == 1 else 1.0
    p_mat = class_sum(basis)
    n_mat = total_number(basis)
    m = task.m
    return sign * p_mat - m * n_mat - _casimir_side(basis, m), sign


def _recipe_limit_relation(task, basis):
    diff, sign = _limit_sides(task, basis)
    label = "max-occupation-1 limit" if task.n == 1 else "large-n reading"
    return [diff], 0.0, f"sign {sign:+.0f} ({label})"


def _recipe_casimir_hermiticity(task, basis):
    c1 = casimir_c1(basis)
    c2 = casimir_c2(basis)
    diffs = [c1 - c1.getH(), c2 - c2.getH()]
    return diffs, 0.0, "adjoint comparison of both Casimir operators"


def _total_jumps(op: sp.csr_matrix, totals: Sequence[np.ndarray]) -> float:
    """Largest entry of the commutators of ``op`` with the position totals.

    A total ``d`` is diagonal, so ``[A, diag(d)]`` has the entries
    ``A_ij (d_j - d_i)`` on the stored entries of ``A``.
    """
    coo = op.tocoo()
    return max(float(np.abs(coo.data * (d[coo.col] - d[coo.row])).max(initial=0.0))
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


def _spectrum_match(task, sector):
    # C1 is diagonal: its spectrum is its diagonal, checked real to the
    # eigensolver's hermiticity tolerance.
    c1 = casimir_c1(sector)
    c1_diag = c1.diagonal()
    if (c1 - sp.diags(c1_diag)).count_nonzero() or np.abs(c1_diag.imag).max() > 1e-10:
        raise ValueError("C1 is not a real diagonal matrix")
    measured_c1 = sorted({round(v, 9) for v in c1_diag.real.tolist()})
    measured_c2 = sorted({round(v, 9) for v, _ in
                          eigensolve_hermitian(casimir_c2(sector), sector)})

    parts = partitions_of(task.nu, task.m)
    report = []
    best: tuple[float, str] | None = None
    for variant in VARIANTS:
        pred_c2 = sorted({float(casimir_value(2, p, task.m, variant)) for p in parts})
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
    pred_c1 = float(task.nu)
    dev_c1 = max(abs(v - pred_c1) for v in measured_c1)
    residual = best[0] if best is not None else None
    detail = (
        f"C2 measured {measured_c2}; "
        + "; ".join(report)
        + (f"; best variant {best[1]}" if best else "")
        + f"; C1 measured {measured_c1} vs partition weight {pred_c1!r} "
        f"(deviation {dev_c1!r})"
    )
    return [], residual, detail


# ---------------------------------------------------------------------------
# The identity table
# ---------------------------------------------------------------------------


class _Identity(NamedTuple):
    """A recipe, a tolerance (``None``: contested) and an evaluation space:
    ``single`` (no basis), ``task`` (the task's own subspace) or ``spectral``
    (the task's sector, ``sector:1`` for a full-space task, whose largest
    weight block is held to the dense cap).
    """

    recipe: Callable
    tolerance: Optional[float]
    space: str


_SELF_BRACKET = "single-mode {} of each ladder with its own adjoint vs occ_f"

_IDENTITIES: dict[IdentityId, _Identity] = {
    IdentityId.LADDER_NBRACKET: _Identity(_recipe_ladder_nbracket, 1e-10, "single"),
    IdentityId.ANNIHILATOR_PAIR_PHASE: _Identity(_single_mode(
        "annihilator_pair_phase", "single-mode relation; phase exp(i*pi/(n+1))"), 1e-10, "single"),
    IdentityId.CREATOR_PAIR_PHASE: _Identity(_recipe_creator_phase, 1e-10, "single"),
    IdentityId.OCCUPATION_FUNCTIONS: _Identity(_recipe_occupation_functions, 1e-12, "single"),
    IdentityId.GENERATOR_COMMUTATION: _Identity(_recipe_generator_commutation, None, "task"),
    IdentityId.SELF_BRACKET_PLAIN: _Identity(_single_mode(
        "self_bracket_plain", _SELF_BRACKET.format("plain commutator")), 1e-12, "single"),
    IdentityId.SELF_BRACKET_DEFORMED: _Identity(_single_mode(
        "self_bracket_deformed", _SELF_BRACKET.format("deformed bracket")), None, "single"),
    IdentityId.QUARTIC_WORD_BRACKET: _Identity(_single_mode(
        "quartic_word_bracket", "single-mode deformed brackets of the alternating quartic words"),
        None, "single"),
    IdentityId.DUALITY_COMMUTATION: _Identity(_recipe_duality, None, "task"),
    IdentityId.CLASS_SUM_CASIMIR: _Identity(_recipe_class_sum_casimir, None, "task"),
    IdentityId.LIMIT_RELATION: _Identity(_recipe_limit_relation, None, "task"),
    IdentityId.CASIMIR_HERMITICITY: _Identity(_recipe_casimir_hermiticity, 1e-10, "task"),
    IdentityId.SECTOR_CONSERVATION: _Identity(_recipe_sector_conservation, 1e-10, "task"),
    IdentityId.CASIMIR_SPECTRUM: _Identity(_spectrum_match, None, "spectral"),
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


def run_task(
    task: VerificationTask,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
    dense_cap: int = DENSE_EIG_CAP,
) -> Verdict:
    """Evaluate one task and classify the residual.

    It builds the basis of the identity's space; only the spectral space,
    the one dense solve, is held to ``dense_cap``.
    """
    row = _IDENTITIES[task.identity]
    try:
        basis = None
        if row.space == "single":
            modes = 2 if task.identity is IdentityId.LADDER_NBRACKET else 1
            check_dimension(task.n, 1, modes, None, dimension_cap)
        elif row.space == "task":
            basis = _checked_basis(task, dimension_cap)
        else:
            spectral = replace(task, subspace=1 if task.subspace is None else task.subspace)
            basis = _checked_basis(spectral, dimension_cap, dense_cap)
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
        if row.space == "single":
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


def run_grid(
    tasks: Iterable[VerificationTask],
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
    dense_cap: int = DENSE_EIG_CAP,
) -> list[Verdict]:
    """Run every task, never aborting; verdicts come back sorted."""
    verdicts = [run_task(t, dimension_cap, dense_cap) for t in tasks]
    verdicts.sort(key=Verdict.sort_key)
    return verdicts


def default_grid_tasks() -> list[VerificationTask]:
    return expand_tasks(ns=(1, 2, 3), nus=(2, 3), ms=(2,), subspaces=(None, 1))


def limit_theorem_agreement(nu: int, m: int, subspace: Optional[int] = 1) -> float:
    """Max distance between the two residual recipes at maximum occupation 1.

    With the entrywise real-part reading, the class-sum relation's recipe and
    the limit relation's minus-sign recipe are algebraically the same
    expression there (the coupling sum reduces to minus the total number), so
    they must agree whatever the shared residual is worth.
    """
    task = VerificationTask(
        identity=IdentityId.CLASS_SUM_CASIMIR,
        n=1,
        nu=nu,
        m=m,
        subspace=subspace,
        interpretation="entrywise_real",
    )
    basis = _checked_basis(task, DEFAULT_DIMENSION_CAP)
    d_theorem = _theorem_sides(task, basis)
    d_limit, _ = _limit_sides(task, basis)
    return max_abs(d_theorem - d_limit)
