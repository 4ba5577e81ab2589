"""Registry of operator identities, evaluated as numeric residuals.

Every identity the algebra is expected (or merely claimed) to satisfy maps
to one residual recipe.  Identities split into two sets:

* guaranteed -- structural consequences of the ladder construction; these
  carry a tolerance and hard pass/fail status;
* contested  -- relations whose operator-level truth is an open measurement;
  these always emit ``report_only`` with the measured residual, and never
  affect a suite's exit status.

Residual norms are the max entry magnitude in dense mode, or the max over
seeded random vectors of ``|(LHS-RHS) v|_inf / |v|_1`` in sampled mode; the
1-norm in the denominator makes every sampled probe a lower bound on the
dense norm, so sampled runs can never overstate a residual.  Tasks are
independent; verdict order is fixed by sorting, so concurrent evaluation
and re-runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .basis import DEFAULT_DIMENSION_CAP, FockBasis, SizingError, enumerate_basis
from .operators import (
    DENSE_EIG_CAP,
    ComplexOperator,
    casimir_c1,
    casimir_c2,
    class_sum,
    coupling_sum,
    eigensolve_hermitian,
    entrywise_real,
    exchange_op,
    hermitian_part,
    max_abs,
    occupation_diag,
    position_number,
    restrict,
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


#: Identities asserted to hold, with their pass tolerances.
GUARANTEED: dict[IdentityId, float] = {
    IdentityId.LADDER_NBRACKET: 1e-10,
    IdentityId.ANNIHILATOR_PAIR_PHASE: 1e-10,
    IdentityId.CREATOR_PAIR_PHASE: 1e-10,
    IdentityId.OCCUPATION_FUNCTIONS: 1e-12,
    IdentityId.SELF_BRACKET_PLAIN: 1e-12,
    IdentityId.CASIMIR_HERMITICITY: 1e-10,
    IdentityId.SECTOR_CONSERVATION: 1e-10,
}

#: Identities measured but never asserted (report_only).
CONTESTED: frozenset[IdentityId] = frozenset(
    {
        IdentityId.GENERATOR_COMMUTATION,
        IdentityId.SELF_BRACKET_DEFORMED,
        IdentityId.QUARTIC_WORD_BRACKET,
        IdentityId.DUALITY_COMMUTATION,
        IdentityId.CLASS_SUM_CASIMIR,
        IdentityId.LIMIT_RELATION,
        IdentityId.CASIMIR_SPECTRUM,
    }
)

#: Nominal tolerance echoed on contested verdicts.
REPORT_TOLERANCE = 1e-10

INTERPRETATIONS = ("entrywise_real", "hermitian_part")

#: Identities evaluated on the single-mode space only (grid echoes nu/m).
SINGLE_MODE_IDENTITIES: frozenset[IdentityId] = frozenset(
    {
        IdentityId.ANNIHILATOR_PAIR_PHASE,
        IdentityId.CREATOR_PAIR_PHASE,
        IdentityId.OCCUPATION_FUNCTIONS,
        IdentityId.SELF_BRACKET_PLAIN,
        IdentityId.SELF_BRACKET_DEFORMED,
        IdentityId.QUARTIC_WORD_BRACKET,
    }
)


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
    mode: str = "dense"
    k: int = 64
    seed: int = 42

    def __post_init__(self) -> None:
        if self.mode not in ("dense", "sampled"):
            raise ValueError(f"mode must be dense or sampled, got {self.mode!r}")
        if self.mode == "sampled" and self.k < 32:
            raise ValueError(f"sampled mode requires k >= 32, got {self.k}")
        if self.interpretation not in INTERPRETATIONS + ("not_applicable",):
            raise ValueError(f"unknown interpretation {self.interpretation!r}")

    @property
    def subspace_label(self) -> str:
        return "full" if self.subspace is None else f"sector:{self.subspace}"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one task: residual, tolerance, and status."""

    identity: IdentityId
    n: int
    nu: int
    m: int
    subspace: str
    interpretation: str
    mode: str
    k: int
    seed: int
    residual: Optional[float]
    tolerance: float
    status: str
    detail: str = ""

    def sort_key(self):
        return (
            self.identity.value,
            self.n,
            self.nu,
            self.m,
            self.subspace,
            self.interpretation,
            self.mode,
        )

    def record(self) -> dict:
        return {
            "identity": self.identity.value,
            "n": self.n,
            "nu": self.nu,
            "m": self.m,
            "subspace": self.subspace,
            "interpretation": self.interpretation,
            "mode": self.mode,
            "k": self.k,
            "seed": self.seed,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "status": self.status,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Residual measurement
# ---------------------------------------------------------------------------


def _measure(
    diffs: Sequence[sp.csr_matrix],
    mode: str,
    k: int,
    seed: int,
    extra: float = 0.0,
) -> float:
    if mode == "dense":
        measured = max((max_abs(d) for d in diffs), default=0.0)
    else:
        rng = np.random.default_rng(seed)
        measured = 0.0
        for d in diffs:
            dim = d.shape[1]
            for _ in range(k):
                v = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / math.sqrt(2.0)
                num = float(np.abs(d @ v).max()) if dim else 0.0
                den = float(np.abs(v).sum())
                measured = max(measured, num / den)
    return max(measured, extra)


# ---------------------------------------------------------------------------
# Operand assembly
# ---------------------------------------------------------------------------


def _checked_bases(
    task: VerificationTask, cap: int, dense_cap: int
) -> tuple[FockBasis, Optional[FockBasis]]:
    """Full basis and optional sector basis; dense tasks must fit ``dense_cap``."""
    order = GentileOrder(task.n)
    full = enumerate_basis(task.nu, task.m, order, sector=None, cap=cap)
    sector = None
    if task.subspace is not None:
        sector = enumerate_basis(task.nu, task.m, order, sector=task.subspace, cap=cap)
    dim = full.dim if sector is None else sector.dim
    if task.mode == "dense" and dim > dense_cap:
        raise SizingError(
            f"dense mode limited to dim <= {dense_cap}, task needs {dim}; "
            "use sampled mode"
        )
    return full, sector


def _on_subspace(op: ComplexOperator, full: FockBasis, sector: Optional[FockBasis]) -> sp.csr_matrix:
    if sector is None:
        return op.mat
    return restrict(op, full, sector).op.mat


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
# Recipes.  Each returns (difference matrices, extra residual, detail).
# ---------------------------------------------------------------------------


def _recipe_ladder_nbracket(task, cap, dense_cap):
    order = GentileOrder(task.n)
    full, _ = _checked_bases(replace(task, subspace=None), cap, dense_cap)
    from .operators import _embedded_mode_ops  # embedded cache shared with builders

    emb = _embedded_mode_ops(full)
    q = order.q
    eye = sp.identity(full.dim, dtype=np.complex128, format="csr")
    diffs = []
    for f1 in range(full.modes):
        for f2 in range(full.modes):
            lower = emb["b"][f1]
            raiser = emb["a_dag"][f2]
            if f1 == f2:
                diffs.append(lower @ raiser - q * (raiser @ lower) - eye)
            else:
                # Distinct modes commute exactly under the tensor embedding,
                # so the deformed bracket reduces to the plain commutator.
                diffs.append(lower @ raiser - raiser @ lower)
    detail = (
        "same-mode deformed bracket minus identity; distinct modes checked "
        "with the plain commutator (tensor embedding, no inter-mode phases); "
        "evaluated on the full product space"
    )
    return diffs, 0.0, detail


def _recipe_annihilator_phase(task, cap, dense_cap):
    diffs = _single_mode_diffs(GentileOrder(task.n))
    return diffs["annihilator_pair_phase"], 0.0, "single-mode relation; phase exp(i*pi/(n+1))"


def _recipe_creator_phase(task, cap, dense_cap):
    diffs = _single_mode_diffs(GentileOrder(task.n))
    double = max_abs(diffs["creator_pair_phase_double_angle"][0])
    detail = (
        "single-mode relation; asserted phase exp(i*pi/(n+1)), the adjoint of "
        "the annihilator pair relation; the double-angle phase "
        f"exp(i*2*pi/(n+1)) leaves residual {double!r}"
    )
    return diffs["creator_pair_phase"], 0.0, detail


def _recipe_occupation_functions(task, cap, dense_cap):
    diffs = _single_mode_diffs(GentileOrder(task.n))
    top_col = max_abs(diffs["top_state_annihilation"][0])
    detail = (
        "raiser-lowerer diagonal vs occ_g; ladder gap vs occ_f; extra term is "
        "the raiser column at the top state (must vanish identically)"
    )
    return diffs["raiser_lowerer_diag"] + diffs["ladder_gap_diag"], top_col, detail


def _recipe_generator_commutation(task, cap, dense_cap):
    full, sector = _checked_bases(task, cap, dense_cap)
    basis_eval = full if sector is None else sector
    m = task.m
    ident = {}
    for k in range(1, m + 1):
        for l in range(1, m + 1):
            ident[(k, l)] = _on_subspace(unitary_generator(k, l, full), full, sector)

    def corr(k, l):
        total = sp.csr_matrix((basis_eval.dim, basis_eval.dim), dtype=np.complex128)
        for i in range(1, task.nu + 1):
            fl = occupation_diag(basis_eval, "f", i, l).mat
            gk = occupation_diag(basis_eval, "g", i, k).mat
            fk = occupation_diag(basis_eval, "f", i, k).mat
            gl = occupation_diag(basis_eval, "g", i, l).mat
            total = total + fl @ gk - fk @ gl
        return total

    diffs = []
    for k in range(1, m + 1):
        for l in range(1, m + 1):
            for p in range(1, m + 1):
                for q in range(1, m + 1):
                    d = ident[(k, l)] @ ident[(p, q)] - ident[(p, q)] @ ident[(k, l)]
                    if l == p:
                        d = d - ident[(k, q)]
                    if q == k:
                        d = d + ident[(p, l)]
                    if l == p and q == k:
                        d = d - 2.0 * corr(k, l)
                    diffs.append(d)
    detail = (
        "generator commutators vs delta terms plus the occupation-function "
        f"correction, all {m}**4 index tuples; the correction need not cancel "
        "(occ_f(0) = +1 and occ_f tends to +1 at large order, so the "
        "antisymmetrized f*g sum survives)"
    )
    return diffs, 0.0, detail


def _recipe_self_bracket(task, cap, dense_cap, deformed: bool):
    diffs = _single_mode_diffs(GentileOrder(task.n))
    kind = "deformed bracket" if deformed else "plain commutator"
    key = "self_bracket_deformed" if deformed else "self_bracket_plain"
    return diffs[key], 0.0, f"single-mode {kind} of each ladder with its own adjoint vs occ_f"


def _recipe_quartic_words(task, cap, dense_cap):
    diffs = _single_mode_diffs(GentileOrder(task.n))
    detail = "single-mode deformed brackets of the alternating quartic words"
    return diffs["quartic_word_bracket"], 0.0, detail


def _recipe_duality(task, cap, dense_cap):
    full, sector = _checked_bases(task, cap, dense_cap)
    taus = {
        (i, j): _on_subspace(exchange_op(i, j, full), full, sector)
        for i in range(1, task.nu + 1)
        for j in range(i + 1, task.nu + 1)
    }
    gens = {
        (s, t): _on_subspace(unitary_generator(s, t, full), full, sector)
        for s in range(1, task.m + 1)
        for t in range(1, task.m + 1)
    }
    diffs = [
        tau @ gen - gen @ tau for tau in taus.values() for gen in gens.values()
    ]
    detail = (
        f"commutators of {len(taus)} exchanges with {len(gens)} generators"
    )
    return diffs, 0.0, detail


def _theorem_sides(task, full, sector):
    """LHS-RHS matrix of the class-sum / Casimir relation on the subspace."""
    order = GentileOrder(task.n)
    p_mat = _on_subspace(class_sum(full), full, sector)
    j_mat = _on_subspace(coupling_sum(full), full, sector)
    c1 = _on_subspace(casimir_c1(full), full, sector)
    c2 = _on_subspace(casimir_c2(full), full, sector)
    qp = order.q * p_mat
    if task.interpretation == "hermitian_part":
        interp = hermitian_part(qp)
    else:
        interp = entrywise_real(qp)
    m = task.m
    return interp + m * j_mat - (0.5 * c2 - 0.5 * m * c1)


def _recipe_class_sum_casimir(task, cap, dense_cap):
    full, sector = _checked_bases(task, cap, dense_cap)
    if task.interpretation == "not_applicable":
        task = replace(task, interpretation="entrywise_real")
    diff = _theorem_sides(task, full, sector)
    detail = f"real-part reading: {task.interpretation}"
    return [diff], 0.0, detail


def _limit_sides(task, full, sector):
    sign = -1.0 if task.n == 1 else 1.0
    p_mat = _on_subspace(class_sum(full), full, sector)
    n_mat = _on_subspace(total_number(full), full, sector)
    c1 = _on_subspace(casimir_c1(full), full, sector)
    c2 = _on_subspace(casimir_c2(full), full, sector)
    m = task.m
    return sign * p_mat - m * n_mat - (0.5 * c2 - 0.5 * m * c1), sign


def _recipe_limit_relation(task, cap, dense_cap):
    full, sector = _checked_bases(task, cap, dense_cap)
    diff, sign = _limit_sides(task, full, sector)
    label = "max-occupation-1 limit" if task.n == 1 else "large-n reading"
    return [diff], 0.0, f"sign {sign:+.0f} ({label})"


def _recipe_casimir_hermiticity(task, cap, dense_cap):
    full, sector = _checked_bases(task, cap, dense_cap)
    c1 = _on_subspace(casimir_c1(full), full, sector)
    c2 = _on_subspace(casimir_c2(full), full, sector)
    diffs = [c1 - c1.getH(), c2 - c2.getH()]
    return diffs, 0.0, "adjoint comparison of both Casimir operators"


def _recipe_sector_conservation(task, cap, dense_cap):
    full, _ = _checked_bases(replace(task, subspace=None), cap, dense_cap)
    ops: list[ComplexOperator] = []
    for i in range(1, task.nu + 1):
        for j in range(i + 1, task.nu + 1):
            ops.append(exchange_op(i, j, full))
    for s in range(1, task.m + 1):
        for t in range(1, task.m + 1):
            ops.append(unitary_generator(s, t, full))
    ops.extend([class_sum(full), casimir_c1(full), casimir_c2(full)])

    totals = [position_number(full, i).mat for i in range(1, task.nu + 1)]
    diffs = [op.mat @ t - t @ op.mat for op in ops for t in totals]

    sector_total = task.subspace if task.subspace is not None else 1
    sector = enumerate_basis(task.nu, task.m, full.order, sector=sector_total, cap=cap)
    leakage = max(restrict(op, full, sector).leakage for op in ops)
    detail = (
        f"{len(ops)} operators x {task.nu} position totals; extra term is the "
        f"max restriction leakage onto sector:{sector_total}"
    )
    return diffs, leakage, detail


def _spectrum_match(task, cap, dense_cap):
    order = GentileOrder(task.n)
    sector_total = task.subspace if task.subspace is not None else 1
    full = enumerate_basis(task.nu, task.m, order, sector=None, cap=cap)
    sector = enumerate_basis(task.nu, task.m, order, sector=sector_total, cap=cap)
    if sector.dim > dense_cap:
        raise SizingError(
            f"spectral comparison needs a dense solve; sector dim {sector.dim} "
            f"> cap {dense_cap}"
        )
    c1_s = restrict(casimir_c1(full), full, sector).op
    c2_s = restrict(casimir_c2(full), full, sector).op
    measured_c1 = sorted({round(v, 9) for v, _ in eigensolve_hermitian(c1_s)})
    measured_c2 = sorted({round(v, 9) for v, _ in eigensolve_hermitian(c2_s)})

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
    return residual, detail


_RECIPES = {
    IdentityId.LADDER_NBRACKET: _recipe_ladder_nbracket,
    IdentityId.ANNIHILATOR_PAIR_PHASE: _recipe_annihilator_phase,
    IdentityId.CREATOR_PAIR_PHASE: _recipe_creator_phase,
    IdentityId.OCCUPATION_FUNCTIONS: _recipe_occupation_functions,
    IdentityId.GENERATOR_COMMUTATION: _recipe_generator_commutation,
    IdentityId.SELF_BRACKET_PLAIN: lambda t, c, d: _recipe_self_bracket(t, c, d, False),
    IdentityId.SELF_BRACKET_DEFORMED: lambda t, c, d: _recipe_self_bracket(t, c, d, True),
    IdentityId.QUARTIC_WORD_BRACKET: _recipe_quartic_words,
    IdentityId.DUALITY_COMMUTATION: _recipe_duality,
    IdentityId.CLASS_SUM_CASIMIR: _recipe_class_sum_casimir,
    IdentityId.LIMIT_RELATION: _recipe_limit_relation,
    IdentityId.CASIMIR_HERMITICITY: _recipe_casimir_hermiticity,
    IdentityId.SECTOR_CONSERVATION: _recipe_sector_conservation,
}


def tolerance_for(identity: IdentityId) -> float:
    return GUARANTEED.get(identity, REPORT_TOLERANCE)


def run_task(
    task: VerificationTask,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
    dense_cap: int = DENSE_EIG_CAP,
) -> Verdict:
    """Evaluate one task and classify the residual."""
    tolerance = tolerance_for(task.identity)
    try:
        if task.identity is IdentityId.CASIMIR_SPECTRUM:
            residual, detail = _spectrum_match(task, dimension_cap, dense_cap)
            if task.mode == "sampled":
                detail += "; spectral comparison always solves densely"
        else:
            diffs, extra, detail = _RECIPES[task.identity](task, dimension_cap, dense_cap)
            residual = _measure(diffs, task.mode, task.k, task.seed, extra)
    except ValueError as exc:  # SizingError included
        residual, status, detail = None, "fail", f"task error: {exc}"
    else:
        if task.identity in CONTESTED:
            status = "report_only"
        elif residual is not None and residual < tolerance:
            status = "pass"
        else:
            status = "fail"
        if task.identity in SINGLE_MODE_IDENTITIES:
            detail += "; nu/m/subspace echo the grid point only"
    return Verdict(
        identity=task.identity,
        n=task.n,
        nu=task.nu,
        m=task.m,
        subspace=task.subspace_label,
        interpretation=task.interpretation,
        mode=task.mode,
        k=task.k,
        seed=task.seed,
        residual=residual,
        tolerance=tolerance,
        status=status,
        detail=detail,
    )


def expand_tasks(
    ns: Iterable[int],
    nus: Iterable[int],
    ms: Iterable[int],
    subspaces: Iterable[Optional[int]],
    interpretations: Sequence[str] = INTERPRETATIONS,
    mode: str = "dense",
    k: int = 64,
    seed: int = 42,
    identities: Sequence[IdentityId] = tuple(IdentityId),
) -> list[VerificationTask]:
    """Grid product; the class-sum relation fans out over interpretations."""
    tasks = []
    for identity in identities:
        interps = (
            interpretations
            if identity is IdentityId.CLASS_SUM_CASIMIR
            else ("not_applicable",)
        )
        for n in ns:
            for nu in nus:
                for m in ms:
                    for sub in subspaces:
                        for interp in interps:
                            tasks.append(
                                VerificationTask(
                                    identity=identity,
                                    n=n,
                                    nu=nu,
                                    m=m,
                                    subspace=sub,
                                    interpretation=interp,
                                    mode=mode,
                                    k=k,
                                    seed=seed,
                                )
                            )
    return tasks


def run_grid(
    tasks: Iterable[VerificationTask],
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
    dense_cap: int = DENSE_EIG_CAP,
) -> list[Verdict]:
    """Run every task, never aborting; verdicts come back sorted."""
    verdicts = [run_task(t, dimension_cap, dense_cap) for t in tasks]
    verdicts.sort(key=Verdict.sort_key)
    return verdicts


def default_grid_tasks(mode: str = "dense", k: int = 64, seed: int = 42) -> list[VerificationTask]:
    return expand_tasks(
        ns=(1, 2, 3), nus=(2, 3), ms=(2,), subspaces=(None, 1), mode=mode, k=k, seed=seed
    )


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
    full, sector = _checked_bases(task, DEFAULT_DIMENSION_CAP, DENSE_EIG_CAP)
    d_theorem = _theorem_sides(task, full, sector)
    d_limit, _ = _limit_sides(task, full, sector)
    return max_abs(d_theorem - d_limit)


def single_mode_residuals(order: GentileOrder) -> dict[str, float]:
    """Residuals of the single-mode ladder-algebra suite, keyed by relation."""
    return {
        key: max(max_abs(d) for d in diffs)
        for key, diffs in _single_mode_diffs(order).items()
    }
