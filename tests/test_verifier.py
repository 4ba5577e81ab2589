"""Identity verifier: recipes, statuses, grids, determinism."""

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import fields
from itertools import combinations, product

import numpy as np
import pytest
import scipy.sparse as sp

from gentile import (
    CONTESTED,
    GUARANTEED,
    IdentityId,
    VerificationTask,
    default_grid_tasks,
    expand_tasks,
    run_grid,
    run_task,
)
from gentile import GentileOrder, basis as basis_module, operators, verifier
from gentile.basis import DEFAULT_DIMENSION_CAP, enumerate_basis
from scipy_oracle import from_scipy, limit_theorem_agreement, to_scipy
from gentile.operators import (
    _ladder,
    as_operator,
    casimir_c1,
    casimir_c2,
    class_sum,
    exchange_op,
    max_abs,
    unitary_generator,
)
from gentile.scalars import occ_f, occ_g
from gentile.verifier import _IDENTITIES, INTERPRETATIONS, tolerance_for


def reading(identity):
    """A reading ``identity`` takes: the class-sum relation needs one, and
    every other identity takes none."""
    return "entrywise_real" if identity is IdentityId.CLASS_SUM_CASIMIR else "not_applicable"


def make_task(identity, **kwargs):
    params = dict(identity=identity, n=2, nu=2, m=2, subspace=1)
    params.update(kwargs)
    return VerificationTask(**params)


class TestTaskValidation:
    def test_interpretation_checked(self):
        with pytest.raises(ValueError):
            make_task(IdentityId.CLASS_SUM_CASIMIR, interpretation="imaginary")
        # A reading must fit its identity: the class-sum relation needs one,
        # and no other identity takes one.
        with pytest.raises(ValueError, match="does not apply to class_sum_casimir_relation"):
            make_task(IdentityId.CLASS_SUM_CASIMIR)
        with pytest.raises(ValueError, match="does not apply to limit_relation"):
            make_task(IdentityId.LIMIT_RELATION, interpretation="entrywise_real")


class TestGuaranteedIdentities:
    @pytest.mark.parametrize("identity", sorted(GUARANTEED, key=lambda i: i.value))
    @pytest.mark.parametrize("subspace", [None, 1])
    def test_pass_on_probe_points(self, identity, subspace):
        verdict = run_task(make_task(identity, subspace=subspace))
        assert verdict.status == "pass", verdict.detail
        assert verdict.residual < tolerance_for(identity)

    def test_tolerances_echoed(self):
        verdict = run_task(make_task(IdentityId.OCCUPATION_FUNCTIONS))
        assert verdict.tolerance == 1e-12
        verdict = run_task(make_task(IdentityId.SELF_BRACKET_PLAIN))
        assert verdict.tolerance == 1e-12
        verdict = run_task(make_task(IdentityId.CASIMIR_HERMITICITY))
        assert verdict.tolerance == 1e-10


class TestContestedIdentities:
    @pytest.mark.parametrize("identity", sorted(CONTESTED, key=lambda i: i.value))
    def test_always_report_only(self, identity):
        verdict = run_task(make_task(identity, interpretation=reading(identity)))
        assert verdict.status == "report_only"
        assert verdict.residual is not None

    def test_deformed_self_bracket_misses(self):
        # the deformed reading differs from the plain one by (1-q) g(N)
        verdict = run_task(make_task(IdentityId.SELF_BRACKET_DEFORMED))
        assert verdict.residual > 0.1

    def test_class_sum_relation_interpretations(self):
        entry = run_task(
            make_task(IdentityId.CLASS_SUM_CASIMIR, n=1, interpretation="entrywise_real")
        )
        herm = run_task(
            make_task(IdentityId.CLASS_SUM_CASIMIR, n=1, interpretation="hermitian_part")
        )
        assert entry.status == herm.status == "report_only"
        assert entry.residual is not None and herm.residual is not None

    def test_creator_phase_detail_reports_double_angle(self):
        verdict = run_task(make_task(IdentityId.CREATOR_PAIR_PHASE))
        assert "double-angle" in verdict.detail
        assert verdict.status == "pass"

    def test_spectrum_match_detail_names_variants(self):
        verdict = run_task(make_task(IdentityId.CASIMIR_SPECTRUM, n=1))
        assert verdict.status == "report_only"
        assert "raw" in verdict.detail and "shifted" in verdict.detail
        assert verdict.residual is not None


class TestSampledMode:
    """A residual is the exact largest entry: a planted one-entry defect
    reads in full, whatever the size of its matrix."""

    @staticmethod
    def plant(monkeypatch, identity, dim, value):
        """Make ``identity``'s recipe return one ``dim x dim`` CSR with one entry."""
        defect = from_scipy(sp.csr_matrix(([value], ([dim - 1], [dim // 2])), shape=(dim, dim)))
        row = _IDENTITIES[identity]._replace(recipe=lambda t, b: ([defect], 0.0, ""))
        monkeypatch.setitem(_IDENTITIES, identity, row)

    @pytest.mark.parametrize("dim", [16, 256, 4096])
    def test_single_entry_defect_measured_exactly(self, monkeypatch, dim):
        self.plant(monkeypatch, IdentityId.LADDER_NBRACKET, dim, 1e-8)
        verdict = run_task(make_task(IdentityId.LADDER_NBRACKET))
        assert verdict.residual == 1e-8
        assert verdict.status == "fail"

    def test_guaranteed_identity_at_its_tolerance_fails(self, monkeypatch):
        identity = IdentityId.SECTOR_CONSERVATION
        self.plant(monkeypatch, identity, 4096, tolerance_for(identity))
        verdict = run_task(make_task(identity))
        assert verdict.residual == tolerance_for(identity)
        assert verdict.status == "fail"


class TestVerdict:
    def test_verdict_is_its_task_plus_outcome(self):
        task = make_task(IdentityId.OCCUPATION_FUNCTIONS)
        verdict = run_task(task)
        assert [f.name for f in fields(task)] == [
            "identity", "n", "nu", "m", "subspace", "interpretation",
        ]
        assert [f.name for f in fields(verdict)] == ["task", "residual", "status", "detail"]
        assert verdict.task == task
        assert verdict.tolerance == tolerance_for(task.identity)
        assert list(verdict.record()) == [
            "identity", "n", "nu", "m", "subspace", "interpretation",
            "residual", "tolerance", "status", "detail",
        ]

    def test_error_while_residuals_stream_is_a_task_error(self, monkeypatch):
        # The duality recipe hands back its commutators lazily, so the second
        # one fails only while run_task reads the residuals.
        made = []

        def failing(a, b):
            made.append(a)
            if len(made) == 2:
                raise ValueError("planted")
            return a

        monkeypatch.setattr(verifier, "commutator", failing)
        verdict = run_task(make_task(IdentityId.DUALITY_COMMUTATION))
        assert len(made) == 2
        assert (verdict.residual, verdict.status) == (None, "error")
        assert verdict.detail == "task error (ValueError): planted"

    @pytest.mark.parametrize("row, col, value", [(0, 1, 1e-3), (0, 0, 1e-9j)])
    def test_non_diagonal_c1_is_a_task_error(self, monkeypatch, row, col, value):
        # The spectral comparison reads C1's spectrum off its diagonal, so it
        # must refuse a C1 that is not a real diagonal matrix.
        real_c1 = verifier.casimir_c1

        def skewed(basis):
            op = real_c1(basis)
            extra = sp.csr_matrix(([value], ([row], [col])), shape=op.shape)
            return as_operator(from_scipy(to_scipy(op) + extra))

        monkeypatch.setattr(verifier, "casimir_c1", skewed)
        verifier._spectrum_match.cache_clear()  # cached by the sector basis
        verdict = run_task(make_task(IdentityId.CASIMIR_SPECTRUM, n=1))
        assert verdict.status == "error"
        assert "C1 is not a real diagonal matrix" in verdict.detail


class TestGrid:
    def test_default_grid_counts(self):
        tasks = default_grid_tasks()
        points = 3 * 2 * 1 * 2  # n x nu x m x subspace
        fanout = len(IdentityId) - 1 + 2  # class-sum relation runs twice
        assert len(tasks) == points * fanout

    def test_default_grid_statuses(self):
        verdicts = run_grid(default_grid_tasks())
        assert all(v.status in ("pass", "report_only") for v in verdicts)
        guaranteed = [v for v in verdicts if v.task.identity in GUARANTEED]
        assert guaranteed and all(v.status == "pass" for v in guaranteed)
        contested = [v for v in verdicts if v.task.identity in CONTESTED]
        assert contested and all(v.status == "report_only" for v in contested)

    def test_verdicts_sorted(self):
        verdicts = run_grid(default_grid_tasks())
        keys = [v.sort_key() for v in verdicts]
        assert keys == sorted(keys)

    def test_oversized_dense_task_becomes_error_verdict(self):
        # The spectral comparison is the one dense solve: its largest weight
        # block (3 states on the nu=3, m=2 spin sector) is held to the dense
        # cap, and a row that solves nothing is not, even on the full space.
        tasks = expand_tasks(
            ns=(3,), nus=(3,), ms=(2,), subspaces=(None,),
            identities=(IdentityId.CASIMIR_SPECTRUM, IdentityId.CASIMIR_HERMITICITY),
        )
        hermiticity, spectral = run_grid(tasks, dense_cap=2)  # sorted by identity
        assert spectral.status == "error"
        assert spectral.residual is None
        assert spectral.detail == ("task error (SizingError): dense eigensolve needs "
                                   "dim 3 > dense cap 2")
        assert hermiticity.status == "pass", hermiticity.detail

    @pytest.mark.parametrize("interpretations", [
        ["entrywise_real"], ["hermitian_part"], list(INTERPRETATIONS),
    ])
    def test_count_refused_before_any_task_is_built(self, interpretations, monkeypatch):
        # The count is the number of tasks the fan-out builds: a limit of
        # exactly that many builds them, one less refuses before the first.
        grid = dict(ns=[1, 2], nus=[2], ms=[2], subspaces=[None, 1],
                    interpretations=interpretations)
        built = len(expand_tasks(**grid))
        assert built == 2 * 2 * (len(IdentityId) - 1 + len(interpretations))
        monkeypatch.setattr(verifier, "MAX_TASKS", built)
        assert len(expand_tasks(**grid)) == built

        def refuse(*args, **kwargs):
            raise AssertionError("VerificationTask built")

        monkeypatch.setattr(verifier, "MAX_TASKS", built - 1)
        monkeypatch.setattr(verifier, "VerificationTask", refuse)
        with pytest.raises(ValueError, match=f"grid expands to {built} tasks > limit {built - 1}"):
            expand_tasks(**grid)

    def test_huge_grid_refused_by_its_count(self, monkeypatch):
        # 10**8 (n, m) pairs: refused from the list lengths, before the
        # sector loop would visit one of them.
        def refuse(*args, **kwargs):
            raise AssertionError("check_sector called")

        monkeypatch.setattr(verifier, "check_sector", refuse)
        with pytest.raises(ValueError, match="grid expands to 1400000000 tasks > limit 10000"):
            expand_tasks(ns=range(1, 10**4 + 1), nus=[2], ms=range(1, 10**4 + 1),
                         subspaces=[1], interpretations=["entrywise_real"])

    def test_spectral_task_solves_under_its_dense_cap(self, monkeypatch):
        # The 2**13-state sector is over the default dense cap of 4096, and
        # its largest weight block C(13, 6) = 1716 is under it: it is sized
        # by that block and solved on the sector's basis.  The solve is
        # stubbed, so only what it is handed is checked.
        solved = []

        def solve(mat, basis):
            solved.append((mat.shape, np.unique(basis.weights, return_counts=True)[1].max()))
            return [(0.0, mat.shape[0])]

        monkeypatch.setattr(verifier, "eigensolve_hermitian", solve)
        # The uncached comparison: no stubbed result outlives the test.
        monkeypatch.setattr(verifier, "_spectrum_match", verifier._spectrum_match.__wrapped__)
        task = VerificationTask(IdentityId.CASIMIR_SPECTRUM, n=1, nu=13, m=2, subspace=1)
        verdict = run_task(task)
        assert solved == [((8192, 8192), 1716)]
        assert verdict.status == "report_only", verdict.detail
        assert "dense cap" not in verdict.detail

    def test_spectral_task_over_its_dense_cap_refused_before_c2(self, monkeypatch):
        def refuse(basis):
            raise AssertionError("C2 built")

        monkeypatch.setattr(verifier, "casimir_c2", refuse)
        task = VerificationTask(IdentityId.CASIMIR_SPECTRUM, n=1, nu=13, m=2, subspace=1)
        verdict = run_task(task, dense_cap=1715)
        assert verdict.status == "error" and verdict.residual is None
        assert verdict.detail == ("task error (SizingError): dense eigensolve needs "
                                  "dim 1716 > dense cap 1715")

    def test_spectral_task_on_sector_zero_keeps_its_sector(self):
        # sector:0 is a task's own sector, not the full space's default
        # sector:1: its one state is a weight block of 1, while the nu=2,
        # m=2 spin sector's largest block (2 states) is over a dense cap of 1.
        spectral = dict(identity=IdentityId.CASIMIR_SPECTRUM, n=1, nu=2, m=2)
        own = run_task(VerificationTask(**spectral, subspace=0), dense_cap=1)
        assert own.status == "report_only", own.detail
        assert own.detail.startswith("C2 measured [0.0]")
        full = run_task(VerificationTask(**spectral, subspace=None), dense_cap=1)
        assert full.detail == ("task error (SizingError): dense eigensolve needs "
                               "dim 2 > dense cap 1")

    def test_sector_task_never_builds_its_full_space(self):
        # The full space has 2**22 states, over the default cap of 2**20; the
        # sector has 2048, and a sector task is sized and built on it alone.
        shape = dict(n=1, nu=11, m=2, subspace=1)
        verdict = run_task(VerificationTask(IdentityId.CASIMIR_HERMITICITY, **shape))
        assert verdict.status == "pass", verdict.detail
        spectrum = run_task(VerificationTask(IdentityId.CASIMIR_SPECTRUM, **shape))
        assert spectrum.status == "report_only", spectrum.detail
        assert spectrum.residual is not None

    def test_single_mode_identities_note_grid_echo(self):
        verdict = run_task(make_task(IdentityId.QUARTIC_WORD_BRACKET))
        assert _IDENTITIES[verdict.task.identity].space == "one_mode"
        assert "echo" in verdict.detail


def use_cpus(monkeypatch, count):
    """``count`` usable CPUs for ``run_grid``, with every operand cache empty,
    so each run builds its bases and operands afresh."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    for module in (basis_module, operators, verifier):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: A run_grid whose worker tasks end their process at once, run as a script.
DYING_WORKER = """
import os, signal, sys
from gentile import verifier
os.sched_getaffinity = lambda pid: {0, 1}
parent = os.getpid()
def run_task(task, *caps):
    if os.getpid() != parent and sys.argv[1] == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if os.getpid() != parent:
        os._exit(3)
verifier.run_task = run_task
try:
    verifier.run_grid(verifier.default_grid_tasks())
except ChildProcessError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


#: A run_grid whose caller kills itself with SIGKILL, run as a script: its
#: worker's tasks record the worker's pid and take 0.2 s each, and the caller
#: kills itself on its first task, once the worker has recorded its pid.
KILLED_CALLER = """
import os, signal, sys, time
from gentile import verifier
os.sched_getaffinity = lambda pid: {0, 1}
parent, record = os.getpid(), sys.argv[1]
def run_task(task, *caps):
    if os.getpid() == parent:
        deadline = time.monotonic() + 30
        while not os.path.exists(record) and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(parent, signal.SIGKILL)
    with open(record + ".part", "w") as out:
        out.write(str(os.getpid()))
    os.replace(record + ".part", record)
    time.sleep(0.2)
verifier.run_task = run_task
verifier.run_grid(verifier.default_grid_tasks())
"""


def running(pid):
    """Whether ``pid`` is a process that is neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestWorkers:
    """``run_grid`` evaluates its basis groups in one forked worker per
    usable CPU; the verdicts and failures do not depend on the count."""

    @pytest.mark.parametrize("grid", [
        {},
        dict(ns=(1,), nus=(2, 3, 4), ms=(2,), subspaces=(1,)),
    ], ids=["default", "nu2-4-sector1"])
    def test_verdicts_bit_equal_at_every_cpu_count(self, grid, monkeypatch):
        tasks = expand_tasks(**grid) if grid else default_grid_tasks()
        runs = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            runs.append([(v.record(), None if v.residual is None else v.residual.hex())
                         for v in run_grid(tasks)])
        assert len(runs[0]) == len(tasks)
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_exception_keeps_its_type_and_reaps_workers(self, where, monkeypatch):
        use_cpus(monkeypatch, 2)
        parent, run = os.getpid(), verifier.run_task

        def failing(task, *caps):
            if (os.getpid() == parent) == (where == "parent"):
                raise ZeroDivisionError(f"raised in the {where}")
            return run(task, *caps)

        monkeypatch.setattr(verifier, "run_task", failing)
        with pytest.raises(ZeroDivisionError, match=f"raised in the {where}"):
            run_grid(default_grid_tasks())
        assert_no_child_left()

    @pytest.mark.parametrize("how, status", [("kill", "signal 9"), ("exit", "exit status 3")])
    def test_worker_without_result_raises(self, how, status):
        proc = subprocess.run([sys.executable, "-c", DYING_WORKER, how], capture_output=True,
                              text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        lines = proc.stdout.splitlines()
        assert len(lines) == 2, proc.stderr
        assert lines[0].startswith("verify worker ")
        assert lines[0].endswith(f" ended without a result ({status})")
        assert lines[1] == "no child left"

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat")
    def test_worker_ends_with_its_killed_caller(self, tmp_path):
        # A caller killed by SIGKILL runs no finally, so its worker must see
        # that its parent changed; its share would take about 18 s.
        record = tmp_path / "worker"
        proc = subprocess.run([sys.executable, "-c", KILLED_CALLER, str(record)], timeout=60,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == -signal.SIGKILL
        worker = int(record.read_text())
        alive = True
        try:
            deadline = time.monotonic() + 3
            while alive and time.monotonic() < deadline:
                time.sleep(0.05)
                alive = running(worker)
            assert not alive, f"worker {worker} outlived its killed caller"
        finally:
            if alive:
                os.kill(worker, signal.SIGKILL)

    def test_one_worker_where_forking_is_unsafe(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert verifier._usable_cpus() == 3
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert verifier._usable_cpus() == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert verifier._usable_cpus() == 1
        assert len(verifier._shares(default_grid_tasks(), DEFAULT_DIMENSION_CAP)) == 1

    def test_groups_balanced_with_a_fixed_cost(self, monkeypatch):
        # By dimension alone the 4096-state basis outweighs the 17 others
        # together and is left alone in its share; the fixed cost per group
        # gives that share more groups and brings the loads within 5%.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def split():
            shares = verifier._shares(default_grid_tasks(), DEFAULT_DIMENSION_CAP)
            bases = [[] for _ in shares]
            for share, keys in zip(shares, bases):
                for task in share:
                    key = (task.n, *verifier._space(task))
                    if key not in keys:
                        keys.append(key)
                    assert key == keys[-1], "a basis's tasks run together"
            assert len(bases[0]) + len(bases[1]) == 18
            loads = [sum(basis_module.check_dimension(*key, DEFAULT_DIMENSION_CAP)
                         + verifier._GROUP_COST for key in keys) for keys in bases]
            return bases, loads

        bases, loads = split()
        assert bases[0][0] == (3, 3, 2, None) and len(bases[0]) > 1
        assert abs(loads[0] - loads[1]) < 0.05 * max(loads)
        monkeypatch.setattr(verifier, "_GROUP_COST", 0)
        bases, loads = split()
        assert bases[0] == [(3, 3, 2, None)]


class TestIdentityTable:
    ECHO = "; nu/m/subspace echo the grid point only"

    @pytest.mark.parametrize("identity", list(IdentityId))
    def test_one_row_per_identity(self, identity):
        assert list(_IDENTITIES) == list(IdentityId)
        assert (identity in GUARANTEED) != (identity in CONTESTED)
        assert set(GUARANTEED) | CONTESTED == set(IdentityId)
        row = _IDENTITIES[identity]
        assert row.space in ("one_mode", "two_mode", "task", "spectral")
        assert GUARANTEED.get(identity) == row.tolerance
        verdict = run_task(make_task(identity, n=1, interpretation=reading(identity)))
        assert verdict.status != "error", verdict.detail
        assert verdict.detail.endswith(self.ECHO) == (row.space in ("one_mode", "two_mode"))


#: The single-mode relations, each with the modes of the full space it runs on.
SINGLE_MODE_ROWS = {
    IdentityId.LADDER_NBRACKET: 2,
    IdentityId.ANNIHILATOR_PAIR_PHASE: 1,
    IdentityId.CREATOR_PAIR_PHASE: 1,
    IdentityId.OCCUPATION_FUNCTIONS: 1,
    IdentityId.SELF_BRACKET_PLAIN: 1,
    IdentityId.SELF_BRACKET_DEFORMED: 1,
    IdentityId.QUARTIC_WORD_BRACKET: 1,
}


class TestSingleModeSizing:
    """A single-mode relation evaluates on the one space ``run_task`` sized,
    under the task's own cap: no recipe sizes a space of its own."""

    @pytest.fixture
    def sized(self, monkeypatch):
        calls = []
        real = basis_module.check_dimension

        def spy(n, nu, m, sector, cap, dense_cap=None):
            calls.append((nu, m, sector, cap))
            return real(n, nu, m, sector, cap, dense_cap)

        monkeypatch.setattr(basis_module, "check_dimension", spy)
        verifier._single_mode_diffs.cache_clear()
        verifier._ladder_nbracket.cache_clear()
        yield calls
        verifier._single_mode_diffs.cache_clear()
        verifier._ladder_nbracket.cache_clear()

    @pytest.mark.parametrize("identity", list(SINGLE_MODE_ROWS))
    @pytest.mark.parametrize("n", [1, 3])
    def test_every_space_held_to_the_task_cap(self, identity, n, sized):
        cap = DEFAULT_DIMENSION_CAP + 1
        verdict = run_task(VerificationTask(identity, n, 3, 2, 1), dimension_cap=cap)
        assert verdict.status != "error", verdict.detail
        assert sized == [(1, SINGLE_MODE_ROWS[identity], None, cap)]

    def test_lowered_cap_refuses_the_two_mode_space(self, sized):
        # At n=2 the one-mode space has 3 states and the two-mode space 9.
        for identity, modes in SINGLE_MODE_ROWS.items():
            verdict = run_task(VerificationTask(identity, 2, 2, 2, None), dimension_cap=3)
            if modes == 1:
                assert verdict.status != "error", verdict.detail
            else:
                assert (verdict.status, verdict.residual) == ("error", None)
                assert verdict.detail == ("task error (SizingError): full space for "
                                          "(n=2, nu=1, m=2) has dimension 9 > cap 3")
        assert {cap for *_, cap in sized} == {3}


class TestInternalConsistency:
    @pytest.mark.parametrize("nu", [2, 3])
    @pytest.mark.parametrize("subspace", [None, 1])
    def test_limit_and_theorem_recipes_agree_at_order_one(self, nu, subspace):
        assert limit_theorem_agreement(nu, 2, subspace) < 1e-12


# ---------------------------------------------------------------------------
# Fast paths against the sparse-product forms they replace
# ---------------------------------------------------------------------------

#: (n, nu, m) with a full space of at most 4096 states.
ORACLE_GRID = [
    (n, nu, m)
    for n in (1, 2, 3)
    for nu in (2, 3)
    for m in (1, 2, 3)
    if (n + 1) ** (nu * m) <= 4096
]


def subspaces(n, m):
    """The full space and every valid sector."""
    return [None, *range(n * m + 1)]


def occupation_diag(basis, fn, position, state):
    """``occ_f``/``occ_g`` of one mode's occupations, as a pruned diagonal matrix."""
    vals = fn(basis.occupations[:, basis.flat_modes(position, state)], basis.order)
    return to_scipy(as_operator(from_scipy(sp.diags(vals, 0))))


def correction_oracle(basis, k, l):
    """The occupation-function correction as products of diagonal operators."""
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
    for i in range(1, basis.nu + 1):
        fl = occupation_diag(basis, occ_f, i, l)
        gk = occupation_diag(basis, occ_g, i, k)
        fk = occupation_diag(basis, occ_f, i, k)
        gl = occupation_diag(basis, occ_g, i, l)
        total = total + fl @ gk - fk @ gl
    return total


def generator_commutation_oracle(basis):
    """Two generator products per index tuple, diagonal-operator correction."""
    states = range(1, basis.m + 1)
    e = {(k, l): to_scipy(unitary_generator(k, l, basis)) for k, l in product(states, repeat=2)}
    residual = 0.0
    for k, l, p, q in product(states, repeat=4):
        d = e[k, l] @ e[p, q] - e[p, q] @ e[k, l]
        if l == p:
            d = d - e[k, q]
        if q == k:
            d = d + e[p, l]
        if l == p and q == k:
            d = d - 2.0 * correction_oracle(basis, k, l)
        residual = max(residual, max_abs(from_scipy(d)))
    return residual


def ladder_nbracket_oracle(full):
    """Every ordered pair of flat modes, bracketed on the full product space."""
    q = full.order.q
    eye = sp.identity(full.dim, dtype=np.complex128, format="csr")
    residual = 0.0
    for f1, f2 in product(range(full.modes), repeat=2):
        lower = to_scipy(_ladder(full, "b", f1))
        raiser = to_scipy(_ladder(full, "a_dag", f2))
        if f1 == f2:
            diff = lower @ raiser - q * (raiser @ lower) - eye
        else:
            diff = lower @ raiser - raiser @ lower
        residual = max(residual, max_abs(from_scipy(diff)))
    return residual


def sliced_leakage(op, full, sector):
    """Leakage read off the sector's column and row slices."""
    rows = sector.ranks
    outside = np.ones(full.dim, dtype=bool)
    outside[rows] = False
    into = to_scipy(op)[:, rows].tocoo()
    out_of = to_scipy(op)[rows, :].tocoo()
    vals = np.concatenate([into.data[outside[into.row]], out_of.data[outside[out_of.col]]])
    return float(np.abs(vals).max()) if vals.size else 0.0


def position_totals(full):
    """Each position's particle total on every state, one vector per position."""
    return list(full.occupations.reshape(full.dim, full.nu, full.m).sum(axis=2).T)


def conservation_operands(full):
    ops = [exchange_op(i, j, full) for i, j in combinations(range(1, full.nu + 1), 2)]
    ops += [unitary_generator(s, t, full) for s, t in product(range(1, full.m + 1), repeat=2)]
    return ops + [class_sum(full), casimir_c1(full), casimir_c2(full)]


def dense_total_jumps(op, full):
    """``max |A_ij (d_j - d_i)|`` over position totals, on the dense matrix."""
    dense = op.toarray()
    return max(
        np.abs(dense * (d[None, :] - d[:, None])).max() for d in position_totals(full)
    )


def hex_of(residual):
    return None if residual is None else residual.hex()


@pytest.mark.parametrize("n, nu, m", ORACLE_GRID)
class TestFastPathOracles:
    def test_occupation_correction_bit_equal(self, n, nu, m):
        for sub in subspaces(n, m):
            basis = enumerate_basis(nu, m, GentileOrder(n), sector=sub)
            for k, l in product(range(1, m + 1), repeat=2):
                got = verifier._occupation_correction(basis, k, l)
                ref = correction_oracle(basis, k, l)
                assert np.array_equal(got.indptr, ref.indptr)
                assert np.array_equal(got.indices, ref.indices)
                assert np.array_equal(got.data.view(np.uint64), ref.data.view(np.uint64))

    def test_generator_commutation_residual_bit_equal(self, n, nu, m):
        for sub in subspaces(n, m):
            task = VerificationTask(IdentityId.GENERATOR_COMMUTATION, n, nu, m, sub)
            basis = enumerate_basis(nu, m, GentileOrder(n), sector=sub)
            verdict = run_task(task)
            assert hex_of(verdict.residual) == generator_commutation_oracle(basis).hex(), sub

    def test_ladder_nbracket_residual_bit_equal(self, n, nu, m):
        oracle = ladder_nbracket_oracle(enumerate_basis(nu, m, GentileOrder(n))).hex()
        for sub in subspaces(n, m):
            verdict = run_task(VerificationTask(IdentityId.LADDER_NBRACKET, n, nu, m, sub))
            assert hex_of(verdict.residual) == oracle, sub

    def test_sector_conservation_residual_bit_equal(self, n, nu, m):
        # Each task reads the commutators of its own space's operators with
        # that space's position totals.
        for sub in subspaces(n, m):
            basis = enumerate_basis(nu, m, GentileOrder(n), sector=sub)
            totals = [sp.diags(d, 0, format="csr", dtype=np.complex128)
                      for d in position_totals(basis)]
            oracle = max(max_abs(from_scipy(to_scipy(op) @ t - t @ to_scipy(op)))
                         for op in conservation_operands(basis) for t in totals)
            verdict = run_task(VerificationTask(IdentityId.SECTOR_CONSERVATION, n, nu, m, sub))
            assert hex_of(verdict.residual) == oracle.hex(), sub

    def test_leakage_equals_sliced_oracle(self, n, nu, m):
        # The conservation residual reads position-total jumps alone: an entry
        # that leaves a sector changes some integer total by at least 1, so
        # adding the sliced leakage onto any sector changes no bit.  Single
        # ladder letters leave every sector, so their jumps are not 0.
        full = enumerate_basis(nu, m, GentileOrder(n))
        totals = position_totals(full)
        letters = [_ladder(full, name, flat)
                   for name in ("a", "b", "a_dag", "b_dag") for flat in range(full.modes)]
        assert all(verifier._total_jumps(op, totals) > 0.0 for op in letters)
        for sub in range(n * m + 1):
            sector = enumerate_basis(nu, m, full.order, sector=sub)
            for op in conservation_operands(full) + letters:
                jumps = verifier._total_jumps(op, totals)
                assert max(jumps, sliced_leakage(op, full, sector)).hex() == jumps.hex()


class TestFullSpaceMemo:
    """``sector_conservation`` runs on the task's own space: the position-total
    jumps catch a non-conserving operand on the full space, and the word
    kernel's closure check refuses to build it on a sector."""

    def test_non_conserving_operand_fails(self, monkeypatch):
        monkeypatch.setattr(verifier, "casimir_c2", lambda basis: _ladder(basis, "a_dag", 0))
        verdict = run_task(make_task(IdentityId.SECTOR_CONSERVATION, subspace=None))
        assert verdict.status == "fail"
        assert verdict.residual > 0.0

    @pytest.mark.parametrize("name", ["a", "b", "a_dag", "b_dag"])
    def test_lone_letter_operand_fails_on_every_subspace(self, name, monkeypatch):
        # A lone letter in place of the exchange fails on the full space and
        # is a task error on each sector it acts on.  A lowerer acts on no
        # state of sector:0 and a raiser on none of sector:4 (every mode at
        # n=2), so it is the zero operator there and the row passes.
        last = enumerate_basis(2, 2, GentileOrder(2)).modes - 1
        monkeypatch.setattr(verifier, "exchange_op",
                            lambda i, j, basis: _ladder(basis, name, last))
        idle = 0 if name in ("a", "b") else 4
        for sub in subspaces(2, 2):
            verdict = run_task(make_task(IdentityId.SECTOR_CONSERVATION, subspace=sub))
            if sub is None:
                assert verdict.status == "fail", verdict.detail
                assert verdict.residual >= 1.0
            elif sub == idle:
                assert (verdict.status, verdict.residual) == ("pass", 0.0), verdict.detail
            else:
                assert (verdict.status, verdict.residual) == ("error", None), sub
                assert verdict.detail.startswith(
                    f"task error (ValueError): word {name}({last}) leaves the sector:{sub} basis")

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", ["a_dag", "b"])
    def test_total_jumps_match_dense_commutators(self, n, name):
        full = enumerate_basis(2, 2, GentileOrder(n))
        totals = position_totals(full)
        for flat in range(full.modes):
            op = _ladder(full, name, flat)
            expected = dense_total_jumps(op, full)
            got = verifier._total_jumps(op, totals)
            assert got > 0.0
            assert got == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestReducedEvaluations:
    """The ladder and generator recipes read fewer operands than their
    statements name; a defect in an operand they still read must show, and
    the duality recipe keeps every exchange pair because the pairs differ."""

    @pytest.fixture
    def fresh_ladder(self):
        verifier._ladder_nbracket.cache_clear()
        yield
        verifier._ladder_nbracket.cache_clear()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_mode_raiser_defect_fails_ladder_bracket(self, n, monkeypatch, fresh_ladder):
        real = verifier._ladder

        def perturbed(basis, name, flat):
            op = real(basis, name, flat)
            if (basis.nu, basis.m, name, flat) != (1, 2, "a_dag", 1):
                return op
            mat = to_scipy(op)
            mat.data[0] += 1e-3
            return as_operator(from_scipy(mat))

        monkeypatch.setattr(verifier, "_ladder", perturbed)
        verdict = run_task(make_task(IdentityId.LADDER_NBRACKET, n=n))
        assert verdict.status == "fail"
        assert verdict.residual > 1e-4

    @pytest.mark.parametrize("subspace", [None, 1])
    def test_generator_defect_in_one_swap_operand_shows(self, subspace, monkeypatch):
        task = make_task(IdentityId.GENERATOR_COMMUTATION, subspace=subspace)
        clean = run_task(task).residual
        real = verifier.unitary_generator

        def perturbed(k, l, basis):
            op = real(k, l, basis)
            return as_operator(op * (1.0 + 1e-3)) if (k, l) == (2, 1) else op

        monkeypatch.setattr(verifier, "unitary_generator", perturbed)
        monkeypatch.setitem(globals(), "unitary_generator", perturbed)
        residual = run_task(task).residual
        assert residual != clean
        basis = enumerate_basis(2, 2, GentileOrder(2), sector=subspace)
        assert residual.hex() == generator_commutation_oracle(basis).hex()

    def test_duality_keeps_every_exchange_pair(self):
        # At (n=3, nu=3, m=2, full) the pairs' residuals differ in the last
        # bit, and the verdict reads the largest, pair (1,3)'s.
        basis = enumerate_basis(3, 2, GentileOrder(3))
        gens = [unitary_generator(s, t, basis) for s, t in product((1, 2), repeat=2)]
        per_pair = {}
        for i, j in combinations((1, 2, 3), 2):
            tau = exchange_op(i, j, basis)
            per_pair[i, j] = max(max_abs(tau @ g - g @ tau) for g in gens)
        assert {pair: value.hex() for pair, value in per_pair.items()} == {
            (1, 2): "0x1.4e7ae9144f0fep+2",
            (1, 3): "0x1.4e7ae9144f0ffp+2",
            (2, 3): "0x1.4e7ae9144f0fep+2",
        }
        verdict = run_task(VerificationTask(IdentityId.DUALITY_COMMUTATION, 3, 3, 2, None))
        assert verdict.residual.hex() == max(per_pair.values()).hex()
        assert per_pair[1, 2].hex() != verdict.residual.hex()
