"""Command-line surface: exit codes, report files, determinism."""

import contextlib
import csv
import io
import json
import os
import tempfile
import time

import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gentile import basis as basis_module
from gentile.basis import largest_weight_block
from gentile.cli import main
from gentile.operators import as_operator, casimir_c2, class_sum
from gentile.reporting import csv_bytes, json_bytes


def run_cli(args):
    return main(list(args))


def read_json(path):
    with open(path, "rb") as handle:
        return json.load(handle)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestVerifyCommand:
    def test_sector_grid_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "verify", "--n", "1..3", "--nu", "2", "--m", "2",
                "--subspace", "sector:1", "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["version"]
        assert payload["config"]["seed"] == 42
        assert payload["config"]["tolerances"]["self_bracket_plain"] == 1e-12
        assert "generated_at" in payload
        # one verdict per identity per order, plus the extra interpretation
        assert len(payload["verdicts"]) == 3 * (14 - 1 + 2)
        statuses = {v["status"] for v in payload["verdicts"]}
        assert statuses == {"pass", "report_only"}
        summary = capsys.readouterr().out
        assert "ladder_nbracket_identity" in summary

    def test_reruns_byte_identical_without_timestamp(self, tmp_path):
        report = tmp_path / "a.json"
        args = [
            "verify", "--n", "1", "--nu", "2", "--m", "2",
            "--subspace", "sector:1", "--no-timestamp", "--out", str(report),
        ]
        assert run_cli(args) == 0
        first_bytes = report.read_bytes()
        assert run_cli(args) == 0
        assert report.read_bytes() == first_bytes
        assert "generated_at" not in read_json(report)

    def test_csv_and_json_carry_identical_numbers(self, tmp_path):
        json_out = tmp_path / "r.json"
        csv_out = tmp_path / "r.csv"
        base = ["verify", "--n", "1,2", "--nu", "2", "--m", "2", "--subspace", "both"]
        assert run_cli(base + ["--format", "json", "--out", str(json_out)]) == 0
        assert run_cli(base + ["--format", "csv", "--out", str(csv_out)]) == 0
        records = read_json(json_out)["verdicts"]
        rows = read_csv(csv_out)
        assert len(records) == len(rows)
        for record, row in zip(records, rows):
            assert record["identity"] == row["identity"]
            if record["residual"] is None:
                assert row["residual"] == ""
            else:
                assert float(row["residual"]) == record["residual"]
            assert float(row["tolerance"]) == record["tolerance"]

    def test_sampled_mode(self, tmp_path):
        out = tmp_path / "s.json"
        code = run_cli(
            [
                "verify", "--n", "1", "--nu", "2", "--m", "2",
                "--subspace", "sector:1", "--mode", "sampled", "--k", "64",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert all(
            v["mode"] == "sampled" for v in read_json(out)["verdicts"]
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_mode_k_seed_only_echoed(self, fmt, tmp_path, monkeypatch, capsys):
        # The report of --mode sampled --k 64 --seed 7, with the echoed values
        # set back to their defaults, is the plain report byte for byte.
        monkeypatch.chdir(tmp_path)
        out = ["--format", fmt, "--no-timestamp", "--out", f"v.{fmt}"]
        assert run_cli(["verify", *out]) == 0
        plain = (tmp_path / f"v.{fmt}").read_bytes()
        assert run_cli(["verify", "--mode", "sampled", "--k", "64", "--seed", "7", *out]) == 0
        echoed = (tmp_path / f"v.{fmt}").read_text()
        defaults = {"mode": "dense", "k": 64, "seed": 42}
        keys = ["identity", "n", "nu", "m", "subspace", "interpretation", "mode", "k", "seed",
                "residual", "tolerance", "status", "detail"]
        if fmt == "json":
            payload = json.loads(echoed)
            records = payload["verdicts"]
            assert all(list(record) == keys for record in records)
            assert {r["mode"] for r in records} == {"sampled"} and payload["config"]["seed"] == 7
            for record in [payload["config"], *records]:
                record.update(defaults)
            assert json_bytes(payload) == plain
        else:
            header, *rows = csv.reader(io.StringIO(echoed))
            assert header == keys
            assert {tuple(row[6:9]) for row in rows} == {("sampled", "64", "7")}
            rows = [row[:6] + ["dense", "64", "42"] + row[9:] for row in rows]
            assert csv_bytes(header, rows) == plain
        capsys.readouterr()

    def test_dense_over_cap_exits_three(self, tmp_path, capsys):
        # The spin sector of nu=3, m=2 has weight blocks of 3 states.
        code = run_cli(
            [
                "verify", "--n", "4", "--nu", "3", "--m", "2", "--dense-cap", "2",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 3
        assert "dense" in capsys.readouterr().err

    def test_sector_tasks_sized_by_their_sector(self, tmp_path, capsys, monkeypatch):
        # Every row of a sector:1 grid runs on the 128-state sector, never on
        # the full space (2**14 states): the only full spaces enumerated are
        # the one- and two-mode spaces of the single-mode relations.
        enumerated = []
        real = basis_module._enumerate_cached

        def recording(nu, m, order, sector):
            enumerated.append((nu, sector))
            return real(nu, m, order, sector)

        monkeypatch.setattr(basis_module, "_enumerate_cached", recording)
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", "1", "--nu", "7", "--m", "2", "--subspace",
                        "sector:1", "--no-timestamp", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert (7, 1) in enumerated
        assert {nu for nu, sector in enumerated if sector is None} <= {1}
        verdicts = read_json(out)["verdicts"]
        assert all(v["residual"] is not None for v in verdicts)

    def test_bad_subspace_exits_three(self, tmp_path, capsys):
        code = run_cli(["verify", "--subspace", "half", "--out", str(tmp_path / "x")])
        assert code == 3
        capsys.readouterr()

    def test_bad_range_exits_three(self, tmp_path, capsys):
        code = run_cli(["verify", "--n", "abc", "--out", str(tmp_path / "x")])
        assert code == 3
        capsys.readouterr()


class TestSpectrumCommand:
    def test_compare_csv_rows(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run_cli(
            [
                "spectrum", "--nu", "2", "--m", "2", "--n", "1",
                "--compare", "--format", "csv", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        ed = [r for r in rows if r["source"] == "ed"]
        assert {(r["eigenvalue"], r["multiplicity"]) for r in ed} == {
            ("-1.0", "1"),
            ("1.0", "3"),
        }
        assert any(r["source"].startswith("casimir:shifted") for r in rows)

    def test_three_spin_partition_rows(self, tmp_path):
        out = tmp_path / "spec3.csv"
        assert run_cli(
            [
                "spectrum", "--nu", "3", "--m", "2", "--n", "1",
                "--compare", "--format", "csv", "--out", str(out),
            ]
        ) == 0
        rows = read_csv(out)
        target = [
            r for r in rows
            if r["source"].startswith("casimir:shifted")
            and r["partition"] == "(2,1)"
            and r["eigenvalue"] == "0.0"
        ]
        assert target

    def test_singular_prefactor_flagged(self, tmp_path):
        out = tmp_path / "sing.csv"
        assert run_cli(
            [
                "spectrum", "--nu", "2", "--m", "2", "--n", "3",
                "--compare", "--format", "csv", "--out", str(out),
            ]
        ) == 0
        rows = read_csv(out)
        flagged = [r for r in rows if r["flag"] == "singular"]
        assert flagged and all("gentile" in r["source"] for r in flagged)

    def test_sizing_exits_three(self, tmp_path, capsys):
        # 3**10 states; the largest weight block 10!/(4!3!3!) = 4200 is over
        # the dense cap
        code = run_cli(
            [
                "spectrum", "--nu", "10", "--m", "3", "--n", "3",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_sector_sized_by_its_own_dimension(self, tmp_path, capsys):
        # the full space 3**16 is over the default cap; the sector has 2**8 states
        out = tmp_path / "s.json"
        assert run_cli(["spectrum", "--n", "2", "--nu", "8", "--m", "2", "--out", str(out)]) == 0
        ed = read_json(out)["spectra"][0]["ed"]
        assert sum(level["multiplicity"] for level in ed) == 256
        capsys.readouterr()

    def test_dense_eigensolve_cap_exits_three(self, tmp_path, capsys):
        # the 2**15-state sector enumerates under the cap, but its largest
        # weight block C(15, 7) = 6435 is too large to solve densely; it is
        # refused at once, before the Hamiltonian is built
        built = class_sum.cache_info().misses
        started = time.perf_counter()
        code = run_cli(["spectrum", "--nu", "15", "--m", "2", "--out", str(tmp_path / "x.json")])
        assert time.perf_counter() - started < 1.0
        assert code == 3
        err = capsys.readouterr().err
        assert "dense eigensolve needs dim 6435 > dense cap 4096" in err
        assert class_sum.cache_info().misses == built
        assert not (tmp_path / "x.json").exists()

    def test_sector_over_dense_cap_solved_by_blocks(self, tmp_path, capsys):
        # 2**13 states, over the dense cap of 4096; the largest weight block
        # C(13, 6) = 1716 is under it
        out = tmp_path / "x.json"
        assert run_cli(["spectrum", "--nu", "13", "--m", "2", "--out", str(out)]) == 0
        ed = read_json(out)["spectra"][0]["ed"]
        assert sum(level["multiplicity"] for level in ed) == 2**13
        capsys.readouterr()

    def test_every_point_sized_before_any_solve(self, tmp_path, capsys):
        # nu=2 fits, nu=15 does not: the whole grid is refused before the
        # first point is built.
        built = class_sum.cache_info().misses
        code = run_cli(["spectrum", "--nu", "2,15", "--m", "2",
                        "--out", str(tmp_path / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "dense eigensolve needs dim 6435 > dense cap 4096" in err
        assert class_sum.cache_info().misses == built
        assert not (tmp_path / "x.json").exists()

    def test_single_particle_rejected(self, tmp_path, capsys):
        code = run_cli(["spectrum", "--nu", "1", "--out", str(tmp_path / "x.json")])
        assert code == 3
        capsys.readouterr()


class TestPartitionsCommand:
    def test_listing_four(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli(["partitions", "--N", "4", "--m", "4", "--out", str(out)]) == 0
        table = read_json(out)["partitions"]
        assert [tuple(e["partition"]) for e in table] == [
            (4, 0, 0, 0),
            (3, 1, 0, 0),
            (2, 2, 0, 0),
            (2, 1, 1, 0),
            (1, 1, 1, 1),
        ]

    def test_spot_values(self, tmp_path):
        out = tmp_path / "p2.json"
        assert run_cli(["partitions", "--N", "2", "--m", "2", "--out", str(out)]) == 0
        table = read_json(out)["partitions"]
        by_partition = {tuple(e["partition"]): e for e in table}
        assert by_partition[(2, 0)]["s2"] == 8
        assert by_partition[(2, 0)]["casimir2_shifted"] == 6
        assert by_partition[(2, 0)]["weyl_dimension"] == 3
        assert by_partition[(1, 1)]["s2"] == 4
        assert by_partition[(1, 1)]["casimir2_shifted"] == 2
        assert by_partition[(1, 1)]["weyl_dimension"] == 1

    def test_zero_single_row(self, tmp_path):
        out = tmp_path / "p0.json"
        assert run_cli(["partitions", "--N", "0", "--m", "3", "--out", str(out)]) == 0
        table = read_json(out)["partitions"]
        assert len(table) == 1 and table[0]["partition"] == [0, 0, 0]

    def test_negative_rejected(self, tmp_path, capsys):
        assert run_cli(["partitions", "--N", "-1", "--out", str(tmp_path / "x")]) == 3
        capsys.readouterr()


@pytest.mark.parametrize(
    "args, message",
    [
        (["spectrum", "--nu", "3", "--sector", "5"], "per-position total 5"),
        (["spectrum", "--nu", "3", "--n", "2", "--sector", "2"], "not Hermitian"),
        (["spectrum", "--nu", "2", "--n", "0"], "maximum occupation"),
        (["verify", "--mode", "sampled", "--k", "5"], "k >= 32"),
        (["verify", "--n", "1", "--nu", "2", "--subspace", "sector:5"], "per-position total 5"),
    ],
)
def test_library_errors_exit_three(args, message, tmp_path, capsys):
    assert run_cli(args + ["--out", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("gentile: error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_contested_task_error_exits_three_and_keeps_report(tmp_path, capsys):
    # The spectral comparison solves densely, so a dense cap below its largest
    # weight block (2 states) makes the contested identity a task error, not
    # a failure.
    out = tmp_path / "v.json"
    args = ["verify", "--mode", "sampled", "--dense-cap", "1", "--n", "1", "--nu", "2",
            "--m", "2", "--subspace", "full", "--no-timestamp", "--out", str(out)]
    assert run_cli(args) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("gentile: error: ") and captured.err.count("\n") == 1
    assert "dense eigensolve needs dim 2 > dense cap 1" in captured.err
    verdicts = read_json(out)["verdicts"]
    errors = [v for v in verdicts if v["status"] == "error"]
    assert [v["identity"] for v in errors] == ["casimir_spectrum_match"]
    assert errors[0]["residual"] is None
    assert errors[0]["detail"].startswith("task error (SizingError): ")
    assert {v["status"] for v in verdicts} == {"pass", "report_only", "error"}
    assert "error" in captured.out.splitlines()[1].split()


def coupled(build):
    """``build`` plus a Hermitian pair of entries between states 0 and 1, which
    on the nu=2, m=2 spin sector have the weights (2, 0) and (1, 1)."""
    def patched(basis):
        couple = sp.csr_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(basis.dim, basis.dim))
        return as_operator(build(basis) + couple)
    return patched


def test_spectrum_sizes_each_point_once(tmp_path, capsys):
    # The pre-flight sizes each point and spectrum_report reuses the count.
    largest_weight_block.cache_clear()
    out = tmp_path / "s.json"
    assert run_cli(["spectrum", "--nu", "2..4", "--m", "2", "--no-timestamp",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    info = largest_weight_block.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_block_coupling_refused_by_spectrum(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("gentile.heisenberg.class_sum", coupled(class_sum))
    out = tmp_path / "x.json"
    assert run_cli(["spectrum", "--nu", "2", "--m", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("gentile: error: entry (0, 1) couples weight blocks")
    assert not out.exists()


def test_block_coupling_is_a_verify_task_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("gentile.verifier.casimir_c2", coupled(casimir_c2))
    out = tmp_path / "v.json"
    assert run_cli(["verify", "--n", "1", "--nu", "2", "--m", "2", "--subspace", "sector:1",
                    "--no-timestamp", "--out", str(out)]) == 3
    capsys.readouterr()
    spectral = [v for v in read_json(out)["verdicts"]
                if v["identity"] == "casimir_spectrum_match"]
    assert [v["status"] for v in spectral] == ["error"]
    assert spectral[0]["detail"].startswith(
        "task error (ValueError): entry (0, 1) couples weight blocks")


@pytest.mark.parametrize("args, key", [
    (["verify", "--n", "1", "--nu", "2", "--m", "2"], "verdicts"),
    (["partitions", "--N", "4", "--m", "3"], "partitions"),
])
def test_csv_header_is_the_json_record_keys(args, key, tmp_path, capsys):
    json_out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
    assert run_cli(args + ["--out", str(json_out)]) == 0
    assert run_cli(args + ["--format", "csv", "--out", str(csv_out)]) == 0
    records = read_json(json_out)[key]
    with open(csv_out, newline="") as handle:
        header = next(csv.reader(handle))
    assert header == list(records[0])
    assert [list(row) for row in read_csv(csv_out)] == [header] * len(records)
    capsys.readouterr()


class TestGridGuards:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["verify", "--n", "1..1000000000000"], "--n holds more than 10000 values"),
            (["verify", "--nu", "2,1..10000"], "--nu holds more than 10000 values"),
            (["spectrum", "--nu", "2..10002"], "--nu holds more than 10000 values"),
            (["verify", "--n", "1..200", "--nu", "2..201", "--m", "2"],
             "grid expands to 1200000 tasks > limit 10000"),
            (["verify", "--n", "1,1", "--nu", "2", "--m", "2"], "--n repeats 1"),
            (["verify", "--n", "1", "--nu", "2", "--m", "2", "--subspace", "both,full"],
             "--subspace repeats full"),
            (["verify", "--subspace", "sector:1,both"], "--subspace repeats sector:1"),
            (["spectrum", "--nu", "2,1..3"], "--nu repeats 2"),
            # Counted from the list lengths, before a 10**8-step sector loop.
            (["verify", "--n", "1..10000", "--m", "1..10000", "--subspace", "sector:1"],
             "grid expands to 3000000000 tasks > limit 10000"),
            (["verify", "--n", "0..2"], "orders must be >= 1, got 0"),
            (["verify", "--m", "0,2"], "--m must be >= 1"),
            (["verify", "--n", "1", "--subspace", "sector:3"], "per-position total 3"),
            # Every point is sized first; nu=15 is the first whose largest
            # weight block is over the dense cap.
            (["spectrum", "--nu", "2..10000", "--m", "2"],
             "dense eigensolve needs dim 6435 > dense cap 4096"),
        ],
    )
    def test_refused_before_the_grid_is_built(self, args, message, monkeypatch, tmp_path,
                                              capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("VerificationTask built")

        monkeypatch.setattr("gentile.verifier.VerificationTask", refuse)
        assert run_cli(args + ["--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("gentile: error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("total", ["33", "100", "1000000000000"])
    def test_partition_table_refused_before_enumeration(self, total, monkeypatch, tmp_path,
                                                         capsys):
        # --m defaults to N; p(33) = 10143 rows is the first table over the limit.
        def refuse(*args, **kwargs):
            raise AssertionError("partitions_of called")

        monkeypatch.setattr("gentile.partitions.partitions_of", refuse)
        assert run_cli(["partitions", "--N", total, "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("gentile: error: ") and "more than 10000 rows" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("parts", ["3000", "1000000000000"])
    def test_partition_table_work_refused_before_building(self, parts, monkeypatch, tmp_path,
                                                          capsys):
        # Two rows, but each is padded to m parts: rows x m**2 is over the limit.
        def refuse(*args, **kwargs):
            raise AssertionError("partition_table called")

        monkeypatch.setattr("gentile.cli.partition_table", refuse)
        args = ["partitions", "--N", "2", "--m", parts, "--out", str(tmp_path / "x.json")]
        assert run_cli(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("gentile: error: ") and "steps > limit 10000000" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("nu", ["5000", "100000"])
    def test_huge_dimension_refused_by_its_bound(self, nu, tmp_path, capsys):
        # The power is multiplied out only until it passes the cap.
        assert run_cli(["spectrum", "--nu", nu, "--m", "2", "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err == (f"gentile: error: sector 1 for (n=1, nu={nu}, m=2) has dimension "
                       "more than cap 1048576\n")

    def test_largest_default_partition_table_is_built(self, monkeypatch, tmp_path, capsys):
        # p(32) = 8349 rows is under the limit; the table itself takes seconds.
        built = []
        monkeypatch.setattr("gentile.cli.partition_table", lambda *a: built.append(a) or [])
        assert run_cli(["partitions", "--N", "32", "--out", str(tmp_path / "p.json")]) == 0
        assert built == [(32, 32)]
        capsys.readouterr()


class TestOutputHandling:
    def test_env_var_default_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GENTILE_OUTPUT_DIR", str(tmp_path))
        assert run_cli(["partitions", "--N", "2", "--m", "2"]) == 0
        assert (tmp_path / "partitions_report.json").exists()
        capsys.readouterr()

    def test_atomic_overwrite_leaves_no_temp_files(self, tmp_path):
        out = tmp_path / "p.json"
        for _ in range(2):
            assert run_cli(
                ["partitions", "--N", "3", "--m", "2", "--out", str(out)]
            ) == 0
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-report-")]
        assert leftovers == []
        assert read_json(out)["config"]["N"] == 3

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "1", "--nu", "2", "--m", "2", "--subspace", "sector:1"],
        ["spectrum", "--nu", "2", "--m", "2"],
        ["partitions", "--N", "3", "--m", "2"],
    ])
    def test_unwritable_report_exits_three(self, argv, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        folder = tmp_path / "folder"
        folder.mkdir()
        # A report under a regular file, onto a directory (the temp file is
        # written, then the rename fails), and under an output dir that is a file.
        for extra, path in ((["--out", str(blocker / "x.json")], str(blocker / "x.json")),
                            (["--out", str(folder)], str(folder)),
                            ([], str(blocker))):
            if not extra:
                monkeypatch.setenv("GENTILE_OUTPUT_DIR", str(blocker))
            assert run_cli(argv + extra) == 3
            err = capsys.readouterr().err
            assert err.startswith("gentile: error: cannot write report ") and path in err
            assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["file", "folder"]
        assert os.listdir(folder) == []

    @pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
    def test_report_mode_follows_umask(self, umask, tmp_path, capsys):
        out = tmp_path / "p.json"
        previous = os.umask(umask)
        try:
            assert run_cli(["partitions", "--N", "3", "--m", "2", "--out", str(out)]) == 0
            assert out.stat().st_mode & 0o777 == 0o666 & ~umask
            # A rewrite gives the same mode, as a plain open() would.
            assert run_cli(["partitions", "--N", "3", "--m", "2", "--out", str(out)]) == 0
            assert out.stat().st_mode & 0o777 == 0o666 & ~umask
        finally:
            os.umask(previous)
        capsys.readouterr()


# ---------------------------------------------------------------------------
# The exit-code contract as a property over argv drawn from the flag grammar
# ---------------------------------------------------------------------------

#: Seconds any drawn run may take.  Caps are drawn small, so accepted runs
#: are small too (the largest partition table, N=32, takes about 2 s), and a
#: refusal takes milliseconds.
BUDGET_S = 10.0

INTS = st.one_of(st.integers(1, 3), st.integers(-2, 12), st.integers(-10**15, 10**15))
CAPS = st.one_of(st.just(64), st.integers(-1, 64)).map(str)
FORMATS = st.sampled_from(["json", "csv", "xml"])


def grid_flag():
    """A value list: integers and ranges, repeats allowed, or malformed text."""
    item = st.one_of(INTS.map(str), st.tuples(INTS, INTS).map(lambda r: f"{r[0]}..{r[1]}"))
    return st.one_of(
        INTS.map(str),
        st.lists(item, min_size=1, max_size=3).map(",".join),
        st.sampled_from(["", "..", "2..", "..3", "x", "1,,2", "2,2", "1..3,2", "1.5", "1..2..3"]),
    )


SUBSPACES = st.one_of(
    INTS.map(lambda t: f"sector:{t}"),
    st.lists(st.sampled_from(["full", "both", "sector:0", "sector:1", "sector:2", "sector:",
                              "sector:x", "half"]), min_size=1, max_size=3).map(",".join),
)
READINGS = st.lists(st.sampled_from(["entrywise", "hermitian", "both", "real"]),
                    min_size=1, max_size=2).map(",".join)


def command(name, required, optional, switches=()):
    """``[name, flags...]``: the required flags, any of the optional ones and
    of the switches, in a drawn order."""
    flags = st.fixed_dictionaries(required, optional=optional)
    chosen = st.lists(st.sampled_from(["--no-timestamp", *switches]), unique=True)
    return st.tuples(flags, chosen).flatmap(lambda fs: st.permutations(
        [[flag, value] for flag, value in fs[0].items()] + [[s] for s in fs[1]]
    )).map(lambda parts: [name] + [token for part in parts for token in part])


ARGV = st.one_of(
    command("verify", {"--cap": CAPS}, {
        "--n": grid_flag(), "--nu": grid_flag(), "--m": grid_flag(), "--subspace": SUBSPACES,
        "--interpretation": READINGS, "--mode": st.sampled_from(["dense", "sampled", "exact"]),
        "--k": INTS.map(str), "--seed": INTS.map(str), "--format": FORMATS, "--dense-cap": CAPS,
    }),
    command("spectrum", {"--cap": CAPS}, {
        "--nu": grid_flag(), "--m": grid_flag(), "--n": grid_flag(), "--sector": INTS.map(str),
        "--variant": st.sampled_from(["raw", "shifted", "both", "none"]), "--format": FORMATS,
    }, switches=("--compare",)),
    command("partitions", {}, {
        "--N": st.one_of(INTS.map(str), st.just("x")), "--m": INTS.map(str), "--format": FORMATS,
    }),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV)
# Refused at once: a dimension multiplied out in full, a table padded to 3000 parts.
@example(argv=["spectrum", "--nu", "100000", "--m", "2"])
# A sector over the dense cap whose largest weight block fits it, and one whose
# block does not, refused before any Hamiltonian is built.
@example(argv=["spectrum", "--nu", "13", "--m", "2"])
@example(argv=["spectrum", "--nu", "15", "--m", "2"])
@example(argv=["partitions", "--N", "2", "--m", "3000"])
# A composition count looped over every one of m parts.
@example(argv=["spectrum", "--nu", "2", "--m", "1000000000", "--cap", "4"])
# Ladder amplitudes listed for every level up to n on a one-state sector.
@example(argv=["verify", "--n", "10000000", "--nu", "2", "--m", "1", "--subspace", "sector:1",
               "--cap", "4"])
# Single-mode spaces built past --cap.
@example(argv=["verify", "--n", "1000000", "--nu", "2", "--m", "1", "--cap", "4"])
def test_exit_code_contract(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        try:
            code = main(argv + ["--out", os.path.join(tmp, "report")])
        except SystemExit as exc:  # argparse refuses through exit(3)
            code = exc.code
        elapsed = time.perf_counter() - started
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 3:  # argparse refusals carry the same prefix as every other
        assert err.getvalue().startswith("gentile: error: "), argv
    assert elapsed < BUDGET_S, (argv, elapsed)
