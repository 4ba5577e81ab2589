"""Command-line surface: exit codes, report files, determinism."""

import csv
import json
import os

import pytest

from gentile.cli import main


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

    def test_dense_over_cap_exits_three(self, tmp_path, capsys):
        code = run_cli(
            [
                "verify", "--n", "4", "--nu", "3", "--m", "2",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 3
        assert "dense" in capsys.readouterr().err

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
        code = run_cli(
            [
                "spectrum", "--nu", "8", "--m", "3", "--n", "3",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 3
        assert "cap" in capsys.readouterr().err

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
