"""Tests for the command-line interface."""

import json
import subprocess
import sys

import pytest

from dpm import __version__, cli, verify
from dpm.cli import main
from dpm.measures import DiscreteMeasure


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "5", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        for line in lines:
            zeta = DiscreteMeasure.from_dict(json.loads(line))
            assert zeta.is_probability()

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "sample", "--n", "3", "--seed", "11")
        _, second, _ = run_cli(capsys, "sample", "--n", "3", "--seed", "11")
        assert first == second

    def test_random_seed_varies(self, capsys):
        _, first, _ = run_cli(capsys, "sample", "--n", "2", "--seed", "random")
        _, second, _ = run_cli(capsys, "sample", "--n", "2", "--seed", "random")
        assert first != second

    def test_gamma_construction(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--n", "2", "--seed", "3", "--construction", "gamma"
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "draws.jsonl"
        code, out, _ = run_cli(
            capsys, "sample", "--n", "2", "--seed", "5", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert len(target.read_text().splitlines()) == 2

    def test_alpha_base_conflict(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sample",
            "--alpha", "3.0",
            "--base", '{"alpha": 2.0, "atoms": [1.0], "diffuse": 0.0}',
        )
        assert code == 2
        assert "conflicts" in err

    def test_bad_base_json(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--base", "{not json")
        assert code == 2
        assert "dpm: error" in err

    def test_negative_n_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "-3")
        assert code == 2
        assert out == ""
        assert "n must be non-negative" in err


class TestMoments:
    def test_csv_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--alphas", "1,1", "--max-degree", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k0,k1,exact,recursion,abs_diff"
        table = {tuple(row.split(",")[:2]): row.split(",")[2:] for row in lines[1:]}
        # Uniform two-block split: E Z1 = 1/2 and E Z1 Z2 = 1/6.
        assert float(table[("1", "0")][0]) == pytest.approx(0.5, rel=1e-12)
        assert float(table[("1", "1")][0]) == pytest.approx(1 / 6, rel=1e-12)
        assert all(float(cols[2]) < 1e-12 for cols in table.values())

    def test_cross_moment_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--alphas", "2,3", "--max-degree", "2",
            "--method", "exact", "--format", "csv",
        )
        assert code == 0
        rows = dict(
            (tuple(line.split(",")[:2]), float(line.split(",")[2]))
            for line in out.splitlines()[1:]
        )
        # E Z1 Z2 = (2*3)/(5*6) for a two-block split of total mass 5.
        assert rows[("1", "1")] == pytest.approx(0.2, rel=1e-12)

    def test_json_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--alphas", "0.5,1.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["tool"] == "dpm"
        assert payload["version"] == __version__
        assert payload["command"] == "moments"
        assert payload["max_degree"] == 4
        assert len(payload["entries"]) == 15

    def test_bad_alphas(self, capsys):
        assert run_cli(capsys, "moments", "--alphas", "1,oops")[0] == 2
        assert run_cli(capsys, "moments", "--alphas", "0,0")[0] == 2


class TestVerify:
    def test_json_envelope_and_exit_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "tbeta", "--n", "20000", "--seed", "42"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["command"] == "verify"
        assert payload["campaign"] == "tbeta"
        assert payload["config"]["n"] == 20000
        assert payload["config"]["seed"] == 42
        assert payload["n_reports"] == len(payload["reports"])
        assert "unexpected outcomes" in err

    def test_reruns_are_byte_identical(self, capsys):
        args = ("verify", "tbeta", "--n", "20000", "--seed", "42")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_tiny_threshold_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "tbeta", "--n", "20000", "--seed", "42",
            "--threshold", "0.001",
        )
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "tbeta", "--n", "20000", "--seed", "42",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("name,kind,statistic")
        assert len(lines) > 10
        # Numeric cells are plain round-trippable floats, not array reprs.
        assert "np.float" not in out
        import csv as _csv
        import io as _io
        for row in _csv.DictReader(_io.StringIO(out)):
            assert float(row["statistic"]) == float(row["statistic"])
            assert row["n_samples"] == "20000"

    def test_probe_appends_reports(self, capsys):
        base_args = ("verify", "tbeta", "--n", "20000", "--seed", "42")
        _, plain, _ = run_cli(capsys, *base_args)
        _, probed, _ = run_cli(capsys, *base_args, "--probe-symmetric", "--depth", "4")
        n_plain = json.loads(plain)["n_reports"]
        payload = json.loads(probed)
        assert payload["config"]["probe_symmetric"] is True
        assert payload["n_reports"] == n_plain + 5
        assert payload["ok"] is True
        kinds = {r["kind"] for r in payload["reports"]}
        assert "probe" in kinds

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"n": 5000, "seed": 7, "p": 0.4}))
        code, out, _ = run_cli(
            capsys, "verify", "tbeta", "--config", str(cfg), "--n", "20000"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["n"] == 20000  # flag wins
        assert payload["config"]["seed"] == 7   # config fills the gap
        assert payload["config"]["p"] == 0.4

    def test_env_jobs_is_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("DPM_JOBS", "2")
        _, out, _ = run_cli(capsys, "verify", "tbeta", "--n", "20000", "--seed", "42")
        assert json.loads(out)["config"]["jobs"] == 2

    def test_usage_errors(self, capsys, tmp_path):
        assert run_cli(capsys, "verify", "tbeta", "--p", "1.5")[0] == 2
        assert run_cli(capsys, "verify", "tbeta", "--n", "1")[0] == 2
        assert run_cli(
            capsys, "verify", "tbeta",
            "--alpha", "3.0",
            "--base", '{"alpha": 2.0, "atoms": [1.0], "diffuse": 0.0}',
        )[0] == 2
        missing = tmp_path / "absent.json"
        assert run_cli(capsys, "verify", "tbeta", "--config", str(missing))[0] == 2
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert run_cli(capsys, "verify", "tbeta", "--config", str(bad))[0] == 2

    def test_invalid_campaign_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_sizebias_with_atomic_base_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "sizebias", "--n", "20000",
            "--base", '{"alpha": 2.0, "atoms": [0.4, 0.6], "diffuse": 0.0}',
        )
        assert code == 2
        assert "diffuse" in err

    def test_n_reaching_control_streams_is_usage_error(self, capsys, monkeypatch):
        # With 2-sample shards, n = 100_001 needs a 50_001st shard, whose
        # substream is the control's first.
        monkeypatch.setattr(verify, "SHARD_SIZE", 2)
        code, out, err = run_cli(capsys, "verify", "tbeta", "--n", "100001")
        assert code == 2
        assert out == ""
        assert "shards" in err

    def test_truncation_levels_are_usage_errors(self, capsys, monkeypatch):
        # Rejected before any campaign runs, not reported as failed tests.
        def no_campaign(*args, **kwargs):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr(cli, "run_verify", no_campaign)
        for flag, value in (("--jump-eps", "0.5"), ("--jump-eps", "0"), ("--eps", "1.0"),
                            ("--eps", "-1e-12")):
            code, out, err = run_cli(
                capsys, "verify", "sethuraman", "--construction", "gamma", "--n", "2000",
                f"{flag}={value}",
            )
            assert code == 2
            assert out == ""
            assert "eps must lie in" in err


class TestCharacterize:
    def test_json_envelope(self, capsys):
        code, out, err = run_cli(
            capsys, "characterize", "--n", "50000", "--seed", "9", "--depth", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "characterize"
        assert payload["report"]["verdict"] == "pass"
        assert len(payload["report"]["rows"]) == 3
        assert "p_hat" in err

    def test_p_known_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "characterize", "--n", "50000", "--seed", "9",
            "--depth", "3", "--p-known",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["p_known"] is True
        assert payload["report"]["p_hat"] == 0.3

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "characterize", "--n", "50000", "--seed", "9",
            "--depth", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "degree,predicted,empirical,reference,stderr,z,condition"
        assert len(lines) == 4

    def test_symmetric_point_is_degenerate_not_failing(self, capsys):
        code, out, _ = run_cli(
            capsys, "characterize", "--p", "0.5", "--n", "50000", "--seed", "9",
            "--depth", "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["verdict"] == "degenerate"
        assert payload["report"]["ill_conditioned"] is True

    def test_tiny_threshold_exits_one(self, capsys):
        code, _, _ = run_cli(
            capsys, "characterize", "--n", "50000", "--seed", "9",
            "--depth", "4", "--threshold", "0.001",
        )
        assert code == 1

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "characterize", "--p", "0")[0] == 2
        assert run_cli(capsys, "characterize", "--n", "50")[0] == 2
        assert run_cli(capsys, "characterize", "--depth", "12", "--n", "500")[0] == 2


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dpm", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    def test_subprocess_byte_identity(self):
        cmd = [
            sys.executable, "-m", "dpm", "verify", "tbeta",
            "--n", "20000", "--seed", "42",
        ]
        a = subprocess.run(cmd, capture_output=True).stdout
        b = subprocess.run(cmd, capture_output=True).stdout
        assert a == b and a
