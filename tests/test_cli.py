"""Tests for the command-line interface."""

import csv
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import dpm
from dpm import __version__, characterize, cli, samplers, verify
from dpm.cli import main
from dpm.measures import BaseModel
from dpm.samplers import RngStream, sample_jump_measure
from dpm.verify import CampaignSettings


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_campaign(*args, **kwargs):
    """Stands in for run_verify where a usage error must stop the run first."""
    raise AssertionError("a campaign ran")


BASE = {"alpha": 3.0, "atoms": [0.5], "diffuse": 0.5}

# For every setting of `dpm verify`: the flag that sets a value, and the
# value the JSON payload echoes.
FLAGS = {
    "seed": (("--seed", "7"), 7),
    "base": (("--base", json.dumps(BASE)), BASE),
    "alpha": (("--alpha", "3"), 3),
    "p": (("--p", "0.4"), 0.4),
    "n": (("--n", "3000"), 3000),
    "jobs": (("--jobs", "2"), 2),
    "construction": (("--construction", "gamma"), "gamma"),
}


# The settings `dpm sample` and `dpm characterize` take; `dpm verify` takes
# all of them.
TAKES = {
    "sample": ("alpha", "seed", "base", "construction"),
    "characterize": ("alpha", "p", "n", "seed"),
}
# Each (command, setting) pair; the verify pairs are named by the setting.
FLAG_CASES = [pytest.param("verify", k, id=k) for k in FLAGS] + [
    pytest.param(c, k, id=f"{c}-{k}") for c in TAKES for k in TAKES[c]
]

# The flags in each command's --help.
HELP_FLAGS = {
    "sample": {"--alpha", "--base", "--construction", "--n", "--out", "--seed"},
    "moments": {"--alphas", "--format", "--max-degree", "--out"},
    "verify": {"--alpha", "--base", "--construction", "--format", "--jobs", "--n", "--out", "--p",
               "--seed"},
    "characterize": {"--alpha", "--depth", "--format", "--n", "--out", "--p", "--p-known",
                     "--seed"},
}


# The settings each campaign reads among those that not every campaign reads.
READS = {
    "mecke": {"base", "construction"},
    "sethuraman": {"base", "construction"},
    "tbeta": {"p"},
    "tbeta2": {"p"},
    "sizebias": set(),
    "thm52": set(),
}
UNREAD = [(c, k) for c in READS for k in ("p", "base", "construction") if k not in READS[c]]


def strict_loads(text):
    """json.loads that refuses NaN and Infinity."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def weight_sums(out):
    """Total weight of each measure that `dpm sample` printed."""
    return [sum(a["w"] for a in json.loads(line)["atoms"]) for line in out.splitlines()]


class TestSample:
    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "5", "--seed", "3")
        assert code == 0
        sums = weight_sums(out)
        assert len(sums) == 5
        assert all(abs(total - 1.0) <= 1e-9 for total in sums)

    @pytest.mark.parametrize("construction", ["stick", "gamma"])
    def test_draws_cross_batch_boundaries(self, capsys, construction):
        code, out, _ = run_cli(
            capsys, "sample", "--n", "65", "--seed", "3", "--construction", construction
        )
        assert code == 0
        sums = weight_sums(out)
        assert len(sums) == 65
        assert all(abs(total - 1.0) <= 1e-9 for total in sums)

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
        # A usage error leaves an existing file as it was.
        code, _, _ = run_cli(capsys, "sample", "--alpha", "0", "--out", str(target))
        assert code == 2
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

    def test_base_model_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--n", "4", "--seed", "3",
            "--base", '{"alpha": 2, "atoms": [0.5], "diffuse": 0.5}',
        )
        assert code == 0
        points = [a["point"] for line in out.splitlines() for a in json.loads(line)["atoms"]]
        assert {"atom": 0} in points
        assert all(p == {"atom": 0} or set(p) == {"cont"} for p in points)
        assert all(abs(total - 1.0) <= 1e-9 for total in weight_sums(out))

    def test_base_with_unknown_keys_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--base", '{"alpha":2,"atom_probs":[0.5],"diffuse_weight":0.5}'
        )
        assert code == 2
        assert out == ""
        assert ("unknown base keys ['atom_probs', 'diffuse_weight']; "
                "expected some of ['alpha', 'atoms', 'diffuse']") in err

    @pytest.mark.parametrize(
        "base",
        ['{"alpha": null}', '{"alpha": 2, "atoms": 5}',
         '{"alpha": 2, "atoms": [0.5, null], "diffuse": 0.5}',
         '{"alpha": true, "atoms": [1.0]}', '{"alpha": "2", "atoms": ["1"]}',
         '{"alpha": 2, "atoms": [NaN, 1.0]}'],
        ids=["null-alpha", "atoms-number", "null-atom", "bool-alpha", "strings", "nan-atom"],
    )
    def test_malformed_base_is_usage_error(self, capsys, base):
        code, out, err = run_cli(capsys, "sample", "--n", "3", "--base", base)
        assert code == 2
        assert out == ""
        assert "dpm: error: " in err

    def test_negative_n_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "-3")
        assert code == 2
        assert out == ""
        assert "n must be non-negative" in err

    def test_eps_is_not_a_flag(self, capsys):
        # Neither truncation is a setting of any command.
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--eps", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eps" in capsys.readouterr().err

    def test_eps_is_the_jump_truncation(self, capsys, monkeypatch):
        # Jumps stop at samplers.DEFAULT_JUMP_EPS, read when a batch is drawn.
        args = ("sample", "--n", "5", "--seed", "3", "--construction", "gamma")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        model = BaseModel.default(CampaignSettings().alpha)
        rows = sample_jump_measure(model, RngStream(3), 5)
        assert out == "".join(cli._canonical_json(zeta.to_dict()) for zeta in rows)
        monkeypatch.setattr(samplers, "DEFAULT_JUMP_EPS", 1e-3)
        coarse = run_cli(capsys, *args)[1]
        assert len(coarse) < len(out)

    def test_gamma_construction_at_small_alpha(self, capsys):
        # Some rows' first arrival G_1 / alpha lies beyond 690, where E1
        # cannot be inverted; each such row is a single unit weight.
        code, out, _ = run_cli(
            capsys, "sample", "--construction", "gamma", "--alpha", "0.01", "--n", "3000",
            "--seed", "1",
        )
        assert code == 0
        sums = weight_sums(out)
        assert len(sums) == 3000
        assert all(abs(total - 1.0) <= 1e-9 for total in sums)


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
            capsys, "moments", "--alphas", "2,3", "--max-degree", "2", "--format", "csv",
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

    def test_method_is_not_a_flag(self, capsys):
        # Every run prints both routes and their gap.
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--alphas", "1,1", "--method", "exact"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --method exact" in capsys.readouterr().err

    def test_subnormal_total_is_tabulated(self, capsys):
        # 1 / total overflows below about 5.6e-309; the total is still
        # positive and finite, so both routes must tabulate it.
        code, out, _ = run_cli(capsys, "moments", "--alphas", "5e-324,5e-324", "--max-degree", "3")
        assert code == 0
        entries = strict_loads(out)["entries"]
        assert len(entries) == 10
        assert all(e["abs_diff"] == 0.0 for e in entries)

    def test_bad_alphas(self, capsys):
        assert run_cli(capsys, "moments", "--alphas", "1,oops")[0] == 2
        assert run_cli(capsys, "moments", "--alphas", "0,0")[0] == 2

    def test_infinite_total_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "moments", "--alphas", "1e308,1e308")
        assert (code, out) == (2, "")
        assert "--alphas must have a positive, finite total" in err

    @pytest.mark.parametrize("alphas", ["1,nan", "inf,1", "nan"])
    def test_non_finite_alphas_are_named(self, capsys, alphas):
        code, out, err = run_cli(capsys, "moments", "--alphas", alphas, "--max-degree", "2")
        assert code == 2
        assert out == ""
        assert "--alphas must be finite and non-negative" in err


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

    def test_tiny_threshold_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "DEFAULT_THRESHOLD", 0.001)
        code, out, _ = run_cli(capsys, "verify", "tbeta", "--n", "20000", "--seed", "42")
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

    def test_stdout_does_not_depend_on_jobs(self, capsys):
        # At n = 2000 a weak control misses its threshold at some seeds
        # (`verify all` exits 1 at 5 of seeds 1-20), so the exit code is
        # compared between the runs, not with 0; 2 would be a usage error.
        args = ("verify", "all", "--n", "2000", "--seed", "42")
        code, one, _ = run_cli(capsys, *args, "--jobs", "1")
        assert code in (0, 1) and json.loads(one)["reports"]
        assert run_cli(capsys, *args, "--jobs", "2")[:2] == (code, one)

    def test_dpm_jobs_environment_variable_is_not_read(self, capsys, monkeypatch):
        args = ("verify", "tbeta", "--n", "2000", "--seed", "42")
        monkeypatch.delenv("DPM_JOBS", raising=False)
        unset = run_cli(capsys, *args)[:2]
        monkeypatch.setenv("DPM_JOBS", "abc")
        assert unset[0] == 0
        assert run_cli(capsys, *args)[:2] == unset

    def test_flags_cover_every_setting(self):
        assert set(FLAGS) == {f.name for f in fields(CampaignSettings)}
        assert len(FLAGS) == 7
        # Jump truncation is the constant samplers.DEFAULT_JUMP_EPS, and the
        # z threshold verify.DEFAULT_THRESHOLD.
        with pytest.raises(TypeError):
            CampaignSettings(jump_eps=1e-6)
        with pytest.raises(TypeError):
            CampaignSettings(threshold=4.0)

    @pytest.mark.parametrize("command, key", FLAG_CASES)
    def test_each_flag_reaches_its_field(self, capsys, monkeypatch, command, key):
        flag, value = FLAGS[key]
        # Not every setting is echoed, so the settings the command built are read.
        built, real = [], cli._settings

        def settings_of(args):
            built.append(real(args))
            return built[-1]

        monkeypatch.setattr(cli, "_settings", settings_of)
        if command == "verify":
            campaign = "sethuraman" if key in READS["sethuraman"] else "tbeta"
            args = ("verify", campaign) + (() if key == "n" else ("--n", "2000"))
        elif command == "sample":
            args = ("sample", "--n", "2")
        else:
            args = ("characterize",) + (() if key == "n" else ("--n", "2000"))
        code, out, _ = run_cli(capsys, *args, *flag)
        assert code == 0
        [settings] = built
        assert getattr(settings, key) == (BaseModel.from_dict(value) if key == "base" else value)
        if command != "sample" and key != "jobs":
            assert json.loads(out)["config"][key] == value
        if key == "jobs":
            assert "jobs" not in json.loads(out)["config"]

    @pytest.mark.parametrize("command", list(HELP_FLAGS))
    def test_help_lists_each_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", text)) == HELP_FLAGS[command] | {
            "-h", "--help"
        }

    def test_echoed_defaults_are_the_settings_defaults(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "tbeta", "--n", "2000", "--seed", "1")
        defaults = CampaignSettings()
        expected = {f.name: getattr(defaults, f.name) for f in fields(defaults)}
        del expected["jobs"]
        expected.update(n=2000, seed=1)
        assert json.loads(out)["config"] == expected

    def test_base_with_unknown_keys_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verify", no_campaign)
        base = {"alpha": 2.0, "atom_probs": [0.5], "diffuse_weight": 0.5}
        code, out, err = run_cli(capsys, "verify", "mecke", "--n", "2000", "--base", json.dumps(base))
        assert code == 2
        assert out == ""
        assert "unknown base keys ['atom_probs', 'diffuse_weight']" in err

    @pytest.mark.parametrize(
        "base",
        [{"alpha": None}, {"alpha": True, "atoms": [1.0]}, {"alpha": "2", "atoms": [1.0]},
         {"alpha": 2, "atoms": 5}, {"alpha": 2, "atoms": [math.nan, 0.5], "diffuse": 0.5}],
        ids=["null-alpha", "bool-alpha", "string-alpha", "atoms-number", "nan-atom"],
    )
    def test_malformed_base_is_usage_error(self, capsys, monkeypatch, base):
        monkeypatch.setattr(cli, "run_verify", no_campaign)
        code, out, err = run_cli(capsys, "verify", "mecke", "--n", "2000", "--base", json.dumps(base))
        assert code == 2
        assert out == ""
        assert "dpm: error: " in err

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "verify", "tbeta", "--p", "1.5")[0] == 2
        assert run_cli(capsys, "verify", "tbeta", "--n", "1")[0] == 2
        assert run_cli(
            capsys, "verify", "tbeta",
            "--alpha", "3.0",
            "--base", '{"alpha": 2.0, "atoms": [1.0], "diffuse": 0.0}',
        )[0] == 2

    def test_a_config_file_is_not_a_way_in(self, capsys, monkeypatch, tmp_path):
        # Flags are the only way a setting gets in.
        monkeypatch.setattr(cli, "run_verify", no_campaign)
        config = tmp_path / "x.json"
        config.write_text(json.dumps({"n": 2000}))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "tbeta", "--config", str(config)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

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
        assert "sizebias does not read base" in err

    @pytest.mark.parametrize("campaign", ["mecke", "sethuraman", "all"])
    def test_base_with_mass_in_one_block_is_usage_error(self, capsys, campaign):
        # Every projection would be 1: both sides of each identity agree to
        # rounding and no control could reject.
        code, out, err = run_cli(
            capsys, "verify", campaign, "--n", "1000", "--base", '{"alpha": 2, "atoms": [1.0]}'
        )
        assert code == 2
        assert out == ""
        assert "mass in at least two blocks" in err

    @pytest.mark.parametrize("campaign, key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
    def test_unread_setting_is_usage_error(self, capsys, monkeypatch, campaign, key):
        # Rejected before a pool starts or a shard draws.
        def drew(*args, **kwargs):
            raise AssertionError("a pool started or a shard drew")

        monkeypatch.setattr(verify.multiprocessing, "Pool", drew)
        monkeypatch.setattr(verify, "_shard", drew)
        flag = {"construction": ("--construction", "gamma")}.get(key, FLAGS[key][0])
        code, out, err = run_cli(capsys, "verify", campaign, "--n", "20000", "--jobs", "2", *flag)
        assert code == 2
        assert out == ""
        assert f"{campaign} does not read {key}" in err

    def test_n_beyond_the_limit_is_usage_error(self, capsys, monkeypatch):
        # A settings range check: the run fails before it builds a task list
        # or runs a shard.
        monkeypatch.setattr(cli, "run_verify", no_campaign)
        code, out, err = run_cli(capsys, "verify", "tbeta", "--n", str(verify.MAX_N + 1))
        assert code == 2
        assert out == ""
        assert "n must lie in [100, 6250000000]" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "all"), ("verify", "sizebias"), ("verify", "thm52"), ("characterize",),
    ])
    def test_n_below_the_ks_floor_is_usage_error(self, capsys, monkeypatch, argv):
        # The KS tests need 100 rows: the settings refuse fewer before
        # any campaign draws.
        def drew(*args, **kwargs):
            raise AssertionError("a shard drew")

        monkeypatch.setattr(verify, "_shard", drew)
        code, out, err = run_cli(capsys, *argv, "--n", "99")
        assert code == 2
        assert out == ""
        assert "n must lie in [100, 6250000000], got 99" in err

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
    def test_sizebias_weight_law_reports_the_mean_of_the_rest(self, capsys, alpha):
        code, out, _ = run_cli(
            capsys, "verify", "sizebias", "--n", "20000", "--seed", "42", "--alpha", str(alpha)
        )
        assert code == 0
        reports = {r["name"]: r for r in json.loads(out)["reports"]}
        law = reports["sizebias:picked-weight-law"]
        control = reports["sizebias:control:wrong-weight-shape"]
        # rhs: the mean of the tested law Be(a, 1), a / (a + 1).
        assert law["rhs"] == alpha / (alpha + 1.0)
        assert control["rhs"] == (alpha + 1.5) / (alpha + 2.5)
        # lhs: the sample mean of the rest 1 - W, which is Be(alpha, 1).
        se = math.sqrt(alpha / ((alpha + 1.0) ** 2 * (alpha + 2.0)) / 20000)
        assert control["lhs"] == law["lhs"]
        assert abs(law["lhs"] - law["rhs"]) <= 4.0 * se
        assert abs(control["lhs"] - control["rhs"]) > 4.0 * se

    @pytest.mark.parametrize("threshold", [None, 3.5])
    def test_false_alarm_budget_sums_each_rule(self, capsys, monkeypatch, threshold):
        # The budget reads the z threshold when it is computed.
        if threshold is not None:
            monkeypatch.setattr(verify, "DEFAULT_THRESHOLD", threshold)
        _, out, err = run_cli(capsys, "verify", "all", "--n", "20000", "--seed", "42")
        payload = json.loads(out)
        z_rate = math.erfc((threshold or 4.0) / math.sqrt(2.0))
        rate = {"z": z_rate, "cov": z_rate, "ks": 1e-3}
        kinds = [r["kind"] for r in payload["reports"] if r["kind"] != "control"]
        assert (len(kinds), kinds.count("ks")) == (122, 2)
        expected = sum(rate[kind] for kind in kinds)
        assert payload["false_alarm_budget"] == pytest.approx(expected, rel=1e-12)
        assert f"false-alarm budget {expected:.2g}," in err

    def test_out_file_is_replaced_only_by_the_report(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("earlier\n" * 10_000)
        # A campaign that stops on a usage error leaves the file as it was.
        atomic = '{"alpha": 2.0, "atoms": [0.4, 0.6], "diffuse": 0.0}'
        code, out, _ = run_cli(
            capsys, "verify", "sizebias", "--n", "2000", "--base", atomic, "--out", str(target)
        )
        assert (code, out) == (2, "")
        assert target.read_text() == "earlier\n" * 10_000
        code, out, _ = run_cli(capsys, "verify", "tbeta", "--n", "2000", "--out", str(target))
        assert (code, out) == (0, "")
        assert json.loads(target.read_text())["command"] == "verify"

    def test_stick_truncation_is_not_a_setting(self, capsys, monkeypatch):
        # Sticks close at samplers.DEFAULT_STICK_EPS: no flag sets it.
        monkeypatch.setattr(cli, "run_verify", no_campaign)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "all", "--eps", "1e-10"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [("sample", "--construction", "stick"), ("sample", "--construction", "gamma"),
         ("verify", "mecke")],
        ids=["sample-stick", "sample-gamma", "verify-mecke"],
    )
    def test_jump_truncation_is_not_a_setting(self, capsys, monkeypatch, argv):
        # Jumps stop at samplers.DEFAULT_JUMP_EPS: no flag sets it.
        monkeypatch.setattr(cli, "run_verify", no_campaign)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jump-eps", "1e-6"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jump-eps 1e-6" in captured.err

    def test_constant_ks_cdf_is_degenerate_not_a_usage_error(self, capsys):
        # At alpha 1e-6 the rests underflow, so the control's cdf
        # y^(alpha + 1.5) is 0 on the whole sample: its KS test cannot
        # compare laws, and a degenerate control does not count as rejecting.
        code, out, err = run_cli(
            capsys, "verify", "sizebias", "--alpha", "1e-6", "--n", "200", "--seed", "1"
        )
        assert code == 1
        assert "dpm: error" not in err
        # A NaN statistic is written as null: the payload is strict JSON.
        reports = {r["name"]: r for r in strict_loads(out)["reports"]}
        control = reports["sizebias:control:wrong-weight-shape"]
        assert control["verdict"] == "degenerate"
        assert control["statistic"] is None and control["p_value"] is None

    @pytest.mark.parametrize("command", ["verify", "characterize"])
    def test_threshold_is_not_a_setting(self, capsys, monkeypatch, command):
        # A z-score passes at |z| <= verify.DEFAULT_THRESHOLD: no flag sets it.
        monkeypatch.setattr(cli, "run_verify", no_campaign)
        monkeypatch.setattr(characterize, "beta_pairs", no_campaign)
        with pytest.raises(SystemExit) as exc:
            main([command, *(("tbeta",) if command == "verify" else ()), "--threshold", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --threshold 3" in captured.err

    @pytest.mark.parametrize(
        "args, message",
        [
            # The z threshold is the constant verify.DEFAULT_THRESHOLD.
            (("--threshold", "nan"), "unrecognized arguments: --threshold nan"),
            (("--threshold=-1",), "unrecognized arguments: --threshold=-1"),
            (("--jobs", "0"), "jobs must be at least 1"),
        ],
        ids=["threshold-nan", "threshold-negative", "jobs-zero"],
    )
    def test_bad_settings_are_usage_errors(self, capsys, monkeypatch, args, message):
        # Rejected before any campaign runs, not reported as failed tests.
        def no_campaign(*args, **kwargs):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr(cli, "run_verify", no_campaign)
        try:
            code, out, err = run_cli(capsys, "verify", "tbeta", "--n", "2000", *args)
        except SystemExit as exc:
            code, (out, err) = exc.code, capsys.readouterr()
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("flag", [("--probe-symmetric",), ("--depth", "3")])
    def test_removed_probe_flags_are_usage_errors(self, capsys, monkeypatch, flag):
        # `verify tbeta --p 0.5` grades the symmetric-point identities.
        monkeypatch.setattr(cli, "run_verify", no_campaign)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "tbeta", "--n", "2000", *flag])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


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

    def test_tiny_threshold_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(characterize, "DEFAULT_THRESHOLD", 0.001)
        code, _, _ = run_cli(capsys, "characterize", "--n", "50000", "--seed", "9", "--depth", "4")
        assert code == 1

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "characterize", "--p", "0")[0] == 2
        assert run_cli(capsys, "characterize", "--n", "50")[0] == 2
        assert run_cli(capsys, "characterize", "--depth", "12", "--n", "500")[0] == 2

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_threshold_is_usage_error(self, capsys, monkeypatch, value):
        # No threshold is a setting, so every value is refused before any draw.
        monkeypatch.setattr(characterize, "beta_pairs", no_campaign)
        with pytest.raises(SystemExit) as exc:
            main(["characterize", "--n", "5000", f"--threshold={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --threshold={value}" in captured.err

    def test_pairs_are_drawn_shard_by_shard(self, capsys, monkeypatch):
        # No more than SHARD_SIZE pairs are drawn at once, so memory stays
        # flat in --n.
        sizes = []

        def counted(p, alpha, m, gen):
            sizes.append(m)
            return samplers.beta_pairs(p, alpha, m, gen)

        monkeypatch.setattr(characterize, "beta_pairs", counted)
        code, _, _ = run_cli(capsys, "characterize", "--n", "25000", "--depth", "4")
        assert code == 0
        assert len(sizes) == 3 and max(sizes) <= verify.SHARD_SIZE
        assert sum(sizes) == 25000

    def test_infinite_z_is_written_as_null(self, capsys, monkeypatch):
        # Constant samples have a zero standard error, so every nonzero
        # difference reads z = +-inf; the payload stays strict JSON.
        monkeypatch.setattr(
            characterize, "beta_pairs", lambda p, alpha, n, gen: (np.full(n, 0.3), np.full(n, 0.5))
        )
        code, out, _ = run_cli(capsys, "characterize", "--n", "1000", "--depth", "4")
        assert code == 1
        report = strict_loads(out)["report"]
        assert report["max_abs_z"] is None
        assert None in [row["z"] for row in report["rows"]]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "tbeta", "--alpha", "inf", "--n", "2000"),
        ("verify", "mecke", "--alpha", "inf", "--n", "2000"),
        ("sample", "--alpha", "inf"),
        ("characterize", "--alpha", "inf"),
        ("characterize", "--alpha", "nan"),
    ],
    ids=["verify-tbeta-inf", "verify-mecke-inf", "sample-inf", "characterize-inf",
         "characterize-nan"],
)
def test_non_finite_alpha_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "alpha must be finite and positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--alpha", "1e17", "--n", "1"),
        ("verify", "sizebias", "--alpha", "1e16", "--n", "100"),
    ],
    ids=["sample", "verify-sizebias"],
)
def test_alpha_too_large_for_sticks_is_usage_error(capsys, argv):
    # alpha / (alpha + 1) rounds to 1: no stick would shrink the leftover.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "too large for sticks" in err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("sample", "--alpha", "1e15", "--n", "1"), "sticks"),
        (("sample", "--construction", "gamma", "--alpha", "1e9", "--n", "1"), "jumps"),
        (("verify", "sethuraman", "--construction", "gamma", "--alpha", "1e9", "--n", "100"), "jumps"),
    ],
    ids=["sample-stick", "sample-gamma", "verify-gamma"],
)
def test_alpha_beyond_the_row_work_ceiling_is_usage_error(capsys, argv, kind):
    # A row would be expected to need more than MAX_ROW_ATOMS sticks or
    # jumps: rejected at once, not after a long run or a failed allocation.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"too large for {kind}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--n", "3"),
        ("moments", "--alphas", "1,2"),
        ("verify", "tbeta", "--n", "2000"),
        ("characterize", "--n", "1000"),
    ],
    ids=["sample", "moments", "verify", "characterize"],
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_usage_error(capsys, monkeypatch, tmp_path, argv, target):
    # verify opens --out before its campaign runs.
    monkeypatch.setattr(cli, "run_verify", no_campaign)
    out_path = tmp_path / "missing" / "x" if target == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert "dpm: error: cannot write --out: " in err


@pytest.mark.parametrize(
    "argv, rows_of",
    [
        (("verify", "tbeta", "--n", "2000", "--seed", "1"),
         lambda payload: payload["reports"]),
        (("moments", "--alphas", "1,2,0.5", "--max-degree", "3"),
         lambda payload: payload["entries"]),
        (("characterize", "--n", "5000", "--seed", "9"),
         lambda payload: payload["report"]["rows"]),
    ],
    ids=["verify", "moments", "characterize"],
)
def test_csv_floats_round_trip(capsys, argv, rows_of):
    _, as_json, _ = run_cli(capsys, *argv)
    _, as_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    expected = rows_of(json.loads(as_json))
    rows = list(csv.DictReader(io.StringIO(as_csv)))
    assert len(rows) == len(expected)
    checked = 0
    for row, want in zip(rows, expected):
        for key, value in want.items():
            if isinstance(value, float):
                cell = float(row[key])
                assert cell == value or (math.isnan(cell) and math.isnan(value)), key
                checked += 1
    assert checked >= 3 * len(rows)


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_every_export_resolves(self):
        # A stale name in __all__ breaks only `from dpm import *`.
        assert [name for name in dpm.__all__ if not hasattr(dpm, name)] == []

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
