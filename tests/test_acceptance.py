"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test also prints an ``ACCEPTANCE`` summary line that
shows up in captured output when a criterion fails.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats as sps

from dpm.measures import BaseModel
from dpm.moments import (
    beta_moment,
    build_moment_table,
    check_solvability,
    multi_indices,
    quadratic_weight_c,
    recover_moment_sequence,
)
from dpm.samplers import RngStream, stick_projection_chunk
from dpm.specialfn import exp_integral_e1, inverse_e1, log_gamma
from dpm.stats import ks_test
from dpm.verify import (
    CAMPAIGN_NAMES,
    CampaignSettings,
    campaign_ok,
    run_verify,
    verify_beta_general,
    verify_construction_equivalence,
    verify_marked_sizebias,
    verify_mecke,
    verify_sizebias_invariance,
)


def _announce(num: int, passed: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'}: {desc}")


def test_criterion_01_recursion_matches_closed_form():
    gen = np.random.default_rng(20260814)
    started = time.monotonic()
    worst = 0.0
    for n_blocks in (2, 3, 4):
        for total in (0.5, 1.0, 2.5):
            probs = gen.dirichlet(np.ones(n_blocks))
            alphas = tuple(total * probs)
            exact = build_moment_table(alphas, 8, method="exact")
            recur = build_moment_table(alphas, 8, method="recursion")
            for degree in range(9):
                for ks in multi_indices(n_blocks, degree):
                    e = exact.value(ks)
                    r = recur.value(ks)
                    worst = max(worst, abs(e - r) / max(abs(e), 1e-300))
    elapsed = time.monotonic() - started
    passed = worst <= 1e-9 and elapsed < 1.0
    _announce(1, passed, f"recursion vs closed form, max rel gap {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_moment_recovery_round_trip():
    started = time.monotonic()
    worst = 0.0
    for p, alpha in ((0.3, 2.0), (0.7, 0.5), (0.1, 5.0)):
        a = [beta_moment(p * alpha, (1 - p) * alpha, k) for k in range(1, 9)]
        b1 = beta_moment(1.0, alpha, 1)
        bs, _ = recover_moment_sequence(a, b1, p, 8)
        for n in range(1, 9):
            truth = beta_moment(1.0, alpha, n)
            worst = max(worst, abs(bs[n - 1] - truth) / truth)
        assert all(check_solvability(p, alpha, n) != 0.0 for n in range(1, 9))
    symmetric_zero = all(
        check_solvability(0.5, alpha, n) == 0.0
        for alpha in (0.5, 2.0, 5.0)
        for n in (2, 4, 6, 8)
    )
    elapsed = time.monotonic() - started
    passed = worst <= 1e-6 and symmetric_zero and elapsed < 1.0
    _announce(2, passed, f"recovery to degree 8, max rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert symmetric_zero
    assert elapsed < 1.0


def test_criterion_03_integral_identity_campaign_at_scale():
    model = BaseModel(alpha=2.0, atom_probs=(0.3, 0.7), diffuse_weight=0.0)
    started = time.monotonic()
    settings = CampaignSettings(n=1_000_000, base=model, construction="stick")
    reports = verify_mecke(settings, RngStream(2026))
    elapsed = time.monotonic() - started
    controls = [r for r in reports if r.kind == "control"]
    point_control = next(r for r in controls if "point" in r.name or "delta" in r.notes)
    ok = campaign_ok(reports)
    passed = ok and point_control.verdict == "fail" and elapsed < 60.0
    _announce(3, passed, f"integral identity at n=1e6, {len(reports)} reports, {elapsed:.1f}s")
    assert ok
    assert point_control.verdict == "fail"
    assert elapsed < 60.0


def test_criterion_04_projection_marginal_is_beta():
    gen = RngStream(404).gen
    proj, _ = stick_projection_chunk(2.0, np.array([0.3, 0.7]), 100_000, gen)
    stat, p = ks_test(proj[:, 0], sps.beta(0.6, 1.4).cdf)
    passed = p > 0.001
    _announce(4, passed, f"marginal KS vs Be(0.6,1.4): stat={stat:.5f} p={p:.3f}")
    assert p > 0.001


def test_criterion_05_constructions_are_equivalent():
    model = BaseModel(alpha=2.0, atom_probs=(0.2, 0.35), diffuse_weight=0.45)
    settings = CampaignSettings(n=100_000, base=model)
    reports = verify_construction_equivalence(settings, RngStream(505))
    ok = campaign_ok(reports)
    total = next(r for r in reports if r.name == "construction:total-mass-mean")
    passed = ok and abs(total.statistic) <= 4.0 and total.rhs == 2.0
    _announce(5, passed, f"stick vs jumps, total-mass z={total.statistic:+.2f}")
    assert ok
    assert abs(total.statistic) <= 4.0


def test_criterion_06_quadratic_identity_and_independence():
    reports = verify_beta_general(CampaignSettings(p=0.3, n=1_000_000), RngStream(606))
    by_name = {r.name: r for r in reports}
    anchor = by_name["tbeta2:quadratic[g=x^0]"]
    c = quadratic_weight_c(0.3, 2.0)
    closed_form = c / (2.0 + 1.0)  # E Z^2 = p(alpha p + 1)/(alpha + 1)
    covs = [r for r in reports if r.kind == "cov"]
    ok = campaign_ok(reports)
    passed = (
        ok
        and abs(anchor.statistic) <= 4.0
        and abs(anchor.lhs - closed_form) < 0.005
        and len(covs) == 4
        and all(abs(r.statistic) <= 4.0 for r in covs)
    )
    _announce(6, passed, f"E Z^2 vs {closed_form:.4f}: z={anchor.statistic:+.2f}, 4 cov checks")
    assert ok
    assert abs(anchor.lhs - closed_form) < 0.005
    assert len(covs) == 4


def test_criterion_07_removal_invariance_both_alphas():
    details = []
    all_ok = True
    for alpha, seed in ((1.0, 707), (3.0, 708)):
        settings = CampaignSettings(alpha=alpha, n=100_000)
        reports = verify_sizebias_invariance(settings, RngStream(seed))
        ks = [r for r in reports if r.kind == "ks" and not r.expected_failure]
        covs = [r for r in reports if r.kind == "cov"]
        ok = campaign_ok(reports) and ks and covs
        all_ok = all_ok and bool(ok)
        details.append(f"alpha={alpha:g} ks_p={ks[0].p_value:.3f}")
    _announce(7, all_ok, "removal invariance, " + ", ".join(details))
    assert all_ok


def test_criterion_08_marked_weights_match_dirichlet():
    reports = verify_marked_sizebias(CampaignSettings(n=100_000), RngStream(808))
    ok = campaign_ok(reports)
    ks = next(r for r in reports if r.kind == "ks" and not r.expected_failure)
    passed = ok and ks.p_value > 0.001
    _announce(8, passed, f"marked stick weights, largest-weight KS p={ks.p_value:.3f}")
    assert ok
    assert ks.p_value > 0.001


def test_criterion_09_special_function_identities():
    worst_gamma = 0.0
    for a in (0.5, 1.7, 3.0):
        for k in range(21):
            lhs = math.exp(log_gamma(a + k + 1) - log_gamma(k + 1.0))
            rhs = a * sum(
                math.exp(log_gamma(a + r) - log_gamma(r + 1.0)) for r in range(k + 1)
            )
            worst_gamma = max(worst_gamma, abs(lhs - rhs) / rhs)
    xs = np.geomspace(1e-10, 10.0, 200)
    back = inverse_e1(exp_integral_e1(xs))
    worst_inv = float(np.max(np.abs(back - xs) / xs))
    passed = worst_gamma <= 1e-9 and worst_inv <= 1e-9
    _announce(9, passed, f"gamma sum rel {worst_gamma:.2e}, E1 round trip rel {worst_inv:.2e}")
    assert worst_gamma <= 1e-9
    assert worst_inv <= 1e-9


def test_criterion_10_reports_are_deterministic():
    settings = CampaignSettings(n=20_000, seed=42)
    library_same = all(
        [r.to_dict() for r in run_verify(name, settings)]
        == [r.to_dict() for r in run_verify(name, settings)]
        for name in CAMPAIGN_NAMES
    )
    cmd = [sys.executable, "-m", "dpm", "verify", "all", "--n", "20000", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    cli_same = first.stdout == second.stdout and first.stdout
    passed = bool(library_same and cli_same and first.returncode == 0)
    _announce(10, passed, "same seed, same bytes: library dicts and CLI stdout")
    assert library_same
    assert cli_same
    assert first.returncode == 0
