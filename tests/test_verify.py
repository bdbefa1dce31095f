"""Tests for the statistical verification campaigns and their plumbing."""

import contextlib
import math
import multiprocessing
import os
import signal
import threading
import tracemalloc
from dataclasses import fields, replace
from functools import partial, reduce
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sps

from dpm import samplers, verify
from dpm.characterize import CharacterizationReport, characterize_from_samples
from dpm.measures import BaseModel
from dpm.samplers import RngStream, TruncationError
from dpm.stats import ks_test, two_sided_p
from dpm.verify import (
    CAMPAIGN_NAMES,
    CampaignSettings,
    Moments,
    TestReport as Report,
    _combine,
    _cov,
    _pair,
    _block_probs,
    _shard_sizes,
    campaign_ok,
    run_verify,
    verify_beta_general,
    verify_beta_sizebias,
    verify_marked_sizebias,
    verify_mecke,
    verify_sethuraman,
    verify_sizebias_invariance,
)

N_SMOKE = 20_000


def _report(**kw) -> Report:
    base = dict(
        name="t",
        kind="z",
        statistic=1.0,
        p_value=0.3,
        lhs=0.0,
        rhs=0.0,
        stderr=1.0,
        n_samples=100,
        seed=0,
        verdict="pass",
    )
    base.update(kw)
    return Report(**base)


class TestReportSemantics:
    def test_plain_pass_fail(self):
        assert _report(verdict="pass").ok()
        assert not _report(verdict="fail").ok()
        assert not _report(verdict="degenerate").ok()

    def test_expected_failure_folds(self):
        assert _report(verdict="fail", expected_failure=True).ok()
        assert not _report(verdict="pass", expected_failure=True).ok()

    def test_campaign_ok(self):
        good = [_report(), _report(verdict="fail", expected_failure=True)]
        assert campaign_ok(good)
        assert not campaign_ok(good + [_report(verdict="fail")])
        assert campaign_ok([])

    def test_to_dict_round_trip(self):
        d = _report(notes="hello").to_dict()
        assert d["name"] == "t"
        assert d["notes"] == "hello"
        assert set(d) == {
            "name", "kind", "statistic", "p_value", "lhs", "rhs", "stderr",
            "n_samples", "seed", "verdict", "expected_failure", "notes",
        }
        # The CSV header is the field names; each row must follow it.
        assert list(d) == [f.name for f in fields(Report)]


def _grader() -> verify._Campaign:
    """A campaign that only builds reports, graded at DEFAULT_THRESHOLD = 4."""
    return verify._Campaign(None, {}, CampaignSettings(), RngStream(5, 1))


def _estimate(diff, se) -> verify.Estimate:
    diff = np.asarray(diff, dtype=float)
    return verify.Estimate(diff + 1.0, np.ones_like(diff), diff, np.asarray(se, dtype=float), 300)


def _paired(diff) -> Moments:
    """A paired statistic over two rows whose read-out has these
    differences, each with standard error 1."""
    diff = np.asarray(diff, dtype=float)
    sums = np.zeros((3, 1, diff.size))
    sums[0, 0], sums[2, 0] = 2.0, 2.0
    return Moments(2, np.stack([diff, np.ones_like(diff)]), sums)


_ABOVE = math.nextafter(4.0, math.inf)
_FLOOR = verify.DEFAULT_P_FLOOR
# (case, the report, verdict, statistic, p-value).  The direct calls pass
# numpy scalars, which the report must store as Python ones.
_GRADING = [
    ("|z| at the threshold",
     lambda g: g.reports(["t"], _estimate([-4.0], [1.0]))[0], "pass", -4.0, two_sided_p(4.0)),
    ("z just above it",
     lambda g: g.report("t", np.float64(_ABOVE), np.float64(2.0), np.float64(1.0),
                        np.float64(0.25), np.int64(300)), "fail", _ABOVE, two_sided_p(_ABOVE)),
    ("se 0, diff 0", lambda g: g.reports(["t"], _estimate([0.0], [0.0]))[0], "pass", 0.0, 1.0),
    ("se 0, diff not 0",
     lambda g: g.reports(["t"], _estimate([-1e-300], [0.0]))[0], "fail", math.inf, 0.0),
    ("NaN z", lambda g: g.reports(["t"], _estimate([math.nan], [1.0]))[0], "degenerate",
     math.nan, 0.0),
    ("KS p at the floor",
     lambda g: g.report("t", np.float64(0.5), 1.0, 1.0, 0.0, 300, p=np.float64(_FLOOR), kind="ks"),
     "pass", 0.5, _FLOOR),
    ("KS p just below it",
     lambda g: g.report("t", 0.5, 1.0, 1.0, 0.0, 300, p=math.nextafter(_FLOOR, 0.0), kind="ks"),
     "fail", 0.5, math.nextafter(_FLOOR, 0.0)),
    ("NaN KS statistic",
     lambda g: g.report("t", math.nan, 1.0, 1.0, 0.0, 300, p=0.5, kind="ks"),
     "degenerate", math.nan, 0.5),
    ("NaN control statistic does not reject",
     lambda g: g.report("c", math.nan, 1.0, 1.0, 0.0, 300, p=0.0, kind="control"),
     "degenerate", math.nan, 0.0),
    ("control, worst |z| first on ties",
     lambda g: g.control("c", ["a", "b", "c", "d"], _paired([1.0, -5.0, 5.0, 2.0]), "why"),
     "fail", -5.0, two_sided_p(5.0)),
    ("control that cannot reject",
     lambda g: g.control("c", ["a", "b"], _paired([3.0, -4.0]), "why"), "pass", -4.0,
     two_sided_p(4.0)),
]


class TestGradingRule:
    """One builder grades every report: z-scores by the threshold, KS tests
    by the p-value floor, controls by their worst sub-test."""

    @pytest.mark.parametrize(
        "build, verdict, statistic, p_value", [case[1:] for case in _GRADING],
        ids=[case[0] for case in _GRADING],
    )
    def test_rule(self, build, verdict, statistic, p_value):
        r = build(_grader())
        assert r.verdict == verdict
        assert r.statistic == statistic or math.isnan(r.statistic) and math.isnan(statistic)
        assert r.p_value == p_value
        assert r.seed == 5
        assert r.expected_failure is (r.kind == "control")
        for f in fields(Report):
            value = getattr(r, f.name)
            if f.name in ("statistic", "p_value", "lhs", "rhs", "stderr"):
                assert type(value) is float
            elif f.name in ("n_samples", "seed"):
                assert type(value) is int
        assert r.to_dict() == {f.name: getattr(r, f.name) for f in fields(Report)}

    def test_control_reports_its_worst_sub_test(self):
        r = _grader().control("c", ["a", "b", "c", "d"], _paired([1.0, -5.0, 5.0, 2.0]), "why")
        assert (r.name, r.kind, r.expected_failure, r.n_samples) == ("c", "control", True, 2)
        assert (r.lhs, r.rhs, r.stderr) == (-4.0, 1.0, 1.0)
        assert r.notes == "why; worst sub-test b"


class TestControlCouplings:
    """The mixing controls read the identity's weights u ~ Be(1, alpha)
    through a coupling that has the control's law exactly."""

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_beta_coupling_has_the_wrong_shape_law(self, alpha):
        u = np.random.default_rng(19).beta(1.0, alpha, 100_000)
        w = verify._coupled_beta(u, alpha=alpha, b=alpha + 2.0)
        assert sps.kstest(w, sps.beta(1.0, alpha + 2.0).cdf).pvalue >= 1e-3
        # Monotone in u, so the control mixes where the identity mixes.
        order = np.argsort(u)
        assert np.all(np.diff(w[order]) >= 0.0)

    def test_point_coupling_is_the_constant(self):
        alpha = 2.0
        u = np.random.default_rng(20).beta(1.0, alpha, 1000)
        w = verify._point_mass(u, value=1.0 / (alpha + 1.0))
        assert w.shape == u.shape
        assert np.all(w == 1.0 / (alpha + 1.0))

    def test_weight_that_rounded_to_one_stays_one(self):
        w = verify._coupled_beta(np.array([0.0, 1.0]), alpha=0.5, b=2.5)
        assert w.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("construction", ["stick", "gamma"])
    @pytest.mark.parametrize(
        "control",
        [
            partial(verify._point_mass, value=1.0 / 3.0),
            partial(verify._coupled_beta, alpha=2.0, b=4.0),
        ],
    )
    def test_control_draws_nothing(self, base_model, construction, control):
        settings = CampaignSettings(base=base_model, construction=construction)
        params = verify._mix_params(settings)
        params.update(exponents=verify._exponents(3, 2, min_degree=0), weighted=True)

        def kernel(ctrl):
            gen = np.random.default_rng(21)
            return verify._mix_kernel(2000, gen, control=ctrl, **params), gen.random()

        (plain, after_plain), (both, after_both) = kernel(None), kernel(control)
        assert set(plain) == {"identity"} and set(both) == {"identity", "control"}
        assert np.array_equal(plain["identity"].mean, both["identity"].mean)
        assert np.array_equal(plain["identity"].sums, both["identity"].sums)
        assert after_plain == after_both


class TestSharding:
    def test_shard_sizes(self):
        size = verify.SHARD_SIZE
        assert _shard_sizes(size) == [size]
        assert _shard_sizes(3 * size + 7) == [size, size, size, 7]
        assert _shard_sizes(7) == [7]

    def test_settings_limit_n(self):
        # The limit is a plain range check: no shard's substream can be
        # reused, whatever n is.
        assert CampaignSettings(n=verify.MAX_N).n == verify.MAX_N
        with pytest.raises(ValueError, match="n must lie in"):
            CampaignSettings(n=verify.MAX_N + 1)


def _chunks(arr, cuts):
    return [arr[..., lo:hi] for lo, hi in zip(cuts, cuts[1:])]


class TestMoments:
    def test_uneven_shards_merge_to_two_pass_reference(self):
        gen = np.random.default_rng(5)
        x = gen.gamma(2.0, 1.5, (3, 1000)) + 4.0
        y = 0.5 * x + gen.gamma(3.0, size=(3, 1000))
        cuts = [0, 7, 300, 301, 640, 1000]
        parts = [{"s": _cov(a, b)} for a, b in zip(_chunks(x, cuts), _chunks(y, cuts))]
        merged = _combine(parts)["s"]
        dx = x - x.mean(axis=1, keepdims=True)
        dy = y - y.mean(axis=1, keepdims=True)
        assert merged.n == 1000
        np.testing.assert_allclose(merged.mean, [x.mean(axis=1), y.mean(axis=1)], rtol=1e-12)
        for a in range(3):
            for b in range(3):
                if a + b >= 2:
                    ref = (dx**a * dy**b).sum(axis=1)
                    np.testing.assert_allclose(merged.sums[a, b], ref, rtol=1e-12)

    def test_independent_pair_at_large_offset_is_not_rejected(self):
        # Expanded in raw power sums, E[(x - mx)^2 (y - my)^2] loses every
        # digit to the 1e5 offset and the covariance z-score is infinite.
        gen = np.random.default_rng(11)
        x = 1e5 + gen.standard_normal(200_000)
        y = 1e5 + gen.standard_normal(200_000)
        cuts = list(range(0, 200_001, 25_000))
        est = reduce(Moments.merge, map(_cov, _chunks(x, cuts), _chunks(y, cuts))).covariance()
        dx, dy = x - x.mean(), y - y.mean()
        cov = np.mean(dx * dy)
        se = math.sqrt((np.mean(dx * dx * dy * dy) - cov * cov) / x.size)
        assert abs(est.diff[0] / est.se[0]) < 4.0
        assert est.diff[0] == pytest.approx(cov, rel=1e-9)
        assert est.se[0] == pytest.approx(se, rel=1e-9)

    def test_paired_difference_at_large_offset_keeps_its_stderr(self):
        gen = np.random.default_rng(12)
        rhs = gen.random(100_000)
        lhs = rhs + 1e7 + 1e-2 * gen.standard_normal(100_000)
        cuts = list(range(0, 100_001, 25_000))
        est = reduce(Moments.merge, map(_pair, _chunks(lhs, cuts), _chunks(rhs, cuts))).paired()
        d = lhs - rhs
        assert est.se[0] > 0.0
        assert est.se[0] == pytest.approx(d.std(ddof=1) / math.sqrt(d.size), rel=1e-9)
        assert est.lhs[0] == pytest.approx(lhs.mean(), rel=1e-12)
        assert est.rhs[0] == pytest.approx(rhs.mean(), rel=1e-12)

    def test_samples_concatenate_in_shard_order(self):
        parts = [
            {"w": np.array([1.0, 2.0]), "s": _pair(np.array([1.0, 2.0]), 0.0)},
            {"w": np.array([3.0]), "s": _pair(np.array([3.0]), 0.0)},
        ]
        out = _combine(parts)
        assert np.array_equal(out["w"], [1.0, 2.0, 3.0])
        assert out["s"].n == 3


@pytest.fixture(scope="module")
def base_model():
    return BaseModel(alpha=2.0, atom_probs=(0.2, 0.35), diffuse_weight=0.45)


class TestMeckeCampaign:
    def test_passes_with_failing_controls(self, base_model):
        reports = verify_mecke(CampaignSettings(n=N_SMOKE, base=base_model), RngStream(71))
        assert campaign_ok(reports)
        controls = [r for r in reports if r.kind == "control"]
        assert len(controls) == 2
        assert all(c.expected_failure and c.verdict == "fail" for c in controls)
        # 3 blocks, g of degree <= 2 (10 monomials), one h per block.
        assert sum(r.kind == "z" for r in reports) == 30

    def test_gamma_construction_also_passes(self, base_model):
        settings = CampaignSettings(n=N_SMOKE, base=base_model, construction="gamma")
        reports = verify_mecke(settings, RngStream(72))
        assert campaign_ok(reports)

    def test_base_with_mass_in_one_block_is_rejected(self):
        # Two blocks, one of them empty: every projection would still be 1.
        settings = CampaignSettings(n=N_SMOKE, base=BaseModel(alpha=2.0, atom_probs=(1.0, 0.0)))
        for campaign in (verify_mecke, verify_sethuraman):
            with pytest.raises(ValueError, match="mass in at least two blocks"):
                campaign(settings, RngStream(0))


class TestSethuramanCampaign:
    def test_passes_with_failing_control(self, base_model):
        reports = verify_sethuraman(CampaignSettings(n=N_SMOKE, base=base_model), RngStream(73))
        assert campaign_ok(reports)
        assert any(r.kind == "control" and r.verdict == "fail" for r in reports)


class TestBetaSizebiasCampaign:
    def test_passes_and_anchors_normalization(self):
        reports = verify_beta_sizebias(CampaignSettings(p=0.3, n=N_SMOKE), RngStream(74))
        assert campaign_ok(reports)
        by_name = {r.name: r for r in reports}
        anchor = by_name["tbeta:pick[g=x^0]"]
        # lhs is the sample mean of Z, rhs is p times the mean of mixed^0.
        assert anchor.rhs == pytest.approx(0.3, rel=1e-12)
        assert anchor.lhs == pytest.approx(0.3, abs=0.02)

    def test_wrong_p_control_fails_hard(self):
        reports = verify_beta_sizebias(CampaignSettings(p=0.3, n=N_SMOKE), RngStream(74))
        control = next(r for r in reports if r.kind == "control")
        assert control.verdict == "fail"
        assert abs(control.statistic) > 20

    def test_symmetric_point_is_graded(self):
        # At p = 1/2 the rest branch reads E Z^k (1-Z) = (1/2) (alpha /
        # (alpha+k)) E Z^k: graded like any other p, with a failing control.
        reports = run_verify("tbeta", CampaignSettings(p=0.5, n=N_SMOKE, seed=3))
        assert [r.name for r in reports if not r.ok()] == []
        names = {r.name for r in reports}
        assert {f"tbeta:rest[g=x^{k}]" for k in range(7)} | {"tbeta:control:wrong-p"} <= names

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            verify_beta_sizebias(CampaignSettings(p=0.0, n=N_SMOKE), RngStream(0))
        with pytest.raises(ValueError):
            verify_beta_sizebias(CampaignSettings(p=1.0, n=N_SMOKE), RngStream(0))


class TestBetaGeneralCampaign:
    def test_passes_with_cov_checks(self):
        reports = verify_beta_general(CampaignSettings(p=0.3, n=N_SMOKE), RngStream(75))
        assert campaign_ok(reports)
        assert sum(r.kind == "cov" for r in reports) == 4

    def test_wrong_c_fails(self):
        reports = verify_beta_general(CampaignSettings(p=0.3, n=N_SMOKE), RngStream(75))
        control = next(r for r in reports if r.kind == "control")
        assert control.verdict == "fail"


class TestSizebiasInvarianceCampaign:
    def test_passes_on_diffuse_base(self):
        reports = verify_sizebias_invariance(CampaignSettings(n=N_SMOKE), RngStream(76))
        assert campaign_ok(reports)
        assert any(r.kind == "ks" for r in reports)

    def test_only_a_constant_ks_cdf_reads_nan(self):
        # The rest 1 - W can underflow to 0 in every row: its KS test then
        # reads NaN, while a bad cdf or too few rows is still an error.
        rest = np.zeros(200)
        stat, p = ks_test(rest, lambda y: y**3.5)
        assert math.isnan(stat) and math.isnan(p)
        with pytest.raises(ValueError, match="outside"):
            ks_test(rest, lambda y: y - 1.0)
        with pytest.raises(ValueError, match="at least"):
            ks_test(rest[:10], lambda y: y**3.5)

    def test_atomic_base_rejected(self):
        # The campaign runs on a diffuse base of its own and reads no base.
        atomic = BaseModel(alpha=2.0, atom_probs=(0.5, 0.5), diffuse_weight=0.0)
        with pytest.raises(ValueError, match="sizebias does not read base"):
            run_verify("sizebias", CampaignSettings(n=N_SMOKE, base=atomic))

    def test_one_shard_holds_its_ensemble_once(self):
        # One 10 000-row shard at alpha 2 writes about 8 MB of sticks and
        # marks.  The running sums and the masked products go by slabs, so
        # the traced peak stays near the ensemble; a stacked copy of the
        # stick columns and whole-shard running sums read 23.6 MB.
        probs = _block_probs(BaseModel(alpha=2.0, atom_probs=(), diffuse_weight=1.0))
        tracemalloc.start()
        try:
            verify._removal_kernel(10_000, RngStream(1).gen, alpha=2.0, probs=probs,
                                   exponents=verify._exponents(len(probs), 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, peak


class TestMarkedSizebiasCampaign:
    def test_passes_with_failing_control(self):
        reports = verify_marked_sizebias(CampaignSettings(n=N_SMOKE), RngStream(77))
        assert campaign_ok(reports)
        control = next(r for r in reports if r.kind == "control")
        assert control.verdict == "fail"

    def test_grades_the_jump_run(self):
        # The ranked jumps face the exact moments the sticks face, and their
        # unnormalized total faces its mean alpha and the projection.
        reports = verify_marked_sizebias(CampaignSettings(n=N_SMOKE), RngStream(78))
        assert campaign_ok(reports)
        by_name = {r.name: r for r in reports}
        for name, r in by_name.items():
            if name.startswith("thm52:moment["):
                jump = by_name[name.replace("thm52:", "thm52:jump:")]
                assert jump.rhs == r.rhs and jump.lhs != r.lhs
        assert sum(name.startswith("thm52:jump:moment[") for name in by_name) == 9
        assert by_name["thm52:jump:total-mass-mean"].rhs == 2.0
        assert [r.name for r in reports if r.kind == "cov"] == ["thm52:jump:indep[Z0,total]"]

    @pytest.mark.parametrize("alpha", [1e-3, 0.01, 0.2])
    def test_the_sticks_pass_where_the_jumps_fail(self, alpha):
        # Where the jump kernel is wrong (ROADMAP items 3 and 4), every
        # report that does not read the jump run still comes out as
        # expected: the stick moments and the geometric control.
        reports = run_verify("thm52", CampaignSettings(alpha=alpha, n=N_SMOKE, seed=1))
        stick_side = [r for r in reports
                      if r.name.startswith("thm52:moment[") or r.kind == "control"]
        assert len(stick_side) == 10
        assert [r.name for r in stick_side if not r.ok()] == []


def _counted_kernels(monkeypatch) -> list:
    """The names of the projection kernels the campaigns call, in order."""
    calls = []
    for kernel in ("stick_projection_chunk", "gamma_projection_chunk"):

        def counted(*args, _kernel=getattr(verify, kernel), **kw):
            calls.append(_kernel.__name__)
            return _kernel(*args, **kw)

        monkeypatch.setattr(verify, kernel, counted)
    return calls


class TestDrawsOnce:
    @pytest.mark.parametrize(
        "name, construction",
        [("sethuraman", "stick"), ("sethuraman", "gamma"), ("mecke", "stick"), ("mecke", "gamma")],
    )
    def test_mixing_campaign_draws_its_measures_once(self, monkeypatch, name, construction):
        # One kernel call per shard; the mixing controls reuse its measures
        # and mecke's single-atom control draws no measure from a kernel.
        calls = _counted_kernels(monkeypatch)
        settings = CampaignSettings(n=N_SMOKE, construction=construction, jobs=1)
        assert campaign_ok(run_verify(name, settings))
        assert calls == [f"{construction}_projection_chunk"] * len(_shard_sizes(N_SMOKE))

    def test_thm52_draws_each_run_once_per_shard(self, monkeypatch):
        # The stick run and the jump run call their kernel once per shard;
        # the geometric control draws no measure from a kernel.  The largest
        # stick weights come from the projection kernel: no stick matrix.
        def no_ensemble(*args, **kwargs):
            raise AssertionError("thm52 drew a stick ensemble")

        monkeypatch.setattr(verify, "stick_ensemble_chunk", no_ensemble)
        calls = _counted_kernels(monkeypatch)
        assert campaign_ok(run_verify("thm52", CampaignSettings(n=N_SMOKE, jobs=1)))
        shards = len(_shard_sizes(N_SMOKE))
        assert calls == ["stick_projection_chunk"] * shards + ["gamma_projection_chunk"] * shards


@pytest.mark.parametrize("name", ["mecke", "sethuraman", "thm52"])
def test_a_wrong_stick_law_fails_an_identity_test(monkeypatch, name):
    # Sticks from Be(1, 1.25 alpha) with the close left at Dir(alpha probs):
    # the exact close must not hide a wrong stick law.  At the defaults
    # (alpha 2, n 200 000) mecke, sethuraman and thm52 fail 25, 16 and 8
    # identity tests with it.
    exact = samplers._stick_columns
    monkeypatch.setattr(samplers, "_stick_columns", lambda alpha, *rest: exact(1.25 * alpha, *rest))
    reports = run_verify(name, CampaignSettings(jobs=1))
    assert any(r.verdict == "fail" for r in reports if not r.expected_failure)


class TestAlphaGrid:
    """Stick-construction campaigns away from alpha = 2, at n=20000, seed 1.

    sizebias runs at alpha 0.05 and 0.1, where a first stick often rounds
    to 1: the rest of its row must keep its digits and the removed measure
    must not be formed by cancellation.  Two cells are left out.  mecke at
    alpha 10: its point-mass control is underpowered at this n.  thm52 at
    alpha <= 0.2: its jump run is known to be wrong there, and
    ``test_the_sticks_pass_where_the_jumps_fail`` holds its stick side.
    """

    @pytest.mark.parametrize(
        "name, alpha",
        [("sizebias", a) for a in (0.05, 0.1, 0.5, 10.0)]
        + [("mecke", 0.5)]
        + [(name, a) for name in ("sethuraman", "thm52") for a in (0.5, 10.0)],
    )
    def test_every_report_comes_out_as_expected(self, name, alpha):
        reports = run_verify(name, CampaignSettings(alpha=alpha, n=N_SMOKE, seed=1))
        assert [r.name for r in reports if not r.ok()] == []


def _open_defect(name, alpha, construction, reason, p=0.3):
    mark = pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
    return pytest.param(name, alpha, construction, p, marks=mark,
                        id=f"{name}-{construction}-{alpha:g}-p{p:g}")


_JUMP_FLOOR = "jumps below the absolute DEFAULT_JUMP_EPS are dropped, so many rows are one atom"
_LARGEST = ("thm52:largest-weight-paths compares stick maxima with the jump kernel's, whose "
            "law is wrong here (ROADMAP item 3)")
_CROSS = ("the jump run's cross moments fail against the exact Dirichlet moments, while the "
          "stick moments pass (ROADMAP item 4)")
_WEAK = "a control whose fixed shift cannot reject at this alpha (ROADMAP item 7)"
_RARE = "a z-test on a mean carried by a few rows is not calibrated (ROADMAP item 8)"


# Known wrong outcomes at n=20000, seed 1.  Each is a strict xfail, so a
# change that mends one sees it pass and fail the run, and removes its mark.
@pytest.mark.parametrize("name, alpha, construction, p", [
    _open_defect("mecke", 0.01, "gamma",
                 f"{_JUMP_FLOOR}: 16 of 32 reports wrong (ROADMAP item 4)"),
    _open_defect("sethuraman", 0.01, "gamma",
                 f"{_JUMP_FLOOR}: 9 of 20 reports wrong (ROADMAP item 4)"),
    _open_defect("sizebias", 1e-3, "stick", "the rest 1 - W underflows to 0 in about half the "
                 "rows: 10 of 30 reports wrong (ROADMAP item 2)"),
    _open_defect("sethuraman", 1e-3, "gamma",
                 f"{_JUMP_FLOOR}: 4 moment reports, z down to -4.58 (ROADMAP item 4)"),
    _open_defect("thm52", 1e-3, "stick", f"{_CROSS}: 3 reports, z down to -7001; {_LARGEST}: "
                 "KS D 0.035"),
    _open_defect("thm52", 0.01, "stick", f"{_CROSS}: 3 reports, z down to -25.3; {_LARGEST}: "
                 "KS D 0.289"),
    _open_defect("thm52", 0.2, "stick", f"only {_LARGEST}: KS D 0.127"),
    _open_defect("mecke", 10, "stick", f"point-mass-mixing z 3.30: {_WEAK}"),
    _open_defect("mecke", 10, "gamma", f"point-mass-mixing z -3.04: {_WEAK}"),
    _open_defect("mecke", 50, "stick", f"point-mass-mixing z -0.82: {_WEAK}"),
    _open_defect("mecke", 1e-3, "stick", f"single-atom-input z -3.89: {_WEAK}"),
    _open_defect("mecke", 1e-3, "gamma", f"single-atom-input z -3.89: {_WEAK}"),
    _open_defect("mecke", 50, "gamma", f"point-mass-mixing z -1.90: {_WEAK}"),
    _open_defect("sethuraman", 1e-3, "stick", f"wrong-mixing-shape z 1.96: {_WEAK}"),
    _open_defect("sethuraman", 50, "stick", f"wrong-mixing-shape z -2.62: {_WEAK}"),
    _open_defect("sethuraman", 50, "gamma", f"wrong-mixing-shape z -0.98: {_WEAK}"),
    _open_defect("tbeta2", 10, "stick", f"wrong-c z -2.06: {_WEAK}", p=0.5),
    _open_defect("tbeta2", 50, "stick", f"wrong-c z -0.93: {_WEAK}"),
    _open_defect("tbeta", 0.01, "stick", f"5 rest reports, z down to -16.2: {_RARE}", p=0.999),
    _open_defect("tbeta", 0.01, "stick", f"rest[g=x^6] z -4.02: {_RARE}", p=0.99),
    _open_defect("tbeta2", 0.01, "stick", f"indep[ratio^2,sum] z -4.91: {_RARE}", p=0.5),
])
def test_open_defect_cells(name, alpha, construction, p):
    settings = CampaignSettings(alpha=alpha, p=p, n=N_SMOKE, seed=1, construction=construction)
    assert campaign_ok(run_verify(name, settings))


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this thread once the block has run ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _truncating_kernel(m, gen, **params):
    """Stands in for a campaign kernel that fails inside a worker."""
    raise TruncationError(0.5, 7)


class _InProcessPool:
    """Stands in for ``multiprocessing.Pool``: records the worker count it
    is asked for and the threads running when it is made, and runs
    ``apply_async`` in this process."""

    asked: list = []
    threads: list = []

    def __init__(self, processes):
        self.asked.append(processes)
        self.threads.append(threading.active_count())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def apply_async(self, fn, args):
        part = fn(*args)
        return SimpleNamespace(get=lambda: part)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestRunVerify:
    def test_unknown_campaign(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            run_verify("nonsense")

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_settings_reject_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            CampaignSettings(alpha=alpha)

    def test_same_seed_same_reports(self):
        settings = CampaignSettings(n=N_SMOKE, seed=99)
        a = [r.to_dict() for r in run_verify("tbeta", settings)]
        b = [r.to_dict() for r in run_verify("tbeta", settings)]
        assert a == b

    def test_all_matches_individual_campaigns(self):
        settings = CampaignSettings(n=N_SMOKE, seed=31)
        merged = [r.to_dict() for r in run_verify("all", settings)]
        singles = [
            r.to_dict() for name in CAMPAIGN_NAMES for r in run_verify(name, settings)
        ]
        assert merged == singles

    def test_shards_draw_from_distinct_keyed_substreams(self, monkeypatch):
        # Shard k of variant v of the campaign at index i of _CAMPAIGNS
        # draws from the substream keyed (i + 1, v, k).  A campaign run
        # alone draws its slice of the keys of "all", and gives its slice
        # of the reports.
        keys = []

        def keyed(task, _shard=verify._shard):
            keys.append(task[-1])
            return _shard(task)

        monkeypatch.setattr(verify, "_shard", keyed)
        settings = CampaignSettings(n=verify.SHARD_SIZE + 2, seed=33)
        merged = [r.to_dict() for r in run_verify("all", settings)]
        all_keys, keys[:] = keys[:], []
        singles = [
            r.to_dict() for name in CAMPAIGN_NAMES for r in run_verify(name, settings)
        ]
        assert len(set(all_keys)) == len(all_keys)
        assert {key[0] for key in all_keys} == set(range(1, len(CAMPAIGN_NAMES) + 1))
        assert {key[2] for key in all_keys} == {0, 1}
        assert keys == all_keys
        assert merged == singles

    def test_all_passes_construction_only_to_the_campaigns_that_read_it(self):
        # Each campaign gets the settings it reads of p, base and
        # construction; the others stay at their defaults.
        settings = CampaignSettings(
            n=verify.SHARD_SIZE,
            seed=34,
            p=0.4,
            construction="gamma",
            base=BaseModel(alpha=2.0, atom_probs=(0.3, 0.3), diffuse_weight=0.4),
        )
        reads = {"mecke": ("base", "construction"), "tbeta": ("p",),
                 "sethuraman": ("base", "construction"), "tbeta2": ("p",),
                 "sizebias": (), "thm52": ()}
        defaults = CampaignSettings()
        merged = [r.to_dict() for r in run_verify("all", settings)]
        singles = [
            r.to_dict()
            for name in CAMPAIGN_NAMES
            for r in run_verify(name, replace(settings, **{
                k: getattr(defaults, k)
                for k in ("p", "base", "construction") if k not in reads[name]
            }))
        ]
        assert merged == singles

    def test_all_is_ok_even_with_atomic_base(self):
        # The removal campaign needs a diffuse base; "all" must substitute
        # its default instead of failing on the configured atomic one.
        settings = CampaignSettings(
            n=N_SMOKE,
            seed=32,
            base=BaseModel(alpha=2.0, atom_probs=(0.4, 0.6), diffuse_weight=0.0),
        )
        assert campaign_ok(run_verify("all", settings))

    def test_every_campaign_is_independent_of_worker_count(self, monkeypatch):
        # Small shards put every campaign across four shards.
        monkeypatch.setattr(verify, "SHARD_SIZE", 5_000)

        def reports(jobs):
            settings = CampaignSettings(n=20_000, seed=53, jobs=jobs)
            return [r.to_dict() for r in run_verify("all", settings)]

        assert reports(1) == reports(2)

    @pytest.mark.parametrize("name", CAMPAIGN_NAMES)
    def test_one_shard_runs_in_flight_give_the_same_reports(self, name):
        # One shard per run: at jobs=2 a campaign's runs are in the pool
        # together, at jobs=1 each is computed here in turn.
        def reports(jobs):
            settings = CampaignSettings(n=verify.SHARD_SIZE, seed=61, jobs=jobs)
            return [r.to_dict() for r in run_verify(name, settings)]

        assert reports(2) == reports(1)

    def test_workers_are_capped_at_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(_InProcessPool, "asked", [])
        monkeypatch.setattr(_InProcessPool, "threads", [])
        monkeypatch.setattr(verify.multiprocessing, "Pool", _InProcessPool)
        cpus = _cpus()
        settings = CampaignSettings(n=N_SMOKE, seed=63)
        many = [r.to_dict() for r in run_verify("all", replace(settings, jobs=10**6))]
        # One pool for the whole run, with at most one worker per usable CPU,
        # forked while this is the only thread.
        assert _InProcessPool.asked == ([cpus] if cpus > 1 else [])
        assert _InProcessPool.threads == [1] * len(_InProcessPool.asked)
        assert many == [r.to_dict() for r in run_verify("all", settings)]

    def test_a_campaign_asks_for_no_more_workers_than_shards(self, monkeypatch):
        monkeypatch.setattr(_InProcessPool, "asked", [])
        monkeypatch.setattr(_InProcessPool, "threads", [])
        monkeypatch.setattr(verify.multiprocessing, "Pool", _InProcessPool)
        two = [min(2, _cpus())] if _cpus() > 1 else []
        # One shard: computed here, no pool.
        run_verify("sethuraman", CampaignSettings(n=verify.SHARD_SIZE, jobs=2))
        assert _InProcessPool.asked == []
        # Two shards of one run go to one pool of two workers, and so do
        # two one-shard variants.
        run_verify("sethuraman", CampaignSettings(n=2 * verify.SHARD_SIZE, jobs=2))
        assert _InProcessPool.asked == two
        run_verify("mecke", CampaignSettings(n=verify.SHARD_SIZE, jobs=2))
        assert _InProcessPool.asked == two * 2

    def test_all_rejects_a_one_block_base_before_its_pool(self, monkeypatch):
        monkeypatch.setattr(_InProcessPool, "asked", [])
        monkeypatch.setattr(verify.multiprocessing, "Pool", _InProcessPool)
        one_block = BaseModel(alpha=2.0, atom_probs=(1.0,))
        settings = CampaignSettings(n=N_SMOKE, base=one_block, jobs=2)
        with pytest.raises(ValueError, match="at least two blocks"):
            run_verify("all", settings)
        assert _InProcessPool.asked == []

    @pytest.mark.parametrize("name", ["tbeta", "all"])
    def test_worker_error_reaches_the_caller(self, monkeypatch, name):
        # Forked workers inherit the patched kernel.  An error that cannot
        # travel back from a worker would leave the run waiting forever.
        # Four shards put siblings of the failing shard in flight.
        monkeypatch.setattr(verify, "SHARD_SIZE", 5_000)
        monkeypatch.setattr(verify, "_tbeta_kernel", _truncating_kernel)
        for jobs in (1, 2):
            with _deadline(120), pytest.raises(TruncationError, match="after 7 sticks"):
                run_verify(name, CampaignSettings(n=N_SMOKE, jobs=jobs))
        assert multiprocessing.active_children() == []

    def test_worker_count_does_not_change_reports(self):
        # 26 shards at 260k; the merge must be associative in shard order.
        settings_1 = CampaignSettings(n=260_000, seed=47, jobs=1)
        settings_2 = CampaignSettings(n=260_000, seed=47, jobs=2)
        a = [r.to_dict() for r in run_verify("tbeta", settings_1)]
        b = [r.to_dict() for r in run_verify("tbeta", settings_2)]
        assert a == b


def _beta_pair(n, p, alpha, seed):
    gen = np.random.default_rng(seed)
    return gen.beta(p * alpha, (1 - p) * alpha, n), gen.beta(1.0, alpha, n)


class TestCharacterize:
    def test_recovers_true_family(self):
        z, w = _beta_pair(150_000, 0.3, 2.0, 201)
        rep = characterize_from_samples(z, w, depth=5)
        assert isinstance(rep, CharacterizationReport)
        assert rep.verdict == "pass"
        assert rep.max_abs_z <= 4.0
        assert rep.p_hat == pytest.approx(0.3, abs=0.01)
        assert rep.alpha_hat == pytest.approx(2.0, abs=0.05)
        assert [r.degree for r in rep.rows] == [2, 3, 4, 5]

    def test_known_p_variant(self):
        z, w = _beta_pair(150_000, 0.3, 2.0, 202)
        rep = characterize_from_samples(z, w, depth=4, p=0.3)
        assert rep.verdict == "pass"
        assert rep.p_hat == 0.3

    def test_mean_matched_uniform_mixing_fails(self):
        # Uniform on [0, 2/3] matches the Be(1, 2) mean but not the second
        # moment (4/27 vs 1/6), so the degree-2 row must reject.
        gen = np.random.default_rng(203)
        z = gen.beta(0.6, 1.4, 150_000)
        w = gen.random(150_000) * (2.0 / 3.0)
        rep = characterize_from_samples(z, w, depth=3)
        assert rep.verdict == "fail"
        assert abs(rep.rows[0].z) > 10

    def test_near_symmetric_deep_chain_is_degenerate(self):
        z, w = _beta_pair(150_000, 0.495, 2.0, 204)
        rep = characterize_from_samples(z, w, depth=4)
        assert rep.ill_conditioned
        assert rep.verdict == "degenerate"
        assert "ill-conditioned" in rep.notes

    def test_near_symmetric_shallow_chain_is_graded(self):
        z, w = _beta_pair(150_000, 0.495, 2.0, 205)
        rep = characterize_from_samples(z, w, depth=2)
        assert not rep.ill_conditioned
        assert rep.verdict == "pass"

    def test_exactly_symmetric_chain_reports_singular(self):
        # Antithetic z makes the empirical law exactly symmetric, so the
        # degree-3 coefficient cancels to rounding level and the chain
        # aborts instead of dividing by noise.
        gen = np.random.default_rng(206)
        u = gen.beta(1.0, 1.0, 75_000)
        z = np.concatenate([u, 1.0 - u])
        w = gen.beta(1.0, 2.0, 150_000)
        rep = characterize_from_samples(z, w, depth=4, p=0.5)
        assert rep.verdict == "degenerate"
        assert rep.rows == ()
        assert "singular" in rep.notes
        assert math.isnan(rep.max_abs_z)
        assert rep.ill_conditioned
        assert rep.p_hat == 0.5
        assert rep.n_z == rep.n_w == 150_000

    def test_zero_stderr_grades_like_verify(self):
        # Constant samples have no spread, so every row's stderr is 0.  A row
        # that misses its empirical moment then reads the z a verify report
        # reads at se 0: inf whatever the sign of the miss, not NaN beside an
        # infinite max_abs_z.
        rep = characterize_from_samples(np.full(200, 0.3), np.full(200, 0.3), depth=3)
        assert [r.stderr for r in rep.rows] == [0.0, 0.0]
        diffs = [r.predicted - r.empirical for r in rep.rows]
        assert all(d < 0.0 for d in diffs)
        graded = _grader().reports(["a", "b"], _estimate(diffs, [0.0, 0.0]))
        assert [r.z for r in rep.rows] == [r.statistic for r in graded] == [math.inf, math.inf]
        assert rep.max_abs_z == math.inf
        assert rep.verdict == "fail"

    @pytest.mark.parametrize("alpha", [1e4, 1e6, 1e8, 1e12])
    def test_large_alpha_recovers_its_family(self, alpha):
        # The W-moments are about k!/alpha^k.  A Jacobian step that does not
        # scale with them, or a chain on raw Z-moments, whose known part is
        # of order 1 against an unknown of order alpha^-k, reads a wrong
        # verdict here; the chain runs on Z's central moments instead.
        z, w = _beta_pair(200_000, 0.3, alpha, 211)
        rep = characterize_from_samples(z, w)
        assert rep.verdict == "pass"
        assert rep.max_abs_z <= 4.0
        assert rep.alpha_hat == pytest.approx(alpha, rel=0.01)

    def test_chain_holds_at_alpha_1e6(self):
        # On raw moments, predicted b_3 was rounding noise near 1e-16
        # against a true 6e-18 and a stderr of 2e-17, and this seed read
        # z = 8.4.
        z, w = samplers.beta_pairs(0.3, 1e6, 200_000, RngStream(6).gen)
        assert characterize_from_samples(z, w).verdict == "pass"

    @pytest.mark.parametrize("alpha", [1e4, 1e8])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wrong_mixing_law_is_rejected_at_large_alpha(self, alpha, seed):
        # W ~ Be(1, 1.05 alpha) in place of Be(1, alpha).
        gen = RngStream(seed).gen
        z, _ = samplers.beta_pairs(0.3, alpha, 200_000, gen)
        w = gen.beta(1.0, 1.05 * alpha, 200_000)
        assert characterize_from_samples(z, w).verdict == "fail"

    def test_input_validation(self):
        z, w = _beta_pair(500, 0.3, 2.0, 207)
        with pytest.raises(ValueError, match="at least 100"):
            characterize_from_samples(z[:50], w)
        with pytest.raises(ValueError, match="lie in"):
            characterize_from_samples(z + 1.0, w)
        w_nan, z_nan = np.append(w[:-1], np.nan), np.append(z[:-1], np.nan)
        for args, kwargs in [((z, w_nan), {}), ((z_nan, w), {"p": 0.3}), ((z_nan, w), {})]:
            with pytest.raises(ValueError, match=r"samples must lie in \[0, 1\]"):
                characterize_from_samples(*args, **kwargs)
        with pytest.raises(ValueError, match="depth"):
            characterize_from_samples(z, w, depth=0)
        with pytest.raises(ValueError, match="depth"):
            characterize_from_samples(z, w, depth=9)


class TestDefaultPartition:
    # Base masses of the projection blocks the campaigns use.
    def test_mixed_base(self, base_model):
        assert _block_probs(base_model) == (0.2, 0.35, 0.45)

    def test_pure_diffuse_base(self):
        probs = _block_probs(BaseModel(alpha=1.0, atom_probs=(), diffuse_weight=1.0))
        assert probs == pytest.approx((0.2, 0.3, 0.5), abs=1e-15)

    def test_trailing_atoms_share_a_block(self):
        atoms = (0.1, 0.2, 0.05, 0.15, 0.3, 0.2)
        assert _block_probs(BaseModel(alpha=2.0, atom_probs=atoms)) == (
            0.1, 0.2, 0.05, 0.15 + 0.3 + 0.2
        )
        mixed = BaseModel(alpha=2.0, atom_probs=(0.1,) * 5, diffuse_weight=0.5)
        assert _block_probs(mixed) == (0.1, 0.1, 0.1 + 0.1 + 0.1, 0.5)
        four = BaseModel(alpha=2.0, atom_probs=(0.1, 0.2, 0.3, 0.4))
        assert _block_probs(four) == (0.1, 0.2, 0.3, 0.4)
