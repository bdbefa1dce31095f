"""Tests for the KS statistics and normal-tail helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from dpm.stats import (
    MIN_KS_SAMPLES,
    kolmogorov_sf,
    ks_test,
    ks_two_sample,
    two_sided_p,
)


class TestNormalTails:
    def test_reference_values(self):
        assert two_sided_p(0.0) == pytest.approx(1.0, abs=1e-15)
        assert two_sided_p(1.959963984540054) == pytest.approx(0.05, rel=1e-12)

    def test_matches_scipy(self):
        zs = np.linspace(-6, 6, 41)
        ours = np.array([two_sided_p(z) for z in zs])
        ref = 2.0 * stats.norm.sf(np.abs(zs))
        assert np.allclose(ours, ref, rtol=1e-12)

    @given(st.floats(min_value=-8, max_value=8))
    def test_two_sided_is_symmetric(self, z):
        assert two_sided_p(z) == two_sided_p(-z)
        assert 0.0 <= two_sided_p(z) <= 1.0


class TestKolmogorovSf:
    def test_matches_scipy_kolmogorov(self):
        lams = np.linspace(0.3, 3.0, 28)
        ours = np.array([kolmogorov_sf(l) for l in lams])
        ref = special.kolmogorov(lams)
        assert np.allclose(ours, ref, atol=1e-12)

    def test_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(-1.0) == 1.0
        assert kolmogorov_sf(10.0) == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(min_value=0.01, max_value=5.0))
    def test_monotone_decreasing(self, lam):
        # Monotone up to the 1e-12 truncation of the alternating series.
        assert kolmogorov_sf(lam) >= kolmogorov_sf(lam + 0.1) - 5e-12


class TestOneSampleKs:
    def test_agrees_with_scipy_asymptotic(self):
        gen = np.random.default_rng(101)
        x = gen.beta(2.0, 3.0, size=5000)
        stat, p = ks_test(x, stats.beta(2.0, 3.0).cdf)
        ref = stats.kstest(x, stats.beta(2.0, 3.0).cdf, mode="asymp")
        assert stat == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-9)

    def test_rejects_wrong_law(self):
        gen = np.random.default_rng(102)
        x = gen.beta(2.0, 3.0, size=5000)
        _, p = ks_test(x, stats.beta(3.0, 2.0).cdf)
        assert p < 1e-10

    def test_calibration_under_null(self):
        # p-values under the null are approximately uniform; count how many
        # of 200 independent tests fall below 0.1.
        gen = np.random.default_rng(103)
        rejects = sum(
            ks_test(gen.uniform(size=400), lambda t: t)[1] < 0.1 for _ in range(200)
        )
        # Binomial(200, ~0.1): mean 20, sd 4.2; allow a generous band.
        assert 4 <= rejects <= 40

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ks_test(np.linspace(0.01, 0.99, MIN_KS_SAMPLES - 1), lambda t: t)

    def test_non_monotone_cdf_rejected(self):
        x = np.linspace(0.01, 0.99, 200)
        with pytest.raises(ValueError, match="monotone"):
            ks_test(x, lambda t: np.where(t < 0.5, t, 1.0 - t))

    def test_constant_cdf_rejected(self):
        # A cdf constant everywhere yields no statistic, only NaN.
        x = np.linspace(0.01, 0.99, 200)
        stat, p = ks_test(x, lambda t: np.full_like(t, 0.5))
        assert math.isnan(stat) and math.isnan(p)

    def test_constant_cdf_reads_nan(self):
        # As sizebias's rest is when every value underflows to 0: the test
        # cannot compare laws, and a report grades the NaN degenerate.
        stat, p = ks_test(np.zeros(200), lambda y: y**3.5)
        assert math.isnan(stat) and math.isnan(p)

    def test_out_of_range_cdf_rejected(self):
        x = np.linspace(0.01, 0.99, 200)
        with pytest.raises(ValueError, match="outside"):
            ks_test(x, lambda t: 2.0 * t)

    def test_nan_cdf_rejected(self):
        x = np.linspace(0.01, 0.99, 200)
        with pytest.raises(ValueError, match="NaN"):
            ks_test(x, lambda t: np.where(t < 0.5, t, np.nan))

    def test_shape_mismatch_rejected(self):
        x = np.linspace(0.01, 0.99, 200)
        with pytest.raises(ValueError, match="equal-length"):
            ks_test(x, lambda t: np.array([0.5]))


class TestTwoSampleKs:
    def test_agrees_with_scipy_asymptotic(self):
        gen = np.random.default_rng(104)
        x = gen.normal(size=3000)
        y = gen.normal(size=2000)
        stat, p = ks_two_sample(x, y)
        ref = stats.ks_2samp(x, y, method="asymp")
        assert stat == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=5e-3)

    def test_detects_shift(self):
        gen = np.random.default_rng(105)
        x = gen.normal(size=2000)
        y = gen.normal(loc=0.3, size=2000)
        _, p = ks_two_sample(x, y)
        assert p < 1e-6

    def test_identical_samples(self):
        x = np.linspace(0, 1, 500)
        stat, p = ks_two_sample(x, x)
        assert stat == 0.0
        assert p == 1.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.linspace(0, 1, 50), np.linspace(0, 1, 500))


def _one_shot_ks(x, cdf):
    """The one-sample statistic over the whole sorted sample at once."""
    x = np.sort(x)
    n, f = x.size, cdf(x)
    grid = np.arange(1, n + 1) / n
    return max(float(np.max(grid - f)), float(np.max(f - (grid - 1.0 / n))))


def _one_shot_ks2(x, y):
    """The two-sample statistic over every pooled point at once."""
    x, y = np.sort(x), np.sort(y)
    both = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, both, side="right") / x.size
    cdf_y = np.searchsorted(y, both, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


@pytest.mark.parametrize("n", [100, 2**15, 2**15 + 1, 3 * 2**15 + 77])
def test_ks_by_slabs_is_the_one_shot_statistic(n):
    # Slabs of 2^15 points: one, exactly one, one and a point, four.
    x = np.random.default_rng(n).beta(2.0, 3.0, size=n)
    stat, p = ks_test(x, stats.beta(2.0, 3.1).cdf)
    assert stat == _one_shot_ks(x, stats.beta(2.0, 3.1).cdf)
    assert p == kolmogorov_sf(math.sqrt(n) * stat)


@pytest.mark.parametrize("nx, ny", [(100, 150), (70_001, 40_000), (2**15, 3 * 2**15 + 5)])
def test_two_sample_ks_by_slabs_is_the_one_shot_statistic(nx, ny):
    # Unequal sizes over several slabs, with values rounded to three
    # digits so that many points tie within and across the samples.
    gen = np.random.default_rng(nx + ny)
    x = np.round(gen.normal(size=nx), 3)
    y = np.round(gen.normal(loc=0.01, size=ny), 3)
    assert np.intersect1d(x, y).size > 0
    stat, p = ks_two_sample(x, y)
    assert stat == _one_shot_ks2(x, y)
    assert p == kolmogorov_sf(math.sqrt(nx * ny / (nx + ny)) * stat)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_two_sample_stat_bounded(seed):
    gen = np.random.default_rng(seed)
    x = gen.uniform(size=150)
    y = gen.uniform(size=150)
    stat, p = ks_two_sample(x, y)
    assert 0.0 <= stat <= 1.0
    assert 0.0 <= p <= 1.0
