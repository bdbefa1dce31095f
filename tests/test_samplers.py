"""Samplers: named RNG streams, both measure constructions, chunk kernels."""

import math

import numpy as np
import pytest
from scipy import stats

from dpm import samplers
from dpm.measures import BaseModel, GroundPoint
from dpm.samplers import (
    RngStream,
    TruncationError,
    beta_pairs,
    block_projection,
    draw_blocks,
    gamma_jumps,
    gamma_projection_chunk,
    sample_jump_measure,
    sample_stick_breaking,
    stick_ensemble_chunk,
    stick_projection_chunk,
)
from dpm.specialfn import exp_integral_e1


def atom0_masses(measures):
    """Mass of atom 0 in each measure."""
    return np.array([dict(mu.atoms).get(GroundPoint(atom=0), 0.0) for mu in measures])


def normalized_rows(jumps):
    return jumps / jumps.sum(axis=1, keepdims=True)


def jump_arrivals(alpha, m, seed, eps=1e-8):
    """The unit-rate arrivals gamma_jumps draws from RngStream(seed), drawn
    again in the kernel's order, with the kernel's limit alpha * E1(eps)."""
    gen = RngStream(seed).gen
    limit = alpha * exp_integral_e1(eps)
    arr = gen.exponential(size=(m, int(limit + 8.0 * math.sqrt(limit) + 16.0))).cumsum(axis=1)
    while arr[:, -1].min() <= limit:
        arr = np.concatenate([arr, arr[:, -1:] + gen.exponential(size=(m, 16)).cumsum(axis=1)], axis=1)
    return arr, limit


class TestRngStream:
    def test_same_stream_reproduces(self):
        a = RngStream(42, 7).gen.random(10)
        b = RngStream(42, 7).gen.random(10)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = RngStream(42, 1).gen.random(10)
        b = RngStream(42, 2).gen.random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1, 0).gen.random(10)
        b = RngStream(2, 0).gen.random(10)
        assert not np.array_equal(a, b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(1, -2)


class TestScalarDraws:
    def test_beta_against_scipy_ks(self):
        z, w = beta_pairs(0.3, 2.0, 50_000, RngStream(4).gen)
        stat, p = stats.kstest(z, stats.beta(0.6, 1.4).cdf)
        assert p > 1e-3
        stat, p = stats.kstest(w, stats.beta(1.0, 2.0).cdf)
        assert p > 1e-3

    def test_base_point_frequencies(self):
        n = 30_000
        blocks = draw_blocks((0.2, 0.35, 0.45), RngStream(6).gen, n)
        freq = np.bincount(blocks, minlength=3) / n
        assert freq[0] == pytest.approx(0.2, abs=0.01)
        assert freq[1] == pytest.approx(0.35, abs=0.012)
        assert freq[2] == pytest.approx(0.45, abs=0.012)


class TestStickConfig:
    """The stick cap and the parameter checks of the stick samplers."""

    def test_for_alpha_has_margin(self):
        cap = samplers._stick_cap(2.0, 1e-12)
        assert cap >= 64
        expected_tail = cap * math.log(2.0 / 3.0)
        assert expected_tail <= math.log(1e-12)

    def test_rejects_impossible_cap(self):
        # The cap is derived from (alpha, eps), so no (alpha, eps) gets a cap
        # whose expected leftover is still above eps; large alpha and tiny
        # eps need many sticks.
        for alpha, eps in ((5.0, 1e-12), (50.0, 1e-12), (0.1, 0.5)):
            cap = samplers._stick_cap(alpha, eps)
            assert cap * math.log(alpha / (alpha + 1.0)) <= math.log(eps)
        assert samplers._stick_cap(50.0, 1e-12) > 4 * 1300

    def test_rejects_bad_params(self):
        model = BaseModel(alpha=1.0, atom_probs=(1.0,))
        with pytest.raises(ValueError):
            stick_ensemble_chunk(0.0, (1.0,), 4, RngStream(0).gen)
        with pytest.raises(ValueError):
            sample_stick_breaking(model, RngStream(0), 1, trunc_eps=0.0)
        with pytest.raises(ValueError):
            sample_jump_measure(model, RngStream(0), 1, trunc_eps=0.0)


class TestStickBreaking:
    def test_total_is_exactly_one(self):
        model = BaseModel(alpha=2.0, atom_probs=(), diffuse_weight=1.0)
        for zeta in sample_stick_breaking(model, RngStream(7), 50):
            assert zeta.total == pytest.approx(1.0, abs=1e-12)
            assert all(w > 0 for _, w in zeta.atoms)

    def test_truncation_error_at_tiny_cap(self, monkeypatch):
        # At alpha 3 the leftover after 5 sticks exceeds 0.3 roughly 30% of
        # the time, so among 200 rows some must hit a 5-stick cap.
        monkeypatch.setattr(samplers, "_stick_cap", lambda alpha, eps: 5)
        model = BaseModel(alpha=3.0, atom_probs=(1.0,))
        with pytest.raises(TruncationError) as exc:
            sample_stick_breaking(model, RngStream(8), 200, trunc_eps=0.3)
        assert exc.value.tail_mass > 0.3

    def test_atom_marginal_is_beta(self):
        # zeta({atom}) ~ Be(alpha*nu(atom), alpha*(1-nu(atom)))
        model = BaseModel(alpha=2.0, atom_probs=(0.3, 0.7))
        vals = atom0_masses(sample_stick_breaking(model, RngStream(9), 4000))
        stat, p = stats.kstest(vals, stats.beta(0.6, 1.4).cdf)
        assert p > 1e-3

    def test_rows_close_at_their_own_first_small_leftover(self):
        # With a diffuse base no marks merge, so a row's weights are its
        # sticks in order, then the closing leftover.
        eps = samplers.DEFAULT_STICK_EPS
        model = BaseModel(alpha=2.0, atom_probs=(), diffuse_weight=1.0)
        for zeta in sample_stick_breaking(model, RngStream(40), 300):
            w = [w for _, w in zeta.atoms]
            assert len(w) >= 2
            assert w[-1] <= eps < w[-2] + w[-1]

    @pytest.mark.parametrize("sampler", [sample_stick_breaking, sample_jump_measure])
    def test_marks_follow_the_base_support(self, sampler):
        atoms_only = BaseModel(alpha=2.0, atom_probs=(0.4, 0.6))
        diffuse = BaseModel(alpha=2.0, atom_probs=(), diffuse_weight=1.0)
        for zeta in sampler(atoms_only, RngStream(41), 100):
            assert all(p.cont is None and p.atom in (0, 1) for p, _ in zeta.atoms)
        coords = [p.cont for zeta in sampler(diffuse, RngStream(42), 100) for p, _ in zeta.atoms]
        assert None not in coords
        assert stats.kstest(coords, stats.uniform.cdf).pvalue > 1e-3


class TestJumpConstruction:
    def test_jumps_decreasing_and_thresholded(self):
        jumps = gamma_jumps(2.0, 20, RngStream(10).gen, trunc_eps=1e-4)
        for row in jumps:
            kept = row[row > 0]
            # the kept jumps are a prefix and every row keeps its largest
            assert kept.size >= 1 and np.all(row[kept.size:] == 0.0)
            assert np.all(np.diff(kept) < 0)
            assert np.all(kept[1:] >= 1e-4 * (1 - 1e-9))

    def test_expected_jump_count(self):
        eps = 1e-3
        alpha = 2.0
        counts = np.count_nonzero(gamma_jumps(alpha, 3000, RngStream(11).gen, eps), axis=1)
        target = alpha * exp_integral_e1(eps)
        se = np.std(counts) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - target) < 5 * se

    def test_total_mass_is_gamma(self):
        # total of the untruncated jumps is Gamma(alpha); with eps=1e-8 the
        # truncation bias is far below KS resolution
        totals = gamma_jumps(1.5, 3000, RngStream(12).gen).sum(axis=1)
        stat, p = stats.kstest(totals, stats.gamma(1.5).cdf)
        assert p > 1e-3

    def test_jumps_invert_their_own_arrivals(self):
        # The kept set and each jump follow from the arrivals alone: a jump
        # is kept where its arrival is within the limit (and in column 0),
        # and it inverts that arrival's G / alpha.
        for alpha, seed in ((5.0, 40), (0.3, 41)):
            jumps = gamma_jumps(alpha, 300, RngStream(seed).gen)
            arr, limit = jump_arrivals(alpha, 300, seed)
            keep = arr <= limit
            keep[:, 0] = True
            assert np.array_equal(jumps != 0.0, keep)
            target = np.minimum(arr[keep] / alpha, 690.0)
            assert np.all(np.abs(exp_integral_e1(jumps[keep]) - target) <= 1e-11 * target)

    def test_first_arrival_beyond_the_cap_is_one_finite_jump(self):
        alpha, m, seed = 0.01, 3000, 42
        jumps = gamma_jumps(alpha, m, RngStream(seed).gen)
        arr, _ = jump_arrivals(alpha, m, seed)
        capped = arr[:, 0] / alpha > 690.0
        assert capped.any()
        assert np.all(np.count_nonzero(jumps[capped], axis=1) == 1)
        first = jumps[capped, 0]
        assert np.all(np.isfinite(first) & (first > 0.0))

    def test_kernel_validation(self):
        gen = RngStream(0).gen
        for alpha, eps in ((0.0, 1e-8), (-1.0, 1e-8), (2.0, 0.0), (2.0, 0.5)):
            with pytest.raises(ValueError):
                gamma_jumps(alpha, 10, gen, eps)

    def test_per_measure_path_is_row_zero_of_the_kernel(self):
        # With a diffuse base no jumps merge: each measure's weights are a
        # normalized row of the kernel's jumps, in decreasing order.
        for seed, alpha in ((30, 2.0), (31, 0.3), (32, 15.0)):
            model = BaseModel(alpha=alpha, atom_probs=(), diffuse_weight=1.0)
            measures = sample_jump_measure(model, RngStream(seed), 5, 1e-6)
            rows = normalized_rows(gamma_jumps(alpha, 5, RngStream(seed).gen, 1e-6))
            for zeta, row in zip(measures, rows):
                assert np.array_equal([w for _, w in zeta.atoms], row[row > 0])

    def test_normalized_sums_to_one(self):
        for w in normalized_rows(gamma_jumps(2.0, 20, RngStream(13).gen)):
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(w) <= 0)

    def test_largest_weight_mean_matches_ranked_law(self):
        # E(largest weight) for alpha=1 is known to be 0.6243...; a loose
        # band around it exercises the whole pipeline
        largest = normalized_rows(gamma_jumps(1.0, 4000, RngStream(14).gen))[:, 0]
        assert largest.mean() == pytest.approx(0.6243, abs=0.012)

    def test_jump_measure_is_probability(self):
        model = BaseModel(alpha=2.0, atom_probs=(0.2, 0.35), diffuse_weight=0.45)
        for zeta in sample_jump_measure(model, RngStream(15), 20):
            assert abs(zeta.total - 1.0) <= 1e-9


class TestTwoConstructionsAgree:
    def test_projection_distributions_match(self):
        model = BaseModel(alpha=2.0, atom_probs=(0.3, 0.7))
        rng = RngStream(16)
        a = atom0_masses(sample_stick_breaking(model, rng, 2500))
        b = atom0_masses(sample_jump_measure(model, rng, 2500))
        stat, p = stats.ks_2samp(a, b)
        assert p > 1e-3


class TestChunkKernels:
    def test_stick_projection_rows_sum_to_one(self):
        gen = RngStream(18).gen
        proj = stick_projection_chunk(2.0, (0.25, 0.75), 500, gen)
        assert proj.shape == (500, 2)
        assert np.allclose(proj.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(proj >= 0)

    def test_stick_projection_marginal_ks(self):
        gen = RngStream(19).gen
        proj = stick_projection_chunk(2.0, (0.3, 0.7), 20_000, gen)
        stat, p = stats.kstest(proj[:, 0], stats.beta(0.6, 1.4).cdf)
        assert p > 1e-3

    def test_chunk_matches_object_level_law(self):
        # same distribution as the per-measure sampler (different stream use)
        model = BaseModel(alpha=1.5, atom_probs=(0.4, 0.6))
        obj = atom0_masses(sample_stick_breaking(model, RngStream(20), 2500))
        vec = stick_projection_chunk(1.5, (0.4, 0.6), 2500, RngStream(21).gen)[:, 0]
        stat, p = stats.ks_2samp(obj, vec)
        assert p > 1e-3

    def test_ensemble_chunk_shapes_and_sums(self):
        gen = RngStream(22).gen
        w, b = stick_ensemble_chunk(2.0, (0.2, 0.3, 0.5), 400, gen)
        assert w.shape == b.shape
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((b >= 0) & (b <= 2))
        assert np.all(w >= 0)

    def test_projection_and_ensemble_share_one_stick_loop(self):
        for alpha, probs in ((2.0, (0.2, 0.3, 0.5)), (0.5, (0.6, 0.4)), (8.0, (1.0,))):
            proj = stick_projection_chunk(alpha, probs, 300, RngStream(27).gen)
            w, b = stick_ensemble_chunk(alpha, probs, 300, RngStream(27).gen)
            assert np.max(np.abs(proj - block_projection(w, b, len(probs)))) <= 1e-14

    def test_gamma_projection_chunk_consistency(self):
        gen = RngStream(23).gen
        proj, totals, largest = gamma_projection_chunk(2.0, (0.3, 0.7), 5000, gen)
        assert np.allclose(proj.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(largest <= 1.0)
        assert np.all(largest > 0.0)
        # totals ~ Gamma(2) up to truncation
        stat, p = stats.kstest(totals, stats.gamma(2.0).cdf)
        assert p > 1e-3

    def test_gamma_projection_marginal_ks(self):
        gen = RngStream(24).gen
        proj, _, _ = gamma_projection_chunk(2.0, (0.3, 0.7), 20_000, gen)
        stat, p = stats.kstest(proj[:, 0], stats.beta(0.6, 1.4).cdf)
        assert p > 1e-3

    def test_projection_total_independence(self):
        # normalized projections are independent of the unnormalized total
        gen = RngStream(25).gen
        proj, totals, _ = gamma_projection_chunk(2.0, (0.3, 0.7), 40_000, gen)
        corr = np.corrcoef(proj[:, 0], totals)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(40_000)

    def test_truncation_error_with_tight_cap(self, monkeypatch):
        monkeypatch.setattr(samplers, "_stick_cap", lambda alpha, eps: 12)
        gen = RngStream(26).gen
        with pytest.raises(TruncationError):
            stick_projection_chunk(3.0, (1.0,), 200, gen, trunc_eps=1e-12)

    def test_stick_kernel_validation(self):
        gen = RngStream(0).gen
        for alpha, eps in ((0.0, 1e-12), (-1.0, 1e-12), (2.0, 0.0), (2.0, 1.0), (2.0, -1e-12)):
            with pytest.raises(ValueError):
                stick_projection_chunk(alpha, (1.0,), 10, gen, trunc_eps=eps)
            with pytest.raises(ValueError):
                stick_ensemble_chunk(alpha, (1.0,), 10, gen, trunc_eps=eps)
