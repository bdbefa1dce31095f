"""Samplers: named RNG streams, both measure constructions, chunk kernels."""

import math

import numpy as np
import pytest
from scipy import stats

from dpm.measures import BaseModel, Partition, atom_point, project
from dpm.samplers import (
    RngStream,
    StickConfig,
    TruncationError,
    _draw_base_point,
    beta_pairs,
    block_projection,
    expected_jump_count,
    gamma_jumps,
    gamma_projection_chunk,
    sample_jump_measure,
    sample_poisson_dirichlet,
    sample_stick_breaking,
    stick_ensemble_chunk,
    stick_projection_chunk,
)


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
        model = BaseModel(alpha=1.0, atom_probs=(0.2, 0.35), diffuse_weight=0.45)
        rng = RngStream(6)
        n = 30_000
        counts = {"atom0": 0, "atom1": 0, "cont": 0}
        for _ in range(n):
            p = _draw_base_point(model, rng.gen)
            if p.is_atom:
                counts[f"atom{p.atom}"] += 1
            else:
                counts["cont"] += 1
                assert 0.0 <= p.cont <= 1.0
        assert counts["atom0"] / n == pytest.approx(0.2, abs=0.01)
        assert counts["atom1"] / n == pytest.approx(0.35, abs=0.012)
        assert counts["cont"] / n == pytest.approx(0.45, abs=0.012)


class TestStickConfig:
    def test_for_alpha_has_margin(self):
        cfg = StickConfig.for_alpha(2.0)
        assert cfg.max_sticks >= 64
        expected_tail = cfg.max_sticks * math.log(2.0 / 3.0)
        assert expected_tail <= math.log(cfg.trunc_eps)

    def test_rejects_impossible_cap(self):
        with pytest.raises(ValueError):
            StickConfig(alpha=5.0, trunc_eps=1e-12, max_sticks=10)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            StickConfig(alpha=0.0, max_sticks=100)
        with pytest.raises(ValueError):
            StickConfig(alpha=1.0, trunc_eps=0.0, max_sticks=100)


class TestStickBreaking:
    def test_total_is_exactly_one(self):
        model = BaseModel(alpha=2.0, atom_probs=(), diffuse_weight=1.0)
        rng = RngStream(7)
        for _ in range(50):
            zeta = sample_stick_breaking(model, rng)
            assert zeta.total == pytest.approx(1.0, abs=1e-12)
            assert all(w > 0 for _, w in zeta.atoms)

    def test_truncation_error_at_tiny_cap(self):
        # Feasible in expectation (5 * ln(3/4) <= ln(0.3)) but the random
        # residual prod(1 - w_i) still exceeds the target roughly 30% of
        # the time, so the cap must fire on some draws.
        model = BaseModel(alpha=3.0, atom_probs=(1.0,))
        cfg = StickConfig(alpha=3.0, trunc_eps=0.3, max_sticks=5)
        hits = 0
        rng = RngStream(8)
        for _ in range(200):
            try:
                sample_stick_breaking(model, rng, cfg)
            except TruncationError as exc:
                hits += 1
                assert exc.tail_mass > 0.3
        assert hits > 0

    def test_config_model_mismatch(self):
        model = BaseModel(alpha=2.0, atom_probs=(1.0,))
        with pytest.raises(ValueError):
            sample_stick_breaking(model, RngStream(0), StickConfig.for_alpha(3.0))

    def test_atom_marginal_is_beta(self):
        # zeta({atom}) ~ Be(alpha*nu(atom), alpha*(1-nu(atom)))
        model = BaseModel(alpha=2.0, atom_probs=(0.3, 0.7))
        rng = RngStream(9)
        atoms = [dict(sample_stick_breaking(model, rng).atoms) for _ in range(4000)]
        vals = np.array([a.get(atom_point(0), 0.0) for a in atoms])
        stat, p = stats.kstest(vals, stats.beta(0.6, 1.4).cdf)
        assert p > 1e-3


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
        target = expected_jump_count(alpha, eps)
        se = np.std(counts) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - target) < 5 * se

    def test_total_mass_is_gamma(self):
        # total of the untruncated jumps is Gamma(alpha); with eps=1e-8 the
        # truncation bias is far below KS resolution
        totals = gamma_jumps(1.5, 3000, RngStream(12).gen).sum(axis=1)
        stat, p = stats.kstest(totals, stats.gamma(1.5).cdf)
        assert p > 1e-3

    def test_kernel_validation(self):
        gen = RngStream(0).gen
        for alpha, eps in ((0.0, 1e-8), (-1.0, 1e-8), (2.0, 0.0), (2.0, 0.5)):
            with pytest.raises(ValueError):
                gamma_jumps(alpha, 10, gen, eps)

    def test_per_measure_path_is_row_zero_of_the_kernel(self):
        for seed, alpha in ((30, 2.0), (31, 0.3), (32, 15.0)):
            weights = sample_poisson_dirichlet(alpha, RngStream(seed), 1e-6)
            row = gamma_jumps(alpha, 1, RngStream(seed).gen, 1e-6)[0]
            row = row[row > 0]
            assert np.array_equal(weights, row / row.sum())

    def test_normalized_sums_to_one(self):
        w = sample_poisson_dirichlet(2.0, RngStream(13))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(w) <= 0)

    def test_largest_weight_mean_matches_ranked_law(self):
        # E(largest weight) for alpha=1 is known to be 0.6243...; a loose
        # band around it exercises the whole pipeline
        rng = RngStream(14)
        largest = np.array([sample_poisson_dirichlet(1.0, rng)[0] for _ in range(4000)])
        assert largest.mean() == pytest.approx(0.6243, abs=0.012)

    def test_jump_measure_is_probability(self):
        model = BaseModel(alpha=2.0, atom_probs=(0.2, 0.35), diffuse_weight=0.45)
        zeta = sample_jump_measure(model, RngStream(15))
        assert zeta.is_probability()


class TestTwoConstructionsAgree:
    def test_projection_distributions_match(self):
        model = BaseModel(alpha=2.0, atom_probs=(0.3, 0.7))
        part = Partition.of_atoms(2)
        rng = RngStream(16)
        a = np.array(
            [project(sample_stick_breaking(model, rng), part)[0] for _ in range(2500)]
        )
        b = np.array(
            [project(sample_jump_measure(model, rng), part)[0] for _ in range(2500)]
        )
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
        # same distribution as the object-level sampler (different stream use)
        model = BaseModel(alpha=1.5, atom_probs=(0.4, 0.6))
        part = Partition.of_atoms(2)
        rng = RngStream(20)
        obj = np.array(
            [project(sample_stick_breaking(model, rng), part)[0] for _ in range(2500)]
        )
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

    def test_truncation_error_with_tight_cap(self):
        gen = RngStream(26).gen
        with pytest.raises(TruncationError):
            stick_projection_chunk(3.0, (1.0,), 200, gen, trunc_eps=1e-12, max_sticks=12)
