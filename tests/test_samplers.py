"""Samplers: named RNG streams, both measure constructions, chunk kernels."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from dpm import samplers
from dpm.measures import BaseModel
from dpm.samplers import (
    DEFAULT_JUMP_EPS,
    DEFAULT_STICK_EPS,
    RngStream,
    TruncationError,
    beta_pairs,
    block_projection,
    draw_blocks,
    gamma_projection_chunk,
    sample_jump_measure,
    sample_stick_breaking,
    stick_ensemble_chunk,
    stick_projection_chunk,
)
from dpm.specialfn import exp_integral_e1
from dpm.stats import ks_test


def atom0_masses(measures):
    """Mass of atom 0 in each measure."""
    return np.array(
        [sum(w for kind, i, w in mu.atoms if (kind, i) == ("atom", 0)) for mu in measures]
    )


def normalized_rows(jumps):
    return jumps / jumps.sum(axis=1, keepdims=True)


def jump_arrivals(alpha, m, seed):
    """The unit-rate arrivals the jump kernel draws from RngStream(seed), drawn
    again in the kernel's layout, with the kernel's limit alpha * E1(eps),
    eps being DEFAULT_JUMP_EPS.

    A step draws the next arrivals of each row whose last arrival is within
    the limit, 16 of them or, below 1024 such rows, 2^14 // rows, one
    arrival index after another across those rows; then one mark uniform
    per kept arrival: those within the limit and each row's first.  Returns
    the arrivals as an (m, K) matrix, inf after a row's last step, and the
    limit.
    """
    gen = RngStream(seed).gen
    limit = alpha * exp_integral_e1(DEFAULT_JUMP_EPS)
    steps, rows, last = [], np.arange(m), np.zeros(m)
    while rows.size:
        e = gen.standard_exponential((max(16, 2**14 // rows.size), rows.size))
        e[0] += last
        arr = np.cumsum(e, axis=0)
        keep = arr <= limit
        keep[0] |= not steps
        gen.random(np.count_nonzero(keep))
        steps.append((rows, arr.T))
        going = arr[-1] <= limit
        rows, last = rows[going], arr[-1, going]
    out = np.full((m, sum(a.shape[1] for _, a in steps)), np.inf)
    start = 0
    for r, a in steps:
        out[r, start : start + a.shape[1]] = a
        start += a.shape[1]
    return out, limit


def largest_weight_tail(alpha, x):
    """P(largest weight > x) for x >= 1/2 under PD(alpha): the density of
    the largest weight on [1/2, 1] is alpha (1 - v)^(alpha - 1) / v, whose
    integral is alpha sum_k delta^(alpha + k) / (alpha + k), delta = 1 - x."""
    delta = 1.0 - x
    return alpha * sum(delta ** (alpha + k) / (alpha + k) for k in range(200))


def assert_exact_tail(largest, alpha, xs):
    """P(largest > x) against its exact value at each x, as a binomial z."""
    m = largest.size
    for x in xs:
        p = largest_weight_tail(alpha, x)
        z = (np.count_nonzero(largest > x) - m * p) / math.sqrt(m * p * (1.0 - p))
        assert abs(z) <= 4.0, (x, z)


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


class StubGen:
    """Stands in for a generator whose ``random`` returns chosen uniforms,
    the next ones in order at each call."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float).ravel()
        self.used = 0

    def random(self, size):
        n = int(np.prod(size))
        self.used += n
        return self.u[self.used - n : self.used].reshape(size)


def searchsorted_blocks(p, u):
    """Block indices by binary search over every cumulative edge, clipped."""
    return np.minimum(np.searchsorted(np.cumsum(p), u, side="right"), len(p) - 1)


class TestDrawBlocksExact:
    """draw_blocks counts edges on large arrays and binary-searches small
    ones; either way its indices equal the clipped binary search."""

    many = np.random.default_rng(5).dirichlet(np.ones(40))
    sixteen_edges = np.random.default_rng(6).dirichlet(np.ones(17))

    @pytest.mark.parametrize(
        "p, u, size",
        [
            ((1.0,), [0.0, 0.3, 0.999999], 3),
            ((0.3, 0.0, 0.7), [0.0, 0.2999, 0.3, 0.3001, 0.99], 5),
            ((0.25, 0.5, 0.25 - 5e-10), [0.1, 0.5, 1.0 - 5e-10, 1.0 - 1e-10, 0.9999999999], 5),
            ((0.2, 0.35, 0.45), list(np.cumsum((0.2, 0.35, 0.45))) + [0.0], 4),
            ((0.2, 0.35, 0.45), list(np.random.default_rng(3).random(12)), (3, 4)),
            (tuple(sixteen_edges), list(np.cumsum(sixteen_edges)) + [0.0, 0.5], 19),
            (tuple(many), list(np.cumsum(many)) + list(np.random.default_rng(4).random(60)), 100),
        ],
        ids=["one-block", "zero-mass-block", "sum-below-one", "u-on-edges", "2d-size",
             "17-blocks", "40-blocks"],
    )
    @pytest.mark.parametrize("tiles", [1, 4096], ids=["small", "large"])
    def test_matches_clipped_searchsorted(self, p, u, size, tiles):
        # Tiled 4096 times, every case reaches the counting path, except
        # the one-block base, which has no edge, and the 40-block base,
        # whose 39 edges keep the binary search.  Counting gives one-byte
        # indices; the binary search gives intp.
        u = np.tile(u, tiles)
        size = (len(u),) if np.ndim(size) == 0 else (size[0] * tiles, *size[1:])
        gen = StubGen(u)
        got = draw_blocks(p, gen, size)
        want = searchsorted_blocks(p, np.reshape(u, size))
        counted = tiles == 4096 and 1 < len(p) <= 17
        assert gen.used == len(u)
        assert got.shape == want.shape
        assert got.dtype == (np.int8 if counted else np.intp)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("extra", [5, 5000])
    def test_slabs_give_the_indices_of_one_draw(self, extra):
        # Drawn slab by slab from a real generator, the indices are those
        # of one draw of every uniform; a last slab too short to count is
        # binary-searched into the same one-byte array.
        p = (0.2, 0.35, 0.45)
        n = samplers._SLAB + extra
        got = draw_blocks(p, RngStream(7).gen, (n // 5, 5))
        want = searchsorted_blocks(p, RngStream(7).gen.random((n // 5, 5)))
        assert got.dtype == np.int8
        assert np.array_equal(got, want)


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

    def test_row_work_ceiling(self):
        # The expected stick count ceil(ln eps / ln(alpha/(alpha+1))) is
        # about 27.6 alpha at eps 1e-12: 3e4 stays under 1e6, 4e4 does not.
        assert samplers.MAX_ROW_ATOMS == 10**6
        assert samplers._stick_cap(3e4, 1e-12) <= 4 * samplers.MAX_ROW_ATOMS
        with pytest.raises(ValueError, match="too large for sticks"):
            samplers._stick_cap(4e4, 1e-12)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda gen: stick_ensemble_chunk(1e15, (1.0,), 1, gen),
            lambda gen: stick_projection_chunk(4e4, (1.0,), 1, gen),
            lambda gen: samplers._jump_matrices(1e9, (1.0,), 1, gen),
            lambda gen: samplers._jump_matrices(6e4, (1.0,), 1, gen),
        ],
        ids=["stick-1e15", "stick-4e4", "gamma-1e9", "gamma-6e4"],
    )
    def test_row_work_ceiling_rejects_before_any_draw(self, draw):
        # alpha E1(eps) jumps: 6e4 x 17.8 at eps 1e-8.
        gen = RngStream(0).gen
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match="above the limit of 1e\\+06"):
            draw(gen)
        assert gen.bit_generator.state == state

    def test_jump_matrices_just_under_the_ceiling(self):
        # 5e4 x E1(1e-8) is about 892 000 expected jumps: one row is drawn.
        jumps, _ = samplers._jump_matrices(5e4, (1.0,), 1, RngStream(0).gen)
        assert 850_000 < np.count_nonzero(jumps) <= samplers.MAX_ROW_ATOMS

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            stick_ensemble_chunk(0.0, (1.0,), 4, RngStream(0).gen)


class TestStickBreaking:
    def test_total_is_exactly_one(self):
        model = BaseModel(alpha=2.0, atom_probs=(), diffuse_weight=1.0)
        for zeta in sample_stick_breaking(model, RngStream(7), 50):
            assert sum(w for *_, w in zeta.atoms) == pytest.approx(1.0, abs=1e-12)
            assert all(w > 0 for *_, w in zeta.atoms)

    def test_truncation_error_at_tiny_cap(self, monkeypatch):
        # At alpha 3 the leftover after 5 sticks is (3/4)^5 = 0.24 in the
        # mean, so 200 rows cannot all be below eps at a 5-stick cap.
        monkeypatch.setattr(samplers, "_stick_cap", lambda alpha, eps: 5)
        model = BaseModel(alpha=3.0, atom_probs=(1.0,))
        with pytest.raises(TruncationError) as exc:
            sample_stick_breaking(model, RngStream(8), 200)
        assert exc.value.tail_mass > samplers.DEFAULT_STICK_EPS

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
            w = [w for *_, w in zeta.atoms]
            assert len(w) >= 2
            assert w[-1] <= eps < w[-2] + w[-1]

    @pytest.mark.parametrize("sampler", [sample_stick_breaking, sample_jump_measure])
    def test_marks_follow_the_base_support(self, sampler):
        atoms_only = BaseModel(alpha=2.0, atom_probs=(0.4, 0.6))
        diffuse = BaseModel(alpha=2.0, atom_probs=(), diffuse_weight=1.0)
        for zeta in sampler(atoms_only, RngStream(41), 100):
            assert all(kind == "atom" and i in (0, 1) for kind, i, _ in zeta.atoms)
        points = [p for zeta in sampler(diffuse, RngStream(42), 100) for p in zeta.atoms]
        assert all(kind == "cont" for kind, _, _ in points)
        coords = [u for _, u, _ in points]
        assert stats.kstest(coords, stats.uniform.cdf).pvalue > 1e-3


class TestJumpConstruction:
    def test_jumps_decreasing_and_thresholded(self):
        jumps, _ = samplers._jump_matrices(2.0, (1.0,), 20, RngStream(10).gen)
        for row in jumps:
            kept = row[row > 0]
            # the kept jumps are a prefix and every row keeps its largest
            assert kept.size >= 1 and np.all(row[kept.size:] == 0.0)
            assert np.all(np.diff(kept) < 0)
            assert np.all(kept[1:] >= DEFAULT_JUMP_EPS * (1 - 1e-9))

    def test_expected_jump_count(self):
        alpha = 2.0
        jumps, _ = samplers._jump_matrices(alpha, (1.0,), 3000, RngStream(11).gen)
        counts = np.count_nonzero(jumps, axis=1)
        target = alpha * exp_integral_e1(DEFAULT_JUMP_EPS)
        se = np.std(counts) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - target) < 5 * se

    def test_total_mass_is_gamma(self):
        # total of the untruncated jumps is Gamma(alpha); with eps=1e-8 the
        # truncation bias is far below KS resolution
        jumps, _ = samplers._jump_matrices(1.5, (1.0,), 3000, RngStream(12).gen)
        totals = jumps.sum(axis=1)
        stat, p = stats.kstest(totals, stats.gamma(1.5).cdf)
        assert p > 1e-3

    def test_jumps_invert_their_own_arrivals(self):
        # The kept set and each jump follow from the arrivals alone: a jump
        # is kept where its arrival is within the limit (and in column 0),
        # and it inverts that arrival's G / alpha.  Past a row's last step
        # the arrivals read inf, so nothing there is kept.
        for alpha, seed in ((5.0, 40), (0.3, 41)):
            jumps, _ = samplers._jump_matrices(alpha, (1.0,), 300, RngStream(seed).gen)
            arr, limit = jump_arrivals(alpha, 300, seed)
            keep = arr <= limit
            keep[:, 0] = True
            # The matrix ends with the longest row.
            width = jumps.shape[1]
            assert keep[:, width - 1].any() and not keep[:, width:].any()
            keep = keep[:, :width]
            assert np.array_equal(jumps != 0.0, keep)
            target = np.minimum(arr[:, :width][keep] / alpha, 690.0)
            assert np.all(np.abs(exp_integral_e1(jumps[keep]) - target) <= 1e-11 * target)

    def test_first_arrival_beyond_the_cap_is_one_finite_jump(self):
        alpha, m, seed = 0.01, 3000, 42
        jumps, _ = samplers._jump_matrices(alpha, (1.0,), m, RngStream(seed).gen)
        arr, _ = jump_arrivals(alpha, m, seed)
        capped = arr[:, 0] / alpha > 690.0
        assert capped.any()
        assert np.all(np.count_nonzero(jumps[capped], axis=1) == 1)
        first = jumps[capped, 0]
        assert np.all(np.isfinite(first) & (first > 0.0))

    def test_projection_matrices_and_measures_share_one_jump_kernel(self):
        # gamma_projection_chunk, the stacked matrices and sample_jump_measure
        # read one generator: the same jumps and marks from the same stream.
        alpha, probs, m = 3.0, (0.3, 0.7), 400
        proj, totals, largest = gamma_projection_chunk(alpha, probs, m, RngStream(33).gen)
        jumps, marks = samplers._jump_matrices(alpha, probs, m, RngStream(33).gen)
        assert np.allclose(totals, jumps.sum(axis=1), rtol=1e-14, atol=0.0)
        assert np.array_equal(largest, jumps[:, 0] / totals)
        assert np.all(marks[jumps == 0.0] == 0)
        want = block_projection(jumps, marks, 2) / totals[:, None]
        assert np.allclose(proj, want, rtol=1e-13, atol=1e-16)
        model = BaseModel(alpha=alpha, atom_probs=probs)
        masses = atom0_masses(sample_jump_measure(model, RngStream(33), m))
        assert np.allclose(masses, want[:, 0], rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
    def test_largest_weight_has_the_exact_tail(self, alpha):
        # Over 50 000 rows.  Small alpha is left out: the absolute
        # truncation at DEFAULT_JUMP_EPS biases the largest weight there.
        _, _, largest = gamma_projection_chunk(alpha, (0.5, 0.5), 50_000, RngStream(44).gen)
        assert_exact_tail(largest, alpha, (0.5, 0.7, 0.9))

    def test_kernel_validation(self):
        gen = RngStream(0).gen
        for alpha in (0.0, -1.0):
            with pytest.raises(ValueError):
                samplers._jump_matrices(alpha, (1.0,), 10, gen)

    def test_per_measure_path_is_row_zero_of_the_kernel(self):
        # With a diffuse base no jumps merge: each measure's weights are a
        # normalized row of the kernel's jumps, in decreasing order.
        for seed, alpha in ((30, 2.0), (31, 0.3), (32, 15.0)):
            model = BaseModel(alpha=alpha, atom_probs=(), diffuse_weight=1.0)
            measures = sample_jump_measure(model, RngStream(seed), 5)
            jumps, _ = samplers._jump_matrices(alpha, (1.0,), 5, RngStream(seed).gen)
            rows = normalized_rows(jumps)
            for zeta, row in zip(measures, rows):
                assert np.array_equal([w for *_, w in zeta.atoms], row[row > 0])

    def test_normalized_sums_to_one(self):
        jumps, _ = samplers._jump_matrices(2.0, (1.0,), 20, RngStream(13).gen)
        for w in normalized_rows(jumps):
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(w) <= 0)

    def test_largest_weight_mean_matches_ranked_law(self):
        # E(largest weight) for alpha=1 is known to be 0.6243...; a loose
        # band around it exercises the whole pipeline
        jumps, _ = samplers._jump_matrices(1.0, (1.0,), 4000, RngStream(14).gen)
        largest = normalized_rows(jumps)[:, 0]
        assert largest.mean() == pytest.approx(0.6243, abs=0.012)

    def test_jump_measure_is_probability(self):
        model = BaseModel(alpha=2.0, atom_probs=(0.2, 0.35), diffuse_weight=0.45)
        for zeta in sample_jump_measure(model, RngStream(15), 20):
            assert abs(sum(w for *_, w in zeta.atoms) - 1.0) <= 1e-9


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
        proj, _ = stick_projection_chunk(2.0, (0.25, 0.75), 500, gen)
        assert proj.shape == (500, 2)
        assert np.allclose(proj.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(proj >= 0)

    def test_stick_projection_marginal_ks(self):
        gen = RngStream(19).gen
        proj, _ = stick_projection_chunk(2.0, (0.3, 0.7), 20_000, gen)
        stat, p = stats.kstest(proj[:, 0], stats.beta(0.6, 1.4).cdf)
        assert p > 1e-3

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 2.0, 10.0])
    def test_largest_stick_weight_has_the_exact_tail(self, alpha):
        # A row stops once its leftover is at most its largest stick, so no
        # atom of the Dirichlet close can be larger: the tail is exact at
        # every alpha, over 200 000 rows.
        _, largest = stick_projection_chunk(alpha, (0.5, 0.5), 200_000, RngStream(45).gen)
        assert_exact_tail(largest, alpha, (0.5, 0.7, 0.9, 0.99))

    def test_close_at_tiny_alpha_with_a_zero_mass_block(self):
        # At alpha 0.01 the close's shapes are 0.003 and 0.007: drawn as
        # plain gammas both would underflow to 0/0.  Block 1 has no mass.
        alpha, a, b, m = 0.01, 0.003, 0.007, 20_000
        proj, largest = stick_projection_chunk(alpha, (0.3, 0.0, 0.7), m, RngStream(46).gen)
        assert not np.isnan(proj).any() and not np.isnan(largest).any()
        assert np.all(np.abs(proj.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(proj[:, 1] == 0.0)
        # Block 0 is Be(a, b).  Below about 1e-308 a mass rounds to 0, and a
        # mass within 1e-16 of 1 to 1 (about 9% of rows in all), so the KS
        # test takes the rows whose mass and rest both reach 1e-300, against
        # the law conditioned on that window; the rest keeps the digits of
        # 1 - x.
        x, rest = proj[:, 0], proj[:, 2]
        inside = (x >= 1e-300) & (rest >= 1e-300)
        low, high = stats.beta(a, b).cdf(1e-300), stats.beta(b, a).cdf(1e-300)
        cdf = np.where(x < 0.5, stats.beta(a, b).cdf(x), stats.beta(b, a).sf(rest))[inside]
        _, p = ks_test((cdf - low) / (1.0 - low - high), lambda u: u)
        assert p >= 1e-3
        assert abs(np.count_nonzero(inside) - m * (1.0 - low - high)) <= 4.0 * math.sqrt(m)

    def test_stick_projection_marginal_ks_at_large_alpha(self):
        # At alpha 50 a row stops after a few hundred sticks, not 1400.
        proj, _ = stick_projection_chunk(50.0, (0.3, 0.7), 20_000, RngStream(47).gen)
        _, p = ks_test(proj[:, 0], stats.beta(15.0, 35.0).cdf)
        assert p >= 1e-3

    def test_chunk_matches_object_level_law(self):
        # same distribution as the per-measure sampler (different stream use)
        model = BaseModel(alpha=1.5, atom_probs=(0.4, 0.6))
        obj = atom0_masses(sample_stick_breaking(model, RngStream(20), 2500))
        proj, _ = stick_projection_chunk(1.5, (0.4, 0.6), 2500, RngStream(21).gen)
        stat, p = stats.ks_2samp(obj, proj[:, 0])
        assert p > 1e-3

    def test_ensemble_chunk_shapes_and_sums(self):
        gen = RngStream(22).gen
        w, b = stick_ensemble_chunk(2.0, (0.2, 0.3, 0.5), 400, gen)
        assert w.shape == b.shape
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((b >= 0) & (b <= 2))
        assert np.all(w >= 0)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5, 2.0, 10.0, 20.0])
    def test_sticks_by_inversion_have_the_gem_law(self, alpha):
        # The first stick W is Be(1, alpha), so its leftover share 1 - W,
        # summed from the later columns, has cdf y^alpha.  At small alpha
        # W often rounds to 1, and that sum must still carry 1 - W.
        eps = samplers.DEFAULT_STICK_EPS
        w, _ = stick_ensemble_chunk(alpha, (0.4, 0.6), 2000, RngStream(43).gen, eps)
        _, p = ks_test(w[:, 1:].sum(axis=1), lambda y: y**alpha)
        assert p >= 1e-3
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(w[:, -1] <= eps)

    @pytest.mark.parametrize("source", ["sticks", "jumps", "broadcast"])
    def test_block_projection_by_slabs_is_one_product(self, source):
        # Many slabs of about samplers._SLAB elements, with a short last one.
        m = 8229
        probs = (0.2, 0.3, 0.5)
        gen = RngStream(29).gen
        if source == "sticks":
            w, b = stick_ensemble_chunk(2.0, probs, m, gen)
        else:
            if source == "jumps":
                w = samplers._jump_matrices(5.0, (1.0,), m, gen)[0]
            else:
                geometric = 0.1 * 0.9 ** np.arange(263)
                w = np.broadcast_to(geometric / geometric.sum(), (m, 263))
            b = draw_blocks(probs, gen, w.shape)
        # The reference is one product over C-ordered copies, so each row is
        # numpy's pairwise sum of a contiguous row.  Every layout of the same
        # entries, the sticks' own transposed buffer included, must match it.
        cw, cb = np.ascontiguousarray(w), np.ascontiguousarray(b)
        want = np.stack([(cw * (cb == j)).sum(axis=1) for j in range(len(probs))], axis=1)
        layouts = {
            "given": (w, b),
            "C": (cw, cb),
            "transposed": (cw.T.copy().T, cb.T.copy().T),
            "row-sliced": (np.pad(cw, ((0, 0), (0, 5)))[:, :-5], np.pad(cb, ((0, 0), (0, 5)))[:, :-5]),
        }
        for layout, (lw, lb) in layouts.items():
            assert np.array_equal(block_projection(lw, lb, len(probs)), want), layout

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
            stick_projection_chunk(3.0, (1.0,), 200, gen)

    def test_stick_kernel_validation(self):
        gen = RngStream(0).gen
        for alpha in (0.0, -1.0):
            with pytest.raises(ValueError):
                stick_projection_chunk(alpha, (1.0,), 10, gen)
        for alpha, eps in ((0.0, 1e-12), (-1.0, 1e-12), (2.0, 0.0), (2.0, 1.0), (2.0, -1e-12)):
            with pytest.raises(ValueError):
                stick_ensemble_chunk(alpha, (1.0,), 10, gen, trunc_eps=eps)


_MODEL = BaseModel(alpha=2.0, atom_probs=(0.3, 0.7))


@pytest.mark.parametrize(
    "draw",
    [
        lambda gen: stick_projection_chunk(2.0, (0.3, 0.7), 0, gen),
        lambda gen: stick_ensemble_chunk(2.0, (0.3, 0.7), 0, gen),
        lambda gen: sample_stick_breaking(_MODEL, RngStream(0), 0),
        lambda gen: gamma_projection_chunk(2.0, (0.3, 0.7), 0, gen),
        lambda gen: samplers._jump_matrices(2.0, (1.0,), 0, gen),
        lambda gen: sample_jump_measure(_MODEL, RngStream(0), 0),
    ],
    ids=["stick_projection", "stick_ensemble", "sample_stick",
         "gamma_projection", "jump_matrices", "sample_jump"],
)
def test_zero_rows_give_empty_results(draw):
    out = draw(RngStream(0).gen)
    for part in out if isinstance(out, tuple) else (out,):
        assert len(part) == 0


def _stacked_columns(alpha, probs, m, seed):
    """The stick columns, stacked side by side, and the closing leftover on
    fresh marks: the ensemble's reference."""
    gen, eps = RngStream(seed).gen, DEFAULT_STICK_EPS

    def going(rows, tail):
        return True if tail.max(initial=0.0) > eps else np.zeros(rows.size, bool)

    cols = list(samplers._stick_columns(alpha, np.asarray(probs), m, gen, eps, going))
    cols.append((None, cols[-1][3], draw_blocks(probs, gen, m), None))
    return np.column_stack([c[1] for c in cols]), np.column_stack([c[2] for c in cols])


@pytest.mark.parametrize("alpha", [0.05, 2.0, 10.0])
@pytest.mark.parametrize("m", [0, 1, 64, 10_000])
def test_ensemble_is_the_stacked_stick_columns(alpha, m):
    probs = (0.2, 0.3, 0.5)
    w, b = stick_ensemble_chunk(alpha, probs, m, RngStream(33).gen)
    want_w, want_b = _stacked_columns(alpha, probs, m, 33)
    assert w.dtype == want_w.dtype and b.dtype == want_b.dtype
    assert np.array_equal(w, want_w) and np.array_equal(b, want_b)


def test_ensemble_outgrows_its_first_buffer(monkeypatch):
    # 700 columns of 64 rows: several doublings of a first buffer of about
    # a hundred sticks at alpha 2.
    gen = np.random.default_rng(34)
    rows = np.arange(64)
    cols = [(rows, gen.random(64), gen.integers(0, 3, 64), gen.random(64)) for _ in range(700)]
    monkeypatch.setattr(samplers, "_stick_columns", lambda *args: iter(cols))
    close = copy.deepcopy(gen)
    w, b = stick_ensemble_chunk(2.0, (0.2, 0.3, 0.5), 64, gen)
    # The last column is the closing leftover, the last tail, on fresh marks.
    assert np.array_equal(w, np.column_stack([c[1] for c in cols] + [cols[-1][3]]))
    closing = draw_blocks((0.2, 0.3, 0.5), close, 64)
    assert np.array_equal(b, np.column_stack([c[2] for c in cols] + [closing]))


def test_ensemble_holds_its_matrices_once():
    # A 10 000-row shard at alpha 2 takes about 90 sticks a row.  Written
    # into one buffer, the traced peak stays near the returned bytes; a
    # list of columns and its stacked copy read 2.1 times them.
    tracemalloc.start()
    try:
        w, b = stick_ensemble_chunk(2.0, (0.2, 0.3, 0.5), 10_000, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (w.nbytes + b.nbytes), peak / (w.nbytes + b.nbytes)


def test_jump_kernel_holds_one_step_at_a_time():
    # A 10 000-row shard at alpha 5 takes about 89 jumps a row, 16 a step.
    # Holding one step's arrays at a time and inverting them in slices keeps
    # its traced peak near 5 MB; inverting a whole step at once read 11.6.
    tracemalloc.start()
    try:
        gamma_projection_chunk(5.0, (0.2, 0.35, 0.45), 10_000, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, peak
