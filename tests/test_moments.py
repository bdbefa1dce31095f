"""Moment engines: closed form, recursion, and the scalar recovery chain."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from dpm.moments import (
    MissingMomentError,
    MomentTable,
    SingularSystemError,
    beta_moment,
    build_moment_table,
    check_solvability,
    dirichlet_mixed_moment,
    moment_recursion_step,
    multi_indices,
    quadratic_weight_c,
    recover_moment_sequence,
    solve_b_next,
)


class TestMultiIndices:
    def test_degree_zero(self):
        assert list(multi_indices(3, 0)) == [(0, 0, 0)]

    def test_counts(self):
        # number of multi-indices of total degree d in n slots: C(d+n-1, n-1)
        for size in (1, 2, 4):
            for degree in (0, 1, 2, 3, 5):
                got = len(list(multi_indices(size, degree)))
                assert got == math.comb(degree + size - 1, size - 1)

    def test_each_sums_to_degree(self):
        for ks in multi_indices(4, 3):
            assert sum(ks) == 3
            assert all(k >= 0 for k in ks)

    def test_order_is_deterministic(self):
        assert list(multi_indices(2, 2)) == [(2, 0), (1, 1), (0, 2)]


class TestBetaMoment:
    def test_first_moments(self):
        assert beta_moment(2.0, 3.0, 1) == pytest.approx(0.4)
        assert beta_moment(1.0, 1.0, 2) == pytest.approx(1.0 / 3.0)

    def test_zeroth_is_one(self):
        assert beta_moment(0.7, 9.0, 0) == 1.0

    def test_against_quadrature(self):
        for a, b, n in [(0.6, 1.4, 3), (2.0, 2.0, 4), (5.0, 0.5, 2)]:
            pdf = stats.beta(a, b).pdf
            val, err = integrate.quad(lambda x: x**n * pdf(x), 0.0, 1.0)
            assert beta_moment(a, b, n) == pytest.approx(val, rel=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            beta_moment(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            beta_moment(1.0, 1.0, -1)


class TestDirichletMixedMoment:
    def test_uniform_pair(self):
        # (Z, 1-Z) with Z ~ U[0,1]: E Z^2 (1-Z)^3 = B(3, 4) = 1/60
        assert dirichlet_mixed_moment((1.0, 1.0), (2, 3)) == pytest.approx(1.0 / 60.0, rel=1e-12)

    def test_pair_reduces_to_beta(self):
        # marginal of a Dirichlet pair is Beta
        for a, b, n in [(0.6, 1.4, 3), (2.0, 5.0, 6)]:
            assert dirichlet_mixed_moment((a, b), (n, 0)) == pytest.approx(
                beta_moment(a, b, n), rel=1e-12
            )

    def test_large_parameters_do_not_overflow(self):
        # Gamma(599) overflows a double; the product of ratios does not.
        assert dirichlet_mixed_moment((300.0, 299.0), (1, 0)) == pytest.approx(
            300.0 / 599.0, rel=1e-12
        )

    def test_simple_cross(self):
        # Dir(1,1): E Z1 Z2 = 1/(2*3)
        assert dirichlet_mixed_moment((1.0, 1.0), (1, 1)) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_three_block_example(self):
        # Dir(2,1,1): E Z1^2 Z2 = [G(4)/G(7)] * [G(4)/G(2)] * [G(2)/G(1)]
        expect = (math.factorial(3) / math.factorial(6)) * 6.0 * 1.0
        assert dirichlet_mixed_moment((2.0, 1.0, 1.0), (2, 1, 0)) == pytest.approx(
            expect, rel=1e-12
        )

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(20240817)
        alphas = (0.7, 1.3, 2.0)
        draws = rng.dirichlet(alphas, size=400_000)
        ks = (1, 2, 1)
        mc = (draws[:, 0] ** 1 * draws[:, 1] ** 2 * draws[:, 2] ** 1)
        se = mc.std() / math.sqrt(len(mc))
        exact = dirichlet_mixed_moment(alphas, ks)
        assert abs(mc.mean() - exact) < 5.0 * se

    def test_zero_alpha_convention(self):
        assert dirichlet_mixed_moment((0.0, 1.0, 1.0), (1, 1, 1)) == 0.0
        # zero exponent on the degenerate coordinate: dimension drops
        assert dirichlet_mixed_moment((0.0, 1.0, 1.0), (0, 2, 1)) == pytest.approx(
            dirichlet_mixed_moment((1.0, 1.0), (2, 1)), rel=1e-12
        )

    def test_non_finite_total_is_refused(self):
        # Each term is finite but their total is not: the product form would
        # read 0 there.
        with pytest.raises(ValueError, match="finite total"):
            dirichlet_mixed_moment((1e308, 1e308), (1, 0))
        with pytest.raises(ValueError, match="finite total"):
            build_moment_table((1e308, 1e308), 2, method="recursion")
        with pytest.raises(ValueError, match="finite total"):
            beta_moment(1e308, 1e308, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            dirichlet_mixed_moment((1.0,), (1, 2))
        with pytest.raises(ValueError):
            dirichlet_mixed_moment((-1.0, 2.0), (1, 1))
        with pytest.raises(ValueError):
            dirichlet_mixed_moment((1.0, 1.0), (1, -1))
        with pytest.raises(ValueError):
            dirichlet_mixed_moment((0.0, 0.0), (1, 1))

    def test_marginal_consistency(self):
        # summing the first coordinate into the second: moment of merged
        # blocks equals moment with merged parameters
        a = (0.5, 1.5, 2.0)
        merged = (0.5 + 1.5, 2.0)
        assert dirichlet_mixed_moment(merged, (3, 2)) == pytest.approx(
            dirichlet_mixed_moment((2.0, 2.0), (3, 2)), rel=1e-12
        )


class TestMomentTable:
    def test_root_entry(self):
        t = MomentTable(2)
        assert t.value((0, 0)) == 1.0
        with pytest.raises(MissingMomentError):
            t.value((1, 0))

    def test_put_and_get(self):
        t = MomentTable(2)
        t.put((1, 0), 0.25)
        assert t.value((1, 0)) == 0.25
        with pytest.raises(MissingMomentError):
            t.value((0, 1))

    def test_missing_entry_error_names_index(self):
        t = MomentTable(2)
        with pytest.raises(MissingMomentError) as exc:
            t.value((2, 1))
        assert "(2, 1)" in str(exc.value)

    def test_rejects_out_of_range_value(self):
        t = MomentTable(1)
        with pytest.raises(ValueError):
            t.put((1,), 1.5)
        with pytest.raises(ValueError):
            t.put((1,), -0.1)

    def test_rejects_monotonicity_violation(self):
        t = MomentTable(1)
        t.put((1,), 0.3)
        with pytest.raises(ValueError):
            t.put((2,), 0.5)

    def test_bad_index(self):
        t = MomentTable(2)
        with pytest.raises(ValueError):
            t.put((1,), 0.5)
        with pytest.raises(ValueError):
            t.value((-1, 0))


def _rational_moment(alphas, ks) -> Fraction:
    """E prod_i Z_i^k_i for Z ~ Dirichlet(alphas), in exact rationals."""
    alphas = [Fraction(a) for a in alphas]
    total, value, m = sum(alphas), Fraction(1), 0
    for a, k in zip(alphas, ks):
        for r in range(k):
            value *= (a + r) / (total + m)
            m += 1
    return value


class TestRecursionVsClosedForm:
    @pytest.mark.parametrize(
        "alphas",
        [(1.0, 1.0), (0.6, 1.4), (2.0, 1.0, 1.0), (0.5, 0.7, 1.3, 2.5)],
    )
    def test_tables_agree(self, alphas):
        deg = 4
        t_rec = build_moment_table(alphas, deg, method="recursion")
        t_cf = build_moment_table(alphas, deg, method="exact")
        for degree in range(deg + 1):
            for ks in multi_indices(len(alphas), degree):
                assert t_rec.value(ks) == pytest.approx(t_cf.value(ks), abs=1e-9)

    @pytest.mark.parametrize("alpha", [1e-3, 2.0, 1e8, 1e12])
    def test_both_routes_match_exact_rationals(self, alpha):
        # Log-gamma differences lose digits to cancellation at large
        # parameters, and both routes would share that loss: each is held
        # here to exact rational arithmetic on the same float parameters.
        alphas = (alpha, 0.7 * alpha, 1.3 * alpha)
        table = build_moment_table(alphas, 5, method="recursion")
        for degree in range(6):
            for ks in multi_indices(3, degree):
                exact = _rational_moment(alphas, ks)
                for value in (dirichlet_mixed_moment(alphas, ks), table.value(ks)):
                    assert abs(Fraction(value) - exact) <= 2e-15 * exact

    @pytest.mark.parametrize("alphas", [(5e-324, 5e-324), (1e-310, 1e-310)])
    def test_recursion_at_a_subnormal_total(self, alphas):
        # 1 / total overflows below about 5.6e-309: the recursion forms
        # alpha_j / total instead, and agrees with the closed form.
        t_rec = build_moment_table(alphas, 3, method="recursion")
        t_cf = build_moment_table(alphas, 3, method="exact")
        for degree in range(4):
            for ks in multi_indices(2, degree):
                assert abs(t_rec.value(ks) - t_cf.value(ks)) <= 2e-15 * t_cf.value(ks)

    def test_single_block_moments_are_one(self):
        # one block carrying everything: Z = 1 a.s., all moments 1
        t = build_moment_table((2.0,), 4, method="recursion")
        for n in range(5):
            assert t.value((n,)) == pytest.approx(1.0, abs=1e-12)

    def test_two_block_hand_values(self):
        # E Z1 = p and E Z1^2 = p(alpha p + 1)/(alpha + 1) at p=0.3, alpha=2
        p, alpha = 0.3, 2.0
        t = build_moment_table((alpha * p, alpha * (1 - p)), 2, method="recursion")
        assert t.value((1, 0)) == pytest.approx(p, rel=1e-12)
        assert t.value((2, 0)) == pytest.approx(p * (alpha * p + 1) / (alpha + 1), rel=1e-12)

    def test_recursion_step_every_coordinate_agrees(self):
        # raising any coordinate of any entry must land on the closed form
        alphas = (0.8, 1.2, 2.0)
        t = build_moment_table(alphas, 3, method="exact")
        for degree in range(3):
            for ks in multi_indices(len(alphas), degree):
                for j in range(len(alphas)):
                    target = ks[:j] + (ks[j] + 1,) + ks[j + 1 :]
                    stepped = moment_recursion_step(t, alphas, j, ks)
                    assert stepped == pytest.approx(
                        dirichlet_mixed_moment(alphas, target), abs=1e-11
                    )

    def test_recursion_step_reports_missing(self):
        t = MomentTable(2)
        with pytest.raises(MissingMomentError):
            moment_recursion_step(t, (1.0, 1.0), 0, (1, 0))

    def test_build_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            build_moment_table((1.0, 1.0), 2, method="guess")


class TestSolvability:
    def test_symmetric_even_is_exactly_zero(self):
        for alpha in (0.5, 1.0, 2.0, 7.3):
            for n in (0, 2, 4, 6):
                assert check_solvability(0.5, alpha, n) == 0.0

    def test_symmetric_odd_is_positive(self):
        for alpha in (0.5, 2.0):
            for n in (1, 3, 5):
                assert check_solvability(0.5, alpha, n) > 0.0

    def test_asymmetric_nonzero(self):
        for p in (0.1, 0.3, 0.49, 0.51, 0.9):
            for n in range(7):
                assert check_solvability(p, 2.0, n) != 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            check_solvability(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            check_solvability(0.5, -1.0, 1)
        with pytest.raises(ValueError):
            check_solvability(0.5, 1.0, -1)


def _beta_pair_moments(p: float, alpha: float, depth: int):
    """mu_1..mu_depth of Z ~ Be(p alpha, (1-p) alpha) about its mean c,
    computed in exact rationals and rounded once; c; and b_1..b_depth of
    W ~ Be(1, alpha)."""
    a, total = Fraction(p * alpha), Fraction(p * alpha) + Fraction((1 - p) * alpha)
    raw = [Fraction(1)]
    for r in range(depth):
        raw.append(raw[-1] * (a + r) / (total + r))
    c = raw[1]
    mu = [float(sum(math.comb(j, i) * (-c) ** (j - i) * raw[i] for i in range(j + 1)))
          for j in range(1, depth + 1)]
    return mu, float(c), [beta_moment(1.0, alpha, k) for k in range(1, depth + 1)]


class TestSolveChain:
    @pytest.mark.parametrize("p,alpha", [(0.3, 2.0), (0.7, 0.5), (0.1, 5.0)])
    def test_recovers_beta_moments(self, p, alpha):
        depth = 8
        mu, c, b_true = _beta_pair_moments(p, alpha, depth)
        bs, conditions = recover_moment_sequence(mu, c, b_true[0], p, depth)
        for k in range(depth):
            assert bs[k] == pytest.approx(b_true[k], abs=1e-6)
        assert all(cond >= 1.0 for cond in conditions)

    def test_single_step_matches_chain(self):
        p, alpha = 0.3, 2.0
        mu, c, b_true = _beta_pair_moments(p, alpha, 4)
        nxt, cond = solve_b_next(mu[:2], c, b_true[:1], p)
        bs, conditions = recover_moment_sequence(mu[:2], c, b_true[0], p, 2)
        assert nxt == pytest.approx(b_true[1], rel=1e-10)
        assert (nxt, cond) == (bs[1], conditions[1])

    def test_any_centre_gives_the_same_moments(self):
        # The identity holds for every centre c, not only the mean.
        p, alpha = 0.3, 2.0
        mu, c, b_true = _beta_pair_moments(p, alpha, 5)
        for shift in (-0.2, 0.1, 0.4):
            # Central moments about c + shift, from those about c.
            about = [sum(math.comb(j, i) * (-shift) ** (j - i) * ([1.0] + mu)[i]
                         for i in range(j + 1)) for j in range(1, 6)]
            bs, _ = recover_moment_sequence(about, c + shift, b_true[0], p, 5)
            assert bs == pytest.approx(b_true, rel=1e-9)

    def test_singular_at_symmetric_odd_moment(self):
        # at p = 1/2 the step recovering b_3 (identity index n = 2, even)
        # has an exactly zero coefficient: p E(1-Z)^3 - (1-p) E Z^3 = 0 for
        # symmetric Z
        mu, c, b_true = _beta_pair_moments(0.5, 2.0, 4)
        with pytest.raises(SingularSystemError):
            solve_b_next(mu[:3], c, b_true[:2], 0.5)

    def test_even_moment_survives_symmetric(self):
        # recovering b_2 stays regular at p = 1/2: both coefficient terms
        # are positive
        mu, c, b_true = _beta_pair_moments(0.5, 2.0, 4)
        val, cond = solve_b_next(mu[:2], c, b_true[:1], 0.5)
        assert val == pytest.approx(b_true[1], rel=1e-9)
        assert 1.0 <= cond < 10.0

    def test_requires_enough_z_moments(self):
        with pytest.raises(ValueError):
            solve_b_next([0.0], 0.3, [0.33], 0.3)
        with pytest.raises(ValueError):
            solve_b_next([0.0, 0.04], 0.3, [], 0.3)

    def test_condition_grows_near_symmetric(self):
        # the b_3 step loses accuracy as p -> 1/2
        mu1, c1, b1 = _beta_pair_moments(0.49, 2.0, 4)
        _, cond_near = solve_b_next(mu1[:3], c1, b1[:2], 0.49)
        mu2, c2, b2 = _beta_pair_moments(0.3, 2.0, 4)
        _, cond_far = solve_b_next(mu2[:3], c2, b2[:2], 0.3)
        assert cond_near > 10.0 * cond_far

    @given(
        st.floats(0.05, 0.45),
        st.floats(0.3, 6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_chain_property(self, p, alpha):
        depth = 5
        mu, c, b_true = _beta_pair_moments(p, alpha, depth)
        bs, _ = recover_moment_sequence(mu, c, b_true[0], p, depth)
        for k in range(depth):
            assert bs[k] == pytest.approx(b_true[k], abs=1e-7)


class TestQuadraticWeight:
    def test_value(self):
        assert quadratic_weight_c(0.3, 2.0) == pytest.approx(0.3 * (0.6 + 1.0))

    def test_pinned_by_second_moment(self):
        # c = (alpha + 1) E Z^2
        for p, alpha in [(0.3, 2.0), (0.6, 1.5), (0.25, 4.0)]:
            ez2 = beta_moment(p * alpha, (1 - p) * alpha, 2)
            assert quadratic_weight_c(p, alpha) == pytest.approx((alpha + 1) * ez2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            quadratic_weight_c(0.0, 1.0)
        with pytest.raises(ValueError):
            quadratic_weight_c(0.5, 0.0)
