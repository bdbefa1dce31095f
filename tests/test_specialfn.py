"""Special-function layer: log-gamma, E1, and its inverse.

Non-trivial reference values are pinned against independent oracles
(scipy quadrature, mpmath multiprecision) rather than against the
implementation itself.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dpm import samplers, specialfn
from dpm.samplers import RngStream
from dpm.specialfn import (
    EULER_GAMMA,
    count_at_or_below,
    exp_integral_e1,
    inverse_e1,
    log_gamma,
)


class TestLogGamma:
    def test_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-15)

    def test_integers(self):
        for n in range(1, 12):
            assert log_gamma(n) == pytest.approx(math.log(math.factorial(n - 1)), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.3)

    @given(st.floats(0.05, 40.0), st.integers(0, 25))
    @settings(max_examples=200, deadline=None)
    def test_ratio_recurrence(self, a, k):
        # Gamma(a+k)/Gamma(a) = prod_{r<k} (a+r), evaluated in logs.
        direct = log_gamma(a + k) - log_gamma(a)
        product = sum(math.log(a + r) for r in range(k))
        assert direct == pytest.approx(product, rel=1e-11, abs=1e-11)


def _e1_quad(x: float) -> tuple[float, float]:
    # Independent oracle: substituting u = 1/t turns the tail integral of
    # exp(-x t)/t into the finite integral of exp(-x/u)/u over (0, 1].
    # Returns the value with its self-reported error bound.
    return integrate.quad(
        lambda u: math.exp(-x / u) / u if u > 0.0 else 0.0, 0.0, 1.0, limit=400
    )


class TestExpIntegral:
    def test_at_one_against_quadrature(self):
        assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552029, rel=1e-14)
        val, err = _e1_quad(1.0)
        assert abs(exp_integral_e1(1.0) - val) <= max(2.0 * err, 1e-13 * val)

    def test_small_argument(self):
        # E1(1e-6); dominated by -gamma - ln x.
        assert exp_integral_e1(1e-6) == pytest.approx(13.238295893062952, rel=1e-13)

    def test_quadrature_grid(self):
        for x in (0.01, 0.1, 0.5, 0.99, 1.01, 2.0, 5.0, 10.0, 30.0):
            val, err = _e1_quad(x)
            assert abs(exp_integral_e1(x) - val) <= max(2.0 * err, 1e-13 * val)

    def test_mpmath_grid(self):
        # Dense where the series hands over to the continued fraction, and
        # just inside and outside every root-range edge, where the inverse
        # evaluates E1 most.
        mp = pytest.importorskip("mpmath")
        offsets = np.concatenate([-np.geomspace(1e-2, 1e-12, 11), [0.0], np.geomspace(1e-12, 1e-2, 11)])
        xs = np.concatenate([
            np.geomspace(1e-12, 50.0, 400),
            np.linspace(0.9, 4.0, 1201),
            (specialfn._EDGES[:, None] * (1.0 + offsets)).ravel(),
        ])
        ours = exp_integral_e1(xs)
        theirs = np.array([float(mp.e1(float(x))) for x in xs])
        rel = np.abs(ours - theirs) / theirs
        assert rel.max() < 5e-14

    def test_upper_bound(self):
        # E1(x) < exp(-x)/x for all x > 0.
        xs = np.geomspace(1e-8, 100.0, 200)
        assert np.all(exp_integral_e1(xs) < np.exp(-xs) / xs)

    def test_strictly_decreasing(self):
        xs = np.geomspace(1e-10, 200.0, 500)
        vals = exp_integral_e1(xs)
        assert np.all(np.diff(vals) < 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exp_integral_e1(0.0)
        with pytest.raises(ValueError):
            exp_integral_e1(np.array([1.0, -2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # The same error as a nonpositive argument, and no RuntimeWarning
        # on the way (pytest turns those into errors here).
        for x in (bad, np.array([0.5, bad, 3.0])):
            with pytest.raises(ValueError, match="finite positive"):
                exp_integral_e1(x)

    def test_array_matches_scalar(self):
        xs = np.array([0.3, 1.0, 7.5])
        arr = exp_integral_e1(xs)
        for i, x in enumerate(xs):
            assert arr[i] == exp_integral_e1(float(x))
        assert exp_integral_e1(np.zeros((0, 3))).shape == (0, 3)


class TestInverseE1:
    def test_round_trip(self):
        ys = np.geomspace(1e-6, 600.0, 2000)
        xs = inverse_e1(ys)
        back = exp_integral_e1(xs)
        assert np.max(np.abs(back - ys) / ys) < 1e-9

    def test_scalar_round_trip(self):
        x = inverse_e1(0.21938393439552029)
        assert x == pytest.approx(1.0, rel=1e-10)

    def test_monotone_decreasing(self):
        ys = np.geomspace(1e-4, 100.0, 300)
        xs = inverse_e1(ys)
        assert np.all(np.diff(xs) < 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            inverse_e1(0.0)
        with pytest.raises(ValueError):
            inverse_e1(-1.0)
        with pytest.raises(ValueError):
            inverse_e1(1000.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        for y in (bad, np.array([0.5, bad, 3.0])):
            with pytest.raises(ValueError, match="finite positive"):
                inverse_e1(y)

    def test_preserves_shape(self):
        ys = np.array([[0.5, 1.0], [2.0, 3.0]])
        xs = inverse_e1(ys)
        assert xs.shape == (2, 2)
        assert inverse_e1(np.zeros((0, 3))).shape == (0, 3)
        assert np.max(np.abs(exp_integral_e1(xs) - ys) / ys) < 1e-9

    def test_shuffled_targets_over_every_root_range_match_mpmath(self):
        # Targets are inverted one root range at a time; shuffling them
        # catches a grouping whose permutation is not undone.  Every range
        # gets interior targets, every range edge E1(b) is a target itself,
        # and so is the 690 cap.
        mp = pytest.importorskip("mpmath")
        edges = np.sort(specialfn._EDGES)
        roots = np.concatenate([
            np.geomspace(1e-298, edges[0], 9),
            *[np.geomspace(a, b, 6)[1:-1] for a, b in zip(edges[:-1], edges[1:])],
            np.geomspace(edges[-1], 30.0, 7)[1:],
        ])
        ys = np.concatenate([exp_integral_e1(roots), exp_integral_e1(edges), [690.0, 1e-12]])
        ys = ys[np.random.default_rng(5).permutation(ys.size)]
        xs = inverse_e1(ys)
        ref = np.array([float(mp.e1(float(x))) for x in xs])
        assert np.all(np.abs(ref - ys) <= 1e-11 * ys)
        grid = inverse_e1(ys.reshape(6, 8))
        assert grid.shape == (6, 8)
        assert np.array_equal(grid.ravel(), xs)

    @pytest.mark.parametrize("size", [1 << 13, 1 << 15, 1 << 16])
    def test_slices_invert_as_the_whole_array(self, size):
        # The jump kernel inverts a step's targets in slices; each target's
        # root must not depend on which others share its call.  The shuffled
        # targets cover every root range, each range edge and the 690 cap.
        edges = np.sort(specialfn._EDGES)
        roots = np.concatenate([
            np.geomspace(1e-298, edges[0], 20_000),
            *[np.geomspace(a, b, 20_000) for a, b in zip(edges[:-1], edges[1:])],
            np.geomspace(edges[-1], 30.0, 20_000),
        ])
        ys = np.concatenate([exp_integral_e1(roots), exp_integral_e1(edges), [690.0] * 50])
        ys = ys[np.random.default_rng(6).permutation(ys.size)]
        assert np.unique(count_at_or_below(specialfn._EDGE_E1, ys)).size == 8
        sliced = np.concatenate([inverse_e1(ys[s : s + size]) for s in range(0, ys.size, size)])
        assert sliced.tobytes() == inverse_e1(ys).tobytes()

    @staticmethod
    def _count_e1(monkeypatch):
        # Cost without timing: the E1 elements evaluated, and the elements
        # the jump kernel inverts, counted at the module attributes as the
        # benchmark's tracer counts them.
        counts = {"e1": 0, "inverse": 0}

        def counting(name, module, fn):
            def wrapped(v):
                counts[name] += np.size(v)
                return fn(v)
            monkeypatch.setattr(module, fn.__name__, wrapped)

        counting("e1", specialfn, specialfn.exp_integral_e1)
        counting("inverse", samplers, samplers.inverse_e1)
        return counts

    def test_e1_evaluations_per_inverted_jump(self, monkeypatch):
        # At alpha 5 (89 jumps a row) and at alpha 0.2 (about 4).
        counts = self._count_e1(monkeypatch)
        for alpha, rows in ((5.0, 2000), (0.2, 30000)):
            counts.update(e1=0, inverse=0)
            samplers._jump_matrices(alpha, (1.0,), rows, RngStream(1).gen)
            assert counts["inverse"] > 100_000
            assert counts["e1"] <= 1.1 * counts["inverse"]

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.5, 1.0), (0.2, 0.5), (0.05, 0.2),
         (0.01, 0.05), (1e-3, 1e-2), (1e-5, 1e-3), (0.0, 1e-5)],
    )
    def test_fitted_starts_meet_the_check_at_once(self, monkeypatch, lo, hi):
        # Roots in [0.05, 1] start from a fit per root range, roots below
        # from the series reversion.  Every target is evaluated once at its
        # start and again only if it misses the 1e-12 residual check, so at
        # most 1% of the range's interior targets may need a second
        # evaluation.  Roots below 0.05 are drawn log-uniform; the last
        # range reaches down to the root of y = 690, and takes 690 itself.
        counts = self._count_e1(monkeypatch)
        rng = np.random.default_rng(3)
        if lo >= 0.05:
            roots = rng.uniform(lo, hi, 20_000)
        else:
            lo = lo or math.exp(-EULER_GAMMA - 690.0)
            roots = np.exp(rng.uniform(math.log(lo), math.log(hi), 20_000))
        ys = exp_integral_e1(roots)
        if lo < 1e-5:
            ys = np.append(ys, 690.0)
        counts["e1"] = 0
        xs = inverse_e1(ys)
        assert counts["e1"] <= 1.01 * ys.size
        assert np.all(np.abs(exp_integral_e1(xs) - ys) <= 1e-12 * ys)

    def test_reversion_table_is_the_lagrange_inversion(self):
        # b_k = [w^k] exp((k + 1) S(w)) / (k + 1), S(w) = sum_j (-1)^{j+1}
        # w^j / (j j!), recomputed in exact rationals: the power series
        # e = exp(n S) has e_0 = 1 and i e_i = sum_j j s_j e_{i-j}, where
        # j s_j = n (-1)^{j+1} / j!.
        table = specialfn._REVERSION_COEF
        assert len(table) == 16
        for k, b in enumerate(table):
            n = k + 1
            e = [Fraction(1)]
            for i in range(1, k + 1):
                e.append(sum(Fraction(n * (-1) ** (j + 1), math.factorial(j)) * e[i - j]
                             for j in range(1, i + 1)) / i)
            assert b == float(e[k] / n)


class TestGammaRatioIdentity:
    @pytest.mark.parametrize("a", [0.5, 1.7, 3.0])
    def test_ascending_sum(self, a):
        # Gamma(a+k+1)/k! = a * sum_{r<=k} Gamma(a+r)/Gamma(r+1); the
        # combinatorial backbone of the moment recursion.
        for k in range(0, 21):
            lhs = math.exp(log_gamma(a + k + 1) - log_gamma(k + 1.0))
            rhs = a * sum(
                math.exp(log_gamma(a + r) - log_gamma(r + 1.0)) for r in range(k + 1)
            )
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_euler_gamma_constant(self):
        mp = pytest.importorskip("mpmath")
        assert EULER_GAMMA == pytest.approx(float(mp.euler), abs=1e-16)
