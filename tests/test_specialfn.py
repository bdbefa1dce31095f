"""Special-function layer: log-gamma helpers, E1, and its inverse.

Non-trivial reference values are pinned against independent oracles
(scipy quadrature, mpmath multiprecision) rather than against the
implementation itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dpm import samplers, specialfn
from dpm.samplers import RngStream, gamma_jumps
from dpm.specialfn import (
    EULER_GAMMA,
    exp_integral_e1,
    inverse_e1,
    log_beta,
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


class TestBeta:
    def test_beta_2_3(self):
        assert math.exp(log_beta(2.0, 3.0)) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_log_beta_symmetry(self):
        assert log_beta(1.7, 4.2) == pytest.approx(log_beta(4.2, 1.7), abs=1e-14)

    def test_beta_identity_splits(self):
        # B(a, b) = B(a+1, b) + B(a, b+1)
        a, b = 0.6, 2.9
        beta = lambda a, b: math.exp(log_beta(a, b))
        assert beta(a, b) == pytest.approx(beta(a + 1, b) + beta(a, b + 1), rel=1e-13)


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
        mp = pytest.importorskip("mpmath")
        xs = np.geomspace(1e-12, 50.0, 400)
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

    def test_array_matches_scalar(self):
        xs = np.array([0.3, 1.0, 7.5])
        arr = exp_integral_e1(xs)
        for i, x in enumerate(xs):
            assert arr[i] == exp_integral_e1(float(x))


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

    def test_preserves_shape(self):
        ys = np.array([[0.5, 1.0], [2.0, 3.0]])
        xs = inverse_e1(ys)
        assert xs.shape == (2, 2)
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

    def test_e1_evaluations_per_inverted_jump(self, monkeypatch):
        # Cost without timing: the E1 elements evaluated per element the
        # jump kernel inverts, counted at the module attribute as the
        # benchmark's tracer counts them.
        counts = {"e1": 0, "inverse": 0}

        def counting(name, module, fn):
            def wrapped(v):
                counts[name] += np.size(v)
                return fn(v)
            monkeypatch.setattr(module, fn.__name__, wrapped)

        counting("e1", specialfn, specialfn.exp_integral_e1)
        counting("inverse", samplers, samplers.inverse_e1)
        gamma_jumps(5.0, 2000, RngStream(1).gen)
        assert counts["inverse"] > 100_000
        assert counts["e1"] <= 2.0 * counts["inverse"]


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
