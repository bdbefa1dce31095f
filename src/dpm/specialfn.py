"""Special functions for the moment engine and the jump-size samplers.

Provides log-gamma and the exponential integral E1 with its inverse.  E1
is the power series -gamma - ln x + sum_k (-1)^{k+1} x^k / (k k!) up to
x = 2.5, summed by Horner to the term count of the
largest argument, and above it the continued fraction, evaluated from the
bottom at a depth set by the smallest argument.  Both branches stay within
2e-14 of mpmath from 1e-12 to 700; the series' cancellation would reach
5e-14 by x = 3.  The inverse groups its targets by root range between
fixed edges, so each E1 call sees one narrow range of arguments and each
range has an exact bracket.  Within a range it takes Halley steps,
bisecting when a step leaves the bracket, from the range's start: a fit
made at import for roots in [0.05, 1], the series reversion of E1 (a
literal table of its coefficients) below and an asymptotic guess above.
All but the last meet the residual check at their first E1 evaluation.
Both accept scalars or numpy arrays, since the jump generator inverts a
step's kept arrivals, across all its rows, at once.
:func:`count_at_or_below` counts edges, in one byte, where that measured
faster than bisection: 4096+ values, <= 16 edges.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.5772156649015329

# E1 takes the series up to here and the continued fraction above.
_SERIES_MAX_X = 2.5
# E1(x) for y above this would need x below the smallest positive double.
_E1_MAX_INVERTIBLE = 690.0


def log_gamma(a: float) -> float:
    """log Gamma(a) for a > 0."""
    if not a > 0.0:
        raise ValueError(f"log_gamma requires a positive argument, got {a}")
    return math.lgamma(a)


def _horner(coef, x: np.ndarray) -> np.ndarray:
    # sum_i coef[i] x^(n-1-i), highest power first, in place: two array
    # passes per coefficient, the first product starting the sum.
    if len(coef) == 1:
        return np.full_like(x, coef[0])
    acc = x * coef[0]
    for c in coef[1:-1]:
        acc += c
        acc *= x
    acc += coef[-1]
    return acc


# (-1)^{k+1} / (k k!) for k = 32 down to 1, the series in Horner order;
# x = 2.5 needs 27 of them.
_SERIES_COEF = [(-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(32, 0, -1)]


def _series_terms(xmax: float) -> int:
    # The terms alternate and decrease once k > x, so the tail after n terms
    # is below term n + 1; stop when that is 1e-17 of e^{-x}/(x + 1) < E1(x).
    # The ratio of a term to E1 grows with x, so the largest x sets n.
    bound = 1e-17 * math.exp(-xmax) / (xmax + 1.0)
    n, term = 1, xmax
    while term > bound:
        term *= xmax * n / (n + 1) ** 2
        n += 1
    return n


def _e1_series(x: np.ndarray) -> np.ndarray:
    acc = _horner(_SERIES_COEF[-_series_terms(float(x.max(initial=0.0))):], x)
    acc *= x
    acc -= np.log(x)
    acc -= EULER_GAMMA
    return acc


def _e1_fraction(x: np.ndarray) -> np.ndarray:
    # E1(x) = e^{-x} / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))), evaluated
    # from the bottom.  112/x + 8 levels bring it within 1e-17 for x >= 1;
    # the smallest x sets the depth.
    depth = int(112.0 / float(x.min())) + 8
    t = x + (2 * depth + 1)
    for i in range(depth, 0, -1):
        np.divide(-float(i * i), t, out=t)
        t += x
        t += 2 * i - 1
    return np.divide(np.exp(-x), t, out=t)


def _split(mask: np.ndarray, v: np.ndarray, on, off) -> np.ndarray:
    # on(v[mask]) and off(v[~mask]) gathered into one array; a branch that
    # gets every element runs on v itself, without the copies.
    if mask.all():
        return on(v)
    if not mask.any():
        return off(v)
    out = np.empty_like(v)
    out[mask] = on(v[mask])
    out[~mask] = off(v[~mask])
    return out


def count_at_or_below(edges: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, v, side="right")``, counted where faster.

    The counting path returns int8: at most 16 edges reach it, so a count
    never overflows, and its indices take one byte instead of eight.  The
    binary search returns intp.
    """
    if not (0 < len(edges) <= 16 and v.size >= 4096):
        return np.searchsorted(edges, v, side="right")
    count = (v >= edges[0]).view(np.int8)
    for c in edges[1:]:
        count += v >= c
    return count


def _finite_positive(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    # Written as "not (v > 0)", so that NaN fails too.
    if not np.all((arr > 0.0) & (arr < math.inf)):
        raise ValueError(f"{name} requires finite positive arguments")
    return arr


def exp_integral_e1(x):
    """E1(x) = integral of e^{-t}/t from x to infinity, for finite x > 0.

    Accepts a float or an ndarray; returns the matching type.  NaN, inf
    and x <= 0 raise ValueError.
    """
    arr = _finite_positive(x, "exp_integral_e1")
    flat = arr.ravel()
    out = _split(flat <= _SERIES_MAX_X, flat, _e1_series, _e1_fraction)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# Root-range edges b, decreasing.  E1 decreases, so y >= E1(b) exactly when
# the root x <= b: the targets between two edges' E1 values have their
# roots between the edges.
_EDGES = np.array([1.0, 0.5, 0.2, 0.05, 1e-2, 1e-3, 1e-5])
_EDGE_E1 = exp_integral_e1(_EDGES)
_BRACKETS = np.concatenate([[745.0], _EDGES, [0.0]])


def _large_root(y: np.ndarray) -> np.ndarray:
    # For roots above 1 (y < 0.22), E1(x) ~ e^{-x}/x gives
    # x ~ t - ln(t + 1) + ln(1 + 1/t) with t = -ln y.
    t = -np.log(y)
    return t - np.log(t + 1.0) + np.log1p(1.0 / t)


def _fitted_root(lo: float, hi: float):
    # A start for roots in [lo, hi]: ln x as a degree-10 polynomial in ln y,
    # which the range's ends map onto [-1, 1], least-squares fitted to E1
    # at 200 Chebyshev points in x.  On [0.05, 1] in three ranges it is
    # within 4e-13 of the root, inside the residual check.
    x = lo + (hi - lo) * 0.5 * (1.0 + np.cos(np.linspace(0.0, np.pi, 200)))
    t = np.log(exp_integral_e1(x))
    scale, shift = 2.0 / (t[-1] - t[0]), (t[-1] + t[0]) / (t[-1] - t[0])
    t *= scale
    t -= shift
    coef = np.linalg.lstsq(np.vander(t, 11), np.log(x), rcond=None)[0].tolist()

    def start(y: np.ndarray) -> np.ndarray:
        t = np.log(y)
        t *= scale
        t -= shift
        return np.exp(_horner(coef, t))

    return start


# b_k of the series reversion x = t sum_k b_k t^k, t = exp(-gamma - y), of
# E1(x) = y: x = t exp(S(x)) with S(x) = sum_k (-1)^{k+1} x^k / (k k!), so
# by Lagrange inversion b_k = [w^k] exp((k + 1) S(w)) / (k + 1).  They grow
# about 1.7-fold a term; t < 0.048 for roots below 0.05.
_REVERSION_COEF = (
    1.0, 1.0, 1.25, 1.7222222222222223, 2.5069444444444446, 3.7808333333333333,
    5.845038580246913, 9.203158856135047, 14.696165320294785, 23.731555572760655,
    38.671962654306405, 63.495069971217625, 104.91630864683161, 174.30240760000666,
    290.9386079773385, 487.6162819836635,
)


def _reversion_root(y_min: float):
    # A start for roots below 0.05, whose largest root has E1 = y_min: the
    # reversion summed until the next term, b_n t^n at that root's t, is
    # below 1e-17, which takes 15 terms for the range up to 0.05 and 4 for
    # the range up to 1e-5.  Within about 1e-15 of the root (5e-14 at
    # y = 690, where rounding -gamma - y dominates).
    tmax = math.exp(-EULER_GAMMA - y_min)
    n = 1
    while _REVERSION_COEF[n] * tmax**n > 1e-17:
        n += 1
    coef = _REVERSION_COEF[n - 1 :: -1]

    def start(y: np.ndarray) -> np.ndarray:
        t = np.negative(y)
        t -= EULER_GAMMA
        np.exp(t, out=t)
        x = _horner(coef, t)
        x *= t
        return x

    return start


# The start of each root range, in the order of _BRACKETS.
_STARTS = (
    _large_root,
    *(_fitted_root(lo, hi) for hi, lo in zip(_EDGES[:3], _EDGES[1:4])),
    *(_reversion_root(y) for y in _EDGE_E1[3:].tolist()),
)


def _halley(y: np.ndarray, lo: float, hi: float, start) -> np.ndarray:
    # Halley steps on f(x) = E1(x) - y for roots in [lo, hi], from start(y);
    # a step that leaves the bracket bisects it instead.  Every element is
    # checked, and stops, once |f| <= 1e-12 y, the start included; the
    # bracket and positions are held only for the targets that miss it at
    # their start.  With E1' = -e^{-x}/x and E1''/E1' = -(1 + x)/x, the step
    # is x -> x (1 + u / (1 - u (1 + x)/2)) with u = f e^x, which needs no
    # x^2 near the 690 cap.
    x = np.clip(start(y), lo, hi)
    f = exp_integral_e1(x) - y
    miss = np.abs(f) > 1e-12 * y
    if not miss.any():
        return x
    pos = np.flatnonzero(miss)
    xa, ya, f = x[pos], y[pos], f[pos]
    la, ha = np.full_like(ya, lo), np.full_like(ya, hi)
    for _ in range(80):
        # E1 decreases, so f > 0 means x is below the root.
        la = np.where(f > 0.0, xa, la)
        ha = np.where(f < 0.0, xa, ha)
        u = f * np.exp(xa)
        xn = xa * (1.0 + u / (1.0 - 0.5 * u * (1.0 + xa)))
        xa = np.where(np.isfinite(xn) & (xn > la) & (xn < ha), xn, 0.5 * (la + ha))
        x[pos] = xa
        f = exp_integral_e1(xa) - ya
        miss = np.abs(f) > 1e-12 * ya
        if not miss.any():
            break
        pos, xa, ya, f, la, ha = (v[miss] for v in (pos, xa, ya, f, la, ha))
    return x


def inverse_e1(y):
    """Solve E1(x) = y for x > 0.

    Accepts a float or an ndarray.  The targets are inverted one root range
    at a time, so that each E1 evaluation stops at its range's term count
    and starts from its range's bracket.  Within a range, Halley steps run
    from the range's start, with bisection as the fallback; starts for
    roots below 1 already meet the check, so most targets take one E1
    evaluation.  The result satisfies |E1(x) - y| <= 1e-12 * y.  NaN, inf
    and y <= 0 raise ValueError; values y > 690 would need x below the
    smallest positive double and are rejected too.
    """
    arr = _finite_positive(y, "inverse_e1")
    if np.any(arr > _E1_MAX_INVERTIBLE):
        raise ValueError(f"inverse_e1 argument exceeds {_E1_MAX_INVERTIBLE}; result underflows")
    yv = arr.ravel()
    x = np.empty_like(yv)
    ranges = count_at_or_below(_EDGE_E1, yv)
    for r in range(_BRACKETS.size - 1):
        idx = np.flatnonzero(ranges == r)
        if idx.size:
            x[idx] = _halley(yv[idx], _BRACKETS[r + 1], _BRACKETS[r], _STARTS[r])
    return float(x[0]) if arr.ndim == 0 else x.reshape(arr.shape)
