"""Special functions for the moment engine and the jump-size samplers.

Provides the log-gamma/beta family and the exponential integral E1 with
its inverse.  E1 uses the classical split: an alternating power series below
x = 1 and a modified Lentz continued fraction above; both branches hit
relative error below 1e-13 over [1e-12, 50], comfortably inside the 1e-10
contract, and each stops at the term count of the largest (series) or
smallest (continued fraction) argument it is given.  The inverse groups its
targets by root range between fixed edges, so each E1 call sees one narrow
range of arguments and each range has an exact bracket; within a range it
takes Halley steps from an asymptotic start, bisecting when a step leaves
the bracket.  Both accept scalars or numpy arrays, since the jump samplers
invert whole arrival matrices at once.  :func:`count_at_or_below` counts
edges, in one byte, where that measured faster than bisection: 4096+
values, <= 16 edges.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.5772156649015329

_SERIES_TERMS = 48
_CF_MAX_ITER = 400
_CF_EPS = 1e-15
_TINY = 1e-300
# E1(x) for y above this would need x below the smallest positive double.
_E1_MAX_INVERTIBLE = 690.0


def log_gamma(a: float) -> float:
    """log Gamma(a) for a > 0."""
    if not a > 0.0:
        raise ValueError(f"log_gamma requires a positive argument, got {a}")
    return math.lgamma(a)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def _e1_series(x: np.ndarray) -> np.ndarray:
    # Alternating series -gamma - ln x + sum_k (-1)^{k+1} x^k / (k k!),
    # converged well below 1e-15 for x <= 1 at 48 terms.  E1 >= 0.21 on
    # (0, 1], so an absolute tail bound of 1e-18 keeps full precision.  The
    # loop stops at the term count of the largest x, and works in place.
    nx = -x
    acc = np.zeros_like(x)
    term = np.ones_like(x)
    step = np.empty_like(x)
    for k in range(1, _SERIES_TERMS + 1):
        term *= nx
        term /= k
        np.divide(term, k, out=step)
        acc -= step
        if np.abs(term, out=step).max(initial=0.0) < 1e-18:
            break
    out = np.log(x)
    np.subtract(-EULER_GAMMA, out, out=out)
    out += acc
    return out


def _e1_lentz(x: np.ndarray) -> np.ndarray:
    # Continued fraction E1(x) = e^{-x} / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...)))
    # evaluated in place with the modified Lentz algorithm.
    b = x + 1.0
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    f = d.copy()
    delta = np.empty_like(x)
    for i in range(1, _CF_MAX_ITER + 1):
        a = -float(i) * float(i)
        b += 2.0
        d *= a
        d += b
        d[np.abs(d) < _TINY] = _TINY
        np.divide(1.0, d, out=d)
        np.divide(a, c, out=c)
        c += b
        c[np.abs(c) < _TINY] = _TINY
        np.multiply(c, d, out=delta)
        f *= delta
        delta -= 1.0
        if np.abs(delta, out=delta).max(initial=0.0) < _CF_EPS:
            break
    f *= np.exp(-x)
    return f


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


def exp_integral_e1(x):
    """E1(x) = integral of e^{-t}/t from x to infinity, for x > 0.

    Accepts a float or an ndarray; returns the matching type.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("exp_integral_e1 requires positive arguments")
    flat = arr.ravel()
    out = _split(flat <= 1.0, flat, _e1_series, _e1_lentz)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# Root-range edges b, decreasing.  E1 decreases, so y >= E1(b) exactly when
# the root x <= b: the targets between two edges' E1 values have their
# roots between the edges.
_EDGES = np.array([1.0, 0.5, 0.2, 0.05, 1e-2, 1e-3, 1e-5])
_EDGE_E1 = exp_integral_e1(_EDGES)
_BRACKETS = np.concatenate([[745.0], _EDGES, [0.0]])


def _small_root(y: np.ndarray) -> np.ndarray:
    # For y >= 2 the root is below 0.09 and the series of E1 gives it as the
    # fixed point of x -> exp(-gamma - y + x - x^2/4 + x^3/18 - x^4/96).
    # From x = exp(-gamma - y) each pass multiplies the relative error by
    # about x, so the largest root sets the passes that bring it to 1e-13.
    x = np.exp(-EULER_GAMMA - y)
    for _ in range(int(-30.0 / math.log(x.max()))):
        x = np.exp(-EULER_GAMMA - y + x * (1.0 - x * (0.25 - x * (1.0 / 18.0 - x / 96.0))))
    return x


def _large_root(y: np.ndarray) -> np.ndarray:
    # For y < 2, E1(x) ~ e^{-x}/x gives x ~ t - ln(t + 1) + ln(1 + 1/t)
    # with t = -ln y; the bracket catches the guesses it misses.
    t = np.maximum(-np.log(np.minimum(y, 1.9)), 0.1)
    return t - np.log(t + 1.0) + np.log1p(1.0 / t)


def _halley(y: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # Halley steps on f(x) = E1(x) - y for roots in [lo, hi]; a step that
    # leaves the bracket bisects it instead.  With E1' = -e^{-x}/x and
    # E1''/E1' = -(1 + x)/x, the step is x -> x (1 + u / (1 - u (1 + x)/2))
    # with u = f e^x, which needs no x^2 near the 690 cap.
    x = np.clip(_split(y >= 2.0, y, _small_root, _large_root), lo, hi)
    pos, xa, ya = np.arange(y.size), x, y
    la, ha = np.full_like(y, lo), np.full_like(y, hi)
    for _ in range(80):
        f = exp_integral_e1(xa) - ya
        miss = np.abs(f) > 1e-12 * ya
        if not miss.any():
            break
        pos, xa, ya, f, la, ha = (v[miss] for v in (pos, xa, ya, f, la, ha))
        # E1 decreases, so f > 0 means x is below the root.
        la = np.where(f > 0.0, xa, la)
        ha = np.where(f < 0.0, xa, ha)
        u = f * np.exp(xa)
        xn = xa * (1.0 + u / (1.0 - 0.5 * u * (1.0 + xa)))
        xa = np.where(np.isfinite(xn) & (xn > la) & (xn < ha), xn, 0.5 * (la + ha))
        x[pos] = xa
    return x


def inverse_e1(y):
    """Solve E1(x) = y for x > 0.

    Accepts a float or an ndarray.  The targets are inverted one root range
    at a time, so that each E1 evaluation stops at its range's term count
    and starts from its range's bracket; within a range, Halley steps run
    from an asymptotic start, with bisection as the fallback.  The result
    satisfies |E1(x) - y| <= 1e-10 * y.  Values y > 690 would need x below
    the smallest positive double and are rejected.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("inverse_e1 requires positive arguments")
    if np.any(arr > _E1_MAX_INVERTIBLE):
        raise ValueError(f"inverse_e1 argument exceeds {_E1_MAX_INVERTIBLE}; result underflows")
    yv = arr.ravel()
    x = np.empty_like(yv)
    ranges = count_at_or_below(_EDGE_E1, yv)
    for r in range(_BRACKETS.size - 1):
        idx = np.flatnonzero(ranges == r)
        if idx.size:
            x[idx] = _halley(yv[idx], _BRACKETS[r + 1], _BRACKETS[r])
    return float(x[0]) if arr.ndim == 0 else x.reshape(arr.shape)
