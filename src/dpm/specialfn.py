"""Special functions for the moment engine and the jump-size samplers.

Provides the log-gamma/beta family and the exponential integral E1 with
its inverse.  E1 uses the classical split: an alternating power series below
x = 1 and a modified Lentz continued fraction above; both branches hit
relative error below 1e-13 over [1e-12, 50], comfortably inside the 1e-10
contract.  The inverse runs a bracketed Newton iteration and accepts either
scalars or numpy arrays, since the jump samplers invert whole arrival
matrices at once.
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
    # (0, 1], so an absolute tail bound of 1e-18 keeps full precision.
    acc = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(1, _SERIES_TERMS + 1):
        term = term * (-x) / k
        acc -= term / k
        if np.abs(term).max() < 1e-18:
            break
    return -EULER_GAMMA - np.log(x) + acc


def _e1_lentz(x: np.ndarray) -> np.ndarray:
    # Continued fraction E1(x) = e^{-x} / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...)))
    # evaluated with the modified Lentz algorithm.
    b = x + 1.0
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    f = d.copy()
    for i in range(1, _CF_MAX_ITER + 1):
        a = -float(i) * float(i)
        b = b + 2.0
        d = b + a * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        d = 1.0 / d
        c = b + a / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        delta = c * d
        f = f * delta
        if np.all(np.abs(delta - 1.0) < _CF_EPS):
            break
    return np.exp(-x) * f


def _e1_scalar(v: float) -> float:
    # Same series/continued-fraction split as the array branches, in plain
    # floats; numpy dispatch overhead dominates the arithmetic for small
    # inputs, so tiny arrays route through here.
    if v <= 1.0:
        acc = 0.0
        term = 1.0
        for k in range(1, _SERIES_TERMS + 1):
            term *= -v / k
            acc -= term / k
            if abs(term) < 1e-18:
                break
        return -EULER_GAMMA - math.log(v) + acc
    b = v + 1.0
    c = 1.0 / _TINY
    d = 1.0 / b
    f = d
    for i in range(1, _CF_MAX_ITER + 1):
        a = -float(i) * float(i)
        b += 2.0
        d = b + a * d
        if abs(d) < _TINY:
            d = _TINY
        d = 1.0 / d
        c = b + a / c
        if abs(c) < _TINY:
            c = _TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _CF_EPS:
            break
    return math.exp(-v) * f


def exp_integral_e1(x):
    """E1(x) = integral of e^{-t}/t from x to infinity, for x > 0.

    Accepts a float or an ndarray; returns the matching type.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0):
        raise ValueError("exp_integral_e1 requires positive arguments")
    if arr.size <= 16:
        flat = [_e1_scalar(float(v)) for v in arr.ravel()]
        return flat[0] if scalar else np.array(flat).reshape(arr.shape)
    out = np.empty_like(arr)
    lo = arr <= 1.0
    nlo = int(np.count_nonzero(lo))
    if nlo:
        sub = arr[lo]
        out[lo] = [_e1_scalar(float(v)) for v in sub] if nlo <= 16 else _e1_series(sub)
    if nlo < arr.size:
        sub = arr[~lo]
        if sub.size <= 16:
            out[~lo] = [_e1_scalar(float(v)) for v in sub]
        else:
            out[~lo] = _e1_lentz(sub)
    return float(out[0]) if scalar else out


def _inverse_e1_initial(y: np.ndarray) -> np.ndarray:
    # For y >= 2 the root is small and E1(x) ~ -gamma - ln x, giving
    # x ~ exp(-gamma - y).  For y < 2 the root is order one or larger and
    # E1(x) ~ e^{-x}/x, giving x ~ t - ln(t + 1) + ln(1 + 1/t) with
    # t = -ln y.  Both guesses land inside the Newton basin; the bracket
    # plus bisection fallback covers the rest.
    x = np.empty_like(y)
    big = y >= 2.0
    x[big] = np.exp(-EULER_GAMMA - y[big])
    t = np.maximum(-np.log(np.minimum(y[~big], 1.9)), 0.1)
    x[~big] = np.maximum(t - np.log(t + 1.0) + np.log1p(1.0 / t), 0.05)
    return np.maximum(x, 1e-308)


def inverse_e1(y):
    """Solve E1(x) = y for x > 0 by bracketed Newton iteration.

    Accepts a float or an ndarray.  The result satisfies
    |E1(x) - y| <= 1e-10 * y.  Values y > 690 would need x below the
    smallest positive double and are rejected.
    """
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    yv = np.atleast_1d(arr).astype(float)
    if np.any(yv <= 0.0):
        raise ValueError("inverse_e1 requires positive arguments")
    if np.any(yv > _E1_MAX_INVERTIBLE):
        raise ValueError(f"inverse_e1 argument exceeds {_E1_MAX_INVERTIBLE}; result underflows")

    shape = yv.shape
    yv = yv.ravel()
    x = _inverse_e1_initial(yv)
    lo = np.full_like(yv, 1e-310)
    hi = np.full_like(yv, 745.0)
    # Newton with bracket fallback, iterating only the unconverged entries.
    active = np.arange(yv.size)
    for _ in range(80):
        xa = x[active]
        ya = yv[active]
        f = exp_integral_e1(xa) - ya
        # E1 decreases, so f > 0 means x is below the root.
        la = np.where(f > 0.0, xa, lo[active])
        ha = np.where(f < 0.0, xa, hi[active])
        lo[active] = la
        hi[active] = ha
        done = np.abs(f) <= 1e-12 * ya
        xn = xa - f / (-np.exp(-xa) / xa)
        bad = ~np.isfinite(xn) | (xn <= la) | (xn >= ha)
        xn = np.where(bad, 0.5 * (la + ha), xn)
        x[active] = np.where(done, xa, xn)
        active = active[~done]
        if active.size == 0:
            break
    x = x.reshape(shape)
    return float(x[0]) if scalar else x
