"""Distribution-free test statistics used by the verification campaigns.

Implements the one- and two-sample Kolmogorov-Smirnov statistics with
asymptotic p-values from the alternating Kolmogorov series, plus the
normal tail behind the z-score reports.  Everything here is a pure
function of its sample arrays.
"""

from __future__ import annotations

import math

import numpy as np

_KOLMOGOROV_TERM_EPS = 1e-12
MIN_KS_SAMPLES = 100
# Points per slab of ECDF gaps: a statistic is the largest slab maximum, exact.
_KS_CHUNK = 1 << 15


def two_sided_p(z: float) -> float:
    """P(|N(0,1)| > |z|)."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def kolmogorov_sf(lam: float) -> float:
    """P(K > lam) for the Kolmogorov distribution.

    The alternating series 2 sum_k (-1)^{k-1} exp(-2 k^2 lam^2), truncated
    once terms drop below 1e-12, clamped to [0, 1].  For lam <= 0 the
    survival probability is 1.
    """
    if lam <= 0.0:
        return 1.0
    acc = 0.0
    sign = 1.0
    for k in range(1, 200):
        term = math.exp(-2.0 * k * k * lam * lam)
        acc += sign * term
        if term < _KOLMOGOROV_TERM_EPS:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * acc))


def ks_test(samples, cdf) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test against a continuous cdf.

    Returns (statistic, asymptotic p-value).  The cdf callable is applied
    to the sorted sample array; it must be monotone with values in [0, 1],
    otherwise the input is rejected.  A cdf constant on the sample cannot
    compare laws: both values are then NaN, which a report grades
    degenerate.  Fewer than 100 samples are rejected too, as the asymptotic
    p-value would be meaningless.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < MIN_KS_SAMPLES:
        raise ValueError(f"need at least {MIN_KS_SAMPLES} samples, got {n}")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise ValueError("cdf must map the sample array to an equal-length array")
    if not np.all((f >= -1e-9) & (f <= 1.0 + 1e-9)):
        raise ValueError("cdf values are NaN or fall outside [0, 1]")
    if np.any(np.diff(f) < -1e-12):
        raise ValueError("cdf is not monotone on the sample")
    if f.min() == f.max():
        return math.nan, math.nan
    gaps = []
    for start in range(0, n, _KS_CHUNK):
        part = f[start : start + _KS_CHUNK]
        grid = np.arange(start + 1, start + part.size + 1) / n
        gaps.append((np.max(grid - part), np.max(part - (grid - 1.0 / n))))
    stat = max(map(float, np.max(gaps, axis=0)))
    return stat, kolmogorov_sf(math.sqrt(n) * stat)


def ks_two_sample(x, y) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov test with asymptotic p-value."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    nx, ny = x.size, y.size
    if min(nx, ny) < MIN_KS_SAMPLES:
        raise ValueError(f"need at least {MIN_KS_SAMPLES} samples per side")
    slabs = [v[s : s + _KS_CHUNK] for v in (x, y) for s in range(0, v.size, _KS_CHUNK)]
    stat = float(np.max([np.max(np.abs(np.searchsorted(x, at, side="right") / nx
                                       - np.searchsorted(y, at, side="right") / ny))
                         for at in slabs]))
    n_eff = nx * ny / (nx + ny)
    return stat, kolmogorov_sf(math.sqrt(n_eff) * stat)
