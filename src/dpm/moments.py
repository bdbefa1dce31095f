"""Exact moment engines for Dirichlet vectors and stick weights.

Two independent routes compute mixed moments E[Z1^k1 ... Zn^kn] of a
Dirichlet vector: a closed form as a ratio of rising factorials, and a
one-step recursion that raises a single exponent using only strictly
lower-degree entries of a :class:`MomentTable`.  The two routes agreeing to
near machine precision is one of the package's standing cross-checks.
Each gamma-function ratio either route needs is one product of ratios,
:func:`_rising_ratio`: log-gamma differences would lose digits at large
parameters in both routes alike, where their agreement cannot show it.

The scalar half of the module inverts the size-biased mixing identities
for a pair (Z, W) of independent [0,1] variables: given the Z-moment
sequence, the first W-moment and the mean parameter p, `solve_b_next`
recovers the W-moments one degree at a time.  The step for an odd-degree
moment b_{n+1} (identity index n even) degenerates exactly at p = 1/2,
which `check_solvability` predicts in closed form.
"""

from __future__ import annotations

import math

SOLVE_SINGULAR_ATOL = 1e-13
_VALUE_SLACK = 1e-9


class MissingMomentError(KeyError):
    """A recursion step needed a table entry that was never computed."""

    def __init__(self, ks: tuple[int, ...]):
        super().__init__(ks)
        self.ks = ks

    def __str__(self) -> str:
        return f"moment table is missing index {self.ks}"


class SingularSystemError(ArithmeticError):
    """The moment-recovery step is degenerate at these parameters."""


class MomentTable:
    """Sparse table of mixed moments indexed by exponent multi-indices.

    Entries are probabilities of intersections of simplex events, so every
    value lies in [0, 1], the all-zeros index is pinned to 1, and raising
    any exponent can only shrink the value.  Violations are rejected at
    insertion.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("table needs at least one coordinate")
        self.size = size
        self._entries: dict[tuple[int, ...], float] = {(0,) * size: 1.0}

    def _check_index(self, ks) -> tuple[int, ...]:
        ks = tuple(int(k) for k in ks)
        if len(ks) != self.size or any(k < 0 for k in ks):
            raise ValueError(f"bad moment index {ks} for size {self.size}")
        return ks

    def put(self, ks, value: float) -> None:
        ks = self._check_index(ks)
        if not -_VALUE_SLACK <= value <= 1.0 + _VALUE_SLACK:
            raise ValueError(f"moment value {value} at {ks} outside [0, 1]")
        if sum(ks) == 0 and abs(value - 1.0) > _VALUE_SLACK:
            raise ValueError("the empty moment must equal 1")
        for j in range(self.size):
            if ks[j] == 0:
                continue
            lower = ks[:j] + (ks[j] - 1,) + ks[j + 1 :]
            below = self._entries.get(lower)
            if below is not None and value > below + _VALUE_SLACK:
                raise ValueError(f"moment at {ks} exceeds its lower neighbour {lower}")
        self._entries[ks] = float(value)

    def value(self, ks) -> float:
        ks = self._check_index(ks)
        if ks not in self._entries:
            raise MissingMomentError(ks)
        return self._entries[ks]


def multi_indices(size: int, degree: int):
    """All exponent multi-indices of the given total degree, lexicographic."""
    if size == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in multi_indices(size - 1, degree - first):
            yield (first,) + rest


def _rising_ratio(tops, bottom: float) -> float:
    """prod_i tops[i] / (bottom + i), as (a)_k / (b)_k is for tops a + i."""
    if not math.isfinite(bottom):
        raise ValueError(f"moment parameters must have a finite total, got {bottom}")
    out = 1.0
    for i, top in enumerate(tops):
        out *= top / (bottom + i)
    return out


def beta_moment(a: float, b: float, n: int) -> float:
    """E Z^n for Z ~ Beta(a, b), via the ascending-factorial ratio."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta parameters must be positive, got ({a}, {b})")
    if n < 0 or n != int(n):
        raise ValueError(f"moment order must be a nonnegative integer, got {n}")
    return _rising_ratio([a + j for j in range(int(n))], a + b)


def dirichlet_mixed_moment(alphas, ks) -> float:
    """E[Z1^k1 ... Zn^kn] for (Z1..Zn) ~ Dirichlet(alphas), in closed form.

    The value is prod_i (alpha_i)_{k_i} / (|alpha|)_{|k|} in rising
    factorials.  Zero parameters follow the degenerate-coordinate
    convention: a coordinate with alpha_i = 0 is almost surely zero, so any
    positive exponent there gives 0 and a zero exponent reduces the
    dimension.
    """
    alphas = [float(a) for a in alphas]
    ks = [int(k) for k in ks]
    if len(alphas) != len(ks):
        raise ValueError("alphas and exponents must have equal length")
    if any(a < 0.0 for a in alphas):
        raise ValueError("Dirichlet parameters must be nonnegative")
    if any(k < 0 for k in ks):
        raise ValueError("exponents must be nonnegative")
    total = sum(alphas)
    if not total > 0.0:
        raise ValueError("at least one Dirichlet parameter must be positive")
    return _rising_ratio([a + r for a, k in zip(alphas, ks) for r in range(k)], total)


def moment_recursion_step(table: MomentTable, alphas, j: int, ks) -> float:
    """Raise exponent j by one: the value at ks + e_j from lower entries.

    Uses the identity
        b(k + e_j) = alpha_j * sum_r C(k_j, r) b(k[j -> r])
                     * B(k_j + 1 - r, |k| + |alpha| + r - k_j),
    which couples one size-biased pick in block j to a fresh stick weight.
    Every referenced entry has total degree <= |k|; a missing one raises
    :class:`MissingMomentError` naming the absent index.
    """
    alphas = [float(a) for a in alphas]
    ks = tuple(int(k) for k in ks)
    if not 0 <= j < len(alphas):
        raise ValueError(f"coordinate {j} out of range")
    total = sum(alphas)
    ksum = sum(ks)
    kj = ks[j]
    acc = 0.0
    for r in range(kj + 1):
        lower = ks[:j] + (r,) + ks[j + 1 :]
        term = math.comb(kj, r) * table.value(lower)
        # alpha_j B(n, x) = alpha_j (n - 1)! / (x (x + 1) ... (x + n - 1)) for
        # integer n.  alpha_j / x comes first: 1 / x overflows at a subnormal
        # total.
        term *= _rising_ratio([alphas[j], *range(1, kj + 1 - r)], total + (ksum - kj + r))
        acc += term
    return acc


def build_moment_table(alphas, max_degree: int, method: str = "recursion") -> MomentTable:
    """Fill a table with all mixed moments up to the given total degree."""
    if method not in ("recursion", "exact"):
        raise ValueError(f"unknown method {method!r}")
    alphas = [float(a) for a in alphas]
    table = MomentTable(len(alphas))
    for degree in range(1, max_degree + 1):
        for ks in multi_indices(len(alphas), degree):
            if method == "exact":
                value = dirichlet_mixed_moment(alphas, ks)
            else:
                j = next(i for i, k in enumerate(ks) if k > 0)
                base = ks[:j] + (ks[j] - 1,) + ks[j + 1 :]
                value = moment_recursion_step(table, alphas, j, base)
            table.put(ks, value)
    return table


def _binomial_mixed(af, k: int, m: int) -> float:
    # E[Z^k (1-Z)^m] from the raw moments af[i] = E Z^i.
    return sum(math.comb(m, i) * (-1) ** i * af[k + i] for i in range(m + 1))


def check_solvability(p: float, alpha: float, n: int) -> float:
    """Closed-form solvability indicator for the degree-(n+1) recovery step.

    Returns p * prod_{j=0..n}(p*alpha + j)
            + (-1)^{n+1} (1-p) * prod_{j=0..n}((1-p)*alpha + j),
    which vanishes exactly when p = 1/2 and n is even.  The two products
    are accumulated in one loop so the symmetric case cancels bitwise.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    prod_p = 1.0
    prod_q = 1.0
    for j in range(n + 1):
        prod_p *= p * alpha + j
        prod_q *= (1.0 - p) * alpha + j
    return p * prod_p + (-1.0) ** (n + 1) * (1.0 - p) * prod_q


def solve_b_next(a, b, p: float) -> tuple[float, float]:
    """Recover the next W-moment b_{n+1} from Z-moments and b_1..b_n.

    Feeds the test function x^{n+1} through the mixture identity
    E g(Z) = p E g((1-W)Z + W) + (1-p) E g((1-W)Z), which the pair of
    size-biased moment equations implies, and solves the resulting linear
    equation for the single unknown E W^{n+1}.  ``a`` must supply at least
    n+1 Z-moments.  Raises :class:`SingularSystemError` when the
    coefficient of the unknown falls below 1e-13 in absolute value, which
    happens exactly at the symmetric parameter point for even n.

    Returns the pair (b_{n+1}, condition), the condition being the ratio of
    the largest intermediate term to the coefficient, a growth factor for
    relative input error.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    n = len(b)
    if n < 1:
        raise ValueError("need at least the first W-moment b_1")
    if len(a) < n + 1:
        raise ValueError(f"need {n + 1} Z-moments to recover b_{n + 1}, got {len(a)}")
    af = [1.0] + [float(x) for x in a[: n + 1]]
    bf = [1.0] + [float(x) for x in b]

    coeff = p * _binomial_mixed(af, 0, n + 1) + (-1.0) ** (n + 1) * (1.0 - p) * af[n + 1]
    # Known part of p * E((1-W)Z + W)^{n+1}: the expansion in powers of W
    # with every W-moment of index <= n.
    s_mixed = sum(
        math.comb(n + 1, k) * bf[n + 1 - k] * _binomial_mixed(af, k, n + 1 - k)
        for k in range(1, n + 2)
    )
    # Known part of E(1-W)^{n+1} for the (1-p) branch.
    s_low = sum(math.comb(n + 1, j) * (-1.0) ** j * bf[j] for j in range(n + 1))
    numer = af[n + 1] - p * s_mixed - (1.0 - p) * af[n + 1] * s_low

    if abs(coeff) < SOLVE_SINGULAR_ATOL:
        raise SingularSystemError(
            f"degree-{n + 1} recovery step is singular (coefficient {coeff:.3e}); "
            "this happens at the symmetric parameter point for even n"
        )
    scale = max(
        abs(af[n + 1]),
        abs(p * s_mixed),
        abs((1.0 - p) * af[n + 1] * s_low),
        abs(coeff),
    )
    return numer / coeff, scale / abs(coeff)


def recover_moment_sequence(a, b1: float, p: float, depth: int):
    """Run the recovery chain: predicted W-moments b_1..b_depth plus conditions.

    ``a`` must hold at least ``depth`` Z-moments.  Each step feeds the
    previously predicted values back in, so errors compound the way they
    would for a caller working from data.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if len(a) < depth:
        raise ValueError(f"need {depth} Z-moments, got {len(a)}")
    bs = [float(b1)]
    conditions = [1.0]
    for n in range(1, depth):
        value, cond = solve_b_next(a[: n + 1], bs, p)
        bs.append(value)
        conditions.append(cond)
    return bs, conditions


def quadratic_weight_c(p: float, alpha: float) -> float:
    """The constant c = p(alpha p + 1) weighting the quadratic mixing identity.

    It is pinned by g == 1: c = (alpha + 1) E Z^2 for Z ~ Be(p*alpha,
    (1-p)*alpha).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return p * (alpha * p + 1.0)
