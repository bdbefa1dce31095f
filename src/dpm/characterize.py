"""Recovery of the mixing-weight moments from samples, with a graded fit.

The scalar Beta identities pin the moments of the mixing weight W degree
by degree once the moments of Z and the first moment of W are known.  Each
side is summarized by a campaign's mergeable :class:`~dpm.verify.Moments`,
its count, mean and centred power sums up to twice the depth.
:func:`run_characterize`, behind ``dpm characterize``, draws and merges
the pairs shard by shard as a verify campaign does, so memory stays flat
in n; :func:`characterize_from_samples` builds the same accumulators from
arrays.  Both grade with :func:`_grade`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .moments import beta_moment, recover_moment_sequence
from .samplers import RngStream, beta_pairs
from .verify import DEFAULT_THRESHOLD, CampaignSettings, Moments, _Campaign, z_scores


@dataclass(frozen=True)
class CharacterizationRow:
    degree: int
    predicted: float
    empirical: float
    reference: float
    stderr: float
    z: float
    condition: float


@dataclass(frozen=True)
class CharacterizationReport:
    """Result of recovering the mixing-weight moments from raw samples."""

    p_hat: float
    alpha_hat: float
    depth: int
    n_z: int
    n_w: int
    rows: tuple[CharacterizationRow, ...]
    max_abs_z: float
    ill_conditioned: bool
    verdict: str
    notes: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


MAX_CHARACTERIZE_DEPTH = 8
ILL_CONDITION_WINDOW = 0.02


def _check_depth(depth: int) -> None:
    if not 1 <= depth <= MAX_CHARACTERIZE_DEPTH:
        raise ValueError(f"depth must lie in [1, {MAX_CHARACTERIZE_DEPTH}]")


def _accumulate(x, depth: int) -> Moments:
    """The moments of each column of x, (k, m) or (m,), up to order 2 * depth.
    A column is first taken about its first value: its central sums do not
    change, but a constant column's are exactly 0, not the rounding of its
    mean."""
    x = np.atleast_2d(x)
    acc = Moments.of(x - x[:, :1], 0.0, order=(2 * depth, 0))
    acc.mean[0] += x[:, 0]
    return acc


def _pairs_kernel(m: int, gen, *, p: float, alpha: float, depth: int) -> dict:
    """m pairs (Z, W) of :func:`beta_pairs` as the two columns of one accumulator."""
    return {"pairs": _accumulate(np.stack(beta_pairs(p, alpha, m, gen)), depth)}


def _column(acc: Moments, i: int):
    """Count, mean and central moments mu_0..mu_{2 depth} of column i."""
    return acc.n, float(acc.mean[0, i]), acc.sums[:, 0, i] / acc.n


def _variance(h, mu, n: int) -> float:
    """The variance of the mean of n draws of sum_i h_i (x-c)^i, i = 1..len(h),
    from the central moments mu_j = E(x-c)^j: the quadratic form
    sum h_i h_j (mu_{i+j} - mu_i mu_j) / n, floored at 0 against rounding."""
    i = np.arange(1, len(h) + 1)
    return max(float(h @ (mu[i[:, None] + i] - np.outer(mu[i], mu[i])) @ h), 0.0) / n


def _grade(z, w, depth: int, p: float | None) -> CharacterizationReport:
    """The report of :func:`characterize_from_samples` from each side's
    (count, mean, central moments)."""
    (n_z, c, mu), (n_w, w_mean, nu) = z, w
    # shift[i, j] = C(j, i) w_mean^(j-i), so that W^j = sum_i shift[i, j] (W - w_mean)^i.
    shift = np.array([[math.comb(j, i) * w_mean ** max(j - i, 0) for j in range(depth + 1)]
                      for i in range(depth + 1)])
    # W's raw moments b_1..b_depth; for Be(1, alpha) every term is positive.
    b = (nu[: depth + 1] @ shift)[1:]
    p_hat = float(p) if p is not None else c
    alpha_hat = 1.0 / b[0] - 1.0
    # Only chains reaching b_3 pass through a step that degenerates at the
    # symmetric point; the b_2 step is regular for every p.
    ill = abs(p_hat - 0.5) < ILL_CONDITION_WINDOW and depth >= 3

    def chain(theta: np.ndarray):
        p_in = float(p) if p is not None else c + float(theta[0])
        return recover_moment_sequence(list(theta[:depth]), c, theta[depth], p_in, depth)

    theta = np.append(mu[1 : depth + 1], b[0])
    rows, max_abs_z = [], 0.0
    notes = (f"estimated p={p_hat:.4f} lies within {ILL_CONDITION_WINDOW} of 1/2; odd-degree "
             "recovery steps are ill-conditioned and z-scores are unreliable") if ill else ""
    try:
        predicted, conditions = chain(theta)
    except ArithmeticError as exc:
        max_abs_z, ill, notes = math.nan, True, f"recovery chain is singular: {exc}"
    else:
        # Delta method: Jacobian of the predicted sequence in (mu_1..mu_depth,
        # b_1).  Each input steps by a part in 10^6 of itself, as the moments
        # fall far below 1 at large alpha; mu_1, which is 0 about the mean,
        # by a part in 10^6 of the spread sqrt(mu_2).
        scale = np.abs(theta)
        scale[0] = math.sqrt(mu[2])
        jac = np.full((depth, depth + 1), np.nan)
        for i, step in enumerate(np.diag(1e-6 * np.where(scale > 0.0, scale, 1.0))):
            try:
                fp, _ = chain(theta + step)
                fm, _ = chain(theta - step)
            except ArithmeticError:
                continue
            jac[:, i] = (np.array(fp) - np.array(fm)) / (2.0 * step[i])

        for k in range(2, depth + 1):
            # d_k = predicted_k - empirical b_k is, to first order, a mean of
            # one statistic per independent side: sum_i jac_i (Z-c)^i, and
            # sum_j g_j W^j re-expanded about W's mean.
            g = jac[k - 1, depth] * np.eye(depth)[0] - np.eye(depth)[k - 1]
            se = math.sqrt(_variance(jac[k - 1, :depth], mu, n_z)
                           + _variance(shift[1:, 1:] @ g, nu, n_w))
            z_score = float(z_scores(predicted[k - 1] - b[k - 1], se))
            max_abs_z = max(max_abs_z, abs(z_score)) if math.isfinite(z_score) else math.inf
            reference = beta_moment(1.0, alpha_hat, k) if alpha_hat > 0 else math.nan
            rows.append(CharacterizationRow(k, float(predicted[k - 1]), float(b[k - 1]),
                                            reference, se, z_score, float(conditions[k - 1])))
    verdict = "degenerate" if ill else "pass" if max_abs_z <= DEFAULT_THRESHOLD else "fail"
    return CharacterizationReport(p_hat, float(alpha_hat), depth, int(n_z), int(n_w), tuple(rows),
                                  max_abs_z, ill, verdict, notes)


def run_characterize(settings: CampaignSettings, depth: int = 6, *, p_known: bool = False):
    """Draw ``settings.n`` pairs (Z, W) of :func:`beta_pairs` at the
    settings' p and alpha, and grade the recovery as ``dpm characterize``
    does.  The pairs are drawn and accumulated shard by shard from the
    substreams of ``RngStream(settings.seed)`` and merged in shard order,
    as a verify campaign's rows are."""
    _check_depth(depth)
    run = _Campaign(_pairs_kernel, dict(p=settings.p, alpha=settings.alpha, depth=depth),
                    settings, RngStream(settings.seed))
    pairs = run.runs({})[0]["pairs"]
    return _grade(_column(pairs, 0), _column(pairs, 1), depth, settings.p if p_known else None)


def characterize_from_samples(z_samples, w_samples, depth: int = 6, *, p: float | None = None):
    """Recover the mixing-weight moments from data and grade the fit.

    Estimates p (unless given) and the central Z-moments about the mean c,
    seeds the chain with the first W-moment, predicts the higher W-moments
    degree by degree, and compares each with its empirical value, with a
    delta-method standard error propagated through the whole chain; the fit
    passes when every |z| is at most :data:`DEFAULT_THRESHOLD`.  The
    ``reference`` column restates the Be(1, alpha_hat) moments implied by
    the first one.  Estimated p within 0.02 of 1/2 makes the odd-degree
    steps (b_3, b_5, ...) ill-conditioned; a chain deep enough to contain
    one is then graded "degenerate" rather than pass/fail.  So is a chain
    with a singular step, which has no rows.  Each side is summarized in
    one accumulator, as :func:`run_characterize` summarizes its shards.
    """
    z, w = (np.asarray(x, dtype=float).ravel() for x in (z_samples, w_samples))
    if z.size < 100 or w.size < 100:
        raise ValueError("need at least 100 samples on each side")
    # NaN fails both comparisons, so it is refused too.
    if not (np.all((z >= 0) & (z <= 1)) and np.all((w >= 0) & (w <= 1))):
        raise ValueError("samples must lie in [0, 1]")
    _check_depth(depth)
    return _grade(_column(_accumulate(z, depth), 0), _column(_accumulate(w, depth), 0), depth, p)
