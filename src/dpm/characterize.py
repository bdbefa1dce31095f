"""Recovery of the mixing-weight moments from samples, with a graded fit.

The scalar Beta identities pin the moments of the mixing weight W degree
by degree once the moments of Z and the first moment of W are known.
:func:`characterize_from_samples` runs that recovery chain on empirical
moments and grades each predicted moment against its empirical value; the
``dpm characterize`` subcommand is its front end.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .moments import beta_moment, recover_moment_sequence
from .verify import DEFAULT_THRESHOLD, z_scores


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
# `dpm characterize` holds every (Z, W) pair at once, about 30 B a row at
# its peak: this caps that near 0.3 GB.
MAX_CHARACTERIZE_N = 10_000_000
ILL_CONDITION_WINDOW = 0.02


def _empirical_moments(x: np.ndarray, depth: int) -> np.ndarray:
    out = np.empty(depth)
    acc = np.ones_like(x)
    for k in range(depth):
        acc = acc * x
        out[k] = acc.mean()
    return out


def _mean_variance(x: np.ndarray, coef) -> float:
    """The variance of the sample mean of sum_i coef[i] x^(i+1), by Horner's
    rule and centring: never negative, where the quadratic form in the
    moments' covariance cancels to below 0 once x is concentrated.  The
    first value is taken off before the mean, so a constant sample reads 0."""
    acc = np.zeros_like(x)
    for c in coef[::-1]:
        acc += c
        acc *= x
    acc -= acc[0]
    acc -= acc.mean()
    return float(acc @ acc) / x.size**2


def characterize_from_samples(
    z_samples,
    w_samples,
    depth: int = 6,
    *,
    p: float | None = None,
) -> CharacterizationReport:
    """Recover the mixing-weight moments from data and grade the fit.

    Estimates p and the Z-moments from ``z_samples``, seeds the chain with
    the first empirical W-moment, predicts the higher W-moments degree by
    degree, and compares each prediction against its empirical value with
    a delta-method standard error propagated through the whole chain; the
    fit passes when every |z| is at most :data:`DEFAULT_THRESHOLD`.
    The ``reference`` column restates the Be(1, alpha_hat) moments implied
    by the first one.  Estimated p within 0.02 of 1/2 makes the
    odd-degree steps (b_3, b_5, ...) ill-conditioned; a chain deep enough
    to contain one is then graded "degenerate" rather than pass/fail.  So
    is a chain with a singular step, which has no rows.
    """
    z = np.asarray(z_samples, dtype=float).ravel()
    w = np.asarray(w_samples, dtype=float).ravel()
    if z.size < 100 or w.size < 100:
        raise ValueError("need at least 100 samples on each side")
    if np.any((z < 0) | (z > 1)) or np.any((w < 0) | (w > 1)):
        raise ValueError("samples must lie in [0, 1]")
    if not 1 <= depth <= MAX_CHARACTERIZE_DEPTH:
        raise ValueError(f"depth must lie in [1, {MAX_CHARACTERIZE_DEPTH}]")
    a = _empirical_moments(z, depth)
    b = _empirical_moments(w, depth)
    p_hat = float(p) if p is not None else float(a[0])
    b1 = float(b[0])
    alpha_hat = 1.0 / b1 - 1.0
    # Only chains reaching b_3 pass through a step that degenerates at the
    # symmetric point; the b_2 step is regular for every p.
    ill = abs(p_hat - 0.5) < ILL_CONDITION_WINDOW and depth >= 3

    def chain(theta: np.ndarray):
        a_in = theta[:depth]
        b1_in = theta[depth]
        p_in = float(p) if p is not None else float(a_in[0])
        return recover_moment_sequence(list(a_in), b1_in, p_in, depth)

    theta = np.concatenate([a, [b1]])
    rows, max_abs_z = [], 0.0
    notes = (
        f"estimated p={p_hat:.4f} lies within {ILL_CONDITION_WINDOW} of 1/2; "
        "odd-degree recovery steps are ill-conditioned and z-scores are unreliable"
    ) if ill else ""
    try:
        predicted, conditions = chain(theta)
    except ArithmeticError as exc:
        max_abs_z, ill, notes = math.nan, True, f"recovery chain is singular: {exc}"
    else:
        # Delta method: Jacobian of the predicted sequence in (a_1..a_depth, b_1).
        # Each input steps by a part in 10^6 of itself, as the W-moments fall
        # far below 1 at large alpha.
        jac = np.full((depth, depth + 1), np.nan)
        for i, step in enumerate(np.diag(1e-6 * np.where(theta != 0.0, np.abs(theta), 1.0))):
            try:
                fp, _ = chain(theta + step)
                fm, _ = chain(theta - step)
            except ArithmeticError:
                continue
            jac[:, i] = (np.array(fp) - np.array(fm)) / (2.0 * step[i])

        for k in range(2, depth + 1):
            # d_k = predicted_k(a, b1) - empirical b_k is linear in the
            # empirical moments: a mean of one statistic per independent side.
            grad_b = jac[k - 1, depth] * np.eye(depth)[0] - np.eye(depth)[k - 1]
            se = math.sqrt(_mean_variance(z, jac[k - 1, :depth]) + _mean_variance(w, grad_b))
            z_score = float(z_scores(predicted[k - 1] - b[k - 1], se))
            max_abs_z = max(max_abs_z, abs(z_score)) if math.isfinite(z_score) else math.inf
            rows.append(
                CharacterizationRow(
                    degree=k,
                    predicted=float(predicted[k - 1]),
                    empirical=float(b[k - 1]),
                    reference=beta_moment(1.0, alpha_hat, k) if alpha_hat > 0 else math.nan,
                    stderr=se,
                    z=z_score,
                    condition=float(conditions[k - 1]),
                )
            )
    verdict = "degenerate" if ill else "pass" if max_abs_z <= DEFAULT_THRESHOLD else "fail"
    return CharacterizationReport(
        p_hat=p_hat,
        alpha_hat=alpha_hat,
        depth=depth,
        n_z=int(z.size),
        n_w=int(w.size),
        rows=tuple(rows),
        max_abs_z=max_abs_z,
        ill_conditioned=ill,
        verdict=verdict,
        notes=notes,
    )
