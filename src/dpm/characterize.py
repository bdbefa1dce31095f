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
from .verify import DEFAULT_THRESHOLD


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


def characterize_from_samples(
    z_samples,
    w_samples,
    depth: int = 6,
    *,
    p: float | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> CharacterizationReport:
    """Recover the mixing-weight moments from data and grade the fit.

    Estimates p and the Z-moments from ``z_samples``, seeds the chain with
    the first empirical W-moment, predicts the higher W-moments degree by
    degree, and compares each prediction against its empirical value with
    a delta-method standard error propagated through the whole chain.
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
    a_full = _empirical_moments(z, 2 * depth)
    b_full = _empirical_moments(w, 2 * depth)
    a = a_full[:depth]
    b = b_full[:depth]
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
        jac = np.full((depth, depth + 1), np.nan)
        for i, step in enumerate(np.diag(1e-6 * np.maximum(1.0, np.abs(theta)))):
            try:
                fp, _ = chain(theta + step)
                fm, _ = chain(theta - step)
            except ArithmeticError:
                continue
            jac[:, i] = (np.array(fp) - np.array(fm)) / (2.0 * step[i])

        # Sampling covariance of the empirical moments (independent sides):
        # entry (i, j) is (m_{i+j+2} - m_{i+1} m_{j+1}) / n.
        power = np.add.outer(np.arange(depth), np.arange(depth)) + 1
        cov_a = (a_full[power] - np.outer(a, a)) / z.size
        cov_b = (b_full[power] - np.outer(b, b)) / w.size

        for k in range(2, depth + 1):
            # d_k = predicted_k(a, b1) - empirical b_k.
            grad_a = jac[k - 1, :depth]
            grad_b = np.zeros(depth)
            grad_b[0] = jac[k - 1, depth]
            grad_b[k - 1] -= 1.0
            var = float(grad_a @ cov_a @ grad_a) + float(grad_b @ cov_b @ grad_b)
            se = math.sqrt(max(var, 0.0))
            diff = predicted[k - 1] - b_full[k - 1]
            # A zero stderr reads z = 0 on no difference and +-inf on any, as in verify.
            z_score = diff / se if se > 0.0 else math.copysign(math.inf, diff) if diff else 0.0
            max_abs_z = max(max_abs_z, abs(z_score)) if math.isfinite(z_score) else math.inf
            rows.append(
                CharacterizationRow(
                    degree=k,
                    predicted=float(predicted[k - 1]),
                    empirical=float(b_full[k - 1]),
                    reference=beta_moment(1.0, alpha_hat, k) if alpha_hat > 0 else math.nan,
                    stderr=se,
                    z=float(z_score),
                    condition=float(conditions[k - 1]),
                )
            )
    verdict = "degenerate" if ill else "pass" if max_abs_z <= threshold else "fail"
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
