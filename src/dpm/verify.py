"""Monte Carlo verification campaigns for the size-biased mixing identities.

Each campaign samples a random probability measure (or the scalar pair
(Z, W) for the one-dimensional identities) many times, evaluates both
sides of an integral identity on a family of polynomial test functions,
and turns each test into a :class:`TestReport` carrying a z-score computed
from the paired, common-random-number variance of the two sides.  KS-type
tests report the statistic and its asymptotic p-value instead.

Every campaign has one shape.  A batch kernel turns one chunk of rows
into named statistics: paired (lhs, rhs) columns, (x, y) covariance
columns, or sample arrays for the KS tests.  Each pair of columns is
summarized by a mergeable :class:`Moments` accumulator (count, means and
centered power sums), and one builder, :meth:`_Campaign.reports`, turns merged
statistics into reports.  Campaigns are cut into fixed-size shards, each
driven by its own named RNG substream; chunk and shard statistics are
merged in order, so reports are bitwise independent of how many worker
processes ran them.  Every campaign also runs documented negative
controls -- a wrong mixing law, a wrong constant, a non-conforming weight
sequence -- whose reports are marked ``expected_failure`` and must come
back with a ``fail`` verdict for the campaign to count as OK.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import Callable, NamedTuple

import numpy as np

from .measures import BaseModel, Block, Partition, block_probabilities
from .moments import dirichlet_mixed_moment, multi_indices, quadratic_weight_c
from .samplers import (
    RngStream,
    beta_pairs,
    block_projection,
    draw_blocks,
    gamma_projection_chunk,
    stick_ensemble_chunk,
    stick_projection_chunk,
)
from .stats import ks_test, ks_two_sample, two_sided_p

DEFAULT_THRESHOLD = 4.0
DEFAULT_P_FLOOR = 1e-3
DEFAULT_N = 200_000
SHARD_SIZE = 125_000
_CHUNK_ROWS = 25_000
_ENSEMBLE_CHUNK_ROWS = 10_000
_CONTROL_STREAM_OFFSET = 50_000


# ---------------------------------------------------------------------------
# report type


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical test inside a campaign.

    ``kind`` is "z" for paired or one-sample z-tests, "ks" for
    Kolmogorov-Smirnov tests, "cov" for covariance-based independence
    checks, "control" for an aggregated negative control and "probe" for
    informational runs that record data without asserting anything.  The
    verdict is literal: it states whether the statistic cleared the
    threshold, regardless of whether failure was the expected outcome;
    :meth:`ok` folds ``expected_failure`` in.
    """

    name: str
    kind: str
    statistic: float
    p_value: float
    lhs: float
    rhs: float
    stderr: float
    n_samples: int
    seed: int
    verdict: str
    expected_failure: bool = False
    notes: str = ""

    def ok(self) -> bool:
        if self.kind == "probe":
            return True
        if self.expected_failure:
            return self.verdict == "fail"
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        # Plain Python scalars: numpy floats subclass float for JSON, but
        # their repr differs, which would leak into the CSV view.
        return {
            "name": self.name,
            "kind": self.kind,
            "statistic": float(self.statistic),
            "p_value": float(self.p_value),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "stderr": float(self.stderr),
            "n_samples": int(self.n_samples),
            "seed": int(self.seed),
            "verdict": self.verdict,
            "expected_failure": bool(self.expected_failure),
            "notes": self.notes,
        }


def campaign_ok(reports) -> bool:
    """Whether every report came out as its campaign expects."""
    return all(r.ok() for r in reports)


# ---------------------------------------------------------------------------
# mergeable accumulator


class Estimate(NamedTuple):
    """Columnwise lhs, rhs, estimated difference and its standard error."""

    lhs: np.ndarray
    rhs: np.ndarray
    diff: np.ndarray
    se: np.ndarray
    n: int


@dataclass(frozen=True)
class Moments:
    """Count, means and centered power sums of k columns of (x, y) pairs.

    ``mean`` has shape (2, k): the means of x and of y.  ``sums[a, b]``
    holds S_ab = sum (x - mean_x)^a (y - mean_y)^b for every a, b up to
    the accumulator's order, with S_00 = n and S_10 = S_01 = 0.  Order
    (2, 0) is enough for z-tests on x; the covariance tests read S_11 and
    S_22 and need order (2, 2).  Accumulating centered sums avoids the
    cancellation of raw power sums when |mean| is large against the
    spread.
    """

    n: int
    mean: np.ndarray
    sums: np.ndarray

    @classmethod
    def of(cls, x, y, order=(2, 0)) -> "Moments":
        """Moments of one batch; x is (k, m) or (m,), y broadcasts against it.

        A y that is constant along the rows, shape (k, 1) or a scalar,
        keeps its exact value as its mean.
        """
        x = np.atleast_2d(x)
        y = np.atleast_2d(y)
        k, m = x.shape
        mean = np.stack([x.mean(axis=-1), np.broadcast_to(y.mean(axis=-1), (k,))])
        dx = x - mean[0][:, None]
        dy = y - mean[1][:, None] if order[1] else None
        sums = np.zeros((order[0] + 1, order[1] + 1, k))
        sums[0, 0] = m
        for a, b in _cells(sums.shape):
            # One fused product-sum over a factors dx and b factors dy.
            sums[a, b] = np.einsum(",".join(["ij"] * (a + b)) + "->i", *[dx] * a, *[dy] * b)
        return cls(m, mean, sums)

    def merge(self, other: "Moments") -> "Moments":
        """Moments of both batches, by shifting each batch's sums to the
        combined mean with the binomial formula (Chan, Golub & LeVeque
        1979; Pebay 2008, SAND2008-6212)."""
        n = self.n + other.n
        delta = other.mean - self.mean
        shifts = ((self, -delta * (other.n / n)), (other, delta * (self.n / n)))
        sums = np.zeros_like(self.sums)
        sums[0, 0] = n
        for a, b in _cells(self.sums.shape):
            for part, (dx, dy) in shifts:
                for i in range(a + 1):
                    for j in range(b + 1):
                        # S_10 and S_01 are zero.
                        if (a - i) + (b - j) != 1:
                            term = part.sums[a - i, b - j] * dx**i * dy**j
                            sums[a, b] += math.comb(a, i) * math.comb(b, j) * term
        return Moments(n, self.mean + delta * (other.n / n), sums)

    @staticmethod
    def stack(parts) -> "Moments":
        """The columns of accumulators over the same rows, side by side."""
        mean = np.concatenate([part.mean for part in parts], axis=-1)
        return Moments(parts[0].n, mean, np.concatenate([part.sums for part in parts], axis=-1))

    def paired(self) -> Estimate:
        """Read-out of a paired statistic accumulated by :func:`_pair`."""
        se = np.sqrt(self.sums[2, 0] / (self.n - 1) / self.n)
        return Estimate(self.mean[0] + self.mean[1], self.mean[1], self.mean[0], se, self.n)

    def covariance(self) -> Estimate:
        """Sample covariance of x and y with its delta-method standard error."""
        cov = self.sums[1, 1] / self.n
        var_cov = np.maximum(self.sums[2, 2] / self.n - cov * cov, 0.0) / self.n
        return Estimate(cov, np.zeros_like(cov), cov, np.sqrt(var_cov), self.n)


def _cells(shape):
    """Indices (a, b) of the centered sums of total order at least 2."""
    return [(a, b) for a in range(shape[0]) for b in range(shape[1]) if a + b >= 2]


def _pair(lhs, rhs) -> Moments:
    """A paired statistic: the moments of lhs - rhs, with the mean of rhs
    carried along.  A constant rhs (a target moment) stays exact."""
    return Moments.of(lhs - rhs, rhs)


def _cov(x, y) -> Moments:
    return Moments.of(x, y, order=(2, 2))


def _two_sample(a: Moments, b: Moments) -> Estimate:
    """Difference of the x-means of two independent paired statistics."""
    lhs, rhs = a.paired().lhs, b.paired().lhs
    se = np.sqrt(a.sums[2, 0] / (a.n - 1) / a.n + b.sums[2, 0] / (b.n - 1) / b.n)
    return Estimate(lhs, rhs, lhs - rhs, se, a.n + b.n)


# ---------------------------------------------------------------------------
# campaign shape and report builder


def _shard_sizes(n: int):
    if n < 2:
        raise ValueError(f"campaign needs at least 2 samples, got {n}")
    full, rem = divmod(int(n), SHARD_SIZE)
    if full + (rem > 0) > _CONTROL_STREAM_OFFSET:
        # Shard k draws from substream base + k and control j from base +
        # j * _CONTROL_STREAM_OFFSET; more shards would reuse a control's
        # random numbers.
        raise ValueError(
            f"n={n} needs more than {_CONTROL_STREAM_OFFSET} shards of {SHARD_SIZE} samples; "
            f"at most {SHARD_SIZE * _CONTROL_STREAM_OFFSET} samples are supported"
        )
    return [SHARD_SIZE] * full + ([rem] if rem else [])


def _combine(parts) -> dict:
    """Merge per-chunk or per-shard statistics in order: accumulators
    merge, sample arrays concatenate."""
    out = {}
    for key in parts[0]:
        vals = [part[key] for part in parts]
        if isinstance(vals[0], Moments):
            out[key] = reduce(Moments.merge, vals)
        else:
            out[key] = np.concatenate(vals)
    return out


def _shard(task) -> dict:
    kernel, rows, size, seed, stream = task
    gen = RngStream(seed, stream).gen
    return _combine([kernel(min(rows, size - lo), gen) for lo in range(0, size, rows)])


@dataclass(frozen=True)
class _Campaign:
    """A batch kernel with its parameters, and where and how to run it.

    ``kernel(m, gen, **params)`` turns m rows drawn from ``gen`` into
    named statistics: :class:`Moments` built by :func:`_pair` or
    :func:`_cov`, or sample arrays.  A campaign's main paired statistic is
    named "identity"; its negative controls rerun it with changed
    parameters on their own substreams.
    """

    kernel: Callable[..., dict]
    params: dict
    n: int
    rng: RngStream
    jobs: int = 1
    threshold: float = DEFAULT_THRESHOLD
    rows: int = _CHUNK_ROWS

    def run(self, offset: int = 0, **changes) -> dict:
        """The kernel's statistics over n rows, with shard k drawn from
        substream stream_id + offset + k and shards merged in order."""
        kernel = partial(self.kernel, **{**self.params, **changes})
        stream = self.rng.stream_id + offset
        tasks = [
            (kernel, self.rows, size, self.rng.seed, stream + k)
            for k, size in enumerate(_shard_sizes(self.n))
        ]
        if self.jobs > 1 and len(tasks) > 1:
            with multiprocessing.Pool(min(self.jobs, len(tasks))) as pool:
                parts = pool.map(_shard, tasks)
        else:
            parts = [_shard(t) for t in tasks]
        return _combine(parts)

    def reports(
        self,
        names,
        est: Estimate,
        *,
        kind: str = "z",
        ks: tuple[float, float] | None = None,
        expected_failure: bool = False,
        notes: str = "",
    ) -> list[TestReport]:
        """The report builder: one report per column of ``est``.

        A z-type report grades z = diff / se against the threshold; se == 0
        gives z = 0 when diff is 0 as well and z = inf otherwise.  With
        ``ks`` = (D, p) the report is a KS test, graded by p >=
        DEFAULT_P_FLOOR.  "probe" reports always carry the verdict
        "degenerate".
        """
        out = []
        for i, name in enumerate(names):
            if ks is None:
                diff, se = est.diff[i], est.se[i]
                stat = diff / se if se != 0.0 else (0.0 if diff == 0.0 else math.inf)
                p = two_sided_p(stat) if math.isfinite(stat) else 0.0
                if math.isnan(stat):
                    verdict = "degenerate"
                else:
                    verdict = "pass" if abs(stat) <= self.threshold else "fail"
            else:
                stat, p = ks
                verdict = "pass" if p >= DEFAULT_P_FLOOR else "fail"
            out.append(
                TestReport(
                    name=name,
                    kind=kind,
                    statistic=stat,
                    p_value=p,
                    lhs=est.lhs[i],
                    rhs=est.rhs[i],
                    stderr=est.se[i],
                    n_samples=est.n,
                    seed=self.rng.seed,
                    verdict="degenerate" if kind == "probe" else verdict,
                    expected_failure=expected_failure,
                    notes=notes,
                )
            )
        return out

    def control(self, name: str, names, offset: int, notes: str, **changes) -> TestReport:
        """Rerun the "identity" statistic with ``changes`` and keep its
        worst z-test; the control must reject."""
        est = self.run(offset, **changes)["identity"].paired()
        worst = max(self.reports(names, est), key=lambda r: abs(r.statistic))
        return replace(
            worst,
            name=name,
            kind="control",
            verdict="fail" if abs(worst.statistic) > self.threshold else "pass",
            expected_failure=True,
            notes=f"{notes}; worst sub-test {worst.name}",
        )


def _ks_estimate(n: int, lhs: float, rhs: float = 0.0) -> Estimate:
    """The one column a KS report shows; it carries no standard error."""
    return Estimate([lhs], [rhs], [0.0], [0.0], n)


# ---------------------------------------------------------------------------
# mixing laws and test functions


@dataclass(frozen=True)
class MixingLaw:
    """Law of the mixing weight W: Be(1, alpha) or a point mass."""

    kind: str = "beta"
    alpha: float | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "beta":
            if self.alpha is None or not self.alpha > 0.0:
                raise ValueError("beta mixing needs alpha > 0")
        elif self.kind == "point":
            if self.value is None or not 0.0 < self.value <= 1.0:
                raise ValueError("point mixing needs a value in (0, 1]")
        else:
            raise ValueError(f"unknown mixing kind {self.kind!r}")

    def draw(self, gen: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "beta":
            return gen.beta(1.0, self.alpha, size=size)
        return np.full(size, self.value)

    def label(self) -> str:
        if self.kind == "beta":
            return f"Be(1,{self.alpha:g})"
        return f"delta({self.value:g})"


def _exponents(n_blocks: int, max_degree: int, min_degree: int = 1):
    """Exponent multi-indices of the monomial test functions, by degree."""
    return tuple(
        tuple(ks)
        for degree in range(min_degree, max_degree + 1)
        for ks in multi_indices(n_blocks, degree)
    )


def _monomial_name(ks) -> str:
    return "*".join(f"Z{j}^{k}" for j, k in enumerate(ks) if k > 0) or "1"


def _monomials(cols: np.ndarray, exponents) -> np.ndarray:
    """prod_j cols[:, j]**ks[j] for every multi-index ks, shape (len(exponents), m)."""
    kmax = max(sum(ks) for ks in exponents)
    powers = []
    for j in range(cols.shape[1]):
        pows = [np.ones_like(cols[:, j])]
        for _ in range(kmax):
            pows.append(pows[-1] * cols[:, j])
        powers.append(pows)
    out = np.empty((len(exponents), cols.shape[0]))
    for t, ks in enumerate(exponents):
        term = None
        for j, k in enumerate(ks):
            if k > 0:
                term = powers[j][k] if term is None else term * powers[j][k]
        out[t] = 1.0 if term is None else term
    return out


def default_partition(model: BaseModel, max_blocks: int = 4) -> Partition:
    """A small default partition adapted to the model's support."""
    reserve = 1 if model.diffuse_weight > 0.0 else 0
    n = model.n_atoms
    blocks: list[Block] = []
    if n > 0:
        avail = max_blocks - reserve
        if n <= avail:
            blocks = [Block(atoms=frozenset([i])) for i in range(n)]
        else:
            blocks = [Block(atoms=frozenset([i])) for i in range(avail - 1)]
            blocks.append(Block(atoms=frozenset(range(avail - 1, n))))
    if model.diffuse_weight > 0.0:
        if n > 0:
            blocks.append(Block(intervals=((0.0, 1.0),)))
        else:
            blocks = [
                Block(intervals=((0.0, 0.2),)),
                Block(intervals=((0.2, 0.5),)),
                Block(intervals=((0.5, 1.0),)),
            ]
    return Partition(tuple(blocks))


# ---------------------------------------------------------------------------
# projection-identity campaigns (weighted and unweighted)


def _projections(construction, alpha, probs, m, gen, trunc_eps, jump_eps):
    """Block projections of m measures, with their unnormalized totals
    under the jump construction (None otherwise)."""
    if construction == "stick":
        return stick_projection_chunk(alpha, probs, m, gen, trunc_eps=trunc_eps), None
    if construction == "gamma":
        proj, totals, _ = gamma_projection_chunk(alpha, probs, m, gen, trunc_eps=jump_eps)
        return proj, totals
    if construction == "iid":
        # Degenerate single-atom measure at one base draw; a negative
        # control, not a sampler of the target law.
        return block_projection(np.ones((m, 1)), draw_blocks(probs, gen, (m, 1)), len(probs)), None
    raise ValueError(f"unknown construction {construction!r}")


def _mix_kernel(
    m, gen, *, alpha, probs, construction, trunc_eps, jump_eps, mixing, exponents, weighted
) -> dict:
    proj, _ = _projections(construction, alpha, probs, m, gen, trunc_eps, jump_eps)
    u = mixing.draw(gen, m)
    xblk = draw_blocks(probs, gen, m)
    mixed = (1.0 - u)[:, None] * proj
    mixed[np.arange(m), xblk] += u
    # Weighted, f(zeta, x) = g(proj) h(x) for every monomial g and block
    # indicator h: the lhs integrates h against zeta, the rhs reads it at
    # the fresh mark.  One batch per g keeps the temporaries small.
    if weighted:
        h_lhs, h_rhs = np.ascontiguousarray(proj.T), xblk == np.arange(len(probs))[:, None]
    else:
        h_lhs = h_rhs = 1.0
    pairs = zip(_monomials(proj, exponents), _monomials(mixed, exponents))
    return {"identity": Moments.stack([_pair(g1 * h_lhs, g2 * h_rhs) for g1, g2 in pairs])}


def _mix_params(model, construction, trunc_eps, jump_eps) -> dict:
    """Kernel parameters shared by the mecke and sethuraman campaigns."""
    return dict(
        alpha=model.alpha,
        probs=tuple(block_probabilities(model, default_partition(model))),
        construction=construction,
        trunc_eps=trunc_eps,
        jump_eps=jump_eps,
        mixing=MixingLaw("beta", alpha=model.alpha),
    )


def verify_mecke(
    model: BaseModel,
    n: int = DEFAULT_N,
    rng: RngStream | None = None,
    *,
    construction: str = "stick",
    threshold: float = DEFAULT_THRESHOLD,
    jobs: int = 1,
    trunc_eps: float = 1e-12,
    jump_eps: float = 1e-8,
    negative_controls: bool = True,
) -> list[TestReport]:
    """Check the defining integral identity on a polynomial family.

    For each f(zeta, x) = g(proj(zeta)) h(x), with g a monomial of degree
    at most 2 and h a block indicator, compares the sample mean of the
    measure-weighted side  g(proj) * sum_j proj_j h_j  against
    g(proj') h(X) where proj' mixes the projection with a fresh base mark
    X by a Be(1, alpha) weight.  Negative controls rerun the family with a
    point-mass mixing law of the correct mean, and with a single-atom
    construction in place of the target sampler; both must fail.
    """
    params = _mix_params(model, construction, trunc_eps, jump_eps)
    nb = len(params["probs"])
    exponents = _exponents(nb, 2, min_degree=0)
    params.update(exponents=exponents, weighted=True)
    c = _Campaign(_mix_kernel, params, n, rng or RngStream(0), jobs, threshold)
    names = [f"mecke[g={_monomial_name(ks)},h=B{j}]" for ks in exponents for j in range(nb)]
    reports = c.reports(names, c.run()["identity"].paired())
    if negative_controls:
        point = MixingLaw("point", value=1.0 / (model.alpha + 1.0))
        label = c.params["mixing"].label()
        notes = f"mixing law {point.label()} matches the mean of {label} but not its spread"
        name = "mecke:control:point-mass-mixing"
        reports.append(c.control(name, names, _CONTROL_STREAM_OFFSET, notes, mixing=point))
        notes = "input measure replaced by a Dirac at one base draw"
        name = "mecke:control:single-atom-input"
        offset = 2 * _CONTROL_STREAM_OFFSET
        reports.append(c.control(name, names, offset, notes, construction="iid"))
    return reports


def verify_sethuraman(
    model: BaseModel,
    n: int = DEFAULT_N,
    rng: RngStream | None = None,
    *,
    construction: str = "stick",
    threshold: float = DEFAULT_THRESHOLD,
    jobs: int = 1,
    trunc_eps: float = 1e-12,
    jump_eps: float = 1e-8,
    negative_controls: bool = True,
) -> list[TestReport]:
    """Check the distributional fixed point under Dirac mixing.

    Compares E f(zeta) against E f((1-W)zeta + W delta_X) for monomial f
    of the projections up to degree 3, W ~ Be(1, alpha), X a fresh base
    draw.  The negative control reruns the family with a mixing law of the
    wrong shape; degree >= 2 tests must fail.
    """
    params = _mix_params(model, construction, trunc_eps, jump_eps)
    exponents = _exponents(len(params["probs"]), 3)
    params.update(exponents=exponents, weighted=False)
    c = _Campaign(_mix_kernel, params, n, rng or RngStream(0), jobs, threshold)
    names = [f"sethuraman[g={_monomial_name(ks)}]" for ks in exponents]
    reports = c.reports(names, c.run()["identity"].paired())
    if negative_controls:
        wrong = MixingLaw("beta", alpha=model.alpha + 2.0)
        notes = f"mixing law {wrong.label()} instead of Be(1,{model.alpha:g})"
        name = "sethuraman:control:wrong-mixing-shape"
        reports.append(c.control(name, names, _CONTROL_STREAM_OFFSET, notes, mixing=wrong))
    return reports


# ---------------------------------------------------------------------------
# scalar Beta identity campaigns

_TBETA_DEGREE = 6
_TBETA2_DEGREE = 4


def _check_p_alpha(p: float, alpha: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")


def _tbeta_kernel(m, gen, *, p, alpha, p_used) -> dict:
    z, w = beta_pairs(p, alpha, m, gen)
    mixed = (1.0 - w) * z + w
    shrunk = (1.0 - w) * z
    zk = mk = sk = np.ones_like(z)
    pick, rest = [], []
    for _ in range(_TBETA_DEGREE + 1):
        pick.append(_pair(zk * z, p_used * mk))
        rest.append(_pair(zk * (1.0 - z), (1.0 - p_used) * sk))
        zk = zk * z
        mk = mk * mixed
        sk = sk * shrunk
    return {"identity": Moments.stack(pick + rest)}


def verify_beta_sizebias(
    p: float,
    alpha: float,
    n: int = DEFAULT_N,
    rng: RngStream | None = None,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    jobs: int = 1,
    negative_controls: bool = True,
) -> list[TestReport]:
    """Check the paired size-biased moment equations for the Beta family.

    For Z ~ Be(p*alpha, (1-p)*alpha) and W ~ Be(1, alpha) independent, and
    g = x^k up to k = 6, tests
        E g(Z) Z       = p     E g((1-W)Z + W)      (the picked branch)
        E g(Z) (1 - Z) = (1-p) E g((1-W)Z)          (the complement).
    The k = 0 picked test is the normalization E Z = p.  The negative
    control reruns the family with p shifted by 0.15; it must fail.
    """
    _check_p_alpha(p, alpha)
    params = dict(p=p, alpha=alpha, p_used=p)
    c = _Campaign(_tbeta_kernel, params, n, rng or RngStream(0), jobs, threshold)
    branches = ("pick", "rest")
    names = [f"tbeta:{b}[g=x^{k}]" for b in branches for k in range(_TBETA_DEGREE + 1)]
    reports = c.reports(names, c.run()["identity"].paired())
    if negative_controls:
        p_wrong = p + 0.15 if p + 0.15 < 1.0 else p - 0.15
        notes = f"identities evaluated with p={p_wrong:g} against data at p={p:g}"
        name = "tbeta:control:wrong-p"
        reports.append(c.control(name, names, _CONTROL_STREAM_OFFSET, notes, p_used=p_wrong))
    return reports


def _tbeta2_kernel(m, gen, *, p, alpha, c_used) -> dict:
    z, w = beta_pairs(p, alpha, m, gen)
    mixed = (1.0 - w) * z + w
    zk = mk = np.ones_like(z)
    quadratic = []
    for _ in range(_TBETA2_DEGREE + 1):
        quadratic.append(_pair(zk * z * z, c_used * mk * w))
        zk = zk * z
        mk = mk * mixed
    ratio = w / mixed
    ratio2 = ratio * ratio
    mixed2 = mixed * mixed
    return {
        "identity": Moments.stack(quadratic),
        "indep": _cov(np.array([ratio, ratio, ratio2, ratio2]), np.array([mixed, mixed2] * 2)),
    }


def verify_beta_general(
    p: float,
    alpha: float,
    n: int = DEFAULT_N,
    rng: RngStream | None = None,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    jobs: int = 1,
    negative_controls: bool = True,
) -> list[TestReport]:
    """Check the quadratic mixing identity and its independence corollary.

    Tests E g(Z) Z^2 = c E g((1-W)Z + W) W with c = p(alpha p + 1) for
    monomial g up to degree 4, and that the ratio W/(Z + W - WZ) is
    uncorrelated with Z + W - WZ through first and second powers of each.
    The negative control reruns the identity with c + 0.1 and must fail.
    """
    _check_p_alpha(p, alpha)
    const = quadratic_weight_c(p, alpha)
    params = dict(p=p, alpha=alpha, c_used=const)
    c = _Campaign(_tbeta2_kernel, params, n, rng or RngStream(0), jobs, threshold)
    stats = c.run()
    names = [f"tbeta2:quadratic[g=x^{k}]" for k in range(_TBETA2_DEGREE + 1)]
    reports = c.reports(names, stats["identity"].paired(), notes=f"c={const:.12g}")
    pairs = ("ratio,sum", "ratio,sum^2", "ratio^2,sum", "ratio^2,sum^2")
    reports += c.reports(
        [f"tbeta2:indep[{pair}]" for pair in pairs],
        stats["indep"].covariance(),
        kind="cov",
        notes="ratio = W/(Z+W-WZ), sum = Z+W-WZ",
    )
    if negative_controls:
        notes = f"constant c shifted to {const + 0.1:.12g}"
        offset = _CONTROL_STREAM_OFFSET
        reports.append(c.control("tbeta2:control:wrong-c", names, offset, notes, c_used=const + 0.1))
    return reports


# ---------------------------------------------------------------------------
# size-biased pick-and-remove invariance


def _removal_kernel(m, gen, *, alpha, probs, trunc_eps, exponents) -> dict:
    nb = len(probs)
    weights, marks = stick_ensemble_chunk(alpha, probs, m, gen, trunc_eps=trunc_eps)
    rows = np.arange(m)
    proj = block_projection(weights, marks, nb)
    cum = np.cumsum(weights, axis=1)
    u = gen.random(m)
    kappa = np.minimum((cum < u[:, None]).sum(axis=1), weights.shape[1] - 1)
    w_k = weights[rows, kappa]
    b_k = marks[rows, kappa]
    removed = proj.copy()
    removed[rows, b_k] -= w_k
    removed /= np.maximum(1.0 - w_k, 1e-300)[:, None]
    # Per block j: (removed proj_j, weight), (removed proj_j, pick in j),
    # (weight, pick in j).
    in_j = (b_k == np.arange(nb)[:, None]).astype(float)
    w_j = np.broadcast_to(w_k, (nb, m))
    x = np.stack([removed.T, removed.T, w_j], axis=1).reshape(3 * nb, m)
    y = np.stack([w_j, in_j, in_j], axis=1).reshape(3 * nb, m)
    return {
        "identity": _pair(_monomials(removed, exponents), _monomials(proj, exponents)),
        "indep": _cov(x, y),
        "weight": w_k,
    }


def verify_sizebias_invariance(
    alpha: float,
    n: int = DEFAULT_N,
    rng: RngStream | None = None,
    *,
    base: BaseModel | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    jobs: int = 1,
    trunc_eps: float = 1e-12,
    negative_controls: bool = True,
) -> list[TestReport]:
    """Check invariance under removal of a size-biased pick.

    Requires a diffuse base (marks almost surely distinct); picking an
    atom tau with probability its weight and removing it with
    renormalization must leave the law of the projections on [0, 0.2),
    [0.2, 0.5), [0.5, 1] unchanged (monomials up to degree 3), the removed
    weight must follow Be(1, alpha), and removed measure, removed weight
    and pick location must be pairwise uncorrelated.  The negative control
    tests the removed weight against a deliberately wrong shape.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    base = base or BaseModel(alpha=alpha, atom_probs=(), diffuse_weight=1.0)
    if base.diffuse_weight != 1.0:
        raise ValueError(
            "size-biased removal invariance requires a diffuse base measure; "
            f"got atoms with total weight {sum(base.atom_probs):g}"
        )
    if base.alpha != alpha:
        raise ValueError("base model alpha does not match campaign alpha")
    probs = tuple(block_probabilities(base, Partition.of_interval_bounds((0.0, 0.2, 0.5, 1.0))))
    exponents = _exponents(len(probs), 3)
    params = dict(alpha=alpha, probs=probs, trunc_eps=trunc_eps, exponents=exponents)
    rng = rng or RngStream(0)
    c = _Campaign(_removal_kernel, params, n, rng, jobs, threshold, _ENSEMBLE_CHUNK_ROWS)
    stats = c.run()
    reports = c.reports(
        [f"sizebias:moment[{_monomial_name(ks)}]" for ks in exponents],
        stats["identity"].paired(),
        notes="lhs = after removal, rhs = before",
    )
    w = stats["weight"]
    stat, p = ks_test(w, lambda x: 1.0 - (1.0 - x) ** alpha)
    reports += c.reports(
        ["sizebias:picked-weight-law"],
        _ks_estimate(len(w), stat),
        kind="ks",
        ks=(stat, p),
        notes=f"picked weight against Be(1,{alpha:g})",
    )
    pairs = ("removed-proj{j},weight", "removed-proj{j},pick-block{j}", "weight,pick-block{j}")
    names = [f"sizebias:indep[{pair.format(j=j)}]" for j in range(len(probs)) for pair in pairs]
    reports += c.reports(names, stats["indep"].covariance(), kind="cov")
    if negative_controls:
        wrong = alpha + 1.5
        stat, p = ks_test(w, lambda x: 1.0 - (1.0 - x) ** wrong)
        reports += c.reports(
            ["sizebias:control:wrong-weight-shape"],
            _ks_estimate(len(w), stat),
            kind="control",
            ks=(stat, p),
            expected_failure=True,
            notes=f"picked weight against Be(1,{wrong:g}) must be rejected",
        )
    return reports


# ---------------------------------------------------------------------------
# sequence-level invariance: GEM weights with i.i.d. marks


def _marked_kernel(m, gen, *, alpha, probs, trunc_eps, exponents, targets, geometric) -> dict:
    out = {}
    if geometric:
        # Negative control: deterministic weights (1 - r) r^i with r = 0.9,
        # renormalized, and i.i.d. marks.
        r = 0.9
        k_fix = max(64, int(math.log(1e-12) / math.log(r)) + 1)
        fixed = (1.0 - r) * r ** np.arange(k_fix)
        fixed /= fixed.sum()
        weights = np.broadcast_to(fixed, (m, len(fixed)))
        marks = draw_blocks(probs, gen, (m, len(fixed)))
    else:
        weights, marks = stick_ensemble_chunk(alpha, probs, m, gen, trunc_eps=trunc_eps)
        out["largest"] = weights.max(axis=1)
    proj = block_projection(weights, marks, len(probs))
    out["identity"] = _pair(_monomials(proj, exponents), np.array(targets)[:, None])
    return out


def _largest_jump_kernel(m, gen, *, alpha, probs, jump_eps) -> dict:
    return {"largest": gamma_projection_chunk(alpha, probs, m, gen, trunc_eps=jump_eps)[2]}


def verify_marked_sizebias(
    alpha: float,
    n: int = DEFAULT_N,
    rng: RngStream | None = None,
    *,
    nu_prime: tuple[float, ...] = (0.25, 0.75),
    threshold: float = DEFAULT_THRESHOLD,
    jobs: int = 1,
    trunc_eps: float = 1e-12,
    jump_eps: float = 1e-8,
    negative_controls: bool = True,
) -> list[TestReport]:
    """Check the sequence-level characterization of stick weights.

    Pairs stick-breaking (GEM) weights with i.i.d. marks over the atom
    probabilities ``nu_prime`` and tests the projections against the exact
    mixed moments of the Dirichlet law (monomials up to degree 3), and the
    largest weight against the jump-construction path via a two-sample KS
    test (the ranked weight sets share one law, so their maxima do too).
    The negative control replaces the weights by a deterministic geometric
    sequence with the same marks; its degree-2 and degree-3 moments must
    fail.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if abs(sum(nu_prime) - 1.0) > 1e-9 or any(q <= 0.0 for q in nu_prime):
        raise ValueError("nu_prime must be positive probabilities summing to one")
    rng = rng or RngStream(0)
    probs = tuple(float(q) for q in nu_prime)

    def moments(min_degree):
        exponents = _exponents(len(probs), 3, min_degree)
        targets = tuple(dirichlet_mixed_moment([alpha * q for q in probs], ks) for ks in exponents)
        names = [f"thm52:moment[{_monomial_name(ks)}]" for ks in exponents]
        return names, dict(exponents=exponents, targets=targets)

    names, family = moments(1)
    params = dict(alpha=alpha, probs=probs, trunc_eps=trunc_eps, geometric=False, **family)
    c = _Campaign(_marked_kernel, params, n, rng, jobs, threshold, _ENSEMBLE_CHUNK_ROWS)
    gem = c.run()
    reports = c.reports(names, gem["identity"].paired())
    params = dict(alpha=alpha, probs=probs, jump_eps=jump_eps)
    pd = _Campaign(_largest_jump_kernel, params, n, rng, jobs, threshold, _ENSEMBLE_CHUNK_ROWS)
    jumps = pd.run(3 * _CONTROL_STREAM_OFFSET)
    a, b = gem["largest"], jumps["largest"]
    reports += c.reports(
        ["thm52:largest-weight-paths"],
        _ks_estimate(len(a) + len(b), float(np.mean(a)), float(np.mean(b))),
        kind="ks",
        ks=ks_two_sample(a, b),
        notes="largest stick weight vs largest normalized jump",
    )
    if negative_controls:
        names, family = moments(2)
        notes = "deterministic geometric weights (ratio 0.9) with i.i.d. marks"
        name = "thm52:control:geometric-weights"
        offset = _CONTROL_STREAM_OFFSET
        reports.append(c.control(name, names, offset, notes, geometric=True, **family))
    return reports


# ---------------------------------------------------------------------------
# construction equivalence


def _equivalence_kernel(
    m, gen, *, alpha, probs, construction, trunc_eps, jump_eps, exponents
) -> dict:
    proj, totals = _projections(construction, alpha, probs, m, gen, trunc_eps, jump_eps)
    out = {"identity": _pair(_monomials(proj, exponents), 0.0)}
    if totals is not None:
        out.update(total=_pair(totals, alpha), indep=_cov(proj.T, totals))
    return out


def verify_construction_equivalence(
    model: BaseModel,
    n: int = DEFAULT_N,
    rng: RngStream | None = None,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    jobs: int = 1,
    trunc_eps: float = 1e-12,
    jump_eps: float = 1e-8,
) -> list[TestReport]:
    """Compare the stick and jump constructions of the same law.

    Two-sample z-tests on every projection monomial up to degree 3, a
    one-sample z-test of the unnormalized total mass against its mean
    alpha, and covariance checks that the normalized projections are
    uncorrelated with the total.
    """
    probs = tuple(block_probabilities(model, default_partition(model)))
    exponents = _exponents(len(probs), 3)
    params = dict(
        alpha=model.alpha, probs=probs, trunc_eps=trunc_eps, jump_eps=jump_eps, exponents=exponents
    )
    c = _Campaign(_equivalence_kernel, params, n, rng or RngStream(0), jobs, threshold)
    stick = c.run(construction="stick")
    gamma = c.run(_CONTROL_STREAM_OFFSET, construction="gamma")
    reports = c.reports(
        [f"construction:moment[{_monomial_name(ks)}]" for ks in exponents],
        _two_sample(stick["identity"], gamma["identity"]),
        notes="stick vs jump construction",
    )
    reports += c.reports(
        ["construction:total-mass-mean"],
        gamma["total"].paired(),
        notes="unnormalized jump total against alpha",
    )
    reports += c.reports(
        [f"construction:indep[proj{j},total]" for j in range(len(probs))],
        gamma["indep"].covariance(),
        kind="cov",
        notes="normalized projection vs unnormalized total",
    )
    return reports


# ---------------------------------------------------------------------------
# campaign registry

_CAMPAIGN_STREAM_SPACING = 1_000_000


@dataclass(frozen=True)
class CampaignSettings:
    """Shared knobs for the named verification campaigns."""

    alpha: float = 2.0
    p: float = 0.3
    n: int = DEFAULT_N
    seed: int = 12345
    threshold: float = DEFAULT_THRESHOLD
    jobs: int = 1
    base: BaseModel | None = None
    construction: str = "stick"
    trunc_eps: float = 1e-12
    jump_eps: float = 1e-8
    negative_controls: bool = True


def _projection_args(s: CampaignSettings) -> tuple[BaseModel]:
    return (s.base or BaseModel(alpha=s.alpha, atom_probs=(0.2, 0.35), diffuse_weight=0.45),)


# name -> (campaign, its leading arguments from the settings, the settings
# it takes by keyword besides threshold, jobs and negative_controls).  The
# order is the order of "all" and fixes each campaign's substream, so new
# campaigns go at the end.
_CAMPAIGNS = {
    "mecke": (verify_mecke, _projection_args, ("construction", "trunc_eps", "jump_eps")),
    "sethuraman": (verify_sethuraman, _projection_args, ("construction", "trunc_eps", "jump_eps")),
    "tbeta": (verify_beta_sizebias, lambda s: (s.p, s.alpha), ()),
    "tbeta2": (verify_beta_general, lambda s: (s.p, s.alpha), ()),
    "sizebias": (verify_sizebias_invariance, lambda s: (s.alpha,), ("base", "trunc_eps")),
    "thm52": (verify_marked_sizebias, lambda s: (s.alpha,), ("trunc_eps", "jump_eps")),
}
CAMPAIGN_NAMES = tuple(_CAMPAIGNS)


def run_verify(name: str, settings: CampaignSettings | None = None) -> list[TestReport]:
    """Run one named campaign (or "all") and return its reports.

    Each campaign draws from its own fixed substream of the seed, so a
    single campaign produces the same reports whether run alone or as
    part of "all", and regardless of the worker count.  The size-biased
    removal campaign needs a purely diffuse base; under "all" it always
    uses its default diffuse base even when another base was configured
    for the projection campaigns.
    """
    settings = settings or CampaignSettings()
    if name == "all":
        reports: list[TestReport] = []
        for sub in CAMPAIGN_NAMES:
            sub_settings = (
                replace(settings, base=None) if sub == "sizebias" else settings
            )
            reports.extend(run_verify(sub, sub_settings))
        return reports
    if name not in _CAMPAIGNS:
        raise ValueError(
            f"unknown campaign {name!r}; expected one of {CAMPAIGN_NAMES + ('all',)}"
        )
    rng = RngStream(
        settings.seed, _CAMPAIGN_STREAM_SPACING * (CAMPAIGN_NAMES.index(name) + 1)
    )
    verify, leading, options = _CAMPAIGNS[name]
    keywords = ("threshold", "jobs", "negative_controls") + options
    return verify(
        *leading(settings), settings.n, rng, **{k: getattr(settings, k) for k in keywords}
    )


# ---------------------------------------------------------------------------
# symmetric-point probe


def _probe_kernel(m, gen, *, alpha, depth) -> dict:
    z = gen.beta(alpha / 2.0, alpha / 2.0, size=m)
    omz = np.ones_like(z)
    identity = []
    for k in range(depth + 1):
        identity.append(_pair(omz * z, 0.5 * omz * (alpha / (alpha + k))))
        omz = omz * (1.0 - z)
    return {"identity": Moments.stack(identity)}


def probe_symmetric(
    alpha: float,
    n: int = DEFAULT_N,
    rng: RngStream | None = None,
    *,
    depth: int = 6,
    jobs: int = 1,
) -> list[TestReport]:
    """Record the symmetric-point moment identities without judging them.

    At p = 1/2 the recovery of the odd-degree mixing moments degenerates,
    so the recovery chain carries no verdict there.  This probe samples
    Z ~ Be(alpha/2, alpha/2) and
    reports E (1-Z)^k Z - (1/2) E (1-Z)^k * (alpha/(alpha+k)) for each k:
    data for the open symmetric case, flagged "probe"/"degenerate" and
    excluded from campaign verdicts.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    params = dict(alpha=alpha, depth=depth)
    c = _Campaign(_probe_kernel, params, n, rng or RngStream(0), jobs)
    return c.reports(
        [f"probe:symmetric[k={k}]" for k in range(depth + 1)],
        c.run()["identity"].paired(),
        kind="probe",
        notes="informational only; the symmetric point carries no verdict",
    )
