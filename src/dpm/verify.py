"""Monte Carlo verification campaigns for the size-biased mixing identities.

Each campaign samples a random probability measure (or the scalar pair
(Z, W) for the one-dimensional identities) many times, evaluates both
sides of an integral identity on a family of polynomial test functions,
and turns each test into a :class:`TestReport` carrying a z-score computed
from the paired, common-random-number variance of the two sides.  KS-type
tests report the statistic and its asymptotic p-value instead.

Every campaign has one shape and one signature: ``verify_*(settings,
rng)`` reads everything it needs from a :class:`CampaignSettings`, whose
constructor is the one place the settings are checked, and draws from
``rng``.  A campaign is a batch kernel and its variants.  The kernel turns
one shard of rows into named statistics: paired (lhs, rhs) columns, (x, y)
covariance columns, or sample arrays for the KS tests, each pair of
columns summarized by a mergeable :class:`Moments` accumulator (count,
means and centered power sums).  A variant reruns the kernel with some
parameters changed; one call, :meth:`_Campaign.runs`, runs every variant,
and one builder, :meth:`_Campaign.report`, makes and grades every
report.  Runs are cut into shards of ``SHARD_SIZE`` rows, shard k of
variant v drawing from the substream keyed (campaign stream id, v, k), and
merged in shard order, so reports are bitwise independent of how many
worker processes ran them.

Every report is graded and counts toward its campaign's verdict.  Every
campaign also runs documented negative controls -- a wrong mixing law, a
wrong constant, a non-conforming weight sequence -- whose reports are
marked ``expected_failure`` and must come back with a ``fail`` verdict
for the campaign to count as OK.  A control that changes only the mixing
law or a constant (mecke's point mass, sethuraman's wrong shape, tbeta's
wrong p, tbeta2's wrong c) is a second statistic of the identity's own
kernel call: it reads the identity's draws and draws nothing.  A control
that changes the input (mecke's single atom, thm52's geometric weights) is
a fixed weight sequence with i.i.d. marks, run as a variant of the
campaign, as is thm52's jump run.  mecke, sethuraman, thm52 and the
construction check read every input from one place, :func:`_projections`.
:data:`_CAMPAIGNS` maps each campaign's name to its function and to
the settings it reads among p, base and construction.

At ``jobs > 1`` a campaign sends every shard of every variant to one pool
of min(jobs, shards times variants, usable CPUs) worker processes, or
computes them here when that is one; ``run_verify("all")`` binds one pool
for all campaigns.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
from dataclasses import asdict, dataclass, replace
from functools import partial, reduce
from itertools import groupby
from typing import Callable, NamedTuple

import numpy as np

from .measures import BaseModel
from .moments import dirichlet_mixed_moment, multi_indices, quadratic_weight_c
from .samplers import (
    _SLAB,
    RngStream,
    beta_pairs,
    block_projection,
    draw_blocks,
    gamma_projection_chunk,
    stick_ensemble_chunk,
    stick_projection_chunk,
)
from .stats import MIN_KS_SAMPLES, ks_test, ks_two_sample, two_sided_p

# The grading rules of _Campaign.report are constants, not settings: a report
# keeps its statistic and p-value, so another level can be applied without a rerun.
DEFAULT_THRESHOLD = 4.0
DEFAULT_P_FLOOR = 1e-3
DEFAULT_N = 200_000
MAX_N = 6_250_000_000
SHARD_SIZE = 10_000


# ---------------------------------------------------------------------------
# report type


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical test inside a campaign.

    ``kind`` is "z" for paired or one-sample z-tests, "ks" for
    Kolmogorov-Smirnov tests, "cov" for covariance-based independence
    checks and "control" for an aggregated negative control.  The
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
        if self.expected_failure:
            return self.verdict == "fail"
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return asdict(self)


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


@dataclass(frozen=True)
class CampaignSettings:
    """Everything a campaign reads besides its random stream; ``seed``
    roots the streams :func:`run_verify` hands out.

    The constructor checks every field, so a campaign can trust them.  A
    ``base`` given with a different ``alpha`` is rejected.  The field
    defaults are the defaults of the ``dpm`` commands.
    """

    alpha: float = 2.0
    p: float = 0.3
    n: int = DEFAULT_N
    seed: int = 12345
    jobs: int = 1
    base: BaseModel | None = None
    construction: str = "stick"

    def __post_init__(self) -> None:
        if self.construction not in ("stick", "gamma"):
            raise ValueError(f"construction must be 'stick' or 'gamma', got {self.construction!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if self.base is not None and self.base.alpha != self.alpha:
            raise ValueError(
                f"alpha {self.alpha:g} conflicts with the base model's alpha {self.base.alpha:g}"
            )
        if not MIN_KS_SAMPLES <= self.n <= MAX_N:
            raise ValueError(f"n must lie in [{MIN_KS_SAMPLES}, {MAX_N}], got {self.n}")
        if not self.jobs >= 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


def _shard_sizes(n: int):
    full, rem = divmod(int(n), SHARD_SIZE)
    return [SHARD_SIZE] * full + ([rem] if rem else [])


def _combine(parts) -> dict:
    """Merge per-shard statistics in order: accumulators merge, sample
    arrays concatenate."""
    out = {}
    for key in parts[0]:
        vals = [part[key] for part in parts]
        if isinstance(vals[0], Moments):
            out[key] = reduce(Moments.merge, vals)
        else:
            out[key] = np.concatenate(vals)
    return out


def _shard(task) -> dict:
    """One kernel call: ``size`` rows drawn from the substream of ``key``."""
    kernel, params, size, seed, key = task
    return kernel(size, RngStream(seed, *key).gen, **params)


# The process pool that campaign runs submit their shards to, bound by
# _worker_pool; None computes them in this process.
_pool = None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _worker_pool(jobs: int):
    """Bind one pool of min(jobs, usable CPUs) worker processes for the
    runs inside, unless that is one worker or a pool is bound already.
    Leaving terminates the workers; leaving by an exception first lets
    every shard in flight finish."""
    global _pool
    workers = min(jobs, _usable_cpus())
    if workers == 1 or _pool is not None:
        yield
        return
    with multiprocessing.Pool(workers) as pool:
        _pool = pool
        try:
            yield
        except Exception:
            # A worker terminated while it sends a result keeps the result
            # queue's lock, and the pool's shutdown then waits on it for ever.
            pool.close()
            pool.join()
            raise
        finally:
            _pool = None


def z_scores(diff, se) -> np.ndarray:
    """z = diff / se elementwise; se == 0 gives z = 0 when diff is 0 as well
    and z = inf otherwise."""
    zero_se = np.where(np.equal(diff, 0.0), 0.0, math.inf)
    return np.divide(diff, se, out=zero_se, where=np.not_equal(se, 0.0))


@dataclass(frozen=True)
class _Campaign:
    """A batch kernel with its parameters, and the settings and stream it
    runs under.

    ``kernel(m, gen, **params)`` turns m rows drawn from ``gen`` into
    named statistics: :class:`Moments` built by :func:`_pair` or
    :func:`_cov`, or sample arrays.  A campaign's main paired statistic is
    named "identity".  A negative control that only reads the identity's
    draws another way is a second statistic of the same kernel call, named
    "control"; one that changes the input is a variant of the campaign,
    which :meth:`runs` runs with changed parameters on its own substreams.
    ``n`` and ``jobs`` come from the settings.
    """

    kernel: Callable[..., dict]
    params: dict
    settings: CampaignSettings
    rng: RngStream

    def runs(self, *changes: dict) -> list[dict]:
        """Run the kernel over n rows once per variant, its parameters
        updated by that variant's ``changes``, and return each run's
        statistics merged in shard order.  Variant v is argument v counted
        from 0, the identity run first; its shard k draws from the
        substream keyed ``(*rng.key, v, k)``.  Every shard of every variant
        goes to the pool in one call: unless one is bound already, a pool
        of min(jobs, shards times variants, usable CPUs) workers, or none
        when that is one, and the shards are computed here.
        """
        sizes, seed = _shard_sizes(self.settings.n), self.rng.seed
        variants = [{**self.params, **c} for c in changes]
        tasks = [
            (self.kernel, params, size, seed, (*self.rng.key, v, k))
            for v, params in enumerate(variants)
            for k, size in enumerate(sizes)
        ]
        with _worker_pool(min(self.settings.jobs, len(tasks))):
            if _pool is None:
                parts = [_shard(t) for t in tasks]
            else:
                # One job per shard: each stays in the pool's cache until
                # its own result arrives, so a pool closed after a failure
                # still takes in every result before its workers exit.
                results = [_pool.apply_async(_shard, (t,)) for t in tasks]
                parts = [r.get() for r in results]
        k = len(sizes)
        return [_combine(parts[i : i + k]) for i in range(0, len(parts), k)]

    def report(self, name, stat, lhs, rhs, se, n, *, p=None, kind="z", notes="") -> TestReport:
        """The one report builder and grading rule.  Without ``p``, ``stat``
        is a z-score: it passes at |z| <= DEFAULT_THRESHOLD and its p-value is
        two-sided (0 for an infinite z).  With ``p`` it is a KS statistic,
        passing at p >= DEFAULT_P_FLOOR.  Either is degenerate when NaN, which
        no report, a control included, counts as its expected outcome.  A
        "control" must fail.  Fields are plain Python scalars: a numpy float's
        repr would leak into the CSV."""
        if p is None:
            p = two_sided_p(stat) if math.isfinite(stat) else 0.0
            verdict = "pass" if abs(stat) <= DEFAULT_THRESHOLD else "fail"
        else:
            verdict = "pass" if p >= DEFAULT_P_FLOOR else "fail"
        verdict = "degenerate" if math.isnan(stat) else verdict
        return TestReport(
            name=name,
            kind=kind,
            statistic=float(stat),
            p_value=float(p),
            lhs=float(lhs),
            rhs=float(rhs),
            stderr=float(se),
            n_samples=int(n),
            seed=int(self.rng.seed),
            verdict=verdict,
            expected_failure=kind == "control",
            notes=notes,
        )

    def reports(self, names, est: Estimate, *, kind="z", notes="") -> list[TestReport]:
        """One report per column of ``est``, graded by its :func:`z_scores`."""
        columns = zip(names, z_scores(est.diff, est.se), est.lhs, est.rhs, est.se)
        return [self.report(*col, est.n, kind=kind, notes=notes) for col in columns]

    def control(self, name: str, names, stat: Moments, notes: str) -> TestReport:
        """The worst z-test of ``stat``, the paired statistic of the
        identity under a wrong law, constant or input, the first on ties;
        the control must reject."""
        subs = self.reports(names, stat.paired())
        w = subs[int(np.argmax([abs(r.statistic) for r in subs]))]
        return self.report(name, w.statistic, w.lhs, w.rhs, w.stderr, w.n_samples, kind="control",
                           notes=f"{notes}; worst sub-test {w.name}")


def false_alarm_budget(reports) -> float:
    """A Bonferroni bound on a false alarm in a correct run: the sum over
    non-control reports of their rule's null rejection rate (see
    :meth:`_Campaign.report`), 2 Phi(-DEFAULT_THRESHOLD) per z-score,
    DEFAULT_P_FLOOR per KS test."""
    z_rate = two_sided_p(DEFAULT_THRESHOLD)
    rate = {"ks": DEFAULT_P_FLOOR, "z": z_rate, "cov": z_rate}
    return sum(rate[r.kind] for r in reports if r.kind != "control")


# ---------------------------------------------------------------------------
# mixing laws and test functions


def _point_mass(u: np.ndarray, *, value: float) -> np.ndarray:
    """A control's mixing weights with the point-mass law at ``value``,
    in place of the weights u."""
    return np.full_like(u, value)


def _coupled_beta(u: np.ndarray, *, alpha: float, b: float) -> np.ndarray:
    """A control's Be(1, b) mixing weights made from the weights u ~
    Be(1, alpha) alone: 1 - u has cdf y^alpha, so 1 - (1-u)^(alpha/b) has
    law Be(1, b)."""
    # A u that rounded to 1 maps to 1.
    with np.errstate(divide="ignore"):
        return -np.expm1(np.log1p(-u) * (alpha / b))


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


def _block_probs(model: BaseModel) -> tuple[float, ...]:
    """Base masses of the projection blocks of ``model``: its
    :attr:`~BaseModel.blocks`, with the trailing atoms lumped into one when
    they do not fit in four blocks; a purely diffuse base is cut into
    [0, 0.2), [0.2, 0.5) and [0.5, 1]."""
    if not model.atom_probs:
        d = model.diffuse_weight
        return tuple(d * (hi - lo) for lo, hi in ((0.0, 0.2), (0.2, 0.5), (0.5, 1.0)))
    atoms, diffuse = model.atom_probs, model.blocks[model.n_atoms :]
    room = 4 - len(diffuse)
    if len(atoms) > room:
        atoms = atoms[: room - 1] + (sum(atoms[room - 1 :]),)
    return atoms + diffuse


# ---------------------------------------------------------------------------
# projection-identity campaigns (weighted and unweighted)


def _projections(construction, alpha, probs, m, gen):
    """Block projections of m measures, their unnormalized totals under the
    jump construction and each row's largest weight, (proj, totals, largest).

    ``construction`` is "stick", "gamma" or a tuple of fixed weights, a
    negative-control input that every row shares with i.i.d. marks; its
    totals and largest are None, and so are the totals of sticks."""
    if construction == "stick":
        proj, largest = stick_projection_chunk(alpha, probs, m, gen)
        return proj, None, largest
    if construction == "gamma":
        return gamma_projection_chunk(alpha, probs, m, gen)
    weights = np.broadcast_to(construction, (m, len(construction)))
    return block_projection(weights, draw_blocks(probs, gen, weights.shape), len(probs)), None, None


def _projection_kernel(m, gen, *, alpha, probs, construction, exponents, targets) -> dict:
    """The projection monomials against ``targets``, the largest weights
    when the input has them and, under the jump construction, the total
    mass against alpha and its covariances with the projections."""
    proj, totals, largest = _projections(construction, alpha, probs, m, gen)
    out = {"identity": _pair(_monomials(proj, exponents), targets)}
    if largest is not None:
        out["largest"] = largest
    if totals is not None:
        out.update(total=_pair(totals, alpha), indep=_cov(proj.T, totals))
    return out


def _mix_kernel(m, gen, *, alpha, probs, construction, control, exponents, weighted) -> dict:
    """The identity with Be(1, alpha) weights u and, unless ``control`` is
    None, the "control" statistic of the same measures and marks mixed by
    the weights ``control(u)``."""
    proj = _projections(construction, alpha, probs, m, gen)[0]
    u = gen.beta(1.0, alpha, size=m)
    xblk = draw_blocks(probs, gen, m)
    # Weighted, f(zeta, x) = g(proj) h(x) for every monomial g and block
    # indicator h: the lhs integrates h against zeta, the rhs reads it at
    # the fresh mark.  One batch per g keeps the temporaries small.
    if weighted:
        h_lhs, h_rhs = np.ascontiguousarray(proj.T), xblk == np.arange(len(probs))[:, None]
    else:
        h_lhs = h_rhs = 1.0
    g_lhs = _monomials(proj, exponents)

    def statistic(w):
        mixed = (1.0 - w)[:, None] * proj
        mixed[np.arange(m), xblk] += w
        pairs = zip(g_lhs, _monomials(mixed, exponents))
        return Moments.stack([_pair(g1 * h_lhs, g2 * h_rhs) for g1, g2 in pairs])

    out = {"identity": statistic(u)}
    if control is not None:
        out["control"] = statistic(control(u))
    return out


def _mix_params(s: CampaignSettings) -> dict:
    """Kernel parameters shared by mecke, sethuraman and the construction
    check, on the blocks of the configured base or of the default base."""
    probs = _block_probs(s.base or BaseModel.default(s.alpha))
    # With one block of positive mass every projection is 1: both sides of
    # each identity agree to rounding and no control can reject.
    if sum(q > 0.0 for q in probs) < 2:
        raise ValueError(
            f"the projection campaigns need a base with mass in at least two blocks, got {probs}"
        )
    return dict(alpha=s.alpha, probs=probs, construction=s.construction)


def verify_mecke(s: CampaignSettings, rng: RngStream) -> list[TestReport]:
    """Check the defining integral identity on a polynomial family.

    For each f(zeta, x) = g(proj(zeta)) h(x), with g a monomial of degree
    at most 2 and h a block indicator, compares the sample mean of the
    measure-weighted side  g(proj) * sum_j proj_j h_j  against
    g(proj') h(X) where proj' mixes the projection with a fresh base mark
    X by a Be(1, alpha) weight.  Negative controls reread the same draws
    with a point-mass mixing law of the correct mean, and rerun the family
    on a substream of its own with a single-atom construction in place of
    the target sampler; both must fail.
    """
    params = _mix_params(s)
    nb = len(params["probs"])
    exponents = _exponents(nb, 2, min_degree=0)
    value = 1.0 / (s.alpha + 1.0)
    params.update(exponents=exponents, weighted=True, control=partial(_point_mass, value=value))
    c = _Campaign(_mix_kernel, params, s, rng)
    stats, atom = c.runs({}, dict(construction=(1.0,), control=None))
    names = [f"mecke[g={_monomial_name(ks)},h=B{j}]" for ks in exponents for j in range(nb)]
    reports = c.reports(names, stats["identity"].paired())
    notes = f"mixing law delta({value:g}) matches the mean of Be(1,{s.alpha:g}) but not its spread"
    reports.append(c.control("mecke:control:point-mass-mixing", names, stats["control"], notes))
    notes = "input measure replaced by a Dirac at one base draw"
    reports.append(c.control("mecke:control:single-atom-input", names, atom["identity"], notes))
    return reports


def verify_sethuraman(s: CampaignSettings, rng: RngStream) -> list[TestReport]:
    """Check the distributional fixed point under Dirac mixing.

    Compares E f(zeta) against E f((1-W)zeta + W delta_X) for monomial f
    of the projections up to degree 3, W ~ Be(1, alpha), X a fresh base
    draw.  The negative control rereads the same measures and marks with a
    mixing law of the wrong shape, its weights coupled to W; degree >= 2
    tests must fail.
    """
    params = _mix_params(s)
    exponents = _exponents(len(params["probs"]), 3)
    wrong = s.alpha + 2.0
    control = partial(_coupled_beta, alpha=s.alpha, b=wrong)
    params.update(exponents=exponents, weighted=False, control=control)
    c = _Campaign(_mix_kernel, params, s, rng)
    [stats] = c.runs({})
    names = [f"sethuraman[g={_monomial_name(ks)}]" for ks in exponents]
    reports = c.reports(names, stats["identity"].paired())
    notes = f"mixing law Be(1,{wrong:g}) instead of Be(1,{s.alpha:g})"
    name = "sethuraman:control:wrong-mixing-shape"
    reports.append(c.control(name, names, stats["control"], notes))
    return reports


# ---------------------------------------------------------------------------
# scalar Beta identity campaigns

_TBETA_DEGREE = 6
_TBETA2_DEGREE = 4


def _tbeta_kernel(m, gen, *, p, alpha, p_wrong) -> dict:
    """Both branches at p ("identity") and, on the same pairs, at p_wrong
    ("control")."""
    z, w = beta_pairs(p, alpha, m, gen)
    degrees = [(k,) for k in range(_TBETA_DEGREE + 2)]
    zk = _monomials(z[:, None], degrees)
    mk, sk = (_monomials(v[:, None], degrees[:-1]) for v in ((1.0 - w) * z + w, (1.0 - w) * z))
    # Column k: z^(k+1), ((1-w)z + w)^k, z^k (1 - z) and ((1-w)z)^k.
    columns = list(zip(zk[1:], mk, zk[:-1] * (1.0 - z), sk))

    def statistic(q):
        pick = [_pair(lhs, q * rhs) for lhs, rhs, _, _ in columns]
        rest = [_pair(lhs, (1.0 - q) * rhs) for _, _, lhs, rhs in columns]
        return Moments.stack(pick + rest)

    return {"identity": statistic(p), "control": statistic(p_wrong)}


def verify_beta_sizebias(s: CampaignSettings, rng: RngStream) -> list[TestReport]:
    """Check the paired size-biased moment equations for the Beta family.

    For Z ~ Be(p*alpha, (1-p)*alpha) and W ~ Be(1, alpha) independent, and
    g = x^k up to k = 6, tests
        E g(Z) Z       = p     E g((1-W)Z + W)      (the picked branch)
        E g(Z) (1 - Z) = (1-p) E g((1-W)Z)          (the complement).
    The k = 0 picked test is the normalization E Z = p.  The negative
    control reads the same pairs with p shifted by 0.15; it must fail.  At
    the symmetric point p = 1/2 only the moment recovery of
    :mod:`dpm.characterize` degenerates; both families still hold there
    and are graded like any other p.
    """
    p = s.p
    p_wrong = p + 0.15 if p + 0.15 < 1.0 else p - 0.15
    c = _Campaign(_tbeta_kernel, dict(p=p, alpha=s.alpha, p_wrong=p_wrong), s, rng)
    [stats] = c.runs({})
    branches = ("pick", "rest")
    names = [f"tbeta:{b}[g=x^{k}]" for b in branches for k in range(_TBETA_DEGREE + 1)]
    reports = c.reports(names, stats["identity"].paired())
    notes = f"identities evaluated with p={p_wrong:g} against data at p={p:g}"
    reports.append(c.control("tbeta:control:wrong-p", names, stats["control"], notes))
    return reports


def _tbeta2_kernel(m, gen, *, p, alpha, c, c_wrong) -> dict:
    """The quadratic identity with constant c ("identity") and, on the same
    pairs, with c_wrong ("control"), and the independence covariances."""
    z, w = beta_pairs(p, alpha, m, gen)
    mixed = (1.0 - w) * z + w
    degrees = [(k,) for k in range(_TBETA2_DEGREE + 3)]
    zk, mk = _monomials(z[:, None], degrees), _monomials(mixed[:, None], degrees[:-2])
    columns = list(zip(zk[2:], mk))
    ratio = w / mixed
    ratio2 = ratio * ratio
    mixed2 = mixed * mixed
    return {
        "identity": Moments.stack([_pair(lhs, c * rhs * w) for lhs, rhs in columns]),
        "control": Moments.stack([_pair(lhs, c_wrong * rhs * w) for lhs, rhs in columns]),
        "indep": _cov(np.array([ratio, ratio, ratio2, ratio2]), np.array([mixed, mixed2] * 2)),
    }


def verify_beta_general(s: CampaignSettings, rng: RngStream) -> list[TestReport]:
    """Check the quadratic mixing identity and its independence corollary.

    Tests E g(Z) Z^2 = c E g((1-W)Z + W) W with c = p(alpha p + 1) for
    monomial g up to degree 4, and that the ratio W/(Z + W - WZ) is
    uncorrelated with Z + W - WZ through first and second powers of each.
    The negative control reads the same pairs with c + 0.1 and must fail.
    """
    const = quadratic_weight_c(s.p, s.alpha)
    params = dict(p=s.p, alpha=s.alpha, c=const, c_wrong=const + 0.1)
    c = _Campaign(_tbeta2_kernel, params, s, rng)
    [stats] = c.runs({})
    names = [f"tbeta2:quadratic[g=x^{k}]" for k in range(_TBETA2_DEGREE + 1)]
    reports = c.reports(names, stats["identity"].paired(), notes=f"c={const:.12g}")
    pairs = ("ratio,sum", "ratio,sum^2", "ratio^2,sum", "ratio^2,sum^2")
    reports += c.reports(
        [f"tbeta2:indep[{pair}]" for pair in pairs],
        stats["indep"].covariance(),
        kind="cov",
        notes="ratio = W/(Z+W-WZ), sum = Z+W-WZ",
    )
    notes = f"constant c shifted to {const + 0.1:.12g}"
    reports.append(c.control("tbeta2:control:wrong-c", names, stats["control"], notes))
    return reports


# ---------------------------------------------------------------------------
# size-biased pick-and-remove invariance


def _removal_kernel(m, gen, *, alpha, probs, exponents) -> dict:
    """Remove a size-biased pick from each row, holding the sticks once: the
    running sums go by row slabs of ``_SLAB`` elements, the moments by degree."""
    nb = len(probs)
    weights, marks = stick_ensemble_chunk(alpha, probs, m, gen)
    rows = np.arange(m)
    u = gen.random(m)
    kappa = np.empty(m, np.intp)
    step = max(1, _SLAB // weights.shape[1])
    for r in map(slice, range(0, m, step), range(step, m + step, step)):
        kappa[r] = (np.cumsum(weights[r], axis=1) < u[r, None]).sum(axis=1)
    kappa = np.minimum(kappa, weights.shape[1] - 1)
    w_k = weights[rows, kappa]
    b_k = marks[rows, kappa]
    # The removed measure is the rest of the row over its own sum: forming
    # it as (proj - w_k) / (1 - w_k) cancels when w_k is near 1.
    weights[rows, kappa] = 0.0
    proj = block_projection(weights, marks, nb)
    del weights, marks
    rest = proj.sum(axis=1)
    removed = proj / np.maximum(rest, 1e-300)[:, None]
    proj[rows, b_k] += w_k
    # Per block j: (removed proj_j, weight), (removed proj_j, pick in j),
    # (weight, pick in j).
    in_j = (b_k == np.arange(nb)[:, None]).astype(float)
    w_j = np.broadcast_to(w_k, (nb, m))
    x = np.stack([removed.T, removed.T, w_j], axis=1).reshape(3 * nb, m)
    y = np.stack([w_j, in_j, in_j], axis=1).reshape(3 * nb, m)
    groups = [list(g) for _, g in groupby(exponents, key=sum)]
    return {
        "identity": Moments.stack([_pair(_monomials(removed, g), _monomials(proj, g))
                                   for g in groups]),
        "indep": _cov(x, y),
        "rest": rest,
    }


def verify_sizebias_invariance(s: CampaignSettings, rng: RngStream) -> list[TestReport]:
    """Check invariance under removal of a size-biased pick.

    Runs on a purely diffuse base (marks almost surely distinct) of its
    own; picking an atom tau with probability its weight and removing it
    with renormalization must leave the law of the projections on [0, 0.2),
    [0.2, 0.5), [0.5, 1] unchanged (monomials up to degree 3), the removed
    weight must follow Be(1, alpha), and removed measure, removed weight
    and pick location must be pairwise uncorrelated.  The weight's law is
    tested on the mass it leaves, against Be(alpha, 1); the negative
    control tests that mass against a deliberately wrong shape.
    """
    alpha = s.alpha
    probs = _block_probs(BaseModel(alpha=alpha, atom_probs=(), diffuse_weight=1.0))
    exponents = _exponents(len(probs), 3)
    params = dict(alpha=alpha, probs=probs, exponents=exponents)
    c = _Campaign(_removal_kernel, params, s, rng)
    [stats] = c.runs({})
    reports = c.reports(
        [f"sizebias:moment[{_monomial_name(ks)}]" for ks in exponents],
        stats["identity"].paired(),
        notes="lhs = after removal, rhs = before",
    )
    # The rest 1 - W of the picked weight W ~ Be(1, alpha) is Be(alpha, 1),
    # with cdf y^alpha; summed from the kept weights, it keeps the digits
    # that 1 - W would round away when W is near 1.
    rest = stats["rest"]
    mean, n = np.mean(rest), len(rest)
    stat, p = ks_test(rest, lambda y: y**alpha)
    notes = f"rest 1-W of the picked weight W against Be({alpha:g},1)"
    reports.append(c.report("sizebias:picked-weight-law", stat, mean, alpha / (alpha + 1.0), 0.0,
                            n, p=p, kind="ks", notes=notes))
    pairs = ("removed-proj{j},weight", "removed-proj{j},pick-block{j}", "weight,pick-block{j}")
    names = [f"sizebias:indep[{pair.format(j=j)}]" for j in range(len(probs)) for pair in pairs]
    reports += c.reports(names, stats["indep"].covariance(), kind="cov")
    wrong = alpha + 1.5
    stat, p = ks_test(rest, lambda y: y**wrong)
    notes = f"rest 1-W against Be({wrong:g},1) must be rejected"
    name = "sizebias:control:wrong-weight-shape"
    reports.append(c.report(name, stat, mean, wrong / (wrong + 1.0), 0.0, n, p=p, kind="control",
                            notes=notes))
    return reports


# ---------------------------------------------------------------------------
# sequence-level invariance: GEM weights with i.i.d. marks


_THM52_MARKS = (0.25, 0.75)
# thm52's negative-control input: the deterministic weights (1 - r) r^i
# with r = 0.9, for the 263 i with r^i above 1e-12, renormalized.
_GEOMETRIC = (1.0 - 0.9) * 0.9 ** np.arange(263)
_GEOMETRIC = tuple((_GEOMETRIC / _GEOMETRIC.sum()).tolist())


def verify_marked_sizebias(s: CampaignSettings, rng: RngStream) -> list[TestReport]:
    """Check the sequence-level characterization of stick weights.

    Pairs stick-breaking (GEM) weights with i.i.d. marks over two atoms of
    probabilities 0.25 and 0.75 and tests the projections against the exact
    mixed moments of the Dirichlet law (monomials up to degree 3), and the
    largest weight against the jump-construction path via a two-sample KS
    test (the ranked weight sets share one law, so their maxima do too).
    The negative control replaces the weights by a deterministic geometric
    sequence with the same marks; its degree-2 and degree-3 moments must
    fail.
    """
    alpha, probs = s.alpha, _THM52_MARKS

    def moments(min_degree):
        exponents = _exponents(len(probs), 3, min_degree)
        targets = [dirichlet_mixed_moment([alpha * q for q in probs], ks) for ks in exponents]
        names = [f"thm52:moment[{_monomial_name(ks)}]" for ks in exponents]
        return names, dict(exponents=exponents, targets=np.array(targets)[:, None])

    names, family = moments(1)
    control_names, control_family = moments(2)
    params = dict(alpha=alpha, probs=probs, construction="stick", **family)
    c = _Campaign(_projection_kernel, params, s, rng)
    gem, jump, geometric = c.runs(
        {}, dict(construction="gamma"), dict(construction=_GEOMETRIC, **control_family)
    )
    reports = c.reports(names, gem["identity"].paired())
    a, b = gem["largest"], jump["largest"]
    stat, p = ks_two_sample(a, b)
    notes = "largest stick weight vs largest normalized jump"
    reports.append(c.report("thm52:largest-weight-paths", stat, np.mean(a), np.mean(b), 0.0,
                            len(a) + len(b), p=p, kind="ks", notes=notes))
    notes = "deterministic geometric weights (ratio 0.9) with i.i.d. marks"
    name = "thm52:control:geometric-weights"
    reports.append(c.control(name, control_names, geometric["identity"], notes))
    return reports


# ---------------------------------------------------------------------------
# construction equivalence


def verify_construction_equivalence(s: CampaignSettings, rng: RngStream) -> list[TestReport]:
    """Compare the stick and jump constructions of the same law.

    Two-sample z-tests on every projection monomial up to degree 3, a
    one-sample z-test of the unnormalized total mass against its mean
    alpha, and covariance checks that the normalized projections are
    uncorrelated with the total.  ``s.construction`` is not read: both
    constructions run.
    """
    params = _mix_params(s)
    nb = len(params["probs"])
    exponents = _exponents(nb, 3)
    params.update(exponents=exponents, targets=0.0)
    c = _Campaign(_projection_kernel, params, s, rng)
    stick, gamma = c.runs(dict(construction="stick"), dict(construction="gamma"))
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
        [f"construction:indep[proj{j},total]" for j in range(nb)],
        gamma["indep"].covariance(),
        kind="cov",
        notes="normalized projection vs unnormalized total",
    )
    return reports


# ---------------------------------------------------------------------------
# campaign registry

# Each campaign with the settings it reads among those that not every
# campaign reads.  The order is the order of "all" and fixes each
# campaign's stream id, its index + 1, so new campaigns go at the end.
_CAMPAIGNS = {
    "mecke": (verify_mecke, ("base", "construction")),
    "sethuraman": (verify_sethuraman, ("base", "construction")),
    "tbeta": (verify_beta_sizebias, ("p",)),
    "tbeta2": (verify_beta_general, ("p",)),
    "sizebias": (verify_sizebias_invariance, ()),
    "thm52": (verify_marked_sizebias, ()),
}
CAMPAIGN_NAMES = tuple(_CAMPAIGNS)
_OPTIONAL = ("p", "base", "construction")
_DEFAULTS = CampaignSettings()


def _unread(name: str, settings: CampaignSettings) -> dict:
    """The settings campaign ``name`` does not read that differ from their
    defaults, each mapped to its default."""
    reads = _CAMPAIGNS[name][1]
    return {k: getattr(_DEFAULTS, k) for k in _OPTIONAL
            if k not in reads and getattr(settings, k) != getattr(_DEFAULTS, k)}


def run_verify(name: str, settings: CampaignSettings | None = None) -> list[TestReport]:
    """Run one named campaign (or "all") and return its reports.

    Each campaign draws from substreams keyed by its own stream id, so a
    single campaign produces the same reports whether run alone or as
    part of "all", and regardless of the worker count.  A campaign run
    alone refuses, before it draws, a setting it does not read that
    differs from its default; "all" gives each campaign the settings it
    reads and leaves the rest at their defaults.  At ``jobs > 1``, "all"
    runs its campaigns one after another on one shared process pool.
    """
    settings = settings or _DEFAULTS
    if name == "all":
        _mix_params(settings)  # a one-block base fails before the pool forks
        with _worker_pool(settings.jobs):
            return [r for sub in CAMPAIGN_NAMES
                    for r in run_verify(sub, replace(settings, **_unread(sub, settings)))]
    if name not in _CAMPAIGNS:
        raise ValueError(
            f"unknown campaign {name!r}; expected one of {CAMPAIGN_NAMES + ('all',)}"
        )
    unread = _unread(name, settings)
    if unread:
        raise ValueError(f"{name} does not read {', '.join(unread)}")
    rng = RngStream(settings.seed, CAMPAIGN_NAMES.index(name) + 1)
    return _CAMPAIGNS[name][0](settings, rng)
