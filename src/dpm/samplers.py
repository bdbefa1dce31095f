"""Random-measure samplers: stick breaking and normalized gamma jumps.

Two independent constructions target the same random probability measure:

* sequential stick breaking with Be(1, alpha) sticks and i.i.d. marks from
  the base measure, truncated when the leftover mass drops below a
  configured epsilon (the leftover is assigned to one final fresh mark so
  every sample is an exact probability measure);
* a decreasing-jump representation, where unit-rate Poisson arrivals are
  pushed through the inverse of alpha * E1 to produce the jump sizes of a
  gamma random measure, which normalization turns into the target.

Each construction is written once for many samples at a time.  One stick
loop, :func:`_stick_columns`, yields a (weights, blocks) column per stick;
:func:`stick_projection_chunk` accumulates the columns into block
projections and :func:`stick_ensemble_chunk` stacks them.  One jump kernel,
:func:`gamma_jumps`, returns a matrix of decreasing jumps; it feeds
:func:`gamma_projection_chunk` and, at one row, the per-measure sampler
:func:`sample_jump_measure`.  Marks are drawn by :func:`draw_blocks` and
projected by :func:`block_projection`.  Only :func:`sample_stick_breaking`
keeps its own scalar loop, which is faster for one measure at a time.
All randomness flows through :class:`RngStream`, a named substream of a
root seed, so campaigns are reproducible and independent of worker
scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import BaseModel, DiscreteMeasure, GroundPoint
from .specialfn import exp_integral_e1, inverse_e1

DEFAULT_STICK_EPS = 1e-12
DEFAULT_JUMP_EPS = 1e-8


class TruncationError(RuntimeError):
    """A stick-breaking loop hit its stick cap before reaching the target tail."""

    def __init__(self, tail_mass: float, max_sticks: int):
        super().__init__(
            f"tail mass {tail_mass:.3e} still above target after {max_sticks} sticks"
        )
        self.tail_mass = tail_mass
        self.max_sticks = max_sticks


class RngStream:
    """Generator bound to (seed, stream_id), a named substream of a root seed.

    Distinct stream ids give statistically independent generators for the
    same seed, which is how sharded campaigns stay reproducible no matter
    how shards are scheduled across workers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative integers")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )

    @property
    def gen(self) -> np.random.Generator:
        return self._gen

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class StickConfig:
    """Truncation policy for stick breaking.

    ``max_sticks`` must be generous enough that the *expected* leftover
    mass at the cap, (alpha/(alpha+1))^max_sticks, is already below
    ``trunc_eps``; hitting the cap is then a tail event reported through
    :class:`TruncationError` rather than a silent bias.
    """

    alpha: float
    trunc_eps: float = DEFAULT_STICK_EPS
    max_sticks: int = 0

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 < self.trunc_eps < 1.0:
            raise ValueError(f"trunc_eps must lie in (0, 1), got {self.trunc_eps}")
        if self.max_sticks < 1:
            raise ValueError("max_sticks must be at least 1")
        if self.max_sticks * math.log(self.alpha / (self.alpha + 1.0)) > math.log(self.trunc_eps):
            raise ValueError(
                f"max_sticks={self.max_sticks} cannot reach tail {self.trunc_eps} "
                f"even in expectation at alpha={self.alpha}"
            )

    @staticmethod
    def for_alpha(alpha: float, trunc_eps: float = DEFAULT_STICK_EPS) -> "StickConfig":
        """A cap with a factor-four margin over the expected stick count."""
        needed = math.ceil(math.log(trunc_eps) / math.log(alpha / (alpha + 1.0)))
        return StickConfig(alpha=alpha, trunc_eps=trunc_eps, max_sticks=max(64, 4 * needed))


def expected_jump_count(alpha: float, trunc_eps: float) -> float:
    """Mean number of jumps of size >= trunc_eps: alpha * E1(trunc_eps)."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return alpha * exp_integral_e1(trunc_eps)


# ---------------------------------------------------------------------------
# base draws


def sample_base_point(model: BaseModel, rng: RngStream) -> GroundPoint:
    """One draw from the normalized base measure."""
    return _draw_base_point(model, rng.gen)


def _draw_base_point(model: BaseModel, gen: np.random.Generator) -> GroundPoint:
    r = gen.random()
    acc = 0.0
    for i, p in enumerate(model.atom_probs):
        acc += p
        if r < acc:
            return GroundPoint(atom=i)
    if model.diffuse_weight > 0.0:
        return GroundPoint(cont=float(gen.random()))
    # Rounding pushed r past the accumulated total; the last positive atom
    # absorbs the sliver.
    last = max(i for i, p in enumerate(model.atom_probs) if p > 0.0)
    return GroundPoint(atom=last)


def draw_blocks(block_probs, gen: np.random.Generator, size) -> np.ndarray:
    """Block indices of independent base draws, an array of shape ``size``."""
    cum = np.cumsum(block_probs)
    return np.minimum(np.searchsorted(cum, gen.random(size), side="right"), len(cum) - 1)


def beta_pairs(p: float, alpha: float, m: int, gen: np.random.Generator):
    """m independent draws of Z ~ Be(p alpha, (1-p) alpha), the mass of a
    block of base mass p, and W ~ Be(1, alpha), the mixing weight of the
    size-biased identities."""
    z = gen.beta(p * alpha, (1.0 - p) * alpha, size=m)
    return z, gen.beta(1.0, alpha, size=m)


# ---------------------------------------------------------------------------
# the sampling core: one stick loop, one jump kernel, one block projection


def _stick_columns(alpha, block_probs, m, gen, trunc_eps, max_sticks):
    """Yield (weights, blocks) of one stick for each of m rows at a time.

    Sticks are Be(1, alpha) and marks fall in block j with probability
    ``block_probs[j]``.  Every row keeps receiving sticks until the largest
    leftover among the m rows is at most ``trunc_eps`` (extra sticks on
    finished rows only sharpen their truncation); the closing leftover then
    comes last, on a fresh mark, so each row sums to one up to rounding.
    Raises :class:`TruncationError` at the stick cap.
    """
    if max_sticks is None:
        max_sticks = StickConfig.for_alpha(alpha, trunc_eps).max_sticks
    tail = np.ones(m)
    for _ in range(max_sticks):
        w = gen.beta(1.0, alpha, size=m)
        yield tail * w, draw_blocks(block_probs, gen, m)
        tail = tail * (1.0 - w)
        if tail.max() <= trunc_eps:
            yield tail, draw_blocks(block_probs, gen, m)
            return
    raise TruncationError(float(tail.max()), max_sticks)


def gamma_jumps(
    alpha: float,
    m: int,
    gen: np.random.Generator,
    trunc_eps: float = DEFAULT_JUMP_EPS,
) -> np.ndarray:
    """Decreasing jumps of m gamma random measures with total mass alpha.

    Returns an (m, K) matrix.  Each row maps unit-rate Poisson arrivals
    G_1 < G_2 < ... through the inverse of E1 at G_k / alpha; the map is
    decreasing, so the jumps come out sorted.  Arrivals beyond
    alpha * E1(trunc_eps) would invert below the threshold: their jumps
    read 0, except that every row keeps its first, largest jump.  Arrivals
    are drawn until every row has passed that limit.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 < trunc_eps <= 0.1:
        raise ValueError(f"trunc_eps must lie in (0, 0.1], got {trunc_eps}")
    limit = alpha * exp_integral_e1(trunc_eps)
    k0 = int(limit + 8.0 * math.sqrt(limit) + 16.0)
    arr = gen.exponential(size=(m, k0)).cumsum(axis=1)
    while arr[:, -1].min() <= limit:
        extra = arr[:, -1:] + gen.exponential(size=(m, 16)).cumsum(axis=1)
        arr = np.concatenate([arr, extra], axis=1)
    keep = arr <= limit
    keep[:, 0] = True
    jumps = np.zeros_like(arr)
    jumps[keep] = inverse_e1(arr[keep] / alpha)
    return jumps


def block_projection(weights: np.ndarray, blocks: np.ndarray, n_blocks: int) -> np.ndarray:
    """Per-row block masses: the sum of ``weights`` over the entries whose
    mark lies in block j, shape (m, n_blocks)."""
    proj = np.empty((weights.shape[0], n_blocks))
    for j in range(n_blocks):
        proj[:, j] = (weights * (blocks == j)).sum(axis=1)
    return proj


# ---------------------------------------------------------------------------
# object-level constructions


def sample_stick_breaking(
    model: BaseModel,
    rng: RngStream,
    config: StickConfig | None = None,
) -> DiscreteMeasure:
    """One truncated stick-breaking sample as an exact probability measure.

    Sticks are Be(1, alpha), marks are i.i.d. base draws, and once the
    leftover mass reaches ``config.trunc_eps`` it is assigned to one fresh
    mark, closing the measure at total mass exactly one.
    """
    cfg = config if config is not None else StickConfig.for_alpha(model.alpha)
    if cfg.alpha != model.alpha:
        raise ValueError(f"config alpha {cfg.alpha} does not match model alpha {model.alpha}")
    gen = rng.gen
    pairs: list[tuple[GroundPoint, float]] = []
    tail = 1.0
    for _ in range(cfg.max_sticks):
        w = gen.beta(1.0, cfg.alpha)
        pairs.append((_draw_base_point(model, gen), tail * w))
        tail *= 1.0 - w
        if tail <= cfg.trunc_eps:
            pairs.append((_draw_base_point(model, gen), tail))
            return DiscreteMeasure.from_pairs(pairs)
    raise TruncationError(tail, cfg.max_sticks)


def sample_poisson_dirichlet(
    alpha: float,
    rng: RngStream,
    trunc_eps: float = DEFAULT_JUMP_EPS,
) -> np.ndarray:
    """Descending normalized jump sizes: one draw of the ranked-weight law,
    the nonzero jumps of :func:`gamma_jumps` at one row."""
    jumps = gamma_jumps(alpha, 1, rng.gen, trunc_eps)[0]
    jumps = jumps[jumps > 0.0]
    return jumps / jumps.sum()


def sample_jump_measure(
    model: BaseModel,
    rng: RngStream,
    trunc_eps: float = DEFAULT_JUMP_EPS,
) -> DiscreteMeasure:
    """One normalized-jump draw with i.i.d. base marks, as a measure.

    Same law as :func:`sample_stick_breaking` up to truncation error, by a
    different construction: ranked normalized jumps of a gamma random
    measure, each carrying an independent base draw.
    """
    weights = sample_poisson_dirichlet(model.alpha, rng, trunc_eps)
    gen = rng.gen
    pairs = [(_draw_base_point(model, gen), float(w)) for w in weights]
    return DiscreteMeasure.from_pairs(pairs)


# ---------------------------------------------------------------------------
# vectorized chunk kernels


def _check_block_probs(block_probs) -> np.ndarray:
    p = np.asarray(block_probs, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("block probabilities must be a nonempty vector")
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("block probabilities must be nonnegative and sum to one")
    return p


def stick_projection_chunk(
    alpha: float,
    block_probs,
    m: int,
    gen: np.random.Generator,
    trunc_eps: float = DEFAULT_STICK_EPS,
    max_sticks: int | None = None,
) -> np.ndarray:
    """Block projections of m stick-breaking samples, shape (m, n_blocks).

    Accumulates the sticks of :func:`_stick_columns` as they are drawn, so
    no (m, n_sticks) matrix is held.
    """
    p = _check_block_probs(block_probs)
    proj = np.zeros((m, len(p)))
    rows = np.arange(m)
    for w, blk in _stick_columns(alpha, p, m, gen, trunc_eps, max_sticks):
        proj[rows, blk] += w
    return proj


def stick_ensemble_chunk(
    alpha: float,
    block_probs,
    m: int,
    gen: np.random.Generator,
    trunc_eps: float = DEFAULT_STICK_EPS,
    max_sticks: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full stick weights and mark blocks of m samples.

    Returns (weights, blocks), both shaped (m, n_sticks); weight columns
    are in stick order and each row sums to one up to rounding (the last
    column is the closing leftover).  Needed by campaigns that pick and
    remove individual sticks rather than just projecting.
    """
    p = _check_block_probs(block_probs)
    cols_w, cols_b = zip(*_stick_columns(alpha, p, m, gen, trunc_eps, max_sticks))
    return np.column_stack(cols_w), np.column_stack(cols_b)


def gamma_projection_chunk(
    alpha: float,
    block_probs,
    m: int,
    gen: np.random.Generator,
    trunc_eps: float = DEFAULT_JUMP_EPS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized block projections of m jump-construction samples.

    Returns (proj, totals, largest): the normalized projections of shape
    (m, n_blocks), the unnormalized total masses (whose law is
    Gamma(alpha, 1) up to truncation), and the largest normalized weight
    per row.  Jumps and marks are independent, so ``totals`` should be
    uncorrelated with every column of ``proj``.
    """
    p = _check_block_probs(block_probs)
    jumps = gamma_jumps(alpha, m, gen, trunc_eps)
    proj = block_projection(jumps, draw_blocks(p, gen, jumps.shape), len(p))
    totals = jumps.sum(axis=1)
    proj /= totals[:, None]
    largest = jumps[:, 0] / totals
    return proj, totals, largest
