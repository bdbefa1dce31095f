"""Random-measure samplers: stick breaking and normalized gamma jumps.

Two independent constructions target the same random probability measure:

* sequential stick breaking with Be(1, alpha) sticks and i.i.d. marks from
  the base measure.  For block projections a row stops once its leftover
  is at most its largest stick and closes exactly, with the leftover times
  a Dirichlet draw; a stick ensemble stops once every leftover of a batch
  is at most :data:`DEFAULT_STICK_EPS`, and puts it on one final fresh
  mark.  A stick W is drawn by inversion from one exponential E: its
  leftover share 1 - W is exp(-E / alpha) (Devroye 1986, ch. IX), kept as
  drawn, so the leftover keeps its digits when W rounds to 1;
* a decreasing-jump representation, where unit-rate Poisson arrivals are
  pushed through the inverse of alpha * E1 to produce the jump sizes of a
  gamma random measure, which normalization turns into the target.

Each construction is written once for many samples at a time.  One stick
loop, :func:`_stick_columns`, yields the next stick of the rows that the
caller's stop rule keeps drawing; :func:`stick_projection_chunk` adds them
to block projections and a running largest weight before its close, and
:func:`stick_ensemble_chunk` writes them to one buffer.  One jump
generator, :func:`_jump_blocks`, yields the next jumps, 16 a row, and
their marks for the rows whose arrivals are still within the truncation
limit, so it inverts no arrival and draws no mark that a row does not
keep; it holds one step at a time, inverted in slices.
:func:`gamma_projection_chunk` accumulates the steps, dropping each
before the next is drawn, and :func:`_jump_matrices` stacks them into
matrices of decreasing jumps and their marks.  Every mark, the kernels'
included, is drawn by :func:`draw_blocks`, and fixed weights are projected
by :func:`block_projection`.  The samplers behind ``dpm sample``,
:func:`sample_stick_breaking` and :func:`sample_jump_measure`, draw a batch
of rows from the same kernels; :func:`_measures` merges each row's
marks into a :class:`DiscreteMeasure`, its serialization view.  All
randomness flows through :class:`RngStream`, a named substream of a root
seed, so campaigns are reproducible and independent of worker scheduling.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import BaseModel, DiscreteMeasure
from .specialfn import count_at_or_below, exp_integral_e1, inverse_e1

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

    def __reduce__(self):
        # Rebuilt from both fields, so it survives the trip back from a
        # worker process; the default would call the class with the message.
        return type(self), (self.tail_mass, self.max_sticks)


class RngStream:
    """Generator bound to (seed, key), a named substream of a root seed;
    the key is a tuple of nonnegative integers, (0,) when none is given.

    Distinct keys give statistically independent generators for the same
    seed, which is how sharded campaigns stay reproducible no matter how
    shards are scheduled across workers.
    """

    def __init__(self, seed: int, *key: int):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key) or (0,)
        if self.seed < 0 or min(self.key) < 0:
            raise ValueError("seed and key must be nonnegative integers")
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        )

    @property
    def gen(self) -> np.random.Generator:
        return self._gen

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self.key})"


# ---------------------------------------------------------------------------
# base draws


# Elements per slab of a block draw or projection: a large one holds one slab
# of doubles at a time beside its indices, not a whole matrix of them.
_SLAB = 1 << 16


def draw_blocks(block_probs, gen: np.random.Generator, size) -> np.ndarray:
    """Block indices of independent base draws, an array of shape ``size``:
    :func:`count_at_or_below` over the cumulative edges but the last.

    The uniforms are drawn ``_SLAB`` at a time in the stream's order, which
    gives the same indices as one draw of them all.
    """
    edges = np.cumsum(block_probs)[:-1]
    n = int(np.prod(size))
    first = count_at_or_below(edges, gen.random(min(n, _SLAB)))
    out = np.empty(n, first.dtype)
    out[: first.size] = first
    for start in range(first.size, n, _SLAB):
        out[start : start + _SLAB] = count_at_or_below(edges, gen.random(min(_SLAB, n - start)))
    return out.reshape(size)


def beta_pairs(p: float, alpha: float, m: int, gen: np.random.Generator):
    """m independent draws of Z ~ Be(p alpha, (1-p) alpha), the mass of a
    block of base mass p, and W ~ Be(1, alpha), the mixing weight of the
    size-biased identities."""
    z = gen.beta(p * alpha, (1.0 - p) * alpha, size=m)
    return z, gen.beta(1.0, alpha, size=m)


# ---------------------------------------------------------------------------
# the sampling core: one stick loop, one jump kernel, one block projection


# The most sticks or jumps one row may be expected to need.  A stick costs
# a pass of the stick loop and a jump an arrival, an inversion and a mark of
# the jump generator, so this bounds the work and memory of a row: at the
# ceiling, `dpm sample --n 1` took 14 s and 0.55 GB by sticks and 2.5 s and
# 0.34 GB by jumps on a 2-CPU VM.
MAX_ROW_ATOMS = 10**6


def _check_row_atoms(expected: float, alpha: float, kind: str) -> None:
    # Written as "not (expected <= ...)", so that NaN fails too.
    if not expected <= MAX_ROW_ATOMS:
        raise ValueError(
            f"alpha={alpha:g} is too large for {kind}: a row would need about "
            f"{expected:.3g} of them, above the limit of {MAX_ROW_ATOMS:.0e}"
        )


def _stick_cap(alpha: float, trunc_eps: float) -> int:
    """Stick cap with a factor-four margin over the expected stick count.

    The expected leftover at the cap, (alpha/(alpha+1))^cap, is then far
    below ``trunc_eps``, so hitting the cap is a tail event reported
    through :class:`TruncationError` rather than a silent bias.  An
    expected count above :data:`MAX_ROW_ATOMS` raises ValueError.
    """
    needed = math.ceil(math.log(trunc_eps) / -math.log1p(1.0 / alpha))
    _check_row_atoms(needed, alpha, "sticks")
    return max(64, 4 * needed)


def _stick_columns(alpha, block_probs, m, gen, trunc_eps, going):
    """Yield (rows, weights, blocks, tail), the next stick of the rows still
    drawing and their leftover after it.

    Sticks are Be(1, alpha): each draws E ~ Exp(1) and its leftover share
    f = exp(-E / alpha), which is 1 - W; the stick's weight is the row's
    leftover times 1 - f, and the leftover is then multiplied by f.  So a
    stick that rounds to the whole leftover does not round the row's later
    weights to zero.  Each stick's marks are one :func:`draw_blocks` call,
    in block j with probability ``block_probs[j]``.  When the caller asks
    for the next stick, ``going(rows, tail)`` masks the rows that draw it,
    or is True for all of them; the caller closes the others.  Raises
    :class:`TruncationError` at the stick cap.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 < trunc_eps < 1.0:
        raise ValueError(f"trunc_eps must lie in (0, 1), got {trunc_eps}")
    max_sticks = _stick_cap(alpha, trunc_eps)
    rows, tail = np.arange(m), np.ones(m)
    for _ in range(max_sticks):
        f = np.exp(gen.standard_exponential(rows.size) / -alpha)
        w = tail * (1.0 - f)
        tail = tail * f
        yield rows, w, draw_blocks(block_probs, gen, rows.size), tail
        keep = going(rows, tail)
        if keep is not True:
            rows, tail = rows[keep], tail[keep]
            if not rows.size:
                return
    raise TruncationError(float(tail.max()), max_sticks)


# Arrivals per row in one step of the jump generator, and the fewest one
# step draws: below 1024 rows a step draws more a row, so that its fixed
# cost stays small (one row at the row-work ceiling would take 56 000 steps).
_JUMP_BLOCK = 16
_STEP_ARRIVALS = 1 << 14
# Targets per inverse_e1 call: the traced peak is flat up to 2^15, 40% up at 2^16.
_INVERT_CHUNK = 1 << 15


def _jump_blocks(alpha, block_probs, m, gen):
    """Yield (rows, jumps, marks), the next jumps of the rows still drawing.

    A row maps unit-rate Poisson arrivals G_1 < G_2 < ... through the
    decreasing inverse of E1 at G_k / alpha.  A step draws the next
    ``_JUMP_BLOCK`` arrivals of the rows ``rows`` whose last arrival is at
    or below ``limit = alpha * E1(eps)``, eps being the constant
    :data:`DEFAULT_JUMP_EPS`.  ``jumps[k, i]`` is the step's k-th jump in
    row ``rows[i]``, and ``marks[k, i]`` its block, in block j with
    probability ``block_probs[j]``: one :func:`draw_blocks` call after the
    step's arrivals.  Arrivals beyond the limit would invert below eps:
    their jumps and marks read 0, except each row's first, largest jump.
    So in step order a row's jumps are decreasing, then zero.  A first
    arrival with G_1 / alpha > 690 (possible at small alpha) inverts at
    690: that jump is then its row's only one, about 1e-300 or less either
    way, so the normalized row is the same single unit weight.  An expected
    jump count ``limit`` above :data:`MAX_ROW_ATOMS` raises ValueError.

    One step is held at a time: the arrival block goes once the next rows
    and last arrivals are taken, the kept targets are inverted in place
    ``_INVERT_CHUNK`` at a time (a root does not depend on its slice), and
    the step's arrays go when the caller moves on.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    limit = alpha * exp_integral_e1(DEFAULT_JUMP_EPS)
    _check_row_atoms(limit, alpha, "jumps")
    rows, last = np.arange(m), np.zeros(m)
    first = True
    while rows.size:
        width = max(_JUMP_BLOCK, _STEP_ARRIVALS // rows.size)
        arr = gen.standard_exponential((width, rows.size))
        arr[0] += last
        if width == _JUMP_BLOCK:
            # np.cumsum's sums, by row adds: on many rows they are faster
            # than np.cumsum along axis 0.
            for k in range(1, width):
                arr[k] += arr[k - 1]
        else:
            np.cumsum(arr, axis=0, out=arr)
        keep = arr <= limit
        keep[0] |= first
        drawing = keep[-1]
        last, first = arr[-1, drawing], False
        y = arr[keep]
        del arr
        y /= alpha
        np.minimum(y, 690.0, out=y)
        drawn = draw_blocks(block_probs, gen, y.size)
        for s in range(0, y.size, _INVERT_CHUNK):
            y[s : s + _INVERT_CHUNK] = inverse_e1(y[s : s + _INVERT_CHUNK])
        marks = np.zeros(keep.shape, drawn.dtype)
        marks[keep] = drawn
        jumps = np.zeros(keep.shape)
        jumps[keep] = y
        del y, drawn
        yield rows, jumps, marks
        del jumps, marks
        rows = rows[drawing]


def _jump_matrices(alpha, block_probs, m, gen):
    """The jumps and marks of :func:`_jump_blocks`, each stacked into one
    (m, K) matrix of decreasing, zero-padded rows, K being the most jumps
    a row keeps."""
    steps = list(_jump_blocks(alpha, block_probs, m, gen))
    ends = np.cumsum([w.shape[0] for _, w, _ in steps]).tolist()
    jumps = np.zeros((m, ends[-1] if steps else 0))
    marks = np.zeros(jumps.shape, np.intp)
    for (rows, w, b), start, end in zip(steps, [0, *ends], ends):
        jumps[rows, start:end] = w.T
        marks[rows, start:end] = b.T
    k = int(np.count_nonzero(jumps, axis=1).max(initial=0))
    return jumps[:, :k], marks[:, :k]


def block_projection(weights: np.ndarray, blocks: np.ndarray, n_blocks: int) -> np.ndarray:
    """Per-row block masses: the sum of ``weights`` over the entries whose
    mark lies in block j, shape (m, n_blocks).  The masked products go by
    whole rows, about ``_SLAB`` elements at a time, copied to C order: a row's
    sum is numpy's pairwise sum of a contiguous row in any slab and layout."""
    proj = np.empty((weights.shape[0], n_blocks))
    step = max(1, _SLAB // max(weights.shape[1], 1))
    for start in range(0, weights.shape[0], step):
        w, b = (np.ascontiguousarray(a[start : start + step]) for a in (weights, blocks))
        for j in range(n_blocks):
            proj[start : start + step, j] = (w * (b == j)).sum(axis=1)
    return proj


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
) -> tuple[np.ndarray, np.ndarray]:
    """Block projections of m stick-breaking samples, shape (m, n_blocks),
    and each row's largest weight, both exact in law.

    A row draws the sticks of :func:`_stick_columns` until its leftover R
    is at most its largest stick, a stopping time.  The rest of the measure
    is then R times an independent DP(alpha, H) (Sethuraman 1994), whose
    atoms are at most R and whose projection is Dir(alpha * block_probs)
    (Ferguson 1973): one Dirichlet draw per row, scaled by R, closes it.
    A Dirichlet coordinate is Gamma(a + 1) U^(1/a), taken in logs less the
    row's largest, so that shapes near 0 do not underflow a row to 0/0; a
    block of zero mass gets 0.  No (m, n_sticks) matrix is held.
    """
    p = _check_block_probs(block_probs)
    proj = np.zeros(m * len(p))
    largest, left = np.zeros(m), np.zeros(m)
    base = np.arange(m) * len(p)
    for rows, w, blk, tail in _stick_columns(
        alpha, p, m, gen, DEFAULT_STICK_EPS, lambda rows, tail: tail > largest[rows]
    ):
        proj[base[rows] + blk] += w
        largest[rows] = np.maximum(largest[rows], w)
        left[rows] = tail
    # One line per block: a row's maxima and sums run down a few lines.
    a = alpha * p[p > 0.0, None]
    logs = np.log(gen.standard_gamma(a + 1.0, (a.size, m)))
    logs += np.log1p(-gen.random((a.size, m))) / a
    gammas = np.exp(logs - logs.max(axis=0, initial=-np.inf))
    proj = proj.reshape(m, len(p))
    proj[:, p > 0.0] += (left * gammas / gammas.sum(axis=0)).T
    return proj, largest


def stick_ensemble_chunk(
    alpha: float,
    block_probs,
    m: int,
    gen: np.random.Generator,
    trunc_eps: float = DEFAULT_STICK_EPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Full stick weights and mark blocks of m samples.

    Returns (weights, blocks), both shaped (m, n_sticks), weight columns in
    stick order.  Every row draws sticks until the largest leftover of the
    m rows is at most ``trunc_eps`` (later sticks only sharpen a finished
    row); the leftover then closes each row on a fresh mark, so each row
    sums to one up to rounding.  Needed by campaigns that pick and remove
    individual sticks rather than just projecting.  Stick k goes to
    row k of one (sticks, m) buffer, doubled when full; the filled rows are
    returned transposed, so the matrices are held once.
    """
    p = _check_block_probs(block_probs)

    def going(rows, tail):
        return True if tail.max(initial=0.0) > trunc_eps else np.zeros(rows.size, bool)

    def columns():
        for _, w, blk, tail in _stick_columns(alpha, p, m, gen, trunc_eps, going):
            yield w, blk
        yield tail, draw_blocks(p, gen, m)

    for k, (w, blk) in enumerate(columns()):
        if k == 0:
            # A row's expected sticks and five deviations: room for 10^4 rows.
            lam = alpha * -math.log(trunc_eps)
            cap = int(lam + 5.0 * math.sqrt(lam)) + 10
            weights, blocks = np.empty((cap, m)), np.empty((cap, m), blk.dtype)
        elif k == len(weights):  # no view of either buffer exists yet
            for buf in (weights, blocks):
                buf.resize((2 * k, m), refcheck=False)
        weights[k], blocks[k] = w, blk
    return weights[: k + 1].T, blocks[: k + 1].T


def gamma_projection_chunk(
    alpha: float,
    block_probs,
    m: int,
    gen: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized block projections of m jump-construction samples.

    Returns (proj, totals, largest): the normalized projections of shape
    (m, n_blocks), the unnormalized total masses (whose law is
    Gamma(alpha, 1) up to truncation), and the largest normalized weight
    per row.  Jumps and marks are independent, so ``totals`` should be
    uncorrelated with every column of ``proj``.  Accumulates the steps of
    :func:`_jump_blocks` as they are drawn, so no (m, n_jumps) matrix is
    held.
    """
    p = _check_block_probs(block_probs)
    proj = np.zeros((m, len(p)))
    totals = np.zeros(m)
    largest = np.zeros(m)
    for rows, jumps, marks in _jump_blocks(alpha, p, m, gen):
        # A row's jumps decrease: its first step's line 0 is its largest.
        largest[rows] = np.maximum(largest[rows], jumps[0])
        # Each (row, block) pair sums its jumps in one bin.
        bins = marks + np.arange(0, rows.size * len(p), len(p))
        sums = np.bincount(bins.ravel(), jumps.ravel(), rows.size * len(p))
        proj[rows] += sums.reshape(rows.size, len(p))
        totals[rows] += jumps.sum(axis=0)
        del jumps, marks, bins, sums
    proj /= totals[:, None]
    largest /= totals
    return proj, totals, largest


# ---------------------------------------------------------------------------
# the samplers behind `dpm sample`: kernel rows as measures


def _measures(model: BaseModel, weights, blocks, gen: np.random.Generator):
    """The rows of (weights, blocks), each as a :class:`DiscreteMeasure`.

    Entries of zero weight are left out; a mark in the diffuse block gets
    a uniform coordinate, drawn in row-major order.  A row's marks merge
    by their point, ``("atom", index)`` or ``("cont", coordinate)``: a
    point stays where it was first drawn, its weights summed in draw order.
    """
    n_atoms = model.n_atoms
    diffuse = (blocks == n_atoms) & (weights > 0.0)
    coords = np.zeros(weights.shape)
    coords[diffuse] = gen.random(np.count_nonzero(diffuse))
    rows = []
    for w_row, b_row, u_row in zip(weights.tolist(), blocks.tolist(), coords.tolist()):
        merged: dict[tuple, float] = {}
        for w, b, u in zip(w_row, b_row, u_row):
            if w > 0.0:
                point = ("atom", b) if b < n_atoms else ("cont", u)
                merged[point] = merged.get(point, 0.0) + w
        rows.append(DiscreteMeasure(tuple((*point, w) for point, w in merged.items())))
    return rows


def sample_stick_breaking(model: BaseModel, rng: RngStream, n: int) -> list[DiscreteMeasure]:
    """n truncated stick-breaking samples as exact probability measures.

    The rows of one :func:`stick_ensemble_chunk` call: each row closes at
    its own first leftover at most :data:`DEFAULT_STICK_EPS`, which goes to
    the row's next, fresh mark, so the batch's later sticks are not part of it.
    """
    w, b = stick_ensemble_chunk(model.alpha, model.blocks, n, rng.gen)
    # left[:, j] is a row's mass from column j on; the closing weight sits
    # on the column after the row's first stick with left[:, j + 1] <= eps.
    left = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    close = np.argmax(left[:, 1:] <= DEFAULT_STICK_EPS, axis=1) + 1
    rows = np.arange(n)
    w = np.where(np.arange(w.shape[1]) < close[:, None], w, 0.0)
    w[rows, close] = left[rows, close]
    return _measures(model, w, b, rng.gen)


def sample_jump_measure(model: BaseModel, rng: RngStream, n: int) -> list[DiscreteMeasure]:
    """n normalized-jump samples with i.i.d. base marks, as measures.

    Same law as :func:`sample_stick_breaking` up to truncation error, by a
    different construction: the ranked jumps and marks of one run of the
    jump generator, stacked by :func:`_jump_matrices`, each row normalized.
    """
    jumps, marks = _jump_matrices(model.alpha, model.blocks, n, rng.gen)
    return _measures(model, jumps / jumps.sum(axis=1, keepdims=True), marks, rng.gen)
