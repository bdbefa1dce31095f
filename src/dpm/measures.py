"""Finite discrete measures on a hybrid ground space.

The ground space consists of a finite list of named atoms plus an optional
diffuse component represented by the unit interval with Lebesgue measure.
This module holds the value types shared by the samplers and the
verification engine -- weighted atom lists, base models, partitions -- and
the projection of a measure onto the blocks of a partition.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads and worker
processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOTAL_RTOL = 1e-12
PROBABILITY_ATOL = 1e-9


@dataclass(frozen=True)
class GroundPoint:
    """A single point of the ground space.

    Exactly one of ``atom`` (a nonnegative atom index) and ``cont`` (a
    coordinate in [0, 1] of the diffuse component) is set.  Equality and
    hashing are exact: atom indices compare as integers, continuum
    coordinates bitwise.  With a diffuse base, independently sampled
    continuum points collide with probability zero, so exact matching is
    the correct merge rule.
    """

    atom: int | None = None
    cont: float | None = None

    def __post_init__(self) -> None:
        if (self.atom is None) == (self.cont is None):
            raise ValueError("exactly one of atom= or cont= must be given")
        if self.atom is not None:
            if self.atom < 0 or self.atom != int(self.atom):
                raise ValueError(f"atom index must be a nonnegative integer, got {self.atom}")
        if self.cont is not None and not 0.0 <= self.cont <= 1.0:
            raise ValueError(f"cont coordinate must lie in [0, 1], got {self.cont}")

    @property
    def is_atom(self) -> bool:
        return self.atom is not None

    def to_dict(self) -> dict:
        if self.atom is not None:
            return {"atom": self.atom}
        return {"cont": self.cont}

    @staticmethod
    def from_dict(d: dict) -> "GroundPoint":
        if "atom" in d:
            return GroundPoint(atom=int(d["atom"]))
        if "cont" in d:
            return GroundPoint(cont=float(d["cont"]))
        raise ValueError(f"not a ground point: {d!r}")


def atom_point(i: int) -> GroundPoint:
    return GroundPoint(atom=i)


def cont_point(u: float) -> GroundPoint:
    return GroundPoint(cont=u)


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finite nonnegative measure given by a weighted list of points.

    Construct through :meth:`from_pairs`, which merges duplicate points by
    summing their weights and caches the total mass.  The zero measure
    (``total == 0.0``, no atoms) is a valid value.
    """

    atoms: tuple[tuple[GroundPoint, float], ...]
    total: float

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteMeasure":
        merged: dict[GroundPoint, float] = {}
        for point, weight in pairs:
            w = float(weight)
            if w < 0.0:
                raise ValueError(f"negative weight {w} at {point}")
            if point in merged:
                merged[point] += w
            else:
                merged[point] = w
        atoms = tuple((p, w) for p, w in merged.items() if w > 0.0)
        total = float(sum(w for _, w in atoms))
        return cls(atoms=atoms, total=total)

    def is_probability(self, atol: float = PROBABILITY_ATOL) -> bool:
        return abs(self.total - 1.0) <= atol

    def to_dict(self) -> dict:
        return {"atoms": [{"point": p.to_dict(), "w": w} for p, w in self.atoms]}

    @staticmethod
    def from_dict(d: dict) -> "DiscreteMeasure":
        pairs = [(GroundPoint.from_dict(a["point"]), float(a["w"])) for a in d["atoms"]]
        return DiscreteMeasure.from_pairs(pairs)


@dataclass(frozen=True)
class BaseModel:
    """Total mass plus normalized base measure: atoms and a diffuse weight.

    ``atom_probs[i]`` is the base probability of atom ``i``;
    ``diffuse_weight`` is the mass spread as Lebesgue measure over [0, 1].
    The probabilities must sum to one.
    """

    alpha: float
    atom_probs: tuple[float, ...] = ()
    diffuse_weight: float = 0.0

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError(f"total mass alpha must be positive, got {self.alpha}")
        if any(p < 0.0 for p in self.atom_probs):
            raise ValueError("atom probabilities must be nonnegative")
        if not 0.0 <= self.diffuse_weight <= 1.0:
            raise ValueError("diffuse weight must lie in [0, 1]")
        s = sum(self.atom_probs) + self.diffuse_weight
        if abs(s - 1.0) > TOTAL_RTOL:
            raise ValueError(f"base measure must be a probability measure, total={s!r}")

    @property
    def n_atoms(self) -> int:
        return len(self.atom_probs)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "atoms": list(self.atom_probs),
            "diffuse": self.diffuse_weight,
        }

    @staticmethod
    def from_dict(d: dict) -> "BaseModel":
        return BaseModel(
            alpha=float(d["alpha"]),
            atom_probs=tuple(float(p) for p in d.get("atoms", ())),
            diffuse_weight=float(d.get("diffuse", 0.0)),
        )


@dataclass(frozen=True)
class Block:
    """One measurable block: a set of atom indices plus interval pieces.

    Intervals are half-open ``[lo, hi)`` except that the point 1.0 belongs
    to an interval whose upper endpoint is 1.0.  Within a block the
    intervals must be disjoint; overlapping families are rejected as
    malformed.
    """

    atoms: frozenset[int] = frozenset()
    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for lo, hi in self.intervals:
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"malformed interval [{lo}, {hi})")
        ordered = sorted(self.intervals)
        for (lo1, hi1), (lo2, _) in zip(ordered, ordered[1:]):
            if lo2 < hi1:
                raise ValueError(f"overlapping intervals [{lo1},{hi1}) and [{lo2},..)")

    @property
    def interval_length(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    def contains(self, point: GroundPoint) -> bool:
        if point.atom is not None:
            return point.atom in self.atoms
        u = point.cont
        for lo, hi in self.intervals:
            if lo <= u < hi or (u == hi == 1.0):
                return True
        return False


@dataclass(frozen=True)
class Partition:
    """An ordered disjoint cover of the ground space by blocks.

    Atom sets must be pairwise disjoint and the blocks' intervals, when any
    are present, must tile [0, 1] up to 1e-12 endpoint slack.  Coverage of
    a concrete model's atoms is checked by :meth:`validate_for`.
    """

    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("partition needs at least one block")
        seen: set[int] = set()
        for b in self.blocks:
            if b.atoms & seen:
                raise ValueError("blocks share atom indices")
            seen |= b.atoms
        intervals = sorted(iv for b in self.blocks for iv in b.intervals)
        if intervals:
            if abs(intervals[0][0]) > TOTAL_RTOL or abs(intervals[-1][1] - 1.0) > TOTAL_RTOL:
                raise ValueError("interval family does not span [0, 1]")
            for (_, hi1), (lo2, _) in zip(intervals, intervals[1:]):
                if abs(lo2 - hi1) > TOTAL_RTOL:
                    raise ValueError(f"interval family has a gap or overlap at {hi1}")

    @property
    def size(self) -> int:
        return len(self.blocks)

    @property
    def has_intervals(self) -> bool:
        return any(b.intervals for b in self.blocks)

    def block_index(self, point: GroundPoint) -> int:
        for j, b in enumerate(self.blocks):
            if b.contains(point):
                return j
        raise ValueError(f"point {point} not covered by partition")

    def validate_for(self, model: BaseModel) -> None:
        covered = frozenset().union(*(b.atoms for b in self.blocks))
        expected = frozenset(range(model.n_atoms))
        if covered != expected:
            raise ValueError(f"partition atoms {sorted(covered)} do not cover {sorted(expected)}")
        if model.diffuse_weight > 0.0 and not self.has_intervals:
            raise ValueError("model has a diffuse component but partition has no intervals")

    @staticmethod
    def of_atoms(n_atoms: int) -> "Partition":
        """One block per atom index."""
        return Partition(tuple(Block(atoms=frozenset([i])) for i in range(n_atoms)))

    @staticmethod
    def of_interval_bounds(bounds) -> "Partition":
        """Blocks [b0,b1), [b1,b2), ... from an increasing bounds list."""
        bs = [float(b) for b in bounds]
        if bs[0] != 0.0 or bs[-1] != 1.0 or any(x >= y for x, y in zip(bs, bs[1:])):
            raise ValueError("bounds must increase from 0.0 to 1.0")
        return Partition(tuple(Block(intervals=((lo, hi),)) for lo, hi in zip(bs, bs[1:])))


def nu_of(model: BaseModel, block: Block) -> float:
    """Base-measure mass of one block."""
    for i in block.atoms:
        if i >= model.n_atoms:
            raise ValueError(f"block references unknown atom index {i}")
    mass = sum(model.atom_probs[i] for i in block.atoms)
    mass += model.diffuse_weight * block.interval_length
    return float(mass)


def block_probabilities(model: BaseModel, partition: Partition) -> np.ndarray:
    """Vector of base-measure masses of the partition blocks."""
    partition.validate_for(model)
    return np.array([nu_of(model, b) for b in partition.blocks], dtype=float)


def project(mu: DiscreteMeasure, partition: Partition) -> np.ndarray:
    """Normalized block masses of mu: a point of the probability simplex."""
    if not mu.total > 0.0:
        raise ValueError("cannot project a measure with zero mass")
    out = np.zeros(partition.size)
    for p, w in mu.atoms:
        out[partition.block_index(p)] += w
    return out / mu.total
