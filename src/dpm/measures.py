"""Base models and the serialization view of one sampled measure.

The ground space consists of a finite list of named atoms plus an optional
diffuse component represented by the unit interval with Lebesgue measure.
:class:`BaseModel` is the base law the samplers and campaigns read.
Samplers and campaigns hold measures as block-probability vectors and
(m, K) weight/mark arrays; :class:`DiscreteMeasure`, a weighted list of
ground points (:class:`GroundPoint`), is only how ``dpm sample`` writes
one row.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads and worker
processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TOTAL_RTOL = 1e-12


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

    def to_dict(self) -> dict:
        if self.atom is not None:
            return {"atom": self.atom}
        return {"cont": self.cont}


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

    def to_dict(self) -> dict:
        return {"atoms": [{"point": p.to_dict(), "w": w} for p, w in self.atoms]}


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
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"total mass alpha must be finite and positive, got {self.alpha}")
        if any(p < 0.0 for p in self.atom_probs):
            raise ValueError("atom probabilities must be nonnegative")
        if not 0.0 <= self.diffuse_weight <= 1.0:
            raise ValueError("diffuse weight must lie in [0, 1]")
        s = sum(self.atom_probs) + self.diffuse_weight
        if abs(s - 1.0) > TOTAL_RTOL:
            raise ValueError(f"base measure must be a probability measure, total={s!r}")

    @classmethod
    def default(cls, alpha: float) -> "BaseModel":
        """The base used when none is given: atoms of mass 0.2 and 0.35
        plus 0.45 diffuse."""
        return cls(alpha, (0.2, 0.35), 0.45)

    @property
    def n_atoms(self) -> int:
        return len(self.atom_probs)

    @property
    def blocks(self) -> tuple[float, ...]:
        """Block probabilities: one per atom, then the diffuse weight when
        it is positive."""
        d = self.diffuse_weight
        return self.atom_probs + ((d,) if d > 0.0 else ())

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "atoms": list(self.atom_probs),
            "diffuse": self.diffuse_weight,
        }

    @staticmethod
    def from_dict(d: dict) -> "BaseModel":
        """The inverse of :meth:`to_dict`: only its keys, ``alpha`` required."""
        keys = ["alpha", "atoms", "diffuse"]
        unknown = sorted(set(d) - set(keys))
        if unknown:
            raise ValueError(f"unknown base keys {unknown}; expected some of {keys}")
        if "alpha" not in d:
            raise ValueError("base model needs the key 'alpha'")
        return BaseModel(
            alpha=float(d["alpha"]),
            atom_probs=tuple(float(p) for p in d.get("atoms", ())),
            diffuse_weight=float(d.get("diffuse", 0.0)),
        )
