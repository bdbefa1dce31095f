"""Base models and the serialization view of one sampled measure.

The ground space consists of a finite list of named atoms plus an optional
diffuse component represented by the unit interval with Lebesgue measure.
:class:`BaseModel` is the base law the samplers and campaigns read.
Samplers and campaigns hold measures as block-probability vectors and
(m, K) weight/mark arrays; :class:`DiscreteMeasure`, one row's merged
``(kind, value, weight)`` entries, is only how ``dpm sample`` writes it.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads and worker
processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TOTAL_RTOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """One sampled measure: its points in the order they were first drawn.

    Each entry of ``atoms`` is ``(kind, value, weight)``: kind ``"atom"``
    with an atom index, or ``"cont"`` with a coordinate in [0, 1] of the
    diffuse component.  No point is listed twice and every weight is
    positive.
    """

    atoms: tuple[tuple[str, int | float, float], ...]

    def to_dict(self) -> dict:
        return {"atoms": [{"point": {kind: value}, "w": w} for kind, value, w in self.atoms]}


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
        # Each check holds only for a number in range, so NaN fails it.
        if not all(p >= 0.0 for p in self.atom_probs):
            raise ValueError(f"atom probabilities must be nonnegative, got {self.atom_probs}")
        if not 0.0 <= self.diffuse_weight <= 1.0:
            raise ValueError("diffuse weight must lie in [0, 1]")
        s = sum(self.atom_probs) + self.diffuse_weight
        if not abs(s - 1.0) <= TOTAL_RTOL:
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
        """The inverse of :meth:`to_dict`: only its keys, ``alpha`` required.
        Values must be JSON numbers, and ``atoms`` a list of them."""
        keys = ["alpha", "atoms", "diffuse"]
        unknown = sorted(set(d) - set(keys))
        if unknown:
            raise ValueError(f"unknown base keys {unknown}; expected some of {keys}")
        if "alpha" not in d:
            raise ValueError("base model needs the key 'alpha'")
        atoms = d.get("atoms", [])
        if not isinstance(atoms, list):
            raise ValueError(f"base key 'atoms' must be a list of numbers, got {atoms!r}")
        return BaseModel(
            alpha=_number("alpha", d["alpha"]),
            atom_probs=tuple(_number("atoms", p) for p in atoms),
            diffuse_weight=_number("diffuse", d.get("diffuse", 0.0)),
        )


def _number(key: str, value) -> float:
    """``value`` as a float, if it is a JSON number (JSON true and false
    are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"base key {key!r} takes numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"base key {key!r} takes finite numbers, got {value!r}")
