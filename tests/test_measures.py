"""Value types: ground points and sampled measures as written, base models."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpm.measures import BaseModel, DiscreteMeasure
from dpm.samplers import _measures


def measures(weights, blocks, coords=()):
    """``samplers._measures`` on a hand-built batch over a base of two
    atoms (blocks 0 and 1) and a diffuse part (block 2); the diffuse marks
    take ``coords`` in row-major order."""
    gen = SimpleNamespace(random=lambda n: np.array(coords[:n], dtype=float))
    model = BaseModel(alpha=1.0, atom_probs=(0.25, 0.25), diffuse_weight=0.5)
    return _measures(model, np.array(weights, dtype=float), np.array(blocks), gen)


def read_back(d: dict) -> DiscreteMeasure:
    """The measure whose ``to_dict`` is ``d``, after a trip through JSON."""
    atoms = json.loads(json.dumps(d))["atoms"]
    return DiscreteMeasure(tuple((*p, a["w"]) for a in atoms for p in a["point"].items()))


class TestGroundPoint:
    def test_equality_is_exact(self):
        # Atom indices compare as integers and coordinates bitwise; an atom
        # never merges with a coordinate of the same value.
        u = 0.25
        [mu] = measures(
            [[0.1, 0.2, 0.3, 0.4, 0.5]],
            [[0, 2, 2, 2, 0]],
            [u, np.nextafter(u, 1.0), u],
        )
        assert mu.atoms == (("atom", 0, 0.1 + 0.5), ("cont", u, 0.2 + 0.4),
                            ("cont", np.nextafter(u, 1.0), 0.3))
        [mu] = measures([[0.5, 0.5]], [[0, 2]], [0.0])
        assert mu.atoms == (("atom", 0, 0.5), ("cont", 0.0, 0.5))

    def test_dict_round_trip(self):
        # A written point reads back as the (kind, value) it was keyed by,
        # its coordinate to the bit.
        u = float(np.nextafter(0.1, 1.0))
        mu = DiscreteMeasure((("atom", 7, 0.5), ("cont", u, 0.5)))
        assert read_back(mu.to_dict()) == mu
        assert read_back(mu.to_dict()).atoms[1][1] != 0.1

    def test_dict_schema(self):
        mu = DiscreteMeasure((("atom", 2, 0.5), ("cont", 0.5, 0.5)))
        assert [a["point"] for a in mu.to_dict()["atoms"]] == [{"atom": 2}, {"cont": 0.5}]


class TestDiscreteMeasure:
    def test_merges_duplicates(self):
        # Atom 0 drawn at columns 0, 2 and 3 is written once, at its first
        # position, with its weights summed in draw order.
        [mu] = measures([[0.1, 0.25, 0.2, 0.3]], [[0, 1, 0, 0]])
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)  # the order shows in the bits
        assert mu.atoms == (("atom", 0, (0.1 + 0.2) + 0.3), ("atom", 1, 0.25))

    def test_drops_zero_weights(self):
        # A zero-weight diffuse entry takes no coordinate either, so the
        # first coordinate goes to the next diffuse mark.
        [mu] = measures([[0.0, 0.5, 0.5]], [[2, 1, 2]], [0.3, 0.7])
        assert mu.atoms == (("atom", 1, 0.5), ("cont", 0.3, 0.5))

    def test_each_diffuse_mark_gets_its_own_coordinate(self):
        a, b = measures([[0.5, 0.25, 0.25], [0.75, 0.25, 0.0]], [[2, 0, 2], [2, 2, 2]],
                        [0.1, 0.2, 0.3, 0.4, 0.5])
        assert a.atoms == (("cont", 0.1, 0.5), ("atom", 0, 0.25), ("cont", 0.2, 0.25))
        assert b.atoms == (("cont", 0.3, 0.75), ("cont", 0.4, 0.25))

    def test_dict_round_trip_and_schema(self):
        mu = DiscreteMeasure((("atom", 1, 0.4), ("cont", 0.7, 0.6)))
        d = mu.to_dict()
        assert d == {
            "atoms": [
                {"point": {"atom": 1}, "w": 0.4},
                {"point": {"cont": 0.7}, "w": 0.6},
            ]
        }
        assert read_back(d) == mu

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.floats(0.0, 10.0, allow_nan=False)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_total_matches_sum(self, entries):
        blocks, weights = zip(*entries)
        [mu] = measures([weights], [blocks], [0.5] * len(entries))
        points = [(kind, value) for kind, value, _ in mu.atoms]
        assert len(points) == len(set(points))
        assert all(w > 0.0 for *_, w in mu.atoms)
        assert sum(w for *_, w in mu.atoms) == pytest.approx(sum(weights), abs=1e-12)


class TestBaseModel:
    def test_valid_mixed(self):
        m = BaseModel(alpha=2.0, atom_probs=(0.2, 0.35), diffuse_weight=0.45)
        assert m.n_atoms == 2

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            BaseModel(alpha=1.0, atom_probs=(0.5, 0.4), diffuse_weight=0.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            BaseModel(alpha=0.0, atom_probs=(1.0,))

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            BaseModel(alpha=alpha, atom_probs=(1.0,))

    def test_default_base(self):
        m = BaseModel.default(3.0)
        assert m == BaseModel(alpha=3.0, atom_probs=(0.2, 0.35), diffuse_weight=0.45)
        assert m.blocks == (0.2, 0.35, 0.45)

    def test_blocks_leave_out_an_empty_diffuse_part(self):
        assert BaseModel(alpha=1.0, atom_probs=(0.25, 0.75)).blocks == (0.25, 0.75)
        assert BaseModel(alpha=1.0, diffuse_weight=1.0).blocks == (1.0,)

    def test_rejects_negative_atom(self):
        with pytest.raises(ValueError):
            BaseModel(alpha=1.0, atom_probs=(-0.1, 1.1))

    @pytest.mark.parametrize(
        "atom_probs, diffuse",
        [((math.nan, 1.0), 0.0), ((math.nan, 0.5), 0.5), ((0.5,), math.nan)],
        ids=["nan-atom", "nan-atom-with-diffuse", "nan-diffuse"],
    )
    def test_rejects_nan_probabilities(self, atom_probs, diffuse):
        with pytest.raises(ValueError):
            BaseModel(alpha=2.0, atom_probs=atom_probs, diffuse_weight=diffuse)

    def test_dict_round_trip(self):
        m = BaseModel(alpha=3.5, atom_probs=(0.25, 0.75), diffuse_weight=0.0)
        assert BaseModel.from_dict(m.to_dict()) == m
        assert m.to_dict() == {"alpha": 3.5, "atoms": [0.25, 0.75], "diffuse": 0.0}

    @pytest.mark.parametrize(
        "d, message",
        [
            ({"alpha": 2, "atom_probs": [0.5], "diffuse_weight": 0.5},
             "unknown base keys ['atom_probs', 'diffuse_weight']; "
             "expected some of ['alpha', 'atoms', 'diffuse']"),
            ({"alpha": 2, "atoms": [1.0], "difuse": 0.0}, "unknown base keys ['difuse']"),
            ({"atoms": [1.0]}, "needs the key 'alpha'"),
        ],
        ids=["dataclass-field-names", "typo", "no-alpha"],
    )
    def test_from_dict_rejects_other_keys(self, d, message):
        with pytest.raises(ValueError) as exc:
            BaseModel.from_dict(d)
        assert message in str(exc.value)

    @pytest.mark.parametrize(
        "d, message",
        [
            ({"alpha": None}, "base key 'alpha' takes numbers, got None"),
            ({"alpha": True, "atoms": [1.0]}, "base key 'alpha' takes numbers, got True"),
            ({"alpha": "2", "atoms": [1.0]}, "base key 'alpha' takes numbers, got '2'"),
            ({"alpha": 2, "atoms": 5}, "base key 'atoms' must be a list of numbers, got 5"),
            ({"alpha": 2, "atoms": ["1"]}, "base key 'atoms' takes numbers, got '1'"),
            ({"alpha": 2, "atoms": [0.5, None], "diffuse": 0.5},
             "base key 'atoms' takes numbers, got None"),
            ({"alpha": 2, "diffuse": False}, "base key 'diffuse' takes numbers, got False"),
            ({"alpha": 10**400, "atoms": [1.0]}, "base key 'alpha' takes finite numbers"),
        ],
        ids=["null", "bool", "string", "atoms-number", "atom-string", "atom-null",
             "diffuse-bool", "huge-integer"],
    )
    def test_from_dict_takes_json_numbers_only(self, d, message):
        with pytest.raises(ValueError) as exc:
            BaseModel.from_dict(d)
        assert message in str(exc.value)

    def test_from_dict_defaults(self):
        m = BaseModel.from_dict({"alpha": 2, "diffuse": 1.0})
        assert m.atom_probs == ()
        assert m.diffuse_weight == 1.0
