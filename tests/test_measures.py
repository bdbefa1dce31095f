"""Value types: ground points, discrete measures, base models."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpm.measures import BaseModel, DiscreteMeasure, GroundPoint


def atom_point(i):
    return GroundPoint(atom=i)


def cont_point(u):
    return GroundPoint(cont=u)


class TestGroundPoint:
    def test_requires_exactly_one_component(self):
        with pytest.raises(ValueError):
            GroundPoint()
        with pytest.raises(ValueError):
            GroundPoint(atom=1, cont=0.5)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GroundPoint(atom=-1)
        with pytest.raises(ValueError):
            GroundPoint(cont=1.5)

    def test_equality_is_exact(self):
        assert atom_point(3) == atom_point(3)
        assert atom_point(3) != atom_point(4)
        assert cont_point(0.25) == cont_point(0.25)
        assert cont_point(0.25) != cont_point(0.25 + 1e-16)
        assert atom_point(0) != cont_point(0.0)

    def test_hashable(self):
        s = {atom_point(1), atom_point(1), cont_point(0.5)}
        assert len(s) == 2

    def test_dict_round_trip(self):
        # The serialized keys are the constructor's keywords.
        for p in (atom_point(7), cont_point(0.123456789)):
            assert GroundPoint(**json.loads(json.dumps(p.to_dict()))) == p

    def test_dict_schema(self):
        assert atom_point(2).to_dict() == {"atom": 2}
        assert cont_point(0.5).to_dict() == {"cont": 0.5}


class TestDiscreteMeasure:
    def test_from_pairs_merges_duplicates(self):
        mu = DiscreteMeasure.from_pairs(
            [(atom_point(0), 0.25), (atom_point(1), 0.25), (atom_point(0), 0.5)]
        )
        assert dict(mu.atoms)[atom_point(0)] == pytest.approx(0.75)
        assert len(mu.atoms) == 2
        assert mu.total == pytest.approx(1.0)

    def test_from_pairs_drops_zero_weights(self):
        mu = DiscreteMeasure.from_pairs([(atom_point(0), 1.0), (atom_point(1), 0.0)])
        assert len(mu.atoms) == 1

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_pairs([(atom_point(0), -0.1)])

    def test_dict_round_trip_and_schema(self):
        mu = DiscreteMeasure.from_pairs([(atom_point(1), 0.4), (cont_point(0.7), 0.6)])
        d = mu.to_dict()
        assert d == {
            "atoms": [
                {"point": {"atom": 1}, "w": 0.4},
                {"point": {"cont": 0.7}, "w": 0.6},
            ]
        }
        back = json.loads(json.dumps(d))["atoms"]
        assert DiscreteMeasure.from_pairs((GroundPoint(**a["point"]), a["w"]) for a in back) == mu

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.floats(0.0, 10.0, allow_nan=False)),
            min_size=0,
            max_size=20,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_total_matches_sum(self, pairs):
        mu = DiscreteMeasure.from_pairs([(atom_point(i), w) for i, w in pairs])
        assert mu.total == pytest.approx(sum(w for _, w in mu.atoms), abs=1e-12)
        assert all(w > 0.0 for _, w in mu.atoms)


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

    def test_from_dict_defaults(self):
        m = BaseModel.from_dict({"alpha": 2, "diffuse": 1.0})
        assert m.atom_probs == ()
        assert m.diffuse_weight == 1.0
