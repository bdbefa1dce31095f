"""Value types: ground points, discrete measures, base models, partitions."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpm.measures import (
    BaseModel,
    Block,
    DiscreteMeasure,
    GroundPoint,
    Partition,
    atom_point,
    block_probabilities,
    cont_point,
    is_good,
    nu_of,
    project,
)


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
        for p in (atom_point(7), cont_point(0.123456789)):
            assert GroundPoint.from_dict(p.to_dict()) == p

    def test_dict_schema(self):
        assert atom_point(2).to_dict() == {"atom": 2}
        assert cont_point(0.5).to_dict() == {"cont": 0.5}
        with pytest.raises(ValueError):
            GroundPoint.from_dict({"nope": 1})


class TestDiscreteMeasure:
    def test_from_pairs_merges_duplicates(self):
        mu = DiscreteMeasure.from_pairs(
            [(atom_point(0), 0.25), (atom_point(1), 0.25), (atom_point(0), 0.5)]
        )
        assert mu.mass_at(atom_point(0)) == pytest.approx(0.75)
        assert len(mu.atoms) == 2
        assert mu.total == pytest.approx(1.0)

    def test_from_pairs_drops_zero_weights(self):
        mu = DiscreteMeasure.from_pairs([(atom_point(0), 1.0), (atom_point(1), 0.0)])
        assert len(mu.atoms) == 1

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_pairs([(atom_point(0), -0.1)])

    def test_zero_measure(self):
        z = DiscreteMeasure.zero()
        assert z.is_zero
        assert not z.is_probability()
        assert z.mass_at(atom_point(0)) == 0.0

    def test_dirac(self):
        d = DiscreteMeasure.dirac(cont_point(0.3))
        assert d.is_probability()
        assert d.mass_at(cont_point(0.3)) == 1.0

    def test_is_probability_tolerance(self):
        mu = DiscreteMeasure.from_pairs([(atom_point(0), 1.0 + 5e-10)])
        assert mu.is_probability()
        nu = DiscreteMeasure.from_pairs([(atom_point(0), 1.0 + 5e-8)])
        assert not nu.is_probability()

    def test_dict_round_trip_and_schema(self):
        mu = DiscreteMeasure.from_pairs([(atom_point(1), 0.4), (cont_point(0.7), 0.6)])
        d = mu.to_dict()
        assert d == {
            "atoms": [
                {"point": {"atom": 1}, "w": 0.4},
                {"point": {"cont": 0.7}, "w": 0.6},
            ]
        }
        back = DiscreteMeasure.from_dict(json.loads(json.dumps(d)))
        assert back == mu

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

    def test_rejects_negative_atom(self):
        with pytest.raises(ValueError):
            BaseModel(alpha=1.0, atom_probs=(-0.1, 1.1))

    def test_dict_round_trip(self):
        m = BaseModel(alpha=3.5, atom_probs=(0.25, 0.75), diffuse_weight=0.0)
        assert BaseModel.from_dict(m.to_dict()) == m
        assert m.to_dict() == {"alpha": 3.5, "atoms": [0.25, 0.75], "diffuse": 0.0}

    def test_from_dict_defaults(self):
        m = BaseModel.from_dict({"alpha": 2, "diffuse": 1.0})
        assert m.atom_probs == ()
        assert m.diffuse_weight == 1.0


class TestBlockAndPartition:
    def test_block_rejects_overlap(self):
        with pytest.raises(ValueError):
            Block(intervals=((0.0, 0.5), (0.4, 1.0)))

    def test_block_rejects_malformed_interval(self):
        with pytest.raises(ValueError):
            Block(intervals=((0.5, 0.5),))
        with pytest.raises(ValueError):
            Block(intervals=((0.2, 1.2),))

    def test_block_membership_half_open(self):
        b = Block(intervals=((0.0, 0.5),))
        assert b.contains(cont_point(0.0))
        assert b.contains(cont_point(0.499999))
        assert not b.contains(cont_point(0.5))

    def test_right_endpoint_one_is_included(self):
        b = Block(intervals=((0.5, 1.0),))
        assert b.contains(cont_point(1.0))

    def test_partition_rejects_shared_atoms(self):
        with pytest.raises(ValueError):
            Partition((Block(atoms=frozenset([0])), Block(atoms=frozenset([0]))))

    def test_partition_rejects_interval_gap(self):
        with pytest.raises(ValueError):
            Partition(
                (Block(intervals=((0.0, 0.4),)), Block(intervals=((0.5, 1.0),)))
            )

    def test_of_interval_bounds(self):
        part = Partition.of_interval_bounds((0.0, 0.2, 0.5, 1.0))
        assert part.size == 3
        assert part.block_index(cont_point(0.2)) == 1
        assert part.block_index(cont_point(1.0)) == 2
        with pytest.raises(ValueError):
            Partition.of_interval_bounds((0.0, 0.5, 0.4, 1.0))

    def test_of_atoms(self):
        part = Partition.of_atoms(3)
        assert part.size == 3
        assert part.block_index(atom_point(2)) == 2

    def test_block_index_uncovered(self):
        part = Partition.of_atoms(2)
        with pytest.raises(ValueError):
            part.block_index(atom_point(5))

    def test_validate_for(self):
        model = BaseModel(alpha=1.0, atom_probs=(0.4, 0.6))
        Partition.of_atoms(2).validate_for(model)
        with pytest.raises(ValueError):
            Partition.of_atoms(1).validate_for(model)
        diffuse = BaseModel(alpha=1.0, atom_probs=(), diffuse_weight=1.0)
        with pytest.raises(ValueError):
            # no intervals although the model has diffuse mass
            Partition((Block(),)).validate_for(diffuse)


class TestNuAndProjection:
    def test_nu_of_mixed_block(self):
        model = BaseModel(alpha=2.0, atom_probs=(0.2, 0.35), diffuse_weight=0.45)
        b = Block(atoms=frozenset([0]), intervals=((0.0, 0.5),))
        assert nu_of(model, b) == pytest.approx(0.2 + 0.45 * 0.5)

    def test_nu_of_unknown_atom(self):
        model = BaseModel(alpha=1.0, atom_probs=(1.0,))
        with pytest.raises(ValueError):
            nu_of(model, Block(atoms=frozenset([3])))

    def test_block_probabilities_sum_to_one(self):
        model = BaseModel(alpha=2.0, atom_probs=(0.2, 0.35), diffuse_weight=0.45)
        part = Partition(
            (
                Block(atoms=frozenset([0])),
                Block(atoms=frozenset([1])),
                Block(intervals=((0.0, 1.0),)),
            )
        )
        probs = block_probabilities(model, part)
        assert probs == pytest.approx([0.2, 0.35, 0.45])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_project(self):
        mu = DiscreteMeasure.from_pairs(
            [(atom_point(0), 0.5), (atom_point(1), 0.25), (cont_point(0.9), 0.25)]
        )
        part = Partition(
            (
                Block(atoms=frozenset([0, 1])),
                Block(intervals=((0.0, 1.0),)),
            )
        )
        assert project(mu, part) == pytest.approx([0.75, 0.25])

    def test_project_normalizes(self):
        mu = DiscreteMeasure.from_pairs([(atom_point(0), 3.0), (atom_point(1), 1.0)])
        assert project(mu, Partition.of_atoms(2)) == pytest.approx([0.75, 0.25])

    def test_project_zero_measure_raises(self):
        with pytest.raises(ValueError):
            project(DiscreteMeasure.zero(), Partition.of_atoms(1))


class TestIsGood:
    def test_diffuse_always_good(self):
        assert is_good(BaseModel(alpha=1.0, atom_probs=(), diffuse_weight=1.0))
        assert not is_good(BaseModel(alpha=1.0, atom_probs=(0.5, 0.5), diffuse_weight=0.0))
        assert is_good(BaseModel(alpha=1.0, atom_probs=(0.5, 0.4), diffuse_weight=0.1))

    def test_single_atom_not_good(self):
        assert not is_good(BaseModel(alpha=2.0, atom_probs=(1.0,)))

    def test_half_half_not_good(self):
        assert not is_good(BaseModel(alpha=2.0, atom_probs=(0.5, 0.5)))

    def test_quarter_split_good(self):
        assert is_good(BaseModel(alpha=2.0, atom_probs=(0.25, 0.75)))

    def test_four_equal_quarters_good(self):
        # single atom has mass 1/4, which qualifies
        assert is_good(BaseModel(alpha=1.0, atom_probs=(0.25,) * 4))

    def test_subset_sum_picks_out_good_set(self):
        # every single atom is 0.5 or nothing, but no: {0.5, 0.3, 0.2}
        # already has single atoms qualifying; craft one where only a
        # 2-subset qualifies: impossible with few atoms unless singles are
        # 0.5; use {0.5, 0.5} plus zero-weight atoms -> still bad.
        assert not is_good(BaseModel(alpha=1.0, atom_probs=(0.5, 0.5, 0.0)))

    def test_many_atoms_greedy_path(self):
        probs = tuple([1.0 / 32] * 32)
        assert is_good(BaseModel(alpha=1.0, atom_probs=probs))
