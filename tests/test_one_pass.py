"""The readers of a predict pass that walk the model once, against the
slower walks in oracles.py they replaced: constraint candidates, unknown
cells, untainted objects and a constraint's counterpart values.  Also the
cell layout of new objects as the schema grows, and that one prediction
builds no value index over a whole side."""

import random
from collections import Counter
from unittest import mock

import pytest

from oracles import (
    all_constraint_features,
    member_walk_constraint_values,
    random_small_policy,
    scanned_missing_cells,
    value_index_constraint_features,
    with_cross_side_values,
)

from abacfill import features as features_module
from abacfill.clustering import ClusteringConfig, cluster_objects
from abacfill.features import constraint_features, is_untainted
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import remove_cells
from abacfill.model import (
    MISSING,
    NULL,
    AttrKind,
    AttrSchema,
    Entitlement,
    EntitlementIndex,
    ObjectModel,
    Schema,
    Side,
)
from abacfill.policy_io import policy_from_dict
from abacfill.prediction import _gather_constraint_values, predict_missing, relevant_group_triples


def _random_models(seed, draws, max_side):
    """Random models with NULL, MISSING and empty-set cells, some values
    shared across the sides and some ids in cells of the other side."""
    rng = random.Random(seed)
    for _ in range(draws):
        doc = with_cross_side_values(rng, random_small_policy(rng, max_side=max_side))
        yield policy_from_dict(doc).model


def _damaged_models():
    """Generated models of both templates with a share of cells hidden."""
    for template in ("university", "project"):
        for scale, seed, fraction in ((1, 3, 0.3), (2, 5, 0.06), (3, 8, 0.5)):
            om = generate(GeneratorConfig(template=template, scale=scale, seed=seed)).model.copy()
            remove_cells(om, fraction, random.Random(seed))
            yield om


@pytest.mark.parametrize("max_side", [3, 6, 10])
def test_constraint_candidates_match_whole_side_value_indexes(max_side):
    seen = Counter()
    for om in _random_models(max_side, 150, max_side):
        got = constraint_features(om)
        assert got == value_index_constraint_features(om)
        every = all_constraint_features(om)
        seen["kept"] += len(got)
        seen["left out"] += len(every) - len(got)
        for r in om.resources.values():
            seen["empty resource set"] += r.value("ra_m") == frozenset()
    assert seen["kept"] and seen["left out"] and seen["empty resource set"]


def test_constraint_candidates_match_on_damaged_generated_models():
    for om in _damaged_models():
        assert constraint_features(om) == value_index_constraint_features(om)


def test_missing_cells_and_untainted_objects_match_the_cell_walks():
    seen = Counter()
    models = list(_random_models(21, 200, 6)) + list(_damaged_models())
    for om in models:
        assert om.missing_cells() == scanned_missing_cells(om)
        for obj in list(om.users.values()) + list(om.resources.values()):
            untainted = all(v is not MISSING for v in obj.attrs.values())
            assert is_untainted(obj) == untainted
            seen[untainted] += 1
    assert seen[True] and seen[False]


def test_new_keeps_schema_order_after_a_later_add():
    s = Schema()
    s.add(AttrSchema("dept", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.RESOURCE))
    om = ObjectModel(schema=s)
    om.new(Side.USER, "u1", dept="cs")
    s.add(AttrSchema("tags", AttrKind.MULTI, Side.USER))
    s.add(AttrSchema("owner", AttrKind.SINGLE, Side.RESOURCE))
    s.add(AttrSchema("area", AttrKind.SINGLE, Side.USER))
    om.new(Side.USER, "u2", area="ai")
    om.new(Side.RESOURCE, "r1")
    assert list(om.users["u1"].attrs.items()) == [("id", "u1"), ("dept", "cs")]
    assert list(om.users["u2"].attrs.items()) == [
        ("id", "u2"), ("dept", NULL), ("tags", NULL), ("area", "ai"),
    ]
    assert list(om.resources["r1"].attrs.items()) == [("id", "r1"), ("owner", NULL)]
    for side, table in ((Side.USER, om.users), (Side.RESOURCE, om.resources)):
        declared = [a.name for a in s.for_side(side) if a.name != "id"]
        assert list(table[max(table)].attrs) == ["id"] + declared
    # every new object gets cells of its own
    om.users["u2"].attrs["dept"] = "ee"
    om.new(Side.USER, "u3")
    assert om.users["u3"].attrs["dept"] is NULL
    # a schema built from declarations starts from the same cells
    assert Schema(dict(s.attrs)).blank(Side.USER) == s.blank(Side.USER)


@pytest.mark.parametrize("max_side", [4, 8])
def test_gathered_values_match_the_member_walk(max_side):
    """Walking the object's entitled ids in order and testing membership
    in the counterpart group finds the values that walking every member of
    the group finds, in the same order."""
    rng = random.Random(100 + max_side)
    seen = Counter()
    for om in _random_models(max_side, 60, max_side):
        pairs = [(u, r, a) for u in om.users for r in om.resources for a in om.actions]
        index = EntitlementIndex(
            Entitlement(*e) for e in rng.sample(pairs, rng.randint(0, len(pairs)))
        )
        clustering = cluster_objects(om, ClusteringConfig(threshold=rng.choice([0.1, 0.5, 0.9])))
        for side in Side:
            for oid in om.side_objects(side):
                for gu, gr, action in relevant_group_triples(clustering, index, side, oid):
                    group = gr if side is Side.USER else gu
                    other = Side.RESOURCE if side is Side.USER else Side.USER
                    linked = (index.resources(oid, action) if side is Side.USER
                              else index.users(oid, action))
                    seen["linked outside the group"] += any(
                        clustering.group_of(other, c) is not group for c in linked
                    )
                    for f in all_constraint_features(om):
                        args = (side, oid, gu, gr, action, f.constraint)
                        got = _gather_constraint_values(om, clustering, index, *args)
                        assert got == member_walk_constraint_values(om, index, *args)
                        seen["values"] += len(got)
    assert seen["values"] and seen["linked outside the group"]


def test_one_prediction_builds_no_value_index_over_a_whole_side():
    policy = generate(GeneratorConfig(template="university", scale=4, seed=1))
    entitlements = EntitlementIndex(reference_entitlements(policy))
    om = policy.model.copy()
    remove_cells(om, 0.06, random.Random(1))
    clustering = cluster_objects(om, ClusteringConfig(threshold=0.1))
    built = []
    real = features_module.ValueIndex

    class Recording(real):
        def __init__(self, objs, attr):
            built.append(frozenset((o.side, o.id) for o in objs))
            super().__init__(objs, attr)

    with mock.patch.object(features_module, "ValueIndex", Recording):
        predictions = predict_missing(om, clustering, entitlements)
    assert any(p.predicted for p in predictions)
    assert built
    for side, table in ((Side.USER, om.users), (Side.RESOURCE, om.resources)):
        whole = frozenset((side, oid) for oid in table)
        assert all(len(g.members) < len(table) for g in clustering.side_groups(side))
        assert whole not in built
