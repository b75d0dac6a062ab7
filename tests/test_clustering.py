"""Clustering tests.  Similarity numbers are worked out by hand; the campus
group structure asserted here was derived from those pairwise values."""

import pytest

from abacfill.clustering import (
    ClusteringConfig,
    active_attributes,
    cluster_objects,
    object_similarity,
    partition_by_signature,
    value_similarity,
)
from abacfill.model import (
    MISSING,
    NULL,
    AttrKind,
    AttrSchema,
    ConfigError,
    Obj,
    ObjectModel,
    Schema,
    Side,
)


def test_value_similarity_cases():
    assert value_similarity("a", "a") == 1.0
    assert value_similarity("a", "b") == 0.0
    assert value_similarity(MISSING, "a") == 0.5
    assert value_similarity("a", MISSING) == 0.5
    assert value_similarity(MISSING, MISSING) == 0.5
    assert value_similarity(frozenset({"a", "b"}), frozenset({"b", "c"})) == pytest.approx(1 / 3)
    assert value_similarity(frozenset(), frozenset()) == 1.0
    assert value_similarity("a", frozenset({"a", "b"})) == 0.5


def test_active_attributes_counts_missing_not_null(campus_policy):
    u1 = campus_policy.model.users["csFac1"]
    assert active_attributes(u1) == frozenset({"id", "position", "department", "coursesTaught"})


def test_campus_pairwise_similarities(campus_policy):
    om = campus_policy.model
    cfg = ClusteringConfig()
    sim = lambda a, b: object_similarity(om.users[a], om.users[b], cfg)
    # id differs (0), position agrees (1), unknown cells score 0.5
    assert sim("csFac1", "csFac2") == pytest.approx(0.5)
    assert sim("csFac1", "eeFac1") == pytest.approx(0.5)
    assert sim("csFac2", "eeFac1") == pytest.approx(0.25)
    assert sim("eeFac1", "eeFac2") == pytest.approx(0.5)
    assert sim("csStu1", "eeStu1") == pytest.approx(0.25)

    rsim = lambda a, b: object_similarity(om.resources[a], om.resources[b], cfg)
    assert rsim("cs101gb", "cs601gb") == pytest.approx(0.5)
    assert rsim("cs101gb", "ee101gb") == pytest.approx(0.25)
    assert rsim("csStu1trans", "eeStu1trans") == pytest.approx(0.25)


def test_signature_partition_separates_applicability(campus_policy):
    om = campus_policy.model
    buckets = partition_by_signature(om.users.values())
    ids = [sorted(o.id for o in b) for b in buckets]
    assert ids == [["csFac1", "csFac2", "eeFac1", "eeFac2"], ["csStu1", "eeStu1"]]


def _partition_by_active_attributes(objects) -> list:
    buckets = {}
    for obj in objects:
        buckets.setdefault(active_attributes(obj), []).append(obj)
    return list(buckets.values())


def test_signature_buckets_equal_the_active_attribute_partition(campus_policy):
    """Buckets, their order and their members' order are those of keying
    each object by active_attributes, also for hand-built objects whose
    cells leave out some declared attributes or list them in another order."""
    objects = list(campus_policy.model.users.values()) + [
        Obj("h1", Side.USER, {"id": "h1", "position": "faculty"}),
        Obj("h2", Side.USER, {"position": "staff", "id": "h2"}),
        Obj("h3", Side.USER, {"id": "h3", "department": MISSING}),
        Obj("h4", Side.USER, {"id": "h4", "position": NULL, "department": MISSING}),
        Obj("h5", Side.USER, {"id": "h5"}),
        Obj("h6", Side.USER, {"id": "h6", "coursesTaken": frozenset()}),
    ]
    for order in (objects, objects[::-1]):
        got = partition_by_signature(order)
        assert [[o.id for o in b] for b in got] == [
            [o.id for o in b] for b in _partition_by_active_attributes(order)
        ]
    assert [o.id for o in partition_by_signature(objects)[-4]] == ["h1", "h2"]


def test_campus_clustering_structure(campus_policy):
    clustering = cluster_objects(campus_policy.model)
    members = [g.members for g in clustering.groups]
    assert members == [
        ("csFac1", "csFac2", "eeFac1", "eeFac2"),
        ("csStu1", "eeStu1"),
        ("cs101gb", "cs601gb", "ee101gb", "ee601gb", "ee602gb"),
        ("csStu1trans", "eeStu1trans"),
    ]
    assert [g.gid for g in clustering.groups] == [1, 2, 3, 4]
    assert [g.side for g in clustering.groups] == [Side.USER, Side.USER, Side.RESOURCE, Side.RESOURCE]
    assert clustering.users["eeFac2"].gid == 1
    assert clustering.resources["ee602gb"].gid == 3


def _tag_model(*tag_rows):
    """Users with one or two tag attributes; rows are (id, tag1[, tag2])."""
    width = len(tag_rows[0]) - 1
    s = Schema()
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.RESOURCE))
    for i in range(width):
        s.add(AttrSchema(f"tag{i + 1}", AttrKind.SINGLE, Side.USER))
    om = ObjectModel(schema=s, actions=("read",))
    for row in tag_rows:
        attrs = {"id": row[0]}
        for i, v in enumerate(row[1:]):
            attrs[f"tag{i + 1}"] = v
        om.add(Obj(row[0], Side.USER, attrs))
    return om


def test_refinement_splits_dissimilar_member():
    om = _tag_model(("a", "x"), ("b", "x"), ("c", "y"))
    clustering = cluster_objects(om, ClusteringConfig(threshold=0.25))
    assert [g.members for g in clustering.groups] == [("a", "b"), ("c",)]


def test_threshold_zero_means_signature_partition_only():
    om = _tag_model(("a", "x"), ("b", "x"), ("c", "y"))
    clustering = cluster_objects(om, ClusteringConfig(threshold=0.0))
    assert [g.members for g in clustering.groups] == [("a", "b", "c")]


def test_movers_leave_together_not_one_group_each():
    om = _tag_model(("a", "x"), ("b", "x"), ("c", "x"), ("d", "y"), ("e", "y"))
    clustering = cluster_objects(om, ClusteringConfig(threshold=0.25))
    assert [g.members for g in clustering.groups] == [("a", "b", "c"), ("d", "e")]


def test_degenerate_split_is_fixed_point():
    # every member scores below the threshold, so nobody can leave
    om = _tag_model(("a", "x"), ("b", "y"), ("c", "z"))
    clustering = cluster_objects(om, ClusteringConfig(threshold=0.25))
    assert [g.members for g in clustering.groups] == [("a", "b", "c")]


def test_mover_set_is_refined_again():
    om = _tag_model(
        ("a", "x", "p"),
        ("b", "x", "p"),
        ("c", "x", "q"),
        ("d", "z", "r"),
        ("e", "z", "r"),
    )
    # first pass moves {c, d, e}; the second pass inside the movers
    # separates c from the d/e pair
    clustering = cluster_objects(om, ClusteringConfig(threshold=0.25))
    assert [g.members for g in clustering.groups] == [("a", "b"), ("d", "e"), ("c",)]


def test_threshold_and_weights_are_read_as_written():
    # c shares one of five attributes with a and none with b, so its mean
    # is exactly 1/10; the binary float nearest 0.1 lies just above that
    om = _tag_model(("a", "x", "p", "q", "r"), ("b", "y", "p", "q", "r"), ("c", "x", "s", "t", "u"))
    groups = lambda threshold, weights=None: [
        g.members for g in cluster_objects(om, ClusteringConfig(threshold, weights or {})).groups
    ]
    assert groups(0.1) == [("a", "b", "c")]
    assert groups(0.1000001) == [("a", "b"), ("c",)]
    # weights 0.3, 0.3 and 0.2 are exactly 3:3:2, which puts c's mean at 1/8
    assert groups(0.125, {"id": 0.3, "tag1": 0.3, "tag2": 0.2, "tag3": 0.2, "tag4": 0.2}) == [
        ("a", "b", "c")
    ]


def test_attribute_weights_shift_similarity():
    om = _tag_model(("a", "x", "p"), ("b", "x", "q"))
    a, b = om.users["a"], om.users["b"]
    assert object_similarity(a, b, ClusteringConfig()) == pytest.approx(1 / 3)
    heavy = ClusteringConfig(weights={"tag1": 3.0})
    assert object_similarity(a, b, heavy) == pytest.approx(3 / 5)


def test_config_validation():
    with pytest.raises(ConfigError):
        cluster_objects(_tag_model(("a", "x")), ClusteringConfig(threshold=1.5))
    with pytest.raises(ConfigError):
        cluster_objects(_tag_model(("a", "x")), ClusteringConfig(weights={"tag1": 0.0}))


def test_clustering_is_deterministic(campus_policy):
    c1 = cluster_objects(campus_policy.model)
    c2 = cluster_objects(campus_policy.model)
    assert [g.members for g in c1.groups] == [g.members for g in c2.groups]
    for g in c1.groups:
        table = c2.users if g.side is Side.USER else c2.resources
        assert [table[m] for m in g.members] == [g] * len(g.members)


def test_singleton_object_is_its_own_group():
    om = _tag_model(("a", "x"))
    clustering = cluster_objects(om)
    assert [g.members for g in clustering.groups] == [("a",)]
