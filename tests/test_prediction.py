"""Prediction tests.  Campus expectations are hand-derived: the only
entitlement of the user with unknown cells links it to one gradebook, and
the taught-course constraint sits at rank 3 in that triple's ranking."""

import pytest

from abacfill.clustering import cluster_objects
from abacfill.features import Feature, RankedFeature
from abacfill.model import (
    MISSING,
    NULL,
    AtomicCondition,
    AtomicConstraint,
    AttrKind,
    AttrSchema,
    ConfigError,
    Entitlement,
    EntitlementIndex,
    Obj,
    ObjectModel,
    Schema,
    Side,
)
from abacfill.prediction import (
    Confidence,
    PredictionConfig,
    TripleCache,
    predict_cell,
    predict_missing,
    relevant_group_triples,
)


@pytest.fixture
def campus(campus_policy, campus_entitlements):
    om = campus_policy.model
    clustering = cluster_objects(om)
    cache = TripleCache(om, campus_entitlements)
    return om, clustering, cache


def test_relevant_triples_for_user(campus):
    om, clustering, cache = campus
    triples = relevant_group_triples(clustering, cache.entitlements, Side.USER, "csFac1")
    assert [(gu.gid, gr.gid, a, ids) for gu, gr, a, ids in triples] == [
        (1, 3, "modify", ["cs101gb"])
    ]


def test_relevant_triples_empty_without_entitlements(campus):
    om, clustering, cache = campus
    assert relevant_group_triples(clustering, cache.entitlements, Side.USER, "csStu1") == []


def test_predict_taught_courses_high(campus):
    om, clustering, cache = campus
    p = predict_cell(clustering, cache, Side.USER, "csFac1", "coursesTaught")
    assert p.confidence is Confidence.HIGH
    assert p.value == frozenset({"cs101"})
    assert any(
        e.feature == "coursesTaught contains course" and e.rank == 3 and e.values == ("cs101",)
        for e in p.evidence
    )


def test_predict_department_has_no_information(campus):
    om, clustering, cache = campus
    p = predict_cell(clustering, cache, Side.USER, "csFac1", "department")
    assert p.confidence is Confidence.NEI
    assert p.value is None
    assert not p.predicted


def test_predict_missing_order_and_content(campus_policy, campus_entitlements):
    om = campus_policy.model
    clustering = cluster_objects(om)
    preds = predict_missing(om, clustering, campus_entitlements)
    assert [(p.object_id, p.attr) for p in preds] == [
        ("csFac1", "coursesTaught"),
        ("csFac1", "department"),
    ]


def test_rank_gates_downgrade_confidence(campus):
    om, clustering, cache = campus
    tight = PredictionConfig(high_rank_limit=2, medium_rank_limit=5)
    p = predict_cell(clustering, cache, Side.USER, "csFac1", "coursesTaught", tight)
    assert p.confidence is Confidence.MEDIUM
    assert p.value == frozenset({"cs101"})

    cutoff = PredictionConfig(high_rank_limit=2, medium_rank_limit=2)
    p2 = predict_cell(clustering, cache, Side.USER, "csFac1", "coursesTaught", cutoff)
    assert p2.confidence is Confidence.NEI


def test_gate_config_validation():
    with pytest.raises(ConfigError):
        PredictionConfig(high_rank_limit=4, medium_rank_limit=3)
    with pytest.raises(ConfigError):
        PredictionConfig(high_rank_limit=0)


def test_unknown_counterpart_cells_contribute_nothing(campus_policy, campus_entitlements):
    om = campus_policy.model
    om.resources["cs101gb"].attrs["course"] = MISSING
    clustering = cluster_objects(om)
    cache = TripleCache(om, campus_entitlements)
    p = predict_cell(clustering, cache, Side.USER, "csFac1", "coursesTaught")
    # the only linked counterpart's course is itself unknown: no echo
    assert p.confidence is Confidence.NEI
    assert p.value is None


def test_gather_respects_the_triple_action(campus_policy, campus_entitlements):
    om = campus_policy.model
    ents = set(campus_entitlements) | {Entitlement("csFac1", "ee601gb", "read")}
    clustering = cluster_objects(om)
    cache = TripleCache(om, EntitlementIndex(ents))
    p = predict_cell(clustering, cache, Side.USER, "csFac1", "coursesTaught")
    # ee601gb is linked only under another action, so its course stays out
    assert p.value == frozenset({"cs101"})
    assert p.confidence is Confidence.HIGH


def test_cell_must_be_unknown(campus):
    om, clustering, cache = campus
    with pytest.raises(ConfigError):
        predict_cell(clustering, cache, Side.USER, "csFac2", "coursesTaught")


def test_triple_cache_memoizes(campus):
    om, clustering, cache = campus
    gu = clustering.groups[0]
    gr = clustering.groups[2]
    first = cache.ranked(gu, gr, "modify")
    assert cache.ranked(gu, gr, "modify") is first


def _dept_model():
    s = Schema()
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("dept", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("role", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.RESOURCE))
    s.add(AttrSchema("dept", AttrKind.SINGLE, Side.RESOURCE))
    om = ObjectModel(schema=s, actions=("read",))
    om.add(Obj("u1", Side.USER, {"id": "u1", "dept": MISSING, "role": "emp"}))
    om.add(Obj("u2", Side.USER, {"id": "u2", "dept": "aa", "role": "emp"}))
    om.add(Obj("u3", Side.USER, {"id": "u3", "dept": "ab", "role": "emp"}))
    om.add(Obj("ra", Side.RESOURCE, {"id": "ra", "dept": "aa"}))
    om.add(Obj("rb", Side.RESOURCE, {"id": "rb", "dept": "ab"}))
    ents = EntitlementIndex([
        Entitlement("u2", "ra", "read"),
        Entitlement("u3", "rb", "read"),
        Entitlement("u1", "ra", "read"),
        Entitlement("u1", "rb", "read"),
    ])
    return om, ents


def test_single_cell_tie_breaks_on_smaller_value():
    om, ents = _dept_model()
    clustering = cluster_objects(om)
    cache = TripleCache(om, ents)
    p = predict_cell(clustering, cache, Side.USER, "u1", "dept")
    # both departments arrive from the same constraint at the same rank
    assert p.confidence is Confidence.HIGH
    assert p.value == "aa"


class _FixedCache:
    """Cache stub returning a preset ranking per (gu, gr, action) key."""

    def __init__(self, om, entitlements, rankings):
        self.om = om
        self.entitlements = EntitlementIndex(entitlements)
        self._rankings = rankings

    def ranked(self, gu, gr, action):
        return self._rankings.get((gu.gid, gr.gid, action))


def test_multi_cell_takes_all_values_at_weakest_confidence():
    s = Schema()
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("tags", AttrKind.MULTI, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.RESOURCE))
    s.add(AttrSchema("req", AttrKind.MULTI, Side.RESOURCE))
    s.add(AttrSchema("topic", AttrKind.SINGLE, Side.RESOURCE))
    om = ObjectModel(schema=s, actions=("read",))
    om.add(Obj("u1", Side.USER, {"id": "u1", "tags": MISSING}))
    om.add(Obj("r1", Side.RESOURCE, {"id": "r1", "req": frozenset({"a", "b"}), "topic": "c"}))
    om.add(Obj("r2", Side.RESOURCE, {"id": "r2", "req": NULL, "topic": "d"}))
    ents = {Entitlement("u1", "r1", "read"), Entitlement("u1", "r2", "read")}
    clustering = cluster_objects(om)
    g_u = clustering.users["u1"]
    g_r1, g_r2 = clustering.resources["r1"], clustering.resources["r2"]
    assert g_r1.gid != g_r2.gid  # applicability split keeps them apart

    filler = Feature(Side.RESOURCE, AtomicCondition("topic", "in", frozenset({"x"})))
    wants = Feature(constraint=AtomicConstraint("tags", "supseteq", "req"))
    covers = Feature(constraint=AtomicConstraint("tags", "contains", "topic"))

    def entry(f):
        return RankedFeature(f, 0.9, False)

    rankings = {
        (g_u.gid, g_r1.gid, "read"): (entry(filler), entry(wants)),
        (g_u.gid, g_r2.gid, "read"): (
            entry(filler), entry(filler), entry(filler), entry(covers)
        ),
    }
    cache = _FixedCache(om, ents, rankings)
    p = predict_cell(clustering, cache, Side.USER, "u1", "tags")
    # elements a, b arrive at rank 2 (high); d arrives at rank 4 (medium)
    assert p.value == frozenset({"a", "b", "d"})
    assert p.confidence is Confidence.MEDIUM
    ranks = {e.rank for e in p.evidence if e.feature != filler.render()}
    assert ranks == {2, 4}
