"""Factorized learning against the dense reference in oracles.py.

The package computes each triple's fit statistics from per-side summaries;
the reference builds the whole pair x feature matrix.  Both must agree
exactly on the statistics and on the ranking.  Ranked coefficients agree
within 1e-9.  Where the ridge system is so ill-conditioned that neither
floating-point fit is that close to its exact solution (tiny or
near-singular triples, condition numbers near 1e9), the package's ranked
coefficients must instead lie within the forward-error bound of a stable
solve, eps * condition number, of the exact rational solution.  Unranked
coefficients are not compared: in rank-deficient triples the coefficients
below the floor are solver noise that depends on the order of summation.
"""

import random
from collections import Counter

import numpy as np
import pytest

from oracles import (
    dense_learning_data,
    dense_ranking,
    design_statistics,
    exact_ridge_fit,
    random_small_policy,
)

from abacfill import prediction
from abacfill.clustering import ClusteringConfig, Group, cluster_objects
from abacfill.evaluate import Tri, ValueIndex, eval_atomic_constraint
from abacfill.features import (
    assemble,
    build_learning_data,
    constraint_matrix,
    rank_features,
    side_summary,
)
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import HarnessConfig, remove_cells
from abacfill.model import (
    MISSING,
    NULL,
    AtomicConstraint,
    AttrKind,
    AttrSchema,
    Entitlement,
    EntitlementIndex,
    InsufficientDataError,
    Obj,
    ObjectModel,
    Schema,
    Side,
)
from abacfill.policy_io import policy_from_dict
from abacfill.prediction import predict_missing, relevant_group_triples


def _ranking_or_none(rank):
    try:
        return rank()
    except InsufficientDataError:
        return None


def assert_triple_matches_dense(om, gu, gr, action, entitlements):
    data = build_learning_data(om, gu, gr, action, entitlements)
    dense = dense_learning_data(om, gu, gr, action, entitlements)
    want = design_statistics(dense.matrix, dense.labels, dense.features)
    assert data.features == dense.features
    assert data.row_count == dense.row_count
    assert data.positives == want.positives
    assert np.array_equal(data.all_true, want.all_true)
    assert np.array_equal(data.sums, want.sums)
    assert np.array_equal(data.gram, want.gram)
    assert np.array_equal(data.xty, want.xty)

    got = _ranking_or_none(lambda: rank_features(om, gu, gr, data))
    ref = _ranking_or_none(lambda: dense_ranking(om, gu, gr, dense))
    assert (got is None) == (ref is None)
    if got is None:
        return
    assert [rf.feature for rf in got] == [rf.feature for rf in ref]
    assert [rf.characterizing for rf in got] == [rf.characterizing for rf in ref]
    got_coefs = np.array([rf.coefficient for rf in got])
    ref_coefs = np.array([rf.coefficient for rf in ref])
    if np.abs(got_coefs - ref_coefs).max(initial=0.0) > 1e-9:
        exact = exact_ridge_fit(dense.matrix, dense.labels)
        n, d = data.row_count, len(data.features)
        system = n * data.gram - np.outer(data.sums, data.sums) + n * 1e-8 * np.eye(d)
        bound = np.finfo(float).eps * np.linalg.cond(system) * max(1.0, np.abs(exact).max())
        ranked = [data.features.index(rf.feature) for rf in got]
        assert np.abs(got_coefs - exact[ranked]).max() <= max(1e-9, bound)


def test_random_small_policies_match_dense():
    rng = random.Random(2016)
    for _ in range(200):
        doc = random_small_policy(rng, max_side=5)
        om = policy_from_dict(doc).model
        entitlements = {
            Entitlement(u, r, a)
            for u in om.users
            for r in om.resources
            for a in om.actions
            if rng.random() < 0.4
        }
        clustering = cluster_objects(om)
        for gu in clustering.side_groups(Side.USER):
            for gr in clustering.side_groups(Side.RESOURCE):
                for action in om.actions:
                    assert_triple_matches_dense(om, gu, gr, action, entitlements)


CONSULTED = [
    ("university", 4),
    ("university", 8),
    ("university", 20),
    ("project", 10),
    ("project", 30),
]


def _consulted_setup(template, scale, fraction, clustering_config=HarnessConfig().clustering):
    policy = generate(GeneratorConfig(template=template, scale=scale, seed=scale))
    entitlements = reference_entitlements(policy)
    om = policy.model.copy()
    remove_cells(om, fraction, random.Random(scale))
    return om, cluster_objects(om, clustering_config), entitlements


@pytest.mark.parametrize("fraction", [0.06, 0.30])
@pytest.mark.parametrize("template,scale", CONSULTED)
def test_consulted_triples_match_dense(template, scale, fraction):
    om, clustering, entitlements = _consulted_setup(template, scale, fraction)
    index = EntitlementIndex(entitlements)
    triples = {}
    for side, oid, _ in om.missing_cells():
        for gu, gr, action in relevant_group_triples(clustering, index, side, oid):
            triples[(gu.gid, gr.gid, action)] = (gu, gr, action)
    assert triples
    for key in sorted(triples):
        gu, gr, action = triples[key]
        assert_triple_matches_dense(om, gu, gr, action, entitlements)


@pytest.mark.parametrize("st", [0.1, 0.25])
@pytest.mark.parametrize("fraction", [0.06, 0.30])
@pytest.mark.parametrize("template,scale", CONSULTED)
def test_triple_cache_matches_one_triple_path(monkeypatch, template, scale, fraction, st):
    """predict_missing's cache ranks every triple it consults as the
    one-triple path does, builds each group's summary once and assembles
    nothing for a triple its labels settle.  The CLI's default threshold,
    0.25, makes smaller groups and many triples with no granted pair."""
    om, clustering, entitlements = _consulted_setup(
        template, scale, fraction, ClusteringConfig(threshold=st)
    )
    caches, summaries, assembled, consulted = [], Counter(), [], {}

    class RecordingCache(prediction.TripleCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

        def ranked(self, gu, gr, action):
            before = len(assembled)
            got = super().ranked(gu, gr, action)
            seen = consulted.setdefault((gu.gid, gr.gid, action), [gu, gr, got, 0])
            assert seen[2] is got
            seen[3] += len(assembled) - before
            return got

    def counted_summary(om, group):
        summaries[(group.side, group.gid)] += 1
        return side_summary(om, group)

    def counted_assemble(*args):
        assembled.append(args)
        return assemble(*args)

    monkeypatch.setattr(prediction, "TripleCache", RecordingCache)
    monkeypatch.setattr(prediction, "side_summary", counted_summary)
    monkeypatch.setattr(prediction, "assemble", counted_assemble)
    predict_missing(om, clustering, entitlements)

    assert len(caches) == 1 and consulted
    assert max(summaries.values()) == 1
    if st == 0.25:
        assert any(got is None for _, _, got, _ in consulted.values())
    for key in sorted(consulted):
        gu, gr, got, assemblies = consulted[key]
        action = key[2]
        want = _ranking_or_none(
            lambda: rank_features(om, gu, gr, build_learning_data(om, gu, gr, action, entitlements))
        )
        assert assemblies == (0 if got is None else 1), key
        if want is None:
            assert got is None, key
            continue
        assert got is not None, key
        assert [rf.feature for rf in got] == [rf.feature for rf in want]
        assert [rf.coefficient for rf in got] == [rf.coefficient for rf in want]
        assert [rf.characterizing for rf in got] == [rf.characterizing for rf in want]


# --- the constraint encoder, one operator at a time ---

_KINDS = {"equal": ("s", "s"), "in": ("s", "m"), "contains": ("m", "s"), "supseteq": ("m", "m")}


def _encoder_model(op):
    """Users and resources covering NULL on either side, empty sets, and
    values that only one side holds."""
    ukind, rkind = _KINDS[op]
    single = ["a", "b", "only-user", NULL]
    multi = [frozenset(), frozenset({"a"}), frozenset({"a", "b"}), frozenset({"only-user"}), NULL]
    rsingle = ["a", "b", "only-res", NULL]
    rmulti = [frozenset(), frozenset({"b"}), frozenset({"a", "b"}), frozenset({"only-res"}), NULL]
    s = Schema()
    for side in (Side.USER, Side.RESOURCE):
        s.add(AttrSchema("id", AttrKind.SINGLE, side))
    s.add(AttrSchema("x", AttrKind.SINGLE if ukind == "s" else AttrKind.MULTI, Side.USER))
    s.add(AttrSchema("y", AttrKind.SINGLE if rkind == "s" else AttrKind.MULTI, Side.RESOURCE))
    om = ObjectModel(schema=s, actions=("read",))
    for i, v in enumerate(single if ukind == "s" else multi):
        om.add(Obj(f"u{i}", Side.USER, {"id": f"u{i}", "x": v}))
    for i, v in enumerate(rsingle if rkind == "s" else rmulti):
        om.add(Obj(f"r{i}", Side.RESOURCE, {"id": f"r{i}", "y": v}))
    # an id shared across the two sides, for the id constraints
    om.add(Obj("r0", Side.USER, {"id": "r0", "x": NULL}))
    return om


def _assert_encoder_matches(om, con):
    users, resources = list(om.users.values()), list(om.resources.values())
    got = constraint_matrix(con, users, ValueIndex(resources, con.res_attr))
    want = np.array(
        [[eval_atomic_constraint(u, r, con) is Tri.TRUE for r in resources] for u in users]
    )
    assert got.shape == (len(users), len(resources))
    assert np.array_equal(got, want), con.render()


@pytest.mark.parametrize("op", sorted(_KINDS))
def test_constraint_encoder_matches_evaluator(op):
    om = _encoder_model(op)
    _assert_encoder_matches(om, AtomicConstraint("x", op, "y"))


def test_constraint_encoder_on_ids():
    om = _encoder_model("equal")
    _assert_encoder_matches(om, AtomicConstraint("id", "equal", "id"))
    _assert_encoder_matches(om, AtomicConstraint("id", "equal", "y"))
    _assert_encoder_matches(om, AtomicConstraint("x", "equal", "id"))
    con = AtomicConstraint("id", "equal", "id")
    index = ValueIndex([om.resources["r0"]], "id")
    assert constraint_matrix(con, [om.users["r0"]], index).tolist() == [[True]]
    om = _encoder_model("in")
    _assert_encoder_matches(om, AtomicConstraint("id", "in", "y"))


def test_supseteq_of_empty_set_holds_unless_null():
    om = _encoder_model("supseteq")
    con = AtomicConstraint("x", "supseteq", "y")
    empty_res = [om.resources["r0"]]  # y = {}
    truth = constraint_matrix(con, list(om.users.values()), ValueIndex(empty_res, "y"))[:, 0]
    known = [om.users[u].value("x") is not NULL for u in om.users]
    assert truth.tolist() == known


def test_encoder_on_empty_sides():
    om = _encoder_model("supseteq")
    con = AtomicConstraint("x", "supseteq", "y")
    resources = ValueIndex(list(om.resources.values()), "y")
    assert constraint_matrix(con, [], resources).shape == (0, 5)
    assert constraint_matrix(con, list(om.users.values()), ValueIndex([], "y")).shape == (6, 0)


def test_all_tainted_side_gives_no_rows():
    om = _encoder_model("equal")
    for u in om.users.values():
        u.attrs["x"] = MISSING
    clustering = cluster_objects(om)
    for gu in clustering.side_groups(Side.USER):
        for gr in clustering.side_groups(Side.RESOURCE):
            data = build_learning_data(om, gu, gr, "read", set())
            assert data.row_count == 0
            assert data.all_true.all()
            assert_triple_matches_dense(om, gu, gr, "read", set())


# op -> (user attribute, resource attribute); each resource attribute is
# tested by two operators, which share its index
_SHARED = {"equal": ("xs", "ys"), "contains": ("xm", "ys"), "in": ("xs", "ym"),
           "supseteq": ("xm", "ym")}


def _shared_index_model():
    """Every combination of a single and a set value on each side, NULL and
    the empty set included."""
    single = ["a", "b", "only-user", NULL]
    multi = [frozenset(), frozenset({"a"}), frozenset({"a", "b"}), frozenset({"only-user"}), NULL]
    rsingle = ["a", "b", "only-res", NULL]
    rmulti = [frozenset(), frozenset({"b"}), frozenset({"a", "b"}), frozenset({"only-res"}), NULL]
    s = Schema()
    for side, one, many in ((Side.USER, "xs", "xm"), (Side.RESOURCE, "ys", "ym")):
        s.add(AttrSchema("id", AttrKind.SINGLE, side))
        s.add(AttrSchema(one, AttrKind.SINGLE, side))
        s.add(AttrSchema(many, AttrKind.MULTI, side))
    om = ObjectModel(schema=s, actions=("read",))
    for i in range(20):
        om.add(Obj(f"u{i}", Side.USER, {"id": f"u{i}", "xs": single[i % 4], "xm": multi[i % 5]}))
        om.add(Obj(f"r{i}", Side.RESOURCE,
                   {"id": f"r{i}", "ys": rsingle[i % 4], "ym": rmulti[i % 5]}))
    return om


def test_one_value_index_serves_every_constraint_on_its_attribute():
    om = _shared_index_model()
    users, resources = list(om.users.values()), list(om.resources.values())
    indexes = {attr: ValueIndex(resources, attr) for attr in ("ys", "ym")}
    assert indexes["ym"].empty == [0, 5, 10, 15]
    # a second round over the same indexes: probing leaves them as they were
    for _ in range(2):
        for op, (ua, ra) in sorted(_SHARED.items()):
            con = AtomicConstraint(ua, op, ra)
            got = constraint_matrix(con, users, indexes[ra])
            want = [[eval_atomic_constraint(u, r, con) is Tri.TRUE for r in resources]
                    for u in users]
            assert np.array_equal(got, np.array(want)), con.render()


def test_side_summary_builds_each_index_once():
    om = _shared_index_model()
    summary = side_summary(om, Group(1, Side.RESOURCE, tuple(om.resources)))
    assert summary.index("ym") is summary.index("ym")
    assert summary.index("ym") is not summary.index("ys")
    assert [r.id for r in summary.rows] == list(om.resources)
