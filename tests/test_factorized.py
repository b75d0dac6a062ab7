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
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracles import (
    all_constraint_features,
    canonical_key,
    dense_learning_data,
    dense_ranking,
    design_statistics,
    exact_ridge_fit,
    extent_supports,
    full_gram,
    random_small_policy,
    scanned_group_triples,
    side_groups,
    with_cross_side_values,
)

from abacfill import prediction
from abacfill.clustering import ClusteringConfig, Group, cluster_objects
from abacfill.evaluate import Tri, ValueIndex, eval_atomic_constraint, matches
from abacfill.features import (
    GroupSide,
    build_learning_data,
    constraint_features,
    labels,
    rank_features,
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
from abacfill.prediction import TripleCache, predict_missing, relevant_group_triples


def _ranking_or_none(rank):
    try:
        return rank()
    except InsufficientDataError:
        return None


def assert_canonical(data):
    """The columns run in canonical order, which ranking reads off their
    indexes: strictly ascending canonical keys."""
    keys = [canonical_key(f) for f in data.features]
    assert all(a < b for a, b in zip(keys, keys[1:])), keys


def assert_triple_matches_dense(om, gu, gr, action, entitlements):
    data = TripleCache(om, EntitlementIndex(entitlements)).learning_data(gu, gr, action)
    dense = dense_learning_data(om, gu, gr, action, entitlements)
    want = design_statistics(dense.matrix, dense.labels, dense.features)
    assert data.features == dense.features
    assert data.row_count == dense.row_count
    assert data.positives == want.positives
    assert np.array_equal(data.all_true, want.all_true)
    assert np.array_equal(data.sums, want.sums)
    assert np.array_equal(full_gram(data), full_gram(want))
    assert np.array_equal(data.xty, want.xty)

    got = _ranking_or_none(lambda: rank_features(gu, gr, data))
    ref = _ranking_or_none(lambda: dense_ranking(om, gu, gr, dense))
    assert (got is None) == (ref is None)
    if got is None:
        return
    assert [rf.feature for rf in got] == [rf.feature for rf in ref]
    assert [rf.characterizing for rf in got] == [rf.characterizing for rf in ref]
    if _coefficient_gap(got, ref) > 1e-9:
        exact = exact_ridge_fit(dense.matrix, dense.labels)
        assert_near_exact(got, data, dict(zip(dense.features, exact)))


def _coefficient_gap(got, ref) -> float:
    got_coefs = np.array([rf.coefficient for rf in got])
    ref_coefs = np.array([rf.coefficient for rf in ref])
    return np.abs(got_coefs - ref_coefs).max(initial=0.0)


def assert_near_exact(ranked, data, exact):
    """The ranked coefficients lie within the forward-error bound of a
    stable solve of data's ridge system, eps * its condition number, of
    the exact solution, given as feature -> coefficient."""
    n, d = data.row_count, len(data.features)
    system = n * full_gram(data) - np.outer(data.sums, data.sums) + n * 1e-8 * np.eye(d)
    scale = max(1.0, max(abs(c) for c in exact.values()))
    bound = np.finfo(float).eps * np.linalg.cond(system) * scale
    got = np.array([rf.coefficient for rf in ranked])
    want = np.array([exact[rf.feature] for rf in ranked])
    assert np.abs(got - want).max() <= max(1e-9, bound)


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
        for gu in side_groups(clustering, Side.USER):
            for gr in side_groups(clustering, Side.RESOURCE):
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


def _consulted_triples(om, clustering, entitlements) -> list:
    """(user group, resource group, action) of every triple prediction
    consults, in key order."""
    index = EntitlementIndex(entitlements)
    triples = {}
    for side, oid, _ in om.missing_cells():
        for gu, gr, action, _ in relevant_group_triples(clustering, index, side, oid):
            triples[(gu.gid, gr.gid, action)] = (gu, gr, action)
    return [triples[key] for key in sorted(triples)]


@pytest.mark.parametrize("fraction", [0.06, 0.30])
@pytest.mark.parametrize("template,scale", CONSULTED)
def test_relevant_triples_match_the_entitlement_scan(template, scale, fraction):
    """Every object's relevant triples and their counterparts, read off the
    index's adjacency, are those a scan of every entitlement for the
    object's own finds."""
    om, clustering, entitlements = _consulted_setup(template, scale, fraction)
    index = EntitlementIndex(entitlements)
    found = 0
    for side in Side:
        for oid in om.side_objects(side):
            got = relevant_group_triples(clustering, index, side, oid)
            assert got == scanned_group_triples(clustering, entitlements, side, oid)
            found += len(got)
    assert found


@pytest.mark.parametrize("fraction", [0.06, 0.30])
@pytest.mark.parametrize("template,scale", CONSULTED)
def test_consulted_triples_match_dense(template, scale, fraction):
    om, clustering, entitlements = _consulted_setup(template, scale, fraction)
    triples = _consulted_triples(om, clustering, entitlements)
    assert triples
    for gu, gr, action in triples:
        assert_triple_matches_dense(om, gu, gr, action, entitlements)


@pytest.mark.parametrize("fraction", [0.06, 0.30])
@pytest.mark.parametrize("template,scale", CONSULTED)
def test_pruned_constraints_rank_as_all_constraints(template, scale, fraction):
    """Leaving out the constraints that share no value across the model
    changes no ranking: each left-out column is zero in every consulted
    triple, so its coefficient is zero and it never ranks."""
    om, clustering, entitlements = _consulted_setup(template, scale, fraction)
    pruned, every = constraint_features(om), all_constraint_features(om)
    assert set(pruned) < set(every)
    dropped = np.array([f not in pruned for f in every])
    summaries = {}
    cache = TripleCache(om, EntitlementIndex(entitlements))
    triples = _consulted_triples(om, clustering, entitlements)
    assert triples
    for gu, gr, action in triples:
        for group in (gu, gr):
            if (group.side, group.gid) not in summaries:
                summaries[group.side, group.gid] = GroupSide(om, group).summarize()
        users, resources = summaries[gu.side, gu.gid], summaries[gr.side, gr.gid]
        granted = labels(cache.reach(gu, action), resources)
        full = build_learning_data(users, resources, every, granted)
        assert_canonical(full)
        k = len(every)
        assert not np.asarray(full.sums)[-k:][dropped].any()
        assert not np.asarray(full.xty)[-k:][dropped].any()
        assert not full_gram(full)[-k:][dropped].any()
        data = build_learning_data(users, resources, pruned, granted)
        assert_canonical(data)
        got = _ranking_or_none(lambda: rank_features(gu, gr, data))
        want = _ranking_or_none(lambda: rank_features(gu, gr, full))
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert [rf.feature for rf in got] == [rf.feature for rf in want]
        assert [rf.characterizing for rf in got] == [rf.characterizing for rf in want]
        if _coefficient_gap(got, want) > 1e-9:
            # a left-out column's exact coefficient is 0 and leaves the
            # others' as they are, so one exact solution serves both fits
            dense = dense_learning_data(om, gu, gr, action, entitlements)
            exact = dict(zip(dense.features, exact_ridge_fit(dense.matrix, dense.labels)))
            assert_near_exact(got, data, exact)
            assert_near_exact(want, full, exact)


def _assert_support_matches_evaluator(om, clustering, seen):
    """Each group's supported mask is the evaluator's per-member check."""
    for group in clustering.groups:
        summary = GroupSide(om, group).summarize()
        table = om.side_objects(group.side)
        members = [table[i] for i in group.members]
        want = [extent_supports(members, f.condition) for f in summary.conditions]
        assert np.asarray(summary.supported).tolist() == want, (group.side, group.gid)
        seen.update(want)


@pytest.mark.parametrize("fraction", [0.06, 0.30])
@pytest.mark.parametrize("template,scale", CONSULTED)
def test_side_support_matches_evaluator(template, scale, fraction):
    om, clustering, _ = _consulted_setup(template, scale, fraction)
    seen = Counter()
    _assert_support_matches_evaluator(om, clustering, seen)
    assert seen[True] and seen[False]


def test_side_support_matches_evaluator_on_random_policies():
    rng = random.Random(5)
    seen = Counter()
    for _ in range(200):
        om = policy_from_dict(random_small_policy(rng, max_side=6)).model
        _assert_support_matches_evaluator(om, cluster_objects(om), seen)
    assert seen[True] and seen[False]


def test_build_learning_data_allocates_no_pair_sized_array():
    """Learning a triple, its statistics and then its gram over every
    column, allocates a small multiple of that gram, never a users x
    resources array per constraint: the constraint and label statistics
    come from lists of the pairs they hold on."""
    om, clustering, entitlements = _consulted_setup(
        "project", 60, 0.06, ClusteringConfig(threshold=0.1)
    )
    constraints = constraint_features(om)
    cache = TripleCache(om, EntitlementIndex(entitlements))
    summaries = {}

    def summary(group):
        key = (group.side, group.gid)
        if key not in summaries:
            summaries[key] = GroupSide(om, group).summarize()
        return summaries[key]

    triples = _consulted_triples(om, clustering, entitlements)
    assert triples
    for gu, gr, action in triples:
        users, resources = summary(gu), summary(gr)
        granted = labels(cache.reach(gu, action), resources)
        tracemalloc.start()
        try:
            gram = full_gram(build_learning_data(users, resources, constraints, granted))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * gram.nbytes, (gu.gid, gr.gid, action, peak, gram.nbytes)


@pytest.mark.parametrize("st", [0.1, 0.25])
@pytest.mark.parametrize("fraction", [0.06, 0.30])
@pytest.mark.parametrize("template,scale", CONSULTED)
def test_triple_cache_matches_one_triple_path(monkeypatch, template, scale, fraction, st):
    """predict_missing's cache ranks every triple it consults as the
    one-triple path does, builds each group's summary once, only for a group
    that a triple with a granted pair takes part in, and lists labels and
    builds learning data only for a triple with a granted pair.  The CLI's default
    threshold, 0.25, makes smaller groups and many triples with no granted
    pair."""
    om, clustering, entitlements = _consulted_setup(
        template, scale, fraction, ClusteringConfig(threshold=st)
    )
    index = EntitlementIndex(entitlements)
    caches, summaries, assembled, labelled, consulted = [], Counter(), [], [], {}

    class RecordingCache(prediction.TripleCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

        def ranked(self, gu, gr, action):
            before = len(assembled), len(labelled)
            got = super().ranked(gu, gr, action)
            seen = consulted.setdefault((gu.gid, gr.gid, action), [gu, gr, got, 0, 0])
            assert seen[2] is got
            seen[3] += len(assembled) - before[0]
            seen[4] += len(labelled) - before[1]
            return got

    def counted_labels(*args):
        granted = labels(*args)
        labelled.append(len(granted))
        return granted

    summarize = GroupSide.summarize

    def counted_summarize(side):
        if side.conditions is None:  # the first call fills the summary in
            summaries[(side.group.side, side.group.gid)] += 1
            assert side.rows == GroupSide(om, side.group).rows
        return summarize(side)

    def counted_build(*args):
        assembled.append(args)
        data = build_learning_data(*args)
        assert_canonical(data)
        return data

    monkeypatch.setattr(prediction, "TripleCache", RecordingCache)
    monkeypatch.setattr(GroupSide, "summarize", counted_summarize)
    monkeypatch.setattr(prediction, "build_learning_data", counted_build)
    monkeypatch.setattr(prediction, "labels", counted_labels)
    predict_missing(om, clustering, index)
    monkeypatch.undo()

    assert len(caches) == 1 and consulted
    assert labelled and all(labelled)  # every labels call found a granted pair
    assert max(summaries.values()) == 1
    learned = {
        (g.side, g.gid) for gu, gr, got, *_ in consulted.values() if got is not None for g in (gu, gr)
    }
    assert set(summaries) == learned
    if st == 0.25:
        assert any(got is None for _, _, got, *_ in consulted.values())
        touched = {(g.side, g.gid) for gu, gr, *_ in consulted.values() for g in (gu, gr)}
        assert touched - learned
    for key in sorted(consulted):
        gu, gr, got, assemblies, labellings = consulted[key]
        action = key[2]
        # a fresh cache per triple: the one-triple path shares nothing
        data = TripleCache(om, index).learning_data(gu, gr, action)
        want = _ranking_or_none(lambda: rank_features(gu, gr, data))
        assert assemblies == labellings == (0 if got is None else 1), key
        if want is None:
            assert got is None, key
            continue
        assert got is not None, key
        assert [rf.feature for rf in got] == [rf.feature for rf in want]
        assert [rf.coefficient for rf in got] == [rf.coefficient for rf in want]
        assert [rf.characterizing for rf in got] == [rf.characterizing for rf in want]


def test_triple_cache_reads_each_user_rows_resources_once(monkeypatch):
    """Settling a triple and listing its granted pairs both read the user
    group's reach map under the action, so a cache that ranks every triple
    a draw consults asks the entitlement index for a user row's resources
    under an action at most once.  The CLI's default threshold, 0.25,
    leaves some triples settled with no granted pair."""
    om, clustering, entitlements = _consulted_setup(
        "university", 8, 0.30, ClusteringConfig(threshold=0.25)
    )
    triples = _consulted_triples(om, clustering, entitlements)
    asked = Counter()
    linked = EntitlementIndex.linked

    class Asked:
        """An object's links, counting each read of one action's ids."""

        def __init__(self, side, oid, links):
            self.key, self.links = (side, oid), links

        def get(self, action, default):
            asked[(*self.key, action)] += 1
            return self.links.get(action, default)

    def counted(index, side, oid):
        return Asked(side, oid, linked(index, side, oid))

    index = EntitlementIndex(entitlements)
    monkeypatch.setattr(EntitlementIndex, "linked", counted)
    cache = TripleCache(om, index)
    ranked = [cache.ranked(gu, gr, action) for gu, gr, action in triples]
    monkeypatch.undo()
    assert any(r is not None for r in ranked) and any(r is None for r in ranked)
    assert asked and max(asked.values()) == 1, asked.most_common(3)


# --- the constraint join, one operator at a time ---

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


def _truth_of(flat, nu, nr) -> np.ndarray:
    """nu x nr bool matrix of the flat pair positions evaluate.matches
    returns, after checking that they ascend, repeat none and name pairs."""
    flat = np.asarray(flat).tolist()
    assert flat == sorted(set(flat))
    assert all(0 <= p < nu * nr for p in flat)
    M = np.zeros((nu, nr), dtype=bool)
    M.flat[flat] = True
    return M


def _join_truth(con, users, resources) -> np.ndarray:
    """users x resources truth of con from joining a value index of each side."""
    flat = matches(con, ValueIndex(users, con.user_attr), ValueIndex(resources, con.res_attr))
    return _truth_of(flat, len(users), len(resources))


def _evaluator_truth(con, users, resources) -> np.ndarray:
    return np.array(
        [[eval_atomic_constraint(u, r, con) is Tri.TRUE for r in resources] for u in users],
        dtype=bool,
    ).reshape(len(users), len(resources))


def _assert_encoder_matches(om, con):
    users, resources = list(om.users.values()), list(om.resources.values())
    got = _join_truth(con, users, resources)
    want = _evaluator_truth(con, users, resources)
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
    assert _join_truth(con, [om.users["r0"]], [om.resources["r0"]]).tolist() == [[True]]
    om = _encoder_model("in")
    _assert_encoder_matches(om, AtomicConstraint("id", "in", "y"))


def test_supseteq_of_empty_set_holds_unless_null():
    om = _encoder_model("supseteq")
    con = AtomicConstraint("x", "supseteq", "y")
    empty_res = [om.resources["r0"]]  # y = {}
    truth = _join_truth(con, list(om.users.values()), empty_res)[:, 0]
    known = [om.users[u].value("x") is not NULL for u in om.users]
    assert truth.tolist() == known


def test_encoder_on_empty_sides():
    om = _encoder_model("supseteq")
    con = AtomicConstraint("x", "supseteq", "y")
    users, resources = list(om.users.values()), list(om.resources.values())
    assert _join_truth(con, [], resources).shape == (0, 5)
    assert _join_truth(con, users, []).shape == (6, 0)
    assert np.asarray(matches(con, ValueIndex([], "x"), ValueIndex(resources, "y"))).size == 0
    assert np.asarray(matches(con, ValueIndex(users, "x"), ValueIndex([], "y"))).size == 0


def _cell_shape(v) -> str:
    if v is NULL:
        return "null"
    if v is MISSING:
        return "missing"
    if isinstance(v, frozenset):
        return "empty" if not v else "set"
    return "value"


@pytest.mark.parametrize("max_side", [4, 8, 12])
def test_join_matches_evaluator_on_random_policies(max_side):
    """Every kind-compatible constraint, the id ones included, over random
    models with NULL, MISSING and empty-set cells: the join of the two
    sides' value indexes is true exactly where the three-valued evaluator
    is, so a pair it finds unknown never matches."""
    rng = random.Random(max_side)
    seen = Counter()
    for _ in range(120):
        doc = with_cross_side_values(rng, random_small_policy(rng, max_side=max_side))
        om = policy_from_dict(doc).model
        users, resources = list(om.users.values()), list(om.resources.values())
        for f in all_constraint_features(om):
            con = f.constraint
            got = _join_truth(con, users, resources)
            assert np.array_equal(got, _evaluator_truth(con, users, resources)), con.render()
            kind = "id" if "id" in (con.user_attr, con.res_attr) else con.op
            seen[kind, "true"] += int(got.sum())
            seen[kind, "false"] += got.size - int(got.sum())
            for u in users:
                seen[kind, "user", _cell_shape(u.value(con.user_attr))] += len(resources)
            for r in resources:
                seen[kind, "resource", _cell_shape(r.value(con.res_attr))] += len(users)
    for kind in ("equal", "in", "contains", "supseteq", "id"):
        assert seen[kind, "true"] and seen[kind, "false"], kind
    for kind in ("equal", "in", "contains", "supseteq"):
        for shape in ("null", "missing"):
            assert seen[kind, "user", shape] and seen[kind, "resource", shape], (kind, shape)
    assert seen["in", "resource", "empty"] and seen["contains", "user", "empty"]
    assert seen["supseteq", "user", "empty"] and seen["supseteq", "resource", "empty"]


@pytest.mark.parametrize("op", sorted(_KINDS))
def test_join_never_matches_missing_cells(op):
    """Two MISSING cells share no value: the evaluator finds every pair
    unknown, so the join gives no pair, and supseteq looks up no set size
    it never indexed."""
    om = _encoder_model(op)
    for u in om.users.values():
        u.attrs["x"] = MISSING
    for r in om.resources.values():
        r.attrs["y"] = MISSING
    con = AtomicConstraint("x", op, "y")
    users, resources = list(om.users.values()), list(om.resources.values())
    assert not _join_truth(con, users, resources).any()
    assert all(eval_atomic_constraint(u, r, con) is Tri.UNKNOWN for u in users for r in resources)


def test_left_out_constraints_hold_on_no_pair_of_random_policies():
    """Every constraint that holds on some pair of known cells is kept,
    over random models with NULL, MISSING and empty-set cells."""
    rng = random.Random(11)
    seen = Counter()
    for _ in range(150):
        doc = with_cross_side_values(rng, random_small_policy(rng, max_side=6))
        om = policy_from_dict(doc).model
        kept = constraint_features(om)
        users, resources = list(om.users.values()), list(om.resources.values())
        for f in all_constraint_features(om):
            con = f.constraint
            holds = bool(_join_truth(con, users, resources).any())
            assert holds <= (f in kept), con.render()
            seen[f in kept, holds] += 1
    assert seen[False, False] and seen[True, True] and seen[True, False]


def test_all_tainted_side_gives_no_rows():
    om = _encoder_model("equal")
    for u in om.users.values():
        u.attrs["x"] = MISSING
    clustering = cluster_objects(om)
    for gu in side_groups(clustering, Side.USER):
        for gr in side_groups(clustering, Side.RESOURCE):
            data = TripleCache(om, EntitlementIndex(())).learning_data(gu, gr, "read")
            assert data.row_count == 0
            assert np.asarray(data.all_true).all()
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
    user_indexes = {attr: ValueIndex(users, attr) for attr in ("xs", "xm")}
    indexes = {attr: ValueIndex(resources, attr) for attr in ("ys", "ym")}
    assert indexes["ym"].empty == [0, 5, 10, 15]
    assert user_indexes["xm"].empty == [0, 5, 10, 15]
    # a second round over the same indexes: joining leaves them as they were
    for _ in range(2):
        for op, (ua, ra) in sorted(_SHARED.items()):
            con = AtomicConstraint(ua, op, ra)
            got = _truth_of(
                matches(con, user_indexes[ua], indexes[ra]), len(users), len(resources)
            )
            want = [[eval_atomic_constraint(u, r, con) is Tri.TRUE for r in resources]
                    for u in users]
            assert np.array_equal(got, np.array(want)), con.render()


def test_group_side_builds_each_index_once():
    om = _shared_index_model()
    summary = GroupSide(om, Group(1, Side.RESOURCE, tuple(om.resources))).summarize()
    assert summary.summarize().holders is summary.holders  # summarized once
    assert summary.index("ym") is summary.index("ym")
    assert summary.index("ym") is not summary.index("ys")
    assert [r.id for r in summary.rows] == list(om.resources)
    users = GroupSide(om, Group(2, Side.USER, tuple(om.users))).summarize()
    assert users.index("xm") is users.index("xm")
    assert [u.id for u in users.rows] == list(om.users)
