"""Feature learning tests.

Expected coefficients come from the pseudoinverse oracle in oracles.py;
expected rankings on the campus fixture were derived by hand from the
entitlement pattern (the taught-course link perfectly explains the labels,
position and type are uniform across the groups).
"""

import math
import random

import numpy as np
import pytest

from oracles import dense_learning_data, fit_design, full_gram, pinv_fit, side_groups

from abacfill import features as features_module
from abacfill.clustering import ClusteringConfig, Group, cluster_objects
from abacfill.features import (
    COEFFICIENT_FLOOR,
    Feature,
    GroupSide,
    build_learning_data,
    constraint_features,
    is_untainted,
    labels,
    rank_features,
    smallest_exact_rules,
)
from abacfill.model import (
    MISSING,
    NULL,
    AtomicCondition,
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
from abacfill.prediction import TripleCache


@pytest.fixture
def campus_groups(campus_policy):
    clustering = cluster_objects(campus_policy.model)
    return campus_policy.model, clustering


def _group(clustering, gid):
    return clustering.groups[gid - 1]


# --- enumeration ---


def _candidates(om, user_ids, res_ids) -> tuple:
    """The candidate features learning fits for a group of the given users
    and one of the given resources, in canonical order."""
    users = GroupSide(om, Group(1, Side.USER, tuple(user_ids))).summarize()
    resources = GroupSide(om, Group(2, Side.RESOURCE, tuple(res_ids))).summarize()
    return users.conditions + resources.conditions + constraint_features(om)


def test_enumeration_content_and_order(campus_groups):
    om, clustering = campus_groups
    gu, gr = _group(clustering, 1), _group(clustering, 3)
    feats = _candidates(om, gu.members, gr.members)
    rendered = [f.render() for f in feats]

    # user conditions first, then resource conditions, then constraints;
    # only values two members hold: csFac2 is the one known cs member and
    # each course is taught by, or graded in, one member
    assert rendered[:2] == [
        "user.department in {ee}",
        "user.position in {faculty}",
    ]
    assert rendered[2:5] == [
        "resource.department in {cs}",
        "resource.department in {ee}",
        "resource.type in {gradebook}",
    ]
    # of the 5 x 5 kind-compatible attribute pairs, only these share a
    # value somewhere in the model; the other 21 hold on no pair
    constraints = [f for f in feats if f.is_constraint]
    assert [f.render() for f in constraints] == [
        "coursesTaken contains course",
        "coursesTaught contains course",
        "department equal department",
        "id equal student",
    ]
    assert len(feats) == 9
    # id participates in constraints but never yields conditions
    assert "id equal student" in rendered
    assert not any(f.condition is not None and f.condition.attr == "id" for f in feats)


def test_enumeration_skips_unknown_and_inapplicable_cells(campus_groups):
    om, clustering = campus_groups
    gu = _group(clustering, 1)
    feats = _candidates(om, gu.members, ())
    attrs = {f.condition.attr for f in feats if f.condition is not None}
    # coursesTaken is inapplicable for every faculty member, and no course
    # is taught by two of them
    assert attrs == {"position", "department"}
    # csFac1's unknown cells contribute no values: cs keeps one holder
    depts = {f.condition.val for f in feats if f.condition and f.condition.attr == "department"}
    assert depts == {frozenset({"ee"})}
    taught = {f.condition.val for f in feats if f.condition and f.condition.attr == "coursesTaught"}
    assert taught == set()
    # once known, csFac1's department is cs's second holder
    om.users["csFac1"].attrs["department"] = "cs"
    feats = _candidates(om, gu.members, ())
    depts = {f.condition.val for f in feats if f.condition and f.condition.attr == "department"}
    assert depts == {frozenset({"cs"}), frozenset({"ee"})}


def _holder_model(users, resources):
    """Users with a single-valued dept and a set-valued tags attribute,
    resources with a single-valued dept and a set-valued need attribute;
    each object is given as its attribute cells."""
    s = Schema()
    for side, one, many in ((Side.USER, "dept", "tags"), (Side.RESOURCE, "dept", "need")):
        s.add(AttrSchema("id", AttrKind.SINGLE, side))
        s.add(AttrSchema(one, AttrKind.SINGLE, side))
        s.add(AttrSchema(many, AttrKind.MULTI, side))
    om = ObjectModel(schema=s, actions=("read",))
    for i, cells in enumerate(users):
        om.add(Obj(f"u{i}", Side.USER, {"id": f"u{i}", **cells}))
    for i, cells in enumerate(resources):
        om.add(Obj(f"r{i}", Side.RESOURCE, {"id": f"r{i}", **cells}))
    return om


def _rendered(om):
    return [f.render() for f in _candidates(om, om.users, om.resources)]


def test_a_condition_needs_two_holders():
    one = _holder_model(
        [{"dept": "cs", "tags": frozenset({"x"})}, {"dept": "ee", "tags": frozenset({"y"})}], []
    )
    assert not [f for f in _rendered(one) if f.startswith("user.")]
    two = _holder_model(
        [{"dept": "cs", "tags": frozenset({"x", "y"})}, {"dept": "cs", "tags": frozenset({"y"})}],
        [],
    )
    assert [f for f in _rendered(two) if f.startswith("user.")] == [
        "user.dept in {cs}",
        "user.tags contains y",
    ]


def test_a_member_with_another_unknown_cell_is_a_holder():
    # u1 is left out of the rows by its unknown tags, but its known dept
    # still makes it cs's second holder, as it would back the condition
    # when ranking checks that two members support it
    cells = [{"dept": "cs", "tags": frozenset({"x"})}, {"dept": "cs", "tags": MISSING}]
    om = _holder_model(cells, [])
    assert not is_untainted(om.users["u1"])
    assert "user.dept in {cs}" in _rendered(om)
    # the row u0 is its one holder among the rows: a single True in its
    # column, and supported while every member holds cs
    assert _dept_cs_column(om) == ([True], True)
    # a third member with another value leaves cs two holders, unsupported
    three = _holder_model(cells + [{"dept": "ee", "tags": frozenset({"x"})}], [])
    assert _dept_cs_column(three) == ([True, False], False)
    om.users["u1"].attrs["dept"] = MISSING
    assert "user.dept in {cs}" not in _rendered(om)


def _dept_cs_column(om):
    """The rows' column of user.dept in {cs} over all users, and whether
    it is supported."""
    side = GroupSide(om, Group(1, Side.USER, tuple(om.users))).summarize()
    j = [f.render() for f in side.conditions].index("user.dept in {cs}")
    return [i in side.holders[j] for i in range(len(side.rows))], bool(side.supported[j])


def test_supseteq_against_an_empty_resource_set_stays_a_candidate():
    # the two sides share no element, but every known user set contains
    # the empty set
    om = _holder_model(
        [{"dept": "cs", "tags": frozenset({"x"})}],
        [{"dept": "ee", "need": frozenset()}, {"dept": "ee", "need": frozenset({"y"})}],
    )
    constraints = [f.render() for f in constraint_features(om)]
    assert constraints == ["tags supseteq need"]
    # with no empty set the pair shares nothing and is dropped
    om.resources["r0"].attrs["need"] = frozenset({"z"})
    assert constraint_features(om) == ()


def test_a_constraint_on_an_all_null_attribute_is_dropped():
    om = _holder_model(
        [{"dept": NULL, "tags": NULL}, {"dept": NULL, "tags": NULL}],
        [{"dept": "cs", "need": frozenset()}, {"dept": NULL, "need": frozenset({"cs"})}],
    )
    # nothing of the users' is known, so no constraint can hold, not even
    # supseteq against the empty set
    assert constraint_features(om) == ()
    om.users["u0"].attrs["dept"] = "cs"
    assert [f.render() for f in constraint_features(om)] == ["dept equal dept", "dept in need"]


def test_feature_mentions():
    f = Feature(Side.USER, AtomicCondition("dept", "in", frozenset({"cs"})))
    assert f.mentions(Side.USER, "dept")
    assert not f.mentions(Side.RESOURCE, "dept")
    g = Feature(constraint=AtomicConstraint("taught", "contains", "course"))
    assert g.mentions(Side.USER, "taught")
    assert g.mentions(Side.RESOURCE, "course")
    assert not g.mentions(Side.USER, "course")


# --- learning rows ---


def test_untainted_filter(campus_policy):
    om = campus_policy.model
    assert not is_untainted(om.users["csFac1"])
    assert is_untainted(om.users["csFac2"])


def test_learning_rows_exclude_tainted_members(campus_groups, campus_entitlements):
    om, clustering = campus_groups
    args = (om, _group(clustering, 1), _group(clustering, 3), "modify", campus_entitlements)
    dense = dense_learning_data(*args)
    assert dense.row_count == 15  # 3 untainted faculty x 5 gradebooks
    assert all(uid != "csFac1" for uid, _ in dense.pairs)
    positives = {p for p, y in zip(dense.pairs, dense.labels) if y == 1.0}
    assert positives == {("csFac2", "cs601gb"), ("eeFac1", "ee101gb"), ("eeFac2", "ee601gb")}
    data = TripleCache(om, campus_entitlements).learning_data(*args[1:4])
    assert data.row_count == 15
    assert data.positives == 3


def test_learning_matrix_is_binary(campus_groups, campus_entitlements):
    om, clustering = campus_groups
    args = (om, _group(clustering, 1), _group(clustering, 3), "modify", campus_entitlements)
    assert set(np.unique(dense_learning_data(*args).matrix)) <= {0.0, 1.0}
    # a column is 0/1 exactly when its sum of squares equals its sum
    users, resources = (GroupSide(om, g) for g in args[1:3])
    granted = labels(TripleCache(om, campus_entitlements).reach(args[1], "modify"), resources)
    data = build_learning_data(users, resources, constraint_features(om), granted)
    assert np.array_equal(np.diag(full_gram(data)), data.sums)
    assert users.A.dtype == bool and resources.A.dtype == bool  # built by the gram
    A = users.A
    full_gram(data)
    assert users.A is A  # once per group
    assert ((np.asarray(data.sums) >= 0) & (np.asarray(data.sums) <= data.row_count)).all()


# --- least squares ---


def test_fit_matches_pseudoinverse_oracle_on_random_instances():
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        n = rng.randint(3, 12)
        d = rng.randint(1, 4)
        X = np.array([[rng.randint(0, 1) for _ in range(d)] for _ in range(n)], dtype=float)
        design = np.hstack([np.ones((n, 1)), X])
        if np.linalg.matrix_rank(design) < d + 1:
            continue  # oracle comparison only meaningful at full column rank
        y = np.array([rng.random() for _ in range(n)])
        want_int, want_coefs = pinv_fit(X, y)
        got_int, got_coefs = fit_design(X, y)
        assert abs(got_int - want_int) <= 1e-6
        assert np.abs(got_coefs - want_coefs).max() <= 1e-6
        checked += 1


def test_fit_exact_when_labels_in_span():
    X = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=float)
    y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 0.5
    intercept, coefs = fit_design(X, y)
    resid = np.abs(intercept + X @ coefs - y).max()
    assert resid <= 1e-6


def test_fit_gives_constant_column_zero_weight():
    X = np.array([[1, 1], [1, 0], [1, 1], [1, 0]], dtype=float)
    y = np.array([1.0, 0.0, 1.0, 0.0])
    intercept, coefs = fit_design(X, y)
    assert abs(coefs[0]) <= 1e-6
    assert coefs[1] == pytest.approx(1.0, abs=1e-6)
    assert intercept == pytest.approx(0.0, abs=1e-6)


def test_fit_is_permutation_invariant():
    rng = random.Random(3)
    X = np.array([[rng.randint(0, 1) for _ in range(5)] for _ in range(12)], dtype=float)
    y = np.array([rng.random() for _ in range(12)])
    perm = [3, 0, 4, 1, 2]
    i1, c1 = fit_design(X, y)
    i2, c2 = fit_design(X[:, perm], y)
    assert abs(i1 - i2) <= 1e-9
    assert np.abs(c1[perm] - c2).max() <= 1e-9


def test_fit_edge_shapes():
    with pytest.raises(InsufficientDataError):
        fit_design(np.zeros((0, 2)), np.zeros(0))
    intercept, coefs = fit_design(np.zeros((3, 0)), np.array([1.0, 2.0, 3.0]))
    assert intercept == pytest.approx(2.0)
    assert coefs.shape == (0,)


# --- ranking ---


def test_campus_ranking(campus_groups, campus_entitlements):
    om, clustering = campus_groups
    gu, gr = _group(clustering, 1), _group(clustering, 3)
    data = TripleCache(om, campus_entitlements).learning_data(gu, gr, "modify")
    ranked = rank_features(gu, gr, data)
    rendered = [rf.feature.render() for rf in ranked]
    assert rendered == [
        "user.position in {faculty}",
        "resource.type in {gradebook}",
        "coursesTaught contains course",
    ]
    assert [rf.characterizing for rf in ranked] == [True, True, False]
    assert ranked[2].coefficient == pytest.approx(1.0, abs=1e-6)
    # nothing ranked mentions the user's department
    assert not any(rf.feature.mentions(Side.USER, "department") for rf in ranked)


def test_ranking_requires_rows(campus_groups):
    om, clustering = campus_groups
    gu, gr = _group(clustering, 1), _group(clustering, 3)
    for uid in gu.members:
        om.users[uid].attrs["department"] = MISSING
    data = TripleCache(om, EntitlementIndex(())).learning_data(gu, gr, "modify")
    with pytest.raises(InsufficientDataError):
        rank_features(gu, gr, data)


def _guard_model(second_dept):
    """Two users; the second is unusable for rows (unknown note cell) and its
    department is controlled by the caller."""
    s = Schema()
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("dept", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("note", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.RESOURCE))
    s.add(AttrSchema("label", AttrKind.SINGLE, Side.RESOURCE))
    om = ObjectModel(schema=s, actions=("read",))
    om.add(Obj("a", Side.USER, {"id": "a", "dept": "cs", "note": "k"}))
    om.add(Obj("b", Side.USER, {"id": "b", "dept": second_dept, "note": MISSING}))
    om.add(Obj("r", Side.RESOURCE, {"id": "r", "label": "x"}))
    return om


def _rank_guard_case(second_dept):
    om = _guard_model(second_dept)
    clustering = cluster_objects(om)
    gu = side_groups(clustering, Side.USER)[0]
    gr = side_groups(clustering, Side.RESOURCE)[0]
    ents = EntitlementIndex([Entitlement("a", "r", "read")])
    data = TripleCache(om, ents).learning_data(gu, gr, "read")
    assert data.row_count == 1
    return {rf.feature.render() for rf in rank_features(gu, gr, data)}


def test_condition_needs_two_known_supporters():
    # second member's department is unknown: one supporter is not enough
    assert "user.dept in {cs}" not in _rank_guard_case(MISSING)
    # second member agrees: two supporters, the condition characterizes
    assert "user.dept in {cs}" in _rank_guard_case("cs")
    # second member disagrees: blocked outright
    assert "user.dept in {cs}" not in _rank_guard_case("ee")


def test_conflicting_known_value_blocks_even_with_two_supporters():
    om = _guard_model("cs")
    om.add(Obj("c", Side.USER, {"id": "c", "dept": "ee", "note": MISSING}))
    # threshold 0 keeps the signature bucket whole so the conflicting
    # member stays in the group
    clustering = cluster_objects(om, ClusteringConfig(threshold=0.0))
    gu = side_groups(clustering, Side.USER)[0]
    assert set(gu.members) == {"a", "b", "c"}
    gr = side_groups(clustering, Side.RESOURCE)[0]
    ents = EntitlementIndex([Entitlement("a", "r", "read")])
    data = TripleCache(om, ents).learning_data(gu, gr, "read")
    ranked = rank_features(gu, gr, data)
    assert "user.dept in {cs}" not in {rf.feature.render() for rf in ranked}


def _pair_model():
    s = Schema()
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("dept", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.RESOURCE))
    s.add(AttrSchema("dept", AttrKind.SINGLE, Side.RESOURCE))
    om = ObjectModel(schema=s, actions=("read",))
    for uid in ("a", "b"):
        om.add(Obj(uid, Side.USER, {"id": uid, "dept": "cs"}))
    for rid in ("x", "y"):
        om.add(Obj(rid, Side.RESOURCE, {"id": rid, "dept": "cs"}))
    return om


def test_characterizing_constraint_subsumes_one_sided_constants():
    om = _pair_model()
    clustering = cluster_objects(om)
    gu = side_groups(clustering, Side.USER)[0]
    gr = side_groups(clustering, Side.RESOURCE)[0]
    ents = EntitlementIndex(Entitlement(u, r, "read") for u in ("a", "b") for r in ("x", "y"))
    data = TripleCache(om, ents).learning_data(gu, gr, "read")
    ranked = rank_features(gu, gr, data)
    rendered = [rf.feature.render() for rf in ranked]
    assert rendered == ["dept equal dept"]
    assert ranked[0].characterizing


def test_characterizing_constraint_allowed_with_single_row():
    om = _guard_model("cs")
    om.users["a"].attrs["note"] = "cs"  # note mirrors dept; only one usable row
    om.resources["r"].attrs["label"] = "cs"
    clustering = cluster_objects(om)
    gu = side_groups(clustering, Side.USER)[0]
    gr = side_groups(clustering, Side.RESOURCE)[0]
    ents = EntitlementIndex([Entitlement("a", "r", "read")])
    data = TripleCache(om, ents).learning_data(gu, gr, "read")
    assert data.row_count == 1
    ranked = rank_features(gu, gr, data)
    rendered = {rf.feature.render() for rf in ranked}
    assert "dept equal label" in rendered
    assert "note equal label" in rendered


def test_coefficient_floor_excludes_noise(campus_groups, campus_entitlements, monkeypatch):
    om, clustering = campus_groups
    gu, gr = _group(clustering, 1), _group(clustering, 3)
    # two cross-department grants that no rule explains: no conjunction of
    # at most two features is exact, so the fit scores the features
    noise = [Entitlement("csFac2", "ee101gb", "modify"), Entitlement("eeFac1", "cs101gb", "modify")]
    ents = EntitlementIndex([*campus_entitlements, *noise])
    data = TripleCache(om, ents).learning_data(gu, gr, "modify")
    assert smallest_exact_rules(data) == []
    link = "coursesTaught contains course"
    ranked = rank_features(gu, gr, data)
    # the taught-course link is far above the floor, and it is the only
    # fitted feature that clears it
    assert [rf.feature.render() for rf in ranked if not rf.characterizing] == [link]
    assert COEFFICIENT_FLOOR == 0.05
    # a coefficient ranks only strictly above the floor
    j = next(j for j, f in enumerate(data.features) if f.render() == link)
    for coefficient, kept in ((COEFFICIENT_FLOOR, False),
                              (math.nextafter(COEFFICIENT_FLOOR, 1.0), True)):
        coefs = np.zeros(len(data.features))
        coefs[j] = coefficient
        monkeypatch.setattr(features_module, "fit_least_squares", lambda *a, c=coefs: (0.0, c))
        ranked = rank_features(gu, gr, data)
        assert len(ranked) == 2 + kept  # the characterizing pair, then the link


def test_solver_noise_does_not_split_a_tie(campus_groups, monkeypatch):
    om, clustering = campus_groups
    gu, gr = _group(clustering, 2), _group(clustering, 4)
    # each student modifies their own transcript; each department has one
    # student, so the department link holds on exactly the granted pairs
    # too: two tied smallest exact rules, each atom at 1.0, in canonical order
    own = [Entitlement(s, f"{s}trans", "modify") for s in ("csStu1", "eeStu1")]
    tied = ["department equal department", "id equal student"]
    data = TripleCache(om, EntitlementIndex(own)).learning_data(gu, gr, "modify")
    fitted = [rf for rf in rank_features(gu, gr, data) if not rf.characterizing]
    assert [rf.feature.render() for rf in fitted] == tied
    assert [rf.coefficient for rf in fitted] == [1.0, 1.0]
    # one more grant, csStu1 on eeStu1's transcript, leaves no exact rule:
    # the fit gives the two collinear links the slope 0.5 in equal halves
    ents = EntitlementIndex([*own, Entitlement("csStu1", "eeStu1trans", "modify")])
    data = TripleCache(om, ents).learning_data(gu, gr, "modify")
    assert smallest_exact_rules(data) == []
    ranked = rank_features(gu, gr, data)
    fitted = [rf for rf in ranked if not rf.characterizing]
    assert [rf.feature.render() for rf in fitted] == tied
    assert [rf.coefficient for rf in fitted] == pytest.approx([0.25, 0.25], abs=1e-6)
    first, second = (j for j, f in enumerate(data.features) if f.render() in tied)
    # the same two equal coefficients, nudged by noise to either side of
    # 0.4921875, a midpoint of the 6-decimal grid, against canonical order
    coefs = np.zeros(len(data.features))
    coefs[first], coefs[second] = 0.4921875 - 1e-9, 0.4921875 + 1e-9
    monkeypatch.setattr(features_module, "fit_least_squares", lambda *a, **k: (0.0, coefs))
    ranked = rank_features(gu, gr, data)
    fitted = [rf.feature.render() for rf in ranked if not rf.characterizing]
    # a tie keeps canonical order
    assert fitted == tied
