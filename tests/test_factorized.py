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

import numpy as np
import pytest

from oracles import (
    dense_learning_data,
    dense_ranking,
    design_statistics,
    exact_ridge_fit,
    random_small_policy,
)

from abacfill.clustering import cluster_objects
from abacfill.evaluate import Tri, eval_atomic_constraint
from abacfill.features import build_learning_data, constraint_matrix, rank_features
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
from abacfill.prediction import relevant_group_triples


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


@pytest.mark.parametrize("fraction", [0.06, 0.30])
@pytest.mark.parametrize("template,scale", CONSULTED)
def test_consulted_triples_match_dense(template, scale, fraction):
    policy = generate(GeneratorConfig(template=template, scale=scale, seed=scale))
    entitlements = reference_entitlements(policy)
    om = policy.model.copy()
    remove_cells(om, fraction, random.Random(scale))
    clustering = cluster_objects(om, HarnessConfig().clustering)
    index = EntitlementIndex(entitlements)
    triples = {}
    for side, oid, _ in om.missing_cells():
        for gu, gr, action in relevant_group_triples(clustering, index, side, oid):
            triples[(gu.gid, gr.gid, action)] = (gu, gr, action)
    assert triples
    for key in sorted(triples):
        gu, gr, action = triples[key]
        assert_triple_matches_dense(om, gu, gr, action, entitlements)


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
    got = constraint_matrix(con, users, resources)
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
    assert constraint_matrix(
        AtomicConstraint("id", "equal", "id"), [om.users["r0"]], [om.resources["r0"]]
    ).tolist() == [[True]]
    om = _encoder_model("in")
    _assert_encoder_matches(om, AtomicConstraint("id", "in", "y"))


def test_supseteq_of_empty_set_holds_unless_null():
    om = _encoder_model("supseteq")
    con = AtomicConstraint("x", "supseteq", "y")
    empty_res = [om.resources["r0"]]  # y = {}
    truth = constraint_matrix(con, list(om.users.values()), empty_res)[:, 0]
    known = [om.users[u].value("x") is not NULL for u in om.users]
    assert truth.tolist() == known


def test_encoder_on_empty_sides():
    om = _encoder_model("supseteq")
    con = AtomicConstraint("x", "supseteq", "y")
    assert constraint_matrix(con, [], list(om.resources.values())).shape == (0, 5)
    assert constraint_matrix(con, list(om.users.values()), []).shape == (6, 0)


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
