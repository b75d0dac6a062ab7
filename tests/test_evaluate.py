"""Semantics tests.

Expected values are either worked out by hand on the campus fixture or
checked against the brute-force document evaluator in oracles.py.
"""

import random

import pytest

from oracles import naive_entitlements, random_small_policy

from abacfill import evaluate as evaluate_module
from abacfill.evaluate import (
    Tri,
    eval_atomic_condition,
    eval_atomic_constraint,
    eval_condition,
    policy_meaning,
    rule_meaning,
    tri_all,
)
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import remove_cells
from abacfill.model import AtomicCondition, AtomicConstraint, Entitlement, Policy
from abacfill.policy_io import policy_from_dict, policy_to_dict


def test_tri_all_truth_table():
    T, F, U = Tri.TRUE, Tri.FALSE, Tri.UNKNOWN
    assert tri_all([]) is T
    assert tri_all([T, T]) is T
    assert tri_all([T, U]) is U
    assert tri_all([U, F]) is F  # false wins over unknown
    assert tri_all([F, T]) is F
    assert tri_all([U, U]) is U


def test_condition_on_known_single_cell(campus_policy):
    u2 = campus_policy.model.users["csFac2"]
    pos_fac = AtomicCondition("position", "in", frozenset({"faculty"}))
    pos_stu = AtomicCondition("position", "in", frozenset({"student"}))
    assert eval_atomic_condition(u2, pos_fac) is Tri.TRUE
    assert eval_atomic_condition(u2, pos_stu) is Tri.FALSE


def test_condition_on_missing_cell_is_unknown(campus_policy):
    u1 = campus_policy.model.users["csFac1"]
    dep_cs = AtomicCondition("department", "in", frozenset({"cs"}))
    assert eval_atomic_condition(u1, dep_cs) is Tri.UNKNOWN


def test_condition_on_null_cell_is_false(campus_policy):
    u5 = campus_policy.model.users["csStu1"]
    taught = AtomicCondition("coursesTaught", "contains", "cs101")
    assert eval_atomic_condition(u5, taught) is Tri.FALSE


def test_false_conjunct_dominates_unknown(campus_policy):
    u1 = campus_policy.model.users["csFac1"]
    conds = (
        AtomicCondition("department", "in", frozenset({"cs"})),  # unknown for u1
        AtomicCondition("position", "in", frozenset({"student"})),  # false for u1
    )
    assert eval_condition(u1, conds) is Tri.FALSE


def test_empty_condition_set_is_true(campus_policy):
    u1 = campus_policy.model.users["csFac1"]
    assert eval_condition(u1, ()) is Tri.TRUE


def test_constraint_semantics(campus_policy):
    om = campus_policy.model
    teaches = AtomicConstraint("coursesTaught", "contains", "course")
    u2, r1, r2 = om.users["csFac2"], om.resources["cs101gb"], om.resources["cs601gb"]
    assert eval_atomic_constraint(u2, r2, teaches) is Tri.TRUE
    assert eval_atomic_constraint(u2, r1, teaches) is Tri.FALSE

    u1 = om.users["csFac1"]  # coursesTaught missing
    assert eval_atomic_constraint(u1, r1, teaches) is Tri.UNKNOWN

    u5 = om.users["csStu1"]  # coursesTaught null
    assert eval_atomic_constraint(u5, r1, teaches) is Tri.FALSE


def test_null_beats_missing_across_sides(campus_policy):
    # user cell null, resource cell missing: null is checked first, so false
    om = campus_policy.model
    u5 = om.users["csStu1"]
    r1 = om.resources["cs101gb"]
    from abacfill.model import MISSING

    r1.attrs["course"] = MISSING
    teaches = AtomicConstraint("coursesTaught", "contains", "course")
    assert eval_atomic_constraint(u5, r1, teaches) is Tri.FALSE


def test_supseteq_constraint():
    from abacfill.model import Obj, Side

    u = Obj("u", Side.USER, {"id": "u", "skills": frozenset({"a", "b", "c"})})
    r = Obj("r", Side.RESOURCE, {"id": "r", "needs": frozenset({"a", "b"})})
    con = AtomicConstraint("skills", "supseteq", "needs")
    assert eval_atomic_constraint(u, r, con) is Tri.TRUE
    r.attrs["needs"] = frozenset({"a", "z"})
    assert eval_atomic_constraint(u, r, con) is Tri.FALSE
    r.attrs["needs"] = frozenset()
    assert eval_atomic_constraint(u, r, con) is Tri.TRUE


def test_rule_meaning_on_incomplete_campus(campus_policy):
    rule = campus_policy.rules[0]
    granted, unknown_pairs = rule_meaning(rule, campus_policy.model)
    assert granted == {
        Entitlement("csFac2", "cs601gb", "modify"),
        Entitlement("eeFac1", "ee101gb", "modify"),
        Entitlement("eeFac2", "ee601gb", "modify"),
    }
    # csFac1 against each of the five gradebooks is undecidable
    assert unknown_pairs == 5


def test_rule_meaning_on_completed_campus(campus_complete, campus_entitlements):
    granted, unknown_pairs = policy_meaning(campus_complete)
    assert granted == set(campus_entitlements)
    assert unknown_pairs == 0


def test_policy_meaning_matches_oracle_on_campus(campus_doc, campus_policy):
    want, want_unknown = naive_entitlements(campus_doc)
    got, got_unknown = policy_meaning(campus_policy)
    assert {(e.user, e.resource, e.action) for e in got} == want
    assert got_unknown == want_unknown


@pytest.mark.parametrize("seed", [11, 12])
def test_policy_meaning_matches_oracle_on_random_models(seed):
    rng = random.Random(seed)
    for _ in range(30):
        doc = random_small_policy(rng)
        want, want_unknown = naive_entitlements(doc)
        policy = policy_from_dict(doc)
        got, got_unknown = policy_meaning(policy)
        assert {(e.user, e.resource, e.action) for e in got} == want
        assert got_unknown == want_unknown


def _granted_triples(granted):
    return {(e.user, e.resource, e.action) for e in granted}


@pytest.mark.parametrize("max_side", [8, 12])
def test_policy_meaning_matches_oracle_on_larger_random_models(max_side):
    # more objects than vocabulary values, so join buckets hold several objects
    rng = random.Random(2000 + max_side)
    for _ in range(150):
        doc = random_small_policy(rng, max_side=max_side)
        got, got_unknown = policy_meaning(policy_from_dict(doc))
        assert (_granted_triples(got), got_unknown) == naive_entitlements(doc)


@pytest.mark.parametrize("template", ["university", "project"])
def test_policy_meaning_matches_oracle_on_damaged_templates(template):
    saw_unknown = False
    for scale in range(2, 11):
        policy = generate(GeneratorConfig(template=template, scale=scale, seed=scale))
        for percent in (0, 6, 30):
            om = policy.model.copy()
            remove_cells(om, percent / 100, random.Random(1000 * scale + percent))
            damaged = Policy(om, policy.rules)
            want = naive_entitlements(policy_to_dict(damaged))
            got, got_unknown = policy_meaning(damaged)
            assert (_granted_triples(got), got_unknown) == want
            saw_unknown |= got_unknown > 0
    assert saw_unknown


def _pinned_doc(users, resources, constraints, user_conds=()):
    """A one-rule policy over the random_small_policy schema.  users and
    resources map ids to attrs; None is NULL, {"missing": True} MISSING."""
    doc = random_small_policy(random.Random(0))
    doc["actions"] = ["read"]
    doc["users"] = [{"id": oid, "attrs": attrs} for oid, attrs in users.items()]
    doc["resources"] = [{"id": oid, "attrs": attrs} for oid, attrs in resources.items()]
    doc["rules"] = [{"uc": list(user_conds), "rc": [], "c": constraints, "actions": ["read"]}]
    return doc


_MISSING = {"missing": True}

PINNED = {
    "supseteq with an empty resource set": (
        {"u0": {"ua_m": ["v0"]}, "u1": {"ua_m": []}, "u2": {"ua_m": None}},
        {"r0": {"ra_m": []}, "r1": {"ra_m": ["v0"]}, "r2": {"ra_m": None},
         "r3": {"ra_m": ["v0", "v1"]}},
        [["ua_m", "supseteq", "ra_m"]],
        (),
        {("u0", "r0"), ("u0", "r1"), ("u1", "r0")},
        0,
    ),
    "in against an empty set": (
        {"u0": {"ua_s": "v0"}},
        {"r0": {"ra_m": []}, "r1": {"ra_m": ["v0", "v2"]}},
        [["ua_s", "in", "ra_m"]],
        (),
        {("u0", "r1")},
        0,
    ),
    "contains probes each element": (
        {"u0": {"ua_m": ["v0", "v1"]}, "u1": {"ua_m": []}},
        {"r0": {"ra_s": "v0"}, "r1": {"ra_s": "v1"}, "r2": {"ra_s": "v2"}},
        [["ua_m", "contains", "ra_s"]],
        (),
        {("u0", "r0"), ("u0", "r1")},
        0,
    ),
    "NULL and MISSING on the join attribute": (
        {"u0": {"ua_s": "v0"}, "u1": {"ua_s": None}, "u2": {"ua_s": _MISSING}},
        {"r0": {"ra_s": "v0"}, "r1": {"ra_s": None}, "r2": {"ra_s": _MISSING}},
        [["ua_s", "equal", "ra_s"]],
        (),
        {("u0", "r0")},
        3,  # (u0, r2), (u2, r0), (u2, r2); NULL on either side is false
    ),
    "no constraints": (
        {"u0": {"ua_s": "v0"}, "u1": {"ua_s": _MISSING}, "u2": {"ua_s": "v1"}},
        {"r0": {}, "r1": {}},
        [],
        [["ua_s", "in", ["v0"]]],
        {("u0", "r0"), ("u0", "r1")},
        2,  # u1's condition is unknown against both resources
    ),
    "two constraints, the second fails": (
        {"u0": {"ua_s": "v0", "ua_m": ["v1"]}},
        {"r0": {"ra_s": "v0", "ra_m": ["v1"]}, "r1": {"ra_s": "v0", "ra_m": ["v2"]},
         "r2": {"ra_s": "v0", "ra_m": _MISSING}},
        [["ua_s", "equal", "ra_s"], ["ua_m", "supseteq", "ra_m"]],
        (),
        {("u0", "r0")},
        1,  # r2 joins on the first constraint but its second is unknown
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_policy_meaning_pinned_join_cases(case):
    users, resources, constraints, user_conds, want, want_unknown = PINNED[case]
    doc = _pinned_doc(users, resources, constraints, user_conds)
    got, got_unknown = policy_meaning(policy_from_dict(doc))
    assert _granted_triples(got) == {(u, r, "read") for u, r in want}
    assert got_unknown == want_unknown
    assert (_granted_triples(got), got_unknown) == naive_entitlements(doc)


@pytest.mark.parametrize("template", ["university", "project"])
def test_reference_entitlements_do_not_scan_all_pairs(monkeypatch, template):
    # conditions run once per object and constraints only on joined pairs,
    # so each count stays linear in the objects where a users x resources
    # scan makes it quadratic; counts are deterministic, unlike timings
    policy = generate(GeneratorConfig(template=template, scale=20, seed=1))
    calls = {"cond": 0, "con": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(evaluate_module, "eval_atomic_condition",
                        counting("cond", evaluate_module.eval_atomic_condition))
    monkeypatch.setattr(evaluate_module, "eval_atomic_constraint",
                        counting("con", evaluate_module.eval_atomic_constraint))
    granted = reference_entitlements(policy)
    objects = len(policy.model.users) + len(policy.model.resources)
    rules = policy.rules
    assert granted and calls["cond"] > 0
    assert calls["cond"] <= sum((len(r.user_conds) + len(r.res_conds)) * objects for r in rules)
    assert calls["con"] <= sum(len(r.constraints) * objects for r in rules)
