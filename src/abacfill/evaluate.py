"""Three-valued evaluation of rules over possibly-incomplete object models.

A cell that is NULL makes any test on it false; a cell that is MISSING makes
the test unknown.  NULL is checked before MISSING on constraints so that a
definite inapplicability on either side wins.  Conjunction: any false makes
the whole rule false, otherwise any unknown makes it unknown.

A rule's meaning is computed without walking users x resources.  Each
object's conditions are evaluated once; objects whose conditions are false
drop out.  A survivor is definite when its conditions are true and no
constraint cell it is tested on is MISSING, and uncertain otherwise.
Definite pairs are found by a join on the rule's first constraint (a
`ValueIndex` over each side's values or set elements, joined over the
keys both hold) and checked on the other constraints; a pair with an
uncertain object can never be granted and goes through the three-valued
path only to count it as unknown.  A rule costs
O(users + resources + set elements + joined pairs + uncertain objects x
the other side); a complete model has no uncertain objects.

Constraint truth on known cells has two implementations.  The join,
`matches`, decides a rule's first constraint and every constraint feature
learning scores; `eval_atomic_constraint` checks the second and later
constraints of a rule (the project employee and contractor rules) on each
joined pair.  `test_join_matches_evaluator_on_random_policies` keeps the
two equal on every kind-compatible constraint.  `ValueIndex` is the one
reader of the positions of the objects that hold a value: feature
learning takes its conditions and their support from value indexes, and
its constraint statistics from joining the ones each group builds once
per attribute.  Its constraint candidates need only each attribute's
keys, which it reads off the attribute's distinct cells.
"""

from __future__ import annotations

import enum
from collections import Counter

from .model import (
    CONSTRAINT_KINDS,
    MISSING,
    NULL,
    AtomicCondition,
    AtomicConstraint,
    Entitlement,
    Obj,
    ObjectModel,
    Policy,
    Rule,
    SchemaError,
)


class Tri(enum.Enum):
    FALSE = 0
    TRUE = 1
    UNKNOWN = 2


def tri_all(values) -> Tri:
    """Conjunction; false dominates unknown.  Empty iterable is TRUE."""
    saw_unknown = False
    for v in values:
        if v is Tri.FALSE:
            return Tri.FALSE
        if v is Tri.UNKNOWN:
            saw_unknown = True
    return Tri.UNKNOWN if saw_unknown else Tri.TRUE


def eval_atomic_condition(obj: Obj, cond: AtomicCondition) -> Tri:
    v = obj.value(cond.attr)
    if v is NULL:
        return Tri.FALSE
    if v is MISSING:
        return Tri.UNKNOWN
    if cond.op == "in":
        if not isinstance(v, str):
            raise SchemaError(f"'in' over non-single cell {obj.id}.{cond.attr}")
        return Tri.TRUE if v in cond.val else Tri.FALSE
    if cond.op == "contains":
        if not isinstance(v, frozenset):
            raise SchemaError(f"'contains' over non-multi cell {obj.id}.{cond.attr}")
        return Tri.TRUE if cond.val in v else Tri.FALSE
    raise SchemaError(f"unknown condition operator: {cond.op}")


def eval_condition(obj: Obj, conds) -> Tri:
    return tri_all(eval_atomic_condition(obj, c) for c in conds)


def eval_atomic_constraint(user: Obj, res: Obj, con: AtomicConstraint) -> Tri:
    vu = user.value(con.user_attr)
    vr = res.value(con.res_attr)
    if vu is NULL or vr is NULL:
        return Tri.FALSE
    if vu is MISSING or vr is MISSING:
        return Tri.UNKNOWN
    if con.op == "equal":
        ok = vu == vr
    elif con.op == "in":
        ok = vu in vr
    elif con.op == "contains":
        ok = vr in vu
    elif con.op == "supseteq":
        ok = vu >= vr
    else:
        raise SchemaError(f"unknown constraint operator: {con.op}")
    return Tri.TRUE if ok else Tri.FALSE


def eval_constraint(user: Obj, res: Obj, cons) -> Tri:
    return tri_all(eval_atomic_constraint(user, res, c) for c in cons)


def _survivors(objects, conds, attrs):
    """Objects whose conditions are not false, split into definite ones and
    (object, condition verdict) pairs for the uncertain ones."""
    definite, uncertain = [], []
    for obj in objects:
        verdict = eval_condition(obj, conds)
        if verdict is Tri.FALSE:
            continue
        if verdict is Tri.TRUE and all(obj.value(a) is not MISSING for a in attrs):
            definite.append(obj)
        else:
            uncertain.append((obj, verdict))
    return definite, uncertain


class ValueIndex:
    """Positions of objects by their value of one attribute, or by each
    element of their set: only known cells are indexed, NULL and MISSING
    ones are left out and MISSING ones counted.  For set cells it also
    keeps each set's size, by position (so its keys are the known set
    cells), and the positions of the empty sets, which supseteq needs."""

    def __init__(self, objs, attr: str):
        self.count = len(objs)
        self.missing = 0
        self.rows, self.size, self.empty = {}, {}, []
        rows = self.rows
        for r, obj in enumerate(objs):
            v = obj.attrs.get(attr, NULL)  # Obj.value, without a call per cell
            if v is NULL:
                continue
            if v is MISSING:
                self.missing += 1
                continue
            if not isinstance(v, frozenset):
                rows.setdefault(v, []).append(r)
                continue
            self.size[r] = len(v)
            if not v:
                self.empty.append(r)
            for key in v:
                rows.setdefault(key, []).append(r)


def matches(con: AtomicConstraint, users: ValueIndex, resources: ValueIndex) -> list:
    """A list of the ascending flat positions u * resources.count + r of the (user,
    resource) pairs on which con is true, for users indexed by con.user_attr
    and resources by con.res_attr.  The indexes hold known cells only, so
    a pair with a NULL or MISSING cell, false or unknown to the evaluator,
    never matches.

    A join over the keys both indexes hold.  For equal, in and contains one
    side of a pair holds a single value, so a true pair shares exactly one
    key: each shared key gives its user rows x resource rows, and no pair
    comes up twice.  supseteq counts each pair's shared keys against the
    size of the resource's set; an empty set matches every known user set.
    Cost: O(shared keys + joined pairs), where supseteq joins every pair
    that shares an element.
    """
    if con.op not in CONSTRAINT_KINDS:
        raise SchemaError(f"unknown constraint operator: {con.op}")
    nr = resources.count
    shared = [(users.rows[key], resources.rows[key])
              for key in users.rows.keys() & resources.rows.keys()]
    if con.op == "supseteq":
        hits = Counter(u * nr + r for us, rs in shared for u in us for r in rs)
        found = [p for p, n in hits.items() if n == resources.size[p % nr]]
        found += [u * nr + r for u in users.size for r in resources.empty]
    else:
        found = [u * nr + r for us, rs in shared for u in us for r in rs]
    found.sort()
    return found


def rule_meaning(rule: Rule, om: ObjectModel):
    """Entitlements the rule grants, plus the count of unknown (user, resource)
    pairs.

    Definite pairs come from a join on the first constraint (every
    definite user with every definite resource when there is none), checked
    on the rest.  A pair with an uncertain object has an unknown condition
    or a MISSING constraint cell, so it is never granted: it is unknown
    unless one of its tests is false.  Cost: O(users + resources + set
    elements + joined pairs + uncertain objects x the other side).
    """
    cons = rule.constraints
    users, uncertain_users = _survivors(
        om.users.values(), rule.user_conds, [c.user_attr for c in cons]
    )
    if not users and not uncertain_users:
        return set(), 0
    resources, uncertain_res = _survivors(
        om.resources.values(), rule.res_conds, [c.res_attr for c in cons]
    )
    if cons:
        first, nr = cons[0], len(resources)
        joined = matches(
            first, ValueIndex(users, first.user_attr), ValueIndex(resources, first.res_attr)
        )
        pairs = ((users[p // nr], resources[p % nr]) for p in joined)
    else:
        pairs = ((user, res) for user in users for res in resources)
    granted = set()
    for user, res in pairs:
        if all(eval_atomic_constraint(user, res, c) is Tri.TRUE for c in cons[1:]):
            for a in rule.actions:
                granted.add(Entitlement(user.id, res.id, a))
    everyone = [(res, Tri.TRUE) for res in resources] + uncertain_res
    checks = [(user, uc, everyone) for user, uc in uncertain_users]
    checks += [(user, Tri.TRUE, uncertain_res) for user in users]
    unknown_pairs = 0
    for user, uc, others in checks:
        for res, rc in others:
            if tri_all((uc, rc, eval_constraint(user, res, cons))) is Tri.UNKNOWN:
                unknown_pairs += 1
    return granted, unknown_pairs


def policy_meaning(policy: Policy):
    """Union of rule meanings; second element counts unknown pair evaluations."""
    granted = set()
    unknown_pairs = 0
    for rule in policy.rules:
        g, u = rule_meaning(rule, policy.model)
        granted |= g
        unknown_pairs += u
    return granted, unknown_pairs
