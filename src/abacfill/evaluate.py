"""Three-valued evaluation of rules over possibly-incomplete object models.

A cell that is NULL makes any test on it false; a cell that is MISSING makes
the test unknown.  NULL is checked before MISSING on constraints so that a
definite inapplicability on either side wins.  Conjunction: any false makes
the whole rule false, otherwise any unknown makes it unknown.

A rule's meaning is computed without walking users x resources.  Each
object's conditions are evaluated once; objects whose conditions are false
drop out.  A survivor is definite when its conditions are true and no
constraint cell it is tested on is MISSING, and uncertain otherwise.
Definite pairs are found by a hash join on the rule's first constraint (a
`ValueIndex` over the resources' values or set elements) and checked on
the other constraints; a pair with an uncertain object can never be
granted and goes through the three-valued path only to count it as
unknown.  A rule costs
O(users + resources + set elements + joined pairs + uncertain objects x
the other side); a complete model has no uncertain objects.

That join, `matches`, is the one implementation of constraint truth on
known cells: feature learning takes its constraint columns from it too,
probing one `ValueIndex` per resource group and attribute.
"""

from __future__ import annotations

import enum

from .model import (
    CONSTRAINT_KINDS,
    MISSING,
    NULL,
    AtomicCondition,
    AtomicConstraint,
    AttrKind,
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
    element of their set; NULL cells are left out.  For set cells it also
    keeps each set's size and the positions of the empty ones, which
    supseteq needs."""

    def __init__(self, objs, attr: str):
        self.count = len(objs)
        self.rows, self.size, self.empty = {}, {}, []
        for r, obj in enumerate(objs):
            v = obj.value(attr)
            if v is NULL:
                continue
            if isinstance(v, frozenset):
                self.size[r] = len(v)
                if not v:
                    self.empty.append(r)
            for key in v if isinstance(v, frozenset) else (v,):
                self.rows.setdefault(key, []).append(r)


def matches(con: AtomicConstraint, users, resources: ValueIndex):
    """Yields (u, [r, ...]) for each user index u with a match: the
    positions r in the resource index for which con is true on users[u]
    and that resource.  Callers must not modify the lists.

    Precondition: no cell con tests is MISSING, and resources indexes the
    resources by con.res_attr.  rule_meaning passes definite survivors,
    and learning passes untainted members.

    A user probes the index with its value or each element of its set.
    For equal, in and contains a resource is reached by at most one probe,
    so every hit is a match; supseteq counts hits against the size of the
    resource's set, so an empty set matches every user.  NULL matches
    nothing.  Cost: O(users + user set elements + matches).
    """
    if con.op not in CONSTRAINT_KINDS:
        raise SchemaError(f"unknown constraint operator: {con.op}")
    user_set = CONSTRAINT_KINDS[con.op][0] is AttrKind.MULTI
    rows = resources.rows
    for u, user in enumerate(users):
        vu = user.value(con.user_attr)
        if vu is NULL:
            continue
        if con.op == "supseteq":
            hits = {}
            for key in vu:
                for r in rows.get(key, ()):
                    hits[r] = hits.get(r, 0) + 1
            found = resources.empty + [r for r, n in hits.items() if n == resources.size[r]]
        elif user_set:
            found = [r for key in vu for r in rows.get(key, ())]
        else:
            found = rows.get(vu, ())
        if found:
            yield u, found


def rule_meaning(rule: Rule, om: ObjectModel):
    """Entitlements the rule grants, plus the count of unknown (user, resource)
    pairs.

    Definite pairs come from a hash join on the first constraint (every
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
        joined = matches(cons[0], users, ValueIndex(resources, cons[0].res_attr))
        pairs = ((users[u], resources[r]) for u, hits in joined for r in hits)
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
