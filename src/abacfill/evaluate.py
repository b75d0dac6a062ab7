"""Three-valued evaluation of rules over possibly-incomplete object models.

A cell that is NULL makes any test on it false; a cell that is MISSING makes
the test unknown.  NULL is checked before MISSING on constraints so that a
definite inapplicability on either side wins.  Conjunction: any false makes
the whole rule false, otherwise any unknown makes it unknown.
"""

from __future__ import annotations

import enum

from .model import (
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


def rule_meaning(rule: Rule, om: ObjectModel):
    """Entitlements the rule grants, plus the count of unknown (user, resource) pairs."""
    granted = set()
    unknown_pairs = 0
    for user in om.users.values():
        uc = eval_condition(user, rule.user_conds)
        if uc is Tri.FALSE:
            continue
        for res in om.resources.values():
            rc = eval_condition(res, rule.res_conds)
            if rc is Tri.FALSE:
                continue
            cc = eval_constraint(user, res, rule.constraints)
            verdict = tri_all((uc, rc, cc))
            if verdict is Tri.TRUE:
                for a in sorted(rule.actions):
                    granted.add(Entitlement(user.id, res.id, a))
            elif verdict is Tri.UNKNOWN:
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
