"""Load and save policies (JSON) and entitlement sets (CSV).

Cell encoding in JSON: a string for single-valued cells, a sorted array of
strings for multi-valued cells, JSON null for an inapplicable cell, and the
object {"missing": true} for an unknown cell.  The literal string "?" is
rejected everywhere so stray placeholder text cannot masquerade as a value.
"""

from __future__ import annotations

import csv
import io
import json

from .model import (
    MISSING,
    NULL,
    AtomicCondition,
    AtomicConstraint,
    AttrKind,
    AttrSchema,
    Entitlement,
    InputError,
    Obj,
    ObjectModel,
    Policy,
    Rule,
    Schema,
    SchemaError,
    Side,
)

_ENT_HEADER = ["user", "resource", "action"]


def _parse_cell(kind: AttrKind, raw, where: str):
    if raw is None:
        return NULL
    if isinstance(raw, dict):
        if raw == {"missing": True}:
            return MISSING
        raise InputError(f"{where}: unrecognized cell object {raw!r}")
    if isinstance(raw, str):
        if raw == "?":
            raise InputError(f"{where}: literal '?' is not a value; use {{\"missing\": true}}")
        if kind is not AttrKind.SINGLE:
            raise InputError(f"{where}: multi-valued cell needs an array")
        return raw
    if isinstance(raw, list):
        if kind is not AttrKind.MULTI:
            raise InputError(f"{where}: single-valued cell needs a string")
        out = set()
        for v in raw:
            if not isinstance(v, str):
                raise InputError(f"{where}: set element {v!r} is not a string")
            if v == "?":
                raise InputError(f"{where}: literal '?' is not a value")
            out.add(v)
        return frozenset(out)
    raise InputError(f"{where}: cannot interpret cell {raw!r}")


def _dump_cell(value):
    if value is NULL:
        return None
    if value is MISSING:
        return {"missing": True}
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def _string(value, where: str, field: str) -> str:
    """value, which must be a JSON string: names are never coerced."""
    if not isinstance(value, str):
        raise InputError(f"{where}: {field} must be a string")
    return value


def _parse_condition(raw, where: str) -> AtomicCondition:
    if not isinstance(raw, list) or len(raw) != 3:
        raise InputError(f"{where}: condition must be [attr, op, val]")
    attr, op, val = raw
    if op == "in":
        if not isinstance(val, list):
            raise InputError(f"{where}: 'in' needs an array of values")
        val = frozenset(_string(v, where, "'in' value") for v in val)
    elif op == "contains":
        if not isinstance(val, str):
            raise InputError(f"{where}: 'contains' needs a string value")
    else:
        raise InputError(f"{where}: unknown condition op {op!r}")
    return AtomicCondition(_string(attr, where, "condition attr"), op, val)


def _parse_constraint(raw, where: str) -> AtomicConstraint:
    if not isinstance(raw, list) or len(raw) != 3:
        raise InputError(f"{where}: constraint must be [userAttr, op, resourceAttr]")
    ua, op, ra = raw
    return AtomicConstraint(
        _string(ua, where, "constraint userAttr"),
        _string(op, where, "constraint op"),
        _string(ra, where, "constraint resourceAttr"),
    )


def _array(entry: dict, key: str, where: str) -> list:
    """entry[key], which must be a JSON array; an absent key reads as []."""
    value = entry.get(key, [])
    if not isinstance(value, list):
        raise InputError(f"{where}: {key} must be an array")
    return value


def policy_from_dict(doc: dict) -> Policy:
    if not isinstance(doc, dict):
        raise InputError("policy document must be a JSON object")
    for key in ("schema", "actions", "users", "resources"):
        if key not in doc:
            raise InputError(f"policy document lacks '{key}'")

    schema = Schema()
    for i, item in enumerate(_array(doc, "schema", "policy")):
        try:
            kind = AttrKind(item["kind"])
            side = Side(item["appliesTo"])
            name = _string(item["name"], f"schema[{i}]", "name")
        except (KeyError, ValueError, TypeError) as e:
            raise InputError(f"schema[{i}]: {e}") from None
        try:
            schema.add(AttrSchema(name, kind, side))
        except SchemaError as e:
            raise InputError(str(e)) from None

    actions = _array(doc, "actions", "policy")
    actions = tuple(_string(a, "policy", f"actions[{j}]") for j, a in enumerate(actions))
    if len(set(actions)) != len(actions):
        raise InputError("duplicate action names")

    om = ObjectModel(schema=schema, actions=actions)
    for side, key in ((Side.USER, "users"), (Side.RESOURCE, "resources")):
        declared = {a.name: a for a in schema.for_side(side)}
        for i, entry in enumerate(_array(doc, key, "policy")):
            where = f"{key}[{i}]"
            if not isinstance(entry, dict) or "id" not in entry:
                raise InputError(f"{where}: needs an 'id'")
            oid = _string(entry["id"], where, "id")
            attrs = {"id": oid}
            given = entry.get("attrs", {})
            if not isinstance(given, dict):
                raise InputError(f"{where}: 'attrs' must be an object")
            for name, raw in given.items():
                if name == "id":
                    raise InputError(f"{where}: 'id' belongs at the top level")
                if name not in declared:
                    raise InputError(f"{where}: undeclared attribute {name!r}")
                attrs[name] = _parse_cell(declared[name].kind, raw, f"{where}.{name}")
            for name in declared:
                attrs.setdefault(name, NULL)
            om.add(Obj(id=oid, side=side, attrs=attrs))

    rules = []
    for i, entry in enumerate(_array(doc, "rules", "policy")):
        where = f"rules[{i}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where}: must be an object")
        uc = tuple(_parse_condition(c, where) for c in _array(entry, "uc", where))
        rc = tuple(_parse_condition(c, where) for c in _array(entry, "rc", where))
        cc = tuple(_parse_constraint(c, where) for c in _array(entry, "c", where))
        acts = _array(entry, "actions", where)
        acts = frozenset(_string(a, where, f"actions[{j}]") for j, a in enumerate(acts))
        rules.append(Rule(uc, rc, cc, acts))

    policy = Policy(model=om, rules=tuple(rules))
    try:
        policy.validate()
    except SchemaError as e:
        raise InputError(str(e)) from None
    return policy


def policy_to_dict(policy: Policy) -> dict:
    om = policy.model
    schema_items = [
        {"name": a.name, "kind": a.kind.value, "appliesTo": a.applies_to.value}
        for a in om.schema.attrs.values()
    ]

    def dump_side(side: Side):
        out = []
        for oid in sorted(om.side_objects(side)):
            obj = om.side_objects(side)[oid]
            attrs = {
                name: _dump_cell(v)
                for name, v in sorted(obj.attrs.items())
                if name != "id"
            }
            out.append({"id": oid, "attrs": attrs})
        return out

    def dump_cond(c: AtomicCondition):
        val = sorted(c.val) if isinstance(c.val, frozenset) else c.val
        return [c.attr, c.op, val]

    rules = [
        {
            "uc": [dump_cond(c) for c in r.user_conds],
            "rc": [dump_cond(c) for c in r.res_conds],
            "c": [[c.user_attr, c.op, c.res_attr] for c in r.constraints],
            "actions": sorted(r.actions),
        }
        for r in policy.rules
    ]

    return {
        "schema": schema_items,
        "actions": list(om.actions),
        "users": dump_side(Side.USER),
        "resources": dump_side(Side.RESOURCE),
        "rules": rules,
    }


def load_policy(path: str) -> Policy:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from None
    return policy_from_dict(doc)


def save_policy(policy: Policy, path: str) -> None:
    text = json.dumps(policy_to_dict(policy), indent=2, sort_keys=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def entitlements_to_csv(ents) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_ENT_HEADER)
    for e in sorted(ents):
        w.writerow([e.user, e.resource, e.action])
    return buf.getvalue()


def save_entitlements(ents, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(entitlements_to_csv(ents))


def load_entitlements(path: str, model: ObjectModel = None):
    """Entitlement rows of a CSV file.  Given a model, every row must name
    one of its users, resources and actions."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    if not rows or rows[0] != _ENT_HEADER:
        raise InputError(f"{path}: first row must be {','.join(_ENT_HEADER)}")
    out = set()
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise InputError(f"{path}:{i}: expected 3 columns")
        ent = Entitlement(row[0], row[1], row[2])
        if model is not None:
            for what, name, known in (
                ("user", ent.user, model.users),
                ("resource", ent.resource, model.resources),
                ("action", ent.action, model.actions),
            ):
                if name not in known:
                    raise InputError(f"{path}:{i}: unknown {what} {name!r}")
        out.add(ent)
    return out
