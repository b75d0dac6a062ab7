"""Load and save policies (JSON) and entitlement sets (CSV).

Cell encoding in JSON: a string for single-valued cells, a sorted array of
strings for multi-valued cells, JSON null for an inapplicable cell, and the
object {"missing": true} for an unknown cell.  The literal string "?" is
rejected everywhere so stray placeholder text cannot masquerade as a value.

Loading checks each cell once, as it parses it, against the schema, which
must declare a single-valued id on both sides; the loaded model needs no
second walk over its cells.  A plain string for a single-valued attribute
and a null are stored after one test; every other cell is parsed.
Entitlement rows are checked as sets: their lengths, and their users,
resources and actions against the model's.  Only a file that fails is
walked row by row, to name its first bad line; the rows of one that passes
go straight into an `EntitlementIndex`.

A file that cannot be read, is not UTF-8 text or is not valid JSON, nested
too deeply included, and a path that cannot be written raise InputError
naming the path.  `write_json` writes every JSON file and output: the text
of `json.dumps(doc, indent=2, sort_keys=...)`, without `json`'s
pure-Python encoder, passed piece by piece to a `write` callable as it is
encoded, so no output is ever held whole as one string.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from json.encoder import encode_basestring_ascii as _quote

from .model import (
    MISSING,
    NULL,
    AtomicCondition,
    AtomicConstraint,
    AttrKind,
    AttrSchema,
    EntitlementIndex,
    InputError,
    ObjectModel,
    Policy,
    Rule,
    Schema,
    SchemaError,
    Side,
)

_ENT_HEADER = ["user", "resource", "action"]


def _parse_cell(kinds: dict, name, raw, key: str, i: int):
    """The cell raw encodes for attribute name of object key[i]; an
    InputError located at key[i] if the side does not declare name or the
    cell does not fit its kind."""
    kind = kinds.get(name)
    if kind is None:
        if name == "id":
            raise InputError(f"{key}[{i}]: 'id' belongs at the top level")
        raise InputError(f"{key}[{i}]: undeclared attribute {name!r}")
    where = f"{key}[{i}].{name}"
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
    if raw is None:
        return NULL
    if isinstance(raw, dict):
        if raw == {"missing": True}:
            return MISSING
        raise InputError(f"{where}: unrecognized cell object {raw!r}")
    raise InputError(f"{where}: cannot interpret cell {raw!r}")


def dump_cell(value):
    """The JSON value of a cell, as `_parse_cell` reads it back; None, no
    value at all, stays null."""
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


def _load_side(om: ObjectModel, side: Side, entries: list, key: str) -> None:
    """Add the side's objects to om, checking each cell once, as it is read:
    the model needs no second walk.  The side's kinds and blank cells are
    looked up once.  A plain string for a single-valued attribute, not "?",
    and a null for a declared one are stored after one test each; any
    other cell goes through `_parse_cell`."""
    kinds = {a.name: a.kind for a in om.schema.for_side(side) if a.name != "id"}
    single = {name for name, kind in kinds.items() if kind is AttrKind.SINGLE}
    new = om.maker(side)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry:
            raise InputError(f"{key}[{i}]: needs an 'id'")
        oid = entry["id"]
        if not isinstance(oid, str):
            raise InputError(f"{key}[{i}]: id must be a string")
        given = entry.get("attrs", {})
        if not isinstance(given, dict):
            raise InputError(f"{key}[{i}]: 'attrs' must be an object")
        new(oid, {
            name: raw if raw.__class__ is str and name in single and raw != "?"
            else NULL if raw is None and name in kinds
            else _parse_cell(kinds, name, raw, key, i)
            for name, raw in given.items()
        })


def policy_from_dict(doc: dict) -> Policy:
    if not isinstance(doc, dict):
        raise InputError("policy document must be a JSON object")
    for key in ("schema", "actions", "users", "resources"):
        if key not in doc:
            raise InputError(f"policy document lacks '{key}'")

    schema = Schema()
    for i, item in enumerate(_array(doc, "schema", "policy")):
        where = f"schema[{i}]"
        if not isinstance(item, dict):
            raise InputError(f"{where}: must be an object")
        for key in ("kind", "appliesTo", "name"):
            if key not in item:
                raise InputError(f"{where}: lacks '{key}'")
        if item["kind"] not in ("single", "multi"):
            raise InputError(f"{where}: kind must be single or multi")
        if item["appliesTo"] not in ("user", "resource"):
            raise InputError(f"{where}: appliesTo must be user or resource")
        name = _string(item["name"], where, "name")
        try:
            schema.add(AttrSchema(name, AttrKind(item["kind"]), Side(item["appliesTo"])))
        except SchemaError as e:
            raise InputError(str(e)) from None
    try:
        schema.check_ids()
    except SchemaError as e:
        raise InputError(str(e)) from None

    actions = _array(doc, "actions", "policy")
    actions = tuple(_string(a, "policy", f"actions[{j}]") for j, a in enumerate(actions))
    if len(set(actions)) != len(actions):
        raise InputError("duplicate action names")

    om = ObjectModel(schema=schema, actions=actions)
    for side, key in ((Side.USER, "users"), (Side.RESOURCE, "resources")):
        _load_side(om, side, _array(doc, key, "policy"), key)

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
        policy.check_rules()
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
        for obj in om.by_id(side):
            attrs = {
                name: dump_cell(v)
                for name, v in sorted(obj.attrs.items())
                if name != "id"
            }
            out.append({"id": obj.id, "attrs": attrs})
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


def read_json(path: str):
    """The JSON document in the file at path; InputError when the file
    cannot be read, is not UTF-8 text or is not valid JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise InputError(f"{path} is not valid JSON: nested too deeply") from None


@contextlib.contextmanager
def writing(path: str, newline: str = None):
    """The `write` of the file at path, opened for UTF-8 text, for the body
    of a `with`; InputError when the file cannot be opened or written."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh.write
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from None


def load_policy(path: str) -> Policy:
    return policy_from_dict(read_json(path))


def save_policy(policy: Policy, path: str) -> None:
    with writing(path) as write:
        write_json(policy_to_dict(policy), write, sort_keys=False)
        write("\n")


_INFINITY = float("inf")


def _float_text(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INFINITY:
        return "Infinity"
    if o == -_INFINITY:
        return "-Infinity"
    return float.__repr__(o)


def _key_text(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _quote(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(o, out, nl: str, sort_keys: bool) -> None:
    """Append the text of o, at the indent that ends nl, through out.

    The type tests are `json`'s, in its order; an exact dict or list is
    recognized first, which no earlier test could have matched."""
    if o.__class__ is dict:
        _write_object(o, out, nl, sort_keys)
    elif o.__class__ is list:
        _write_array(o, out, nl, sort_keys)
    elif isinstance(o, str):
        out(_quote(o))
    elif o is None:
        out("null")
    elif o is True:
        out("true")
    elif o is False:
        out("false")
    elif isinstance(o, int):
        out(int.__repr__(o))
    elif isinstance(o, float):
        out(_float_text(o))
    elif isinstance(o, (list, tuple)):
        _write_array(o, out, nl, sort_keys)
    elif isinstance(o, dict):
        _write_object(o, out, nl, sort_keys)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _write_array(o, out, nl: str, sort_keys: bool) -> None:
    if not o:
        out("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    for v in o:
        if v.__class__ is str:
            out(sep + _quote(v))
        else:
            out(sep)
            _write_json(v, out, inner, sort_keys)
        sep = "," + inner
    out(nl + "]")


def _write_object(o, out, nl: str, sort_keys: bool) -> None:
    if not o:
        out("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for k, v in sorted(o.items()) if sort_keys else o.items():
        head = sep + (_quote(k) if k.__class__ is str else _key_text(k)) + ": "
        if v.__class__ is str:
            out(head + _quote(v))
        elif v is None:
            out(head + "null")
        else:
            out(head)
            _write_json(v, out, inner, sort_keys)
        sep = "," + inner
    out(nl + "}")


def write_json(doc, write, sort_keys: bool = True) -> None:
    """Pass exactly the text of `json.dumps(doc, indent=2,
    sort_keys=sort_keys)` to write, piece by piece as it is encoded, without
    `json`'s pure-Python encoder, which `indent` selects.

    Strings go through `json`'s own `encode_basestring_ascii`, C where the
    interpreter has it; numbers, NaN and the infinities, keys and the
    layout follow `json`, and a value or key `json` cannot write raises the
    same TypeError.  A document that contains itself raises RecursionError,
    where `json` raises ValueError.  What was written before an error stays
    written.
    """
    _write_json(doc, write, "\n", sort_keys)


def entitlements_to_csv(ents) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_ENT_HEADER)
    for e in sorted(ents):
        w.writerow([e.user, e.resource, e.action])
    return buf.getvalue()


def save_entitlements(ents, path: str) -> None:
    with writing(path, newline="") as write:
        write(entitlements_to_csv(ents))


def load_entitlements(path: str, model: ObjectModel) -> EntitlementIndex:
    """The entitlements of a CSV file, indexed: every row must name one of
    the model's users, resources and actions.  The checked rows go straight
    into the `EntitlementIndex`; blank lines are skipped and a repeated row
    is kept once."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e}") from None
    if not rows or rows[0] != _ENT_HEADER:
        raise InputError(f"{path}: first row must be {','.join(_ENT_HEADER)}")
    known = (model.users.keys(), model.resources.keys(), frozenset(model.actions))
    # the rows are checked as sets; only a file that fails that check is
    # walked row by row, to name its first bad line
    body = list(filter(None, rows[1:]))
    if not (set(map(len, body)) <= {3} and all(
        names >= set(column) for names, column in zip(known, zip(*body))
    )):
        _first_bad_row(path, rows, known)
    return EntitlementIndex(body)


def _first_bad_row(path: str, rows: list, known: tuple) -> None:
    """Raise InputError naming the first data row of rows that has other
    than 3 columns or a name outside known."""
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise InputError(f"{path}:{i}: expected 3 columns")
        for what, name, names in zip(_ENT_HEADER, row, known):
            if name not in names:
                raise InputError(f"{path}:{i}: unknown {what} {name!r}")
