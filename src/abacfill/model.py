"""Core data model for attribute-based access control objects and policies.

Attribute cells distinguish two non-value states:

* NULL: the attribute does not apply to this object.  Definite.
* MISSING: the attribute applies but its value is unknown.

Single-valued cells hold a string, multi-valued cells hold a frozenset of
strings; either may instead hold one of the two sentinels above.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple, Union


class AbacError(Exception):
    """Base class for errors raised by this package."""


class SchemaError(AbacError):
    """An object or policy element contradicts the attribute schema."""


class InputError(AbacError):
    """Malformed or inconsistent user-supplied input."""


class ConfigError(AbacError):
    """Invalid configuration parameter."""


class InsufficientDataError(AbacError):
    """Not enough usable data to fit a model for a group pair."""


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


#: Attribute does not apply to the object.
NULL = _Sentinel("NULL")
#: Attribute applies but the value is unknown.
MISSING = _Sentinel("MISSING")

AttrValue = Union[str, frozenset, _Sentinel]


class AttrKind(enum.Enum):
    SINGLE = "single"
    MULTI = "multi"


class Side(enum.Enum):
    USER = "user"
    RESOURCE = "resource"


@dataclass(frozen=True)
class AttrSchema:
    name: str
    kind: AttrKind
    applies_to: Side


@dataclass
class Schema:
    """Attribute declarations keyed by (side, name).

    The two sides are separate namespaces: the same attribute name may be
    declared for users and for resources with different kinds.
    """

    attrs: dict = field(default_factory=dict)  # (Side, name) -> AttrSchema
    # Side -> {"id": NULL, then each other declared name: NULL} in
    # declaration order, the cells a new object starts from; kept by add
    _blank: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._blank = {side: {"id": NULL} for side in Side}
        for side, name in self.attrs:
            self._blank[side][name] = NULL

    def add(self, spec: AttrSchema) -> None:
        key = (spec.applies_to, spec.name)
        if key in self.attrs:
            raise SchemaError(
                f"duplicate attribute declaration: {spec.name} for {spec.applies_to.value}s"
            )
        self.attrs[key] = spec
        self._blank[spec.applies_to][spec.name] = NULL

    def blank(self, side: Side) -> dict:
        """A fresh cell dict for a new object of the side: id, then every
        other attribute the side declares, in declaration order, all NULL."""
        return self._blank[side].copy()

    def for_side(self, side: Side) -> list:
        return [a for (s, _), a in self.attrs.items() if s is side]

    def get(self, side: Side, name: str):
        return self.attrs.get((side, name))

    def kind(self, side: Side, name: str) -> AttrKind:
        spec = self.attrs.get((side, name))
        if spec is None:
            raise SchemaError(f"unknown {side.value} attribute: {name}")
        return spec.kind

    def check_ids(self) -> None:
        """Each side declares an id attribute, and it is single-valued."""
        for side in Side:
            spec = self.get(side, "id")
            if spec is None:
                raise SchemaError(f"schema lacks an id attribute for {side.value}s")
            if spec.kind is not AttrKind.SINGLE:
                raise SchemaError(f"the {side.value} id attribute must be single-valued")


def check_value(kind: AttrKind, value: AttrValue, where: str = "") -> None:
    """Raise SchemaError unless value fits the declared kind."""
    if value is NULL or value is MISSING:
        return
    ctx = f" ({where})" if where else ""
    if kind is AttrKind.SINGLE:
        if not isinstance(value, str):
            raise SchemaError(f"single-valued cell needs a string{ctx}: {value!r}")
    else:
        if not isinstance(value, frozenset):
            raise SchemaError(f"multi-valued cell needs a frozenset{ctx}: {value!r}")
        for v in value:
            if not isinstance(v, str):
                raise SchemaError(f"set element must be a string{ctx}: {v!r}")


@dataclass
class Obj:
    """One user or resource: an id, a side, and a cell per applicable attribute."""

    id: str
    side: Side
    attrs: dict  # name -> AttrValue; always includes "id"

    def value(self, name: str) -> AttrValue:
        return self.attrs.get(name, NULL)


class Entitlement(NamedTuple):
    user: str
    resource: str
    action: str


class EntitlementIndex:
    """Entitlements by object: the resources of a (user, action), the users
    of a (resource, action), and each object's own entitlements."""

    def __init__(self, entitlements):
        # each key's set or list is made once, by its first entitlement;
        # the readers use get, so a key nobody added never appears
        self._resources = defaultdict(set)  # (user, action) -> set of resource ids
        self._users = defaultdict(set)  # (resource, action) -> set of user ids
        self._own_users = defaultdict(list)  # user id -> [Entitlement]
        self._own_resources = defaultdict(list)  # resource id -> [Entitlement]
        for e in entitlements:
            user, resource, action = e
            self._resources[user, action].add(resource)
            self._users[resource, action].add(user)
            self._own_users[user].append(e)
            self._own_resources[resource].append(e)

    @classmethod
    def of(cls, entitlements) -> "EntitlementIndex":
        """The index itself, or a new index over a collection of Entitlements."""
        return entitlements if isinstance(entitlements, cls) else cls(entitlements)

    def resources(self, user: str, action: str):
        return self._resources.get((user, action), frozenset())

    def users(self, resource: str, action: str):
        return self._users.get((resource, action), frozenset())

    def own(self, side: Side, oid: str) -> list:
        own = self._own_users if side is Side.USER else self._own_resources
        return own.get(oid, [])


class AtomicCondition(NamedTuple):
    """Test of one object attribute.

    op "in": single-valued attr, val is a frozenset of strings.
    op "contains": multi-valued attr, val is a single string.
    """

    attr: str
    op: str
    val: AttrValue

    def render(self) -> str:
        if self.op == "in":
            vals = ",".join(sorted(self.val))
            return f"{self.attr} in {{{vals}}}"
        return f"{self.attr} contains {self.val}"


class AtomicConstraint(NamedTuple):
    """Relation between a user attribute and a resource attribute.

    Kind compatibility: equal S*S, in S*M, contains M*S, supseteq M*M
    (user side listed first).
    """

    user_attr: str
    op: str
    res_attr: str

    def render(self) -> str:
        return f"{self.user_attr} {self.op} {self.res_attr}"


#: op -> (user attr kind, resource attr kind)
CONSTRAINT_KINDS = {
    "equal": (AttrKind.SINGLE, AttrKind.SINGLE),
    "in": (AttrKind.SINGLE, AttrKind.MULTI),
    "contains": (AttrKind.MULTI, AttrKind.SINGLE),
    "supseteq": (AttrKind.MULTI, AttrKind.MULTI),
}


@dataclass(frozen=True)
class Rule:
    """Conjunctive rule: user conditions, resource conditions, constraints, actions."""

    user_conds: tuple
    res_conds: tuple
    constraints: tuple
    actions: frozenset

    def render(self) -> str:
        uc = "; ".join(c.render() for c in self.user_conds) or "true"
        rc = "; ".join(c.render() for c in self.res_conds) or "true"
        cc = "; ".join(c.render() for c in self.constraints) or "true"
        acts = ",".join(sorted(self.actions))
        return f"<{uc} | {rc} | {cc} | {acts}>"


@dataclass
class ObjectModel:
    schema: Schema
    users: dict = field(default_factory=dict)  # id -> Obj
    resources: dict = field(default_factory=dict)
    actions: tuple = ()

    def add(self, obj: Obj) -> None:
        table = self.users if obj.side is Side.USER else self.resources
        if obj.id in table:
            raise InputError(f"duplicate {obj.side.value} id: {obj.id}")
        table[obj.id] = obj

    def new(self, side: Side, oid: str, /, **cells) -> None:
        """Add the object oid: its id cell, then every other attribute the
        side declares, in schema order, NULL where cells names none.  A
        name the side does not declare is kept, so validate rejects it."""
        attrs = self.schema.blank(side)
        attrs["id"] = oid
        attrs.update(cells)
        self.add(Obj(oid, side, attrs))

    def side_objects(self, side: Side) -> dict:
        return self.users if side is Side.USER else self.resources

    def by_id(self, side: Side) -> list:
        """The side's objects in id order: the one order in which outputs walk a side."""
        table = self.side_objects(side)
        return [table[oid] for oid in sorted(table)]

    def copy(self) -> "ObjectModel":
        """A model whose cells can be rewritten without touching this one.
        Only the cell dicts are mutable: schema and values are shared."""

        def fresh(table):
            return {oid: Obj(o.id, o.side, dict(o.attrs)) for oid, o in table.items()}

        return ObjectModel(self.schema, fresh(self.users), fresh(self.resources), self.actions)

    def validate(self) -> None:
        self.schema.check_ids()
        for side, table in ((Side.USER, self.users), (Side.RESOURCE, self.resources)):
            declared = {a.name: a for a in self.schema.for_side(side)}
            for obj in table.values():
                idv = obj.attrs.get("id")
                if idv != obj.id or not isinstance(idv, str):
                    raise SchemaError(f"object {obj.id}: id cell must equal the object id")
                for name, value in obj.attrs.items():
                    if name not in declared:
                        raise SchemaError(f"object {obj.id}: undeclared attribute {name}")
                    check_value(declared[name].kind, value, where=f"{obj.id}.{name}")

    def cells(self):
        """Every (side, object id, attr name, value), users first, then by
        object id and attribute name: the one order in which prediction
        reports cells and a removal run samples them."""
        for side in Side:
            for obj in self.by_id(side):
                for name in sorted(obj.attrs):
                    yield side, obj.id, name, obj.attrs[name]

    def missing_cells(self) -> list:
        """All (side, object id, attr name) cells currently marked MISSING,
        in the order of cells().  Only the objects that hold one have their
        cells walked."""
        return [
            (side, obj.id, name)
            for side in Side
            for obj in self.by_id(side)
            if MISSING in obj.attrs.values()
            for name in sorted(obj.attrs)
            if obj.attrs[name] is MISSING
        ]


@dataclass
class Policy:
    model: ObjectModel
    rules: tuple

    def validate(self) -> None:
        self.model.validate()
        self.check_rules()

    def check_rules(self) -> None:
        """Each rule names declared actions, and its conditions and
        constraints fit the schema's sides and kinds."""
        schema = self.model.schema
        for rule in self.rules:
            if not rule.actions:
                raise SchemaError(f"rule with no actions: {rule.render()}")
            for a in rule.actions:
                if a not in self.model.actions:
                    raise SchemaError(f"rule uses undeclared action {a}")
            for side, conds in ((Side.USER, rule.user_conds), (Side.RESOURCE, rule.res_conds)):
                for c in conds:
                    _check_condition(schema, side, c)
            for c in rule.constraints:
                _check_constraint(schema, c)


def _check_condition(schema: Schema, side: Side, cond: AtomicCondition) -> None:
    spec = schema.get(side, cond.attr)
    if spec is None:
        raise SchemaError(f"condition on unknown {side.value} attribute {cond.attr}")
    if cond.op == "in":
        if spec.kind is not AttrKind.SINGLE:
            raise SchemaError(f"'in' condition needs a single-valued attribute: {cond.attr}")
        if not isinstance(cond.val, frozenset) or not cond.val:
            raise SchemaError(f"'in' condition needs a non-empty value set: {cond.render()}")
    elif cond.op == "contains":
        if spec.kind is not AttrKind.MULTI:
            raise SchemaError(f"'contains' condition needs a multi-valued attribute: {cond.attr}")
        if not isinstance(cond.val, str):
            raise SchemaError(f"'contains' condition needs a string value: {cond.render()}")
    else:
        raise SchemaError(f"unknown condition operator: {cond.op}")


def _check_constraint(schema: Schema, con: AtomicConstraint) -> None:
    if con.op not in CONSTRAINT_KINDS:
        raise SchemaError(f"unknown constraint operator: {con.op}")
    for attr, side in ((con.user_attr, Side.USER), (con.res_attr, Side.RESOURCE)):
        if schema.get(side, attr) is None:
            raise SchemaError(f"constraint on unknown {side.value} attribute {attr}")
    want_u, want_r = CONSTRAINT_KINDS[con.op]
    if (
        schema.kind(Side.USER, con.user_attr) is not want_u
        or schema.kind(Side.RESOURCE, con.res_attr) is not want_r
    ):
        raise SchemaError(f"constraint kind mismatch: {con.render()}")
