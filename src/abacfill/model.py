"""Core data model for attribute-based access control objects and policies.

Attribute cells distinguish two non-value states:

* NULL: the attribute does not apply to this object.  Definite.
* MISSING: the attribute applies but its value is unknown.

Single-valued cells hold a string, multi-valued cells hold a frozenset of
strings; either may instead hold one of the two sentinels above.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from types import MappingProxyType
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


class Record:
    """Value equality and a readable repr for a record with __slots__: equal
    to a record of its own class whose fields, compared as a tuple in slot
    order, are equal.  Only the records that are compared take it on."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = attrgetter(*self.__slots__)
        return fields(self) == fields(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class AttrSchema:
    __slots__ = ("name", "kind", "applies_to")

    def __init__(self, name: str, kind: AttrKind, applies_to: Side):
        self.name, self.kind, self.applies_to = name, kind, applies_to


class Schema:
    """Attribute declarations keyed by (side, name).

    The two sides are separate namespaces: the same attribute name may be
    declared for users and for resources with different kinds.
    """

    __slots__ = ("attrs", "_blank")

    def __init__(self, attrs: dict = None):
        self.attrs = {} if attrs is None else attrs  # (Side, name) -> AttrSchema
        # Side -> {"id": NULL, then each other declared name: NULL} in
        # declaration order, the cells a new object starts from; kept by add
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


class Obj:
    """One user or resource: an id, a side, and a cell per applicable attribute."""

    __slots__ = ("id", "side", "attrs")

    def __init__(self, id: str, side: Side, attrs: dict):
        self.id = id
        self.side = side
        self.attrs = attrs  # name -> AttrValue; always includes "id"

    def value(self, name: str) -> AttrValue:
        return self.attrs.get(name, NULL)


class Entitlement(NamedTuple):
    user: str
    resource: str
    action: str


_NO_LINKS = MappingProxyType({})


class EntitlementIndex:
    """Entitlements as one adjacency per side: object id -> action -> the
    set of counterpart ids.  Built from any (user, resource, action)
    triples, Entitlements or a loader's checked rows alike; a repeated
    triple is kept once.  Iterating yields each entitlement once, in no
    order."""

    def __init__(self, entitlements):
        self._resources = {}  # user id -> action -> set of resource ids
        self._users = {}  # resource id -> action -> set of user ids
        for user, resource, action in entitlements:
            self._resources.setdefault(user, {}).setdefault(action, set()).add(resource)
            self._users.setdefault(resource, {}).setdefault(action, set()).add(user)

    def __iter__(self):
        for user, by_action in self._resources.items():
            for action, resources in by_action.items():
                for resource in resources:
                    yield Entitlement(user, resource, action)

    def linked(self, side: Side, oid: str):
        """action -> the ids the object of the side is entitled with under
        it, for each action it has any: the index's own map, to be read only."""
        return (self._resources if side is Side.USER else self._users).get(oid, _NO_LINKS)


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


class Rule:
    """Conjunctive rule: user conditions, resource conditions, constraints, actions."""

    __slots__ = ("user_conds", "res_conds", "constraints", "actions")

    def __init__(self, user_conds: tuple, res_conds: tuple, constraints: tuple, actions: frozenset):
        self.user_conds, self.res_conds = user_conds, res_conds
        self.constraints, self.actions = constraints, actions

    def render(self) -> str:
        uc = "; ".join(c.render() for c in self.user_conds) or "true"
        rc = "; ".join(c.render() for c in self.res_conds) or "true"
        cc = "; ".join(c.render() for c in self.constraints) or "true"
        acts = ",".join(sorted(self.actions))
        return f"<{uc} | {rc} | {cc} | {acts}>"


class ObjectModel:
    __slots__ = ("schema", "users", "resources", "actions")

    def __init__(self, schema: Schema, users: dict = None, resources: dict = None,
                 actions: tuple = ()):
        self.schema = schema
        self.users = {} if users is None else users  # id -> Obj
        self.resources = {} if resources is None else resources
        self.actions = actions

    def add(self, obj: Obj) -> None:
        table = self.users if obj.side is Side.USER else self.resources
        if obj.id in table:
            raise InputError(f"duplicate {obj.side.value} id: {obj.id}")
        table[obj.id] = obj

    def new(self, side: Side, oid: str, /, **cells) -> None:
        """Add the object oid: its id cell, then every other attribute the
        side declares, in schema order, NULL where cells names none.  A
        name the side does not declare is kept, so validate rejects it."""
        self.maker(side)(oid, cells)

    def maker(self, side: Side):
        """A function of (oid, cells) that adds what new(side, oid,
        **cells) adds, with the side's blank cells looked up once: a loader
        adding many objects of one side pays for that lookup once."""
        blank = self.schema.blank(side)

        def make(oid: str, cells: dict) -> None:
            attrs = blank.copy()
            attrs["id"] = oid
            attrs.update(cells)
            self.add(Obj(oid, side, attrs))

        return make

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


class Policy:
    __slots__ = ("model", "rules")

    def __init__(self, model: ObjectModel, rules: tuple):
        self.model, self.rules = model, rules

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
