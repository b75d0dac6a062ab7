import copy
import random

import pytest

from abacfill.clustering import ClusteringConfig
from abacfill.generator import GeneratorConfig
from abacfill.model import (
    MISSING,
    NULL,
    AtomicCondition,
    AtomicConstraint,
    AttrKind,
    AttrSchema,
    ConfigError,
    Entitlement,
    EntitlementIndex,
    InputError,
    Obj,
    ObjectModel,
    Policy,
    Rule,
    Schema,
    SchemaError,
    Side,
    check_value,
)
from abacfill.prediction import PredictionConfig


def test_sentinels_are_distinct_singletons():
    assert NULL is not MISSING
    assert repr(NULL) == "NULL"
    assert repr(MISSING) == "MISSING"
    assert NULL != "NULL" and MISSING != "MISSING"
    assert copy.deepcopy(NULL) is NULL
    assert copy.copy(MISSING) is MISSING


def test_check_value_accepts_sentinels_for_both_kinds():
    for kind in (AttrKind.SINGLE, AttrKind.MULTI):
        check_value(kind, NULL)
        check_value(kind, MISSING)


def test_check_value_rejects_kind_mismatch():
    with pytest.raises(SchemaError):
        check_value(AttrKind.SINGLE, frozenset({"a"}))
    with pytest.raises(SchemaError):
        check_value(AttrKind.MULTI, "a")
    with pytest.raises(SchemaError):
        check_value(AttrKind.MULTI, frozenset({1}))


def test_schema_rejects_duplicate_declaration():
    s = Schema()
    s.add(AttrSchema("dept", AttrKind.SINGLE, Side.USER))
    with pytest.raises(SchemaError):
        s.add(AttrSchema("dept", AttrKind.MULTI, Side.USER))


def test_schema_kind_lookup_unknown_attr():
    with pytest.raises(SchemaError):
        Schema().kind(Side.USER, "nope")


def test_schema_sides_are_separate_namespaces():
    s = Schema()
    s.add(AttrSchema("dept", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("dept", AttrKind.MULTI, Side.RESOURCE))
    assert s.kind(Side.USER, "dept") is AttrKind.SINGLE
    assert s.kind(Side.RESOURCE, "dept") is AttrKind.MULTI


def _tiny_model():
    s = Schema()
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("dept", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("tags", AttrKind.MULTI, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.RESOURCE))
    s.add(AttrSchema("owner", AttrKind.SINGLE, Side.RESOURCE))
    om = ObjectModel(schema=s, actions=("read",))
    om.add(Obj("u1", Side.USER, {"id": "u1", "dept": "cs", "tags": frozenset({"x"})}))
    om.add(Obj("r1", Side.RESOURCE, {"id": "r1", "owner": "u1"}))
    return om


def test_duplicate_object_id_rejected():
    om = _tiny_model()
    with pytest.raises(InputError):
        om.add(Obj("u1", Side.USER, {"id": "u1", "dept": "ee", "tags": NULL}))


def test_validate_accepts_well_formed_model():
    _tiny_model().validate()


def test_validate_rejects_undeclared_attribute():
    om = _tiny_model()
    om.users["u1"].attrs["rank"] = "full"
    with pytest.raises(SchemaError):
        om.validate()


def test_validate_rejects_kind_mismatch():
    om = _tiny_model()
    om.users["u1"].attrs["dept"] = frozenset({"cs"})
    with pytest.raises(SchemaError):
        om.validate()


def test_validate_rejects_id_cell_disagreement():
    om = _tiny_model()
    om.users["u1"].attrs["id"] = "other"
    with pytest.raises(SchemaError):
        om.validate()


def test_new_lays_out_id_then_declared_attributes_in_schema_order():
    s = Schema()
    s.add(AttrSchema("tags", AttrKind.MULTI, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("dept", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.RESOURCE))
    om = ObjectModel(schema=s)
    om.new(Side.USER, "u1", dept="cs")
    om.new(Side.USER, "u2", dept="ee", tags=frozenset({"x"}))
    om.new(Side.RESOURCE, "r1")
    u1, u2, r1 = om.users["u1"], om.users["u2"], om.resources["r1"]
    assert (u1.id, u1.side, r1.id, r1.side) == ("u1", Side.USER, "r1", Side.RESOURCE)
    assert list(u1.attrs.items()) == [("id", "u1"), ("tags", NULL), ("dept", "cs")]
    assert list(u2.attrs.items()) == [("id", "u2"), ("tags", frozenset({"x"})), ("dept", "ee")]
    assert list(r1.attrs.items()) == [("id", "r1")]
    om.validate()
    with pytest.raises(InputError, match="duplicate user id: u1"):
        om.new(Side.USER, "u1")


def test_new_takes_attributes_named_side_and_oid():
    s = Schema()
    for name in ("id", "side", "oid"):
        s.add(AttrSchema(name, AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.RESOURCE))
    s.add(AttrSchema("side", AttrKind.MULTI, Side.RESOURCE))
    om = ObjectModel(schema=s, actions=("read",))
    om.new(Side.USER, "u1", oid="o1", side="left")
    om.new(Side.RESOURCE, "r1", side=frozenset({"right"}))
    assert list(om.users["u1"].attrs.items()) == [("id", "u1"), ("side", "left"), ("oid", "o1")]
    assert om.resources["r1"].attrs == {"id": "r1", "side": frozenset({"right"})}
    Policy(om, ()).validate()


def test_new_keeps_an_undeclared_name_for_validate():
    om = _tiny_model()
    om.new(Side.USER, "u2", dpt="ee")
    assert om.users["u2"].attrs["dept"] is NULL
    with pytest.raises(SchemaError, match="undeclared attribute dpt"):
        om.validate()


def test_cells_walk_users_then_ids_then_attribute_names():
    om = _tiny_model()
    om.new(Side.USER, "u0", tags=MISSING)
    assert list(om.cells()) == [
        (Side.USER, "u0", "dept", NULL),
        (Side.USER, "u0", "id", "u0"),
        (Side.USER, "u0", "tags", MISSING),
        (Side.USER, "u1", "dept", "cs"),
        (Side.USER, "u1", "id", "u1"),
        (Side.USER, "u1", "tags", frozenset({"x"})),
        (Side.RESOURCE, "r1", "id", "r1"),
        (Side.RESOURCE, "r1", "owner", "u1"),
    ]
    assert om.missing_cells() == [(Side.USER, "u0", "tags")]


def test_policy_validate_checks_rule_shapes():
    om = _tiny_model()
    ok = Rule(
        (AtomicCondition("dept", "in", frozenset({"cs"})),),
        (),
        (AtomicConstraint("dept", "equal", "owner"),),
        frozenset({"read"}),
    )
    Policy(om, (ok,)).validate()

    wrong_side = Rule((AtomicCondition("owner", "in", frozenset({"u1"})),), (), (), frozenset({"read"}))
    with pytest.raises(SchemaError):
        Policy(om, (wrong_side,)).validate()

    wrong_kind = Rule((AtomicCondition("tags", "in", frozenset({"x"})),), (), (), frozenset({"read"}))
    with pytest.raises(SchemaError):
        Policy(om, (wrong_kind,)).validate()

    bad_action = Rule((), (), (), frozenset({"write"}))
    with pytest.raises(SchemaError):
        Policy(om, (bad_action,)).validate()

    no_action = Rule((), (), (), frozenset())
    with pytest.raises(SchemaError):
        Policy(om, (no_action,)).validate()

    bad_con = Rule((), (), (AtomicConstraint("tags", "equal", "owner"),), frozenset({"read"}))
    with pytest.raises(SchemaError):
        Policy(om, (bad_con,)).validate()


# rules built in code, which reach check_rules without the policy loader's
# parsing: each breaks one rule of the schema's sides, kinds or operators
HAND_BUILT_RULES = [
    (Rule((AtomicCondition("dept", "in", frozenset()),), (), (), frozenset({"read"})),
     "'in' condition needs a non-empty value set"),
    (Rule((AtomicCondition("dept", "contains", "cs"),), (), (), frozenset({"read"})),
     "'contains' condition needs a multi-valued attribute: dept"),
    (Rule((AtomicCondition("tags", "contains", frozenset({"x"})),), (), (), frozenset({"read"})),
     "'contains' condition needs a string value"),
    (Rule((AtomicCondition("dept", "near", "cs"),), (), (), frozenset({"read"})),
     "unknown condition operator: near"),
    (Rule((), (), (AtomicConstraint("dept", "near", "owner"),), frozenset({"read"})),
     "unknown constraint operator: near"),
    (Rule((), (), (AtomicConstraint("rank", "equal", "owner"),), frozenset({"read"})),
     "constraint on unknown user attribute rank"),
]


@pytest.mark.parametrize(
    "rule,message", HAND_BUILT_RULES,
    ids=["empty-in", "contains-single", "contains-set", "condition-op", "constraint-op",
         "constraint-attr"],
)
def test_check_rules_rejects_hand_built_rules(rule, message):
    with pytest.raises(SchemaError, match=message):
        Policy(_tiny_model(), (rule,)).check_rules()


def test_entitlement_index_matches_a_scan():
    # users and resources share ids o0.. (the two sides are separate
    # namespaces), and "nobody" holds no entitlement on either side
    rng = random.Random(29)
    shared_id_split = 0
    for _ in range(60):
        users = [f"o{i}" for i in range(rng.randint(1, 5))]
        resources = [f"o{i}" for i in range(rng.randint(1, 5))]
        actions = ["read", "write", "grade"][: rng.randint(1, 3)]
        pool = [Entitlement(u, r, a) for u in users for r in resources for a in actions]
        ents = set(rng.sample(pool, rng.randint(0, len(pool))))
        index = EntitlementIndex(ents)
        for oid in users + resources + ["nobody"]:
            as_user = sorted(e for e in ents if e.user == oid)
            as_resource = sorted(e for e in ents if e.resource == oid)
            linked_u, linked_r = index.linked(Side.USER, oid), index.linked(Side.RESOURCE, oid)
            assert sorted(Entitlement(oid, r, a) for a, rs in linked_u.items() for r in rs) == as_user
            assert sorted(Entitlement(u, oid, a) for a, us in linked_r.items() for u in us) == as_resource
            assert all(linked_u.values()) and all(linked_r.values())
            shared_id_split += bool(as_user and as_resource and as_user != as_resource)
        listed = list(index)
        assert len(listed) == len(ents) and set(listed) == ents
        assert all(type(e) is Entitlement for e in listed)
    assert shared_id_split > 0


def test_missing_cells_enumeration(campus_policy):
    cells = campus_policy.model.missing_cells()
    assert cells == [
        (Side.USER, "csFac1", "coursesTaught"),
        (Side.USER, "csFac1", "department"),
    ]


def test_model_copy_is_independent(campus_policy):
    om = campus_policy.model
    own = om.copy()
    assert own.schema is om.schema and own.actions == om.actions
    assert list(own.users) == list(om.users) and list(own.resources) == list(om.resources)
    for oid, obj in om.users.items():
        assert own.users[oid] is not obj and own.users[oid].attrs == obj.attrs
    own.users["csFac1"].attrs["position"] = MISSING
    assert om.users["csFac1"].attrs["position"] is not MISSING


def test_rule_render_mentions_every_part():
    r = Rule(
        (AtomicCondition("dept", "in", frozenset({"cs", "ee"})),),
        (),
        (AtomicConstraint("tags", "contains", "owner"),),
        frozenset({"read"}),
    )
    text = r.render()
    assert "dept in {cs,ee}" in text
    assert "tags contains owner" in text
    assert "read" in text


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ClusteringConfig(threshold=-0.1), "similarity threshold must be in [0, 1]: -0.1"),
        (lambda: ClusteringConfig(threshold=1.5), "similarity threshold must be in [0, 1]: 1.5"),
        (lambda: ClusteringConfig(weights={"dept": float("nan")}),
         "attribute weight must be finite and positive: dept=nan"),
        (lambda: ClusteringConfig(weights={"dept": 0.0}),
         "attribute weight must be finite and positive: dept=0.0"),
        (lambda: ClusteringConfig(weights={"dept": -2.0}),
         "attribute weight must be finite and positive: dept=-2.0"),
        (lambda: PredictionConfig(high_rank_limit=4, medium_rank_limit=3),
         "rank gates must satisfy 0 < high <= medium: 4, 3"),
        (lambda: PredictionConfig(high_rank_limit=0), "rank gates must satisfy 0 < high <= medium: 0, 5"),
        (lambda: GeneratorConfig(template="hospital"),
         "unknown template 'hospital'; choose from ('university', 'project')"),
        (lambda: GeneratorConfig(template="university", scale=0), "scale must be at least 1: 0"),
    ],
    ids=["threshold-low", "threshold-high", "weight-nan", "weight-zero", "weight-negative",
         "gates-order", "gates-zero", "template", "scale"],
)
def test_configs_check_themselves_when_built(make, message):
    with pytest.raises(ConfigError) as exc:
        make()
    assert str(exc.value) == message
