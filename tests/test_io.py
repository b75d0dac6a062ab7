import pytest

from abacfill.model import MISSING, NULL, Entitlement, InputError
from abacfill.policy_io import (
    entitlements_to_csv,
    load_entitlements,
    load_policy,
    policy_from_dict,
    policy_to_dict,
    save_entitlements,
    save_policy,
)


def test_load_campus_cells(campus_policy):
    om = campus_policy.model
    u1 = om.users["csFac1"]
    assert u1.attrs["position"] == "faculty"
    assert u1.attrs["department"] is MISSING
    assert u1.attrs["coursesTaught"] is MISSING
    assert u1.attrs["coursesTaken"] is NULL
    u2 = om.users["csFac2"]
    assert u2.attrs["coursesTaught"] == frozenset({"cs601"})
    r6 = om.resources["csStu1trans"]
    assert r6.attrs["student"] == "csStu1"
    assert r6.attrs["course"] is NULL


def test_unlisted_declared_attribute_defaults_to_null():
    doc = {
        "schema": [
            {"name": "id", "kind": "single", "appliesTo": "user"},
            {"name": "dept", "kind": "single", "appliesTo": "user"},
            {"name": "id", "kind": "single", "appliesTo": "resource"},
        ],
        "actions": ["read"],
        "users": [{"id": "u1", "attrs": {}}],
        "resources": [{"id": "r1", "attrs": {}}],
        "rules": [],
    }
    p = policy_from_dict(doc)
    assert p.model.users["u1"].attrs["dept"] is NULL


def test_dict_round_trip(campus_policy):
    doc = policy_to_dict(campus_policy)
    again = policy_to_dict(policy_from_dict(doc))
    assert doc == again


def test_file_round_trip(tmp_path, campus_policy):
    path = tmp_path / "p.json"
    save_policy(campus_policy, str(path))
    reloaded = load_policy(str(path))
    assert policy_to_dict(reloaded) == policy_to_dict(campus_policy)


def _base_doc():
    return {
        "schema": [
            {"name": "id", "kind": "single", "appliesTo": "user"},
            {"name": "dept", "kind": "single", "appliesTo": "user"},
            {"name": "tags", "kind": "multi", "appliesTo": "user"},
            {"name": "id", "kind": "single", "appliesTo": "resource"},
        ],
        "actions": ["read"],
        "users": [{"id": "u1", "attrs": {"dept": "cs", "tags": ["a"]}}],
        "resources": [{"id": "r1", "attrs": {}}],
        "rules": [],
    }


def test_question_mark_placeholder_rejected():
    doc = _base_doc()
    doc["users"][0]["attrs"]["dept"] = "?"
    with pytest.raises(InputError, match="missing"):
        policy_from_dict(doc)
    doc = _base_doc()
    doc["users"][0]["attrs"]["tags"] = ["?"]
    with pytest.raises(InputError):
        policy_from_dict(doc)


def test_cell_shape_errors_rejected():
    doc = _base_doc()
    doc["users"][0]["attrs"]["dept"] = ["cs"]
    with pytest.raises(InputError):
        policy_from_dict(doc)
    doc = _base_doc()
    doc["users"][0]["attrs"]["tags"] = "a"
    with pytest.raises(InputError):
        policy_from_dict(doc)
    doc = _base_doc()
    doc["users"][0]["attrs"]["tags"] = {"missing": False}
    with pytest.raises(InputError):
        policy_from_dict(doc)


def test_undeclared_attribute_rejected():
    doc = _base_doc()
    doc["users"][0]["attrs"]["rank"] = "full"
    with pytest.raises(InputError, match="undeclared"):
        policy_from_dict(doc)


def test_duplicate_ids_rejected():
    doc = _base_doc()
    doc["users"].append({"id": "u1", "attrs": {}})
    with pytest.raises(InputError, match="duplicate"):
        policy_from_dict(doc)


def test_rule_validation_failures_surface_as_input_errors():
    doc = _base_doc()
    doc["rules"] = [{"uc": [["dept", "in", ["cs"]]], "rc": [], "c": [], "actions": ["write"]}]
    with pytest.raises(InputError):
        policy_from_dict(doc)
    doc = _base_doc()
    doc["rules"] = [{"uc": [["dept", "near", ["cs"]]], "rc": [], "c": [], "actions": ["read"]}]
    with pytest.raises(InputError, match="op"):
        policy_from_dict(doc)


def test_entitlement_csv_exact_bytes(campus_entitlements):
    text = entitlements_to_csv(campus_entitlements)
    assert text == (
        "user,resource,action\n"
        "csFac1,cs101gb,modify\n"
        "csFac2,cs601gb,modify\n"
        "eeFac1,ee101gb,modify\n"
        "eeFac2,ee601gb,modify\n"
    )


def test_entitlement_csv_round_trip(tmp_path, campus_policy):
    ents = {Entitlement("csFac1", "cs101gb", "modify"), Entitlement("csStu1", "csStu1trans", "modify")}
    path = tmp_path / "e.csv"
    save_entitlements(ents, str(path))
    assert load_entitlements(str(path), campus_policy.model) == ents


def test_entitlement_csv_header_required(tmp_path, campus_policy):
    path = tmp_path / "bad.csv"
    path.write_text("usr,res,act\ncsFac1,cs101gb,modify\n")
    with pytest.raises(InputError, match="first row"):
        load_entitlements(str(path), campus_policy.model)


def test_policy_json_is_stable_on_disk(tmp_path, campus_policy):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_policy(campus_policy, str(p1))
    save_policy(load_policy(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
