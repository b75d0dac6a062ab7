import pytest

from abacfill.model import MISSING, NULL, Entitlement, EntitlementIndex, InputError, Side
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


@pytest.mark.parametrize("name, raw, message", [
    ("rank", None, "users[0]: undeclared attribute 'rank'"),
    ("rank", ["a"], "users[0]: undeclared attribute 'rank'"),
    ("id", "u2", "users[0]: 'id' belongs at the top level"),
    ("id", None, "users[0]: 'id' belongs at the top level"),
])
def test_undeclared_names_rejected_whatever_the_cell(name, raw, message):
    """A name the side does not declare is rejected whatever its cell,
    nulls included, which loading stores after one test."""
    doc = _base_doc()
    doc["users"][0]["attrs"][name] = raw
    with pytest.raises(InputError) as info:
        policy_from_dict(doc)
    assert str(info.value) == message


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
    assert set(load_entitlements(str(path), campus_policy.model)) == ents


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


@pytest.mark.parametrize("faults, line, message", [
    (["csFac1,cs101gb", "nobody,cs101gb,modify"], 4, "expected 3 columns"),
    (["nobody,cs101gb,modify", "csFac1,cs101gb"], 4, "unknown user 'nobody'"),
    (["csFac1,cs101gb,fly", "nobody,nothing,modify"], 4, "unknown action 'fly'"),
])
def test_entitlement_loader_names_the_first_bad_line(tmp_path, campus_policy, faults, line, message):
    """Rows are checked as sets first; a file that fails names its first
    bad line, counting blank lines, as a row-by-row check would."""
    path = tmp_path / "e.csv"
    first, second = faults
    path.write_text(f"user,resource,action\ncsFac1,cs101gb,modify\n\n{first}\n\n\n{second}\n")
    with pytest.raises(InputError) as info:
        load_entitlements(str(path), campus_policy.model)
    assert str(info.value) == f"{path}:{line}: {message}"


def test_entitlement_loader_skips_blank_lines(tmp_path, campus_policy):
    path = tmp_path / "e.csv"
    path.write_text("user,resource,action\n\ncsFac1,cs101gb,modify\n\n")
    loaded = load_entitlements(str(path), campus_policy.model)
    assert set(loaded) == {Entitlement("csFac1", "cs101gb", "modify")}
    assert all(type(e) is Entitlement for e in loaded)
    path.write_text("user,resource,action\n\n")
    assert set(load_entitlements(str(path), campus_policy.model)) == set()


@pytest.mark.parametrize("body", [
    "csFac1,cs101gb,modify\ncsFac2,cs601gb,modify\ncsFac1,cs101gb,modify\n",
    "\ncsFac1,cs101gb,modify\n\n\neeFac1,ee101gb,modify\ncsStu1,csStu1trans,modify\n\n",
    "csFac1,cs101gb,modify\ncsFac1,cs601gb,modify\ncsFac2,cs101gb,modify\ncsFac1,cs101gb,modify\n",
    "",
])
def test_loaded_index_equals_the_index_of_the_rows(tmp_path, campus_policy, body):
    """The loader indexes its checked rows as EntitlementIndex indexes the
    set of their Entitlements: a repeated row is kept once, blank lines
    and a header-only file add nothing."""
    path = tmp_path / "e.csv"
    path.write_text("user,resource,action\n" + body)
    om = campus_policy.model
    loaded = load_entitlements(str(path), om)
    rows = {Entitlement(*line.split(",")) for line in body.splitlines() if line}
    want = EntitlementIndex(rows)
    assert len(list(loaded)) == len(rows) and set(loaded) == rows
    for side in Side:
        for oid in om.side_objects(side):
            assert loaded.linked(side, oid) == want.linked(side, oid)
