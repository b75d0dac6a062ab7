"""End-to-end command line tests, driven through main() in process."""

import json
import pathlib
import random

import pytest

from abacfill.cli import build_parser, main
from abacfill.model import NULL, InputError
from abacfill.policy_io import load_policy, save_policy

DATA = pathlib.Path(__file__).parent / "data"
CAMPUS = str(DATA / "campus.json")
CAMPUS_ENTS = str(DATA / "campus_entitlements.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def test_generate_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "generate", "--template", "university", "--scale", "1",
               "--seed", "7", "--out", str(a))[0] == 0
    assert run(capsys, "generate", "--template", "university", "--scale", "1",
               "--seed", "7", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_to_stdout_and_entitlements(tmp_path, capsys):
    ents = tmp_path / "e.csv"
    code, out, _ = run(capsys, "generate", "--template", "project",
                       "--entitlements-out", str(ents))
    assert code == 0
    doc = json.loads(out)
    assert {"schema", "actions", "users", "resources", "rules"} <= set(doc)
    lines = ents.read_text().splitlines()
    assert lines[0] == "user,resource,action"
    assert len(lines) > 1


def test_entitlements_subcommand_matches_generate(tmp_path, capsys):
    pol, ents = tmp_path / "p.json", tmp_path / "e.csv"
    run(capsys, "generate", "--template", "university", "--out", str(pol),
        "--entitlements-out", str(ents))
    code, out, _ = run(capsys, "entitlements", "--policy", str(pol))
    assert code == 0
    assert out == ents.read_text()


def test_entitlements_reject_incomplete_policy(capsys):
    # the campus fixture has unknown cells, so its meaning is not definite
    code, _, err = run(capsys, "entitlements", "--policy", CAMPUS)
    assert code == 1
    assert "error:" in err


def test_cluster_reports_signature_groups(tmp_path, capsys):
    pol = tmp_path / "p.json"
    run(capsys, "generate", "--template", "university", "--out", str(pol))
    code, out, _ = run(capsys, "cluster", "--policy", str(pol))
    assert code == 0
    doc = json.loads(out)
    assert doc["threshold"] == 0.25
    assert len(doc["groups"]) == 5
    by_gid = {g["gid"]: g for g in doc["groups"]}
    fac = next(g for g in doc["groups"] if "fac01a" in g["members"])
    assert fac["side"] == "user"
    assert fac["signature"] == ["coursesTaught", "department", "id", "position"]
    assert fac["pairs"] == 3
    assert fac["mean_similarity"] == pytest.approx(0.5)
    assert sorted(by_gid) == [g["gid"] for g in doc["groups"]]


def test_cluster_report_is_exact_at_a_tied_threshold(tmp_path, capsys):
    # every pair of the twelve materials is exactly 1/3 alike, so the group
    # passes a threshold of 1/3; a float sum over its 66 pairs would read
    # 0.33333333333333315, below the minimum and the threshold
    pol = tmp_path / "p.json"
    run(capsys, "generate", "--template", "university", "--scale", "4", "--seed", "4",
        "--out", str(pol))
    code, out, _ = run(capsys, "cluster", "--policy", str(pol), "--st", "0.3333333333333333")
    assert code == 0
    materials = next(g for g in json.loads(out)["groups"] if "mat01a" in g["members"])
    assert (len(materials["members"]), materials["pairs"]) == (12, 66)
    assert materials["mean_similarity"] == 0.3333333333333333
    assert materials["min_member_mean"] == 0.3333333333333333
    assert materials["max_member_mean"] == 0.3333333333333333


def test_features_names_the_fixture_signals(capsys):
    code, out, _ = run(capsys, "features", "--policy", CAMPUS,
                       "--entitlements", CAMPUS_ENTS,
                       "--user", "csFac2", "--resource", "cs101gb",
                       "--action", "modify")
    assert code == 0
    doc = json.loads(out)
    top3 = [f["feature"] for f in doc["features"][:3]]
    assert set(top3) == {
        "user.position in {faculty}",
        "resource.type in {gradebook}",
        "coursesTaught contains course",
    }
    ranks = [f["rank"] for f in doc["features"]]
    assert ranks == list(range(1, len(ranks) + 1))


def test_features_rejects_unknown_object(capsys):
    code, _, err = run(capsys, "features", "--policy", CAMPUS,
                       "--entitlements", CAMPUS_ENTS,
                       "--user", "nobody", "--resource", "cs101gb",
                       "--action", "modify")
    assert code == 1
    assert "unknown user" in err


@pytest.mark.parametrize("floor", ["nan", "inf"])
def test_features_rejects_a_floor_that_is_not_finite(capsys, floor):
    code, out, err = run(capsys, "features", "--policy", CAMPUS,
                         "--entitlements", CAMPUS_ENTS,
                         "--user", "csFac2", "--resource", "cs101gb",
                         "--action", "modify", "--floor", floor)
    assert (code, out) == (1, "")
    assert f"coefficient floor must be finite and positive: {floor}" in err


def test_predict_fixture_cells(capsys):
    code, out, _ = run(capsys, "predict", "--policy", CAMPUS,
                       "--entitlements", CAMPUS_ENTS)
    assert code == 0
    doc = json.loads(out)
    by_attr = {p["attr"]: p for p in doc["predictions"]}
    assert by_attr["coursesTaught"]["confidence"] == "High"
    assert by_attr["coursesTaught"]["value"] == ["cs101"]
    assert by_attr["coursesTaught"]["evidence"]
    # a declined cell is still a success, with the reason visible
    assert by_attr["department"]["confidence"] == "NEI"
    assert by_attr["department"]["value"] is None


def test_evaluate_summary_and_detail(tmp_path, capsys):
    csv_path, json_path = tmp_path / "m.csv", tmp_path / "m.json"
    code, _, _ = run(capsys, "evaluate", "--template", "university",
                     "--scales", "1", "--percents", "3,6", "--runs", "2",
                     "--csv", str(csv_path), "--json", str(json_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "dataset,objects,attributes,entitlements,accuracy,cov3,cov6,time_s"
    fields = lines[1].split(",")
    assert fields[0] == "university-1"
    assert fields[1:4] == ["15", "42", "30"]
    assert fields[4] == "1.0000"
    assert fields[-1] == ""  # timing off by default
    doc = json.loads(json_path.read_text())
    assert len(doc["detail"]) == 4
    assert all("elapsed_s" not in row for row in doc["detail"])
    verdicts = {c["verdict"] for row in doc["detail"] for c in row["cells"]}
    assert verdicts <= {"Correct", "Wrong", "NEI"}


def test_evaluate_outputs_are_byte_identical(tmp_path, capsys):
    outs = []
    for tag in ("x", "y"):
        csv_path, json_path = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        assert run(capsys, "evaluate", "--template", "project", "--scales", "1",
                   "--runs", "3", "--csv", str(csv_path), "--json", str(json_path))[0] == 0
        outs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert outs[0] == outs[1]


def test_evaluate_jobs_do_not_change_output(tmp_path, capsys):
    for template in ("university", "project"):
        outs = []
        for jobs in ("1", "4"):
            csv_path = tmp_path / f"{template}-j{jobs}.csv"
            json_path = tmp_path / f"{template}-j{jobs}.json"
            assert run(capsys, "evaluate", "--template", template, "--scales", "1",
                       "--runs", "2", "--jobs", jobs,
                       "--csv", str(csv_path), "--json", str(json_path))[0] == 0
            outs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert outs[0] == outs[1]


def test_attributes_named_side_and_oid_load_and_round_trip(tmp_path, capsys):
    doc = {
        "schema": [
            {"name": "id", "kind": "single", "appliesTo": "user"},
            {"name": "oid", "kind": "single", "appliesTo": "user"},
            {"name": "side", "kind": "single", "appliesTo": "user"},
            {"name": "id", "kind": "single", "appliesTo": "resource"},
            {"name": "side", "kind": "multi", "appliesTo": "resource"},
        ],
        "actions": ["read"],
        "users": [{"id": "u1", "attrs": {"side": "left", "oid": "o1"}}, {"id": "u2"}],
        "resources": [{"id": "r1", "attrs": {"side": ["right"]}}],
        "rules": [{"uc": [["side", "in", ["left"]]], "rc": [], "c": [], "actions": ["read"]}],
    }
    path, again = tmp_path / "policy.json", tmp_path / "again.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "entitlements", "--policy", str(path))
    assert (code, out, err) == (0, "user,resource,action\nu1,r1,read\n", "")
    policy = load_policy(str(path))
    assert list(policy.model.users["u1"].attrs) == ["id", "oid", "side"]
    assert policy.model.users["u2"].attrs == {"id": "u2", "oid": NULL, "side": NULL}
    save_policy(policy, str(again))
    reloaded = load_policy(str(again))
    for side in ("users", "resources"):
        table, back = getattr(policy.model, side), getattr(reloaded.model, side)
        assert {o: t.attrs for o, t in table.items()} == {o: t.attrs for o, t in back.items()}
    save_policy(reloaded, str(path))
    assert path.read_bytes() == again.read_bytes()


def test_evaluate_jobs_default_to_one():
    args = build_parser().parse_args(["evaluate", "--template", "university"])
    assert args.jobs == 1


@pytest.mark.parametrize("flag", ["--jobs", "--runs"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_evaluate_rejects_counts_below_one(capsys, flag, value):
    code, _, err = run(capsys, "evaluate", "--template", "university", flag, value)
    assert code == 1
    assert flag in err and "positive integer" in err


@pytest.mark.parametrize(
    "scales, percents, message",
    [
        ("2,2", "6", "duplicate value in --scales: 2"),
        ("2,3", "6,6", "duplicate value in --percents: 6"),
        ("2", "6,3,6.0", "duplicate value in --percents: 6"),
        # one key per percent: the 6 decimals the output prints
        ("2", "6,6.0000000000001", "duplicate value in --percents: 6"),
        ("2", "3,12.0000004,12", "duplicate value in --percents: 12"),
    ],
)
def test_evaluate_rejects_duplicate_scales_and_percents(capsys, scales, percents, message):
    code, out, err = run(capsys, "evaluate", "--template", "university",
                         "--scales", scales, "--percents", percents, "--runs", "1")
    assert (code, out) == (1, "")
    assert message in err


def test_evaluate_names_each_percent_by_its_key(tmp_path, capsys):
    """Percents that differ only past 6 significant digits get a column
    and detail rows of their own, each pooling its own run."""
    csv_path, json_path = tmp_path / "k.csv", tmp_path / "k.json"
    code, _, _ = run(capsys, "evaluate", "--template", "university", "--scales", "1",
                     "--runs", "1", "--percents", "20.000001,20.000002",
                     "--csv", str(csv_path), "--json", str(json_path))
    assert code == 0
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header[5:7] == ["cov20.000001", "cov20.000002"]
    doc = json.loads(json_path.read_text())
    assert doc["percents"] == [20.000001, 20.000002]
    assert [row["percent"] for row in doc["detail"]] == [20.000001, 20.000002]


def test_evaluate_timing_fills_the_time_column(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    run(capsys, "evaluate", "--template", "university", "--scales", "1",
        "--runs", "1", "--percents", "3", "--timing", "--csv", str(csv_path))
    fields = csv_path.read_text().splitlines()[1].split(",")
    assert fields[-1] != ""
    assert float(fields[-1]) >= 0.0


def test_evaluate_exact_multi_flag(tmp_path, capsys):
    json_path = tmp_path / "d.json"
    run(capsys, "evaluate", "--template", "university", "--scales", "1",
        "--runs", "1", "--percents", "3", "--exact-multi", "--json", str(json_path))
    assert json.loads(json_path.read_text())["subset_scoring"] is False


def test_config_file_and_flag_precedence(tmp_path, capsys):
    pol = tmp_path / "p.json"
    run(capsys, "generate", "--template", "university", "--out", str(pol))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"st": 0.3}')
    _, out, _ = run(capsys, "cluster", "--policy", str(pol), "--config", str(cfg))
    assert json.loads(out)["threshold"] == 0.3
    _, out, _ = run(capsys, "cluster", "--policy", str(pol), "--config", str(cfg),
                    "--st", "0.5")
    assert json.loads(out)["threshold"] == 0.5


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"threshold": 0.3}')
    code, _, err = run(capsys, "cluster", "--policy", CAMPUS, "--config", str(cfg))
    assert code == 1
    assert "unknown config keys" in err


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("cluster", {"st": "high"}, "st"),
        ("cluster", {"weights": {"position": "x"}}, "weights.position"),
        ("cluster", {"weights": {"position": None}}, "weights.position"),
        ("predict", {"ntcf": ["a", 5]}, "ntcf"),
        ("evaluate", {"seed": "abc"}, "seed"),
    ],
)
def test_config_file_rejects_wrong_types(tmp_path, capsys, command, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    args = {
        "cluster": ["--policy", CAMPUS],
        "predict": ["--policy", CAMPUS, "--entitlements", CAMPUS_ENTS],
        "evaluate": ["--template", "university", "--runs", "1", "--percents", "3"],
    }[command]
    code, _, err = run(capsys, command, *args, "--config", str(cfg))
    assert code == 1
    assert f"{key} must be" in err


@pytest.mark.parametrize("row, what", [
    ("nobody,cs101gb,modify", "user 'nobody'"),
    ("csFac1,nothing,modify", "resource 'nothing'"),
    ("csFac1,cs101gb,fly", "action 'fly'"),
])
def test_entitlement_rows_must_name_known_objects(tmp_path, capsys, row, what):
    ents = tmp_path / "ents.csv"
    lines = pathlib.Path(CAMPUS_ENTS).read_text().splitlines()
    ents.write_text("\n".join(lines + [row]) + "\n")
    where = f"{ents}:{len(lines) + 1}: unknown {what}"
    code, _, err = run(capsys, "predict", "--policy", CAMPUS, "--entitlements", str(ents))
    assert code == 1 and where in err
    code, _, err = run(capsys, "features", "--policy", CAMPUS, "--entitlements", str(ents),
                       "--user", "csFac1", "--resource", "cs101gb", "--action", "modify")
    assert code == 1 and where in err


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "predict", "--policy", "/no/such/file.json",
                       "--entitlements", CAMPUS_ENTS)
    assert code == 1
    assert "error:" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "predict", "--policy", str(bad),
                       "--entitlements", CAMPUS_ENTS)
    assert code == 1
    assert "line" in err and "column" in err


def test_bad_usage_exits_one(capsys):
    assert run(capsys, "cluster")[0] == 1
    assert run(capsys, "evaluate", "--template", "zoo")[0] == 1
    assert run(capsys, "evaluate", "--template", "university", "--scales", "x")[0] == 1
    assert run(capsys, "predict", "--policy", CAMPUS, "--entitlements", CAMPUS_ENTS,
               "--ntcf", "five")[0] == 1


@pytest.mark.parametrize("literal, text", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
def test_non_finite_weights_are_rejected(tmp_path, capsys, literal, text):
    code, out, err = run(capsys, "cluster", "--policy", CAMPUS, "--weights", f"position={text}")
    assert (code, out) == (1, "")
    assert "weight must be finite and positive: position=" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"weights": {"position": %s}}' % literal)
    code, out, err = run(capsys, "cluster", "--policy", CAMPUS, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "weight must be finite and positive: position=" in err


@pytest.mark.parametrize(
    "case", json.loads((DATA / "campus_features.json").read_text()),
    ids=lambda case: f"{case['user']}-{case['resource']}-{case['action']}",
)
def test_features_output_is_pinned(capsys, case):
    """One user and one resource from each campus group pair, per action:
    the whole output, coefficients at 9 decimals, as recorded before
    feature learning was factorized.  The faculty x gradebook link was
    re-recorded when conditions came to need two holders: the per-course
    conditions of one member each no longer share its weight under the
    ridge, so 0.999999993 became 0.999999995, the exact ridge solution
    0.99999999455 at 9 decimals."""
    got = run(capsys, "features", "--policy", CAMPUS, "--entitlements", CAMPUS_ENTS,
              "--user", case["user"], "--resource", case["resource"], "--action", case["action"])
    assert got == (case["exit"], case["stdout"], case["stderr"])


def test_weights_flag_parsing(capsys):
    code, out, _ = run(capsys, "cluster", "--policy", CAMPUS,
                       "--weights", "position=2.0,department=0.5")
    assert code == 0
    json.loads(out)
    code, _, err = run(capsys, "cluster", "--policy", CAMPUS, "--weights", "position")
    assert code == 1
    assert "attr=1.5" in err


WEIGHTED_COMMANDS = {
    "cluster": ["--policy", CAMPUS],
    "features": ["--policy", CAMPUS, "--entitlements", CAMPUS_ENTS,
                 "--user", "csFac1", "--resource", "cs101gb", "--action", "modify"],
    "predict": ["--policy", CAMPUS, "--entitlements", CAMPUS_ENTS],
    # checked against the template's schema: vendor is a project attribute
    "evaluate": ["--template", "university", "--scales", "1", "--percents", "6", "--runs", "1"],
}


@pytest.mark.parametrize("command", sorted(WEIGHTED_COMMANDS))
@pytest.mark.parametrize("name", ["nosuch", "vendor"])
def test_weights_must_name_a_declared_attribute(tmp_path, capsys, command, name):
    argv = [command, *WEIGHTED_COMMANDS[command]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"weights": {"%s": 2}}' % name)
    for extra in (["--weights", f"{name}=2"], ["--config", str(cfg)]):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (1, "")
        assert f"does not declare: {name}" in err
    # a resource attribute names a weight as well as a user attribute does
    code, _, err = run(capsys, *argv, "--weights", "position=2,course=0.5")
    assert (code, err) == (0, "")


# --- malformed input never reaches the internal-error exit ---

FUZZ_CONFIG = {"st": 0.3, "weights": {"position": 2}, "ntcf": [3, 5], "seed": 1}
WRONG_TYPES = [7, None, "read", {"k": 1}]
# the fields the policy loader iterates; each once broke it with a TypeError
ARRAY_FIELDS = [
    ("schema",), ("actions",), ("users",), ("resources",), ("rules",),
    ("rules", 0, "uc"), ("rules", 0, "rc"), ("rules", 0, "c"), ("rules", 0, "actions"),
]


def _json_paths(doc, prefix=()):
    if prefix:
        yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _json_paths(value, prefix + (key,))


def _mutated(doc, op, path, value=None):
    """A deep copy of doc with the value at path replaced, its key dropped,
    or (for a user or resource entry) the entry appended again."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "set":
        parent[path[-1]] = value
    elif op == "drop":
        del parent[path[-1]]
    else:
        parent.append(parent[path[-1]])
    return doc


def _mutations(doc):
    out = []
    for path in _json_paths(doc):
        out += [("set", path, value) for value in WRONG_TYPES]
        if isinstance(path[-1], str):
            out.append(("drop", path, None))
    for key in ("users", "resources"):
        out += [("dup", (key, i), None) for i in range(len(doc.get(key, ())))]
    return out


def _fuzz_cases():
    """Seeded sample of mutations of the campus fixture and of a config
    file, plus every wrong type on every field the loader iterates."""
    campus = json.loads(pathlib.Path(CAMPUS).read_text())
    rng = random.Random(2025)
    cases = [("policy", m) for m in rng.sample(_mutations(campus), 60)]
    cases += [("config", m) for m in rng.sample(_mutations(FUZZ_CONFIG), 12)]
    cases += [("policy", ("set", path, value)) for path in ARRAY_FIELDS for value in WRONG_TYPES]
    return campus, cases


def test_fuzzed_inputs_never_exit_two(tmp_path, capsys):
    campus, cases = _fuzz_cases()
    pol, cfg = tmp_path / "p.json", tmp_path / "cfg.json"
    for target, mutation in cases:
        policy_doc = _mutated(campus, *mutation) if target == "policy" else campus
        config_doc = _mutated(FUZZ_CONFIG, *mutation) if target == "config" else FUZZ_CONFIG
        pol.write_text(json.dumps(policy_doc))
        cfg.write_text(json.dumps(config_doc))
        for argv in (
            ["entitlements", "--policy", str(pol)],
            ["cluster", "--policy", str(pol), "--config", str(cfg)],
            ["predict", "--policy", str(pol), "--entitlements", CAMPUS_ENTS,
             "--config", str(cfg)],
        ):
            code, _, err = run(capsys, *argv)
            assert code != 2, (target, mutation, argv[0], err)


@pytest.mark.parametrize("path", ARRAY_FIELDS, ids=lambda p: ".".join(map(str, p)))
@pytest.mark.parametrize("value", [5, None, "read"])
def test_policy_arrays_must_be_arrays(tmp_path, capsys, path, value):
    campus = json.loads(pathlib.Path(CAMPUS).read_text())
    pol = tmp_path / "p.json"
    pol.write_text(json.dumps(_mutated(campus, "set", path, value)))
    where = "policy" if len(path) == 1 else "rules[0]"
    for argv in (["entitlements", "--policy", str(pol)],
                 ["cluster", "--policy", str(pol)],
                 ["predict", "--policy", str(pol), "--entitlements", CAMPUS_ENTS]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"{where}: {path[-1]} must be an array" in err


# every name the policy loader reads, with the message a wrong type gets
NAME_FIELDS = [
    (("users", 0, "id"), "users[0]: id"),
    (("resources", 0, "id"), "resources[0]: id"),
    (("schema", 1, "name"), "schema[1]: name"),
    (("actions", 0), "policy: actions[0]"),
    (("rules", 0, "actions", 0), "rules[0]: actions[0]"),
    (("rules", 0, "uc", 0, 0), "rules[0]: condition attr"),
    (("rules", 0, "uc", 0, 2, 0), "rules[0]: 'in' value"),
    (("rules", 0, "c", 0, 0), "rules[0]: constraint userAttr"),
    (("rules", 0, "c", 0, 1), "rules[0]: constraint op"),
    (("rules", 0, "c", 0, 2), "rules[0]: constraint resourceAttr"),
]


@pytest.mark.parametrize(
    "path,where", NAME_FIELDS, ids=[".".join(map(str, p)) for p, _ in NAME_FIELDS]
)
@pytest.mark.parametrize(
    "value", [7, None, {"k": 1}, ["modify"]], ids=["number", "null", "object", "array"]
)
def test_policy_names_must_be_strings(tmp_path, capsys, path, where, value):
    campus = json.loads(pathlib.Path(CAMPUS).read_text())
    pol = tmp_path / "p.json"
    pol.write_text(json.dumps(_mutated(campus, "set", path, value)))
    for argv in (["entitlements", "--policy", str(pol)], ["cluster", "--policy", str(pol)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"{where} must be a string" in err


# a schema the loader rejects before it reads any cell: index of the
# declaration to change, its replacement (None drops it), the message
SCHEMA_IDS = [
    (0, {"name": "id", "kind": "multi", "appliesTo": "user"},
     "the user id attribute must be single-valued"),
    (5, None, "schema lacks an id attribute for resources"),
]


@pytest.mark.parametrize(
    "index,declaration,message", SCHEMA_IDS, ids=["multi-valued-id", "no-resource-id"]
)
def test_schema_must_declare_single_valued_ids(tmp_path, capsys, index, declaration, message):
    campus = json.loads(pathlib.Path(CAMPUS).read_text())
    assert campus["schema"][index]["name"] == "id"
    if declaration is None:
        del campus["schema"][index]
    else:
        campus["schema"][index] = declaration
    pol = tmp_path / "p.json"
    pol.write_text(json.dumps(campus))
    with pytest.raises(InputError, match=message):
        load_policy(str(pol))
    for argv in (["entitlements", "--policy", str(pol)],
                 ["cluster", "--policy", str(pol)],
                 ["predict", "--policy", str(pol), "--entitlements", CAMPUS_ENTS]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert message in err
