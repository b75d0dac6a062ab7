"""`policy_io.write_json` against `json.dumps(doc, indent=2, sort_keys=...)`:
seeded random documents, the values where the two encoders could part, and
every JSON file the command line writes."""

import enum
import io
import json
import math
import pathlib
import random

import pytest

from abacfill import cli
from abacfill.features import is_untainted
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import remove_cells
from abacfill.policy_io import save_entitlements, save_policy, write_json

DATA = pathlib.Path(__file__).parent / "data"
CAMPUS = str(DATA / "campus.json")
CAMPUS_ENTS = str(DATA / "campus_entitlements.csv")


def reference(doc, sort_keys=True) -> str:
    return json.dumps(doc, indent=2, sort_keys=sort_keys)


def written(doc, sort_keys=True) -> str:
    """What `write_json` writes for doc, read back from an `io.StringIO`."""
    out = io.StringIO()
    write_json(doc, out.write, sort_keys)
    return out.getvalue()


class Level(enum.IntEnum):
    LOW = 1


class Text(str):
    pass


class Real(float):
    pass


class Items(list):
    pass


class Table(dict):
    pass


STRINGS = [
    "", "a", "plain", 'quote " inside', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f",
    "café", "  ", "\U0001f600", "\ud800", "\\u0041", "/", " ", "?",
]
NUMBERS = [
    0, 1, -1, 2**63, -(2**70), True, False, 0.0, -0.0, 1e-07, 1e300, -1e-300, 0.1,
    1 / 3, 123456789.0, math.nan, math.inf, -math.inf, Level.LOW, Real(2.5),
]


def _string(rng):
    if rng.random() < 0.5:
        return rng.choice(STRINGS)
    return "".join(chr(rng.choice([rng.randrange(32, 127), rng.randrange(0, 0x3000)]))
                   for _ in range(rng.randrange(6)))


def _leaf(rng):
    pick = rng.random()
    if pick < 0.45:
        value = _string(rng)
        return Text(value) if rng.random() < 0.05 else value
    if pick < 0.9:
        return rng.choice(NUMBERS + [rng.uniform(-1e6, 1e6), rng.randrange(-10**6, 10**6)])
    return None


def _keys(rng, n):
    """n distinct keys of one type, so that sorting them is defined."""
    kind = rng.choice(["str"] * 6 + ["int", "float", "bool", "none"])
    if kind == "str":
        return list({_string(rng) for _ in range(n)})
    if kind == "int":
        return list({rng.randrange(-50, 50) for _ in range(n)})
    if kind == "float":
        return list({rng.choice([-0.5, 0.0, 1e-07, 1e300, math.inf, 2.25]) for _ in range(n)})
    if kind == "bool":
        return [True, False][: min(n, 2)]
    return [None][: min(n, 1)]


def random_doc(rng, depth=0):
    if depth > 4 or rng.random() < 0.3:
        return _leaf(rng)
    n = rng.choice([0, 1, 2, 3, 5])
    shape = rng.choice(["list", "list", "tuple", "dict", "dict", "dict", "subclass"])
    if shape == "dict":
        return {k: random_doc(rng, depth + 1) for k in _keys(rng, n)}
    items = [random_doc(rng, depth + 1) for _ in range(n)]
    if shape == "tuple":
        return tuple(items)
    if shape == "subclass":
        return Items(items) if rng.random() < 0.5 else Table(zip(map(str, range(n)), items))
    return items


def test_matches_json_on_random_documents():
    rng = random.Random(17)
    for i in range(5000):
        doc = random_doc(rng)
        assert written(doc) == reference(doc), i
        assert written(doc, sort_keys=False) == reference(doc, sort_keys=False), i


@pytest.mark.parametrize("doc", [
    [], {}, (), [[]], {"a": {}}, [(), [{}]], "", None, True, False, 0, -0.0, 1e-07, 1e300,
    math.nan, [math.inf, -math.inf], {"b": 1, "a": [True, 1, 1.0]}, {1: "x", 2.5: "y"},
    {True: 0, False: 1}, {None: None}, {"é\U0001f600": "\ud800\n"}, Level.LOW,
])
def test_matches_json_on_edge_values(doc):
    assert written(doc) == reference(doc)
    assert written(doc, sort_keys=False) == reference(doc, sort_keys=False)


@pytest.mark.parametrize("doc", [
    {1, 2}, [b"bytes"], {"a": object()}, {(1, 2): "tuple key"}, {"a": 1, 2: "mixed keys"},
])
def test_raises_what_json_raises(doc):
    with pytest.raises(TypeError) as want:
        reference(doc)
    with pytest.raises(TypeError) as got:
        written(doc)
    assert str(got.value) == str(want.value)


def test_a_document_that_contains_itself_raises_recursion_error():
    doc = {"a": []}
    doc["a"].append(doc)
    with pytest.raises(ValueError, match="Circular reference"):
        reference(doc)
    with pytest.raises(RecursionError):
        written(doc)


@pytest.fixture
def recorded(monkeypatch):
    """Every document the command line writes as JSON, with its key order
    and the text written."""
    docs = []

    def recording(doc, write, sort_keys=True):
        pieces = []

        def tee(text):
            pieces.append(text)
            write(text)

        write_json(doc, tee, sort_keys)
        docs.append((doc, sort_keys, "".join(pieces)))

    monkeypatch.setattr(cli, "write_json", recording)
    return docs


def _university_4(tmp_path):
    policy = generate(GeneratorConfig(template="university", scale=4, seed=4))
    ents = tmp_path / "u4.csv"
    save_entitlements(reference_entitlements(policy), str(ents))
    remove_cells(policy.model, 0.06, random.Random(4))
    path = tmp_path / "u4.json"
    save_policy(policy, str(path))

    def known(table, prefix):
        return next(o.id for o in table.values() if o.id.startswith(prefix) and is_untainted(o))

    return str(path), str(ents), known(policy.model.users, "fac"), known(policy.model.resources, "gbk")


def test_command_outputs_match_json(tmp_path, capsys, recorded):
    inputs = [(CAMPUS, CAMPUS_ENTS, "csFac1", "cs101gb"), _university_4(tmp_path)]
    commands = []
    for policy, ents, user, resource in inputs:
        commands += [
            ["cluster", "--policy", policy, "--out"],
            ["features", "--policy", policy, "--entitlements", ents, "--user", user,
             "--resource", resource, "--action", "modify", "--out"],
            ["predict", "--policy", policy, "--entitlements", ents, "--out"],
        ]
    commands += [["evaluate", "--template", "university", "--scales", scales, "--percents", "6",
                  "--runs", "1", "--json"] for scales in ("1", "4")]
    commands += [["generate", "--template", "university", "--scale", "4", "--out"]]
    for argv in commands:
        out = tmp_path / "out.json"
        assert cli.main(argv + [str(out)]) == 0, capsys.readouterr().err
        doc, sort_keys, text = recorded[-1]
        assert sort_keys is (argv[0] != "generate")
        assert out.read_text(encoding="utf-8") == reference(doc, sort_keys) + "\n" == text + "\n"
    assert len(recorded) == len(commands)


def test_stdout_gets_the_bytes_of_out(tmp_path, capsys):
    policy, ents, user, resource = _university_4(tmp_path)
    for argv in (
        ["generate", "--template", "university", "--scale", "4"],
        ["cluster", "--policy", policy],
        ["features", "--policy", policy, "--entitlements", ents, "--user", user,
         "--resource", resource, "--action", "modify"],
        ["predict", "--policy", policy, "--entitlements", ents],
    ):
        out = tmp_path / "out.json"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")
