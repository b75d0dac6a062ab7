"""Outputs depend on a policy's content, not on the order of its objects.

Grouping walks each side in id order, so a model whose objects were added
in reverse forms the same groups, with the same ids, members and member
order, and predicts every hidden cell with the same value, confidence and
evidence, in the same order.  Through the CLI, a policy file that lists
its objects in reverse id order gives the same `cluster` and `predict`
JSON as the file `save_policy` writes.

Inputs follow the fill scheme: `generate` with seed S, then cells hidden
in a model copy with `Random(1000 * S + percent)`, at threshold 0.1.
"""

import json
import random

import pytest

from abacfill.cli import main
from abacfill.clustering import ClusteringConfig, cluster_objects
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import remove_cells
from abacfill.model import EntitlementIndex, Obj, ObjectModel, Policy, Side
from abacfill.policy_io import save_entitlements, save_policy
from abacfill.prediction import predict_missing

CASES = [
    (template, scale, percent)
    for template in ("university", "project")
    for scale in (3, 10)
    for percent in (6, 30)
]
CONFIG = ClusteringConfig(threshold=0.1)


def _hidden(template, scale, percent):
    """(damaged model, rules, reference entitlements)."""
    policy = generate(GeneratorConfig(template=template, scale=scale, seed=scale))
    om = policy.model.copy()
    remove_cells(om, percent / 100.0, random.Random(1000 * scale + percent))
    return om, policy.rules, reference_entitlements(policy)


def _reversed(om):
    """The same objects, each side added in reverse insertion order."""
    out = ObjectModel(om.schema, actions=om.actions)
    for side in Side:
        for obj in reversed(list(om.side_objects(side).values())):
            out.add(Obj(obj.id, obj.side, dict(obj.attrs)))
    return out


@pytest.mark.parametrize("template,scale,percent", CASES)
def test_reversed_model_groups_and_predicts_alike(template, scale, percent):
    om, _, ents = _hidden(template, scale, percent)
    back = _reversed(om)
    assert list(back.users) != list(om.users)
    want, got = cluster_objects(om, CONFIG), cluster_objects(back, CONFIG)
    assert got.groups == want.groups
    index = EntitlementIndex(ents)
    assert predict_missing(back, got, index) == predict_missing(om, want, index)


@pytest.mark.parametrize("template,scale,percent", CASES)
def test_reversed_policy_file_clusters_and_predicts_alike(tmp_path, capsys, template, scale, percent):
    om, rules, ents = _hidden(template, scale, percent)
    saved, backwards = tmp_path / "saved.json", tmp_path / "backwards.json"
    save_policy(Policy(om, rules), str(saved))
    doc = json.loads(saved.read_text())
    for key in ("users", "resources"):
        doc[key].reverse()
    backwards.write_text(json.dumps(doc))
    ents_path = tmp_path / "ents.csv"
    save_entitlements(ents, str(ents_path))

    def outputs(path):
        got = []
        for argv in (["cluster"], ["predict", "--entitlements", str(ents_path)]):
            assert main([*argv, "--policy", str(path), "--st", "0.1"]) == 0
            got.append(capsys.readouterr().out)
        return got

    assert outputs(backwards) == outputs(saved)
