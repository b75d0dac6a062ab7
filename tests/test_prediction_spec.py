"""Whole answers against the executable spec of prediction.

`oracles.reference_predict` builds every unknown cell's answer from the
slow pieces alone (the entitlement scan, the dense design, the member
walk) with the gates, the relational filter and the tie rule written out.
`predict_missing` must give the same value, confidence and evidence, in
the same order, on random models that exercise every constraint operator,
on the ops fixture, whose rules use `in` and `supseteq`, and on the
generated inputs whose triples the dense tests consult, where project's
rankings need 2-atom rules and so a gram.
"""

import random
from collections import Counter

import pytest

from oracles import random_small_policy, reference_predict, with_cross_side_values
from ops_template import ops_policy
from test_factorized import CONSULTED, _consulted_setup

from abacfill import features
from abacfill.clustering import ClusteringConfig, cluster_objects
from abacfill.generator import reference_entitlements
from abacfill.harness import remove_cells
from abacfill.model import Entitlement, EntitlementIndex
from abacfill.policy_io import policy_from_dict
from abacfill.prediction import Confidence, PredictionConfig, predict_missing


def assert_matches_spec(om, clustering, entitlements, config=None) -> list:
    got = predict_missing(om, clustering, EntitlementIndex(entitlements), config)
    want = reference_predict(om, clustering, entitlements, config)
    assert [(p.side, p.object_id, p.attr) for p in got] == [
        (p.side, p.object_id, p.attr) for p in want
    ]
    for g, w in zip(got, want):
        assert g == w, (g.object_id, g.attr)
    return got


def _tally(seen, predictions) -> None:
    for p in predictions:
        seen[p.confidence] += 1
        for e in p.evidence:
            seen["condition" if e.feature.startswith(("user.", "resource.")) else "constraint"] += 1


@pytest.mark.parametrize("max_side", [4, 7])
def test_random_models_match_the_spec(max_side):
    """Random models with NULL, MISSING and empty-set cells, ids shared
    across the sides, random entitlements, thresholds and rank gates."""
    rng = random.Random(500 + max_side)
    seen = Counter()
    for _ in range(150):
        doc = with_cross_side_values(rng, random_small_policy(rng, max_side=max_side))
        om = policy_from_dict(doc).model
        pairs = [(u, r, a) for u in om.users for r in om.resources for a in om.actions]
        ents = {Entitlement(*e) for e in rng.sample(pairs, rng.randint(0, len(pairs)))}
        clustering = cluster_objects(om, ClusteringConfig(threshold=rng.choice([0.1, 0.5, 0.9])))
        high = rng.randint(1, 3)
        config = PredictionConfig(high_rank_limit=high, medium_rank_limit=high + rng.randint(0, 2))
        _tally(seen, assert_matches_spec(om, clustering, ents, config))
    assert seen[Confidence.HIGH] and seen[Confidence.MEDIUM] and seen[Confidence.NEI]
    assert seen["constraint"] and seen["condition"]


@pytest.mark.parametrize("fraction", [0.06, 0.30])
@pytest.mark.parametrize("scale", [3, 5])
def test_ops_fixture_matches_the_spec(scale, fraction):
    seen = Counter()
    for seed in (1, 2, 3):
        policy = ops_policy(scale, seed)
        om = policy.model.copy()
        remove_cells(om, fraction, random.Random(seed * 1000))
        clustering = cluster_objects(om, ClusteringConfig(threshold=0.1))
        _tally(seen, assert_matches_spec(om, clustering, reference_entitlements(policy)))
    assert seen[Confidence.HIGH] and seen["constraint"]


@pytest.mark.parametrize("template,scale", CONSULTED)
def test_generated_inputs_match_the_spec(monkeypatch, template, scale):
    sizes = Counter()  # atoms of each ranking's first smallest exact rule
    find = features.smallest_exact_rules

    def counted(data):
        rules = find(data)
        sizes.update(len(rule) for rule in rules[:1])
        return rules

    monkeypatch.setattr(features, "smallest_exact_rules", counted)
    om, clustering, entitlements = _consulted_setup(template, scale, 0.06)
    predictions = assert_matches_spec(om, clustering, entitlements)
    assert any(p.predicted for p in predictions)
    # project's rankings include 2-atom rules, whose search reads a gram
    assert (2 in sizes) == (template == "project"), sizes
