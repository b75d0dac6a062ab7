"""A removal run's clustering from its scale's intact signature tallies
against a fresh clustering of the damaged model and against the exact
pairwise reference in tests/oracles.py.

`harness.Baseline.tallies_for` builds each signature bucket's first-round
tally once per policy and weights.  A run starts each bucket from a copy
with the cells it hid made MISSING.  It must group exactly as a walk of
the damaged model does, at every threshold, weights and share hidden
here, and also where refinement splits a bucket and the movers get fresh
tallies of their own.
"""

import random

import pytest
from ops_template import ops_policy
from oracles import PairwiseReference, random_small_policy

from abacfill.clustering import ClusteringConfig, cluster_objects
from abacfill.generator import GeneratorConfig, generate
from abacfill.harness import Baseline
from abacfill.model import EntitlementIndex, Side
from abacfill.policy_io import policy_from_dict

SCALES = {"university": (2, 4), "project": (2, 3), "ops": (2, 3)}
SEEDS = range(1, 4)
THRESHOLDS = (0.1, 0.25, 0.5)
PERCENTS = (3, 30, 60, 90)


def make_policy(template, scale, seed):
    if template == "ops":
        return ops_policy(scale, seed)
    return generate(GeneratorConfig(template=template, scale=scale, seed=seed))


def decimal_weights(om) -> dict:
    """0.1, 0.3 and 2.5 cycled over the declared attribute names in sorted
    order, as the weighted `cluster` and `evaluate` pins use them."""
    names = sorted({name for _, name in om.schema.attrs})
    return {name: (0.1, 0.3, 2.5)[i % 3] for i, name in enumerate(names)}


def _members(clustering) -> list:
    return [g.members for g in clustering.groups]


@pytest.mark.parametrize("template", sorted(SCALES))
def test_runs_cluster_from_the_intact_tallies(template):
    runs = split = 0
    for scale in SCALES[template]:
        for seed in SEEDS:
            policy = make_policy(template, scale, seed)
            baseline = Baseline(policy, EntitlementIndex(()))
            for weights in ({}, decimal_weights(policy.model)):
                for percent in PERCENTS:
                    om, _, _ = baseline.damage(percent / 100, random.Random(seed * 1000 + percent))
                    reference = PairwiseReference(om, weights)
                    for threshold in THRESHOLDS:
                        config = ClusteringConfig(threshold, weights)
                        tallies = baseline.tallies_for(config)
                        got = _members(cluster_objects(om, config, tallies))
                        assert got == _members(cluster_objects(om, config))
                        assert got == reference.groups(threshold)
                        runs += 1
                        split += len(got) > sum(len(tallies[side]) for side in Side)
            # no run changed the tallies it started from
            for weights in ({}, decimal_weights(policy.model)):
                config = ClusteringConfig(0.25, weights)
                assert (_members(cluster_objects(policy.model, config, baseline.tallies_for(config)))
                        == _members(cluster_objects(policy.model, config)))
    # not vacuous: refinement moves members, so the movers' fresh tallies
    # and the stayers' copied ones are both read, in 40 university, 42
    # project and 36 ops runs of the 144 each, with the generator and
    # seeds of this file
    assert runs == 144
    assert split >= 30, split


def test_tallies_are_kept_by_weights_not_threshold():
    policy = generate(GeneratorConfig(template="university", scale=2, seed=1))
    baseline = Baseline(policy, EntitlementIndex(()))
    weights = decimal_weights(policy.model)
    default = baseline.tallies_for(ClusteringConfig(0.1))
    assert baseline.tallies_for(ClusteringConfig(0.25)) is default
    weighted = baseline.tallies_for(ClusteringConfig(0.1, weights))
    assert weighted is not default
    assert baseline.tallies_for(ClusteringConfig(0.5, dict(weights))) is weighted


def test_baselines_of_models_with_unknown_cells():
    """Random small models that already hold NULL and MISSING cells: a cell
    unknown in the baseline's own model is never hidden a second time."""
    rng = random.Random(3707)
    attrs = ("id", "ua_s", "ua_m", "ra_s", "ra_m")
    for draw in range(120):
        doc = random_small_policy(rng, max_side=8)
        for key in ("users", "resources"):
            for entry in doc[key]:
                for name in entry["attrs"]:
                    if name != "id" and rng.random() < 0.2:
                        entry["attrs"][name] = {"missing": True}
        policy = policy_from_dict(doc)
        baseline = Baseline(policy, EntitlementIndex(()))
        weights = {a: rng.choice((0.1, 0.3, 1.0, 2.5)) for a in attrs} if draw % 2 else {}
        om, _, _ = baseline.damage(rng.choice((0.1, 0.3, 0.6, 0.9)), random.Random(draw))
        reference = PairwiseReference(om, weights)
        for threshold in (0.0, 0.1, 0.25, 0.5, 1.0):
            config = ClusteringConfig(threshold, weights)
            got = _members(cluster_objects(om, config, baseline.tallies_for(config)))
            assert got == reference.groups(threshold), (draw, threshold)
