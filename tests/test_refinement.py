"""Group refinement by per-attribute counting against the exact pairwise
reference in tests/oracles.py: same groups, in the same order."""

import random
from fractions import Fraction

import pytest

from abacfill.clustering import ClusteringConfig, cluster_objects
from abacfill.generator import GeneratorConfig, generate
from abacfill.harness import remove_cells
from abacfill.policy_io import policy_from_dict
from oracles import PairwiseReference, exact_similarity, random_small_policy

THRESHOLDS = (0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0)


def _groups(om, threshold, weights=None):
    config = ClusteringConfig(threshold=threshold, weights=weights or {})
    return [g.members for g in cluster_objects(om, config).groups]


def test_random_policies_match_pairwise_reference():
    rng = random.Random(2604)
    attrs = ("id", "ua_s", "ua_m", "ra_s", "ra_m")
    for draw in range(300):
        om = policy_from_dict(random_small_policy(rng, max_side=8)).model
        # every other draw weighs attributes by floats with no short binary form
        weights = {a: rng.choice((0.1, 0.3, 1.0, 2.5)) for a in attrs} if draw % 2 else {}
        reference = PairwiseReference(om, weights)
        for threshold in THRESHOLDS:
            assert _groups(om, threshold, weights) == reference.groups(threshold), (draw, threshold)


@pytest.mark.parametrize("fraction", (0.0, 0.06, 0.3))
@pytest.mark.parametrize("template", ("university", "project"))
def test_templates_match_pairwise_reference(template, fraction):
    for scale in range(2, 11):
        om = generate(GeneratorConfig(template, scale, seed=scale)).model.copy()
        remove_cells(om, fraction, random.Random(1000 * scale + round(fraction * 100)))
        reference = PairwiseReference(om)
        for threshold in THRESHOLDS:
            assert _groups(om, threshold) == reference.groups(threshold), (scale, threshold)


def test_member_at_exact_threshold_stays():
    # A float sum of these similarities reads 0.24999999999999997 for
    # led06a and led06b, which would move them; their exact mean is 1/4.
    om = generate(GeneratorConfig("project", 10, seed=2)).model.copy()
    remove_cells(om, 0.3, random.Random(2030))
    tied = ("led01a", "led03b", "led06a", "led06b", "led08a")
    for oid in ("led06a", "led06b"):
        rest = [om.users[m] for m in tied if m != oid]
        total = sum((exact_similarity(om.users[oid], o, {}) for o in rest), Fraction(0))
        assert total / len(rest) == Fraction(1, 4)
    groups = _groups(om, 0.25)
    assert ("led06a", "led06b") in groups
    assert ("led01a", "led03b", "led08a") in groups
