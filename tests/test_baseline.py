"""A removal run from its scale's `harness.Baseline` against the slow
reference run of `tests/oracles.py`.

The baseline holds what its runs share: the eligible cells, each side's
signature buckets and the intact model's constraint candidates, which a
run narrows to those of its damaged model.  Each run here is checked piece
by piece against a whole-model copy with the same cells hidden, and its
outcomes against the reference's.  60% hidden is included because only
high percents take the last known holder of every key a candidate shares:
at 3-9% no candidate ever drops.
"""

import random

import pytest
from ops_template import ops_policy
from oracles import reference_removal_run

from abacfill.clustering import partition_by_signature
from abacfill.features import constraint_features
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import Baseline, evaluate_run
from abacfill.model import EntitlementIndex, Side
from abacfill.policy_io import policy_to_dict

SCALES = {"university": (2, 4), "project": (2, 3), "ops": (2, 3)}
SEEDS = range(1, 11)
PERCENTS = (6, 30, 60)


def make_policy(template, scale, seed):
    if template == "ops":
        return ops_policy(scale, seed)
    return generate(GeneratorConfig(template=template, scale=scale, seed=seed))


@pytest.mark.parametrize("template", sorted(SCALES))
def test_runs_from_a_baseline_equal_the_reference(template):
    shrunk = 0
    for scale in SCALES[template]:
        for seed in SEEDS:
            policy = make_policy(template, scale, seed)
            intact = policy_to_dict(policy)
            baseline = Baseline(policy, EntitlementIndex(reference_entitlements(policy)))
            for percent in PERCENTS:
                fraction, run_seed = percent / 100, seed * 1000 + percent
                damaged, outcomes = reference_removal_run(policy, baseline.entitlements,
                                                          fraction, run_seed)
                om, removed, hidden = baseline.damage(fraction, random.Random(run_seed))
                assert list(om.cells()) == list(damaged.cells())
                assert hidden == damaged.missing_cells()
                for side in Side:
                    walked = partition_by_signature(damaged.by_id(side))
                    assert baseline.buckets[side] == [[o.id for o in b] for b in walked]
                narrowed = baseline.constraints.narrowed(removed)
                assert narrowed == constraint_features(damaged)
                shrunk += narrowed != baseline.constraints.candidates
                assert evaluate_run(baseline, fraction, run_seed).cells == outcomes
            assert policy_to_dict(policy) == intact
    # not vacuous: some runs lose a candidate (at this writing 2 university,
    # 6 project and 1 ops run, the ops one a supseteq candidate)
    assert shrunk
