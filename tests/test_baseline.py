"""A removal run from its scale's `harness.Baseline` against the slow
reference run of `tests/oracles.py`.

The baseline holds what its runs share: the eligible cells, each side's
signature buckets as the tallies a run's clustering starts from, and the
intact model's constraint candidates, which a run learns with unchanged.
Each run here is checked piece by piece against a whole-model copy with
the same cells hidden, and its outcomes against the reference's, which
learns with the damaged model's own candidates.  Those are always among
the intact ones; 60% hidden is included because only high percents take
the last known holder of every key a candidate shares, leaving a
candidate that holds on no pair of the damaged model: at 3-9% no
candidate ever drops.
"""

import random

import pytest
from ops_template import ops_policy
from oracles import reference_removal_run

from abacfill.clustering import ClusteringConfig, partition_by_signature
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
                om, _, hidden = baseline.damage(fraction, random.Random(run_seed))
                assert list(om.cells()) == list(damaged.cells())
                assert hidden == damaged.missing_cells()
                tallies = baseline.tallies_for(ClusteringConfig())
                for side in Side:
                    walked = partition_by_signature(damaged.by_id(side))
                    assert ([[o.id for o in t.members] for t in tallies[side]]
                            == [[o.id for o in b] for b in walked])
                own = constraint_features(damaged)
                assert set(own) <= set(baseline.constraints)
                shrunk += own != baseline.constraints
                assert evaluate_run(baseline, fraction, run_seed).cells == outcomes
            assert policy_to_dict(policy) == intact
    # not vacuous: some runs learn with a candidate their damaged model
    # lacks (2 university, 6 project and 1 ops run, the ops one a supseteq
    # candidate, with the generator and seeds of this file)
    assert shrunk
