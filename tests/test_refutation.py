"""The refutation oracle and the ops fixture, the tooling for scans of
wrong answers that need no ground-truth value.

`oracles.refuted` judges an answer by the generating rules: written into
the intact policy, a refuted answer changes the policy's meaning.  The
ops template (`tests/ops_template.py`) covers the constraint operators
`in` and `supseteq`, which neither `generate` template uses.
"""

import pytest
from oracles import naive_entitlements, refuted
from ops_template import ops_document, ops_policy

from abacfill.clustering import ClusteringConfig
from abacfill.evaluate import policy_meaning
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import HarnessConfig, evaluate_run
from abacfill.model import EntitlementIndex, Side


def test_refuted_flags_each_wrong_answer_and_no_truth():
    """university-4, generator seed 14, 30% hidden, seed 14001, threshold
    0.1: six `coursesTaken` answers are wrong, each a superset of its
    truth.  The generating rules refute each answer and none of the
    truths."""
    policy = generate(GeneratorConfig(template="university", scale=4, seed=14))
    entitlements = reference_entitlements(policy)
    config = HarnessConfig(clustering=ClusteringConfig(threshold=0.1))
    run = evaluate_run(policy, EntitlementIndex(entitlements), 0.3, 14001, config=config)
    wrong = [c for c in run.cells if c.correct is False]
    assert {(c.object_id, c.attr) for c in wrong} == {
        (oid, "coursesTaken")
        for oid in ("stu01a", "stu01b", "stu02a", "stu02c", "stu03b", "stu04a")
    }
    stu02a = next(c for c in wrong if c.object_id == "stu02a")
    assert (stu02a.predicted, stu02a.truth) == (
        frozenset({"crs02a", "crs02b", "crs02c"}), frozenset({"crs02c"})
    )
    for c in wrong:
        assert refuted(policy, entitlements, c.side, c.object_id, c.attr, c.predicted)
        assert not refuted(policy, entitlements, c.side, c.object_id, c.attr, c.truth)


def test_refuted_checks_a_set_answer_element_by_element():
    """An element the rules force out refutes a set answer even when the
    answer also leaves out a true element; an answer that only leaves out
    true elements is not refuted."""
    policy = generate(GeneratorConfig(template="university", scale=2, seed=0))
    entitlements = reference_entitlements(policy)
    truth = policy.model.users["stu01a"].value("coursesTaken")
    (taken,) = truth
    other = next(c for c in ("crs01a", "crs01b", "crs01c") if c != taken)
    assert refuted(policy, entitlements, Side.USER, "stu01a", "coursesTaken", frozenset({other}))
    assert not refuted(policy, entitlements, Side.USER, "stu01a", "coursesTaken", frozenset())
    # a wrong single value is refuted as a whole
    assert refuted(policy, entitlements, Side.USER, "fac01a", "department", "dep02")
    assert not refuted(policy, entitlements, Side.USER, "fac01a", "department", "dep01")


@pytest.mark.parametrize("scale", [3, 5, 8])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ops_fixture_meaning_is_the_naive_rule_evaluation(scale, seed):
    doc = ops_document(scale, seed)
    granted, unknown = policy_meaning(ops_policy(scale, seed))
    assert (granted, unknown) == naive_entitlements(doc)
    # both rules grant, and neither grants every pair of its kind
    by_action = {a: sum(e.action == a for e in granted) for a in ("do", "visit")}
    assert 0 < by_action["do"] < 16 * scale * scale
    assert 0 < by_action["visit"] < 16 * scale * scale
