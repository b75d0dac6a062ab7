"""Ranking by smallest exact rules against the enumeration in oracles.py.

`features.smallest_exact_rules` reads a triple's smallest conjunctions of
at most two columns that are true on exactly the granted rows off the
integer statistics and the gram over the necessary columns only;
`oracles.smallest_exact_rules` tries every column subset of the dense
design.  They must give the same rules, and on noise-free input every
ranking is made by a rule, so `predict` never fits, and where every rule
has one atom, as on university input, no command loads numpy.
"""

import os
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from ops_template import ops_policy
from oracles import dense_learning_data, design_statistics, full_gram, smallest_exact_rules

from abacfill import features as features_module
from abacfill.clustering import ClusteringConfig, cluster_objects
from abacfill.features import Feature, rank_features
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import remove_cells
from abacfill.model import AtomicConstraint, EntitlementIndex, Policy
from abacfill.policy_io import save_entitlements, save_policy
from abacfill.prediction import TripleCache, predict_missing, relevant_group_triples

GENERATED = [("university", 4), ("university", 8), ("project", 5), ("project", 10), ("ops", 3),
             ("ops", 5)]
SEEDS = range(1, 9)


def _setup(template, scale, seed, fraction):
    """A noise-free input: the policy's reference entitlements, with cells
    hidden in a model copy, clustered at threshold 0.1."""
    if template == "ops":
        policy = ops_policy(scale, seed)
    else:
        policy = generate(GeneratorConfig(template=template, scale=scale, seed=seed))
    entitlements = reference_entitlements(policy)
    om = policy.model.copy()
    remove_cells(om, fraction, random.Random(seed))
    return om, cluster_objects(om, ClusteringConfig(threshold=0.1)), entitlements


def _learned_triples(om, clustering, entitlements):
    """(user group, resource group, action, learning data) of every triple
    prediction consults that has a granted row, in key order."""
    index = EntitlementIndex(entitlements)
    cache = TripleCache(om, index)
    triples = {}
    for side, oid, _ in om.missing_cells():
        for gu, gr, action, _ in relevant_group_triples(clustering, index, side, oid):
            triples[(gu.gid, gr.gid, action)] = (gu, gr, action)
    for key in sorted(triples):
        gu, gr, action = triples[key]
        data = cache.learning_data(gu, gr, action)
        if data.positives:
            yield gu, gr, action, data


@pytest.mark.parametrize("fraction", [0.06, 0.30])
@pytest.mark.parametrize("template,scale", GENERATED)
def test_rules_match_the_enumeration_on_generated_triples(template, scale, fraction):
    checked = 0
    for seed in SEEDS:
        om, clustering, entitlements = _setup(template, scale, seed, fraction)
        for gu, gr, action, data in _learned_triples(om, clustering, entitlements):
            dense = dense_learning_data(om, gu, gr, action, entitlements)
            assert data.features == dense.features
            got = features_module.smallest_exact_rules(data)
            assert got == smallest_exact_rules(dense.matrix, dense.labels), (gu, gr, action)
            assert got, (gu, gr, action)  # noise-free: a rule of at most two atoms
            checked += 1
    assert checked


def test_generated_triples_cover_every_rule_size():
    """The generated inputs above reach 1- and 2-atom rules and tied rules."""
    sizes = Counter()
    for template, scale in GENERATED:
        for fraction in (0.06, 0.30):
            for seed in SEEDS:
                om, clustering, entitlements = _setup(template, scale, seed, fraction)
                for *_, data in _learned_triples(om, clustering, entitlements):
                    rules = features_module.smallest_exact_rules(data)
                    sizes[len(rules[0])] += 1
                    sizes["tied"] += len(rules) > 1
    assert sizes[1] and sizes[2] and sizes["tied"], sizes


def _rules(X, y):
    """The finder's and the enumeration's rules for an explicit design."""
    data = design_statistics(np.array(X), np.array(y))
    return features_module.smallest_exact_rules(data), smallest_exact_rules(X, y)


def test_every_row_granted_is_the_empty_rule():
    got, want = _rules([[1, 0], [0, 1], [1, 1]], [1, 1, 1])
    assert got == want == [()]


def test_tied_one_atom_rules_are_all_found():
    X = [[1, 1, 0, 1], [1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    got, want = _rules(X, [1, 1, 0, 0])
    assert got == want == [(0,), (1,)]


def test_a_rule_that_needs_two_atoms():
    # column 3 holds on every row, so it joins no smallest rule
    X = [[1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1]]
    got, want = _rules(X, [1, 0, 0, 1])
    assert got == want == [(0, 1)]
    # three columns that meet only on the granted row: three tied rules
    X = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]]
    got, want = _rules(X, [0, 0, 0, 1])
    assert got == want == [(0, 1), (0, 2), (1, 2)]


def test_no_rule_of_two_atoms_falls_back_to_the_fit(monkeypatch):
    # the granted rows are those with all three columns true, or none
    X = [[1, 1, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 0]]
    y = [1, 0, 0, 0, 0]
    got, want = _rules(X, y)
    assert got == want == []
    calls = []
    fit = features_module.fit_least_squares
    monkeypatch.setattr(features_module, "fit_least_squares",
                        lambda *a: calls.append(a) or fit(*a))
    features = [Feature(constraint=AtomicConstraint(a, "equal", a)) for a in "abc"]
    data = design_statistics(np.array(X), np.array(y), features)
    rank_features(None, None, data)
    assert len(calls) == 1
    assert np.array_equal(calls[0][2], np.array(X).T @ np.array(X))


@pytest.mark.parametrize("template,scale", [("university", 8), ("project", 10), ("ops", 5)])
def test_gram_blocks_match_the_dense_gram(template, scale):
    """The gram block the rule search reads, over the necessary columns,
    and blocks over random columns from every part of the canonical order
    equal the dense gram's sub-blocks."""
    rng = random.Random(scale)
    om, clustering, entitlements = _setup(template, scale, 1, 0.30)
    checked = 0
    for gu, gr, action, data in _learned_triples(om, clustering, entitlements):
        dense = dense_learning_data(om, gu, gr, action, entitlements)
        want = full_gram(design_statistics(dense.matrix, dense.labels))
        necessary = np.flatnonzero(np.asarray(data.xty) == data.positives)
        d = len(data.features)
        picks = [necessary, np.arange(d), np.arange(0), *(
            np.array(sorted(rng.sample(range(d), rng.randint(1, d)))) for _ in range(3)
        )]
        for columns in picks:
            assert np.array_equal(data.gram(columns), want[np.ix_(columns, columns)])
            checked += 1
    assert checked


@pytest.mark.parametrize("template,scale", [("university", 8), ("project", 10), ("ops", 5)])
def test_predict_never_fits_noise_free_input(monkeypatch, template, scale):
    calls = Counter()
    fit, rank = features_module.fit_least_squares, features_module.rank_features

    def counted(name, wrapped):
        def call(*args):
            calls[name] += 1
            return wrapped(*args)
        return call

    monkeypatch.setattr(features_module, "fit_least_squares", counted("fit", fit))
    monkeypatch.setattr("abacfill.prediction.rank_features", counted("rank", rank))
    for fraction in (0.06, 0.30):
        om, clustering, entitlements = _setup(template, scale, 1, fraction)
        predict_missing(om, clustering, EntitlementIndex(entitlements))
    assert calls["rank"] and not calls["fit"], calls


_COMMANDS_WITHOUT_NUMPY = """
import sys
from abacfill import cli
policy, ents = sys.argv[1:3]
common = ["--policy", policy, "--entitlements", ents]
assert cli.main(["predict", *common, "--out", "predict.json"]) == 0
assert cli.main(["features", *common, "--user", "fac01a", "--resource", "gbk01a",
                 "--action", "modify", "--out", "features.json"]) == 0
assert cli.main(["evaluate", "--template", "university", "--scales", "2,4", "--percents", "6",
                 "--runs", "2", "--jobs", "2", "--csv", "sweep.csv"]) == 0
print("numpy" in sys.modules)
"""


def test_one_atom_rules_leave_numpy_unloaded(tmp_path):
    """numpy is loaded only for a gram or the fallback fit.  In a fresh
    interpreter, predict, features and evaluate --jobs 2 on noise-free
    university input, where every ranking is a 1-atom rule, leave it
    unloaded.  That 2-atom rules, which read a gram, give the spec's
    answers is checked by `test_prediction_spec`."""
    om, _, entitlements = _setup("university", 4, 1, 0.06)
    save_policy(Policy(om, ()), str(tmp_path / "p.json"))
    save_entitlements(entitlements, str(tmp_path / "e.csv"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(features_module.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _COMMANDS_WITHOUT_NUMPY, "p.json", "e.csv"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
