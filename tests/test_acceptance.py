"""Acceptance suite.

One test per release criterion, so the -v report reads as a per-criterion
pass/fail checklist:

1. campus fixture: groups, top-3 features, the two cell verdicts, < 1 s
2. removal matrix: accuracy exactly 1.0 on both templates, scales 1-3,
   3/6/9 percent, 5 seeded runs, under the desk-scale budget
3. coverage: university >= 0.70 and project >= 0.55, seed-stable
4. oracle equivalence for policy meaning (50 models) and the least-squares
   solver (100 instances)
5. the randomized property suites hold under three fixed global seeds
6. repeated evaluate invocations emit byte-identical CSV and JSON
"""

import random
import statistics
import time

import numpy as np
import pytest

from oracles import fit_design, naive_entitlements, pinv_fit, random_small_policy
import test_properties as props

from abacfill.cli import main
from abacfill.clustering import ClusteringConfig, cluster_objects
from abacfill.evaluate import policy_meaning
from abacfill.features import rank_features
from abacfill.generator import GeneratorConfig, generate
from abacfill.harness import HarnessConfig, evaluate_matrix
from abacfill.policy_io import policy_from_dict
from abacfill.prediction import Confidence, PredictionConfig, TripleCache, predict_missing

SCALES = (1, 2, 3)
FRACTIONS = (0.03, 0.06, 0.09)
RUNS = 5


@pytest.fixture(scope="module")
def removal_matrices():
    """One full sweep per template, shared by criteria 2 and 3."""
    start = time.perf_counter()
    matrices = {
        template: evaluate_matrix(
            template, SCALES, FRACTIONS, RUNS, base_seed=0, config=HarnessConfig()
        )
        for template in ("university", "project")
    }
    return matrices, time.perf_counter() - start


def test_criterion_1_golden_fixture(campus_policy, campus_entitlements):
    start = time.perf_counter()
    clustering = cluster_objects(campus_policy.model, ClusteringConfig(threshold=0.25))

    members = {frozenset(g.members) for g in clustering.groups}
    assert members == {
        frozenset({"csFac1", "csFac2", "eeFac1", "eeFac2"}),
        frozenset({"csStu1", "eeStu1"}),
        frozenset({"cs101gb", "cs601gb", "ee101gb", "ee601gb", "ee602gb"}),
        frozenset({"csStu1trans", "eeStu1trans"}),
    }

    ug, rg = clustering.users["csFac2"], clustering.resources["cs101gb"]
    data = TripleCache(campus_policy.model, campus_entitlements).learning_data(ug, rg, "modify")
    ranked = rank_features(ug, rg, data)
    top3 = {rf.feature.render() for rf in list(ranked)[:3]}
    assert top3 == {
        "user.position in {faculty}",
        "resource.type in {gradebook}",
        "coursesTaught contains course",
    }

    predictions = predict_missing(
        campus_policy.model,
        clustering,
        campus_entitlements,
        PredictionConfig(high_rank_limit=3, medium_rank_limit=5),
    )
    by_attr = {(p.object_id, p.attr): p for p in predictions}
    taught = by_attr[("csFac1", "coursesTaught")]
    assert taught.confidence is Confidence.HIGH
    assert taught.value == frozenset({"cs101"})
    dept = by_attr[("csFac1", "department")]
    assert dept.confidence is Confidence.NEI
    assert dept.value is None

    assert time.perf_counter() - start < 1.0


def test_criterion_2_accuracy_one_across_matrix(removal_matrices):
    matrices, elapsed = removal_matrices
    for template in ("university", "project"):
        for scale in SCALES:
            policy = generate(GeneratorConfig(template=template, scale=scale, seed=scale))
            size = len(policy.model.users) + len(policy.model.resources)
            assert size <= 600
        matrix = matrices[template]
        assert len(matrix.runs) == len(SCALES) * len(FRACTIONS) * RUNS
        for run in matrix.runs:
            # not one wrong committed prediction anywhere in the sweep
            assert run.correct == run.predicted, (
                template, run.scale, run.fraction, run.run_index,
                [c for c in run.cells if c.correct is False],
            )
        for scale in SCALES:
            for fraction in FRACTIONS:
                _, accuracy = matrix.pooled(scale, fraction)
                assert accuracy == 1.0
    assert elapsed < 300.0


def test_criterion_3_coverage_bands(removal_matrices):
    matrices, _ = removal_matrices
    bands = {"university": 0.70, "project": 0.55}
    for template, floor in bands.items():
        runs = matrices[template].runs
        removed = sum(r.removed for r in runs)
        predicted = sum(r.predicted for r in runs)
        overall = predicted / removed
        assert overall >= floor, (template, overall)

        # seed stability: aggregate each run index (one seed family) across
        # the whole grid and require a tight spread
        per_seed = []
        for run_index in range(RUNS):
            rows = [r for r in runs if r.run_index == run_index]
            per_seed.append(sum(r.predicted for r in rows) / sum(r.removed for r in rows))
        assert statistics.pstdev(per_seed) <= 0.06, (template, per_seed)


def test_criterion_4_policy_meaning_matches_brute_force():
    rng = random.Random(2024)
    for _ in range(50):
        doc = random_small_policy(rng, max_side=4)
        want, want_unknown = naive_entitlements(doc)
        got, got_unknown = policy_meaning(policy_from_dict(doc))
        assert {(e.user, e.resource, e.action) for e in got} == want
        assert got_unknown == want_unknown


def test_criterion_4_solver_matches_pseudoinverse():
    rng = random.Random(4096)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 14)
        d = rng.randint(1, 4)
        X = np.array([[rng.randint(0, 1) for _ in range(d)] for _ in range(n)], dtype=float)
        design = np.hstack([np.ones((n, 1)), X])
        if np.linalg.matrix_rank(design) < d + 1:
            continue  # both solvers agree only where the solution is unique
        y = np.array([rng.random() for _ in range(n)])
        want_int, want_coefs = pinv_fit(X, y)
        got_int, got_coefs = fit_design(X, y)
        assert abs(got_int - want_int) <= 1e-6
        assert np.abs(np.asarray(got_coefs) - want_coefs).max() <= 1e-6
        checked += 1


def test_criterion_5_property_suites_under_three_seeds():
    for seed in props.GLOBAL_SEEDS:
        props.test_similarity_bounds_symmetry_weight_scale(seed)
        props.test_clustering_partitions_every_model(seed)
        props.test_confidence_gates_monotone(seed)
        props.test_removal_round_trip(seed)


def test_criterion_6_evaluate_is_byte_deterministic(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        code = main([
            "evaluate", "--template", "university", "--scales", "1,2",
            "--runs", str(RUNS), "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert code == 0
        outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert outputs[0] == outputs[1]
