"""Removal-harness tests.

The university template at unit scale exposes 42 hideable cells, counted
by hand: six users and nine resources, minus ids and inapplicable slots
(faculty never have coursesTaken, materials have no department or
student, and so on).
"""

import random

import pytest

from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import (
    DESK_SCALE_CELLS,
    HarnessConfig,
    RunResult,
    eligible_cells,
    evaluate_matrix,
    evaluate_run,
    remove_cells,
    removal_count,
    restore_cells,
    run_seed,
    score_prediction,
)
from abacfill.model import MISSING, NULL, AttrKind, ConfigError, EntitlementIndex, Side
from abacfill.policy_io import policy_to_dict


@pytest.fixture
def uni1():
    return generate(GeneratorConfig(template="university", scale=1, seed=0))


def test_eligible_cells_hand_count(uni1):
    cells = eligible_cells(uni1.model)
    assert len(cells) == 42


def test_eligible_cells_skip_ids_and_inapplicable(uni1):
    om = uni1.model
    for side, oid, attr in eligible_cells(om):
        assert attr != "id"
        value = om.side_objects(side)[oid].attrs[attr]
        assert value is not NULL and value is not MISSING


def test_eligible_cells_order_is_stable(uni1):
    cells = eligible_cells(uni1.model)
    assert cells == eligible_cells(uni1.model)
    assert cells[0][0] is Side.USER
    users = [c for c in cells if c[0] is Side.USER]
    assert users == sorted(users, key=lambda c: (c[1], c[2]))


def test_removal_count_rounds_half_up():
    assert removal_count(42, 0.03) == 1
    assert removal_count(42, 0.06) == 3
    assert removal_count(42, 0.09) == 4
    assert removal_count(10, 0.05) == 1
    assert removal_count(10, 1.0) == 10


def test_removal_count_desk_scale_floor():
    # tiny models always lose at least one cell; big ones may lose none
    assert removal_count(DESK_SCALE_CELLS, 0.0) == 1
    assert removal_count(DESK_SCALE_CELLS + 1, 0.0) == 0
    assert removal_count(0, 0.5) == 0


def test_removal_count_rejects_bad_fraction():
    with pytest.raises(ConfigError):
        removal_count(42, -0.1)
    with pytest.raises(ConfigError):
        removal_count(42, 1.5)


def test_remove_restore_round_trip(uni1):
    before = policy_to_dict(uni1)
    removed = remove_cells(uni1.model, 0.2, random.Random(7))
    assert len(removed) == removal_count(42, 0.2)
    for side, oid, attr, original in removed:
        assert uni1.model.side_objects(side)[oid].attrs[attr] is MISSING
        assert original is not MISSING
    restore_cells(uni1.model, removed)
    assert policy_to_dict(uni1) == before


def test_remove_cells_is_seed_deterministic(uni1):
    a = remove_cells(uni1.model, 0.1, random.Random(3))
    restore_cells(uni1.model, a)
    b = remove_cells(uni1.model, 0.1, random.Random(3))
    restore_cells(uni1.model, b)
    c = remove_cells(uni1.model, 0.1, random.Random(4))
    restore_cells(uni1.model, c)
    assert a == b
    assert a != c


def test_score_single_valued():
    assert score_prediction(AttrKind.SINGLE, "cs101", "cs101")
    assert not score_prediction(AttrKind.SINGLE, "cs101", "cs102")


def test_score_multi_valued_subset():
    truth = frozenset({"cs101", "cs205"})
    assert score_prediction(AttrKind.MULTI, frozenset({"cs101"}), truth)
    assert score_prediction(AttrKind.MULTI, truth, truth)
    assert not score_prediction(AttrKind.MULTI, frozenset(), truth)
    assert not score_prediction(AttrKind.MULTI, frozenset({"cs101", "cs999"}), truth)


def test_score_multi_valued_exact_mode():
    truth = frozenset({"cs101", "cs205"})
    assert not score_prediction(AttrKind.MULTI, frozenset({"cs101"}), truth, subset_ok=False)
    assert score_prediction(AttrKind.MULTI, truth, truth, subset_ok=False)


def test_run_seeds_unique_across_grid():
    seeds = {
        run_seed(0, scale, pct / 100, run)
        for scale in (1, 2, 3)
        for pct in (3, 6, 9)
        for run in range(5)
    }
    assert len(seeds) == 45
    assert run_seed(0, 1, 0.03, 0) != run_seed(1, 1, 0.03, 0)


def test_evaluate_run_restores_model(uni1):
    before = policy_to_dict(uni1)
    ents = reference_entitlements(uni1)
    result = evaluate_run(uni1, ents, 0.09, seed=123)
    assert policy_to_dict(uni1) == before
    assert result.removed == 4
    assert result.elapsed >= 0.0
    assert 0.0 <= result.coverage <= 1.0
    assert 0.0 <= result.accuracy <= 1.0


def test_evaluate_run_deterministic(uni1):
    ents = reference_entitlements(uni1)
    a = evaluate_run(uni1, ents, 0.06, seed=55)
    b = evaluate_run(uni1, ents, 0.06, seed=55)
    assert a.cells == b.cells
    assert (a.coverage, a.accuracy) == (b.coverage, b.accuracy)


def test_evaluate_run_zero_plan_on_large_model():
    policy = generate(GeneratorConfig(template="university", scale=3, seed=0))
    assert len(eligible_cells(policy.model)) > DESK_SCALE_CELLS
    ents = reference_entitlements(policy)
    result = evaluate_run(policy, ents, 0.0, seed=9)
    assert result.removed == 0
    assert result.coverage == 1.0
    assert result.accuracy == 1.0


def test_run_result_counts():
    r = RunResult(scale=1, fraction=0.03, run_index=0, seed=0, cells=[], elapsed=0.0)
    assert r.coverage == 1.0 and r.accuracy == 1.0


def test_evaluate_matrix_shape_and_pooling():
    result = evaluate_matrix("university", scales=(1,), fractions=(0.03, 0.06), runs=2, base_seed=0)
    assert len(result.runs) == 4
    cov, acc = result.pooled(1, 0.03)
    rows = [r for r in result.runs if r.fraction == 0.03]
    assert sum(r.removed for r in rows) == 2
    assert cov == sum(r.predicted for r in rows) / 2
    assert acc == 1.0


def test_evaluate_matrix_builds_each_scale_once():
    result = evaluate_matrix("university", scales=(1, 2), fractions=(0.03,), runs=2, base_seed=5)
    assert sorted(result.policies) == [1, 2]
    for scale, (policy, ents) in result.policies.items():
        want = generate(GeneratorConfig(template="university", scale=scale, seed=5 + scale))
        assert policy_to_dict(policy) == policy_to_dict(want)
        assert ents == reference_entitlements(want)
        assert not policy.model.missing_cells()  # runs never touch the policy


def test_evaluate_matrix_indexes_each_scale_once(monkeypatch):
    built = []
    init = EntitlementIndex.__init__

    def counting_init(self, entitlements):
        built.append(len(entitlements))
        init(self, entitlements)

    monkeypatch.setattr(EntitlementIndex, "__init__", counting_init)
    result = evaluate_matrix(
        "university", scales=(1, 2, 3), fractions=(0.03, 0.06), runs=2, base_seed=5
    )
    assert len(result.runs) == 12
    assert built == [len(result.policies[scale][1]) for scale in (1, 2, 3)]


def test_harness_config_defaults():
    cfg = HarnessConfig()
    assert cfg.clustering.threshold == 0.1
    assert cfg.subset_ok is True
