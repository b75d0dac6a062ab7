"""`main` runs each command with the cyclic garbage collector paused.

That is safe because a command makes no reference cycles that outlive
it: reference counting frees everything it drops.  These tests check that
premise for each step a command takes, with the collector off, and that
`main` leaves the collector as it found it on every way out.
"""

import gc
import io
import os
import random

import pytest

from abacfill import cli
from abacfill.clustering import cluster_objects
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import evaluate_matrix, remove_cells
from abacfill.model import EntitlementIndex, Policy
from abacfill.policy_io import (
    entitlements_to_csv,
    load_entitlements,
    load_policy,
    policy_to_dict,
    save_policy,
    write_json,
)
from abacfill.prediction import predict_missing


@pytest.fixture
def files(tmp_path):
    """A university-2 policy with 6% of its cells hidden, and its
    reference entitlements, written to files."""
    policy = generate(GeneratorConfig("university", 2, seed=1))
    entitlements = reference_entitlements(policy)
    om = policy.model.copy()
    remove_cells(om, 0.06, random.Random(1))
    path, ents = tmp_path / "p.json", tmp_path / "e.csv"
    save_policy(Policy(om, policy.rules), str(path))
    ents.write_text(entitlements_to_csv(entitlements), encoding="utf-8")
    return str(path), str(ents)


def _steps(policy_path, ents_path):
    def predict():
        policy = load_policy(policy_path)
        entitlements = load_entitlements(ents_path, policy.model)
        clustering = cluster_objects(policy.model)
        return predict_missing(policy.model, clustering, EntitlementIndex(entitlements))

    return {
        "load_policy": lambda: load_policy(policy_path),
        "load_entitlements": lambda: load_entitlements(ents_path, load_policy(policy_path).model),
        "cluster_objects": lambda: cluster_objects(load_policy(policy_path).model),
        "predict_missing": predict,
        "evaluate_matrix jobs 1": lambda: evaluate_matrix("university", [2], [0.06], 2, jobs=1),
        "evaluate_matrix jobs 2": lambda: evaluate_matrix("university", [2], [0.06], 2, jobs=2),
        "generate": lambda: generate(GeneratorConfig("project", 2, seed=3)),
        "write_json": lambda: write_json(policy_to_dict(load_policy(policy_path)),
                                         io.StringIO().write),
    }


def test_steps_leave_no_cyclic_garbage(files, monkeypatch):
    # two workers at jobs 2 whatever the host, so a child is forked
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    steps = _steps(*files)
    for step in steps.values():
        step()  # warm-up: first calls may build caches that hold cycles
    collecting = gc.isenabled()
    try:
        for name, step in steps.items():
            gc.collect()
            gc.disable()
            step()
            assert gc.collect() == 0, name
    finally:
        if collecting:
            gc.enable()


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("collecting", (True, False))
def test_main_restores_the_collector(files, capsys, monkeypatch, collecting):
    policy_path, ents_path = files

    def broken(*args, **kwargs):
        raise ValueError("broken")

    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        predict = ["predict", "--policy", policy_path, "--entitlements", ents_path]
        assert _exit_code(predict) == 0
        assert gc.isenabled() is collecting
        assert _exit_code(["cluster", "--policy", "no-such-file.json"]) == 1
        assert gc.isenabled() is collecting
        assert _exit_code(["--version"]) == 0
        assert gc.isenabled() is collecting
        monkeypatch.setattr(cli, "cluster_objects", broken)
        assert _exit_code(["cluster", "--policy", policy_path]) == 2
        assert gc.isenabled() is collecting
        assert "internal error: ValueError: broken" in capsys.readouterr().err
    finally:
        (gc.enable if was else gc.disable)()
