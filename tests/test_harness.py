"""Removal-harness tests.

The university template at unit scale exposes 42 hideable cells, counted
by hand: six users and nine resources, minus ids and inapplicable slots
(faculty never have coursesTaken, materials have no department or
student, and so on).
"""

import json
import os
import pickle
import random
import signal
import subprocess
import sys
import time

import pytest

from abacfill import harness
from abacfill.cli import main
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import (
    DESK_SCALE_CELLS,
    CellOutcome,
    HarnessConfig,
    RunResult,
    eligible_cells,
    evaluate_matrix,
    evaluate_run,
    interleave,
    remove_cells,
    removal_count,
    restore_cells,
    run_seed,
    run_shared,
    score_prediction,
    worker_count,
)
from abacfill.model import MISSING, NULL, AttrKind, ConfigError, EntitlementIndex, InputError, Side
from abacfill.policy_io import policy_to_dict

forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


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
    ents = EntitlementIndex(reference_entitlements(uni1))
    result = evaluate_run(uni1, ents, 0.09, seed=123)
    assert policy_to_dict(uni1) == before
    assert result.removed == 4
    assert result.elapsed >= 0.0
    assert 0.0 <= result.coverage <= 1.0
    assert 0.0 <= result.accuracy <= 1.0


def test_evaluate_run_deterministic(uni1):
    ents = EntitlementIndex(reference_entitlements(uni1))
    a = evaluate_run(uni1, ents, 0.06, seed=55)
    b = evaluate_run(uni1, ents, 0.06, seed=55)
    assert a.cells == b.cells
    assert (a.coverage, a.accuracy) == (b.coverage, b.accuracy)


def test_evaluate_run_zero_plan_on_large_model():
    policy = generate(GeneratorConfig(template="university", scale=3, seed=0))
    assert len(eligible_cells(policy.model)) > DESK_SCALE_CELLS
    ents = EntitlementIndex(reference_entitlements(policy))
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


# --- sharing a grid between processes ---


def test_worker_count_is_capped_by_jobs_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: -1, raising=False)  # never called
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert worker_count(1, 45) == 1
    assert worker_count(3, 45) == 3
    assert worker_count(64, 45) == 4  # the CPUs this process may run on
    assert worker_count(4, 2) == 2  # no worker without a task
    assert worker_count(4, 0) == 1


def test_worker_count_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: -1, raising=False)  # never called
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert worker_count(8, 45) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(8, 45) == 1


def test_worker_count_is_one_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert worker_count(4, 45) == 1


_LOADED = "print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
_SWEEP_AT_TWO_JOBS = """
import os, sys
from abacfill import cli
os.sched_getaffinity = lambda pid: {0, 1}
forked, fork = [], os.fork
os.fork = lambda: forked.append(1) or fork()
code = cli.main(["evaluate", "--template", "university", "--scales", "1", "--percents", "6",
                 "--runs", "2", "--jobs", "2", "--csv", os.devnull])
print(code, len(forked))
"""


def test_importing_the_cli_leaves_multiprocessing_out():
    # workers are forked with os.fork: neither the import nor a sweep that
    # forks a worker (two CPUs whatever the host) loads multiprocessing
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def output(code):
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout

    assert output(f"import sys, abacfill.cli; {_LOADED}") == "[]\n"
    if hasattr(os, "fork"):
        assert output(_SWEEP_AT_TWO_JOBS + _LOADED) == "0 1\n[]\n"


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("count", [0, 1, 7, 10, 11])
def test_interleave_undoes_the_shares(n, count):
    tasks = [f"t{i}" for i in range(count)]
    shares = [tasks[w::n] for w in range(n)]
    assert sum(map(len, shares)) == count
    assert all(len(share) - len(shares[-1]) in (0, 1) for share in shares)
    assert interleave(shares) == tasks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two workers at --jobs 2 whatever the host, and no child left after.
    The CPUs are fake, so pinning is faked too: it yields the masks this
    process asked for, and a forked child's asks stay in the child."""
    asked = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: asked.append(set(cpus)),
                        raising=False)
    yield asked
    _no_child_left()


def _slots(record, *skip):
    return {k: getattr(record, k) for k in type(record).__slots__ if k not in skip}


def _fields(run):
    """Every field of a RunResult but its time, each cell as its fields."""
    return {**_slots(run, "elapsed"), "cells": [_slots(c) for c in run.cells]}


def test_run_results_round_trip_through_pickle(uni1):
    """A forked worker pickles its RunResults, CellOutcomes inside, back to
    the parent: every field survives, and each cell equals its original."""
    run = evaluate_run(uni1, EntitlementIndex(reference_entitlements(uni1)), 0.1, seed=7,
                       scale=1, run_index=1)
    assert run.cells and all(type(c) is CellOutcome for c in run.cells)
    back = pickle.loads(pickle.dumps(run))
    assert type(back) is RunResult
    assert (_fields(back), back.elapsed) == (_fields(run), run.elapsed)
    assert back.cells == run.cells


@forks
def test_matrix_runs_equal_at_one_and_two_jobs(two_cpus):
    # nine tasks: the parent's share has one more than the child's
    got = [
        evaluate_matrix("university", scales=(1, 2, 3), fractions=(0.06,), runs=3, base_seed=4,
                        jobs=jobs)
        for jobs in (1, 2)
    ]
    assert [(r.scale, r.run_index) for r in got[1].runs] == [
        (s, i) for s in (1, 2, 3) for i in range(3)
    ]
    assert [_fields(r) for r in got[0].runs] == [_fields(r) for r in got[1].runs]
    # the parent holds CPU 0 for its share, then gets its own mask back
    assert two_cpus == [{0}, {0, 1}]


@forks
@pytest.mark.parametrize("refused", [True, False], ids=["refused", "absent"])
def test_a_host_that_refuses_pinning_runs_unpinned(two_cpus, monkeypatch, refused):
    if refused:
        def pin(pid, cpus):
            raise OSError(22, "Invalid argument")
        monkeypatch.setattr(os, "sched_setaffinity", pin)
    else:
        monkeypatch.delattr(os, "sched_setaffinity")
    got = [
        evaluate_matrix("university", scales=(1, 2), fractions=(0.06,), runs=2, base_seed=4,
                        jobs=jobs)
        for jobs in (1, 2)
    ]
    assert [_fields(r) for r in got[0].runs] == [_fields(r) for r in got[1].runs]
    assert two_cpus == []


@forks
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and 2 usable CPUs")
def test_each_worker_holds_a_cpu_of_its_own():
    before = os.sched_getaffinity(0)
    masks = run_shared(lambda task: os.sched_getaffinity(0), [0, 1, 2, 3], 2)
    assert all(len(mask) == 1 for mask in masks)
    assert masks[0] == masks[2] != masks[1] == masks[3]  # shares [0, 2] and [1, 3]
    assert masks[0] | masks[1] <= before
    assert os.sched_getaffinity(0) == before

    def run(task):
        if task == 2:  # the parent's share, once it holds its CPU
            raise ValueError("lost")
        return task

    with pytest.raises(ValueError):
        run_shared(run, [0, 1, 2, 3], 2)
    assert os.sched_getaffinity(0) == before
    _no_child_left()


@forks
def test_timing_columns_at_two_jobs(two_cpus, tmp_path, capsys):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(["evaluate", "--template", "university", "--scales", "1,2", "--percents", "6",
                 "--runs", "2", "--jobs", "2", "--timing",
                 "--csv", str(csv_path), "--json", str(json_path)]) == 0
    assert capsys.readouterr().err == ""
    for line in csv_path.read_text().splitlines()[1:]:
        assert float(line.split(",")[-1]) > 0
    detail = json.loads(json_path.read_text())["detail"]
    assert len(detail) == 4 and all(row["elapsed_s"] > 0 for row in detail)


def _failing_run(monkeypatch, tmp_path, fail):
    """evaluate_run that calls fail() on run index 1, which at --jobs 2 is
    the child's share of a one-setting, two-run grid; it records the pid
    that failed."""
    real = harness.evaluate_run

    def run(policy, ents, fraction, seed, scale, run_index, config):
        if run_index == 1:
            (tmp_path / "failed_in").write_text(str(os.getpid()))
            fail()
        return real(policy, ents, fraction, seed, scale, run_index, config)

    monkeypatch.setattr(harness, "evaluate_run", run)


def _evaluate(capsys, jobs):
    code = main(["evaluate", "--template", "university", "--scales", "1", "--percents", "6",
                 "--runs", "2", "--jobs", str(jobs), "--csv", os.devnull])
    return code, capsys.readouterr().err


def _raise(exc):
    def fail():
        raise exc
    return fail


@forks
@pytest.mark.parametrize("exc, code, message", [
    (InputError("bad cell"), 1, "error: bad cell\n"),
    (ValueError("lost"), 2, "internal error: ValueError: lost\n"),
])
def test_error_in_a_child_reads_as_at_one_job(two_cpus, monkeypatch, tmp_path, capsys,
                                              exc, code, message):
    _failing_run(monkeypatch, tmp_path, _raise(exc))
    assert _evaluate(capsys, 1) == (code, message)
    assert int((tmp_path / "failed_in").read_text()) == os.getpid()
    assert _evaluate(capsys, 2) == (code, message)
    assert int((tmp_path / "failed_in").read_text()) != os.getpid()
    _no_child_left()


@forks
def test_child_that_dies_without_sending_exits_2(two_cpus, monkeypatch, tmp_path, capsys):
    _failing_run(monkeypatch, tmp_path, lambda: os._exit(3))
    code, err = _evaluate(capsys, 2)
    assert code == 2
    assert err.startswith("internal error: ")
    assert "worker 1 exited with code 3" in err
    _no_child_left()


@forks
def test_interrupt_in_the_parent_ends_its_children(two_cpus, monkeypatch, tmp_path):
    def run(policy, ents, fraction, seed, scale, run_index, config):
        if run_index == 0:  # the parent's share
            raise KeyboardInterrupt
        time.sleep(60)  # the child's share, until the parent ends it

    monkeypatch.setattr(harness, "evaluate_run", run)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        evaluate_matrix("university", scales=(1,), fractions=(0.06,), runs=2, jobs=2)
    assert time.perf_counter() - start < 30
    assert two_cpus == [{0}, {0, 1}]  # the parent's mask is back after the interrupt
    _no_child_left()


@forks
def test_a_reply_bigger_than_a_pipe_buffer_arrives_whole(two_cpus):
    # the child's reply fills its pipe long before the parent, busy with its
    # own share, starts to read it; a parent that waited for the child to
    # exit before reading would wait forever, so an alarm ends the test
    def run(task):
        if task == 0:
            time.sleep(0.2)
        return str(task) * (1 << 20)

    def timeout(signum, frame):
        raise TimeoutError("the reply never arrived")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        assert run_shared(run, [0, 1], 2) == ["0" * (1 << 20), "1" * (1 << 20)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@forks
def test_system_exit_in_a_child_never_returns_into_the_caller(two_cpus, monkeypatch, tmp_path,
                                                               capsys):
    after = tmp_path / "after_run_shared"
    real = harness.run_shared

    def recording(*args):
        try:
            return real(*args)
        finally:
            with open(after, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")

    monkeypatch.setattr(harness, "run_shared", recording)
    _failing_run(monkeypatch, tmp_path, _raise(SystemExit(0)))
    code, err = _evaluate(capsys, 2)
    assert code == 2
    assert err == ("internal error: RuntimeError: removal worker 1 exited with code 1 "
                   "before sending its runs\n")
    assert int((tmp_path / "failed_in").read_text()) != os.getpid()
    assert after.read_text(encoding="utf-8") == f"{os.getpid()}\n"
