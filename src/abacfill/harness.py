"""Evaluation harness: hide known cells, predict them back, score the result.

A removal run marks a seeded sample of eligible cells unknown (anything
known and applicable except ids) in a private copy of the model, so runs
never modify the policy they start from.  It runs the full pipeline on the
damaged copy against the reference entitlements of the intact policy and
scores each hidden cell.  A single-valued prediction must match exactly; a
multi-valued one counts as correct when it is a non-empty subset of the
true set (exact equality when subset scoring is off).  Unpredicted cells
lower coverage but not accuracy.

A sweep's runs are independent and seeded, so `evaluate_matrix` splits
them between the calling process and up to `jobs` - 1 children forked with
`os.fork`, which read the policies they inherited and pickle only their
results back, each down its own `os.pipe`.  Each worker holds one CPU of
the process's usable set for its share, since a forked child left to the
scheduler stays on its parent's CPU, and the parent gets its own mask back
after its share.  `pickle` and `signal` are imported only to fork.
"""

from __future__ import annotations

import os
import random
import time

from . import generator
from .clustering import ClusteringConfig, cluster_objects
from .model import (
    MISSING,
    NULL,
    AttrKind,
    ConfigError,
    EntitlementIndex,
    ObjectModel,
    Policy,
    Record,
    Side,
)
from .prediction import Confidence, PredictionConfig, predict_missing


def eligible_cells(om: ObjectModel) -> list:
    """Cells a removal run may hide: known, applicable, and not the id."""
    return [
        (side, oid, attr)
        for side, oid, attr, v in om.cells()
        if attr != "id" and v is not NULL and v is not MISSING
    ]


# below this many eligible cells a rounded-to-zero plan is bumped to one
# cell, so tiny fixtures still exercise the pipeline; larger models keep
# the honest zero
DESK_SCALE_CELLS = 100


def removal_count(eligible: int, fraction: float) -> int:
    """Round half up, with a floor of one cell on desk-scale models."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"removal fraction must be in [0, 1]: {fraction}")
    count = int(eligible * fraction + 0.5)
    if count == 0 and 0 < eligible <= DESK_SCALE_CELLS:
        count = 1
    return min(count, eligible)


def remove_cells(om: ObjectModel, fraction: float, rng: random.Random) -> list:
    """Hide a seeded sample of eligible cells in om itself (a removal run
    passes its own model copy).  Returns (side, id, attr, original value)
    tuples, which restore_cells writes back."""
    cells = eligible_cells(om)
    picked = rng.sample(cells, removal_count(len(cells), fraction))
    removed = []
    for side, oid, attr in picked:
        obj = om.side_objects(side)[oid]
        removed.append((side, oid, attr, obj.attrs[attr]))
        obj.attrs[attr] = MISSING
    return removed


def restore_cells(om: ObjectModel, removed) -> None:
    for side, oid, attr, value in removed:
        om.side_objects(side)[oid].attrs[attr] = value


def score_prediction(kind: AttrKind, predicted, truth, subset_ok: bool = True) -> bool:
    if kind is AttrKind.SINGLE:
        return predicted == truth
    if subset_ok:
        return bool(predicted) and predicted <= truth
    return predicted == truth


class CellOutcome(Record):
    __slots__ = ("side", "object_id", "attr", "truth", "predicted", "confidence", "correct")

    def __init__(self, side: Side, object_id: str, attr: str, truth: object, predicted: object,
                 confidence: Confidence, correct: object):
        self.side = side
        self.object_id = object_id
        self.attr = attr
        self.truth = truth
        self.predicted = predicted
        self.confidence = confidence
        self.correct = correct  # bool, or None when nothing was predicted

    def __reduce__(self):
        # pickled as its arguments, smaller and faster than the slots' state
        # dict; a forked worker's reply is mostly these
        return CellOutcome, (self.side, self.object_id, self.attr, self.truth, self.predicted,
                             self.confidence, self.correct)


class RunResult:
    __slots__ = ("scale", "fraction", "run_index", "seed", "cells", "elapsed")

    def __init__(self, scale: int, fraction: float, run_index: int, seed: int, cells: list,
                 elapsed: float):
        self.scale, self.fraction, self.run_index = scale, fraction, run_index
        self.seed, self.cells, self.elapsed = seed, cells, elapsed

    def __reduce__(self):
        return RunResult, (self.scale, self.fraction, self.run_index, self.seed, self.cells,
                           self.elapsed)

    @property
    def removed(self) -> int:
        return len(self.cells)

    @property
    def predicted(self) -> int:
        return sum(1 for c in self.cells if c.correct is not None)

    @property
    def correct(self) -> int:
        return sum(1 for c in self.cells if c.correct)

    @property
    def coverage(self) -> float:
        return tally([self])[0]

    @property
    def accuracy(self) -> float:
        return tally([self])[1]


def tally(runs) -> tuple:
    """(coverage, accuracy) pooled over runs: predicted / removed and
    correct / predicted, each 1.0 when there is nothing to divide."""
    removed = sum(r.removed for r in runs)
    predicted = sum(r.predicted for r in runs)
    correct = sum(r.correct for r in runs)
    return (predicted / removed if removed else 1.0, correct / predicted if predicted else 1.0)


class HarnessConfig:
    __slots__ = ("clustering", "prediction", "subset_ok")

    def __init__(self, clustering: ClusteringConfig = None, prediction: PredictionConfig = None,
                 subset_ok: bool = True):
        # Removal experiments run with a lower grouping threshold than the
        # library default: desk-scale objects carry only a handful of
        # attributes, so a single hidden cell shifts mean similarity by
        # roughly 1/(2n) and a 0.25 cutoff would expel exactly the objects
        # under test from their groups.
        self.clustering = ClusteringConfig(threshold=0.1) if clustering is None else clustering
        self.prediction = PredictionConfig() if prediction is None else prediction
        self.subset_ok = subset_ok


def evaluate_run(
    policy: Policy,
    entitlements: EntitlementIndex,
    fraction: float,
    seed: int,
    scale: int = 0,
    run_index: int = 0,
    config: HarnessConfig = None,
) -> RunResult:
    """One removal run.  Cells are hidden in a private copy of the policy's
    model, so the policy itself is never modified.  entitlements index the
    intact policy's reference entitlements."""
    config = config or HarnessConfig()
    start = time.perf_counter()
    om = policy.model.copy()
    removed = remove_cells(om, fraction, random.Random(seed))
    clustering = cluster_objects(om, config.clustering)
    predictions = predict_missing(om, clustering, entitlements, config.prediction)
    by_cell = {(p.side, p.object_id, p.attr): p for p in predictions}
    outcomes = []
    for side, oid, attr, truth in removed:
        p = by_cell[(side, oid, attr)]
        if p.predicted:
            kind = om.schema.kind(side, attr)
            ok = score_prediction(kind, p.value, truth, config.subset_ok)
        else:
            ok = None
        outcomes.append(CellOutcome(side, oid, attr, truth, p.value, p.confidence, ok))
    elapsed = time.perf_counter() - start
    return RunResult(scale, fraction, run_index, seed, outcomes, elapsed)


class MatrixResult:
    __slots__ = ("template", "runs", "policies")

    def __init__(self, template: str, runs: list, policies: dict):
        self.template, self.runs = template, runs
        self.policies = policies  # scale -> (policy, reference entitlements)

    def pooled(self, scale: int, fraction: float):
        """(coverage, accuracy) over all runs of one scale whose fraction
        has the same `percent_key` as fraction."""
        key = percent_key(fraction)
        return tally([r for r in self.runs if r.scale == scale and percent_key(r.fraction) == key])


def percent_key(fraction: float) -> float:
    """The percent a removal fraction is reported as, rounded to 6 decimals:
    fractions with one key are one setting of a sweep."""
    return round(fraction * 100, 6)


def run_seed(base_seed: int, scale: int, fraction: float, run_index: int) -> int:
    """Stable per-run seed derivation."""
    return base_seed * 1_000_003 + scale * 10_007 + int(round(fraction * 1000)) * 101 + run_index


def worker_count(jobs: int, tasks: int) -> int:
    """How many processes run a grid of `tasks` runs at `--jobs` jobs: jobs,
    capped by the tasks and by the CPUs this process may run on, and 1
    where processes cannot be forked."""
    if jobs == 1 or tasks <= 1 or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, tasks, cpus))


def interleave(shares: list) -> list:
    """Items back in task order from the shares tasks[w::len(shares)]."""
    out = [None] * sum(map(len, shares))
    for w, share in enumerate(shares):
        out[w::len(shares)] = share
    return out


def _pin(cpus) -> None:
    """Let this process run only on the CPUs numbered in cpus.  With none,
    or where the platform refuses the mask (a CPU went offline, the cpuset
    changed), it runs where the scheduler places it."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def _child(run, share, cpus, read_end: int, write_end: int) -> None:
    """A forked worker: pinned to cpus, run its share and pickle the
    results, or the exception that stopped it, into the write end of its
    pipe.  It ends in `os._exit` whatever happens, so it never returns into
    the caller: with code 0 once its reply is sent, 1 when anything else,
    `SystemExit` included, stopped it."""
    import pickle
    import signal

    code = 1
    try:
        os.close(read_end)  # a reply to a parent that is gone fails, not blocks
        # the parent alone answers an interrupt, by ending its children with
        # SIGTERM; a handler the caller installed for that must not keep one alive
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        _pin(cpus)
        try:
            reply = ("ok", [run(task) for task in share])
        except Exception as e:  # noqa: BLE001 - re-raised in the parent
            reply = ("error", e)
        with open(write_end, "wb") as pipe:
            pickle.dump(reply, pipe)
        code = 0
    finally:
        os._exit(code)


def run_shared(run, tasks: list, jobs: int) -> list:
    """[run(task) for task in tasks], split between worker_count processes.

    Each worker w > 0 is forked with `os.fork` and pickles its results
    straight into a pipe of `os.pipe`, one way; nothing is sent to a child.
    The parent runs share 0 first, then loads each child's reply and reaps
    the child with `os.waitpid`.  A child that exited before its reply was
    whole is named with its exit code.  Worker w holds the w-th CPU of the
    usable set (`os.sched_getaffinity`) for its share, and the parent's own
    mask is restored when it returns or raises.  With one worker no process
    is started and nothing is pinned.  On any exception, an interrupt
    included, the parent ends every child it has not reaped with SIGTERM
    and reaps it.
    """
    n = worker_count(jobs, len(tasks))
    if n > 1:  # only a fork needs them, so one worker loads neither
        import pickle
        import signal
    shares = [tasks[w::n] for w in range(n)]
    mask = os.sched_getaffinity(0) if n > 1 and hasattr(os, "sched_setaffinity") else set()
    cpus = sorted(mask)
    children = {}  # w -> (pid, read end of its pipe), until w is reaped
    try:
        for w in range(1, n):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(run, shares[w], cpus[w:w + 1], read_end, write_end)
            os.close(write_end)
            children[w] = (pid, open(read_end, "rb"))
        _pin(cpus[:1])
        results = [[run(task) for task in shares[0]]]
        for w in range(1, n):
            pid, reader = children[w]
            with reader:
                try:
                    reply = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):  # no reply, or one cut short
                    reply = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[w]
            if reply is None:
                raise RuntimeError(
                    f"removal worker {w} exited with code {code} before sending its runs"
                )
            status, payload = reply
            if status == "error":
                raise payload
            results.append(payload)
        return interleave(results)
    finally:
        _pin(mask)
        for pid, reader in children.values():
            reader.close()
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)


def evaluate_matrix(
    template: str,
    scales,
    fractions,
    runs: int,
    base_seed: int = 0,
    config: HarnessConfig = None,
    jobs: int = 1,
) -> MatrixResult:
    """Removal sweep over scales x fractions x run indices.

    Each scale's policy is generated from the named template with seed
    base_seed + scale, and its reference entitlements and their index are
    built once and shared by the scale's runs.  Runs never modify the
    policy, so `run_shared` splits them between up to `jobs` processes;
    each run is seeded, so results, which come back in grid order, are the
    same whatever `jobs` is.
    """
    policies, indexes = {}, {}
    for scale in scales:
        policy = generator.generate(
            generator.GeneratorConfig(template=template, scale=scale, seed=base_seed + scale)
        )
        ents = generator.reference_entitlements(policy)
        policies[scale] = (policy, ents)
        indexes[scale] = EntitlementIndex(ents)

    def one(task):
        scale, fraction, run_index = task
        seed = run_seed(base_seed, scale, fraction, run_index)
        policy = policies[scale][0]
        return evaluate_run(policy, indexes[scale], fraction, seed, scale, run_index, config)

    tasks = [(s, f, i) for s in scales for f in fractions for i in range(runs)]
    return MatrixResult(template=template, runs=run_shared(one, tasks, jobs), policies=policies)
