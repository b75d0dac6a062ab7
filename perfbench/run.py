#!/usr/bin/env python3
"""Benchmark for abacfill: end-to-end metrics per workload, or a traced run
that times each layer.

    python3 perfbench/run.py --workload fill-dense --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` next to this directory and driven
in-process through ``abacfill.cli.main``, one pass after another (a closed
loop with one client).  Set-up (importing the package, making the inputs from
the seed, one untimed warm pass) is timed apart from the passes, first in two
fresh processes and then here, and reported as the median of the three.

Reported times are scaled to one nominal host speed (see ``hostspeed.py``):
a fixed kernel is timed before and after each set-up and each pass, and the
wall seconds are scaled by it.  The wall seconds print and go to the results
file as well.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds (a round is one pass over each of
the workload's inputs) and reports per-layer metrics from the traced rounds,
plus the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  A copy of the result, the environment,
output digests and counts goes to ``perfbench/results/``, and the spans of a
traced run go next to it.

Exit code 0 whenever a result is printed (a failed check shows as
``"correct": false``); 1 when the package cannot be imported or the
arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_CHILDREN = 2  # fresh processes that repeat the set-up, for the setup_s median
MIN_PASSES = 3  # a median of fewer passes is a mean; the sweep's passes take ~8 s
KERNEL_SHARE = 0.1  # host-speed kernel seconds sampled after a stretch, per second of it
SETUP_KERNEL_S = 0.5  # kernel seconds sampled before a set-up

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "coverage": "ratio",
    "accuracy": "ratio",
    "pass_ok_rate": "ratio",
}
# medians over traced rounds, times in seconds per pass; the counts are
# totals over one round and must repeat exactly
PER_LAYER_MEDIANS = {
    "features.build_s": "s",
    "features.rank_s": "s",
    "features.fit_s": "s",
    "clustering.cluster_s": "s",
    "prediction.lookup_s": "s",
    "prediction.predict_s": "s",
    "prediction.self_s": "s",
    "policy_io.io_s": "s",
    "cli.self_s": "s",
    "harness.busy_ratio": "ratio",
}
PER_LAYER_COUNTS = {
    "features.matrix_cells": "count",
    "features.rows": "count",
    "features.columns": "count",
    "features.triples": "count",
    "features.useful_ratio": "ratio",
    "clustering.similarity_calls": "count",
    "clustering.groups": "count",
    "prediction.lookup_calls": "count",
    "prediction.cells": "count",
    "prediction.nei": "count",
    "policy_io.loads": "count",
    "policy_io.copies": "count",
    "harness.runs": "count",
}
# measured over the traced set-up, which holds every generation and, on the
# fill workloads, the only reference-entitlement computation
PER_LAYER_SETUP = {
    "generator.generate_s": "s",
    "evaluate.meaning_s": "s",
    "evaluate.meaning_calls": "count",
}
PER_LAYER = {**PER_LAYER_MEDIANS, **PER_LAYER_COUNTS, **PER_LAYER_SETUP, "trace.overhead": "ratio"}
# printed and recorded, but zero on the workloads that never enter the layer
REPORT_ONLY = {"policy_io.load_s": "s", "policy_io.copy_s": "s", "harness.run_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke runs a seconds-long input of the same shape")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import abacfill
        import abacfill.cli
        import abacfill.generator
        import abacfill.harness
        import abacfill.policy_io
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import abacfill from {src}: {e}")
    if not os.path.abspath(abacfill.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: abacfill came from {abacfill.__file__}, not from {src}")
    return abacfill


def environment(args, jobs) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "benchmark_threads": jobs,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
    }


def child_setups(args) -> list:
    """Repeat the set-up in SETUP_CHILDREN fresh interpreters, one after the
    other; returns each one's set-up times and digest, or its error text.
    They run before this process sets up, so that its warm pass comes right
    before the timed ones."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    out = []
    for _ in range(SETUP_CHILDREN):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
            if proc.returncode != 0:
                out.append(f"exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        except (subprocess.TimeoutExpired, ValueError, IndexError) as e:
            out.append(f"{type(e).__name__}: {e}")
    return out


def run_timed(wl, k):
    t = time.perf_counter()
    try:
        res = wl.run_pass(k)
    except Exception as e:  # noqa: BLE001 - a pass that raises is a failed pass
        res = workloads.PassResult("", 0, 0, 0, f"{type(e).__name__}: {e}")
    return time.perf_counter() - t, res


class Passes:
    """Timed passes with their checks: a pass fails when it raises, exits
    non-zero, scores below accuracy 1.0, or changes its input's digest."""

    def __init__(self, wl, warm):
        self.wl = wl
        self.digests = {wl.input_of(0): warm.digest}
        self.first = {}  # input -> PassResult of its first pass
        self.seconds = []  # wall
        self.scaled = []  # scaled to the nominal host speed
        self.refs = []  # host-speed kernel seconds, sampled after each pass
        self.inputs = []  # input of each pass
        self.failed = 0
        self.errors = []

    def add(self, k, seconds, res, ref_before, ref_after) -> None:
        self.seconds.append(seconds)
        self.scaled.append(hostspeed.scaled(seconds, ref_before, ref_after))
        self.refs.extend(ref_after)
        i = self.wl.input_of(k)
        self.inputs.append(i)
        error = res.error
        if not error and res.correct != res.predicted:
            error = f"accuracy {res.correct}/{res.predicted}"
        if not error and self.digests.setdefault(i, res.digest) != res.digest:
            error = f"output digest of input {i} changed"
        if error:
            self.failed += 1
            self.errors.append(f"pass {k}: {error}")
        self.first.setdefault(i, res)

    def pass_s(self) -> float:
        """Per input, the median scaled seconds of its passes; their mean
        over the inputs, so that the inputs a run repeats weigh no more."""
        by_input = {}
        for i, seconds in zip(self.inputs, self.scaled):
            by_input.setdefault(i, []).append(seconds)
        return statistics.fmean(statistics.median(v) for v in by_input.values())

    def scores(self):
        firsts = list(self.first.values())
        hidden = sum(r.hidden for r in firsts)
        predicted = sum(r.predicted for r in firsts)
        correct = sum(r.correct for r in firsts)
        coverage = predicted / hidden if hidden else 0.0
        accuracy = correct / predicted if predicted else 0.0
        return hidden, predicted, correct, coverage, accuracy


def layer_values(round_spans, draws, jobs) -> dict:
    """Per-layer metrics of one traced round of `draws` passes."""
    by = {}
    for s in round_spans:
        by.setdefault(s.name, []).append(s)
    selfs = spans.self_seconds(round_spans)

    def total(name):
        return sum(s.seconds for s in by.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by.get(name, ()))

    load_ids = {s.id for s in by.get("policy_io.load", ())}
    copies = [s for s in by.get("policy_io.from_dict", ()) if s.parent not in load_ids]
    copy_s = sum(s.seconds for s in copies)
    ranks = len(by.get("features.rank", ()))
    cli_s = total("cli")
    per_pass = {
        "features.build_s": total("features.build"),
        "features.rank_s": total("features.rank"),
        "features.fit_s": total("features.fit"),
        "clustering.cluster_s": total("clustering.cluster"),
        "prediction.lookup_s": total("prediction.lookup"),
        "prediction.predict_s": total("prediction.predict"),
        "prediction.self_s": sum(selfs[s.id] for s in by.get("prediction.predict", ())),
        "policy_io.io_s": total("policy_io.load") + copy_s,
        "cli.self_s": sum(selfs[s.id] for s in by.get("cli", ())),
        "policy_io.load_s": total("policy_io.load"),
        "policy_io.copy_s": copy_s,
        "harness.run_s": total("harness.run"),
    }
    out = {k: v / draws for k, v in per_pass.items()}
    out["harness.busy_ratio"] = total("harness.run") / (cli_s * jobs) if cli_s else 0.0
    out.update({
        "features.matrix_cells": count("features.build", "matrix_cells"),
        "features.rows": count("features.build", "rows"),
        "features.columns": count("features.build", "columns"),
        "features.triples": len(by.get("features.build", ())),
        "features.useful_ratio": count("features.rank", "ranked") / ranks if ranks else 0.0,
        "clustering.similarity_calls": count("clustering.cluster", "similarity_calls"),
        "clustering.groups": count("clustering.cluster", "groups"),
        "prediction.lookup_calls": len(by.get("prediction.lookup", ())),
        "prediction.cells": count("prediction.predict", "cells"),
        "prediction.nei": count("prediction.predict", "nei"),
        "policy_io.loads": len(by.get("policy_io.load", ())),
        "policy_io.copies": len(copies),
        "harness.runs": len(by.get("harness.run", ())),
    })
    return out


def setup_values(setup_spans) -> dict:
    gen = [s for s in setup_spans if s.name == "generator.generate"]
    meaning = [s for s in setup_spans if s.name == "evaluate.meaning"]
    return {
        "generator.generate_s": sum(s.seconds for s in gen),
        "evaluate.meaning_s": sum(s.seconds for s in meaning),
        "evaluate.meaning_calls": len(meaning),
    }


def measure(args, wl, warm, tracer):
    """Closed loop for --seconds.  Untraced runs stop between passes, after at
    least MIN_PASSES and one pass per input; traced runs stop between rounds,
    after at least one untraced and one traced."""
    passes = Passes(wl, warm)
    rounds = []  # (traced, scaled seconds, wall seconds, spans), seconds of passes only
    start = time.perf_counter()
    ref = hostspeed.sample(0.0)
    k = 0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        round_spans = tracer.open_scope(f"round {len(rounds)}") if traced else None
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        scaled_s = wall_s = 0.0
        for _ in range(wl.draws):
            seconds, res = run_timed(wl, k)
            ref_after = hostspeed.sample(KERNEL_SHARE * seconds)
            passes.add(k, seconds, res, ref, ref_after)
            ref = ref_after
            scaled_s += passes.scaled[-1]
            wall_s += seconds
            k += 1
            if not args.trace and k >= max(wl.draws, MIN_PASSES):
                elapsed = time.perf_counter() - start
                if elapsed + (elapsed / k) > args.seconds:
                    return passes, rounds
        if traced:
            tracer.uninstall()
        rounds.append((traced, scaled_s, wall_s, round_spans))
        if args.trace and len(rounds) >= 2:
            now = time.perf_counter()
            if now - start + now - round_start > args.seconds:
                return passes, rounds


def trace_report(tracer, rounds, wl, problems) -> dict:
    every = [s for _, spans_of in tracer.scopes for s in spans_of]
    problems.extend(spans.nesting_errors(every))
    if any(v < -1e-9 for v in spans.self_seconds(every).values()):
        problems.append("a span has negative self time")
    traced = [layer_values(sp, wl.draws, wl.jobs) for t, _, _, sp in rounds if t]
    counted = [{k: v[k] for k in PER_LAYER_COUNTS} for v in traced]
    if any(c != counted[0] for c in counted):
        problems.append("counts differ between traced rounds")
    values = {k: statistics.median(v[k] for v in traced) for k in {**PER_LAYER_MEDIANS, **REPORT_ONLY}}
    values.update(counted[0])
    values.update(setup_values(tracer.scopes[0][1]))
    # the overhead from host-scaled round times; the pass times in wall
    # seconds, like the layer times they are compared with
    values["trace.overhead"] = (statistics.median(s for t, s, _, _ in rounds if t)
                                / statistics.median(s for t, s, _, _ in rounds if not t))
    values["pass_s.traced"] = statistics.median(w for t, _, w, _ in rounds if t) / wl.draws
    values["pass_s.untraced"] = statistics.median(w for t, _, w, _ in rounds if not t) / wl.draws
    return values


def run(args, abac, workdir, children, t0, ref0) -> int:
    tracer = spans.Tracer() if args.trace else None
    wl = workloads.make(abac, args.workload, args.size, args.seed, workdir)
    problems = []
    if tracer:
        tracer.open_scope("setup")
        tracer.install()
    wl.set_up()
    warm = wl.run_pass(0)
    setup_wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    setup_s = hostspeed.scaled(setup_wall, ref0, hostspeed.sample(KERNEL_SHARE * setup_wall))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall,
                          "digest": warm.digest, "error": warm.error}))
        return 0
    if warm.error or warm.correct != warm.predicted:
        problems.append(f"warm pass: {warm.error or f'accuracy {warm.correct}/{warm.predicted}'}")

    setups = [setup_s]
    setup_walls = [setup_wall]
    for child in children:
        if isinstance(child, str):
            problems.append(f"set-up process: {child}")
            continue
        setups.append(child["setup_s"])
        setup_walls.append(child["setup_wall_s"])
        if child["digest"] != warm.digest or child["error"]:
            problems.append(f"set-up process output differs: {child['error'] or child['digest']}")

    passes, rounds = measure(args, wl, warm, tracer)
    problems.extend(passes.errors)
    hidden, predicted, correct, coverage, accuracy = passes.scores()
    attempted = len(passes.seconds)

    record = {
        "workload": args.workload,
        "command": wl.describe(),
        "environment": environment(args, wl.jobs),
        "digests": {str(i): d for i, d in sorted(passes.digests.items())},
        "cells": {"hidden": hidden, "predicted": predicted, "correct": correct},
        "nominal_host": {"kernel_s": hostspeed.NOMINAL_S, "kernel_samples_s": passes.refs},
        "setup_samples_s": setups,
        "setup_wall_samples_s": setup_walls,
        "pass_samples_s": passes.scaled,
        "pass_wall_samples_s": passes.seconds,
        "problems": problems,
    }
    if args.trace:
        values = trace_report(tracer, rounds, wl, problems)
        units = {**PER_LAYER, **REPORT_ONLY, "pass_s.traced": "s", "pass_s.untraced": "s"}
        names = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": passes.pass_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "coverage": coverage,
            "accuracy": accuracy,
            "pass_ok_rate": (attempted - passes.failed) / attempted,
        }
        units = names = END_TO_END
    correct_run = not problems and passes.failed == 0 and accuracy == 1.0
    record.update({"correct": correct_run, "attempted": attempted, "failed": passes.failed,
                   "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}})

    env = record["environment"]
    print(f"workload {args.workload}: {wl.describe()}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        print(f"  {name:<30} {values[name]:>14.6g} {unit}")
    print(f"  {'error_rate':<30} {passes.failed / attempted:>14.6g} ratio "
          f"({passes.failed} of {attempted} passes failed)")
    print(f"  passes {attempted}, pass_s min {min(passes.scaled):.4f} max {max(passes.scaled):.4f}; "
          f"set-ups {len(setups)}")
    print(f"  wall seconds: pass median {statistics.median(passes.seconds):.4f}, "
          f"set-up median {statistics.median(setup_walls):.4f}; host-speed kernel median "
          f"{statistics.median(passes.refs):.4f} s against nominal {hostspeed.NOMINAL_S} s")
    for i, d in record["digests"].items():
        print(f"  digest input {i} sha256:{d}")
    for p in problems[:10]:
        print(f"  problem: {p}")
    if len(problems) > 10:
        print(f"  ... {len(problems) - 10} more problems in the results file")

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if tracer:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)

    print(json.dumps({
        "correct": correct_run,
        "attempted": attempted,
        "failed": passes.failed,
        "metrics": {k: record["metrics"][k] for k in names},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    children = [] if args.trace or args.setup_only else child_setups(args)
    ref0 = hostspeed.sample(SETUP_KERNEL_S)
    t0 = time.perf_counter()
    abac = import_package()
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, abac, workdir, children, t0, ref0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
