#!/usr/bin/env python3
"""Self-check of the benchmark at smoke size, a few seconds per workload.

    python3 perfbench/selfcheck.py

For each workload it makes one untraced and two traced smoke runs and checks
that:

* every metric named in BENCHMARK.json prints, with its unit, and nothing else;
* each run reports correct, accuracy 1.0 and no failed pass;
* the two traced runs report identical counts, and all three runs identical
  output digests (tracing must not change what the program writes);
* spans nest, with self time >= 0, across threads too (checked inside each
  traced run, which reports a failure as "correct": false).

It also checks that the benchmark exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def bench(workload, trace, cwd=run.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload, trace, failures):
    proc = bench(workload, trace)
    if proc.returncode != 0:
        failures.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None, None
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.RESULTS, f"{workload}-seed1-trace{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return line, record


def check_workload(workload, spec, failures):
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    runs = [(0, *result_of(workload, 0, failures)),
            (1, *result_of(workload, 1, failures)),
            (1, *result_of(workload, 1, failures))]
    if any(line is None for _, line, _ in runs):
        return
    for trace, line, record in runs:
        where = f"{workload} trace {trace}"
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"{where}: result keys {sorted(line)}")
        units = {k: v["unit"] for k, v in line["metrics"].items()}
        if units != expected[trace]:
            failures.append(f"{where}: metrics {units} differ from BENCHMARK.json {expected[trace]}")
        if not line["correct"] or line["failed"] or line["attempted"] < 1:
            failures.append(f"{where}: correct={line['correct']} failed={line['failed']} "
                            f"problems={record['problems']}")
        if trace == 0 and line["metrics"]["accuracy"]["value"] != 1.0:
            failures.append(f"{where}: accuracy {line['metrics']['accuracy']['value']}")
    digests = {json.dumps(record["digests"], sort_keys=True) for _, _, record in runs}
    if len(digests) != 1:
        failures.append(f"{workload}: output digests differ between runs: {digests}")
    counts = [{k: v["value"] for k, v in line["metrics"].items() if k in run.PER_LAYER_COUNTS}
              for trace, line, _ in runs if trace]
    if counts[0] != counts[1]:
        failures.append(f"{workload}: counts differ between traced runs: {counts}")


def check_without_package(failures):
    bare = os.path.join(run.HERE, "work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(SPEC, bare)
    try:
        proc = bench("fill-sparse", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without the package: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    # every workload, also those BENCHMARK.json leaves out
    for name in workloads.NAMES:
        check_workload(name, spec, failures)
        print(f"{name}: checked", flush=True)
    check_without_package(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
