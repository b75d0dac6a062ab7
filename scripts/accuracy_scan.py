"""Count wrong answers over seeded removal runs: the accuracy scans.

    PYTHONPATH=src python scripts/accuracy_scan.py [--grid NAME ...] [--ceiling NAME=N ...]

Each run generates a policy (`generate(GeneratorConfig(template, scale,
seed))`, or `ops_template.ops_policy(scale, seed)` for the ops template),
then calls `harness.evaluate_run` on it with the hidden percent, removal
seed `seed * 1000 + draw` and the threshold.  Each generated policy gets
one `harness.Baseline`, over its reference entitlements, which every
draw, percent and threshold of it reuses.
The grids:

* design: university scales 4, 6, 8, 12, 20 and project scales 3, 5, 10,
  20; seeds 1-40, draws 0-3, 6% and 30% hidden, threshold 0.1 and 0.25.
* heldout: university scales 3, 5, 7, 9, 10 and project scales 2, 4, 6, 8,
  30; seeds 41-60, with the design grid's draws, percents and thresholds.
* ops: the ops template (`tests/ops_template.py`) at scales 3, 5 and 8;
  seeds 1-20, draws 0-2, 6% and 30% hidden, threshold 0.1.

For each grid it prints the run count and seconds, the wrong answers by
(template, attribute) with how many of them `oracles.refuted` flags (the
generating rules contradict the answer), and coverage per (template,
percent, threshold).  `--grid` may be repeated; with none, every grid
runs.  `--ceiling NAME=N` makes the scan exit 1 when grid NAME has more
than N wrong answers.  `tests/ops_template.py` and `tests/oracles.py` are
read from this checkout's `tests/`.
"""

import argparse
import pathlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from ops_template import ops_policy  # noqa: E402
from oracles import refuted  # noqa: E402

from abacfill.clustering import ClusteringConfig  # noqa: E402
from abacfill.generator import GeneratorConfig, generate, reference_entitlements  # noqa: E402
from abacfill.harness import Baseline, HarnessConfig, evaluate_run  # noqa: E402
from abacfill.model import EntitlementIndex  # noqa: E402

BOTH_THRESHOLDS = (0.1, 0.25)


@dataclass(frozen=True)
class Grid:
    scales: dict  # template -> scales
    seeds: range
    draws: range
    percents: tuple = (6, 30)
    thresholds: tuple = BOTH_THRESHOLDS


GRIDS = {
    "design": Grid({"university": (4, 6, 8, 12, 20), "project": (3, 5, 10, 20)},
                   range(1, 41), range(4)),
    "heldout": Grid({"university": (3, 5, 7, 9, 10), "project": (2, 4, 6, 8, 30)},
                    range(41, 61), range(4)),
    "ops": Grid({"ops": (3, 5, 8)}, range(1, 21), range(3), thresholds=(0.1,)),
}


@dataclass
class Wrong:
    template: str
    scale: int
    seed: int
    draw: int
    percent: int
    threshold: float
    object_id: str
    attr: str
    truth: object
    predicted: object
    refuted: bool


@dataclass
class Report:
    runs: int = 0
    seconds: float = 0.0
    wrong: list = field(default_factory=list)
    removed: Counter = field(default_factory=Counter)  # (template, percent, threshold) -> cells
    predicted: Counter = field(default_factory=Counter)


def make_policy(template: str, scale: int, seed: int):
    if template == "ops":
        return ops_policy(scale, seed)
    return generate(GeneratorConfig(template=template, scale=scale, seed=seed))


def scan(grid: Grid) -> Report:
    report = Report()
    start = time.perf_counter()
    configs = {st: HarnessConfig(ClusteringConfig(threshold=st)) for st in grid.thresholds}
    for template, scales in grid.scales.items():
        for scale in scales:
            for seed in grid.seeds:
                policy = make_policy(template, scale, seed)
                reference = reference_entitlements(policy)
                baseline = Baseline(policy, EntitlementIndex(reference))
                for draw in grid.draws:
                    for pct in grid.percents:
                        for st in grid.thresholds:
                            run = evaluate_run(baseline, pct / 100, seed * 1000 + draw,
                                               config=configs[st])
                            report.runs += 1
                            report.removed[template, pct, st] += run.removed
                            report.predicted[template, pct, st] += run.predicted
                            report.wrong += [
                                Wrong(template, scale, seed, draw, pct, st, c.object_id,
                                      c.attr, c.truth, c.predicted,
                                      refuted(policy, reference, c.side, c.object_id,
                                              c.attr, c.predicted))
                                for c in run.cells if c.correct is False
                            ]
    report.seconds = time.perf_counter() - start
    return report


def render(name: str, report: Report) -> str:
    lines = [f"{name}: {report.runs} runs in {report.seconds:.1f} s"]
    flagged = sum(w.refuted for w in report.wrong)
    lines.append(f"  wrong {len(report.wrong)} (refuted {flagged})")
    by_attr = Counter((w.template, w.attr) for w in report.wrong)
    refuted_by_attr = Counter((w.template, w.attr) for w in report.wrong if w.refuted)
    for (template, attr), n in sorted(by_attr.items()):
        lines.append(f"    {template} {attr}: {n} (refuted {refuted_by_attr[template, attr]})")
    lines.append("  coverage")
    for key in sorted(report.removed):
        template, pct, st = key
        removed, predicted = report.removed[key], report.predicted[key]
        coverage = predicted / removed if removed else 1.0
        lines.append(f"    {template} {pct}% st {st}: {coverage:.4f} ({predicted} of {removed})")
    return "\n".join(lines)


def _ceiling(text: str) -> tuple:
    name, sep, value = text.partition("=")
    if not sep or not value.isdigit():
        raise argparse.ArgumentTypeError(f"ceiling must look like GRID=N: {text!r}")
    return name, int(value)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--grid", action="append", choices=sorted(GRIDS),
                   help="grid to scan (repeatable; default: every grid)")
    p.add_argument("--ceiling", action="append", type=_ceiling, default=[], metavar="GRID=N",
                   help="exit 1 when GRID has more than N wrong answers (repeatable)")
    args = p.parse_args(argv)
    names = list(dict.fromkeys(args.grid or GRIDS))
    ceilings = dict(args.ceiling)
    unscanned = sorted(set(ceilings) - set(names))
    if unscanned:
        p.error(f"ceiling for a grid that is not scanned: {', '.join(unscanned)}")
    over = []
    for name in names:
        report = scan(GRIDS[name])
        print(render(name, report), flush=True)
        if name in ceilings and len(report.wrong) > ceilings[name]:
            over.append(f"{name}: {len(report.wrong)} wrong, ceiling {ceilings[name]}")
    for line in over:
        print(f"over the ceiling: {line}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
